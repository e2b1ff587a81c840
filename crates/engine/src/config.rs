//! Engine configuration: serving modes, cache mediums and knobs.

use models::{ClusterSpec, CostModel, ModelSpec, TierStack};
use store::StoreConfig;

/// How the engine treats KV caches across turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// CachedAttention (CA): save KV to AttentionStore on session
    /// deactivation, reuse on resumption, truncate KV directly on context
    /// overflow (decoupled positional encoding, §3.4).
    CachedAttention,
    /// Recomputation baseline (RE): discard KV after every turn, re-prefill
    /// all historical tokens, token-truncate on overflow.
    Recompute,
    /// Overflow baseline (OF, §4.3.4): CachedAttention but with positional
    /// encodings embedded in the stored KV, so every context overflow
    /// invalidates the session's cache.
    CoupledOverflow,
}

impl Mode {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Mode::CachedAttention => "CA",
            Mode::Recompute => "RE",
            Mode::CoupledOverflow => "OF",
        }
    }
}

/// Which storage hierarchy backs AttentionStore (Fig 24).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Medium {
    /// Fast tier = host DRAM (PCIe hop), slow tier = SSD. The paper's
    /// full CachedAttention configuration.
    DramDisk,
    /// Fast tier = spare HBM (free to access), slow tier = host DRAM.
    HbmDram,
    /// Spare HBM only (the LMDeploy-style baseline); no slow tier.
    HbmOnly,
}

/// Complete configuration of one serving run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Serving mode.
    pub mode: Mode,
    /// Served model.
    pub model: ModelSpec,
    /// Hardware: GPUs and PCIe. The store's tier stack is
    /// [`StoreConfig::tiers`] in `store`.
    pub cluster: ClusterSpec,
    /// Latency model.
    pub cost: CostModel,
    /// AttentionStore sizing/policy (ignored in [`Mode::Recompute`]).
    pub store: StoreConfig,
    /// Storage hierarchy backing the store.
    pub medium: Medium,
    /// Continuous-batching slot count (paper: 24).
    pub max_batch: usize,
    /// Layer-wise pre-loading on/off (Fig 19's NO-PL ablation).
    pub preload: bool,
    /// Read buffer depth in layers (§3.2.1).
    pub read_buffer_layers: u32,
    /// Asynchronous saving on/off (Fig 20's ablation).
    pub async_save: bool,
    /// HBM write buffer in bytes (§3.2.2): how much un-flushed KV may
    /// outlive its job before the next job is delayed.
    pub write_buffer_bytes: u64,
    /// Fraction of the context dropped on overflow (paper: 0.5).
    pub truncation_ratio: f64,
    /// Stored/transferred fraction of the raw KV bytes, modelling KV
    /// quantization or compression applied before saving (the orthogonal
    /// techniques §5 cites, e.g. int4 ≈ 0.25). Affects store footprints
    /// and transfer times, never GPU compute. 1.0 = uncompressed.
    pub kv_compression: f64,
    /// Optional Sarathi-style chunked prefill (the paper's reference
    /// \[1\]): prefills longer than this many computed tokens are split
    /// into chunks with one decode iteration piggybacked between chunks,
    /// so long prefills stop stalling the decoding batch. `None` =
    /// monolithic prefills (the paper's setting).
    pub chunked_prefill_tokens: Option<u64>,
    /// Number of leading turn arrivals excluded from metrics (§4.2 warms
    /// up on the first 10K of 52K turns).
    pub warmup_turns: usize,
}

impl EngineConfig {
    /// The paper's end-to-end setup for `model` (§4.1): LLaMA-13B runs on
    /// two GPUs, the larger models on four; 24 batch slots; 128 GB DRAM +
    /// 10 TB SSD; scheduler-aware store; pre-loading and async saving on.
    pub fn paper(mode: Mode, model: ModelSpec) -> Self {
        let n_gpus = if model.n_params <= 14_000_000_000 {
            2
        } else {
            4
        };
        let store = StoreConfig {
            tiers: TierStack::paper_two_tier(),
            default_session_bytes: model.kv_bytes(1500),
            ..StoreConfig::default()
        };
        EngineConfig {
            mode,
            model,
            cluster: ClusterSpec::paper_testbed().with_gpus(n_gpus),
            cost: CostModel::paper_system(),
            store,
            medium: Medium::DramDisk,
            max_batch: 24,
            preload: true,
            read_buffer_layers: 15,
            async_save: true,
            write_buffer_bytes: 2_000_000_000,
            truncation_ratio: 0.5,
            kv_compression: 1.0,
            chunked_prefill_tokens: None,
            warmup_turns: 0,
        }
    }

    /// Bytes of stored/transferred KV for `tokens` tokens after the
    /// configured compression: `kv_bytes(tokens) · kv_compression`,
    /// truncated to whole bytes. GPU compute always sees the raw size;
    /// only the store footprint and link transfers shrink.
    pub fn stored_kv_bytes(&self, tokens: u64) -> u64 {
        (self.model.kv_bytes(tokens) as f64 * self.kv_compression) as u64
    }

    /// Returns a copy with chunked prefill at the given chunk size.
    pub fn with_chunked_prefill(mut self, tokens: u64) -> Self {
        assert!(tokens > 0, "chunk size must be positive");
        self.chunked_prefill_tokens = Some(tokens);
        self
    }

    /// Returns a copy with KV compression at `ratio` of the raw bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio <= 1`.
    pub fn with_kv_compression(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "invalid compression {ratio}");
        self.kv_compression = ratio;
        self
    }

    /// Returns a copy with the given warmup turn count.
    pub fn with_warmup(mut self, turns: usize) -> Self {
        self.warmup_turns = turns;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_sizes_gpus_by_model() {
        let small = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
        assert_eq!(small.cluster.n_gpus, 2);
        let big = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_70b());
        assert_eq!(big.cluster.n_gpus, 4);
        assert_eq!(big.max_batch, 24);
        assert!(big.preload && big.async_save);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::CachedAttention.label(), "CA");
        assert_eq!(Mode::Recompute.label(), "RE");
        assert_eq!(Mode::CoupledOverflow.label(), "OF");
    }
}
