//! Analytic latency model for prefill and decode.
//!
//! Prefill is compute-bound: time = FLOPs / (aggregate FP16 throughput ×
//! model FLOP utilization). Decode is memory-bound: every iteration streams
//! the weights plus the live KV cache through HBM once. Both match the
//! phase characteristics of Figure 1 and are calibrated so LLaMA-65B
//! prefilling 2K tokens on 4×A100 takes ~360 ms (§2.4).

use serde::{Deserialize, Serialize};
use sim::Dur;

use crate::{ClusterSpec, ModelSpec};

/// Latency model parameters.
///
/// # Examples
///
/// ```
/// use models::{ClusterSpec, CostModel, ModelSpec};
///
/// let (m, c, cm) = (
///     ModelSpec::llama1_65b(),
///     ClusterSpec::paper_testbed(),
///     CostModel::default(),
/// );
/// // The paper's §2.4 anchor: ~360 ms to prefill 2K tokens on 4×A100.
/// let ms = cm.prefill_time(&m, &c, 2048, 0).as_millis_f64();
/// assert!((340.0..390.0).contains(&ms));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Model FLOP utilization during prefill (fraction of peak).
    pub prefill_mfu: f64,
    /// Memory bandwidth utilization during decode (fraction of peak).
    pub decode_mbu: f64,
    /// Fixed per-iteration overhead (kernel launches, scheduling).
    pub iter_overhead: Dur,
}

impl Default for CostModel {
    /// Calibrated defaults: `prefill_mfu = 0.59` reproduces the paper's
    /// 360 ms / 2K-token LLaMA-65B anchor; `decode_mbu = 0.9` reflects the
    /// near-peak bandwidth efficiency of batched decoding and puts 70B
    /// batch-8 decode iterations in the tens of milliseconds as in Fig 1b.
    fn default() -> Self {
        CostModel {
            prefill_mfu: 0.59,
            decode_mbu: 0.9,
            iter_overhead: Dur::from_micros(100),
        }
    }
}

impl CostModel {
    /// Calibration matching the paper's *end-to-end system* (§4.1: PyTorch
    /// + HuggingFace Transformers, no fused attention kernels).
    ///
    /// The §2.4 anchor (360 ms for a 2K-token LLaMA-65B prefill) reflects
    /// near-optimal utilization, but the evaluation numbers do not: an
    /// ~85% TTFT reduction down to 0.122 s for LLaMA-13B (Figures 14/25)
    /// puts the RE prefill of a ~2.5K-token prompt at ~0.8 s on two A100s,
    /// i.e. ~10–12% MFU, and the reported GPU hours imply similarly
    /// modest decode bandwidth efficiency. The end-to-end experiments
    /// (Figures 13–17, 21–25) use this calibration; the
    /// microbenchmark-flavoured ones (Figure 1) use [`CostModel::default`].
    pub fn paper_system() -> Self {
        CostModel {
            prefill_mfu: 0.12,
            decode_mbu: 0.45,
            iter_overhead: Dur::from_micros(300),
        }
    }

    /// FLOPs to prefill `new` tokens given `past` tokens already cached.
    ///
    /// Weight GEMMs contribute `2 * n_params` per token; attention
    /// contributes two matmuls (`QKᵀ` and `A·V`) per layer per head, where
    /// new token `t` attends to `past + t` positions.
    pub fn prefill_flops(&self, m: &ModelSpec, new: u64, past: u64) -> f64 {
        let weight = 2.0 * m.n_params as f64 * new as f64;
        // Sum over new tokens of attended positions: new*past + new²/2.
        let attended = new as f64 * past as f64 + (new as f64).powi(2) / 2.0;
        let attn = 4.0 * m.n_layers as f64 * m.hidden as f64 * attended;
        weight + attn
    }

    /// Wall-clock time to prefill `new` tokens on `c` with `past` cached.
    pub fn prefill_time(&self, m: &ModelSpec, c: &ClusterSpec, new: u64, past: u64) -> Dur {
        if new == 0 {
            return Dur::ZERO;
        }
        let secs = self.prefill_flops(m, new, past) / (c.total_flops() * self.prefill_mfu);
        Dur::from_secs_f64(secs) + self.iter_overhead
    }

    /// Per-layer slice of the prefill time (layer-wise overlap model,
    /// §3.2.1 treats compute as evenly divided across layers).
    pub fn prefill_layer_time(&self, m: &ModelSpec, c: &ClusterSpec, new: u64, past: u64) -> Dur {
        self.prefill_time(m, c, new, past) / m.n_layers as u64
    }

    /// Wall-clock time of one decode iteration for a batch whose sequences
    /// hold `total_ctx_tokens` live tokens in aggregate.
    ///
    /// Weights stream through HBM once per iteration regardless of batch
    /// size; the KV read scales with the aggregate context. The batch-size
    /// FLOP term is negligible for the batch sizes used here but included
    /// for completeness.
    pub fn decode_iter_time(
        &self,
        m: &ModelSpec,
        c: &ClusterSpec,
        batch: u64,
        total_ctx_tokens: u64,
    ) -> Dur {
        self.decode_cost(m, c, batch).iter_time(total_ctx_tokens)
    }

    /// The decode-iteration cost of a `batch`-sized batch with its weight,
    /// FLOP and bandwidth terms evaluated once, so a run of iterations at
    /// one batch size pays only each iteration's KV read
    /// ([`DecodeCost::iter_time`]).
    pub fn decode_cost(&self, m: &ModelSpec, c: &ClusterSpec, batch: u64) -> DecodeCost {
        let bw = c.total_hbm_bw() * self.decode_mbu;
        DecodeCost {
            batch,
            bw,
            kv_bytes_per_token: m.kv_bytes_per_token(),
            weights: m.weight_bytes() as f64 / bw,
            flops: 2.0 * m.n_params as f64 * batch as f64 / (c.total_flops() * self.prefill_mfu),
            overhead: self.iter_overhead,
        }
    }

    /// Average KV cache generation rate during a prefill, bytes/s.
    ///
    /// §2.4 quotes ~13.9 GB/s for LLaMA-65B prefilling 2K tokens.
    pub fn kv_gen_rate(&self, m: &ModelSpec, c: &ClusterSpec, prompt: u64) -> f64 {
        let t = self.prefill_time(m, c, prompt, 0).as_secs_f64();
        if t == 0.0 {
            return 0.0;
        }
        m.kv_bytes(prompt) as f64 / t
    }

    /// Time to move `bytes` of KV over PCIe in one direction.
    pub fn pcie_time(&self, c: &ClusterSpec, bytes: u64) -> Dur {
        Dur::from_secs_f64(bytes as f64 / c.pcie_bw)
    }
}

/// One batch size's decode-iteration cost, from [`CostModel::decode_cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeCost {
    batch: u64,
    bw: f64,
    kv_bytes_per_token: u64,
    weights: f64,
    flops: f64,
    overhead: Dur,
}

impl DecodeCost {
    /// Wall-clock time of one iteration whose sequences hold
    /// `total_ctx_tokens` live tokens in aggregate.
    pub fn iter_time(&self, total_ctx_tokens: u64) -> Dur {
        if self.batch == 0 {
            return Dur::ZERO;
        }
        let kv = (total_ctx_tokens * self.kv_bytes_per_token) as f64 / self.bw;
        Dur::from_secs_f64(self.weights + kv + self.flops) + self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn anchor() -> (ModelSpec, ClusterSpec, CostModel) {
        (
            ModelSpec::llama1_65b(),
            ClusterSpec::paper_testbed(),
            CostModel::default(),
        )
    }

    /// §2.4 anchor: LLaMA-65B prefills 2K tokens in ~360 ms on 4×A100.
    #[test]
    fn llama65b_prefill_2k_near_360ms() {
        let (m, c, cm) = anchor();
        let ms = cm.prefill_time(&m, &c, 2048, 0).as_millis_f64();
        assert!((340.0..390.0).contains(&ms), "got {ms} ms");
    }

    /// §2.4 anchor: the same prefill generates KV at ~13.9 GB/s.
    #[test]
    fn llama65b_kv_gen_rate_near_13_9_gbps() {
        let (m, c, cm) = anchor();
        let rate = cm.kv_gen_rate(&m, &c, 2048) / 1e9;
        assert!((12.5..15.5).contains(&rate), "got {rate} GB/s");
    }

    /// §2.4 anchor: loading the 5 GB KV over 26 GB/s PCIe takes ~192 ms.
    #[test]
    fn pcie_load_of_2k_kv_near_192ms() {
        let (m, c, cm) = anchor();
        let ms = cm.pcie_time(&c, m.kv_bytes(2048)).as_millis_f64();
        assert!((185.0..210.0).contains(&ms), "got {ms} ms");
    }

    /// Fig 1b: decode iteration latency is roughly flat in prompt length
    /// (weights dominate) while prefill grows.
    #[test]
    fn decode_is_flat_prefill_grows() {
        let m = ModelSpec::llama2_70b();
        let c = ClusterSpec::paper_testbed();
        let cm = CostModel::default();
        let d_short = cm.decode_iter_time(&m, &c, 8, 8 * 128).as_secs_f64();
        let d_long = cm.decode_iter_time(&m, &c, 8, 8 * 2048).as_secs_f64();
        assert!(d_long / d_short < 1.2, "decode grew {}x", d_long / d_short);
        let p_short = cm.prefill_time(&m, &c, 128, 0).as_secs_f64();
        let p_long = cm.prefill_time(&m, &c, 2048, 0).as_secs_f64();
        assert!(
            p_long / p_short > 10.0,
            "prefill grew only {}x",
            p_long / p_short
        );
    }

    /// Fig 1b scale check: 70B batch-8 decode iterations are tens of ms.
    #[test]
    fn llama70b_decode_iter_in_tens_of_ms() {
        let m = ModelSpec::llama2_70b();
        let c = ClusterSpec::paper_testbed();
        let cm = CostModel::default();
        let ms = cm.decode_iter_time(&m, &c, 8, 8 * 1024).as_millis_f64();
        assert!((15.0..80.0).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn zero_token_cases_cost_nothing() {
        let (m, c, cm) = anchor();
        assert_eq!(cm.prefill_time(&m, &c, 0, 1000), Dur::ZERO);
        assert_eq!(cm.decode_iter_time(&m, &c, 0, 0), Dur::ZERO);
    }

    proptest! {
        /// Prefill time is monotone in both new and past token counts.
        #[test]
        fn prefill_monotone(new in 1u64..4096, past in 0u64..8192, extra in 1u64..512) {
            let (m, c, cm) = anchor();
            let base = cm.prefill_time(&m, &c, new, past);
            prop_assert!(cm.prefill_time(&m, &c, new + extra, past) >= base);
            prop_assert!(cm.prefill_time(&m, &c, new, past + extra) >= base);
        }

        /// Per-layer times sum back to the whole prefill (within rounding).
        #[test]
        fn layer_times_sum_to_total(new in 1u64..4096, past in 0u64..4096) {
            let (m, c, cm) = anchor();
            let total = cm.prefill_time(&m, &c, new, past).as_nanos() as i128;
            let layered =
                (cm.prefill_layer_time(&m, &c, new, past).as_nanos() * m.n_layers as u64) as i128;
            prop_assert!((total - layered).abs() <= m.n_layers as i128);
        }

        /// The evaluator reproduces the one-call formula it replaced bit
        /// for bit: same terms, same order (`weights + kv + flops`).
        #[test]
        fn decode_cost_matches_the_inline_formula(
            batch in 1u64..64,
            ctx in 0u64..400_000,
            model in 0usize..4,
        ) {
            let m = crate::evaluation_models()[model].clone();
            for (c, cm) in [
                (ClusterSpec::paper_testbed(), CostModel::default()),
                (ClusterSpec::paper_testbed(), CostModel::paper_system()),
            ] {
                let bw = c.total_hbm_bw() * cm.decode_mbu;
                let weights = m.weight_bytes() as f64 / bw;
                let kv = (ctx * m.kv_bytes_per_token()) as f64 / bw;
                let flops =
                    2.0 * m.n_params as f64 * batch as f64 / (c.total_flops() * cm.prefill_mfu);
                let inline = Dur::from_secs_f64(weights + kv + flops) + cm.iter_overhead;
                prop_assert_eq!(cm.decode_cost(&m, &c, batch).iter_time(ctx), inline);
            }
        }

        /// Decode cost grows with aggregate context but stays bounded by
        /// the pure-bandwidth bound plus overheads.
        #[test]
        fn decode_monotone_in_context(ctx in 0u64..100_000, extra in 1u64..10_000) {
            let (m, c, cm) = anchor();
            prop_assert!(
                cm.decode_iter_time(&m, &c, 8, ctx + extra) >= cm.decode_iter_time(&m, &c, 8, ctx)
            );
        }
    }
}
