//! The three benchmark workloads: one trace shape and one cluster setup
//! each, chosen so that the store, the engine and the telemetry layer
//! each carry a different share of the host cost (see README.md).

use engine::{ClusterConfig, EngineConfig, Mode, RouterKind};
use models::ModelSpec;
use store::KeyingMode;
use telemetry::Telemetry;
use workload::{Diurnal, Generator, PrefixProfile, PrefixScenario, ShareGptProfile, Trace};

const GB: u64 = 1_000_000_000;

/// Width of the telemetry windows `rag_blocks_traced` slices its run
/// into, virtual seconds.
const WINDOW_SECS: f64 = 60.0;

/// The diurnal wave compressed to one hour, so every shard's trace
/// spans at least one crest and the shards do not all sit on one
/// phase of it.
const WAVE: Diurnal = Diurnal {
    period_secs: 3_600.0,
    amplitude: 0.6,
    segment_secs: 300.0,
};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ShareGPT multi-turn, CachedAttention, per-session keying, a
    /// DRAM+SSD store smaller than the sessions' total KV, 4 instances.
    ChatCached,
    /// The same traces under recomputation: no store at all.
    ChatRecompute,
    /// RAG over Zipf-hot documents, content-addressed blocks, 2
    /// instances, the telemetry stack attached and its trace exported.
    RagBlocksTraced,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ChatCached,
        Workload::ChatRecompute,
        Workload::RagBlocksTraced,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatCached => "chat_cached",
            Workload::ChatRecompute => "chat_recompute",
            Workload::RagBlocksTraced => "rag_blocks_traced",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent shards per round; each is one cluster serving its own
    /// trace. Several small shards average out the trace-to-trace spread
    /// that one large trace would carry, at linear cost. A RAG shard's
    /// run time varies by about a fifth with its trace, so that workload
    /// needs the most shards.
    pub fn shards(self) -> usize {
        match self {
            Workload::ChatCached | Workload::ChatRecompute => 8,
            Workload::RagBlocksTraced => 12,
        }
    }

    /// Sessions in each shard's trace.
    pub fn sessions(self) -> usize {
        match self {
            Workload::ChatCached | Workload::ChatRecompute => 2_000,
            // Small enough that a shard's JSONL and Chrome strings stay
            // below 16 MB, so peak RSS does not jump with the seed where
            // a string's capacity doubles.
            Workload::RagBlocksTraced => 400,
        }
    }

    /// Mean session arrival rate, sessions per virtual second. Low
    /// enough that the diurnal crest builds no lasting backlog, even
    /// under recomputation.
    fn arrival_rate(self) -> f64 {
        match self {
            Workload::ChatCached | Workload::ChatRecompute => 0.35,
            Workload::RagBlocksTraced => 0.15,
        }
    }

    /// The fixed arrival-TTFT limit `slo_attain_frac` is measured
    /// against, seconds.
    pub fn ttft_limit_s(self) -> f64 {
        match self {
            Workload::ChatCached | Workload::RagBlocksTraced => 1.0,
            Workload::ChatRecompute => 2.0,
        }
    }

    /// Generates shard `shard`'s trace for benchmark seed `seed`. Shard
    /// traces draw from seed `1000 · seed + shard`, so different
    /// benchmark seeds never share a trace. Session arrivals are
    /// open-loop: Poisson, modulated by the diurnal wave; each session's
    /// later turns follow its own think times.
    pub fn trace(self, seed: u64, shard: usize) -> Trace {
        let seed = seed.wrapping_mul(1000).wrapping_add(shard as u64);
        let profile = ShareGptProfile::default()
            .with_arrival_rate(self.arrival_rate())
            .with_diurnal(WAVE);
        match self {
            Workload::ChatCached | Workload::ChatRecompute => {
                Generator::new(profile, seed).trace(self.sessions())
            }
            Workload::RagBlocksTraced => PrefixProfile::new(
                profile,
                PrefixScenario::RagDocuments {
                    docs: 64,
                    doc_tokens: 1024,
                    zipf_s: 1.1,
                },
            )
            .trace(seed, self.sessions()),
        }
    }

    /// The cluster each shard runs on.
    pub fn config(self) -> ClusterConfig {
        let model = ModelSpec::llama2_13b();
        match self {
            Workload::ChatCached => {
                let mut engine = EngineConfig::paper(Mode::CachedAttention, model);
                // A shard's sessions hold several TB of KV in total, so
                // demotions, promotions and capacity drops all happen.
                set_store_bytes(&mut engine, 48 * GB, 1_500 * GB);
                ClusterConfig::new(engine, 4, RouterKind::SessionAffinity)
            }
            Workload::ChatRecompute => ClusterConfig::new(
                EngineConfig::paper(Mode::Recompute, model),
                4,
                RouterKind::SessionAffinity,
            ),
            Workload::RagBlocksTraced => {
                let mut engine = EngineConfig::paper(Mode::CachedAttention, model);
                engine.store.keying = KeyingMode::ContentAddressed;
                // The paper's 10 TB SSD never fills here: the block
                // ledger is loaded by dedup and prefix probes, not by
                // evictions.
                set_store_bytes(&mut engine, 64 * GB, 10_000 * GB);
                ClusterConfig::new(engine, 2, RouterKind::SessionAffinity)
            }
        }
    }

    /// The telemetry stack the workload attaches, if it records a trace.
    pub fn telemetry(self) -> Option<Telemetry> {
        (self == Workload::RagBlocksTraced).then(|| Telemetry::with_windows(WINDOW_SECS))
    }
}

fn set_store_bytes(engine: &mut EngineConfig, dram: u64, disk: u64) {
    engine.store.set_dram_bytes(dram);
    engine.store.set_disk_bytes(disk);
    engine.cluster.tiers[0].capacity = dram;
    engine.cluster.tiers[1].capacity = disk;
}
