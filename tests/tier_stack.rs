//! Depth-N tier-stack invariants and the 2-tier reduction golden.
//!
//! The store's tier vocabulary is an index into an arbitrary
//! [`TierStack`]; these tests pressure a four-deep stack (DRAM / pooled
//! memory / SSD / object store) with random operation sequences and
//! check the structural invariants the depth-N refactor must uphold:
//! every stored session names a configured tier, no tier exceeds its
//! capacity, pinned sessions are never evicted or demoted, the pools hold
//! exactly the stored chunks, and every reported transfer is a single
//! adjacent-tier hop. A golden test pins the reduction property: an
//! explicitly constructed 2-tier stack reproduces the paper-default
//! engine run byte-for-byte. Another pins that the engine's only tier
//! stack is `store.tiers`: `cluster.tiers` is never read.

use cachedattention::engine::{run_trace, EngineConfig, Mode};
use cachedattention::models::{ModelSpec, TierSpec, TierStack};
use cachedattention::sim::Time;
use cachedattention::store::{
    AttentionStore, Lookup, PolicyKind, QueueView, SessionId, StoreConfig, TierId,
};
use cachedattention::workload::{Generator, ShareGptProfile};
use proptest::prelude::*;
use std::collections::BTreeMap;

const MB: u64 = 1_000_000;

/// A small, pressured four-deep stack: every tier overflows into the
/// next during a run, so hops cross every boundary.
fn deep_stack() -> TierStack {
    TierStack::new(vec![
        TierSpec::dram(64 * MB),
        TierSpec::pooled_memory(96 * MB),
        TierSpec::ssd(160 * MB),
        TierSpec::object_store(256 * MB),
    ])
}

fn deep_store(policy: PolicyKind) -> AttentionStore {
    AttentionStore::new(StoreConfig {
        tiers: deep_stack(),
        block_bytes: 4 * MB,
        policy,
        ttl: None,
        dram_reserve_fraction: 0.1,
        default_session_bytes: 10 * MB,
        ..StoreConfig::default()
    })
}

/// One random store operation.
#[derive(Debug, Clone)]
enum Op {
    Save { sid: u64, bytes: u64 },
    Load { sid: u64 },
    Unpin { sid: u64 },
    Invalidate { sid: u64 },
    Prefetch { queue: Vec<u64> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..32, 1u64..40).prop_map(|(sid, mb)| Op::Save {
            sid,
            bytes: mb * MB
        }),
        (0u64..32).prop_map(|sid| Op::Load { sid }),
        (0u64..32).prop_map(|sid| Op::Unpin { sid }),
        (0u64..32).prop_map(|sid| Op::Invalidate { sid }),
        proptest::collection::vec(0u64..32, 0..6).prop_map(|queue| Op::Prefetch { queue }),
    ]
}

fn policies() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::SchedulerAware),
        Just(PolicyKind::Lru),
        Just(PolicyKind::Fifo),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary operation sequences on a four-deep stack: every
    /// hit names a tier inside the stack, per-tier occupancy respects
    /// per-tier capacity, pinned entries stay resident in the staging
    /// tier, and every transfer is one adjacent hop.
    #[test]
    fn deep_stack_invariants_under_arbitrary_ops(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        policy in policies(),
    ) {
        let stack = deep_stack();
        let depth = stack.len();
        let mut store = deep_store(policy);
        // Sessions we pinned via a demand load and have not released,
        // mapped to the lowest (slowest) tier they may legally occupy:
        // a pinned entry may be promoted but never demoted or evicted.
        let mut pinned: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            let now = Time::from_secs_f64(i as f64);
            let empty = QueueView::empty();
            let mut hops = Vec::new();
            match op {
                Op::Save { sid, bytes } => {
                    let (transfers, _) = store.save(SessionId(*sid), *bytes, bytes / MB, now, &empty);
                    hops = transfers;
                    // A save replaces the entry; stop tracking its pin.
                    pinned.remove(sid);
                }
                Op::Load { sid } => {
                    let ctx = store.cached_tokens(SessionId(*sid)).unwrap_or(0);
                    let m = store.load_prefix(SessionId(*sid), ctx, now, &empty);
                    hops = m.transfers;
                    if let Lookup::Hit(t) = m.lookup {
                        // `found` names the tier the KV was found in;
                        // the load stages it in tier 0 (or pins it in
                        // place when tier 0 cannot hold it).
                        prop_assert!(t.0 < depth);
                        let landed = match store.lookup(SessionId(*sid)) {
                            Lookup::Hit(l) => l.0,
                            Lookup::Miss => unreachable!("hit entry vanished"),
                        };
                        pinned.insert(*sid, landed);
                    }
                }
                Op::Unpin { sid } => {
                    store.unpin(SessionId(*sid));
                    pinned.remove(sid);
                }
                Op::Invalidate { sid } => {
                    store.invalidate(SessionId(*sid));
                    pinned.remove(sid);
                }
                Op::Prefetch { queue } => {
                    let q: Vec<SessionId> = queue.iter().map(|&s| SessionId(s)).collect();
                    hops = store.prefetch(now, &QueueView::new(&q));
                }
            }
            // Every reported transfer is a single adjacent-tier hop
            // between configured tiers.
            for t in &hops {
                prop_assert!(t.from.0.abs_diff(t.to.0) == 1, "non-adjacent hop {:?}", t);
                prop_assert!(t.from.0 < depth && t.to.0 < depth, "hop off the stack {:?}", t);
            }
            // Tier indices stay in bounds and capacities hold.
            for sid in 0..32 {
                if let Lookup::Hit(t) = store.lookup(SessionId(sid)) {
                    prop_assert!(t.0 < depth, "entry in unconfigured tier {:?}", t);
                }
            }
            for (idx, spec) in stack.0.iter().enumerate() {
                prop_assert!(
                    store.tier_used_bytes(TierId(idx)) <= spec.capacity,
                    "tier {idx} over capacity"
                );
            }
            // Pinned sessions were neither evicted nor demoted (they may
            // have been promoted; ratchet the bound downward).
            for (sid, floor) in pinned.iter_mut() {
                prop_assert!(store.is_pinned(SessionId(*sid)), "session {sid} lost its pin");
                match store.lookup(SessionId(*sid)) {
                    Lookup::Hit(t) => {
                        prop_assert!(
                            t.0 <= *floor,
                            "pinned session {sid} demoted from tier {floor} to {}",
                            t.0
                        );
                        *floor = t.0;
                    }
                    Lookup::Miss => prop_assert!(false, "pinned session {sid} evicted"),
                }
            }
            // Conservation: the pools hold exactly the stored chunks.
            if let Err(e) = store.validate_blocks() {
                prop_assert!(false, "after op {i}: {e}");
            }
        }
    }
}

/// An engine run over an explicitly constructed 2-tier stack is
/// byte-for-byte the paper default: the depth-N machinery reduces
/// exactly to the pre-refactor DRAM/SSD pair. (The checked-in golden
/// fixtures pin the same property against history; this pins it against
/// the construction path.)
#[test]
fn two_tier_stack_reduces_to_the_paper_default() {
    let trace = Generator::new(ShareGptProfile::default(), 99).trace(40);
    let cfg_a = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
    let mut cfg_b = cfg_a.clone();
    let (d, s) = (cfg_b.store.dram_bytes(), cfg_b.store.disk_bytes());
    cfg_b.store.tiers = TierStack::new(vec![TierSpec::dram(d), TierSpec::ssd(s)]);
    assert_eq!(cfg_b.store.tiers, TierStack::paper_two_tier());
    let ra = run_trace(cfg_a, trace.clone());
    let rb = run_trace(cfg_b, trace);
    assert_eq!(
        serde_json::to_string_pretty(&ra).unwrap(),
        serde_json::to_string_pretty(&rb).unwrap(),
        "explicit 2-tier stack diverged from the paper default"
    );
}

/// The engine takes its tier stack from `store.tiers` alone: giving
/// `cluster.tiers` a different stack leaves the report byte-identical.
/// If this fails, the engine reads `ClusterSpec::tiers`, and every caller
/// that resizes the store must keep the two stacks in sync again.
#[test]
fn cluster_tiers_are_not_read() {
    let trace = Generator::new(ShareGptProfile::default(), 99).trace(40);
    let cfg_a = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
    let mut cfg_b = cfg_a.clone();
    cfg_b.cluster.tiers = TierStack::two_tier(8_000_000_000, 40_000_000_000);
    assert_ne!(cfg_b.cluster.tiers, cfg_b.store.tiers);
    let ra = run_trace(cfg_a, trace.clone());
    let rb = run_trace(cfg_b, trace);
    assert_eq!(
        serde_json::to_string_pretty(&ra).unwrap(),
        serde_json::to_string_pretty(&rb).unwrap(),
        "the engine read cluster.tiers"
    );
}

/// A four-deep stack runs the full engine end-to-end: every session
/// completes and entries reach below the staging tier.
#[test]
fn deep_stack_serves_a_trace_end_to_end() {
    let trace = Generator::new(ShareGptProfile::default(), 7).trace(30);
    let mut cfg = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
    let max_session = cfg.model.kv_bytes(cfg.model.context_window as u64);
    cfg.store.tiers = TierStack::new(vec![
        TierSpec::dram(5 * max_session),
        TierSpec::pooled_memory(6 * max_session),
        TierSpec::ssd(8 * max_session),
        TierSpec::object_store(12 * max_session),
    ]);
    let r = run_trace(cfg, trace);
    assert_eq!(r.sessions_done.get(), 30);
    assert!(r.hit_rate() > 0.0);
}
