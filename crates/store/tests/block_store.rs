//! Property and behavior tests for the content-addressed block ledger.
//!
//! The ledger's structural invariants (refcount and pin conservation,
//! trie/slab agreement, pool accounting) are checked by
//! `AttentionStore::validate_blocks` after every operation of a random
//! sequence; the directed tests pin down the lifecycle rules the
//! invariants alone cannot express — copy-on-divergence never touching
//! a shared block, pinned chains surviving capacity pressure, and
//! per-session keying reducing to a ledger-free store.

use models::TierStack;
use proptest::prelude::*;
use sim::Time;
use store::{
    AttentionStore, ContentKey, KeyingMode, Lookup, PolicyKind, QueueView, SessionId, StoreConfig,
    StoreEvent, TierId,
};

const MB: u64 = 1_000_000;
/// Bytes of KV per token in these tests (arbitrary, but fixed so token
/// counts translate to predictable pressure).
const BPT: u64 = 10_000;

fn block_store(keying: KeyingMode) -> AttentionStore {
    block_store_on(keying, TierStack::two_tier(20 * MB, 60 * MB))
}

fn block_store_on(keying: KeyingMode, tiers: TierStack) -> AttentionStore {
    AttentionStore::new(StoreConfig {
        tiers,
        block_bytes: MB,
        policy: PolicyKind::SchedulerAware,
        keying,
        block_tokens: 128,
        ttl: None,
        dram_reserve_fraction: 0.0,
        default_session_bytes: MB,
    })
}

fn sid(n: u64) -> SessionId {
    SessionId(n)
}

/// Two pools of sessions sharing a 256-token prefix: even sessions in
/// pool 0, odd in pool 1. Private tails never collide.
fn pooled_key(n: u64) -> ContentKey {
    ContentKey {
        shared_seed: 1_000 + n % 2,
        shared_tokens: 256,
        private_seed: 7_000 + n,
        generation: 0,
    }
}

/// One scripted operation against the store, decoded from proptest
/// draws: `(op selector, session, token count)`.
fn apply_op(s: &mut AttentionStore, op: u64, n: u64, tokens: u64, step: usize) {
    let now = Time::from_millis(step as u64);
    let order: Vec<SessionId> = (0..6).map(sid).collect();
    let q = QueueView::new(&order);
    match op % 6 {
        0 | 1 => {
            // Save dominates the mix so chains actually exist.
            s.register_content(sid(n), pooled_key(n));
            s.save(sid(n), tokens * BPT, tokens, now, &q);
        }
        2 => {
            s.register_content(sid(n), pooled_key(n));
            let _ = s.load_prefix(sid(n), tokens, now, &q);
        }
        3 => s.unpin(sid(n)),
        4 => s.invalidate(sid(n)),
        _ => {
            // Truncation: divergence path. Harmless no-op when the
            // session has nothing stored or is not shrinking.
            s.truncate(sid(n), tokens * BPT / 2, tokens / 2);
        }
    }
    let _ = s.prefetch(now, &q);
}

proptest! {
    /// Any operation sequence leaves the ledger structurally sound:
    /// every node's refcount equals the number of chains referencing
    /// it, every pin is owned by an in-flight consult, the trie maps
    /// exactly the live nodes, and the pools hold exactly the nodes'
    /// blocks. The roomy stack never fills tier 1; the tight one forces
    /// chain releases at the bottom tier and dead-node reclaim there,
    /// including while the releasing session's own save is in flight.
    #[test]
    fn random_op_sequences_keep_ledger_invariants(
        ops in proptest::collection::vec((0u64..6, 0u64..6, 64u64..512), 1..60)
    ) {
        let stacks = [
            TierStack::two_tier(20 * MB, 60 * MB),
            TierStack::two_tier(4 * MB, 8 * MB),
        ];
        for tiers in stacks {
            let mut s = block_store_on(KeyingMode::ContentAddressed, tiers);
            for (step, &(op, n, tokens)) in ops.iter().enumerate() {
                apply_op(&mut s, op, n, tokens, step);
                if let Err(e) = s.validate_blocks() {
                    prop_assert!(false, "after step {step} (op {op}): {e}\nops: {ops:?}");
                }
            }
        }
    }

    /// The same sequences under per-session keying never touch the
    /// ledger: dedup statistics stay zero and no block events are
    /// emitted, so a per-session run is byte-for-byte free of the
    /// block machinery.
    #[test]
    fn per_session_reduction_never_touches_the_ledger(
        ops in proptest::collection::vec((0u64..6, 0u64..6, 64u64..512), 1..40)
    ) {
        let mut s = block_store(KeyingMode::PerSession);
        s.set_tracing(true);
        for (step, &(op, n, tokens)) in ops.iter().enumerate() {
            apply_op(&mut s, op, n, tokens, step);
        }
        let d = s.dedup_stats();
        prop_assert_eq!(d.lookup_hits, 0);
        prop_assert_eq!(d.matched_blocks, 0);
        prop_assert_eq!(d.dedup_blocks, 0);
        prop_assert_eq!(d.bytes_saved, 0);
        prop_assert_eq!(d.divergences, 0);
        prop_assert_eq!(d.refcounted_evictions, 0);
        for ev in s.drain_events() {
            let is_block = matches!(
                ev,
                StoreEvent::BlockConfig { .. }
                    | StoreEvent::BlockSaved { .. }
                    | StoreEvent::BlockDedupHit { .. }
                    | StoreEvent::BlockDiverged { .. }
                    | StoreEvent::BlockDemoted { .. }
                    | StoreEvent::BlockEvicted { .. }
            );
            prop_assert!(!is_block, "per-session run emitted {ev:?}");
        }
    }
}

/// Copy-on-divergence: when one sharer's history is rewritten
/// (truncation bumps its content generation), the shared blocks are
/// released by reference, never mutated — the other sharer still
/// matches its full prefix afterwards.
#[test]
fn divergence_never_mutates_shared_blocks() {
    let mut s = block_store(KeyingMode::ContentAddressed);
    let q = QueueView::empty();
    let (a, b) = (sid(0), sid(2)); // same pool (both even)
    s.register_content(a, pooled_key(0));
    s.register_content(b, pooled_key(2));
    s.save(a, 512 * BPT, 512, Time::ZERO, &q);
    s.save(b, 512 * BPT, 512, Time::from_millis(1), &q);
    // The 256-token shared span dedups: b's save wrote less than a's.
    let d = s.dedup_stats();
    assert!(
        d.dedup_blocks > 0,
        "no chunks shared between the pool's sessions"
    );
    assert!(d.bytes_saved > 0);

    // b's history is rewritten in place: every chunk of its old chain
    // is invalid for matching, so its chain forks off a's.
    s.truncate(b, 256 * BPT, 256);
    assert_eq!(s.dedup_stats().divergences, 1);
    s.validate_blocks().expect("ledger sound after divergence");

    // a is untouched: the full 512-token prefix still matches.
    let m = s.load_prefix(a, 512, Time::from_millis(2), &q);
    assert_eq!(m.matched_tokens, 512, "divergence mutated a shared chain");
    assert_ne!(m.lookup, Lookup::Miss);
    s.unpin(a);
    s.validate_blocks().expect("ledger sound after re-consult");
}

/// A pinned chain is exempt from demotion and eviction at every tier:
/// saves from other sessions that overflow the fast tier must demote
/// around the pinned blocks, and the pinned session still matches its
/// full prefix from the fast tier afterwards.
#[test]
fn pinned_chains_survive_capacity_pressure() {
    let mut s = block_store(KeyingMode::ContentAddressed);
    let q = QueueView::empty();
    let a = sid(0);
    s.register_content(a, pooled_key(0));
    s.save(a, 512 * BPT, 512, Time::ZERO, &q);
    // Consult pins a's whole chain in tier 0.
    let m = s.load_prefix(a, 512, Time::from_millis(1), &q);
    assert_eq!(m.matched_tokens, 512);
    assert_eq!(m.lookup, Lookup::Hit(TierId(0)));

    // Storm: 20 MB of DRAM, ~5 MB pinned, then 12 sessions x 4 MB of
    // private chains — far past tier 0 and into tier-1 pressure.
    for i in 1..=12 {
        let other = sid(100 + i);
        s.save(other, 400 * BPT, 400, Time::from_millis(1 + i), &q);
        s.validate_blocks().expect("ledger sound under pressure");
    }

    // The pinned chain never moved: still a full fast-tier match.
    assert_eq!(
        s.lookup(a),
        Lookup::Hit(TierId(0)),
        "pinned chain was demoted"
    );
    s.unpin(a);
    // Once unpinned it is fair game again; the ledger stays sound.
    s.save(sid(200), 400 * BPT, 400, Time::from_millis(50), &q);
    s.validate_blocks().expect("ledger sound after unpin");
}

/// Refcounted eviction only reclaims dead nodes: every `block_evicted`
/// event carries `refs == 0`, even under pressure that forces chain
/// releases at the bottom tier.
#[test]
fn eviction_reclaims_only_unreferenced_nodes() {
    let mut s = block_store(KeyingMode::ContentAddressed);
    s.set_tracing(true);
    let q = QueueView::empty();
    for i in 0..40 {
        let n = sid(i);
        s.register_content(n, pooled_key(i));
        s.save(n, 400 * BPT, 400, Time::from_millis(i), &q);
        // Half the sessions leave: their exclusive tail nodes go dead
        // and become reclaimable.
        if i % 2 == 0 {
            s.invalidate(n);
        }
        s.validate_blocks().expect("ledger sound during churn");
    }
    let mut evictions = 0;
    for ev in s.drain_events() {
        if let StoreEvent::BlockEvicted { refs, .. } = ev {
            assert_eq!(refs, 0, "a referenced node was evicted");
            evictions += 1;
        }
    }
    assert!(evictions > 0, "churn never exercised the eviction path");
}
