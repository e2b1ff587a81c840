//! Property-based integration tests of AttentionStore: under arbitrary
//! operation sequences the store never leaks blocks, never double-books
//! capacity, and lookups stay consistent.
//!
//! `tests/store_properties.proptest-regressions` is checked in on
//! purpose: proptest replays its seeds before sampling fresh cases, so
//! every CI run re-checks the once-failing inputs. The recorded seed
//! shrank to a SchedulerAware-policy sequence of five saves, a load, and
//! a prefetch of a duplicated queue (`[6, 6]`) — the duplicate-session
//! prefetch is what originally tripped capacity accounting. Do not
//! delete the file; append-only by proptest on new failures.

use cachedattention::models::TierStack;
use cachedattention::sim::Time;
use cachedattention::store::{
    AttentionStore, Lookup, PolicyKind, QueueView, SessionId, StoreConfig, TierId,
};
use proptest::prelude::*;

const MB: u64 = 1_000_000;

/// One random store operation.
#[derive(Debug, Clone)]
enum Op {
    Save { sid: u64, bytes: u64 },
    Load { sid: u64 },
    Unpin { sid: u64 },
    Truncate { sid: u64, bytes: u64 },
    Invalidate { sid: u64 },
    Prefetch { queue: Vec<u64> },
    Expire,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..24, 1u64..40).prop_map(|(sid, mb)| Op::Save {
            sid,
            bytes: mb * MB
        }),
        (0u64..24).prop_map(|sid| Op::Load { sid }),
        (0u64..24).prop_map(|sid| Op::Unpin { sid }),
        (0u64..24, 0u64..20).prop_map(|(sid, mb)| Op::Truncate {
            sid,
            bytes: mb * MB
        }),
        (0u64..24).prop_map(|sid| Op::Invalidate { sid }),
        proptest::collection::vec(0u64..24, 0..6).prop_map(|queue| Op::Prefetch { queue }),
        Just(Op::Expire),
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

    /// Invariants hold across arbitrary operation sequences on a small,
    /// pressured store.
    #[test]
    fn store_invariants_under_arbitrary_ops(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        policy in policies(),
    ) {
        let mut store = AttentionStore::new(StoreConfig {
            tiers: TierStack::two_tier(100 * MB, 300 * MB),
            block_bytes: 4 * MB,
            policy,
            ttl: Some(cachedattention::sim::Dur::from_secs_f64(50.0)),
            dram_reserve_fraction: 0.1,
            default_session_bytes: 10 * MB,
            ..StoreConfig::default()
        });
        for (i, op) in ops.iter().enumerate() {
            let now = Time::from_secs_f64(i as f64);
            let empty = QueueView::empty();
            match op {
                Op::Save { sid, bytes } => {
                    let tokens = bytes / MB;
                    let (_, _) = store.save(SessionId(*sid), *bytes, tokens, now, &empty);
                }
                Op::Load { sid } => {
                    let ctx = store.cached_tokens(SessionId(*sid)).unwrap_or(0);
                    let found = store.load_prefix(SessionId(*sid), ctx, now, &empty).lookup;
                    // A hit means the session is still cached, pinned.
                    if found != Lookup::Miss {
                        prop_assert!(store.is_pinned(SessionId(*sid)));
                        prop_assert!(store.cached_tokens(SessionId(*sid)).is_some());
                    }
                }
                Op::Unpin { sid } => store.unpin(SessionId(*sid)),
                Op::Truncate { sid, bytes } => {
                    let tokens = bytes / MB;
                    store.truncate(SessionId(*sid), *bytes, tokens);
                }
                Op::Invalidate { sid } => store.invalidate(SessionId(*sid)),
                Op::Prefetch { queue } => {
                    let q: Vec<SessionId> = queue.iter().map(|&s| SessionId(s)).collect();
                    let view = QueueView::new(&q);
                    store.prefetch(now, &view);
                }
                Op::Expire => {
                    store.expire(now);
                }
            }
            // Capacity invariants: used bytes never exceed tier capacity.
            prop_assert!(store.dram_used_bytes() <= 100 * MB);
            prop_assert!(store.disk_used_bytes() <= 300 * MB);
            // Every session's lookup agrees with what it has cached, and
            // nothing cached is empty.
            for sid in 0..24 {
                let sid = SessionId(sid);
                match store.lookup(sid) {
                    Lookup::Miss => prop_assert!(store.cached_tokens(sid).is_none()),
                    _ => prop_assert!(store.cached_bytes(sid).is_some_and(|b| b > 0)),
                }
            }
            // Conservation: the pools hold exactly the stored chunks.
            if let Err(e) = store.validate_blocks() {
                prop_assert!(false, "after op {i}: {e}");
            }
        }
    }

    /// The store's transfers are always internally consistent: a
    /// promotion requires the session to end in DRAM, a demotion in disk
    /// or gone.
    #[test]
    fn transfers_describe_real_movements(
        sids in proptest::collection::vec(0u64..12, 1..40),
    ) {
        let mut store = AttentionStore::new(StoreConfig {
            tiers: TierStack::two_tier(60 * MB, 120 * MB),
            block_bytes: 4 * MB,
            policy: PolicyKind::SchedulerAware,
            ttl: None,
            dram_reserve_fraction: 0.0,
            default_session_bytes: 20 * MB,
            ..StoreConfig::default()
        });
        let empty = QueueView::empty();
        for (i, &sid) in sids.iter().enumerate() {
            let now = Time::from_secs_f64(i as f64);
            let (transfers, saved) = store.save(SessionId(sid), 20 * MB, 20, now, &empty);
            if saved {
                prop_assert_eq!(store.lookup(SessionId(sid)), Lookup::Hit(TierId(0)));
            }
            for t in transfers {
                if t.is_demotion() {
                    // The victim moved down one hop (or was dropped later
                    // in the same call; it must not be back in tier 0).
                    prop_assert_ne!(store.lookup(t.session), Lookup::Hit(TierId(0)));
                } else {
                    prop_assert!(t.is_promotion());
                    // The session landed at the hop's destination or kept
                    // climbing (multi-hop chains end at tier 0).
                    let found = store.lookup(t.session);
                    prop_assert!(
                        matches!(found, Lookup::Hit(h) if h.0 <= t.to.0),
                        "promotion hop to {:?} but lookup found {:?}",
                        t.to,
                        found
                    );
                }
            }
        }
    }
}
