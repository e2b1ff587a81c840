use models::{TierSpec, TierStack};
use proptest::prelude::*;
use sim::{Dur, Time};

use crate::{ContentKey, KeyingMode, PolicyKind, QueueView, SessionId, TierId};

use super::placement::Pass;
use super::{AttentionStore, Lookup, StoreConfig};

const MB: u64 = 1_000_000;

fn small_store(policy: PolicyKind) -> AttentionStore {
    AttentionStore::new(StoreConfig {
        tiers: TierStack::two_tier(10 * MB, 30 * MB),
        block_bytes: MB,
        policy,
        ttl: None,
        dram_reserve_fraction: 0.0,
        default_session_bytes: MB,
        ..StoreConfig::default()
    })
}

fn sid(n: u64) -> SessionId {
    SessionId(n)
}

#[test]
fn save_then_load_hits_dram() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    let (t, ok) = s.save(sid(1), 3 * MB, 100, Time::ZERO, &q);
    assert!(ok && t.is_empty());
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
    let m = s.load_prefix(sid(1), 100, Time::from_millis(5), &q);
    assert_eq!(m.lookup, Lookup::Hit(TierId(0)));
    assert!(m.transfers.is_empty());
    assert!(s.is_pinned(sid(1)));
    s.unpin(sid(1));
    assert!(!s.is_pinned(sid(1)));
}

#[test]
fn unpin_is_idempotent_and_tolerates_evicted_sessions() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    // Never-saved session: unpin must be a no-op, not a panic.
    s.unpin(sid(42));
    s.save(sid(1), 3 * MB, 100, Time::ZERO, &q);
    s.load_prefix(sid(1), 100, Time::from_millis(5), &q);
    assert!(s.is_pinned(sid(1)));
    // Double-unpin is fine.
    s.unpin(sid(1));
    s.unpin(sid(1));
    assert!(!s.is_pinned(sid(1)));
    // Unpin after the entry left the store entirely (crash recovery may
    // release pins for jobs whose sessions were invalidated meanwhile).
    s.invalidate(sid(1));
    s.unpin(sid(1));
    assert_eq!(s.lookup(sid(1)), Lookup::Miss);
}

#[test]
fn miss_for_unknown_session() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    assert_eq!(s.lookup(sid(9)), Lookup::Miss);
    let m = s.load_prefix(sid(9), 100, Time::ZERO, &QueueView::empty());
    assert_eq!(m.lookup, Lookup::Miss);
    assert!(m.transfers.is_empty());
}

/// DRAM pressure demotes the policy's victim one hop down: LRU the
/// least recently used session, FIFO the earliest saved one, however
/// recently it was read.
#[test]
fn dram_pressure_demotes_to_disk() {
    for (policy, victim) in [(PolicyKind::Lru, sid(2)), (PolicyKind::Fifo, sid(1))] {
        let mut s = small_store(policy);
        let q = QueueView::empty();
        // Fill DRAM with three sessions, then read session 1 again.
        for (i, t_ms) in [(1u64, 0u64), (2, 10), (3, 20)] {
            s.save(sid(i), 3 * MB, 100, Time::from_millis(t_ms), &q);
        }
        s.load_prefix(sid(1), 100, Time::from_millis(25), &q);
        s.unpin(sid(1));
        // A fourth needs room: one session goes down to disk.
        let (transfers, ok) = s.save(sid(4), 3 * MB, 100, Time::from_millis(30), &q);
        assert!(ok);
        assert_eq!(transfers.len(), 1, "{policy:?}");
        assert_eq!(transfers[0].session, victim, "{policy:?}");
        assert!(transfers[0].is_demotion());
        assert_eq!(s.lookup(victim), Lookup::Hit(TierId(1)));
        assert_eq!(s.lookup(sid(4)), Lookup::Hit(TierId(0)));
    }
}

/// The scheduler-aware victim is the least-recently-used node with no
/// next use inside the eviction window; when every candidate has one,
/// the node used furthest in the future goes (the Belady tail).
#[test]
fn scheduler_aware_victims_follow_next_use() {
    let victim_for = |queue: &[u64]| {
        let mut s = small_store(PolicyKind::SchedulerAware);
        let empty = QueueView::empty();
        for (i, t_ms) in [(1u64, 10u64), (2, 20), (3, 30)] {
            s.save(sid(i), 3 * MB, 100, Time::from_millis(t_ms), &empty);
        }
        let order: Vec<SessionId> = queue.iter().copied().map(sid).collect();
        let (t, ok) = s.save(
            sid(4),
            3 * MB,
            100,
            Time::from_millis(40),
            &QueueView::new(&order),
        );
        assert!(ok && t.len() == 1 && t[0].is_demotion(), "{t:?}");
        t[0].session
    };
    // Sessions 1 and 2 are about to run: 3 goes although it is warmest.
    assert_eq!(victim_for(&[1, 2]), sid(3));
    // All three are queued: the one queued last goes, not the coldest.
    assert_eq!(victim_for(&[3, 1, 2]), sid(2));
    // Queued beyond the 13-session eviction window is no use at all.
    let far: Vec<u64> = (100..120).chain([1, 2, 3]).collect();
    assert_eq!(victim_for(&far), sid(1));
}

#[test]
fn disk_pressure_drops_out_of_system() {
    let mut s = AttentionStore::new(StoreConfig {
        tiers: TierStack::two_tier(4 * MB, 4 * MB),
        block_bytes: MB,
        policy: PolicyKind::Fifo,
        ttl: None,
        dram_reserve_fraction: 0.0,
        default_session_bytes: MB,
        ..StoreConfig::default()
    });
    let q = QueueView::empty();
    // Three 4MB sessions through a 4MB DRAM + 4MB disk: the first one
    // saved must eventually fall off the end of the hierarchy.
    s.save(sid(1), 4 * MB, 10, Time::from_millis(0), &q);
    s.save(sid(2), 4 * MB, 10, Time::from_millis(1), &q);
    s.save(sid(3), 4 * MB, 10, Time::from_millis(2), &q);
    assert_eq!(s.lookup(sid(1)), Lookup::Miss);
    assert_eq!(s.lookup(sid(2)), Lookup::Hit(TierId(1)));
    assert_eq!(s.lookup(sid(3)), Lookup::Hit(TierId(0)));
    assert_eq!(s.stats().drops_capacity, 1);
}

#[test]
fn disk_hit_promotes_through_dram() {
    let mut s = small_store(PolicyKind::Lru);
    let q = QueueView::empty();
    for i in 1..=4u64 {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
    }
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    let m = s.load_prefix(sid(1), 100, Time::from_millis(99), &q);
    assert_eq!(m.lookup, Lookup::Hit(TierId(1)));
    // Promotion evicted someone and brought session 1 up.
    assert!(m
        .transfers
        .iter()
        .any(|t| t.session == sid(1) && t.is_promotion()));
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
}

#[test]
fn pinned_entries_are_never_victims() {
    let mut s = small_store(PolicyKind::Lru);
    let q = QueueView::empty();
    s.save(sid(1), 5 * MB, 100, Time::ZERO, &q);
    s.load_prefix(sid(1), 100, Time::from_millis(1), &q);
    // Saving 6 MB would need to demote session 1, but it is pinned, so
    // there is no DRAM candidate: the save spills to disk instead.
    let (transfers, ok) = s.save(sid(2), 6 * MB, 100, Time::from_millis(2), &q);
    assert!(ok);
    assert_eq!(s.stats().spills_to_disk, 1);
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
    assert_eq!(s.lookup(sid(2)), Lookup::Hit(TierId(1)));
    assert!(transfers
        .iter()
        .any(|t| t.session == sid(2) && t.is_demotion()));
    // A session larger than the whole hierarchy is still rejected.
    let (_, ok) = s.save(sid(3), 50 * MB, 100, Time::from_millis(3), &q);
    assert!(!ok);
    assert_eq!(s.stats().save_rejected, 1);
}

#[test]
fn scheduler_aware_prefetch_pulls_queued_sessions_up() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    for i in 1..=4u64 {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
    }
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    // Session 1 is waiting in the queue: prefetch promotes it.
    let queue = QueueView::new(&[sid(1)]);
    let transfers = s.prefetch(Time::from_millis(50), &queue);
    assert!(transfers
        .iter()
        .any(|t| t.session == sid(1) && t.is_promotion()));
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
}

#[test]
fn lru_and_fifo_never_prefetch() {
    for kind in [PolicyKind::Lru, PolicyKind::Fifo] {
        let mut s = small_store(kind);
        let q = QueueView::empty();
        for i in 1..=4u64 {
            s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
        }
        let queue = QueueView::new(&[sid(1)]);
        assert!(s.prefetch(Time::from_millis(50), &queue).is_empty());
        assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    }
}

#[test]
fn truncation_shrinks_in_place() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    s.save(sid(1), 8 * MB, 800, Time::ZERO, &q);
    let used_before = s.dram_used_bytes();
    s.truncate(sid(1), 4 * MB, 400);
    assert_eq!(s.cached_bytes(sid(1)), Some(4 * MB));
    assert_eq!(s.cached_tokens(sid(1)), Some(400));
    assert!(s.dram_used_bytes() < used_before);
    // Growing via truncate is a no-op.
    s.truncate(sid(1), 100 * MB, 1);
    assert_eq!(s.cached_bytes(sid(1)), Some(4 * MB));
}

/// Truncating to zero tokens leaves nothing cached: no zero-byte chain
/// survives for the prefetcher to "promote" or the reserve to "demote",
/// and nothing of it counts toward the mean session size.
#[test]
fn truncation_to_zero_leaves_nothing_cached() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    s.set_tracing(true);
    let q = QueueView::empty();
    s.save(sid(1), 3 * MB, 300, Time::ZERO, &q);
    s.save(sid(2), 3 * MB, 300, Time::ZERO, &q);
    s.apply_pressure(Time::ZERO, 1.0, &q);
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    s.truncate(sid(1), 0, 0);
    assert_eq!(s.lookup(sid(1)), Lookup::Miss);
    assert_eq!(s.len(), 1);
    assert_eq!(s.avg_session_bytes(), 3 * MB);
    s.validate_blocks()
        .expect("ledger sound after truncation to zero");
    let before = *s.stats();
    s.drain_events();
    let queue = QueueView::new(&[sid(1)]);
    assert!(s.prefetch(Time::from_millis(1), &queue).is_empty());
    assert!(s.maintain_reserve(Time::from_millis(2), &queue).is_empty());
    assert_eq!(*s.stats(), before, "nothing moved");
    assert!(s.drain_events().iter().all(|e| e.session() != Some(1)));
}

#[test]
fn invalidate_frees_everything() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    s.save(sid(1), 5 * MB, 100, Time::ZERO, &q);
    s.invalidate(sid(1));
    assert_eq!(s.lookup(sid(1)), Lookup::Miss);
    assert_eq!(s.dram_used_bytes(), 0);
    assert_eq!(s.stats().drops_invalidated, 1);
    // Invalidating again is a no-op.
    s.invalidate(sid(1));
    assert_eq!(s.stats().drops_invalidated, 1);
}

/// Invalidation really invalidates under content-addressed keying too:
/// nothing of the old chain — not even the prefix it shares with another
/// session — matches the session's next consult, while the sharer keeps
/// its whole chain.
#[test]
fn invalidated_chunks_no_longer_match() {
    let mut s = AttentionStore::new(StoreConfig {
        keying: KeyingMode::ContentAddressed,
        block_tokens: 128,
        ..small_store(PolicyKind::SchedulerAware).cfg
    });
    let q = QueueView::empty();
    let shared = |private_seed| ContentKey {
        shared_seed: 5,
        shared_tokens: 256,
        private_seed,
        generation: 0,
    };
    s.register_content(sid(2), shared(2));
    s.register_content(sid(3), shared(3));
    for n in 1..=3 {
        s.save(sid(n), 512 * 10_000, 512, Time::ZERO, &q);
    }
    for n in [1, 3] {
        s.invalidate(sid(n));
        let m = s.load_prefix(sid(n), 600, Time::from_millis(1), &q);
        assert_eq!(m, crate::PrefixMatch::miss(), "session {n}");
    }
    assert_eq!(
        s.load_prefix(sid(2), 600, Time::from_millis(2), &q)
            .matched_tokens,
        512
    );
    // Only session 2's four 2-block chunks are left.
    assert_eq!(s.dram_used_bytes() + s.disk_used_bytes(), 8 * MB);
    s.validate_blocks()
        .expect("ledger sound after invalidation");
}

#[test]
fn ttl_expiry_drops_idle_entries() {
    let mut s = AttentionStore::new(StoreConfig {
        ttl: Some(Dur::from_secs_f64(10.0)),
        tiers: TierStack::two_tier(10 * MB, 10 * MB),
        block_bytes: MB,
        policy: PolicyKind::SchedulerAware,
        dram_reserve_fraction: 0.0,
        default_session_bytes: MB,
        ..StoreConfig::default()
    });
    let q = QueueView::empty();
    s.save(sid(1), MB, 10, Time::ZERO, &q);
    s.save(sid(2), MB, 10, Time::from_secs_f64(8.0), &q);
    assert_eq!(s.expire(Time::from_secs_f64(9.0)), 0);
    assert_eq!(s.expire(Time::from_secs_f64(15.0)), 1);
    assert_eq!(s.lookup(sid(1)), Lookup::Miss);
    assert_eq!(s.lookup(sid(2)), Lookup::Hit(TierId(0)));
    assert_eq!(s.stats().drops_ttl, 1);
}

#[test]
fn reserve_maintenance_keeps_buffer_free() {
    let mut s = AttentionStore::new(StoreConfig {
        tiers: TierStack::two_tier(10 * MB, 30 * MB),
        block_bytes: MB,
        policy: PolicyKind::SchedulerAware,
        ttl: None,
        dram_reserve_fraction: 0.3,
        default_session_bytes: MB,
        ..StoreConfig::default()
    });
    let q = QueueView::empty();
    for i in 1..=3u64 {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
    }
    assert!(s.pools[0].free_bytes() < 3 * MB);
    let transfers = s.maintain_reserve(Time::from_millis(9), &q);
    assert!(!transfers.is_empty());
    assert!(s.pools[0].free_bytes() >= 3 * MB);
}

#[test]
fn resave_replaces_old_copy_exactly_once() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    s.save(sid(1), 2 * MB, 100, Time::ZERO, &q);
    s.save(sid(1), 4 * MB, 200, Time::from_millis(1), &q);
    assert_eq!(s.len(), 1);
    assert_eq!(s.cached_bytes(sid(1)), Some(4 * MB));
    assert_eq!(s.avg_session_bytes(), 4 * MB);
    // The stale copy is dead: the next save needing its room reclaims
    // it rather than demoting anything.
    let (t, ok) = s.save(sid(2), 6 * MB, 300, Time::from_millis(2), &q);
    assert!(ok && t.is_empty());
    assert_eq!(s.dram_used_bytes(), 10 * MB);
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
    s.validate_blocks().expect("ledger sound after re-save");
}

/// Regression: a demand fetch under full disk pressure must never
/// evict the very session being fetched, even when the policy would
/// otherwise pick it (here: LRU, and the fetched session is oldest).
#[test]
fn demand_fetch_never_evicts_its_own_session() {
    let mut s = AttentionStore::new(StoreConfig {
        tiers: TierStack::two_tier(4 * MB, 8 * MB),
        block_bytes: MB,
        policy: PolicyKind::Lru,
        ttl: None,
        dram_reserve_fraction: 0.0,
        default_session_bytes: 4 * MB,
        ..StoreConfig::default()
    });
    let q = QueueView::empty();
    // s1 lands in DRAM, then s3 and s2 push it down; final layout:
    // DRAM = s2, disk = {s1, s3}, with s1 the least recently used.
    s.save(sid(1), 4 * MB, 10, Time::from_millis(0), &q);
    s.save(sid(3), 4 * MB, 10, Time::from_millis(1), &q);
    s.save(sid(2), 4 * MB, 10, Time::from_millis(2), &q);
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    assert_eq!(s.lookup(sid(3)), Lookup::Hit(TierId(1)));
    // Demand-fetching s1 demotes s2, which needs disk room; the LRU
    // disk victim would be s1 itself — it must be exempt.
    let m = s.load_prefix(sid(1), 10, Time::from_millis(3), &q);
    assert_eq!(m.lookup, Lookup::Hit(TierId(1)));
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
    assert_eq!(s.lookup(sid(3)), Lookup::Miss);
}

/// Regression: a session queued twice must be promoted exactly once;
/// the second prefetch pass used to free its fresh DRAM blocks into
/// the disk pool.
#[test]
fn duplicate_queue_entries_prefetch_once() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    for i in 1..=4u64 {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
    }
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    let queue = QueueView::new(&[sid(1), sid(1), sid(1)]);
    let transfers = s.prefetch(Time::from_millis(50), &queue);
    let promotions = transfers
        .iter()
        .filter(|t| t.session == sid(1) && t.is_promotion())
        .count();
    assert_eq!(promotions, 1);
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
    // Block accounting stayed consistent: re-saving and invalidating
    // everything drains both pools completely.
    for i in 1..=4u64 {
        s.invalidate(sid(i));
    }
    assert_eq!(s.dram_used_bytes(), 0);
    assert_eq!(s.disk_used_bytes(), 0);
}

#[test]
fn window_lengths_follow_the_formulas() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    // Empty store: fall back to default session size (1 MB).
    assert_eq!(s.prefetch_window(), 10);
    assert_eq!(s.eviction_window(), 40);
    let q = QueueView::empty();
    s.save(sid(1), 2 * MB, 100, Time::ZERO, &q);
    // S_kv = 2 MB now.
    assert_eq!(s.prefetch_window(), 5);
    assert_eq!(s.eviction_window(), 20);
}

/// Tier movements on an owner-attributed merged queue view carry the
/// owning instance in their trace events.
#[test]
fn owner_attributed_views_tag_store_events() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    s.set_tracing(true);
    let q = QueueView::empty();
    for i in 1..=4u64 {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
    }
    s.drain_events();
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    // Session 1 queued on instance 2, session 2 on instance 0.
    let queue = QueueView::with_owners(&[sid(1), sid(2)], &[2, 0]);
    let transfers = s.prefetch(Time::from_millis(50), &queue);
    assert!(transfers
        .iter()
        .any(|t| t.session == sid(1) && t.is_promotion()));
    let events = s.drain_events();
    let promoted = events
        .iter()
        .find_map(|e| match *e {
            crate::StoreEvent::Promoted {
                session: 1,
                instance,
                ..
            } => Some(instance),
            _ => None,
        })
        .expect("session 1 was promoted");
    assert_eq!(promoted, Some(2));
    // Unqueued demotion victims carry no instance attribution.
    for e in &events {
        if let crate::StoreEvent::Demoted {
            session, instance, ..
        } = *e
        {
            assert_ne!(session, 1);
            assert_eq!(instance, None, "victims were not queued");
        }
    }
}

/// A store on a tight three-tier stack, so random operations fill every
/// tier and reach demotion, bottom-tier eviction and dead-node reclaim on
/// each.
fn tight_store(policy: PolicyKind, keying: KeyingMode) -> AttentionStore {
    AttentionStore::new(StoreConfig {
        tiers: TierStack::new(vec![
            TierSpec::dram(4 * MB),
            TierSpec::pooled_memory(4 * MB),
            TierSpec::ssd(8 * MB),
        ]),
        block_bytes: MB,
        policy,
        keying,
        block_tokens: 128,
        ttl: Some(Dur::from_secs_f64(0.02)),
        dram_reserve_fraction: 0.25,
        default_session_bytes: MB,
    })
}

/// One random operation: sessions in two pools share a 256-token
/// prefix, at 10 KB of KV per token.
fn block_op(s: &mut AttentionStore, op: u64, n: u64, tokens: u64, now: Time, q: &QueueView) {
    const BPT: u64 = 10_000;
    let key = ContentKey {
        shared_seed: 1_000 + n % 2,
        shared_tokens: 256,
        private_seed: 7_000 + n,
        generation: 0,
    };
    match op {
        0 | 1 => {
            s.register_content(sid(n), key);
            s.save(sid(n), tokens * BPT, tokens, now, q);
        }
        2 => {
            s.register_content(sid(n), key);
            let _ = s.load_prefix(sid(n), tokens, now, q);
        }
        3 => s.unpin(sid(n)),
        4 => s.invalidate(sid(n)),
        5 => s.truncate(sid(n), tokens * BPT / 2, tokens / 2),
        6 => {
            s.expire(now);
        }
        _ => {
            let _ = s.apply_pressure(now, 0.5, q);
        }
    }
    let _ = s.prefetch(now, q);
}

/// Every indexed victim choice equals its whole-ledger reference scan,
/// on every tier: the dead-node victim, the next-use victim with no node
/// held and with each stored chain held, and the chains the bottom-tier
/// victim's eviction releases.
fn victims_match_the_scans(s: &AttentionStore, q: &QueueView) -> Result<(), String> {
    let held: Vec<Vec<usize>> = std::iter::once(Vec::new())
        .chain(s.ledger.sessions().values().map(|r| r.chain.clone()))
        .collect();
    for t in (0..s.n_tiers()).map(TierId) {
        let (fast, naive) = (s.ledger.dead(t).next(), s.naive_dead_victim(t));
        if fast != naive {
            return Err(format!(
                "dead victim of {t}: index {fast:?}, scan {naive:?}"
            ));
        }
        for h in &held {
            let fast = s.victim(t, &mut Pass::new(q), h);
            let naive = s.naive_victim(t, q, h);
            if fast != naive {
                return Err(format!(
                    "victim of {t} holding {h:?}: index {fast:?}, scan {naive:?}"
                ));
            }
        }
        let bottom_victim = s.victim(t, &mut Pass::new(q), &[]);
        if let Some(v) = bottom_victim.filter(|_| t == s.bottom_tier()) {
            let (fast, naive) = (s.users_of(v.slot), s.naive_users(v.slot));
            if fast != naive.as_slice() {
                return Err(format!(
                    "bottom victim {} releases {fast:?}, scan finds {naive:?}",
                    v.slot
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    /// The ledger's victim index and next-use map pick exactly the node
    /// the naive scans pick, on every tier, after every operation of a
    /// random sequence, under every policy and both keyings (and
    /// `validate_blocks` confirms the index and the user lists equal a
    /// rebuild from the slab and the chains).
    #[test]
    fn indexed_victims_match_naive_scans(
        ops in proptest::collection::vec((0u64..8, 0u64..8, 64u64..512), 1..60),
        queued in proptest::collection::vec(0u64..8, 0..4),
        policy in 0usize..3,
        content_addressed in proptest::bool::ANY,
    ) {
        let policy = [PolicyKind::SchedulerAware, PolicyKind::Lru, PolicyKind::Fifo][policy];
        let keying = if content_addressed {
            KeyingMode::ContentAddressed
        } else {
            KeyingMode::PerSession
        };
        let mut s = tight_store(policy, keying);
        let order: Vec<SessionId> = queued.iter().copied().map(sid).collect();
        let q = QueueView::new(&order);
        for (step, &(op, n, tokens)) in ops.iter().enumerate() {
            let now = Time::from_millis(step as u64);
            block_op(&mut s, op, n, tokens, now, &q);
            if let Err(e) = s.validate_blocks().and_then(|()| victims_match_the_scans(&s, &q)) {
                prop_assert!(false, "after step {step} (op {op}): {e}\nops: {ops:?}");
            }
        }
    }
}

/// A dead node in tier 0 is reclaimed before the prefetcher picks a
/// victim: the stale copy is freed, never written down the stack.
#[test]
fn prefetch_reclaims_dead_nodes_before_demoting() {
    // 128-token chunks of just under 1 MB: one allocation block each.
    const BPT: u64 = 7_800;
    let mut s = AttentionStore::new(StoreConfig {
        keying: KeyingMode::ContentAddressed,
        block_tokens: 128,
        ..small_store(PolicyKind::SchedulerAware).cfg
    });
    let q = QueueView::empty();
    s.save(sid(1), 384 * BPT, 384, Time::ZERO, &q);
    s.apply_pressure(Time::ZERO, 1.0, &q);
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    // Session 9 shrinks from three chunks to one: the two it released
    // stay behind in tier 0, dead, and older than anything saved next.
    s.save(sid(9), 384 * BPT, 384, Time::from_millis(1), &q);
    s.save(sid(9), 128 * BPT, 128, Time::from_millis(2), &q);
    s.save(sid(2), 384 * BPT, 384, Time::from_millis(3), &q);
    s.save(sid(3), 384 * BPT, 384, Time::from_millis(4), &q);
    assert_eq!(s.dram_used_bytes(), 9 * MB);
    s.set_tracing(true);
    let queue = QueueView::new(&[sid(1)]);
    let transfers = s.prefetch(Time::from_millis(5), &queue);
    assert!(transfers.iter().all(|t| t.is_promotion()), "{transfers:?}");
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
    assert_eq!(s.stats().demotions, 3, "only the pressure spike demoted");
    assert!(!s
        .drain_events()
        .iter()
        .any(|e| matches!(e, crate::StoreEvent::Demoted { .. })));
    s.validate_blocks().expect("ledger sound after prefetch");
}

/// A one-tier stack has nowhere to demote to: saves under pressure evict
/// out of tier 0, and the prefetch pass, which restores the tier-0
/// reserve, leaves a full tier alone.
#[test]
fn one_tier_stack_evicts_instead_of_demoting() {
    for keying in [KeyingMode::PerSession, KeyingMode::ContentAddressed] {
        let mut s = AttentionStore::new(StoreConfig {
            tiers: TierStack::new(vec![TierSpec::dram(10 * MB)]),
            keying,
            dram_reserve_fraction: 0.2,
            ..small_store(PolicyKind::SchedulerAware).cfg
        });
        let order: Vec<SessionId> = (1..=6).map(sid).collect();
        let q = QueueView::new(&order);
        for step in 0..24u64 {
            let now = Time::from_millis(step);
            let saved = sid(step % 6 + 1);
            let read = sid((step + 3) % 6 + 1);
            let (transfers, _) = s.save(saved, 3 * MB, 300, now, &q);
            assert!(
                transfers.is_empty(),
                "{keying:?} step {step}: {transfers:?}"
            );
            s.validate_blocks()
                .unwrap_or_else(|e| panic!("{keying:?} step {step} save: {e}"));
            let m = s.load_prefix(read, 300, now, &q);
            assert!(m.transfers.is_empty(), "{keying:?} step {step}: {m:?}");
            s.unpin(read);
            s.validate_blocks()
                .unwrap_or_else(|e| panic!("{keying:?} step {step} consult: {e}"));
            let transfers = s.prefetch(now, &q);
            assert!(
                transfers.is_empty(),
                "{keying:?} step {step}: {transfers:?}"
            );
            s.validate_blocks()
                .unwrap_or_else(|e| panic!("{keying:?} step {step} prefetch: {e}"));
        }
        assert!(s.stats().drops_capacity > 0, "{keying:?}: {:?}", s.stats());
        assert_eq!(s.stats().demotions, 0, "{keying:?}");
    }
}

/// The running byte totals behind `avg_session_bytes` follow saves,
/// re-saves, truncation and removal under both keyings.
#[test]
fn avg_session_bytes_tracks_inserts_resizes_and_removals() {
    for keying in [KeyingMode::PerSession, KeyingMode::ContentAddressed] {
        let mut s = AttentionStore::new(StoreConfig {
            keying,
            ..small_store(PolicyKind::SchedulerAware).cfg
        });
        let q = QueueView::empty();
        assert_eq!(s.avg_session_bytes(), MB, "{keying:?}: empty falls back");
        s.save(sid(1), 2 * MB, 200, Time::ZERO, &q);
        s.save(sid(2), 4 * MB, 400, Time::ZERO, &q);
        assert_eq!(s.avg_session_bytes(), 3 * MB, "{keying:?}");
        s.save(sid(1), 6 * MB, 600, Time::from_millis(1), &q);
        assert_eq!(s.avg_session_bytes(), 5 * MB, "{keying:?}: re-save");
        s.truncate(sid(2), 2 * MB, 200);
        assert_eq!(s.avg_session_bytes(), 4 * MB, "{keying:?}: truncate");
        s.invalidate(sid(1));
        assert_eq!(s.avg_session_bytes(), 2 * MB, "{keying:?}: invalidate");
        s.invalidate(sid(2));
        assert_eq!(s.avg_session_bytes(), MB, "{keying:?}: empty again");
    }
}
