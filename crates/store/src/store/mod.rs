//! The AttentionStore: tiered KV cache bookkeeping, keyed either by
//! session (one private entry per conversation, the paper's scheme) or
//! by content-addressed block chain (fixed-size chunks shared across
//! sessions with a common token prefix, [`crate::KeyingMode`]).
//!
//! The implementation is split along its seams:
//!
//! - this module: the data types, configuration, statistics ledger and
//!   the store struct itself (construction, tracing, capacity queries,
//!   look-ahead window sizing);
//! - [`placement`]: per-session tier placement — victim selection,
//!   hop-by-hop demotion, eviction, reserve maintenance and entry
//!   lifecycle (truncate / invalidate / expire);
//! - [`fetch`]: the per-session read/write paths — save, demand fetch
//!   and the scheduler-aware look-ahead prefetcher;
//! - [`shared`]: the content-addressed block ledger — chunk chains,
//!   prefix-trie lookup, copy-on-divergence and refcounted eviction.
//!
//! Every public operation dispatches on the configured keying mode at
//! its entry point; the per-session paths are the original code,
//! untouched, so `per_session` mode stays byte-for-byte identical to
//! the store before block keying existed.

mod faults;
mod fetch;
mod placement;
mod shared;
#[cfg(test)]
mod tests;

pub use faults::{
    DegradeReason, FaultStats, FetchOutcome, PrefetchOutcome, PrefixOutcome, SaveOutcome,
};
pub use shared::PrefixMatch;

use std::collections::BTreeMap;

use models::TierStack;
use serde::{Deserialize, Serialize};
use sim::{Dur, Time};

use crate::chain::KeyingMode;
use crate::events::{StoreEvent, StoreEventLog, StoreObserver};
use crate::{BlockPool, Entry, PolicyKind, SessionId, TierId};

/// One adjacent-tier hop produced by a store operation, for the engine to
/// charge on the corresponding [`sim::BandwidthLink`].
///
/// Movements are always between adjacent tiers: a promotion from a deep
/// tier is reported as a chain of hops (`from = to + 1` each), a demotion
/// as a single hop down (`to = from + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// The session whose KV moved.
    pub session: SessionId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Tier the bytes left.
    pub from: TierId,
    /// Adjacent tier the bytes landed in.
    pub to: TierId,
}

impl Transfer {
    /// Whether the hop moves toward the staging tier (a read on the
    /// slower tier's link).
    pub fn is_promotion(&self) -> bool {
        self.to < self.from
    }

    /// Whether the hop moves away from the staging tier (a write on the
    /// slower tier's link).
    pub fn is_demotion(&self) -> bool {
        self.from < self.to
    }

    /// The slower tier of the hop, whose link carries the bytes.
    pub fn slow_tier(&self) -> TierId {
        self.from.max(self.to)
    }
}

/// Result of a session lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// KV resident in tier `.0` of the stack (tier 0 = ready for use, a
    /// deeper tier = must be staged up hop by hop first).
    Hit(TierId),
    /// No KV cached for this session.
    Miss,
}

impl Lookup {
    /// The tier the lookup hit, if any.
    pub fn tier(self) -> Option<TierId> {
        match self {
            Lookup::Hit(t) => Some(t),
            Lookup::Miss => None,
        }
    }

    /// Whether the KV was found already staged in tier 0.
    pub fn is_fast_hit(self) -> bool {
        matches!(self, Lookup::Hit(t) if t.is_fast())
    }

    /// Whether the KV was found in a below-staging tier.
    pub fn is_slow_hit(self) -> bool {
        matches!(self, Lookup::Hit(t) if !t.is_fast())
    }
}

/// Store configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// The storage tier stack, fastest first (§3.3 uses host DRAM over
    /// SSD; deeper stacks add pooled memory and object storage).
    pub tiers: TierStack,
    /// Allocation block size, bytes.
    pub block_bytes: u64,
    /// Eviction policy (and, for scheduler-aware, prefetching).
    #[serde(skip, default = "default_policy")]
    pub policy: PolicyKind,
    /// How saved KV is keyed: per-session private entries (the paper's
    /// scheme and the default) or content-addressed block chains shared
    /// across sessions.
    #[serde(skip, default)]
    pub keying: KeyingMode,
    /// Dedup chunk granularity in tokens under content-addressed
    /// keying: prefixes match in whole chunks of this many tokens.
    /// Distinct from `block_bytes`, the *allocation* granularity — one
    /// chunk typically spans several allocation blocks.
    #[serde(skip, default = "default_block_tokens")]
    pub block_tokens: u64,
    /// Time-to-live since last access; `None` = keep until capacity
    /// pressure (§4.3.6 sets 1 hour for the capacity study).
    pub ttl: Option<Dur>,
    /// Fraction of tier 0 kept free as the fetch buffer (§3.3.1);
    /// background demotion restores it.
    pub dram_reserve_fraction: f64,
    /// Assumed average stored size per session before anything is
    /// cached, bytes — the window-sizing fallback. Once data exists the
    /// windows use the observed mean instead: mean entry bytes under
    /// per-session keying, block size × observed chain length under
    /// block keying.
    pub default_session_bytes: u64,
}

fn default_policy() -> PolicyKind {
    PolicyKind::SchedulerAware
}

fn default_block_tokens() -> u64 {
    128
}

impl StoreConfig {
    /// Capacity of the fast staging tier (tier 0), bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.tiers[0].capacity
    }

    /// Capacity below the staging tier, bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.tiers.slow_capacity()
    }

    /// Resizes the fast staging tier (tier 0).
    pub fn set_dram_bytes(&mut self, bytes: u64) {
        self.tiers[0].capacity = bytes;
    }

    /// Resizes tier 1 (the paper's SSD slot).
    ///
    /// # Panics
    ///
    /// Panics when the stack has no tier below the staging tier.
    pub fn set_disk_bytes(&mut self, bytes: u64) {
        assert!(self.tiers.len() > 1, "stack has no tier below tier 0");
        self.tiers[1].capacity = bytes;
    }
}

impl Default for StoreConfig {
    /// The paper's testbed store: 128 GB DRAM over 10 TB SSD, 16 MiB
    /// blocks, scheduler-aware policy, no TTL, 10% DRAM reserve.
    fn default() -> Self {
        StoreConfig {
            tiers: TierStack::paper_two_tier(),
            block_bytes: 16 * 1024 * 1024,
            policy: PolicyKind::SchedulerAware,
            keying: KeyingMode::default(),
            block_tokens: default_block_tokens(),
            ttl: None,
            dram_reserve_fraction: 0.10,
            default_session_bytes: 1_000_000_000,
        }
    }
}

/// Cumulative store statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Sessions saved or updated.
    pub saves: u64,
    /// Bytes written into the store by saves (total sizes).
    pub save_bytes: u64,
    /// Downward adjacent-tier demotion hops.
    pub demotions: u64,
    /// Bytes demoted.
    pub demotion_bytes: u64,
    /// Promotions up to the staging tier (prefetch + demand).
    pub promotions: u64,
    /// Bytes promoted.
    pub promotion_bytes: u64,
    /// Entries dropped because capacity ran out everywhere.
    pub drops_capacity: u64,
    /// Entries dropped by TTL expiry.
    pub drops_ttl: u64,
    /// Entries dropped by explicit invalidation.
    pub drops_invalidated: u64,
    /// Saves rejected because the session could not fit at all.
    pub save_rejected: u64,
    /// Saves that spilled directly below tier 0 because it could not make
    /// room (e.g. everything resident was pinned).
    pub spills_to_disk: u64,
}

/// The hierarchical KV caching system (§3.3).
///
/// Pure bookkeeping over a stack of [`BlockPool`] tiers (one per
/// [`models::TierSpec`]); every mutation returns the adjacent-tier
/// [`Transfer`] hops the serving engine must charge on simulated links.
/// One store may back many serving instances: queue views built with
/// [`crate::QueueView::with_owners`] let it attribute tier movements to
/// the instance whose queue motivated them.
///
/// # Examples
///
/// ```
/// use sim::Time;
/// use store::{AttentionStore, Lookup, QueueView, SessionId, StoreConfig, TierId};
///
/// let mut store = AttentionStore::new(StoreConfig::default());
/// let queue = QueueView::empty();
/// // A finished conversation turn saves its session's KV cache.
/// let (_, saved) = store.save(SessionId(7), 1_500_000_000, 1_900, Time::ZERO, &queue);
/// assert!(saved);
/// // The session resumes: its KV is found in the fast tier and pinned.
/// let (found, _) = store.load_for_use(SessionId(7), Time::from_millis(60_000), &queue);
/// assert_eq!(found, Lookup::Hit(TierId(0)));
/// ```
pub struct AttentionStore {
    cfg: StoreConfig,
    policy: Box<dyn crate::EvictionPolicy>,
    /// One block pool per configured tier, fastest first.
    pools: Vec<BlockPool>,
    entries: BTreeMap<SessionId, Entry>,
    /// Σ `bytes` over `entries`, kept current by every insert, resize and
    /// removal so `avg_session_bytes` need not re-sum the map.
    entry_bytes: u64,
    /// The content-addressed block ledger (empty and inert under
    /// per-session keying).
    shared: shared::BlockLedger,
    next_seq: u64,
    stats: StoreStats,
    /// Drainable event buffer; `None` = tracing off (zero cost).
    trace: Option<StoreEventLog>,
    /// Installed fault plan; `None` = fault-free (the `try_*` APIs then
    /// delegate verbatim to the infallible paths).
    faults: Option<sim::FaultPlan>,
    /// Fault-path statistics (separate from [`StoreStats`], which is
    /// embedded in the golden-pinned run reports).
    fault_stats: faults::FaultStats,
    /// Monotone counter keying the deterministic fault dice, so repeated
    /// rolls for one session stay independent.
    fault_roll_seq: u64,
}

impl AttentionStore {
    /// Creates a store from a configuration.
    pub fn new(cfg: StoreConfig) -> Self {
        let policy = cfg.policy.build();
        let pools = cfg
            .tiers
            .iter()
            .map(|t| BlockPool::new(t.name, t.capacity, cfg.block_bytes))
            .collect();
        AttentionStore {
            cfg,
            policy,
            pools,
            entries: BTreeMap::new(),
            entry_bytes: 0,
            shared: shared::BlockLedger::default(),
            next_seq: 0,
            stats: StoreStats::default(),
            trace: None,
            faults: None,
            fault_stats: faults::FaultStats::default(),
            fault_roll_seq: 0,
        }
    }

    /// Enables or disables event tracing. While enabled, every placement
    /// decision is buffered as a [`StoreEvent`] until
    /// [`drain_events`](AttentionStore::drain_events) takes it. Enabling
    /// emits one [`StoreEvent::TierConfig`] per tier first, so trace
    /// consumers can resolve tier indices to names. Tracing never changes
    /// store behavior.
    pub fn set_tracing(&mut self, on: bool) {
        match (on, self.trace.is_some()) {
            (true, false) => {
                let mut log = StoreEventLog::new();
                for (i, spec) in self.cfg.tiers.iter().enumerate() {
                    log.on_store_event(StoreEvent::TierConfig {
                        tier: TierId(i),
                        name: spec.name,
                        capacity: spec.capacity,
                        at: Time::ZERO,
                    });
                }
                if self.cfg.keying == KeyingMode::ContentAddressed {
                    log.on_store_event(StoreEvent::BlockConfig {
                        block_tokens: self.cfg.block_tokens,
                        at: Time::ZERO,
                    });
                }
                self.trace = Some(log);
            }
            (false, true) => self.trace = None,
            _ => {}
        }
    }

    /// Takes the buffered [`StoreEvent`]s (empty when tracing is off).
    pub fn drain_events(&mut self) -> Vec<StoreEvent> {
        self.trace
            .as_mut()
            .map(StoreEventLog::drain)
            .unwrap_or_default()
    }

    /// Reports `ev` to the trace buffer when tracing is enabled.
    fn emit(&mut self, ev: StoreEvent) {
        if let Some(t) = &mut self.trace {
            t.on_store_event(ev);
        }
    }

    /// Number of buffered trace events (0 when tracing is off).
    fn trace_mark(&self) -> usize {
        self.trace.as_ref().map_or(0, |t| t.events().len())
    }

    /// Emits per-tier occupancy gauge samples when events landed since
    /// `mark`, so occupancy trails every traced batch of placement
    /// changes without flooding no-op calls.
    fn emit_occupancy(&mut self, mark: usize, now: Time) {
        if self.trace_mark() > mark {
            for i in 0..self.pools.len() {
                let ev = StoreEvent::Occupancy {
                    tier: TierId(i),
                    used_bytes: self.tier_used_bytes(TierId(i)),
                    at: now,
                };
                self.emit(ev);
            }
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Returns where `sid`'s KV currently lives (under block keying,
    /// the *deepest* tier its chain touches — the worst-case staging
    /// distance).
    pub fn lookup(&self, sid: SessionId) -> Lookup {
        if self.cfg.keying == KeyingMode::ContentAddressed {
            return self.ca_lookup(sid);
        }
        match self.entries.get(&sid).map(|e| e.placement) {
            Some(t) => Lookup::Hit(t),
            None => Lookup::Miss,
        }
    }

    /// Returns the entry for `sid`, if cached (per-session keying only;
    /// block chains have no [`Entry`] — use
    /// [`cached_tokens`](AttentionStore::cached_tokens)).
    pub fn entry(&self, sid: SessionId) -> Option<&Entry> {
        self.entries.get(&sid)
    }

    /// Tokens of `sid`'s stored KV, in either keying mode.
    pub fn cached_tokens(&self, sid: SessionId) -> Option<u64> {
        if self.cfg.keying == KeyingMode::ContentAddressed {
            return self.ca_tokens(sid);
        }
        self.entries.get(&sid).map(|e| e.tokens)
    }

    /// Returns the number of cached sessions.
    pub fn len(&self) -> usize {
        if self.cfg.keying == KeyingMode::ContentAddressed {
            return self.ca_len();
        }
        self.entries.len()
    }

    /// Returns `true` when no sessions are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of configured tiers.
    pub fn n_tiers(&self) -> usize {
        self.pools.len()
    }

    /// The slowest (bottom) tier, where capacity evictions leave the
    /// system.
    pub fn bottom_tier(&self) -> TierId {
        TierId(self.pools.len() - 1)
    }

    /// Returns bytes resident in `tier` (whole blocks).
    pub fn tier_used_bytes(&self, tier: TierId) -> u64 {
        let pool = &self.pools[tier.0];
        pool.used_blocks() as u64 * pool.block_bytes()
    }

    /// Returns bytes resident in the fast staging tier (whole blocks).
    pub fn dram_used_bytes(&self) -> u64 {
        self.tier_used_bytes(TierId(0))
    }

    /// Returns bytes resident below the staging tier (whole blocks).
    pub fn disk_used_bytes(&self) -> u64 {
        (1..self.pools.len())
            .map(|i| self.tier_used_bytes(TierId(i)))
            .sum()
    }

    /// Average stored bytes per session, `S_kv`, used to size the
    /// look-ahead windows; falls back to the configured default when
    /// empty. Under per-session keying this is the mean entry size;
    /// under block keying it is block size × observed chain length
    /// (the mean bytes of the stored chains), so the windows track the
    /// deduplicated footprint rather than a fixed guess.
    pub fn avg_session_bytes(&self) -> u64 {
        if self.cfg.keying == KeyingMode::ContentAddressed {
            return self.ca_avg_session_bytes();
        }
        if self.entries.is_empty() {
            return self.cfg.default_session_bytes.max(1);
        }
        (self.entry_bytes / self.entries.len() as u64).max(1)
    }

    /// Look-ahead prefetch window length, `L_pw = C_mem / S_kv` (§3.3.1).
    pub fn prefetch_window(&self) -> usize {
        (self.cfg.tiers[0].capacity / self.avg_session_bytes()) as usize
    }

    /// Look-ahead eviction window length, generalized from §3.3.2's
    /// `L_ev = (C_mem + C_disk) / S_kv` to the stack's total capacity.
    pub fn eviction_window(&self) -> usize {
        (self.cfg.tiers.total_capacity() / self.avg_session_bytes()) as usize
    }
}
