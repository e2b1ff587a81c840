//! The AttentionStore: tiered KV cache bookkeeping over one block
//! ledger of chunk chains.
//!
//! Saved KV is stored as *chunk nodes* — spans of KV addressed by their
//! prefix chain hash — and a session is an ordered chain of node
//! references. The keying mode ([`crate::KeyingMode`]) decides only the
//! chunk size and whether dedup events are emitted: under per-session
//! keying a session is a one-chunk chain (one private node sized to the
//! whole session, the paper's session-granular unit, §3.3.2); under
//! content-addressed keying chunks are `block_tokens` long and sessions
//! with a common token prefix share nodes.
//!
//! The implementation is split along its seams:
//!
//! - this module: the data types, configuration, statistics ledger and
//!   the store struct itself (construction, tracing, capacity queries,
//!   look-ahead window sizing, invariant checks);
//! - [`ledger`]: the node slab, prefix trie, session chains and the
//!   per-tier victim index;
//! - [`placement`]: victim choice over next uses, hop-by-hop demotion,
//!   bottom-tier eviction, reserve maintenance and the chain lifecycle
//!   (truncate / invalidate / expire);
//! - [`fetch`]: save, the prefix consult and the scheduler-aware
//!   look-ahead prefetcher;
//! - [`faults`]: the fallible `try_*` paths.

mod faults;
mod fetch;
mod ledger;
mod placement;
#[cfg(test)]
mod tests;

pub use faults::{DegradeReason, FaultStats, PrefetchOutcome, PrefixOutcome, SaveOutcome};

use std::collections::HashMap;

use models::TierStack;
use serde::{Deserialize, Serialize};
use sim::{Dur, Time};

use crate::chain::{ContentKey, DedupStats, KeyingMode};
use crate::events::StoreEvent;
use crate::{BlockPool, PolicyKind, SessionId, TierId};

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

/// Result of a prefix consult.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixMatch {
    /// Tokens of the requested context covered by stored chunks (the
    /// engine prefills only the unmatched tail).
    pub matched_tokens: u64,
    /// Where the deepest matched chunk was found (`Miss` when nothing
    /// matched).
    pub lookup: Lookup,
    /// Adjacent-tier hops to charge (promotions of matched chunks plus
    /// any demotions that made room for them).
    pub transfers: Vec<Transfer>,
}

impl PrefixMatch {
    /// A match of nothing.
    pub fn miss() -> Self {
        PrefixMatch {
            matched_tokens: 0,
            lookup: Lookup::Miss,
            transfers: Vec::new(),
        }
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
    /// How saved KV is keyed: one private chunk per session (the paper's
    /// scheme and the default) or content-addressed chunk chains shared
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
    /// windows use the observed mean bytes of the stored chains instead.
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
/// // The session resumes with 100 new tokens: its stored 1,900 are
/// // found in the fast tier and pinned; only the new tokens prefill.
/// let m = store.load_prefix(SessionId(7), 2_000, Time::from_millis(60_000), &queue);
/// assert_eq!(m.lookup, Lookup::Hit(TierId(0)));
/// assert_eq!(m.matched_tokens, 1_900);
/// ```
pub struct AttentionStore {
    cfg: StoreConfig,
    /// One block pool per configured tier, fastest first.
    pools: Vec<BlockPool>,
    /// The chunk nodes and the session chains over them.
    ledger: ledger::BlockLedger,
    stats: StoreStats,
    /// Drainable event buffer; `None` = tracing off (zero cost).
    trace: Option<Vec<StoreEvent>>,
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
        let pools = cfg
            .tiers
            .iter()
            .map(|t| BlockPool::new(t.name, t.capacity, cfg.block_bytes))
            .collect();
        AttentionStore {
            ledger: ledger::BlockLedger::new(cfg.policy),
            cfg,
            pools,
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
                let tiers = self.cfg.tiers.iter().enumerate();
                let config = tiers.map(|(i, spec)| StoreEvent::TierConfig {
                    tier: TierId(i),
                    name: spec.name,
                    capacity: spec.capacity,
                    at: Time::ZERO,
                });
                self.trace = Some(config.collect());
                self.emit_dedup(StoreEvent::BlockConfig {
                    block_tokens: self.cfg.block_tokens,
                    at: Time::ZERO,
                });
            }
            (false, true) => self.trace = None,
            _ => {}
        }
    }

    /// Takes the buffered [`StoreEvent`]s (empty when tracing is off).
    pub fn drain_events(&mut self) -> Vec<StoreEvent> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Reports `ev` to the trace buffer when tracing is enabled.
    fn emit(&mut self, ev: StoreEvent) {
        if let Some(t) = &mut self.trace {
            t.push(ev);
        }
    }

    /// Reports a dedup event (the `block_*` vocabulary). Only
    /// content-addressed keying emits them: per-session traces carry no
    /// block events.
    fn emit_dedup(&mut self, ev: StoreEvent) {
        if self.cfg.keying == KeyingMode::ContentAddressed {
            self.emit(ev);
        }
    }

    /// Tokens per chunk: the whole session under per-session keying,
    /// `block_tokens` under content-addressed keying.
    fn chunk_tokens(&self) -> u64 {
        self.cfg.keying.chunk_tokens(self.cfg.block_tokens)
    }

    /// Number of buffered trace events (0 when tracing is off).
    fn trace_mark(&self) -> usize {
        self.trace.as_ref().map_or(0, Vec::len)
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

    /// Cumulative dedup statistics. Per-session chunks are private, so
    /// under per-session keying nothing dedups (`dedup_blocks` and
    /// `bytes_saved` stay zero) while the write and reclaim counters
    /// still count.
    pub fn dedup_stats(&self) -> DedupStats {
        self.ledger.dedup
    }

    /// Registers `sid`'s content key (from the workload's declared shared
    /// prefix) so its chunks hash into the shared namespace. Must happen
    /// before the session's first save; later calls are ignored once a
    /// chain exists (the key travels with the chain from then on).
    pub fn register_content(&mut self, sid: SessionId, key: ContentKey) {
        if self.ledger.session(sid).is_none() {
            self.ledger.keys.insert(sid, key);
        }
    }

    /// The content key `sid`'s chunks hash under: its stored chain's,
    /// else its registered one, else a private key of its own.
    fn key_of(&self, sid: SessionId) -> ContentKey {
        if let Some(r) = self.ledger.session(sid) {
            return r.key;
        }
        self.ledger
            .keys
            .get(&sid)
            .copied()
            .unwrap_or_else(|| ContentKey::private(sid.0))
    }

    /// The deepest tier among `chain`'s nodes (the worst-case staging
    /// distance).
    fn deepest(&self, chain: &[usize]) -> Option<TierId> {
        chain.iter().map(|&s| self.ledger.node(s).placement).max()
    }

    /// Returns where `sid`'s KV currently lives: the *deepest* tier its
    /// chain touches.
    pub fn lookup(&self, sid: SessionId) -> Lookup {
        match self
            .ledger
            .session(sid)
            .and_then(|r| self.deepest(&r.chain))
        {
            Some(t) => Lookup::Hit(t),
            None => Lookup::Miss,
        }
    }

    /// Tokens of `sid`'s stored KV.
    pub fn cached_tokens(&self, sid: SessionId) -> Option<u64> {
        self.ledger.session(sid).map(|r| r.tokens)
    }

    /// Bytes of `sid`'s stored KV.
    pub fn cached_bytes(&self, sid: SessionId) -> Option<u64> {
        self.ledger.session(sid).map(|r| r.bytes)
    }

    /// Whether an in-flight consult holds `sid`'s matched KV pinned.
    pub fn is_pinned(&self, sid: SessionId) -> bool {
        self.ledger.pinned.contains_key(&sid)
    }

    /// Returns the number of cached sessions.
    pub fn len(&self) -> usize {
        self.ledger.sessions().len()
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
    /// look-ahead windows: the mean bytes of the stored chains (so under
    /// content-addressed keying, chunk size × observed chain length);
    /// falls back to the configured default when nothing is stored.
    pub fn avg_session_bytes(&self) -> u64 {
        self.ledger
            .avg_session_bytes()
            .unwrap_or(self.cfg.default_session_bytes)
            .max(1)
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

    /// Checks the store's structural invariants; returns a description
    /// of the first violation. Exposed for the property tests.
    ///
    /// Every node's users are exactly the chains referencing it, every
    /// pin is owned by an in-flight consult, the trie maps exactly the
    /// live nodes, every chain's sums match its nodes, the pools hold
    /// exactly the nodes' blocks, and the victim index and running byte
    /// total equal a fresh rebuild.
    #[doc(hidden)]
    pub fn validate_blocks(&self) -> Result<(), String> {
        let l = &self.ledger;
        for (&hash, &slot) in &l.by_hash {
            let Some(node) = l.get(slot) else {
                return Err(format!("by_hash {hash:#x} points at dead slot {slot}"));
            };
            if node.chain_hash != hash {
                return Err(format!(
                    "by_hash {hash:#x} points at node {:#x}",
                    node.chain_hash
                ));
            }
        }
        let live = l.live_slots().count();
        if l.by_hash.len() != live {
            return Err(format!(
                "{} live nodes but {} hash entries",
                live,
                l.by_hash.len()
            ));
        }
        // User conservation: a node's users are the chains referencing it.
        let mut want_users: HashMap<usize, Vec<SessionId>> = HashMap::new();
        for (&sid, r) in l.sessions() {
            for &slot in &r.chain {
                want_users.entry(slot).or_default().push(sid);
            }
        }
        // Pin conservation: pins == pinned-map occurrences.
        let mut want_pins: HashMap<usize, u64> = HashMap::new();
        for slots in l.pinned.values() {
            for &slot in slots {
                *want_pins.entry(slot).or_insert(0) += 1;
            }
        }
        let mut tier_blocks = vec![0usize; self.pools.len()];
        for slot in l.live_slots() {
            let node = l.node(slot);
            let users = want_users.remove(&slot).unwrap_or_default();
            if node.users != users {
                return Err(format!(
                    "node {slot}: users {:?} but chains of {users:?} reference it",
                    node.users
                ));
            }
            let pins = want_pins.get(&slot).copied().unwrap_or(0);
            if node.pins != pins {
                return Err(format!(
                    "node {slot}: pins {} but {} consults hold it",
                    node.pins, pins
                ));
            }
            tier_blocks[node.placement.0] += node.blocks.len();
        }
        // Every chain references live nodes only, with consistent sums.
        for (sid, r) in l.sessions() {
            let mut tokens = 0;
            let mut bytes = 0;
            for &slot in &r.chain {
                let Some(node) = l.get(slot) else {
                    return Err(format!("{sid}: chain references dead slot {slot}"));
                };
                tokens += node.tokens;
                bytes += node.bytes;
            }
            if r.chain.is_empty() || tokens != r.tokens || bytes != r.bytes {
                return Err(format!(
                    "{sid}: ref claims {}t/{}B, chain of {} sums {}t/{}B",
                    r.tokens,
                    r.bytes,
                    r.chain.len(),
                    tokens,
                    bytes
                ));
            }
        }
        // Pool accounting: the pools hold exactly the nodes.
        for (i, pool) in self.pools.iter().enumerate() {
            if pool.used_blocks() as usize != tier_blocks[i] {
                return Err(format!(
                    "tier {i}: pool holds {} blocks, nodes account for {}",
                    pool.used_blocks(),
                    tier_blocks[i]
                ));
            }
        }
        l.check_derived()
    }
}
