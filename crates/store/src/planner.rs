//! The planning-side store API the serving engine programs against.
//!
//! The engine never touches blocks, chains or eviction internals: during
//! a run it only *plans* — consult the stored KV on admission, prefetch
//! ahead of the queue, save on retirement, truncate or invalidate on
//! context overflow, expire on TTL sweeps. [`StorePlanner`] captures
//! exactly that surface, so the engine's transfer stage can be wired to
//! [`AttentionStore`] (or to a test double) without seeing the rest of
//! the store's API.

use crate::{
    AttentionStore, ContentKey, DedupStats, FaultStats, KeyingMode, PrefetchOutcome, PrefixMatch,
    PrefixOutcome, QueueView, SaveOutcome, SessionId, StoreEvent, StoreStats, Transfer,
};
use sim::{Dur, FaultPlan, Time};

/// The store operations the serving engine's planning stages use.
///
/// Every mutating call returns the [`Transfer`]s the engine must charge
/// on its simulated links; the store itself never models time beyond
/// recording access timestamps.
pub trait StorePlanner {
    /// Longest-prefix match of `sid`'s next `ctx_tokens` of context
    /// (history plus new input) against the store, pinning and staging
    /// what matched for an admitted job.
    fn load_prefix(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> PrefixMatch;

    /// Number of cached tokens for `sid`, if present in any tier.
    fn cached_tokens(&self, sid: SessionId) -> Option<u64>;

    /// Runs the scheduler-aware prefetcher over the queue (§3.3.1).
    fn prefetch(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer>;

    /// Saves (or updates) `sid`'s KV; returns eviction/demotion transfers
    /// and whether the save fit.
    fn save(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> (Vec<Transfer>, bool);

    /// Shrinks `sid`'s cached KV in place (decoupled positional encoding
    /// truncation, §3.4).
    fn truncate(&mut self, sid: SessionId, new_bytes: u64, new_tokens: u64);

    /// Drops `sid`'s cached KV entirely (coupled positional encoding
    /// overflow, §4.3.4).
    fn invalidate(&mut self, sid: SessionId);

    /// Drops entries idle past the TTL; returns how many were dropped.
    fn expire(&mut self, now: Time) -> u64;

    /// Running statistics.
    fn stats(&self) -> &StoreStats;

    /// Scheduler-aware prefetch window in sessions: `C_mem / S_kv`.
    fn prefetch_window(&self) -> usize;

    /// Scheduler-aware eviction window in sessions:
    /// `(C_mem + C_disk) / S_kv`.
    fn eviction_window(&self) -> usize;

    /// Enables or disables [`StoreEvent`] tracing. Planners without a
    /// trace facility (test doubles) ignore this.
    fn set_tracing(&mut self, _on: bool) {}

    /// Takes the [`StoreEvent`]s buffered since the last drain. Empty
    /// when tracing is off or unsupported.
    fn drain_events(&mut self) -> Vec<StoreEvent> {
        Vec::new()
    }

    /// Releases `sid`'s use-pin without re-saving (crash recovery).
    /// Idempotent and a no-op for sessions no longer cached; planners
    /// without pinning ignore it.
    fn unpin(&mut self, _sid: SessionId) {}

    /// Installs the run's fault plan. Planners without a fault facility
    /// (test doubles) ignore it and stay infallible.
    fn set_faults(&mut self, _plan: FaultPlan) {}

    /// Cumulative fault-path statistics (all-zero when unsupported).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Fallible [`StorePlanner::save`]. Defaults to the infallible path.
    fn try_save(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> SaveOutcome {
        let (transfers, fitted) = self.save(sid, total_bytes, total_tokens, now, queue);
        SaveOutcome {
            transfers,
            fitted,
            retries: 0,
            backoff: Dur::ZERO,
            failed: false,
        }
    }

    /// Fallible [`StorePlanner::prefetch`]. Defaults to the infallible
    /// path.
    fn try_prefetch(&mut self, now: Time, queue: &QueueView) -> PrefetchOutcome {
        PrefetchOutcome {
            transfers: self.prefetch(now, queue),
            retries: 0,
            backoff: Dur::ZERO,
        }
    }

    /// Applies a DRAM pressure spike (see
    /// [`AttentionStore::apply_pressure`]); returns the demotion
    /// transfers. Defaults to a no-op.
    fn apply_pressure(&mut self, _now: Time, _fraction: f64, _queue: &QueueView) -> Vec<Transfer> {
        Vec::new()
    }

    /// Which keying scheme this planner stores KV under. Planners
    /// without block keying are per-session.
    fn keying(&self) -> KeyingMode {
        KeyingMode::PerSession
    }

    /// Registers the token-content identity of `sid` before its first
    /// save, so block hashing can recognise shared prefixes. No-op for
    /// per-session planners.
    fn register_content(&mut self, _sid: SessionId, _key: ContentKey) {}

    /// Fallible [`StorePlanner::load_prefix`]. Defaults to the
    /// infallible path.
    fn try_load_prefix(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> PrefixOutcome {
        PrefixOutcome {
            prefix: self.load_prefix(sid, ctx_tokens, now, queue),
            retries: 0,
            backoff: Dur::ZERO,
            degraded: None,
        }
    }

    /// Cross-session dedup statistics (all-zero for per-session
    /// planners).
    fn dedup_stats(&self) -> DedupStats {
        DedupStats::default()
    }
}

impl StorePlanner for AttentionStore {
    fn cached_tokens(&self, sid: SessionId) -> Option<u64> {
        AttentionStore::cached_tokens(self, sid)
    }

    fn prefetch(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer> {
        AttentionStore::prefetch(self, now, queue)
    }

    fn save(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> (Vec<Transfer>, bool) {
        AttentionStore::save(self, sid, total_bytes, total_tokens, now, queue)
    }

    fn truncate(&mut self, sid: SessionId, new_bytes: u64, new_tokens: u64) {
        AttentionStore::truncate(self, sid, new_bytes, new_tokens)
    }

    fn invalidate(&mut self, sid: SessionId) {
        AttentionStore::invalidate(self, sid)
    }

    fn expire(&mut self, now: Time) -> u64 {
        AttentionStore::expire(self, now)
    }

    fn stats(&self) -> &StoreStats {
        AttentionStore::stats(self)
    }

    fn prefetch_window(&self) -> usize {
        AttentionStore::prefetch_window(self)
    }

    fn eviction_window(&self) -> usize {
        AttentionStore::eviction_window(self)
    }

    fn set_tracing(&mut self, on: bool) {
        AttentionStore::set_tracing(self, on)
    }

    fn drain_events(&mut self) -> Vec<StoreEvent> {
        AttentionStore::drain_events(self)
    }

    fn unpin(&mut self, sid: SessionId) {
        AttentionStore::unpin(self, sid)
    }

    fn set_faults(&mut self, plan: FaultPlan) {
        AttentionStore::set_faults(self, plan)
    }

    fn fault_stats(&self) -> FaultStats {
        *AttentionStore::fault_stats(self)
    }

    fn try_save(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> SaveOutcome {
        AttentionStore::try_save(self, sid, total_bytes, total_tokens, now, queue)
    }

    fn try_prefetch(&mut self, now: Time, queue: &QueueView) -> PrefetchOutcome {
        AttentionStore::try_prefetch(self, now, queue)
    }

    fn apply_pressure(&mut self, now: Time, fraction: f64, queue: &QueueView) -> Vec<Transfer> {
        AttentionStore::apply_pressure(self, now, fraction, queue)
    }

    fn keying(&self) -> KeyingMode {
        self.config().keying
    }

    fn register_content(&mut self, sid: SessionId, key: ContentKey) {
        AttentionStore::register_content(self, sid, key)
    }

    fn load_prefix(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> PrefixMatch {
        AttentionStore::load_prefix(self, sid, ctx_tokens, now, queue)
    }

    fn try_load_prefix(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> PrefixOutcome {
        AttentionStore::try_load_prefix(self, sid, ctx_tokens, now, queue)
    }

    fn dedup_stats(&self) -> DedupStats {
        AttentionStore::dedup_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lookup, StoreConfig, TierId};

    /// The trait is object-safe and the blanket impl delegates.
    #[test]
    fn attention_store_is_a_planner() {
        let mut store = AttentionStore::new(StoreConfig::default());
        let planner: &mut dyn StorePlanner = &mut store;
        let view = QueueView::empty();
        let sid = SessionId(1);
        let (t, ok) = planner.save(sid, 1_000_000, 100, Time::ZERO, &view);
        assert!(ok);
        assert!(t.is_empty());
        assert_eq!(planner.cached_tokens(sid), Some(100));
        let m = planner.load_prefix(sid, 150, Time::ZERO, &view);
        assert_eq!(m.lookup, Lookup::Hit(TierId(0)));
        assert_eq!(m.matched_tokens, 100);
        assert_eq!(planner.stats().saves, 1);
        planner.invalidate(sid);
        assert_eq!(planner.cached_tokens(sid), None);
    }
}
