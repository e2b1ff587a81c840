//! Fault-aware store I/O: fallible load/save/prefetch with deterministic
//! retry-with-exponential-backoff, integrity verification and DRAM
//! pressure handling.
//!
//! Every `try_*` method delegates verbatim to its infallible counterpart
//! when no [`sim::FaultPlan`] is installed, so fault-free runs execute
//! byte-identical code. With a plan installed:
//!
//! - disk reads (consults of slow-tier chains, prefetch promotions) roll
//!   the plan's read-error rate per attempt, retrying with exponential
//!   backoff up to `retry.max_retries` times;
//! - a consult that exhausts its retries, or whose chain fails the
//!   integrity checksum, invalidates the chain and reports a
//!   [`DegradeReason`] — the engine then serves the turn by RE-style
//!   re-prefill instead of aborting;
//! - saves roll the write-error rate the same way; an exhausted save
//!   drops the (stale) chain so the next turn re-prefills;
//! - [`AttentionStore::apply_pressure`] squeezes DRAM residency down to
//!   a fraction of capacity, modelling a co-located consumer claiming
//!   host memory.
//!
//! All probabilistic decisions key the plan's pure-hash dice on
//! `(session, monotone roll counter)`, so a run's fault pattern is a
//! deterministic function of the plan alone.

#![warn(clippy::unwrap_used)]

use serde::Serialize;
use sim::fault::{dice, FaultStream};
use sim::{Dur, FaultPlan, RetryPolicy, SsdFaults, Time};

use crate::events::StoreEvent;
use crate::{QueueView, SessionId};

use super::{AttentionStore, Transfer};

/// Cumulative fault-path statistics. Kept separate from
/// [`super::StoreStats`] (which is embedded in golden-pinned reports);
/// all-zero in fault-free runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Disk-read attempts that errored and were retried.
    pub read_retries: u64,
    /// Demand fetches that exhausted their retry budget.
    pub read_failures: u64,
    /// Save-path write attempts that errored and were retried.
    pub write_retries: u64,
    /// Saves that exhausted their retry budget.
    pub write_failures: u64,
    /// Integrity-checksum mismatches detected on load.
    pub corruptions_detected: u64,
}

/// Why a fetch degraded the session to RE-style re-prefill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The disk read exhausted its retry budget.
    ReadFailed,
    /// The chain failed its integrity checksum.
    Corrupted,
}

impl DegradeReason {
    /// Lowercase label used in serialized traces.
    pub fn label(self) -> &'static str {
        match self {
            DegradeReason::ReadFailed => "read_failed",
            DegradeReason::Corrupted => "corrupted",
        }
    }
}

/// Result of a fallible save.
#[derive(Debug, Clone)]
pub struct SaveOutcome {
    /// Eviction/demotion transfers the engine must charge.
    pub transfers: Vec<Transfer>,
    /// Whether the save fit (capacity, not faults).
    pub fitted: bool,
    /// Write retries that preceded the result.
    pub retries: u32,
    /// Total backoff delay accrued across those retries.
    pub backoff: Dur,
    /// `true` when the save exhausted its retries and was dropped.
    pub failed: bool,
}

/// Result of a fallible prefix consult.
#[derive(Debug, Clone)]
pub struct PrefixOutcome {
    /// The prefix match (forced to a miss on degrade).
    pub prefix: crate::PrefixMatch,
    /// Read retries that preceded the result.
    pub retries: u32,
    /// Total backoff delay accrued across those retries.
    pub backoff: Dur,
    /// `Some` when the session degraded to re-prefill.
    pub degraded: Option<DegradeReason>,
}

impl PrefixOutcome {
    fn clean(prefix: crate::PrefixMatch) -> Self {
        PrefixOutcome {
            prefix,
            retries: 0,
            backoff: Dur::ZERO,
            degraded: None,
        }
    }
}

/// Result of a fallible prefetch pass.
#[derive(Debug, Clone)]
pub struct PrefetchOutcome {
    /// Tier movements the engine must charge.
    pub transfers: Vec<Transfer>,
    /// Read retries accrued across the pass's disk reads.
    pub retries: u32,
    /// Total backoff delay accrued across those retries.
    pub backoff: Dur,
}

impl AttentionStore {
    /// Installs (or clears, when empty) the run's fault plan. The store
    /// only consults the plan's SSD rates and retry policy; link windows
    /// and crash schedules are the engine's concern.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_empty() { None } else { Some(plan) };
    }

    /// Cumulative fault-path statistics (all-zero without faults).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Copies out the Copy-able fault parameters, or `None` when fault-free.
    fn fault_profile(&self) -> Option<(u64, SsdFaults, RetryPolicy)> {
        self.faults.as_ref().map(|p| (p.seed, p.ssd, p.retry))
    }

    /// Takes the next dice key; monotone so repeated rolls differ.
    fn next_fault_roll(&mut self) -> u64 {
        let seq = self.fault_roll_seq;
        self.fault_roll_seq += 1;
        seq
    }

    /// Integrity checksum to stamp on a saved chain: correct metadata
    /// hash, or (with probability `corruption_rate`) a corrupted one the
    /// next load will detect.
    pub(super) fn stamp_checksum(&mut self, sid: SessionId, bytes: u64, tokens: u64) -> u64 {
        let good = metadata_checksum(sid, bytes, tokens);
        let Some((seed, ssd, _)) = self.fault_profile() else {
            return good;
        };
        if ssd.corruption_rate <= 0.0 {
            return good;
        }
        let key = self.next_fault_roll();
        if dice(seed, FaultStream::Corrupt, sid.0, key) < ssd.corruption_rate {
            good ^ 1
        } else {
            good
        }
    }

    /// Fallible prefix consult: [`AttentionStore::load_prefix`] plus
    /// injected read errors (retried with exponential backoff) and the
    /// integrity check. The read dice roll when the session's own stored
    /// KV sits in a slow tier. On exhausted retries or a checksum
    /// mismatch on the session's chain record, the chain is invalidated
    /// and the outcome reports a miss with a [`DegradeReason`] — the
    /// caller re-prefills instead of aborting.
    pub fn try_load_prefix(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> PrefixOutcome {
        let Some((seed, ssd, retry)) = self.fault_profile() else {
            return PrefixOutcome::clean(self.load_prefix(sid, ctx_tokens, now, queue));
        };
        let mut retries = 0u32;
        let mut backoff = Dur::ZERO;
        if self.lookup(sid).is_slow_hit() && ssd.read_error_rate > 0.0 {
            loop {
                let key = self.next_fault_roll();
                if dice(seed, FaultStream::Read, sid.0, key) >= ssd.read_error_rate {
                    break;
                }
                if retries >= retry.max_retries {
                    let mark = self.trace_mark();
                    self.fault_stats.read_failures += 1;
                    self.emit(StoreEvent::ReadFailed {
                        session: sid.0,
                        attempts: retry.max_retries + 1,
                        at: now,
                    });
                    self.invalidate(sid);
                    self.emit_occupancy(mark, now);
                    return PrefixOutcome {
                        prefix: crate::PrefixMatch::miss(),
                        retries,
                        backoff,
                        degraded: Some(DegradeReason::ReadFailed),
                    };
                }
                backoff += retry.backoff(retries);
                self.fault_stats.read_retries += 1;
                self.emit(StoreEvent::ReadRetry {
                    session: sid.0,
                    attempt: retries,
                    at: now,
                });
                retries += 1;
            }
        }
        // Integrity check over the saved KV metadata before handing the
        // chain to the engine (corruption is stamped at save time, so it
        // can surface from any tier).
        if let Some(r) = self.ledger.session(sid) {
            if r.checksum != metadata_checksum(sid, r.bytes, r.tokens) {
                let bytes = r.bytes;
                let mark = self.trace_mark();
                self.fault_stats.corruptions_detected += 1;
                self.emit(StoreEvent::CorruptionDetected {
                    session: sid.0,
                    bytes,
                    at: now,
                });
                self.invalidate(sid);
                self.emit_occupancy(mark, now);
                return PrefixOutcome {
                    prefix: crate::PrefixMatch::miss(),
                    retries,
                    backoff,
                    degraded: Some(DegradeReason::Corrupted),
                };
            }
        }
        let prefix = self.load_prefix(sid, ctx_tokens, now, queue);
        PrefixOutcome {
            prefix,
            retries,
            backoff,
            degraded: None,
        }
    }

    /// Fallible save: [`AttentionStore::save`] plus injected write errors
    /// retried with exponential backoff. An exhausted save drops the
    /// session's (stale) chain entirely — its next turn re-prefills.
    pub fn try_save(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> SaveOutcome {
        let Some((seed, ssd, retry)) = self.fault_profile() else {
            let (transfers, fitted) = self.save(sid, total_bytes, total_tokens, now, queue);
            return SaveOutcome {
                transfers,
                fitted,
                retries: 0,
                backoff: Dur::ZERO,
                failed: false,
            };
        };
        let mut retries = 0u32;
        let mut backoff = Dur::ZERO;
        if ssd.write_error_rate > 0.0 {
            loop {
                let key = self.next_fault_roll();
                if dice(seed, FaultStream::Write, sid.0, key) >= ssd.write_error_rate {
                    break;
                }
                if retries >= retry.max_retries {
                    let mark = self.trace_mark();
                    self.fault_stats.write_failures += 1;
                    self.emit(StoreEvent::WriteFailed {
                        session: sid.0,
                        attempts: retry.max_retries + 1,
                        at: now,
                    });
                    // The stale pre-turn copy is useless now; drop it so
                    // the next turn re-prefills from scratch.
                    self.invalidate(sid);
                    self.emit_occupancy(mark, now);
                    return SaveOutcome {
                        transfers: Vec::new(),
                        fitted: false,
                        retries,
                        backoff,
                        failed: true,
                    };
                }
                backoff += retry.backoff(retries);
                self.fault_stats.write_retries += 1;
                self.emit(StoreEvent::WriteRetry {
                    session: sid.0,
                    attempt: retries,
                    at: now,
                });
                retries += 1;
            }
        }
        let (transfers, fitted) = self.save(sid, total_bytes, total_tokens, now, queue);
        SaveOutcome {
            transfers,
            fitted,
            retries,
            backoff,
            failed: false,
        }
    }

    /// Fallible prefetch: [`AttentionStore::prefetch`] plus injected read
    /// errors on the pass's disk reads. Prefetch reads never hard-fail —
    /// the demand path revalidates on admission — so exhausting the
    /// budget just caps the retries; the engine charges the extra link
    /// occupancy and backoff.
    pub fn try_prefetch(&mut self, now: Time, queue: &QueueView) -> PrefetchOutcome {
        let Some((seed, ssd, retry)) = self.fault_profile() else {
            return PrefetchOutcome {
                transfers: self.prefetch(now, queue),
                retries: 0,
                backoff: Dur::ZERO,
            };
        };
        let transfers = self.prefetch(now, queue);
        let mut retries = 0u32;
        let mut backoff = Dur::ZERO;
        if ssd.read_error_rate > 0.0 {
            for t in &transfers {
                if !t.is_promotion() {
                    continue;
                }
                let mut r = 0u32;
                while r < retry.max_retries {
                    let key = self.next_fault_roll();
                    if dice(seed, FaultStream::Read, t.session.0, key) >= ssd.read_error_rate {
                        break;
                    }
                    backoff += retry.backoff(r);
                    self.fault_stats.read_retries += 1;
                    self.emit(StoreEvent::ReadRetry {
                        session: t.session.0,
                        attempt: r,
                        at: now,
                    });
                    r += 1;
                }
                retries += r;
            }
        }
        PrefetchOutcome {
            transfers,
            retries,
            backoff,
        }
    }

    /// Applies a DRAM capacity pressure spike: squeezes DRAM residency
    /// down to `(1 - fraction) · dram_bytes` by reclaiming dead nodes and
    /// demoting victims (pinned nodes stay). Returns the demotion transfers to charge.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= fraction <= 1`.
    pub fn apply_pressure(&mut self, now: Time, fraction: f64, queue: &QueueView) -> Vec<Transfer> {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "pressure fraction must be in [0, 1], got {fraction}"
        );
        let target = (self.cfg.tiers[0].capacity as f64 * (1.0 - fraction)) as u64;
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        let mut pass = super::placement::Pass::new(queue);
        while self.dram_used_bytes() > target {
            if !self.push_down(now, crate::TierId(0), &[], &mut pass, &mut transfers) {
                break;
            }
        }
        self.emit_occupancy(mark, now);
        transfers
    }
}

/// The integrity checksum over a chain's saved KV metadata: a pure hash
/// of `(session, bytes, tokens)` (splitmix64 finalizer).
pub(super) fn metadata_checksum(session: SessionId, bytes: u64, tokens: u64) -> u64 {
    let mut x = session
        .0
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(bytes.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add(tokens.wrapping_mul(0x94d049bb133111eb));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lookup, PrefixMatch, StoreConfig, TierId};
    use models::TierStack;

    fn store() -> AttentionStore {
        AttentionStore::new(StoreConfig {
            tiers: TierStack::two_tier(4_000_000_000, 40_000_000_000),
            ..StoreConfig::default()
        })
    }

    fn all_faults(read: f64, write: f64, corrupt: f64) -> FaultPlan {
        FaultPlan::new(99).with_ssd_errors(read, write, corrupt)
    }

    #[test]
    fn no_plan_delegates_cleanly() {
        let mut s = store();
        let q = QueueView::empty();
        let sid = SessionId(1);
        let out = s.try_save(sid, 1_000_000, 100, Time::ZERO, &q);
        assert!(out.fitted && !out.failed && out.retries == 0);
        let f = s.try_load_prefix(sid, 150, Time::from_millis(1), &q);
        assert_eq!(f.prefix.lookup, Lookup::Hit(TierId(0)));
        assert_eq!(f.prefix.matched_tokens, 100);
        assert!(f.degraded.is_none() && f.retries == 0 && f.backoff == Dur::ZERO);
        assert_eq!(*s.fault_stats(), FaultStats::default());
    }

    #[test]
    fn empty_plan_is_cleared_on_install() {
        let mut s = store();
        s.set_faults(FaultPlan::new(5));
        assert!(s.faults.is_none());
    }

    #[test]
    fn certain_read_errors_degrade_disk_hits_to_miss() {
        let mut s = store();
        let q = QueueView::empty();
        let sid = SessionId(7);
        s.set_faults(all_faults(1.0, 0.0, 0.0));
        s.save(sid, 1_000_000, 100, Time::ZERO, &q);
        // Force the entry onto disk so the read path rolls the dice.
        s.apply_pressure(Time::ZERO, 1.0, &q);
        assert_eq!(s.lookup(sid), Lookup::Hit(TierId(1)));
        let out = s.try_load_prefix(sid, 150, Time::from_millis(5), &q);
        assert_eq!(out.prefix, PrefixMatch::miss());
        assert_eq!(out.degraded, Some(DegradeReason::ReadFailed));
        assert_eq!(
            out.retries,
            s.faults.as_ref().map(|p| p.retry.max_retries).unwrap_or(0)
        );
        assert!(out.backoff > Dur::ZERO);
        assert_eq!(s.fault_stats().read_failures, 1);
        assert_eq!(s.lookup(sid), Lookup::Miss, "degraded chain is invalidated");
    }

    #[test]
    fn certain_corruption_is_detected_on_load() {
        let mut s = store();
        let q = QueueView::empty();
        let sid = SessionId(9);
        s.set_faults(all_faults(0.0, 0.0, 1.0));
        s.save(sid, 1_000_000, 100, Time::ZERO, &q);
        let out = s.try_load_prefix(sid, 150, Time::from_millis(5), &q);
        assert_eq!(out.prefix, PrefixMatch::miss());
        assert_eq!(out.degraded, Some(DegradeReason::Corrupted));
        assert_eq!(s.fault_stats().corruptions_detected, 1);
        assert_eq!(s.lookup(sid), Lookup::Miss);
    }

    #[test]
    fn certain_write_errors_fail_the_save_and_drop_stale_state() {
        let mut s = store();
        let q = QueueView::empty();
        let sid = SessionId(4);
        s.save(sid, 500_000, 50, Time::ZERO, &q);
        s.set_faults(all_faults(0.0, 1.0, 0.0));
        let out = s.try_save(sid, 1_000_000, 100, Time::from_millis(10), &q);
        assert!(out.failed && !out.fitted);
        assert_eq!(s.fault_stats().write_failures, 1);
        assert_eq!(
            s.lookup(sid),
            Lookup::Miss,
            "stale chain dropped on failed save"
        );
    }

    #[test]
    fn truncation_preserves_corruption() {
        let mut s = store();
        let q = QueueView::empty();
        let sid = SessionId(3);
        s.set_faults(all_faults(0.0, 0.0, 1.0));
        s.save(sid, 1_000_000, 100, Time::ZERO, &q);
        s.truncate(sid, 500_000, 50);
        assert_eq!(s.cached_tokens(sid), Some(50), "still cached");
        let out = s.try_load_prefix(sid, 80, Time::from_millis(1), &q);
        assert_eq!(
            out.degraded,
            Some(DegradeReason::Corrupted),
            "corruption survives truncation"
        );
        // And an honest chain stays honest through truncation.
        let mut clean = store();
        clean.set_faults(all_faults(0.0, 0.0, 1e-12));
        clean.save(sid, 1_000_000, 100, Time::ZERO, &q);
        clean.truncate(sid, 500_000, 50);
        let out = clean.try_load_prefix(sid, 80, Time::from_millis(1), &q);
        assert_eq!(out.degraded, None);
        assert_eq!(out.prefix.matched_tokens, 50);
    }

    #[test]
    fn pressure_squeezes_dram_residency() {
        let mut s = store();
        let q = QueueView::empty();
        for i in 0..3 {
            s.save(SessionId(i), 1_000_000_000, 1_000, Time::ZERO, &q);
        }
        let before = s.dram_used_bytes();
        assert!(before >= 3_000_000_000);
        let transfers = s.apply_pressure(Time::from_millis(1), 0.75, &q);
        assert!(!transfers.is_empty());
        assert!(s.dram_used_bytes() <= 1_000_000_000);
        for t in &transfers {
            assert!(t.is_demotion());
            assert_eq!((t.from, t.to), (TierId(0), TierId(1)));
        }
        assert!((0..3).any(|i| s.lookup(SessionId(i)) == Lookup::Hit(TierId(1))));
    }

    #[test]
    fn fault_decisions_are_deterministic_across_runs() {
        let run = || {
            let mut s = store();
            s.set_faults(all_faults(0.3, 0.3, 0.3));
            let q = QueueView::empty();
            let mut log = Vec::new();
            for i in 0..50u64 {
                let sid = SessionId(i % 10);
                let sv = s.try_save(sid, 2_000_000, 200, Time::from_millis(i), &q);
                log.push((sv.retries, sv.failed));
                let f = s.try_load_prefix(sid, 300, Time::from_millis(i + 1), &q);
                log.push((f.retries, f.degraded.is_some()));
            }
            (log, *s.fault_stats())
        };
        assert_eq!(run(), run());
    }
}
