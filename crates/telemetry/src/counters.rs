//! The one counter fold both hubs share.
//!
//! [`Counters`] tallies the merged event stream: every event kind that
//! counts maps to one field here, and [`Counters`]'s observer impl is the
//! only code that turns an event into a counter increment.
//! [`MetricsHub`](crate::MetricsHub) folds the whole run into one
//! `Counters` (and one per serving instance), and
//! [`WindowedHub`](crate::WindowedHub) folds each event into the window
//! holding its timestamp, so the run's counters equal the sum of its
//! windows by construction.

use engine::{ConsultClass, EngineEvent, EngineObserver};
use serde::Serialize;
use store::{FetchKind, StoreEvent};

/// Declares the counter fields once: the struct and its field-wise sum.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Event tallies of the merged engine and store streams.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
        pub struct Counters {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Counters {
            /// Adds `other` field by field.
            pub(crate) fn merge(&mut self, other: &Counters) {
                $(self.$name += other.$name;)*
            }
        }
    };
}

counters! {
    /// Turns that arrived and were queued.
    turns_arrived,
    /// Jobs admitted (prefill issued).
    admitted,
    /// Jobs retired.
    retired,
    /// Context-overflow truncations.
    truncations,
    /// Consultations classified fast-tier hits.
    hits_fast,
    /// Consultations classified slow-tier hits.
    hits_slow,
    /// Consultations classified misses (no cached KV, or no store).
    misses,
    /// Admission deferrals, one per retry.
    deferred_events,
    /// Sessions saved or updated in the store.
    saves,
    /// Saves rejected for capacity.
    save_rejections,
    /// Store lookups that found nothing cached.
    store_misses,
    /// Look-ahead prefetch promotions (slow tier → tier 0).
    prefetch_promotions,
    /// Demand-fetch promotions (slow tier → tier 0).
    demand_promotions,
    /// One-hop demotions to an adjacent slower tier.
    demotions,
    /// Evictions out of the stack's bottom tier (out of the system).
    evictions,
    /// Entries dropped because the tier below could not take their
    /// demotion.
    drops,
    /// TTL expirations.
    expirations,
    /// Admissions stalled on the HBM write buffer.
    write_stalls,
    /// Consults that matched at least one stored block (content-addressed
    /// keying only; zero under per-session keying, like every block
    /// counter below).
    block_dedup_hits,
    /// Blocks matched across all consults.
    blocks_matched,
    /// Save-side blocks that resolved to an already-stored copy.
    blocks_deduped,
    /// Save-side blocks written fresh.
    blocks_written,
    /// Bytes not written because the block already existed.
    dedup_bytes_saved,
    /// Bytes physically written by block saves.
    dedup_bytes_written,
    /// Sessions that forked off a shared chain (copy-on-divergence).
    block_divergences,
    /// Unreferenced blocks reclaimed (refcounted eviction).
    block_evictions,
    /// Injected slow-tier read errors that were retried.
    read_retries,
    /// Reads abandoned after exhausting their retry budget.
    read_failures,
    /// Injected slow-tier write errors that were retried.
    write_retries,
    /// Saves abandoned after exhausting their retry budget.
    write_failures,
    /// Checksum mismatches caught on load.
    corruptions_detected,
    /// Turns degraded to a full re-prefill after a cache-path failure.
    recompute_fallbacks,
    /// Scripted instance crashes.
    instance_crashes,
    /// Turns re-queued onto surviving instances.
    turns_rerouted,
    /// Arriving turns shed with a typed rejection (SLO admission).
    turns_shed,
    /// Degradation-ladder rung changes (either direction).
    overload_transitions,
    /// Autoscaler scale-up actions.
    scale_ups,
    /// Autoscaler scale-down actions.
    scale_downs,
}

impl Counters {
    /// Every fault-stream event folded into one tally (the alert
    /// engine's fault-rate signal).
    pub fn fault_events(&self) -> u64 {
        self.read_retries
            + self.read_failures
            + self.write_retries
            + self.write_failures
            + self.corruptions_detected
            + self.recompute_fallbacks
            + self.instance_crashes
            + self.turns_rerouted
    }

    /// Hits over classified consultations (0 when none were classified).
    pub(crate) fn hit_rate(&self) -> f64 {
        let hits = self.hits_fast + self.hits_slow;
        let total = hits + self.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Fraction of saved blocks that were dedup hits (0 without block
    /// saves).
    pub(crate) fn dedup_ratio(&self) -> f64 {
        let total = self.blocks_deduped + self.blocks_written;
        if total == 0 {
            0.0
        } else {
            self.blocks_deduped as f64 / total as f64
        }
    }
}

/// The fold itself. Instance tags are dropped: a per-instance slice is
/// just another `Counters` fed that instance's events.
impl EngineObserver for Counters {
    fn on_event(&mut self, ev: EngineEvent) {
        let field = match ev {
            EngineEvent::TurnArrived { .. } => &mut self.turns_arrived,
            EngineEvent::Truncated { .. } => &mut self.truncations,
            EngineEvent::Consulted { class, .. } => match class {
                ConsultClass::NoHistory => return,
                ConsultClass::NoStore | ConsultClass::Miss => &mut self.misses,
                ConsultClass::HitFast => &mut self.hits_fast,
                ConsultClass::HitSlow => &mut self.hits_slow,
            },
            EngineEvent::Deferred { .. } => &mut self.deferred_events,
            EngineEvent::Admitted { .. } => &mut self.admitted,
            EngineEvent::Retired { .. } => &mut self.retired,
            EngineEvent::InstanceCrashed { .. } => &mut self.instance_crashes,
            EngineEvent::TurnRerouted { .. } => &mut self.turns_rerouted,
            EngineEvent::DegradedRecompute { .. } => &mut self.recompute_fallbacks,
            EngineEvent::TurnShed { .. } => &mut self.turns_shed,
            EngineEvent::OverloadLevelChanged { .. } => &mut self.overload_transitions,
            EngineEvent::ScaleUp { .. } => &mut self.scale_ups,
            EngineEvent::ScaleDown { .. } => &mut self.scale_downs,
            EngineEvent::PrefillTimed { .. }
            | EngineEvent::PrefillDone { .. }
            | EngineEvent::HbmReserved { .. }
            | EngineEvent::SloConfig { .. } => return,
        };
        *field += 1;
    }

    fn wants_store_events(&self) -> bool {
        true
    }

    fn on_store_event(&mut self, ev: StoreEvent) {
        let field = match ev {
            StoreEvent::Saved { .. } => &mut self.saves,
            StoreEvent::SaveRejected { .. } => &mut self.save_rejections,
            StoreEvent::FetchMiss { .. } => &mut self.store_misses,
            StoreEvent::Promoted { kind, .. } => match kind {
                FetchKind::Demand => &mut self.demand_promotions,
                FetchKind::Prefetch => &mut self.prefetch_promotions,
            },
            StoreEvent::Demoted { .. } => &mut self.demotions,
            StoreEvent::Evicted { .. } => &mut self.evictions,
            StoreEvent::Dropped { .. } => &mut self.drops,
            StoreEvent::Expired { .. } => &mut self.expirations,
            StoreEvent::WriteBufferStall { .. } => &mut self.write_stalls,
            StoreEvent::BlockSaved {
                new_blocks,
                dedup_blocks,
                bytes_written,
                bytes_saved,
                ..
            } => {
                self.blocks_written += new_blocks;
                self.blocks_deduped += dedup_blocks;
                self.dedup_bytes_written += bytes_written;
                self.dedup_bytes_saved += bytes_saved;
                return;
            }
            StoreEvent::BlockDedupHit { matched_blocks, .. } => {
                self.blocks_matched += matched_blocks;
                &mut self.block_dedup_hits
            }
            StoreEvent::BlockDiverged { .. } => &mut self.block_divergences,
            StoreEvent::BlockEvicted { .. } => &mut self.block_evictions,
            StoreEvent::ReadRetry { .. } => &mut self.read_retries,
            StoreEvent::ReadFailed { .. } => &mut self.read_failures,
            StoreEvent::WriteRetry { .. } => &mut self.write_retries,
            StoreEvent::WriteFailed { .. } => &mut self.write_failures,
            StoreEvent::CorruptionDetected { .. } => &mut self.corruptions_detected,
            // Per-tier fetch hits are sliced by the hubs themselves;
            // the rest are gauges, headers and latency samples.
            StoreEvent::FetchHit { .. }
            | StoreEvent::TierConfig { .. }
            | StoreEvent::Occupancy { .. }
            | StoreEvent::PrefetchCompleted { .. }
            | StoreEvent::BlockConfig { .. } => return,
        };
        *field += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Time;
    use store::TierId;

    #[test]
    fn fold_counts_each_kind_once() {
        let mut c = Counters::default();
        c.on_event(EngineEvent::turn_arrived(1, 0, Time::ZERO));
        c.on_event(EngineEvent::consulted(
            1,
            ConsultClass::NoHistory,
            0,
            Time::ZERO,
        ));
        c.on_event(EngineEvent::consulted(
            1,
            ConsultClass::HitSlow,
            9,
            Time::ZERO,
        ));
        c.on_event(EngineEvent::admitted(1, 9, 1, false, Time::ZERO));
        c.on_store_event(StoreEvent::BlockSaved {
            session: 1,
            new_blocks: 2,
            dedup_blocks: 3,
            bytes_written: 20,
            bytes_saved: 30,
            at: Time::ZERO,
        });
        c.on_store_event(StoreEvent::BlockDedupHit {
            session: 1,
            matched_blocks: 3,
            bytes: 30,
            at: Time::ZERO,
        });
        c.on_store_event(StoreEvent::FetchHit {
            session: 1,
            tier: TierId(0),
            bytes: 30,
            at: Time::ZERO,
        });
        let want = Counters {
            turns_arrived: 1,
            hits_slow: 1,
            admitted: 1,
            blocks_written: 2,
            blocks_deduped: 3,
            dedup_bytes_written: 20,
            dedup_bytes_saved: 30,
            block_dedup_hits: 1,
            blocks_matched: 3,
            ..Counters::default()
        };
        assert_eq!(c, want);
        assert_eq!(c.hit_rate(), 1.0);
        assert_eq!(c.dedup_ratio(), 0.6);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = Counters {
            saves: 2,
            scale_downs: 1,
            ..Counters::default()
        };
        let b = Counters {
            saves: 3,
            turns_arrived: 4,
            ..Counters::default()
        };
        a.merge(&b);
        assert_eq!(
            a,
            Counters {
                saves: 5,
                turns_arrived: 4,
                scale_downs: 1,
                ..Counters::default()
            }
        );
    }
}
