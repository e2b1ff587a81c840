//! Store trace events: an observer hook over the AttentionStore.
//!
//! Every placement decision the store makes — where a save landed, which
//! tier a fetch hit, what got promoted, demoted or evicted and at which
//! look-ahead window position — is reported as a [`StoreEvent`] through
//! the [`StoreObserver`] hook. Observation is strictly read-only: events
//! describe state changes *after* they are committed, and nothing an
//! observer does can alter the store's behavior (the golden-report
//! fixtures hold with or without tracing enabled).
//!
//! Tiers are identified by their [`TierId`] index into the configured
//! stack; the [`StoreEvent::TierConfig`] records emitted when tracing is
//! enabled map each index to its display name and capacity, so trace
//! consumers can label tracks without hard-coding a hierarchy.
//!
//! The serving engine drains these events through
//! [`StorePlanner::drain_events`](crate::StorePlanner::drain_events) and
//! merges them with its own pipeline events into one causally-ordered
//! trace; a few variants ([`StoreEvent::PrefetchCompleted`],
//! [`StoreEvent::WriteBufferStall`]) are emitted by the engine itself
//! because only the transfer stage knows the link timings involved.

use serde::{Serialize, Value};
use sim::Time;

use crate::TierId;

/// Why a below-tier-0 entry was promoted up to the staging tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Demand fetch: an admitted job needed its KV right now.
    Demand,
    /// Look-ahead prefetch (§3.3.1): the job was still queued.
    Prefetch,
}

impl FetchKind {
    /// Lowercase label used in serialized traces.
    pub fn label(self) -> &'static str {
        match self {
            FetchKind::Demand => "demand",
            FetchKind::Prefetch => "prefetch",
        }
    }
}

/// One observable decision of the AttentionStore (plus the two
/// engine-emitted transfer-timing variants; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoreEvent {
    /// Tier `tier` of the configured stack is named `name` and holds
    /// `capacity` bytes. Emitted once per tier when tracing is enabled,
    /// before any other event, so trace consumers can resolve
    /// [`TierId`] indices to labels.
    TierConfig {
        /// Tier index, fastest first.
        tier: TierId,
        /// The tier's display name from its `TierSpec`.
        name: &'static str,
        /// The tier's capacity in bytes.
        capacity: u64,
        /// Virtual time tracing was enabled.
        at: Time,
    },
    /// A session's KV was saved (or updated) into `tier`.
    Saved {
        /// External session id.
        session: u64,
        /// Stored payload size.
        bytes: u64,
        /// Tier the save landed in (below tier 0 = spill, §3.3.1's write
        /// stream).
        tier: TierId,
        /// Virtual commit time.
        at: Time,
    },
    /// A save could not fit anywhere and was rejected.
    SaveRejected {
        /// External session id.
        session: u64,
        /// Payload size that did not fit.
        bytes: u64,
        /// Virtual time of the attempt.
        at: Time,
    },
    /// A demand lookup found the session's KV in `tier`.
    FetchHit {
        /// External session id.
        session: u64,
        /// Tier the KV was found in (before any promotion).
        tier: TierId,
        /// Cached payload size.
        bytes: u64,
        /// Virtual lookup time.
        at: Time,
    },
    /// A demand lookup found nothing cached.
    FetchMiss {
        /// External session id.
        session: u64,
        /// Virtual lookup time.
        at: Time,
    },
    /// A session's KV was promoted up to the staging tier. The movement
    /// is physically hop-by-adjacent-tier (`from` → `from-1` → ... →
    /// `to`); one event covers the whole journey and the per-hop
    /// transfers carry the link charges.
    Promoted {
        /// External session id.
        session: u64,
        /// Payload size moved.
        bytes: u64,
        /// Demand fetch or look-ahead prefetch.
        kind: FetchKind,
        /// Tier the KV was resident in before the journey.
        from: TierId,
        /// Destination tier (tier 0 today).
        to: TierId,
        /// The session's scheduler-queue position when prefetched.
        queue_pos: Option<usize>,
        /// The serving instance whose queue motivated the move, when the
        /// store was consulted with an owner-attributed queue view.
        instance: Option<u32>,
        /// Virtual time the movement was planned (the engine charges the
        /// actual link time).
        at: Time,
    },
    /// A stored chunk was demoted one hop to the adjacent slower tier to
    /// make room: a per-session chunk is the session's whole KV; a shared
    /// chunk is attributed to its last accessor.
    Demoted {
        /// External session id (the chunk's last accessor).
        session: u64,
        /// Payload size moved.
        bytes: u64,
        /// Tier the KV left.
        from: TierId,
        /// The adjacent slower tier it landed in (`from + 1`).
        to: TierId,
        /// The serving instance whose queue holds the victim, if queued on
        /// an owner-attributed view.
        instance: Option<u32>,
        /// Virtual commit time.
        at: Time,
    },
    /// A session's KV was evicted out of tier `tier` (out of the system)
    /// under capacity pressure.
    Evicted {
        /// External session id.
        session: u64,
        /// Payload size dropped.
        bytes: u64,
        /// The tier the entry was evicted from (the stack's bottom tier).
        tier: TierId,
        /// The victim's position in the scheduler queue, if it was queued
        /// at all (scheduler-aware eviction prefers unqueued victims, so
        /// `Some` here means every candidate was inside the window).
        window_pos: Option<usize>,
        /// The serving instance whose queue holds the victim, if queued on
        /// an owner-attributed view.
        instance: Option<u32>,
        /// Virtual commit time.
        at: Time,
    },
    /// An entry was dropped outright from `tier` because the tier below
    /// could not make room for its demotion.
    Dropped {
        /// External session id.
        session: u64,
        /// Payload size dropped.
        bytes: u64,
        /// The tier the entry was dropped from.
        tier: TierId,
        /// Virtual commit time.
        at: Time,
    },
    /// A session's KV expired by TTL.
    Expired {
        /// External session id.
        session: u64,
        /// Virtual sweep time.
        at: Time,
    },
    /// One tier's occupancy after a batch of store operations (a gauge,
    /// emitted once per tier per drained interaction rather than per
    /// block move).
    Occupancy {
        /// Tier index the sample describes.
        tier: TierId,
        /// Bytes resident in the tier (whole blocks).
        used_bytes: u64,
        /// Virtual sample time.
        at: Time,
    },
    /// A prefetched session's KV finished staging into the fast tier
    /// (engine-emitted: the store plans the move, the transfer stage
    /// knows when the link completes it).
    PrefetchCompleted {
        /// External session id.
        session: u64,
        /// The serving instance whose queue the prefetch targets, when
        /// known.
        instance: Option<u32>,
        /// Virtual staging-completion time.
        at: Time,
    },
    /// Admission stalled because the HBM write buffer was still draining
    /// (§3.2.2; engine-emitted).
    WriteBufferStall {
        /// External session id of the stalled job.
        session: u64,
        /// Earliest time the buffer will have drained.
        until: Time,
        /// Virtual time of the stalled attempt.
        at: Time,
    },
    /// A slow-tier read attempt errored (fault injection) and will be
    /// retried after exponential backoff.
    ReadRetry {
        /// External session id.
        session: u64,
        /// 0-based retry number about to run.
        attempt: u32,
        /// Virtual time of the failed attempt.
        at: Time,
    },
    /// A slow-tier read exhausted its retry budget; the session's cached
    /// KV is invalidated and the turn degrades to RE-style re-prefill.
    ReadFailed {
        /// External session id.
        session: u64,
        /// Total attempts made (initial + retries).
        attempts: u32,
        /// Virtual time of the final failure.
        at: Time,
    },
    /// A save-path write attempt errored (fault injection) and will be
    /// retried after exponential backoff.
    WriteRetry {
        /// External session id.
        session: u64,
        /// 0-based retry number about to run.
        attempt: u32,
        /// Virtual time of the failed attempt.
        at: Time,
    },
    /// A save exhausted its retry budget; the session's KV is not stored
    /// (its next turn re-prefills from scratch).
    WriteFailed {
        /// External session id.
        session: u64,
        /// Total attempts made (initial + retries).
        attempts: u32,
        /// Virtual time of the final failure.
        at: Time,
    },
    /// The integrity checksum over a loaded entry's saved KV metadata did
    /// not match: the entry is invalidated and the session degrades to
    /// RE-style re-prefill.
    CorruptionDetected {
        /// External session id.
        session: u64,
        /// Size of the corrupted payload.
        bytes: u64,
        /// Virtual detection time.
        at: Time,
    },
    /// The store runs in content-addressed block keying. Emitted once
    /// alongside the `tier_config` records when tracing is enabled, so
    /// trace consumers know to expect (and validate) block events;
    /// per-session traces never carry it.
    BlockConfig {
        /// Dedup chunk granularity in tokens.
        block_tokens: u64,
        /// Virtual time tracing was enabled.
        at: Time,
    },
    /// A content-addressed save committed: how much of the chain was
    /// written fresh vs shared with already-stored blocks.
    BlockSaved {
        /// External session id.
        session: u64,
        /// Chunks allocated fresh by this save.
        new_blocks: u64,
        /// Chunks that resolved to an already-stored node.
        dedup_blocks: u64,
        /// Bytes physically written.
        bytes_written: u64,
        /// Bytes *not* written thanks to dedup.
        bytes_saved: u64,
        /// Virtual commit time.
        at: Time,
    },
    /// A consult matched a stored prefix in the content-addressed trie.
    BlockDedupHit {
        /// External session id of the resuming turn.
        session: u64,
        /// Blocks of the context covered by stored KV.
        matched_blocks: u64,
        /// Bytes of the matched prefix.
        bytes: u64,
        /// Virtual lookup time.
        at: Time,
    },
    /// A session's tokens forked from a chain it previously referenced
    /// (copy-on-divergence): the suffix from `at_block` was released,
    /// never mutated in place.
    BlockDiverged {
        /// External session id.
        session: u64,
        /// First chain position that diverged.
        at_block: u64,
        /// Chain references released from that position on.
        released_blocks: u64,
        /// Virtual commit time.
        at: Time,
    },
    /// An unreferenced block node was reclaimed out of the system — the
    /// refcounted eviction path. `refs` is always 0: a node still
    /// referenced by any live chain is never evicted, only demoted.
    BlockEvicted {
        /// Allocation blocks freed.
        blocks: u64,
        /// Payload size freed.
        bytes: u64,
        /// The tier the node was reclaimed from.
        tier: TierId,
        /// Chain references at eviction time (always 0 by invariant;
        /// recorded so trace validation can assert it).
        refs: u64,
        /// Virtual commit time.
        at: Time,
    },
}

impl StoreEvent {
    /// Snake-case name of the variant, used as the `kind` field in
    /// serialized traces.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreEvent::TierConfig { .. } => "tier_config",
            StoreEvent::Saved { .. } => "saved",
            StoreEvent::SaveRejected { .. } => "save_rejected",
            StoreEvent::FetchHit { .. } => "fetch_hit",
            StoreEvent::FetchMiss { .. } => "fetch_miss",
            StoreEvent::Promoted { .. } => "promoted",
            StoreEvent::Demoted { .. } => "demoted",
            StoreEvent::Evicted { .. } => "evicted",
            StoreEvent::Dropped { .. } => "dropped",
            StoreEvent::Expired { .. } => "expired",
            StoreEvent::Occupancy { .. } => "occupancy",
            StoreEvent::PrefetchCompleted { .. } => "prefetch_completed",
            StoreEvent::WriteBufferStall { .. } => "write_buffer_stall",
            StoreEvent::ReadRetry { .. } => "read_retry",
            StoreEvent::ReadFailed { .. } => "read_failed",
            StoreEvent::WriteRetry { .. } => "write_retry",
            StoreEvent::WriteFailed { .. } => "write_failed",
            StoreEvent::CorruptionDetected { .. } => "corruption_detected",
            StoreEvent::BlockConfig { .. } => "block_config",
            StoreEvent::BlockSaved { .. } => "block_saved",
            StoreEvent::BlockDedupHit { .. } => "block_dedup_hit",
            StoreEvent::BlockDiverged { .. } => "block_diverged",
            StoreEvent::BlockEvicted { .. } => "block_evicted",
        }
    }

    /// Coarse category: `cache` (save/fetch lifecycle), `tiering`
    /// (promote/demote/evict movements), `gauge` (occupancy samples and
    /// tier configuration), `stall` (write-buffer backpressure) or
    /// `fault` (injected-failure retries, exhaustions and corruption
    /// detections).
    pub fn category(&self) -> &'static str {
        match self {
            StoreEvent::Saved { .. }
            | StoreEvent::SaveRejected { .. }
            | StoreEvent::FetchHit { .. }
            | StoreEvent::FetchMiss { .. }
            | StoreEvent::Expired { .. }
            | StoreEvent::BlockSaved { .. }
            | StoreEvent::BlockDedupHit { .. }
            | StoreEvent::BlockDiverged { .. } => "cache",
            StoreEvent::Promoted { .. }
            | StoreEvent::Demoted { .. }
            | StoreEvent::Evicted { .. }
            | StoreEvent::Dropped { .. }
            | StoreEvent::PrefetchCompleted { .. }
            | StoreEvent::BlockEvicted { .. } => "tiering",
            StoreEvent::TierConfig { .. }
            | StoreEvent::Occupancy { .. }
            | StoreEvent::BlockConfig { .. } => "gauge",
            StoreEvent::WriteBufferStall { .. } => "stall",
            StoreEvent::ReadRetry { .. }
            | StoreEvent::ReadFailed { .. }
            | StoreEvent::WriteRetry { .. }
            | StoreEvent::WriteFailed { .. }
            | StoreEvent::CorruptionDetected { .. } => "fault",
        }
    }

    /// The event's virtual timestamp.
    pub fn at(&self) -> Time {
        match *self {
            StoreEvent::TierConfig { at, .. }
            | StoreEvent::Saved { at, .. }
            | StoreEvent::SaveRejected { at, .. }
            | StoreEvent::FetchHit { at, .. }
            | StoreEvent::FetchMiss { at, .. }
            | StoreEvent::Promoted { at, .. }
            | StoreEvent::Demoted { at, .. }
            | StoreEvent::Evicted { at, .. }
            | StoreEvent::Dropped { at, .. }
            | StoreEvent::Expired { at, .. }
            | StoreEvent::Occupancy { at, .. }
            | StoreEvent::PrefetchCompleted { at, .. }
            | StoreEvent::WriteBufferStall { at, .. }
            | StoreEvent::ReadRetry { at, .. }
            | StoreEvent::ReadFailed { at, .. }
            | StoreEvent::WriteRetry { at, .. }
            | StoreEvent::WriteFailed { at, .. }
            | StoreEvent::CorruptionDetected { at, .. }
            | StoreEvent::BlockConfig { at, .. }
            | StoreEvent::BlockSaved { at, .. }
            | StoreEvent::BlockDedupHit { at, .. }
            | StoreEvent::BlockDiverged { at, .. }
            | StoreEvent::BlockEvicted { at, .. } => at,
        }
    }

    /// The session the event concerns (`None` for tier-wide gauges).
    pub fn session(&self) -> Option<u64> {
        match *self {
            StoreEvent::Saved { session, .. }
            | StoreEvent::SaveRejected { session, .. }
            | StoreEvent::FetchHit { session, .. }
            | StoreEvent::FetchMiss { session, .. }
            | StoreEvent::Promoted { session, .. }
            | StoreEvent::Demoted { session, .. }
            | StoreEvent::Evicted { session, .. }
            | StoreEvent::Dropped { session, .. }
            | StoreEvent::Expired { session, .. }
            | StoreEvent::PrefetchCompleted { session, .. }
            | StoreEvent::WriteBufferStall { session, .. }
            | StoreEvent::ReadRetry { session, .. }
            | StoreEvent::ReadFailed { session, .. }
            | StoreEvent::WriteRetry { session, .. }
            | StoreEvent::WriteFailed { session, .. }
            | StoreEvent::CorruptionDetected { session, .. }
            | StoreEvent::BlockSaved { session, .. }
            | StoreEvent::BlockDedupHit { session, .. }
            | StoreEvent::BlockDiverged { session, .. } => Some(session),
            StoreEvent::TierConfig { .. }
            | StoreEvent::Occupancy { .. }
            | StoreEvent::BlockConfig { .. }
            | StoreEvent::BlockEvicted { .. } => None,
        }
    }

    /// The serving instance the event is attributed to (the owner of the
    /// target session in the merged queue view), when one was known.
    pub fn instance(&self) -> Option<u32> {
        match *self {
            StoreEvent::Promoted { instance, .. }
            | StoreEvent::Demoted { instance, .. }
            | StoreEvent::Evicted { instance, .. }
            | StoreEvent::PrefetchCompleted { instance, .. } => instance,
            _ => None,
        }
    }
}

/// Builds the serialized payload fields shared by most variants.
fn fields(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn secs(t: Time) -> Value {
    Value::F64(t.as_secs_f64())
}

fn tier_index(t: TierId) -> Value {
    Value::U64(t.0 as u64)
}

/// Appends `("instance", id)` only when attribution is present, keeping
/// single-instance serializations byte-identical to the pre-cluster form.
fn push_instance(pairs: &mut Vec<(&str, Value)>, instance: Option<u32>) {
    if let Some(i) = instance {
        pairs.push(("instance", Value::U64(u64::from(i))));
    }
}

impl Serialize for StoreEvent {
    /// Serializes as a tagged object: `kind` first, payload fields next,
    /// the timestamp (`at`, fractional seconds) last. Tier references are
    /// bare [`TierId`] indices; `tier_config` records carry the
    /// index→name mapping.
    fn to_value(&self) -> Value {
        let kind = Value::Str(self.kind().to_string());
        match *self {
            StoreEvent::TierConfig {
                tier,
                name,
                capacity,
                at,
            } => fields(vec![
                ("kind", kind),
                ("tier", tier_index(tier)),
                ("name", Value::Str(name.to_string())),
                ("capacity", Value::U64(capacity)),
                ("at", secs(at)),
            ]),
            StoreEvent::Saved {
                session,
                bytes,
                tier,
                at,
            } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("bytes", Value::U64(bytes)),
                ("tier", tier_index(tier)),
                ("at", secs(at)),
            ]),
            StoreEvent::SaveRejected { session, bytes, at } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("bytes", Value::U64(bytes)),
                ("at", secs(at)),
            ]),
            StoreEvent::FetchHit {
                session,
                tier,
                bytes,
                at,
            } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("tier", tier_index(tier)),
                ("bytes", Value::U64(bytes)),
                ("at", secs(at)),
            ]),
            StoreEvent::FetchMiss { session, at } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("at", secs(at)),
            ]),
            StoreEvent::Promoted {
                session,
                bytes,
                kind: fetch,
                from,
                to,
                queue_pos,
                instance,
                at,
            } => {
                let mut pairs = vec![
                    ("kind", kind),
                    ("session", Value::U64(session)),
                    ("bytes", Value::U64(bytes)),
                    ("fetch", Value::Str(fetch.label().to_string())),
                    ("from", tier_index(from)),
                    ("to", tier_index(to)),
                    (
                        "queue_pos",
                        match queue_pos {
                            Some(p) => Value::U64(p as u64),
                            None => Value::Null,
                        },
                    ),
                ];
                push_instance(&mut pairs, instance);
                pairs.push(("at", secs(at)));
                fields(pairs)
            }
            StoreEvent::Demoted {
                session,
                bytes,
                from,
                to,
                instance,
                at,
            } => {
                let mut pairs = vec![
                    ("kind", kind),
                    ("session", Value::U64(session)),
                    ("bytes", Value::U64(bytes)),
                    ("from", tier_index(from)),
                    ("to", tier_index(to)),
                ];
                push_instance(&mut pairs, instance);
                pairs.push(("at", secs(at)));
                fields(pairs)
            }
            StoreEvent::Evicted {
                session,
                bytes,
                tier,
                window_pos,
                instance,
                at,
            } => {
                let mut pairs = vec![
                    ("kind", kind),
                    ("session", Value::U64(session)),
                    ("bytes", Value::U64(bytes)),
                    ("tier", tier_index(tier)),
                    (
                        "window_pos",
                        match window_pos {
                            Some(p) => Value::U64(p as u64),
                            None => Value::Null,
                        },
                    ),
                ];
                push_instance(&mut pairs, instance);
                pairs.push(("at", secs(at)));
                fields(pairs)
            }
            StoreEvent::Dropped {
                session,
                bytes,
                tier,
                at,
            } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("bytes", Value::U64(bytes)),
                ("tier", tier_index(tier)),
                ("at", secs(at)),
            ]),
            StoreEvent::Expired { session, at } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("at", secs(at)),
            ]),
            StoreEvent::Occupancy {
                tier,
                used_bytes,
                at,
            } => fields(vec![
                ("kind", kind),
                ("tier", tier_index(tier)),
                ("used_bytes", Value::U64(used_bytes)),
                ("at", secs(at)),
            ]),
            StoreEvent::PrefetchCompleted {
                session,
                instance,
                at,
            } => {
                let mut pairs = vec![("kind", kind), ("session", Value::U64(session))];
                push_instance(&mut pairs, instance);
                pairs.push(("at", secs(at)));
                fields(pairs)
            }
            StoreEvent::WriteBufferStall { session, until, at } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("until", secs(until)),
                ("at", secs(at)),
            ]),
            StoreEvent::ReadRetry {
                session,
                attempt,
                at,
            }
            | StoreEvent::WriteRetry {
                session,
                attempt,
                at,
            } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("attempt", Value::U64(u64::from(attempt))),
                ("at", secs(at)),
            ]),
            StoreEvent::ReadFailed {
                session,
                attempts,
                at,
            }
            | StoreEvent::WriteFailed {
                session,
                attempts,
                at,
            } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("attempts", Value::U64(u64::from(attempts))),
                ("at", secs(at)),
            ]),
            StoreEvent::CorruptionDetected { session, bytes, at } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("bytes", Value::U64(bytes)),
                ("at", secs(at)),
            ]),
            StoreEvent::BlockConfig { block_tokens, at } => fields(vec![
                ("kind", kind),
                ("block_tokens", Value::U64(block_tokens)),
                ("at", secs(at)),
            ]),
            StoreEvent::BlockSaved {
                session,
                new_blocks,
                dedup_blocks,
                bytes_written,
                bytes_saved,
                at,
            } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("new_blocks", Value::U64(new_blocks)),
                ("dedup_blocks", Value::U64(dedup_blocks)),
                ("bytes_written", Value::U64(bytes_written)),
                ("bytes_saved", Value::U64(bytes_saved)),
                ("at", secs(at)),
            ]),
            StoreEvent::BlockDedupHit {
                session,
                matched_blocks,
                bytes,
                at,
            } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("matched_blocks", Value::U64(matched_blocks)),
                ("bytes", Value::U64(bytes)),
                ("at", secs(at)),
            ]),
            StoreEvent::BlockDiverged {
                session,
                at_block,
                released_blocks,
                at,
            } => fields(vec![
                ("kind", kind),
                ("session", Value::U64(session)),
                ("at_block", Value::U64(at_block)),
                ("released_blocks", Value::U64(released_blocks)),
                ("at", secs(at)),
            ]),
            StoreEvent::BlockEvicted {
                blocks,
                bytes,
                tier,
                refs,
                at,
            } => fields(vec![
                ("kind", kind),
                ("blocks", Value::U64(blocks)),
                ("bytes", Value::U64(bytes)),
                ("tier", tier_index(tier)),
                ("refs", Value::U64(refs)),
                ("at", secs(at)),
            ]),
        }
    }
}

/// A sink for [`StoreEvent`]s.
pub trait StoreObserver {
    /// Called after the store commits the observed decision.
    fn on_store_event(&mut self, ev: StoreEvent);
}

/// The default observer: discards everything, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullStoreObserver;

impl StoreObserver for NullStoreObserver {
    fn on_store_event(&mut self, _ev: StoreEvent) {}
}

/// A Vec-collecting observer; the AttentionStore uses one internally as
/// its drainable event buffer when tracing is enabled.
#[derive(Debug, Clone, Default)]
pub struct StoreEventLog {
    events: Vec<StoreEvent>,
}

impl StoreEventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        StoreEventLog::default()
    }

    /// All collected events, in commit order.
    pub fn events(&self) -> &[StoreEvent] {
        &self.events
    }

    /// Takes the collected events, leaving the log empty.
    pub fn drain(&mut self) -> Vec<StoreEvent> {
        std::mem::take(&mut self.events)
    }
}

impl StoreObserver for StoreEventLog {
    fn on_store_event(&mut self, ev: StoreEvent) {
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_collects_and_drains() {
        let mut log = StoreEventLog::new();
        log.on_store_event(StoreEvent::FetchMiss {
            session: 4,
            at: Time::ZERO,
        });
        log.on_store_event(StoreEvent::Saved {
            session: 4,
            bytes: 10,
            tier: TierId(0),
            at: Time::from_millis(5),
        });
        assert_eq!(log.events().len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.events().is_empty());
        assert_eq!(drained[0].session(), Some(4));
        assert_eq!(drained[1].kind(), "saved");
        assert_eq!(drained[1].category(), "cache");
    }

    #[test]
    fn serializes_as_tagged_objects() {
        let ev = StoreEvent::Promoted {
            session: 9,
            bytes: 1_000,
            kind: FetchKind::Prefetch,
            from: TierId(1),
            to: TierId(0),
            queue_pos: Some(2),
            instance: None,
            at: Time::from_secs_f64(1.5),
        };
        let json = serde_json::to_string(&ev).unwrap();
        assert_eq!(
            json,
            "{\"kind\":\"promoted\",\"session\":9,\"bytes\":1000,\
             \"fetch\":\"prefetch\",\"from\":1,\"to\":0,\"queue_pos\":2,\"at\":1.5}"
        );
        let tagged = StoreEvent::Promoted {
            session: 9,
            bytes: 1_000,
            kind: FetchKind::Prefetch,
            from: TierId(1),
            to: TierId(0),
            queue_pos: Some(2),
            instance: Some(3),
            at: Time::from_secs_f64(1.5),
        };
        assert_eq!(
            serde_json::to_string(&tagged).unwrap(),
            "{\"kind\":\"promoted\",\"session\":9,\"bytes\":1000,\
             \"fetch\":\"prefetch\",\"from\":1,\"to\":0,\"queue_pos\":2,\
             \"instance\":3,\"at\":1.5}"
        );
        let gauge = StoreEvent::Occupancy {
            tier: TierId(0),
            used_bytes: 7,
            at: Time::ZERO,
        };
        assert_eq!(
            serde_json::to_string(&gauge).unwrap(),
            "{\"kind\":\"occupancy\",\"tier\":0,\"used_bytes\":7,\"at\":0.0}"
        );
        assert_eq!(gauge.category(), "gauge");
        assert_eq!(gauge.session(), None);
    }

    #[test]
    fn tier_config_maps_indices_to_names() {
        let ev = StoreEvent::TierConfig {
            tier: TierId(1),
            name: "pooled",
            capacity: 64,
            at: Time::ZERO,
        };
        assert_eq!(ev.kind(), "tier_config");
        assert_eq!(ev.category(), "gauge");
        assert_eq!(ev.session(), None);
        assert_eq!(
            serde_json::to_string(&ev).unwrap(),
            "{\"kind\":\"tier_config\",\"tier\":1,\"name\":\"pooled\",\
             \"capacity\":64,\"at\":0.0}"
        );
    }

    #[test]
    fn block_events_serialize_and_categorize() {
        let hit = StoreEvent::BlockDedupHit {
            session: 3,
            matched_blocks: 5,
            bytes: 640,
            at: Time::from_secs_f64(2.5),
        };
        assert_eq!(hit.kind(), "block_dedup_hit");
        assert_eq!(hit.category(), "cache");
        assert_eq!(hit.session(), Some(3));
        assert_eq!(
            serde_json::to_string(&hit).unwrap(),
            "{\"kind\":\"block_dedup_hit\",\"session\":3,\
             \"matched_blocks\":5,\"bytes\":640,\"at\":2.5}"
        );
        let evicted = StoreEvent::BlockEvicted {
            blocks: 2,
            bytes: 320,
            tier: TierId(1),
            refs: 0,
            at: Time::ZERO,
        };
        assert_eq!(evicted.category(), "tiering");
        assert_eq!(evicted.session(), None);
        assert_eq!(
            serde_json::to_string(&evicted).unwrap(),
            "{\"kind\":\"block_evicted\",\"blocks\":2,\"bytes\":320,\
             \"tier\":1,\"refs\":0,\"at\":0.0}"
        );
        let cfg = StoreEvent::BlockConfig {
            block_tokens: 128,
            at: Time::ZERO,
        };
        assert_eq!(cfg.category(), "gauge");
        assert_eq!(cfg.session(), None);
        let div = StoreEvent::BlockDiverged {
            session: 8,
            at_block: 2,
            released_blocks: 3,
            at: Time::ZERO,
        };
        assert_eq!(div.category(), "cache");
        assert_eq!(
            serde_json::to_string(&div).unwrap(),
            "{\"kind\":\"block_diverged\",\"session\":8,\"at_block\":2,\
             \"released_blocks\":3,\"at\":0.0}"
        );
        let saved = StoreEvent::BlockSaved {
            session: 8,
            new_blocks: 1,
            dedup_blocks: 4,
            bytes_written: 100,
            bytes_saved: 400,
            at: Time::ZERO,
        };
        assert_eq!(saved.category(), "cache");
        let ev = StoreEvent::BlockEvicted {
            blocks: 1,
            bytes: 128,
            tier: TierId(1),
            refs: 0,
            at: Time::ZERO,
        };
        assert_eq!(ev.category(), "tiering");
        assert_eq!(ev.session(), None);
    }

    #[test]
    fn timestamps_and_kinds_are_exposed() {
        let ev = StoreEvent::WriteBufferStall {
            session: 1,
            until: Time::from_secs_f64(2.0),
            at: Time::from_secs_f64(1.0),
        };
        assert_eq!(ev.at(), Time::from_secs_f64(1.0));
        assert_eq!(ev.kind(), "write_buffer_stall");
        assert_eq!(ev.category(), "stall");
    }
}
