//! Store trace events: the AttentionStore's record of its decisions.
//!
//! Every placement decision the store makes — where a save landed, which
//! tier a fetch hit, what got promoted, demoted or evicted and at which
//! look-ahead window position — is buffered as a [`StoreEvent`] while
//! tracing is on. Tracing is strictly read-only: events describe state
//! changes *after* they are committed, and buffering them cannot alter
//! the store's behavior (the golden-report fixtures hold with or without
//! tracing enabled).
//!
//! Tiers are identified by their [`TierId`] index into the configured
//! stack; the [`StoreEvent::TierConfig`] records emitted when tracing is
//! enabled map each index to its display name and capacity, so trace
//! consumers can label tracks without hard-coding a hierarchy.
//!
//! The serving engine drains these events through
//! [`AttentionStore::drain_events`](crate::AttentionStore::drain_events)
//! and merges them with its own pipeline events into one causally-ordered
//! trace; a few variants ([`StoreEvent::PrefetchCompleted`],
//! [`StoreEvent::WriteBufferStall`]) are emitted by the engine itself
//! because only the transfer stage knows the link timings involved.

use sim::events::{EventField, FieldType};
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

/// Serialized as its lowercase label (`"demand"`, `"prefetch"`).
impl EventField for FetchKind {
    const TYPE: FieldType = FieldType::String;
    fn write_json(&self, out: &mut String) {
        let label = match self {
            FetchKind::Demand => "demand",
            FetchKind::Prefetch => "prefetch",
        };
        label.write_json(out);
    }
}

/// Tier references encode as bare [`TierId`] indices; `tier_config`
/// records carry the index→name mapping.
impl EventField for TierId {
    const TYPE: FieldType = FieldType::Integer;
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

sim::event_table! {
    /// One observable decision of the AttentionStore (plus the two
    /// engine-emitted transfer-timing variants; see the module docs).
    ///
    /// Categories: `cache` (save/fetch lifecycle), `tiering`
    /// (promote/demote/evict movements), `gauge` (occupancy samples and
    /// tier configuration), `stall` (write-buffer backpressure) or
    /// `fault` (injected-failure retries, exhaustions and corruption
    /// detections).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum StoreEvent {
        /// Tier `tier` of the configured stack is named `name` and holds
        /// `capacity` bytes. Emitted once per tier when tracing is enabled,
        /// before any other event, so trace consumers can resolve
        /// [`TierId`] indices to labels.
        TierConfig: "tier_config" in gauge {
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
        Saved: "saved" in cache {
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
        SaveRejected: "save_rejected" in cache {
            /// External session id.
            session: u64,
            /// Payload size that did not fit.
            bytes: u64,
            /// Virtual time of the attempt.
            at: Time,
        },
        /// A demand lookup found the session's KV in `tier`.
        FetchHit: "fetch_hit" in cache {
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
        FetchMiss: "fetch_miss" in cache {
            /// External session id.
            session: u64,
            /// Virtual lookup time.
            at: Time,
        },
        /// A session's KV was promoted up to the staging tier. The movement
        /// is physically hop-by-adjacent-tier (`from` → `from-1` → ... →
        /// `to`); one event covers the whole journey and the per-hop
        /// transfers carry the link charges.
        Promoted: "promoted" in tiering {
            /// External session id.
            session: u64,
            /// Payload size moved.
            bytes: u64,
            /// Demand fetch or look-ahead prefetch.
            kind as "fetch": FetchKind,
            /// Tier the KV was resident in before the journey.
            from: TierId,
            /// Destination tier (tier 0 today).
            to: TierId,
            /// The session's scheduler-queue position when prefetched.
            queue_pos: Option<usize> | null,
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
        Demoted: "demoted" in tiering {
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
        Evicted: "evicted" in tiering {
            /// External session id.
            session: u64,
            /// Payload size dropped.
            bytes: u64,
            /// The tier the entry was evicted from (the stack's bottom tier).
            tier: TierId,
            /// The victim's position in the scheduler queue, if it was queued
            /// at all (scheduler-aware eviction prefers unqueued victims, so
            /// `Some` here means every candidate was inside the window).
            window_pos: Option<usize> | null,
            /// The serving instance whose queue holds the victim, if queued on
            /// an owner-attributed view.
            instance: Option<u32>,
            /// Virtual commit time.
            at: Time,
        },
        /// An entry was dropped outright from `tier` because the tier below
        /// could not make room for its demotion.
        Dropped: "dropped" in tiering {
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
        Expired: "expired" in cache {
            /// External session id.
            session: u64,
            /// Virtual sweep time.
            at: Time,
        },
        /// One tier's occupancy after a batch of store operations (a gauge,
        /// emitted once per tier per drained interaction rather than per
        /// block move).
        Occupancy: "occupancy" in gauge {
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
        PrefetchCompleted: "prefetch_completed" in tiering {
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
        WriteBufferStall: "write_buffer_stall" in stall {
            /// External session id of the stalled job.
            session: u64,
            /// Earliest time the buffer will have drained.
            until: Time,
            /// Virtual time of the stalled attempt.
            at: Time,
        },
        /// A slow-tier read attempt errored (fault injection) and will be
        /// retried after exponential backoff.
        ReadRetry: "read_retry" in fault {
            /// External session id.
            session: u64,
            /// 0-based retry number about to run.
            attempt: u32,
            /// Virtual time of the failed attempt.
            at: Time,
        },
        /// A slow-tier read exhausted its retry budget; the session's cached
        /// KV is invalidated and the turn degrades to RE-style re-prefill.
        ReadFailed: "read_failed" in fault {
            /// External session id.
            session: u64,
            /// Total attempts made (initial + retries).
            attempts: u32,
            /// Virtual time of the final failure.
            at: Time,
        },
        /// A save-path write attempt errored (fault injection) and will be
        /// retried after exponential backoff.
        WriteRetry: "write_retry" in fault {
            /// External session id.
            session: u64,
            /// 0-based retry number about to run.
            attempt: u32,
            /// Virtual time of the failed attempt.
            at: Time,
        },
        /// A save exhausted its retry budget; the session's KV is not stored
        /// (its next turn re-prefills from scratch).
        WriteFailed: "write_failed" in fault {
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
        CorruptionDetected: "corruption_detected" in fault {
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
        BlockConfig: "block_config" in gauge {
            /// Dedup chunk granularity in tokens.
            block_tokens: u64,
            /// Virtual time tracing was enabled.
            at: Time,
        },
        /// A content-addressed save committed: how much of the chain was
        /// written fresh vs shared with already-stored blocks.
        BlockSaved: "block_saved" in cache {
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
        BlockDedupHit: "block_dedup_hit" in cache {
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
        BlockDiverged: "block_diverged" in cache {
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
        BlockEvicted: "block_evicted" in tiering {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The event as a standalone JSON object.
    fn json(ev: &StoreEvent) -> String {
        let mut out = String::from("{");
        ev.write_json_members(&mut out);
        out.push('}');
        out
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
        assert_eq!(
            json(&ev),
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
            json(&tagged),
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
            json(&gauge),
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
            json(&ev),
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
            json(&hit),
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
            json(&evicted),
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
            json(&div),
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
