//! The read/write paths: save, demand fetch (with pinning) and the
//! scheduler-aware look-ahead prefetcher (§3.3.1).

use sim::Time;

use crate::events::{FetchKind, StoreEvent};
use crate::{Entry, QueueView, SessionId, TierId};

use super::{AttentionStore, Lookup, Transfer};

impl AttentionStore {
    /// Pushes the chain of adjacent-tier hops that stage `sid`'s bytes
    /// from `from` up to tier 0: `(from → from-1), ..., (1 → 0)`.
    pub(super) fn push_promotion_hops(
        out: &mut Vec<Transfer>,
        sid: SessionId,
        bytes: u64,
        from: TierId,
    ) {
        for hop in (1..=from.0).rev() {
            out.push(Transfer {
                session: sid,
                bytes,
                from: TierId(hop),
                to: TierId(hop - 1),
            });
        }
    }

    /// Saves (or updates) `sid`'s KV cache: `total_bytes` for
    /// `total_tokens`, landing in tier 0. Returns the demotion transfers
    /// made to fit it and whether the save succeeded.
    ///
    /// Updating an existing entry reallocates it at the new size; an
    /// entry previously demoted below tier 0 is re-homed in tier 0 (the
    /// fresh copy just came from HBM, so no slow-tier read is charged).
    pub fn save(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> (Vec<Transfer>, bool) {
        sim::scope!("store.save");
        if self.cfg.keying == crate::KeyingMode::ContentAddressed {
            return self.ca_save(sid, total_bytes, total_tokens, now, queue);
        }
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        // Free the stale copy first; the engine holds the bytes in HBM.
        self.drop_entry(sid);
        // Prefer tier 0; when it cannot make room (e.g. everything
        // resident is pinned by the running batch), spill down the stack
        // to the first tier with space — the write stream targets
        // whichever tier can take it.
        let placement =
            if self.make_room_in(now, TierId(0), total_bytes, queue, None, &mut transfers) {
                TierId(0)
            } else {
                let Some(landing) = self.spill_tier(now, total_bytes, queue, &mut transfers) else {
                    self.stats.save_rejected += 1;
                    self.emit(StoreEvent::SaveRejected {
                        session: sid.0,
                        bytes: total_bytes,
                        at: now,
                    });
                    self.emit_occupancy(mark, now);
                    return (transfers, false);
                };
                self.stats.spills_to_disk += 1;
                // The write stream lands hop by hop on the slow tier: report
                // the chain so the engine charges each boundary's write link.
                for hop in 0..landing.0 {
                    transfers.push(Transfer {
                        session: sid,
                        bytes: total_bytes,
                        from: TierId(hop),
                        to: TierId(hop + 1),
                    });
                }
                landing
            };
        let blocks = self.pools[placement.0]
            .alloc(total_bytes)
            .expect("room made above");
        let seq = self.next_seq;
        self.next_seq += 1;
        let checksum = self.stamp_checksum(sid, total_bytes, total_tokens);
        self.entry_bytes += total_bytes;
        self.entries.insert(
            sid,
            Entry {
                bytes: total_bytes,
                tokens: total_tokens,
                placement,
                blocks,
                last_access: now,
                insert_seq: seq,
                pinned: false,
                checksum,
            },
        );
        self.stats.saves += 1;
        self.stats.save_bytes += total_bytes;
        self.emit(StoreEvent::Saved {
            session: sid.0,
            bytes: total_bytes,
            tier: placement,
            at: now,
        });
        self.emit_occupancy(mark, now);
        (transfers, true)
    }

    /// Finds the first tier below 0 that can hold `bytes`, evicting or
    /// pushing entries down as needed. Returns `None` when no tier fits.
    fn spill_tier(
        &mut self,
        now: Time,
        bytes: u64,
        queue: &QueueView,
        out: &mut Vec<Transfer>,
    ) -> Option<TierId> {
        for t in 1..self.pools.len() {
            let tier = TierId(t);
            let pool = &self.pools[t];
            if pool.blocks_for(bytes) > pool.n_blocks() {
                continue;
            }
            let mut fitted = true;
            while !self.pools[t].fits(bytes) {
                if !self.push_down_from(now, tier, queue, None, out) {
                    fitted = false;
                    break;
                }
            }
            if fitted {
                return Some(tier);
            }
        }
        None
    }

    /// Brings `sid`'s KV into tier 0 for use and pins it.
    ///
    /// Returns where the KV was found plus any transfers (the demand
    /// promotion hops and the demotions that made room). Returns
    /// `(Lookup::Miss, vec![])` when the session has no cached KV.
    pub fn load_for_use(
        &mut self,
        sid: SessionId,
        now: Time,
        queue: &QueueView,
    ) -> (Lookup, Vec<Transfer>) {
        sim::scope!("store.fetch");
        if self.cfg.keying == crate::KeyingMode::ContentAddressed {
            return self.ca_load_for_use(sid, now, queue);
        }
        let found = self.lookup(sid);
        let mark = self.trace_mark();
        match found {
            Lookup::Miss => self.emit(StoreEvent::FetchMiss {
                session: sid.0,
                at: now,
            }),
            Lookup::Hit(tier) => {
                let ev = StoreEvent::FetchHit {
                    session: sid.0,
                    tier,
                    bytes: self.entries[&sid].bytes,
                    at: now,
                };
                self.emit(ev);
            }
        }
        let mut transfers = Vec::new();
        match found {
            Lookup::Miss => {}
            Lookup::Hit(tier) if tier.is_fast() => {
                let e = self.entries.get_mut(&sid).expect("looked up");
                e.last_access = now;
                e.pinned = true;
            }
            Lookup::Hit(from) => {
                let bytes = self.entries[&sid].bytes;
                if self.make_room_in(now, TierId(0), bytes, queue, Some(sid), &mut transfers) {
                    let new_blocks = self.pools[0].alloc(bytes).expect("room made");
                    let e = self.entries.get_mut(&sid).expect("looked up");
                    let old = std::mem::replace(&mut e.blocks, new_blocks);
                    e.placement = TierId(0);
                    e.last_access = now;
                    e.pinned = true;
                    self.pools[from.0]
                        .free(&old)
                        .expect("blocks were in the source tier");
                    self.stats.promotions += 1;
                    self.stats.promotion_bytes += bytes;
                    // One event covers the whole journey; the per-hop
                    // transfers below carry the link charges.
                    self.emit(StoreEvent::Promoted {
                        session: sid.0,
                        bytes,
                        kind: FetchKind::Demand,
                        from,
                        to: TierId(0),
                        queue_pos: queue.position(sid),
                        instance: queue.owner(sid),
                        at: now,
                    });
                    Self::push_promotion_hops(&mut transfers, sid, bytes, from);
                } else {
                    // Tier 0 cannot stage it (pathological sizing): serve
                    // straight from the slow tier; pin in place.
                    let e = self.entries.get_mut(&sid).expect("looked up");
                    e.last_access = now;
                    e.pinned = true;
                }
            }
        }
        self.emit_occupancy(mark, now);
        (found, transfers)
    }

    /// Unpins `sid` after the engine finished using (and re-saving) it.
    ///
    /// Idempotent and panic-free regardless of caller ordering: unpinning
    /// a session that was never pinned, was already unpinned, or whose
    /// entry has since been evicted/invalidated (e.g. crash recovery
    /// releasing pins for jobs that never reached their save) is a no-op.
    pub fn unpin(&mut self, sid: SessionId) {
        if self.cfg.keying == crate::KeyingMode::ContentAddressed {
            return self.ca_unpin(sid);
        }
        if let Some(e) = self.entries.get_mut(&sid) {
            e.pinned = false;
        }
    }

    /// Longest-prefix match of `sid`'s next context against the stored
    /// KV, pinning and staging what matched (see
    /// [`crate::PrefixMatch`]). Under per-session keying this reduces to
    /// [`load_for_use`](AttentionStore::load_for_use) — the only
    /// matchable prefix is the session's own history.
    pub fn load_prefix(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> crate::PrefixMatch {
        sim::scope!("store.prefix_match");
        if self.cfg.keying == crate::KeyingMode::ContentAddressed {
            return self.ca_load_prefix(sid, ctx_tokens, now, queue);
        }
        let matched = self
            .entries
            .get(&sid)
            .map_or(0, |e| e.tokens.min(ctx_tokens));
        let (lookup, transfers) = self.load_for_use(sid, now, queue);
        crate::PrefixMatch {
            matched_tokens: if lookup == Lookup::Miss { 0 } else { matched },
            lookup,
            transfers,
        }
    }

    /// Runs the look-ahead prefetcher (§3.3.1): promotes slow-tier KV of
    /// queued sessions within `L_pw` into free tier-0 space, then
    /// restores the tier-0 reserve by demoting cold entries.
    ///
    /// No-op for history-only policies (LRU/FIFO cannot see the queue).
    pub fn prefetch(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer> {
        sim::scope!("store.prefetch");
        if self.cfg.keying == crate::KeyingMode::ContentAddressed {
            return self.ca_prefetch(now, queue);
        }
        if !self.policy.wants_prefetch() {
            return Vec::new();
        }
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        let window = self.prefetch_window();
        let targets: Vec<(usize, SessionId)> = queue
            .head(window)
            .enumerate()
            .filter(|&(_, sid)| {
                self.entries
                    .get(&sid)
                    .is_some_and(|e| !e.placement.is_fast() && !e.pinned)
            })
            .collect();
        'targets: for (pos, sid) in targets {
            // Re-validate: an earlier iteration (or its evictions) may
            // have promoted, demoted or dropped this session already —
            // e.g. when the same session appears twice in the queue.
            let from = match self.entries.get(&sid) {
                Some(e) if !e.placement.is_fast() && !e.pinned => e.placement,
                _ => continue,
            };
            let bytes = self.entries[&sid].bytes;
            // Fetching into the buffer may demote cold entries (Fig 9:
            // fetching Job 3 pushes Job 4 down) — but only entries whose
            // next use is strictly further in the future than this
            // target's, otherwise promote/demote ping-pong would saturate
            // the slow links.
            while !self.pools[0].fits(bytes) {
                let Some(victim) = self.choose_victim_in(TierId(0), queue, Some(sid)) else {
                    break 'targets;
                };
                if queue.position(victim).is_some_and(|vp| vp <= pos) {
                    break 'targets;
                }
                self.demote_session(now, victim, queue, Some(sid), &mut transfers);
            }
            let new_blocks = self.pools[0].alloc(bytes).expect("fit ensured above");
            let e = self.entries.get_mut(&sid).expect("target exists");
            let old = std::mem::replace(&mut e.blocks, new_blocks);
            e.placement = TierId(0);
            e.last_access = now;
            self.pools[from.0]
                .free(&old)
                .expect("blocks were in the source tier");
            self.stats.promotions += 1;
            self.stats.promotion_bytes += bytes;
            self.emit(StoreEvent::Promoted {
                session: sid.0,
                bytes,
                kind: FetchKind::Prefetch,
                from,
                to: TierId(0),
                queue_pos: Some(pos),
                instance: queue.owner(sid),
                at: now,
            });
            Self::push_promotion_hops(&mut transfers, sid, bytes, from);
        }
        transfers.extend(self.maintain_reserve(now, queue));
        self.emit_occupancy(mark, now);
        transfers
    }
}
