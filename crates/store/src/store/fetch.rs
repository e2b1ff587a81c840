//! The read/write paths: save, the prefix consult (with pinning) and the
//! scheduler-aware look-ahead prefetcher (§3.3.1).

use sim::Time;

use crate::events::{FetchKind, StoreEvent};
use crate::{QueueView, SessionId, TierId};

use super::ledger::{ChunkNode, SessionRef};
use super::placement::Pass;
use super::{AttentionStore, Lookup, PrefixMatch, Transfer};

impl AttentionStore {
    /// Pushes the chain of adjacent-tier hops that stage `sid`'s bytes
    /// from `from` up to tier 0: `(from → from-1), ..., (1 → 0)`.
    fn push_promotion_hops(out: &mut Vec<Transfer>, sid: SessionId, bytes: u64, from: TierId) {
        for hop in (1..=from.0).rev() {
            out.push(Transfer {
                session: sid,
                bytes,
                from: TierId(hop),
                to: TierId(hop - 1),
            });
        }
    }

    /// Splits `total_bytes` across the chain proportionally to tokens,
    /// rounding so the per-chunk sizes sum exactly to the total.
    pub(super) fn chunk_bytes(total_bytes: u64, total_tokens: u64, start: u64, n: u64) -> u64 {
        let at = |tok: u64| -> u64 {
            ((total_bytes as u128 * tok as u128) / total_tokens.max(1) as u128) as u64
        };
        at(start + n) - at(start)
    }

    /// Moves node `slot` from `from` into tier 0 (room already made),
    /// stamping it accessed at `now`.
    fn stage(&mut self, slot: usize, from: TierId, now: Time) {
        let bytes = self.ledger.node(slot).bytes;
        let new_blocks = self.pools[0].alloc(bytes).expect("room made above");
        let old_blocks = {
            let mut node = self.ledger.node_mut(slot);
            node.placement = TierId(0);
            node.last_access = now;
            std::mem::replace(&mut node.blocks, new_blocks)
        };
        self.pools[from.0]
            .free(&old_blocks)
            .expect("blocks were in the source tier");
        self.stats.promotions += 1;
        self.stats.promotion_bytes += bytes;
    }

    /// Saves (or updates) `sid`'s KV cache: `total_bytes` for
    /// `total_tokens`, landing in tier 0. Returns the demotion transfers
    /// made to fit it and whether the save succeeded.
    ///
    /// The stale chain leaves first — the engine holds the fresh bytes in
    /// HBM — except for the prefix the new chain shares with it, which
    /// stays where it is. Chunks the trie already holds are referenced,
    /// not rewritten; fresh chunks land in tier 0, or spill down the
    /// stack to the first tier that can make room.
    pub fn save(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> (Vec<Transfer>, bool) {
        sim::scope!("store.save");
        // A save supersedes the consult that admitted the turn: release
        // its pins, or the session would block prefetch and demotion for
        // its whole think time.
        self.unpin(sid);
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        let key = self.key_of(sid);
        let chunk = self.chunk_tokens();
        let desired = key.chain(total_tokens, chunk);

        // Diff against the previous chain: keep the common prefix of full
        // chunks, release the rest. Replacing only a partial tail chunk
        // is growth; anything more is copy-on-divergence.
        let old: Vec<usize> = self
            .ledger
            .remove_session(sid)
            .map(|r| r.chain)
            .unwrap_or_default();
        let common = old
            .iter()
            .zip(desired.iter())
            .take_while(|(&slot, ck)| {
                ck.tokens == chunk && self.ledger.node(slot).chain_hash == ck.chain_hash
            })
            .count();
        let released = old.len() - common;
        if released > 0 {
            let old_tail_partial = self.ledger.node(old[old.len() - 1]).tokens < chunk;
            self.release(sid, &old[common..]);
            let grew = released == 1 && common == old.len() - 1 && old_tail_partial;
            if !grew {
                self.ledger.dedup.divergences += 1;
                self.emit_dedup(StoreEvent::BlockDiverged {
                    session: sid.0,
                    at_block: common as u64,
                    released_blocks: released as u64,
                    at: now,
                });
            }
        }

        let mut pass = Pass::new(queue);
        // The chain in flight counts `sid` among its nodes' users before
        // it is stored, so room-making may demote them but never expel
        // them.
        let mut chain: Vec<usize> = old[..common].to_vec();
        let mut covered_tokens: u64 = desired[..common].iter().map(|c| c.tokens).sum();
        // Byte totals track the *stored* node sizes: a dedup-hit node was
        // sized by whichever session wrote it first, and proportional
        // rounding differs across totals.
        let mut covered_bytes: u64 = chain.iter().map(|&s| self.ledger.node(s).bytes).sum();
        let mut new_blocks = 0u64;
        let mut dedup_blocks = 0u64;
        let mut bytes_written = 0u64;
        let mut bytes_saved = 0u64;
        let mut spilled = false;
        let mut fitted = true;
        for ck in &desired[common..] {
            let bytes = Self::chunk_bytes(total_bytes, total_tokens, covered_tokens, ck.tokens);
            let mut hit = self.ledger.by_hash.get(&ck.chain_hash).copied();
            if let Some(stale) = hit.filter(|&s| {
                !key.is_shared(covered_tokens, ck.tokens) && self.ledger.node(s).is_dead()
            }) {
                // Only this session hashes a private chunk, so a dead node
                // under its hash is its own stale copy: that leaves first,
                // and the fresh bytes from HBM are written anew.
                self.reclaim(now, stale);
                hit = None;
            }
            if let Some(slot) = hit {
                // Cross-session (or re-grown) dedup hit: share the node.
                let bytes = {
                    let mut n = self.ledger.node_mut(slot);
                    n.add_user(sid);
                    n.last_access = now;
                    n.owner_hint = sid;
                    n.bytes
                };
                dedup_blocks += 1;
                bytes_saved += bytes;
                covered_bytes += bytes;
                chain.push(slot);
            } else {
                // Fresh chunk: prefer tier 0, spill down the stack (the
                // write stream lands hop by hop).
                let placement = (0..self.pools.len())
                    .map(TierId)
                    .find(|&t| self.make_room_in(now, t, bytes, &mut pass, &mut transfers));
                let Some(placement) = placement else {
                    fitted = false;
                    break;
                };
                if !placement.is_fast() {
                    spilled = true;
                    for hop in 0..placement.0 {
                        transfers.push(Transfer {
                            session: sid,
                            bytes,
                            from: TierId(hop),
                            to: TierId(hop + 1),
                        });
                    }
                }
                let blocks = self.pools[placement.0]
                    .alloc(bytes)
                    .expect("room made above");
                let seq = self.ledger.next_seq;
                self.ledger.next_seq += 1;
                let slot = self.ledger.insert_node(ChunkNode {
                    chain_hash: ck.chain_hash,
                    tokens: ck.tokens,
                    bytes,
                    placement,
                    blocks,
                    users: vec![sid],
                    pins: 0,
                    last_access: now,
                    insert_seq: seq,
                    owner_hint: sid,
                });
                new_blocks += 1;
                bytes_written += bytes;
                covered_bytes += bytes;
                chain.push(slot);
            }
            covered_tokens += ck.tokens;
        }

        let d = &mut self.ledger.dedup;
        d.new_blocks += new_blocks;
        d.dedup_blocks += dedup_blocks;
        d.bytes_written += bytes_written;
        d.bytes_saved += bytes_saved;
        if spilled {
            self.stats.spills_to_disk += 1;
        }
        if !fitted {
            self.stats.save_rejected += 1;
            self.emit(StoreEvent::SaveRejected {
                session: sid.0,
                bytes: total_bytes.saturating_sub(covered_bytes),
                at: now,
            });
        }
        let Some(deepest) = self.deepest(&chain) else {
            // Nothing fit at all: no chain survives.
            self.emit_occupancy(mark, now);
            return (transfers, false);
        };
        let checksum = self.stamp_checksum(sid, covered_bytes, covered_tokens);
        self.ledger.insert_session(
            sid,
            SessionRef {
                chain,
                tokens: covered_tokens,
                bytes: covered_bytes,
                key,
                last_access: now,
                checksum,
            },
        );
        self.stats.saves += 1;
        self.stats.save_bytes += covered_bytes;
        self.emit(StoreEvent::Saved {
            session: sid.0,
            bytes: covered_bytes,
            tier: deepest,
            at: now,
        });
        self.emit_dedup(StoreEvent::BlockSaved {
            session: sid.0,
            new_blocks,
            dedup_blocks,
            bytes_written,
            bytes_saved,
            at: now,
        });
        self.emit_occupancy(mark, now);
        (transfers, fitted)
    }

    /// Longest-prefix match of `sid`'s next context (`ctx_tokens` =
    /// history + new user tokens) against the stored KV, pinning and
    /// staging what matched to tier 0; the engine prefills only the
    /// unmatched tail. Matched chunks tier 0 genuinely cannot hold are
    /// served in place.
    ///
    /// The trie walk over the context's chunk grid matches across *all*
    /// sessions; a session resuming its own history can always reuse its
    /// stored chain, even where its partial tail chunk does not align
    /// with the grid (under per-session keying that is the only match).
    pub fn load_prefix(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> PrefixMatch {
        sim::scope!("store.fetch");
        // A consult replaces any pins left by a previous one.
        self.unpin(sid);
        let mark = self.trace_mark();
        let cross = {
            sim::scope!("store.trie_probe");
            self.trie_walk(&self.key_of(sid).chain(ctx_tokens, self.chunk_tokens()))
        };
        let cross_tokens: u64 = cross.iter().map(|&s| self.ledger.node(s).tokens).sum();
        let own_tokens = self.cached_tokens(sid).unwrap_or(0).min(ctx_tokens);
        let (matched_tokens, matched) = if own_tokens > cross_tokens {
            let r = self
                .ledger
                .session(sid)
                .expect("own tokens came from a stored chain");
            (own_tokens, r.chain.clone())
        } else {
            (cross_tokens, cross)
        };

        let Some(deepest) = self.deepest(&matched) else {
            self.emit(StoreEvent::FetchMiss {
                session: sid.0,
                at: now,
            });
            self.emit_occupancy(mark, now);
            return PrefixMatch::miss();
        };
        let matched_bytes: u64 = matched.iter().map(|&s| self.ledger.node(s).bytes).sum();
        self.emit(StoreEvent::FetchHit {
            session: sid.0,
            tier: deepest,
            bytes: matched_bytes,
            at: now,
        });
        self.emit_dedup(StoreEvent::BlockDedupHit {
            session: sid.0,
            matched_blocks: matched.len() as u64,
            bytes: matched_bytes,
            at: now,
        });
        self.ledger.dedup.lookup_hits += 1;
        self.ledger.dedup.matched_blocks += matched.len() as u64;

        // Pin first so room-making below cannot move what we matched (nor,
        // the session being mid-use, expel its stored chain).
        for &slot in &matched {
            let mut n = self.ledger.node_mut(slot);
            n.pins += 1;
            n.last_access = now;
            n.owner_hint = sid;
        }
        self.ledger.pinned.insert(sid, matched.clone());
        self.ledger.touch_session(sid, now);

        let mut transfers = Vec::new();
        let mut pass = Pass::new(queue);
        let mut promoted_bytes = 0u64;
        let mut promoted_from = TierId(0);
        for &slot in &matched {
            let (bytes, from) = {
                let n = self.ledger.node(slot);
                (n.bytes, n.placement)
            };
            if from.is_fast()
                || !self.make_room_in(now, TierId(0), bytes, &mut pass, &mut transfers)
            {
                continue;
            }
            self.stage(slot, from, now);
            promoted_bytes += bytes;
            promoted_from = promoted_from.max(from);
            Self::push_promotion_hops(&mut transfers, sid, bytes, from);
        }
        if promoted_bytes > 0 {
            // One event covers the whole journey; the per-hop transfers
            // carry the link charges.
            self.emit(StoreEvent::Promoted {
                session: sid.0,
                bytes: promoted_bytes,
                kind: FetchKind::Demand,
                from: promoted_from,
                to: TierId(0),
                queue_pos: queue.position(sid),
                instance: queue.owner(sid),
                at: now,
            });
        }
        self.emit_occupancy(mark, now);
        PrefixMatch {
            matched_tokens,
            lookup: Lookup::Hit(deepest),
            transfers,
        }
    }

    /// Releases the pins of `sid`'s last consult after the engine
    /// finished using (and re-saving) its KV.
    ///
    /// Idempotent and panic-free regardless of caller ordering: unpinning
    /// a session that was never pinned, was already unpinned, or whose
    /// chain has since been evicted/invalidated (e.g. crash recovery
    /// releasing pins for jobs that never reached their save) is a no-op.
    pub fn unpin(&mut self, sid: SessionId) {
        if let Some(slots) = self.ledger.pinned.remove(&sid) {
            for slot in slots {
                let mut n = self.ledger.node_mut(slot);
                n.pins = n.pins.saturating_sub(1);
            }
        }
    }

    /// Runs the look-ahead prefetcher (§3.3.1): promotes slow-tier chunks
    /// of queued sessions within `L_pw` into tier 0, then restores the
    /// tier-0 reserve.
    ///
    /// Staging a target may demote colder nodes (Fig 9: fetching Job 3
    /// pushes Job 4 down), never the target's own chain. The whole pass
    /// stops when the victim's next use is at or before the target's
    /// queue position — demoting it would only ping-pong it back — or
    /// when tier 0 has nothing movable. A first-turn target (no chain
    /// yet) stages the prefix of its registered shared span that other
    /// sessions stored, into free space only: those chunks are shared,
    /// so forcing demotions on its behalf would churn the chains their
    /// other readers are about to resume.
    ///
    /// No-op for history-only policies (LRU/FIFO cannot see the queue).
    pub fn prefetch(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer> {
        sim::scope!("store.prefetch");
        if !self.cfg.policy.is_scheduler_aware() {
            return Vec::new();
        }
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        let window = self.prefetch_window();
        let mut pass = Pass::new(queue);
        let targets: Vec<(usize, SessionId)> = queue
            .head(window)
            .enumerate()
            .filter(|&(_, sid)| {
                !self.is_pinned(sid)
                    && match self.ledger.session(sid) {
                        Some(r) => r
                            .chain
                            .iter()
                            .any(|&s| !self.ledger.node(s).placement.is_fast()),
                        None => self
                            .ledger
                            .keys
                            .get(&sid)
                            .is_some_and(|k| k.shared_tokens > 0),
                    }
            })
            .collect();
        'targets: for (pos, sid) in targets {
            let (own_chain, chain) = match self.ledger.session(sid) {
                Some(r) => (true, r.chain.clone()),
                None => {
                    let Some(key) = self.ledger.keys.get(&sid).copied() else {
                        continue;
                    };
                    let grid = key.chain(key.shared_tokens, self.chunk_tokens());
                    (false, self.trie_walk(&grid))
                }
            };
            let mut promoted_bytes = 0u64;
            let mut promoted_from = TierId(0);
            // When the pass stops, it stops only after this target's
            // `promoted` event is emitted: chunks already staged pushed
            // their fast-arriving transfers, and an unheralded
            // completion would leave the trace unpaired.
            let mut stalled = false;
            for &slot in &chain {
                let n = self.ledger.node(slot);
                let (bytes, from) = (n.bytes, n.placement);
                if from.is_fast() || n.pins > 0 {
                    continue;
                }
                if !own_chain && !self.pools[0].fits(bytes) {
                    break;
                }
                while !self.pools[0].fits(bytes) {
                    if self.reclaim_dead_in(now, TierId(0)) {
                        continue;
                    }
                    let freed = match self.victim(TierId(0), &mut pass, &chain) {
                        Some(v) if v.next_use.is_none_or(|p| p > pos) => {
                            self.demote(now, v.slot, &chain, &mut pass, &mut transfers)
                        }
                        _ => false,
                    };
                    if !freed {
                        stalled = true;
                        break;
                    }
                }
                if stalled {
                    break;
                }
                self.stage(slot, from, now);
                promoted_bytes += bytes;
                promoted_from = promoted_from.max(from);
                Self::push_promotion_hops(&mut transfers, sid, bytes, from);
            }
            if promoted_bytes > 0 {
                self.ledger.touch_session(sid, now);
                self.emit(StoreEvent::Promoted {
                    session: sid.0,
                    bytes: promoted_bytes,
                    kind: FetchKind::Prefetch,
                    from: promoted_from,
                    to: TierId(0),
                    queue_pos: Some(pos),
                    instance: queue.owner(sid),
                    at: now,
                });
            }
            if stalled {
                break 'targets;
            }
        }
        transfers.extend(self.maintain_reserve(now, queue));
        self.emit_occupancy(mark, now);
        transfers
    }
}
