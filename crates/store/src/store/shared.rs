//! The content-addressed block ledger: storage, lookup and eviction for
//! [`KeyingMode::ContentAddressed`].
//!
//! Instead of one private [`Entry`] per session, the ledger stores
//! *chunk nodes* — `block_tokens`-sized spans of KV addressed by their
//! prefix chain hash — shared by every session whose token stream
//! produces the same hash. A session is reduced to an ordered list of
//! node references (its chain). The `chain hash → node` map is the
//! prefix trie: longest-prefix match walks successive chain hashes until
//! the first miss, so one lookup per block and no explicit tree.
//!
//! Lifecycle rules:
//! - **refs** count saved chains referencing a node. Releasing a
//!   reference never frees the node immediately — an unreferenced node
//!   stays resident (still matchable) until capacity pressure reclaims
//!   it, which is the refcounted-eviction path.
//! - **pins** count in-flight uses (a consult pins the matched chain
//!   until the engine unpins after the turn). A pinned node is exempt
//!   from demotion and eviction at every tier, like pinned entries in
//!   per-session mode.
//! - A node is *evictable out of the system* only when `refs == 0`;
//!   referenced nodes demote hop by hop instead. When the bottom tier
//!   holds only referenced blocks, the ledger falls back to releasing
//!   the least-recently-used unpinned session's whole chain (the moral
//!   equivalent of per-session eviction, reported with the same
//!   `evicted` event).
//!
//! Victims come from the ledger's per-tier LRU index ([`ledger`]), walked
//! in order; the `naive_*` scans kept under `#[cfg(test)]` are the
//! reference the index is checked against.

mod ledger;

use std::collections::{HashMap, HashSet};

use sim::Time;

use crate::chain::{ContentKey, DedupStats};
use crate::events::{FetchKind, StoreEvent};
use crate::{QueueView, SessionId, TierId};

use super::{AttentionStore, Lookup, Transfer};

pub(super) use ledger::BlockLedger;
use ledger::{ChunkNode, SessionRef};

/// Result of a content-addressed prefix consult.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixMatch {
    /// Tokens of the requested context covered by stored blocks (the
    /// engine prefills only the unmatched tail).
    pub matched_tokens: u64,
    /// Where the deepest matched block was found (`Miss` when nothing
    /// matched).
    pub lookup: Lookup,
    /// Adjacent-tier hops to charge (promotions of matched blocks plus
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

impl AttentionStore {
    /// Registers `sid`'s content key (from the workload's declared shared
    /// prefix) so its chunks hash into the shared namespace. Must happen
    /// before the session's first save; later calls are ignored once a
    /// chain exists (the key travels with the chain from then on).
    pub fn register_content(&mut self, sid: SessionId, key: ContentKey) {
        if self.shared.session(sid).is_none() {
            self.shared.keys.insert(sid, key);
        }
    }

    /// Cumulative dedup statistics (all zero in per-session mode).
    pub fn dedup_stats(&self) -> DedupStats {
        self.shared.dedup
    }

    fn ca_key(&self, sid: SessionId) -> ContentKey {
        if let Some(r) = self.shared.session(sid) {
            return r.key;
        }
        self.shared
            .keys
            .get(&sid)
            .copied()
            .unwrap_or_else(|| ContentKey::private(sid.0))
    }

    /// Splits `total_bytes` across the chain proportionally to tokens,
    /// rounding so the per-chunk sizes sum exactly to the total.
    fn chunk_bytes(total_bytes: u64, total_tokens: u64, start: u64, n: u64) -> u64 {
        let at = |tok: u64| -> u64 {
            ((total_bytes as u128 * tok as u128) / total_tokens.max(1) as u128) as u64
        };
        at(start + n) - at(start)
    }

    // ---- lookup / accessors -------------------------------------------

    pub(super) fn ca_lookup(&self, sid: SessionId) -> Lookup {
        match self.shared.session(sid) {
            Some(r) if !r.chain.is_empty() => {
                let deepest = r
                    .chain
                    .iter()
                    .map(|&s| self.shared.node(s).placement)
                    .max()
                    .expect("chain non-empty");
                Lookup::Hit(deepest)
            }
            _ => Lookup::Miss,
        }
    }

    pub(super) fn ca_tokens(&self, sid: SessionId) -> Option<u64> {
        self.shared.session(sid).map(|r| r.tokens)
    }

    pub(super) fn ca_len(&self) -> usize {
        self.shared.sessions().len()
    }

    /// `S_kv` under block keying: block size × observed chain length,
    /// i.e. the mean bytes of the stored chains. Without this, the
    /// windows would fall back to the per-session default forever
    /// (the ledger never populates `entries`), collapsing `L_pw`/`L_ev`
    /// to fixed constants.
    pub(super) fn ca_avg_session_bytes(&self) -> u64 {
        self.shared
            .avg_session_bytes()
            .unwrap_or(self.cfg.default_session_bytes)
            .max(1)
    }

    // ---- victim choice ------------------------------------------------

    /// The demotion victim of `tier`: the least-recently-used unpinned
    /// node no session inside the look-ahead eviction window will read
    /// — via its stored chain (owner_hint in-window) or its registered
    /// key resolving here on a first turn (`needed`) — or, when every
    /// unpinned node is imminent, the least-recently-used of those.
    pub(super) fn ca_demote_victim(
        &self,
        tier: TierId,
        queue: &QueueView,
        window: usize,
        needed: &HashSet<usize>,
    ) -> Option<usize> {
        let mut coldest = None;
        for s in self.shared.unpinned(tier) {
            if !self.ca_imminent(s, queue, window, needed) {
                return Some(s);
            }
            coldest.get_or_insert(s);
        }
        coldest
    }

    /// The prefetch victim of `tier` when staging `sid` (queued at `pos`):
    /// the least-recently-used unpinned node outside `protected` (the
    /// prefetch window's working set) whose last accessor is not `sid`
    /// and is queued, if at all, strictly after `pos`.
    pub(super) fn ca_prefetch_victim(
        &self,
        tier: TierId,
        sid: SessionId,
        pos: usize,
        protected: &HashSet<usize>,
        queue: &QueueView,
    ) -> Option<usize> {
        self.shared.unpinned(tier).find(|&s| {
            let n = self.shared.node(s);
            n.owner_hint != sid
                && !protected.contains(&s)
                && queue.position(n.owner_hint).is_none_or(|p| p > pos)
        })
    }

    /// Whether a session inside the look-ahead eviction window will read
    /// `slot` soon.
    fn ca_imminent(
        &self,
        slot: usize,
        queue: &QueueView,
        window: usize,
        needed: &HashSet<usize>,
    ) -> bool {
        let n = self.shared.node(slot);
        queue.position(n.owner_hint).is_some_and(|p| p < window) || needed.contains(&slot)
    }

    // ---- room making / refcounted eviction ----------------------------

    /// Frees the least-recently-used dead node (refs == 0, pins == 0) of
    /// `tier` out of the system — the refcounted eviction path. Returns
    /// `false` when the tier has no dead node.
    pub(super) fn ca_free_dead_in(&mut self, now: Time, tier: TierId) -> bool {
        let Some(slot) = self.shared.dead(tier).next() else {
            return false;
        };
        self.ca_reclaim(now, slot);
        true
    }

    /// Frees the dead node in `slot` out of the system.
    fn ca_reclaim(&mut self, now: Time, slot: usize) {
        let node = self.shared.take_node(slot);
        self.pools[node.placement.0]
            .free(&node.blocks)
            .expect("node blocks are valid");
        self.shared.dedup.refcounted_evictions += 1;
        self.emit(StoreEvent::BlockEvicted {
            blocks: node.blocks.len() as u64,
            bytes: node.bytes,
            tier: node.placement,
            refs: 0,
            at: now,
        });
    }

    /// Demotes the least-recently-used unpinned node of `tier` one hop
    /// down (making room below as needed), preferring nodes no session
    /// inside the look-ahead eviction window maps to — the
    /// scheduler-aware victim order of §3.3.2 at block granularity.
    /// Returns `false` when no node is movable.
    pub(super) fn ca_demote_one(
        &mut self,
        now: Time,
        tier: TierId,
        acting: SessionId,
        queue: &QueueView,
        out: &mut Vec<Transfer>,
    ) -> bool {
        debug_assert!(
            tier != self.bottom_tier(),
            "bottom tier evicts, not demotes"
        );
        let window = self.eviction_window();
        let needed = self.ca_queued_slots(queue, window);
        let Some(slot) = self.ca_demote_victim(tier, queue, window, &needed) else {
            return false;
        };
        self.ca_demote_slot(now, slot, acting, queue, out)
    }

    /// Demotes one specific node one hop down (making room below as
    /// needed). Returns `false` when room below cannot be made.
    fn ca_demote_slot(
        &mut self,
        now: Time,
        slot: usize,
        acting: SessionId,
        queue: &QueueView,
        out: &mut Vec<Transfer>,
    ) -> bool {
        let (bytes, from) = {
            let n = self.shared.node(slot);
            (n.bytes, n.placement)
        };
        let to = from.below();
        if !self.ca_make_room_in(now, to, bytes, acting, queue, out) {
            return false;
        }
        let new_blocks = self.pools[to.0].alloc(bytes).expect("room made above");
        let (old_blocks, mover) = {
            let mut node = self.shared.node_mut(slot);
            node.placement = to;
            (
                std::mem::replace(&mut node.blocks, new_blocks),
                node.owner_hint,
            )
        };
        self.pools[from.0]
            .free(&old_blocks)
            .expect("blocks were in the source tier");
        self.stats.demotions += 1;
        self.stats.demotion_bytes += bytes;
        self.emit(StoreEvent::BlockDemoted {
            blocks: self.shared.node(slot).blocks.len() as u64,
            bytes,
            from,
            to,
            at: now,
        });
        out.push(Transfer {
            session: mover,
            bytes,
            from,
            to,
        });
        true
    }

    /// Releases the least-recently-used unpinned session's whole chain —
    /// the fallback when the bottom tier holds only referenced blocks.
    /// Sessions outside the look-ahead eviction window are preferred.
    ///
    /// `acting` — the session whose save, consult or prefetch needs the
    /// room — is never released: mid-save its stored chain still names
    /// the common prefix the new chain keeps without a reference of its
    /// own, so releasing it would leave those nodes looking dead and
    /// reclaimable while the new chain points at them.
    fn ca_release_lru_session(&mut self, now: Time, acting: SessionId, queue: &QueueView) -> bool {
        let window = self.eviction_window();
        let cands: Vec<SessionId> = self
            .shared
            .sessions()
            .keys()
            .filter(|&&sid| sid != acting && !self.shared.pinned.contains_key(&sid))
            .copied()
            .collect();
        let order = |sid: &SessionId| {
            let r = &self.shared.sessions()[sid];
            (r.last_access, r.insert_seq)
        };
        let victim = cands
            .iter()
            .filter(|&&sid| queue.position(sid).is_none_or(|p| p >= window))
            .min_by_key(|sid| order(sid))
            .or_else(|| cands.iter().min_by_key(|sid| order(sid)))
            .copied();
        let Some(sid) = victim else {
            return false;
        };
        let r = self.shared.remove_session(sid).expect("victim exists");
        self.ca_release_chain(&r.chain);
        self.stats.drops_capacity += 1;
        self.shared.dedup.session_releases += 1;
        self.emit(StoreEvent::Evicted {
            session: sid.0,
            bytes: r.bytes,
            tier: self.bottom_tier(),
            window_pos: queue.position(sid),
            instance: queue.owner(sid),
            at: now,
        });
        true
    }

    /// Frees space in `tier` until `bytes` fit: dead nodes are reclaimed
    /// first (refcounted eviction), then live nodes demote hop by hop;
    /// at the bottom tier, chains of cold sessions are released to turn
    /// referenced blocks into dead ones. Returns `false` when room
    /// cannot be made.
    fn ca_make_room_in(
        &mut self,
        now: Time,
        tier: TierId,
        bytes: u64,
        acting: SessionId,
        queue: &QueueView,
        out: &mut Vec<Transfer>,
    ) -> bool {
        let pool = &self.pools[tier.0];
        if pool.blocks_for(bytes) > pool.n_blocks() {
            return false;
        }
        while !self.pools[tier.0].fits(bytes) {
            if self.ca_free_dead_in(now, tier) {
                continue;
            }
            let progressed = if tier == self.bottom_tier() {
                self.ca_release_lru_session(now, acting, queue)
            } else {
                self.ca_demote_one(now, tier, acting, queue, out)
            };
            if !progressed {
                return false;
            }
        }
        true
    }

    // ---- save ---------------------------------------------------------

    pub(super) fn ca_save(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> (Vec<Transfer>, bool) {
        // A save supersedes the consult that admitted the turn: release
        // its pins (mirrors the per-session save replacing the pinned
        // entry), or the session would block prefetch and demotion for
        // its whole think time.
        self.ca_unpin(sid);
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        let key = self.ca_key(sid);
        let desired = key.chain(total_tokens, self.cfg.block_tokens);

        // Diff against the previous chain: keep the common prefix, release
        // the rest. Replacing only a partial tail chunk is growth; anything
        // more is copy-on-divergence.
        let old: Vec<usize> = self
            .shared
            .session(sid)
            .map(|r| r.chain.clone())
            .unwrap_or_default();
        let common = old
            .iter()
            .zip(desired.iter())
            .take_while(|(&slot, ck)| self.shared.node(slot).chain_hash == ck.chain_hash)
            .count();
        let released = old.len() - common;
        if released > 0 {
            let old_tail_partial =
                self.shared.node(old[old.len() - 1]).tokens < self.cfg.block_tokens;
            self.ca_release_chain(&old[common..]);
            let grew = released == 1 && common == old.len() - 1 && old_tail_partial;
            if !grew {
                self.shared.dedup.divergences += 1;
                self.emit(StoreEvent::BlockDiverged {
                    session: sid.0,
                    at_block: common as u64,
                    released_blocks: released as u64,
                    at: now,
                });
            }
        }

        let chain: Vec<usize> = old[..common].to_vec();
        let mut covered_tokens: u64 = desired[..common].iter().map(|c| c.tokens).sum();
        // Byte totals track the *stored* node sizes: a dedup-hit node was
        // sized by whichever session wrote it first, and proportional
        // rounding differs across totals.
        let mut covered_bytes: u64 = chain.iter().map(|&s| self.shared.node(s).bytes).sum();
        let mut chain = chain;
        let mut new_blocks = 0u64;
        let mut dedup_blocks = 0u64;
        let mut bytes_written = 0u64;
        let mut bytes_saved = 0u64;
        let mut spilled = false;
        let mut fitted = true;
        for ck in &desired[common..] {
            let bytes = Self::chunk_bytes(total_bytes, total_tokens, covered_tokens, ck.tokens);
            if let Some(&slot) = self.shared.by_hash.get(&ck.chain_hash) {
                // Cross-session (or re-grown) dedup hit: share the node.
                let mut n = self.shared.node_mut(slot);
                n.refs += 1;
                n.last_access = now;
                n.owner_hint = sid;
                dedup_blocks += 1;
                bytes_saved += n.bytes;
                covered_bytes += n.bytes;
                chain.push(slot);
            } else {
                // Fresh chunk: prefer tier 0, spill down the stack like
                // per-session saves (the write stream lands hop by hop).
                let placement = (0..self.pools.len())
                    .map(TierId)
                    .find(|&t| self.ca_make_room_in(now, t, bytes, sid, queue, &mut transfers));
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
                let seq = self.shared.next_seq;
                self.shared.next_seq += 1;
                let slot = self.shared.insert_node(ChunkNode {
                    chain_hash: ck.chain_hash,
                    tokens: ck.tokens,
                    bytes,
                    placement,
                    blocks,
                    refs: 1,
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

        self.shared.dedup.new_blocks += new_blocks;
        self.shared.dedup.dedup_blocks += dedup_blocks;
        self.shared.dedup.bytes_written += bytes_written;
        self.shared.dedup.bytes_saved += bytes_saved;
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
        if chain.is_empty() {
            // Nothing fit at all: no chain survives.
            self.shared.remove_session(sid);
            self.emit_occupancy(mark, now);
            return (transfers, false);
        }
        let deepest = chain
            .iter()
            .map(|&s| self.shared.node(s).placement)
            .max()
            .expect("chain non-empty");
        let seq = self.shared.next_seq;
        self.shared.next_seq += 1;
        self.shared.insert_session(
            sid,
            SessionRef {
                chain,
                tokens: covered_tokens,
                bytes: covered_bytes,
                key,
                last_access: now,
                insert_seq: seq,
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
        self.emit(StoreEvent::BlockSaved {
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

    // ---- consult / load -----------------------------------------------

    /// Longest-prefix match of `sid`'s next context (`ctx_tokens` =
    /// history + new user tokens) against the trie, across *all*
    /// sessions. Matched blocks are pinned and staged to tier 0; the
    /// engine prefills only the unmatched tail.
    pub(super) fn ca_load_prefix(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> PrefixMatch {
        sim::scope!("store.trie_probe");
        // A consult replaces any pins left by a previous one.
        self.ca_unpin(sid);
        let mark = self.trace_mark();
        let key = self.ca_key(sid);

        // Cross-session walk: successive chain hashes over the context's
        // chunk grid until the first miss.
        let grid = key.chain(ctx_tokens, self.cfg.block_tokens);
        let mut cross: Vec<usize> = Vec::new();
        let mut cross_tokens = 0u64;
        for ck in &grid {
            let Some(&slot) = self.shared.by_hash.get(&ck.chain_hash) else {
                break;
            };
            cross.push(slot);
            cross_tokens += ck.tokens;
        }
        // Own-chain fallback: a session resuming its own history can
        // always reuse its stored prefix, even where its partial tail
        // chunk does not align with the context's chunk grid.
        let own = self.shared.session(sid);
        let own_tokens = own.map_or(0, |r| r.tokens.min(ctx_tokens));
        let (matched_tokens, matched) = if own_tokens > cross_tokens {
            let r = own.expect("own tokens came from a stored chain");
            (own_tokens, r.chain.clone())
        } else {
            (cross_tokens, cross)
        };

        if matched.is_empty() {
            self.emit(StoreEvent::FetchMiss {
                session: sid.0,
                at: now,
            });
            self.emit_occupancy(mark, now);
            return PrefixMatch::miss();
        }

        let matched_bytes: u64 = matched.iter().map(|&s| self.shared.node(s).bytes).sum();
        let deepest = matched
            .iter()
            .map(|&s| self.shared.node(s).placement)
            .max()
            .expect("non-empty");
        self.emit(StoreEvent::FetchHit {
            session: sid.0,
            tier: deepest,
            bytes: matched_bytes,
            at: now,
        });
        self.emit(StoreEvent::BlockDedupHit {
            session: sid.0,
            matched_blocks: matched.len() as u64,
            bytes: matched_bytes,
            at: now,
        });
        self.shared.dedup.lookup_hits += 1;
        self.shared.dedup.matched_blocks += matched.len() as u64;

        // Pin first so room-making below cannot evict what we matched.
        for &slot in &matched {
            let mut n = self.shared.node_mut(slot);
            n.pins += 1;
            n.last_access = now;
            n.owner_hint = sid;
        }
        self.shared.pinned.insert(sid, matched.clone());
        self.shared.touch_session(sid, now);

        // Stage matched blocks up to tier 0 (serve-in-place when tier 0
        // genuinely cannot hold them).
        let mut transfers = Vec::new();
        let mut promoted_bytes = 0u64;
        let mut promoted_from = TierId(0);
        for &slot in &matched {
            let (bytes, from) = {
                let n = self.shared.node(slot);
                (n.bytes, n.placement)
            };
            if from.is_fast() {
                continue;
            }
            if !self.ca_make_room_in(now, TierId(0), bytes, sid, queue, &mut transfers) {
                continue;
            }
            let new_blocks = self.pools[0].alloc(bytes).expect("room made above");
            let old_blocks = {
                let mut node = self.shared.node_mut(slot);
                node.placement = TierId(0);
                std::mem::replace(&mut node.blocks, new_blocks)
            };
            self.pools[from.0]
                .free(&old_blocks)
                .expect("blocks were in the source tier");
            self.stats.promotions += 1;
            self.stats.promotion_bytes += bytes;
            promoted_bytes += bytes;
            promoted_from = promoted_from.max(from);
            Self::push_promotion_hops(&mut transfers, sid, bytes, from);
        }
        if promoted_bytes > 0 {
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

    /// `load_for_use` in content-addressed mode: stage the session's own
    /// stored chain (cross-session matching needs the context length,
    /// which only [`ca_load_prefix`](Self::ca_load_prefix) receives).
    pub(super) fn ca_load_for_use(
        &mut self,
        sid: SessionId,
        now: Time,
        queue: &QueueView,
    ) -> (Lookup, Vec<Transfer>) {
        let Some(tokens) = self.ca_tokens(sid) else {
            let mark = self.trace_mark();
            self.emit(StoreEvent::FetchMiss {
                session: sid.0,
                at: now,
            });
            self.emit_occupancy(mark, now);
            return (Lookup::Miss, Vec::new());
        };
        let m = self.ca_load_prefix(sid, tokens, now, queue);
        (m.lookup, m.transfers)
    }

    pub(super) fn ca_unpin(&mut self, sid: SessionId) {
        if let Some(slots) = self.shared.pinned.remove(&sid) {
            for slot in slots {
                let mut n = self.shared.node_mut(slot);
                n.pins = n.pins.saturating_sub(1);
            }
        }
    }

    /// Drops one chain reference from each node of `chain`.
    fn ca_release_chain(&mut self, chain: &[usize]) {
        for &slot in chain {
            let mut n = self.shared.node_mut(slot);
            n.refs = n.refs.saturating_sub(1);
        }
    }

    // ---- lifecycle ----------------------------------------------------

    /// Truncation rewrites history in place, so the session's content
    /// forks from every chain it shared: bump the key's generation,
    /// release the old chain and rebuild the survivor prefix under the
    /// new (fully private) hashes — copy-on-divergence. Exclusively
    /// owned nodes are converted in place; shared nodes are copied into
    /// free space (never by evicting others — truncation is a
    /// bookkeeping shrink, not a capacity event).
    pub(super) fn ca_truncate(&mut self, sid: SessionId, new_bytes: u64, new_tokens: u64) {
        let Some(r) = self.shared.session(sid) else {
            return;
        };
        if new_bytes >= r.bytes {
            return;
        }
        let now = r.last_access;
        let mut key = r.key;
        key.generation += 1;
        self.shared.keys.insert(sid, key);
        let old = self
            .shared
            .remove_session(sid)
            .expect("checked above")
            .chain;
        self.ca_release_chain(&old);
        self.shared.dedup.divergences += 1;
        self.emit(StoreEvent::BlockDiverged {
            session: sid.0,
            at_block: 0,
            released_blocks: old.len() as u64,
            at: now,
        });

        let desired = key.chain(new_tokens, self.cfg.block_tokens);
        let mut chain = Vec::with_capacity(desired.len());
        let mut covered_tokens = 0u64;
        let mut covered_bytes = 0u64;
        for (k, ck) in desired.iter().enumerate() {
            // The rewritten chunk may already be in the trie — e.g. a
            // session re-registered at generation 0 after an earlier
            // truncate/invalidate cycle rebuilds the same generation-1
            // hashes. Same hash means same content: reference the
            // stored node rather than inserting a duplicate, which
            // would orphan the incumbent's trie entry.
            if let Some(&hit) = self.shared.by_hash.get(&ck.chain_hash) {
                let bytes = {
                    let mut n = self.shared.node_mut(hit);
                    n.refs += 1;
                    n.last_access = now;
                    n.owner_hint = sid;
                    n.bytes
                };
                self.shared.dedup.dedup_blocks += 1;
                self.shared.dedup.bytes_saved += bytes;
                chain.push(hit);
                covered_tokens += ck.tokens;
                covered_bytes += bytes;
                continue;
            }
            let bytes = Self::chunk_bytes(new_bytes, new_tokens, covered_tokens, ck.tokens);
            let old_slot = old.get(k).copied();
            let exclusive = old_slot.is_some_and(|s| {
                let n = self.shared.node(s);
                n.refs == 0 && n.pins == 0
            });
            let slot = if exclusive {
                // Convert in place: shrink-realloc within the node's tier.
                let slot = old_slot.expect("checked above");
                let (tier, old_hash, old_blocks) = {
                    let mut n = self.shared.node_mut(slot);
                    (n.placement, n.chain_hash, std::mem::take(&mut n.blocks))
                };
                self.shared.by_hash.remove(&old_hash);
                self.pools[tier.0]
                    .free(&old_blocks)
                    .expect("node blocks valid");
                let blocks = self.pools[tier.0]
                    .alloc(bytes)
                    .expect("shrinking realloc always fits");
                {
                    let mut n = self.shared.node_mut(slot);
                    n.chain_hash = ck.chain_hash;
                    n.tokens = ck.tokens;
                    n.bytes = bytes;
                    n.blocks = blocks;
                    n.refs = 1;
                }
                self.shared.by_hash.insert(ck.chain_hash, slot);
                Some(slot)
            } else {
                // Shared (or pinned) node: copy into free space, first
                // tier that fits, fastest first.
                let tier = (0..self.pools.len())
                    .map(TierId)
                    .find(|t| self.pools[t.0].fits(bytes));
                tier.map(|tier| {
                    let blocks = self.pools[tier.0].alloc(bytes).expect("fits checked");
                    let seq = self.shared.next_seq;
                    self.shared.next_seq += 1;
                    self.shared.insert_node(ChunkNode {
                        chain_hash: ck.chain_hash,
                        tokens: ck.tokens,
                        bytes,
                        placement: tier,
                        blocks,
                        refs: 1,
                        pins: 0,
                        last_access: now,
                        insert_seq: seq,
                        owner_hint: sid,
                    })
                })
            };
            let Some(slot) = slot else {
                break; // keep the prefix that fit
            };
            chain.push(slot);
            covered_tokens += ck.tokens;
            covered_bytes += bytes;
        }
        // Old nodes beyond the survivor prefix that we exclusively owned
        // are dead now; reclaim them eagerly.
        for (k, &slot) in old.iter().enumerate() {
            if chain.get(k) == Some(&slot) {
                continue;
            }
            let n = self.shared.node(slot);
            if n.refs == 0 && n.pins == 0 {
                self.ca_reclaim(now, slot);
            }
        }
        if !chain.is_empty() {
            let seq = self.shared.next_seq;
            self.shared.next_seq += 1;
            self.shared.insert_session(
                sid,
                SessionRef {
                    chain,
                    tokens: covered_tokens,
                    bytes: covered_bytes,
                    key,
                    last_access: now,
                    insert_seq: seq,
                },
            );
        }
    }

    pub(super) fn ca_invalidate(&mut self, sid: SessionId) {
        self.ca_unpin(sid);
        if let Some(r) = self.shared.remove_session(sid) {
            self.ca_release_chain(&r.chain);
            self.stats.drops_invalidated += 1;
        }
    }

    pub(super) fn ca_expire(&mut self, now: Time) -> u64 {
        let Some(ttl) = self.cfg.ttl else {
            return 0;
        };
        let mark = self.trace_mark();
        let dead: Vec<SessionId> = self
            .shared
            .sessions()
            .iter()
            .filter(|(sid, r)| {
                !self.shared.pinned.contains_key(sid) && now.saturating_since(r.last_access) > ttl
            })
            .map(|(&sid, _)| sid)
            .collect();
        let n = dead.len() as u64;
        for sid in dead {
            let r = self.shared.remove_session(sid).expect("listed above");
            self.ca_release_chain(&r.chain);
            self.emit(StoreEvent::Expired {
                session: sid.0,
                at: now,
            });
        }
        self.stats.drops_ttl += n;
        // Reclaim nodes that are both unreferenced and idle past the TTL.
        let stale: Vec<usize> = self
            .shared
            .live_slots()
            .filter(|&s| {
                let node = self.shared.node(s);
                node.refs == 0 && node.pins == 0 && now.saturating_since(node.last_access) > ttl
            })
            .collect();
        for slot in stale {
            self.ca_reclaim(now, slot);
        }
        self.emit_occupancy(mark, now);
        n
    }

    /// Slots any session in `queue.head(upto)` will read: stored chains,
    /// plus — for chainless first-turn sessions — the prefix of their
    /// registered key that resolves in the trie. With shared nodes a
    /// block's `owner_hint` names only its *last* accessor, so "is an
    /// imminent session about to read this?" must consult every imminent
    /// session's mapping, not the hint.
    pub(super) fn ca_queued_slots(&self, queue: &QueueView, upto: usize) -> HashSet<usize> {
        let mut slots = HashSet::new();
        for sid in queue.head(upto) {
            if let Some(r) = self.shared.session(sid) {
                slots.extend(r.chain.iter().copied());
            } else if let Some(key) = self.shared.keys.get(&sid) {
                if key.shared_tokens > 0 {
                    for ck in key.chain(key.shared_tokens, self.cfg.block_tokens) {
                        match self.shared.by_hash.get(&ck.chain_hash) {
                            Some(&slot) => {
                                slots.insert(slot);
                            }
                            None => break,
                        }
                    }
                }
            }
        }
        slots
    }

    // ---- prefetch / reserve -------------------------------------------

    /// Look-ahead prefetch over chains: stages slow-tier blocks of queued
    /// sessions into *free* tier-0 space (block granularity makes partial
    /// staging natural — no demotion cascades are forced on behalf of a
    /// prediction), then restores the tier-0 reserve.
    pub(super) fn ca_prefetch(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer> {
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
                !self.shared.pinned.contains_key(&sid)
                    && match self.shared.session(sid) {
                        Some(r) => r
                            .chain
                            .iter()
                            .any(|&s| !self.shared.node(s).placement.is_fast()),
                        // First turn: no chain of its own yet, but its
                        // registered content key may match blocks other
                        // sessions stored.
                        None => self
                            .shared
                            .keys
                            .get(&sid)
                            .is_some_and(|k| k.shared_tokens > 0),
                    }
            })
            .collect();
        'targets: for (pos, sid) in targets {
            // Turn-0 targets (no chain of their own) stage into free
            // space only: their matched blocks are shared with other
            // sessions, so forcing demotions on their behalf ping-pongs
            // the very chains those sessions are about to resume.
            let own_chain = self.shared.session(sid).is_some();
            let chain: Vec<usize> = match self.shared.session(sid) {
                Some(r) => r.chain.clone(),
                None => {
                    // Turn-0 look-ahead: walk the trie over the queued
                    // session's *shared* span (those chunk hashes do not
                    // involve its private seed), staging whatever prefix
                    // other sessions already stored — the block-granular
                    // analogue of §3.3.1 for cross-session reuse.
                    let Some(key) = self.shared.keys.get(&sid).copied() else {
                        continue;
                    };
                    let grid = key.chain(key.shared_tokens, self.cfg.block_tokens);
                    let mut slots = Vec::new();
                    for ck in &grid {
                        match self.shared.by_hash.get(&ck.chain_hash) {
                            Some(&slot) => slots.push(slot),
                            None => break,
                        }
                    }
                    slots
                }
            };
            // The working set of the whole prefetch window — every
            // queued target's chain and key grid, not just this one's.
            // Victims must come from *outside* it: queue positions
            // shuffle between passes, so demoting one window target's
            // blocks to stage another's would promote/demote ping-pong
            // the same blocks pass after pass (a shared node's
            // owner_hint names only its last accessor and cannot see
            // this). Mirrors the per-session rule that prefetch victims
            // are strictly out-of-window.
            let mut protected = self.ca_queued_slots(queue, window);
            protected.extend(chain.iter().copied());
            let mut promoted_bytes = 0u64;
            let mut promoted_from = TierId(0);
            // When no victim is demotable the whole pass stops — but only
            // after this target's `promoted` event is emitted: chunks
            // already staged pushed their fast-arriving transfers, and an
            // unheralded completion would leave the trace unpaired.
            let mut stalled = false;
            for slot in chain {
                let (bytes, from, pinned) = {
                    let n = self.shared.node(slot);
                    (n.bytes, n.placement, n.pins > 0)
                };
                if from.is_fast() || pinned {
                    continue;
                }
                // Fetching into the buffer may demote colder blocks (Fig
                // 9: fetching Job 3 pushes Job 4 down) — but only blocks
                // no session queued at or before this target maps to,
                // otherwise promote/demote ping-pong would saturate the
                // slow links.
                if !own_chain && !self.pools[0].fits(bytes) {
                    break;
                }
                while !self.pools[0].fits(bytes) {
                    let victim = self.ca_prefetch_victim(TierId(0), sid, pos, &protected, queue);
                    match victim {
                        Some(v) if self.ca_demote_slot(now, v, sid, queue, &mut transfers) => {}
                        _ => {
                            stalled = true;
                            break;
                        }
                    }
                }
                if stalled {
                    break;
                }
                // On a stack deeper than two tiers, making room can
                // cascade a demotion onto this very node: stage it from
                // where it is now.
                let from = self.shared.node(slot).placement;
                let new_blocks = self.pools[0].alloc(bytes).expect("fits checked");
                let old_blocks = {
                    let mut node = self.shared.node_mut(slot);
                    node.placement = TierId(0);
                    node.last_access = now;
                    std::mem::replace(&mut node.blocks, new_blocks)
                };
                self.pools[from.0]
                    .free(&old_blocks)
                    .expect("blocks were in the source tier");
                self.stats.promotions += 1;
                self.stats.promotion_bytes += bytes;
                promoted_bytes += bytes;
                promoted_from = promoted_from.max(from);
                Self::push_promotion_hops(&mut transfers, sid, bytes, from);
            }
            if promoted_bytes > 0 {
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

    /// Restores the tier-0 reserve: dead nodes are reclaimed first, then
    /// cold live nodes demote one hop down. Stops — leaving the reserve
    /// short — rather than demote a block an in-window session maps to:
    /// demoting those only to re-stage them next prefetch pass would
    /// churn the slow links (the per-session reserve has the same
    /// refusal).
    pub(super) fn ca_maintain_reserve(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer> {
        let reserve = (self.cfg.tiers[0].capacity as f64 * self.cfg.dram_reserve_fraction) as u64;
        let window = self.eviction_window();
        let needed = self.ca_queued_slots(queue, window);
        let mut transfers = Vec::new();
        while self.pools[0].free_bytes() < reserve {
            if self.ca_free_dead_in(now, TierId(0)) {
                continue;
            }
            let Some(slot) = self.shared.unpinned(TierId(0)).next() else {
                break;
            };
            if self.ca_imminent(slot, queue, window, &needed) {
                break;
            }
            let acting = SessionId(u64::MAX);
            if !self.ca_demote_slot(now, slot, acting, queue, &mut transfers) {
                break;
            }
        }
        transfers
    }

    // ---- invariants (for tests) ---------------------------------------

    /// Checks the ledger's structural invariants; returns a description
    /// of the first violation. Exposed for the property tests.
    #[doc(hidden)]
    pub fn validate_blocks(&self) -> Result<(), String> {
        let l = &self.shared;
        // by_hash maps exactly the live nodes.
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
        // Refcount conservation: refs == chains referencing the slot.
        let mut want_refs: HashMap<usize, u64> = HashMap::new();
        for r in l.sessions().values() {
            for &slot in &r.chain {
                *want_refs.entry(slot).or_insert(0) += 1;
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
            let refs = want_refs.get(&slot).copied().unwrap_or(0);
            if node.refs != refs {
                return Err(format!(
                    "node {slot}: refs {} but {} chains reference it",
                    node.refs, refs
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
            if tokens != r.tokens || bytes != r.bytes {
                return Err(format!(
                    "{sid}: ref claims {}t/{}B, chain sums {}t/{}B",
                    r.tokens, r.bytes, tokens, bytes
                ));
            }
        }
        // Pool accounting: in content-addressed mode the pools hold
        // exactly the nodes (per-session entries and nodes coexist only
        // transiently in tests that mix modes, which we do not allow).
        if self.entries.is_empty() {
            for (i, pool) in self.pools.iter().enumerate() {
                if pool.used_blocks() as usize != tier_blocks[i] {
                    return Err(format!(
                        "tier {i}: pool holds {} blocks, nodes account for {}",
                        pool.used_blocks(),
                        tier_blocks[i]
                    ));
                }
            }
        }
        // The victim index and the running chain-byte total agree with a
        // fresh rebuild.
        l.check_derived()
    }
}

/// The victim choices as whole-slab scans: the reference the indexed
/// choices above are checked against.
#[cfg(test)]
impl AttentionStore {
    fn naive_lru(&self, eligible: impl Fn(usize, &ChunkNode) -> bool) -> Option<usize> {
        self.shared
            .live_slots()
            .filter(|&s| eligible(s, self.shared.node(s)))
            .min_by_key(|&s| {
                let n = self.shared.node(s);
                (n.last_access, n.insert_seq)
            })
    }

    pub(super) fn naive_dead_victim(&self, tier: TierId) -> Option<usize> {
        self.naive_lru(|_, n| n.placement == tier && n.refs == 0 && n.pins == 0)
    }

    pub(super) fn naive_reserve_victim(&self, tier: TierId) -> Option<usize> {
        self.naive_lru(|_, n| n.placement == tier && n.pins == 0)
    }

    pub(super) fn naive_demote_victim(
        &self,
        tier: TierId,
        queue: &QueueView,
        window: usize,
        needed: &HashSet<usize>,
    ) -> Option<usize> {
        self.shared
            .live_slots()
            .filter(|&s| {
                let n = self.shared.node(s);
                n.placement == tier && n.pins == 0
            })
            .min_by_key(|&s| {
                let n = self.shared.node(s);
                let soon =
                    queue.position(n.owner_hint).is_some_and(|p| p < window) || needed.contains(&s);
                (soon, n.last_access, n.insert_seq)
            })
    }

    pub(super) fn naive_prefetch_victim(
        &self,
        tier: TierId,
        sid: SessionId,
        pos: usize,
        protected: &HashSet<usize>,
        queue: &QueueView,
    ) -> Option<usize> {
        self.naive_lru(|s, n| {
            n.placement == tier
                && n.pins == 0
                && n.owner_hint != sid
                && !protected.contains(&s)
                && queue.position(n.owner_hint).is_none_or(|p| p > pos)
        })
    }
}
