//! Tier placement over the ledger: victim choice, hop-by-hop demotion,
//! bottom-tier eviction, reserve maintenance and the chain lifecycle
//! (truncate / invalidate / expire).
//!
//! Victims are chosen by §3.3.2's look-ahead rule, written over a node's
//! *next use*: the earliest queue position, inside the eviction window,
//! of any session whose chain — or, for a session with no chain yet,
//! whose registered key — maps to the node. A per-session node's next use
//! is its owner's queue position. Shared nodes need every mapping
//! session: the last accessor alone misses the other readers.

use std::collections::HashMap;

use sim::Time;

use crate::chain::ChunkKey;
use crate::events::StoreEvent;
use crate::{QueueView, SessionId, TierId};

use super::faults::metadata_checksum;
use super::ledger::{ChunkNode, SessionRef};
use super::{AttentionStore, Transfer};

/// A victim node and its next use, if a session inside the look-ahead
/// eviction window maps to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Victim {
    pub(super) slot: usize,
    pub(super) next_use: Option<usize>,
}

/// The queue one top-level operation plans against, with the next-use
/// map its victim choices share. The map is a function of the stored
/// chains, the trie and the eviction window, so it is rebuilt only when
/// the ledger changed shape since it was built.
pub(super) struct Pass<'q> {
    pub(super) queue: &'q QueueView,
    uses: Option<(u64, HashMap<usize, usize>)>,
}

impl<'q> Pass<'q> {
    pub(super) fn new(queue: &'q QueueView) -> Self {
        Pass { queue, uses: None }
    }
}

/// What a session whose chain is taken out of the system reports.
#[derive(Clone, Copy)]
enum Expulsion {
    /// A bottom-tier capacity eviction (`evicted`).
    Evicted,
    /// A node that could not demote for lack of room below (`dropped`).
    Dropped,
}

impl AttentionStore {
    /// The slots of `grid` the trie holds, up to the first miss.
    pub(super) fn trie_walk(&self, grid: &[ChunkKey]) -> Vec<usize> {
        grid.iter()
            .map_while(|ck| self.ledger.by_hash.get(&ck.chain_hash).copied())
            .collect()
    }

    /// Next use of every node a session in `queue.head(window)` maps to:
    /// slot → earliest queue position. Stored chains map to their nodes;
    /// a chainless (first-turn) session maps to the prefix of its
    /// registered shared span that the trie holds.
    pub(super) fn next_uses(&self, queue: &QueueView, window: usize) -> HashMap<usize, usize> {
        let mut uses = HashMap::new();
        for (pos, sid) in queue.head(window).enumerate() {
            let slots = match self.ledger.session(sid) {
                Some(r) => r.chain.clone(),
                None => match self.ledger.keys.get(&sid) {
                    Some(k) if k.shared_tokens > 0 => {
                        self.trie_walk(&k.chain(k.shared_tokens, self.chunk_tokens()))
                    }
                    _ => continue,
                },
            };
            for slot in slots {
                uses.entry(slot).or_insert(pos);
            }
        }
        uses
    }

    /// Whether node `slot` may leave the system with the chains through
    /// it: only when every chain referencing it is stored and idle. A
    /// save in flight holds its new chain's nodes before the chain is
    /// stored, and a pinned consult is mid-use.
    fn expellable(&self, slot: usize) -> bool {
        self.ledger
            .node(slot)
            .users
            .iter()
            .all(|&u| self.ledger.session(u).is_some() && !self.is_pinned(u))
    }

    /// The policy's victim in `tier`, never one of the `held` nodes (a
    /// prefetch target's chain) and, in the bottom tier, only a node that
    /// may leave the system. The scheduler-aware policy takes the first
    /// unpinned node in LRU order with no in-window use, or — when every
    /// candidate has one — the node whose next use is furthest away (the
    /// Belady tail); LRU and FIFO take the first node of the tier's
    /// order. Callers reclaim dead nodes before asking.
    pub(super) fn victim(&self, tier: TierId, pass: &mut Pass, held: &[usize]) -> Option<Victim> {
        let epoch = self.ledger.epoch();
        if pass.uses.as_ref().is_none_or(|(e, _)| *e != epoch) {
            let uses = self.next_uses(pass.queue, self.eviction_window());
            pass.uses = Some((epoch, uses));
        }
        let uses = &pass.uses.as_ref().expect("built above").1;
        let bottom = tier == self.bottom_tier();
        let mut order = self
            .ledger
            .unpinned(tier)
            .filter(|&s| !held.contains(&s) && (!bottom || self.expellable(s)))
            .map(|slot| Victim {
                slot,
                next_use: uses.get(&slot).copied(),
            });
        if !self.cfg.policy.is_scheduler_aware() {
            return order.next();
        }
        let mut tail: Option<Victim> = None;
        for v in order {
            match (v.next_use, tail.and_then(|t| t.next_use)) {
                (None, _) => return Some(v),
                (Some(p), Some(q)) if p <= q => {}
                _ => tail = Some(v),
            }
        }
        tail
    }

    /// Frees the first dead node (no users, no pins) of `tier` out of the
    /// system — the refcounted eviction path. Returns `false` when the
    /// tier has no dead node.
    pub(super) fn reclaim_dead_in(&mut self, now: Time, tier: TierId) -> bool {
        let Some(slot) = self.ledger.dead(tier).next() else {
            return false;
        };
        self.reclaim(now, slot);
        true
    }

    /// Frees the dead node in `slot` out of the system.
    pub(super) fn reclaim(&mut self, now: Time, slot: usize) {
        let node = self.ledger.take_node(slot);
        self.pools[node.placement.0]
            .free(&node.blocks)
            .expect("node blocks are valid");
        self.ledger.dedup.refcounted_evictions += 1;
        self.emit_dedup(StoreEvent::BlockEvicted {
            blocks: node.blocks.len() as u64,
            bytes: node.bytes,
            tier: node.placement,
            refs: 0,
            at: now,
        });
    }

    /// Whether nothing but `sid`'s own consult holds node `slot`: no
    /// chain references it, and the only pin is `sid`'s.
    fn only_held_by(&self, sid: SessionId, slot: usize) -> bool {
        let n = self.ledger.node(slot);
        let own = self
            .ledger
            .pinned
            .get(&sid)
            .is_some_and(|p| p.contains(&slot));
        n.users.is_empty() && n.pins == u64::from(own)
    }

    /// Drops `sid`'s reference from each node of `chain`.
    pub(super) fn release(&mut self, sid: SessionId, chain: &[usize]) {
        for &slot in chain {
            self.ledger.node_mut(slot).remove_user(sid);
        }
    }

    /// Takes node `slot` out of the system: releases every chain that
    /// references it (each session reports `how`), then reclaims it.
    fn expel(&mut self, now: Time, slot: usize, queue: &QueueView, how: Expulsion) {
        let tier = self.ledger.node(slot).placement;
        for sid in self.ledger.node(slot).users.clone() {
            let r = self
                .ledger
                .remove_session(sid)
                .expect("a node's users have stored chains");
            self.release(sid, &r.chain);
            self.stats.drops_capacity += 1;
            self.ledger.dedup.session_releases += 1;
            self.emit(match how {
                Expulsion::Evicted => StoreEvent::Evicted {
                    session: sid.0,
                    bytes: r.bytes,
                    tier,
                    window_pos: queue.position(sid),
                    instance: queue.owner(sid),
                    at: now,
                },
                Expulsion::Dropped => StoreEvent::Dropped {
                    session: sid.0,
                    bytes: r.bytes,
                    tier,
                    at: now,
                },
            });
        }
        self.reclaim(now, slot);
    }

    /// Frees one node's worth of space in `tier`: reclaims a dead node
    /// when there is one, else evicts the policy's victim out of the
    /// system (bottom tier) or demotes it one hop down (any other tier,
    /// which may cascade). Returns `false` when `tier` has nothing the
    /// policy may move.
    pub(super) fn push_down(
        &mut self,
        now: Time,
        tier: TierId,
        held: &[usize],
        pass: &mut Pass,
        out: &mut Vec<Transfer>,
    ) -> bool {
        if self.reclaim_dead_in(now, tier) {
            return true;
        }
        let Some(v) = self.victim(tier, pass, held) else {
            return false;
        };
        if tier == self.bottom_tier() {
            self.expel(now, v.slot, pass.queue, Expulsion::Evicted);
            true
        } else {
            self.demote(now, v.slot, held, pass, out)
        }
    }

    /// Frees space in `tier` until `bytes` fit, pushing nodes down hop
    /// by hop; pushes the demotion transfers onto `out`. Returns `false`
    /// when room cannot be made.
    pub(super) fn make_room_in(
        &mut self,
        now: Time,
        tier: TierId,
        bytes: u64,
        pass: &mut Pass,
        out: &mut Vec<Transfer>,
    ) -> bool {
        sim::scope!("store.make_room");
        let pool = &self.pools[tier.0];
        if pool.blocks_for(bytes) > pool.n_blocks() {
            return false;
        }
        while !self.pools[tier.0].fits(bytes) {
            if !self.push_down(now, tier, &[], pass, out) {
                return false;
            }
        }
        true
    }

    /// Demotes node `slot` one hop to the adjacent slower tier, making
    /// room there first (which may cascade further down), and pushes the
    /// demotion hop onto `out`. When the tier below cannot make room, the
    /// node is dropped out of the system instead. Returns `false` — with
    /// nothing freed — only when it can neither demote nor leave (a
    /// chain through it is mid-save or mid-use).
    pub(super) fn demote(
        &mut self,
        now: Time,
        slot: usize,
        held: &[usize],
        pass: &mut Pass,
        out: &mut Vec<Transfer>,
    ) -> bool {
        let (bytes, from) = {
            let n = self.ledger.node(slot);
            (n.bytes, n.placement)
        };
        let to = from.below();
        debug_assert!(to.0 < self.pools.len(), "bottom tier evicts, not demotes");
        while !self.pools[to.0].fits(bytes) {
            if !self.push_down(now, to, held, pass, out) {
                if !self.expellable(slot) {
                    return false;
                }
                self.expel(now, slot, pass.queue, Expulsion::Dropped);
                return true;
            }
        }
        let new_blocks = self.pools[to.0].alloc(bytes).expect("fit ensured above");
        let (old_blocks, owner) = {
            let mut node = self.ledger.node_mut(slot);
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
        self.emit(StoreEvent::Demoted {
            session: owner.0,
            bytes,
            from,
            to,
            instance: pass.queue.owner(owner),
            at: now,
        });
        out.push(Transfer {
            session: owner,
            bytes,
            from,
            to,
        });
        true
    }

    /// Demotes cold nodes until the configured tier-0 reserve is free
    /// again (§3.3.1's host-memory buffer). Dead nodes are reclaimed
    /// first. Stops — leaving the reserve short — when the victim has an
    /// in-window use: the reserve exists to absorb incoming saves and
    /// fetches, and demoting what a queued session is about to read
    /// would force the prefetcher to read it right back. A one-tier
    /// stack keeps no reserve: there is nowhere to demote to, and a save
    /// that needs room evicts instead.
    pub fn maintain_reserve(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer> {
        sim::scope!("store.reserve");
        let mut transfers = Vec::new();
        if self.bottom_tier() == TierId(0) {
            return transfers;
        }
        let reserve = (self.cfg.tiers[0].capacity as f64 * self.cfg.dram_reserve_fraction) as u64;
        let mut pass = Pass::new(queue);
        while self.pools[0].free_bytes() < reserve {
            if self.reclaim_dead_in(now, TierId(0)) {
                continue;
            }
            let freed = match self.victim(TierId(0), &mut pass, &[]) {
                Some(v) if v.next_use.is_none() => {
                    self.demote(now, v.slot, &[], &mut pass, &mut transfers)
                }
                _ => false,
            };
            if !freed {
                break;
            }
        }
        transfers
    }

    /// Shrinks `sid`'s cached KV to `new_bytes`/`new_tokens` in place
    /// (decoupled KV truncation, §3.4). No-op when not cached or when the
    /// chain is not actually shrinking; truncating to zero tokens leaves
    /// nothing cached.
    ///
    /// Truncation rewrites history in place, so the session's content
    /// forks from every chain it shared: bump the key's generation,
    /// release the old chain and rebuild the survivor prefix under the
    /// new (fully private) hashes — copy-on-divergence. Nodes only this
    /// session used are converted in place, keeping their tier, access
    /// time, insertion order and any pin of its own consult; shared
    /// nodes are copied into free space
    /// (never by evicting others — truncation is a bookkeeping shrink,
    /// not a capacity event).
    pub fn truncate(&mut self, sid: SessionId, new_bytes: u64, new_tokens: u64) {
        let Some(r) = self.ledger.session(sid) else {
            return;
        };
        if new_bytes >= r.bytes {
            return;
        }
        let now = r.last_access;
        let mut key = r.key;
        key.generation += 1;
        self.ledger.keys.insert(sid, key);
        let old = self.ledger.remove_session(sid).expect("checked above");
        // A chain corrupted at save time stays corrupt through truncation.
        let was_ok = old.checksum == metadata_checksum(sid, old.bytes, old.tokens);
        let old = old.chain;
        self.release(sid, &old);
        self.ledger.dedup.divergences += 1;
        self.emit_dedup(StoreEvent::BlockDiverged {
            session: sid.0,
            at_block: 0,
            released_blocks: old.len() as u64,
            at: now,
        });

        let desired = key.chain(new_tokens, self.chunk_tokens());
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
            if let Some(&hit) = self.ledger.by_hash.get(&ck.chain_hash) {
                let bytes = {
                    let mut n = self.ledger.node_mut(hit);
                    n.add_user(sid);
                    n.last_access = now;
                    n.owner_hint = sid;
                    n.bytes
                };
                self.ledger.dedup.dedup_blocks += 1;
                self.ledger.dedup.bytes_saved += bytes;
                chain.push(hit);
                covered_tokens += ck.tokens;
                covered_bytes += bytes;
                continue;
            }
            let bytes = Self::chunk_bytes(new_bytes, new_tokens, covered_tokens, ck.tokens);
            let exclusive = old.get(k).copied().filter(|&s| self.only_held_by(sid, s));
            let slot = if let Some(slot) = exclusive {
                // Convert in place: shrink-realloc within the node's tier.
                let (tier, old_hash, old_blocks) = {
                    let mut n = self.ledger.node_mut(slot);
                    (n.placement, n.chain_hash, std::mem::take(&mut n.blocks))
                };
                self.ledger.by_hash.remove(&old_hash);
                self.pools[tier.0]
                    .free(&old_blocks)
                    .expect("node blocks valid");
                let blocks = self.pools[tier.0]
                    .alloc(bytes)
                    .expect("shrinking realloc always fits");
                {
                    let mut n = self.ledger.node_mut(slot);
                    n.chain_hash = ck.chain_hash;
                    n.tokens = ck.tokens;
                    n.bytes = bytes;
                    n.blocks = blocks;
                    n.add_user(sid);
                }
                self.ledger.by_hash.insert(ck.chain_hash, slot);
                Some(slot)
            } else {
                // Shared (or pinned) node: copy into free space, first
                // tier that fits, fastest first.
                let tier = (0..self.pools.len())
                    .map(TierId)
                    .find(|t| self.pools[t.0].fits(bytes));
                tier.map(|tier| {
                    let blocks = self.pools[tier.0].alloc(bytes).expect("fits checked");
                    let seq = self.ledger.next_seq;
                    self.ledger.next_seq += 1;
                    self.ledger.insert_node(ChunkNode {
                        chain_hash: ck.chain_hash,
                        tokens: ck.tokens,
                        bytes,
                        placement: tier,
                        blocks,
                        users: vec![sid],
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
        // Old nodes beyond the survivor prefix that only this session
        // held are garbage now (its own consult's pin included); reclaim
        // them eagerly.
        for (k, &slot) in old.iter().enumerate() {
            if chain.get(k) == Some(&slot) || !self.only_held_by(sid, slot) {
                continue;
            }
            if let Some(pins) = self.ledger.pinned.get_mut(&sid) {
                if let Some(i) = pins.iter().position(|&p| p == slot) {
                    pins.swap_remove(i);
                    if pins.is_empty() {
                        self.ledger.pinned.remove(&sid);
                    }
                    self.ledger.node_mut(slot).pins -= 1;
                }
            }
            self.reclaim(now, slot);
        }
        if !chain.is_empty() {
            let good = metadata_checksum(sid, covered_bytes, covered_tokens);
            self.ledger.insert_session(
                sid,
                SessionRef {
                    chain,
                    tokens: covered_tokens,
                    bytes: covered_bytes,
                    key,
                    last_access: now,
                    checksum: if was_ok { good } else { good ^ 1 },
                },
            );
        }
    }

    /// Drops `sid`'s KV (context-overflow invalidation in OF mode, a
    /// degraded fetch, or an aborted session). The key's generation is
    /// bumped, as truncation does, so nothing of the old chain matches
    /// the session's next consult; nodes no other chain references leave
    /// the system at once.
    pub fn invalidate(&mut self, sid: SessionId) {
        self.unpin(sid);
        let Some(r) = self.ledger.remove_session(sid) else {
            return;
        };
        self.release(sid, &r.chain);
        for &slot in &r.chain {
            if self.ledger.node(slot).is_dead() {
                self.reclaim(r.last_access, slot);
            }
        }
        let mut key = r.key;
        key.generation += 1;
        self.ledger.keys.insert(sid, key);
        self.stats.drops_invalidated += 1;
    }

    /// Drops sessions idle longer than the TTL, then reclaims nodes that
    /// are both unreferenced and idle past it; returns how many sessions
    /// expired.
    pub fn expire(&mut self, now: Time) -> u64 {
        let Some(ttl) = self.cfg.ttl else {
            return 0;
        };
        let mark = self.trace_mark();
        let idle: Vec<SessionId> = self
            .ledger
            .sessions()
            .iter()
            .filter(|(sid, r)| {
                !self.ledger.pinned.contains_key(sid) && now.saturating_since(r.last_access) > ttl
            })
            .map(|(&sid, _)| sid)
            .collect();
        let n = idle.len() as u64;
        for sid in idle {
            let r = self.ledger.remove_session(sid).expect("listed above");
            self.release(sid, &r.chain);
            self.emit(StoreEvent::Expired {
                session: sid.0,
                at: now,
            });
        }
        self.stats.drops_ttl += n;
        let stale: Vec<usize> = (0..self.pools.len())
            .flat_map(|t| self.ledger.dead(TierId(t)))
            .filter(|&s| now.saturating_since(self.ledger.node(s).last_access) > ttl)
            .collect();
        for slot in stale {
            self.reclaim(now, slot);
        }
        self.emit_occupancy(mark, now);
        n
    }
}

/// The victim choices as whole-ledger scans: the reference the indexed
/// choices above are checked against.
#[cfg(test)]
impl AttentionStore {
    /// Next use of `slot` from first principles: every session whose
    /// stored chain holds it, and every chainless session whose
    /// registered shared span resolves to it, at its queue position.
    fn naive_next_use(&self, slot: usize, queue: &QueueView, window: usize) -> Option<usize> {
        let in_window = |sid: SessionId| queue.position(sid).filter(|&p| p < window);
        let chains = self
            .ledger
            .sessions()
            .iter()
            .filter(|(_, r)| r.chain.contains(&slot))
            .filter_map(|(&sid, _)| in_window(sid));
        let keys = self
            .ledger
            .keys
            .iter()
            .filter(|(sid, k)| self.ledger.session(**sid).is_none() && k.shared_tokens > 0)
            .filter(|(_, k)| {
                self.trie_walk(&k.chain(k.shared_tokens, self.chunk_tokens()))
                    .contains(&slot)
            })
            .filter_map(|(&sid, _)| in_window(sid));
        chains.chain(keys).min()
    }

    pub(super) fn naive_dead_victim(&self, tier: TierId) -> Option<usize> {
        self.ledger
            .live_slots()
            .filter(|&s| self.ledger.node(s).placement == tier && self.ledger.node(s).is_dead())
            .min_by_key(|&s| self.naive_order(s))
    }

    fn naive_order(&self, slot: usize) -> (Time, u64) {
        let n = self.ledger.node(slot);
        self.cfg.policy.order_key(n.last_access, n.insert_seq)
    }

    pub(super) fn naive_victim(
        &self,
        tier: TierId,
        queue: &QueueView,
        held: &[usize],
    ) -> Option<Victim> {
        let window = self.eviction_window();
        let cands: Vec<Victim> = self
            .ledger
            .live_slots()
            .filter(|&s| {
                let n = self.ledger.node(s);
                let bottom = tier == self.bottom_tier();
                let idle = || self.naive_users(s).iter().all(|&u| !self.is_pinned(u));
                n.placement == tier && n.pins == 0 && !held.contains(&s) && (!bottom || idle())
            })
            .map(|slot| Victim {
                slot,
                next_use: self.naive_next_use(slot, queue, window),
            })
            .collect();
        let first = |vs: &mut dyn Iterator<Item = &Victim>| {
            vs.min_by_key(|v| self.naive_order(v.slot)).copied()
        };
        if !self.cfg.policy.is_scheduler_aware() {
            return first(&mut cands.iter());
        }
        first(&mut cands.iter().filter(|v| v.next_use.is_none())).or_else(|| {
            let furthest = cands.iter().filter_map(|v| v.next_use).max()?;
            first(&mut cands.iter().filter(|v| v.next_use == Some(furthest)))
        })
    }

    /// The sessions whose stored chains reference `slot`, by scanning
    /// every chain.
    pub(super) fn naive_users(&self, slot: usize) -> Vec<SessionId> {
        self.ledger
            .sessions()
            .iter()
            .filter(|(_, r)| r.chain.contains(&slot))
            .map(|(&sid, _)| sid)
            .collect()
    }

    /// The users the ledger records for `slot`.
    pub(super) fn users_of(&self, slot: usize) -> &[SessionId] {
        &self.ledger.node(slot).users
    }
}
