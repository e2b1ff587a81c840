//! Tier placement: victim selection, hop-by-adjacent-tier demotion,
//! bottom-tier eviction and the entry lifecycle operations (reserve
//! maintenance, truncate, invalidate, expire).

use sim::Time;

use crate::events::StoreEvent;
use crate::{Entry, QueueView, SessionId, TierId};

use super::{AttentionStore, Transfer};

impl AttentionStore {
    /// Unpinned candidates of one tier, sorted by session id for
    /// deterministic policy input.
    fn candidates(&self, tier: TierId, exclude: Option<SessionId>) -> Vec<(SessionId, &Entry)> {
        self.entries
            .iter()
            .filter(|(sid, e)| e.placement == tier && !e.pinned && Some(**sid) != exclude)
            .map(|(&sid, e)| (sid, e))
            .collect()
    }

    /// Drops `sid` entirely, freeing its blocks.
    pub(super) fn drop_entry(&mut self, sid: SessionId) {
        if let Some(e) = self.entries.remove(&sid) {
            self.entry_bytes -= e.bytes;
            self.pools[e.placement.0]
                .free(&e.blocks)
                .expect("entry blocks are valid");
        }
    }

    /// Evicts one entry out of `tier` (out of the system). Only the
    /// stack's bottom tier evicts; fuller tiers above push entries down
    /// instead. Returns `false` when no candidate exists.
    pub(super) fn evict_from_tier(
        &mut self,
        now: Time,
        tier: TierId,
        queue: &QueueView,
        exclude: Option<SessionId>,
    ) -> bool {
        let window = self.eviction_window();
        let cands = self.candidates(tier, exclude);
        let Some(victim) = self.policy.choose_victim(&cands, queue, window) else {
            return false;
        };
        let bytes = self.entries[&victim].bytes;
        self.drop_entry(victim);
        self.stats.drops_capacity += 1;
        self.emit(StoreEvent::Evicted {
            session: victim.0,
            bytes,
            tier,
            window_pos: queue.position(victim),
            instance: queue.owner(victim),
            at: now,
        });
        true
    }

    /// Picks the entry of `tier` the policy would demote next.
    pub(super) fn choose_victim_in(
        &self,
        tier: TierId,
        queue: &QueueView,
        exclude: Option<SessionId>,
    ) -> Option<SessionId> {
        let window = self.eviction_window();
        let cands = self.candidates(tier, exclude);
        self.policy.choose_victim(&cands, queue, window)
    }

    /// Frees space in `tier` by one entry: the bottom tier evicts out of
    /// the system, any other tier demotes a victim one hop down (which
    /// may cascade further). Returns `false` when `tier` has no eligible
    /// victim; `true` means space was freed (the victim was demoted or,
    /// failing that, dropped).
    pub(super) fn push_down_from(
        &mut self,
        now: Time,
        tier: TierId,
        queue: &QueueView,
        exclude: Option<SessionId>,
        out: &mut Vec<Transfer>,
    ) -> bool {
        if tier == self.bottom_tier() {
            return self.evict_from_tier(now, tier, queue, exclude);
        }
        let Some(victim) = self.choose_victim_in(tier, queue, exclude) else {
            return false;
        };
        // Demoted or dropped, the victim's blocks left `tier` either way.
        self.demote_session(now, victim, queue, exclude, out);
        true
    }

    /// Demotes `victim` one hop to the adjacent slower tier (or out of
    /// the system when no tier below can make room). Returns `true` and
    /// pushes the demotion hop onto `out` when the entry moved; `false`
    /// means it was dropped instead. `exclude` protects a session being
    /// staged by the caller from being evicted along the cascade.
    pub(super) fn demote_session(
        &mut self,
        now: Time,
        victim: SessionId,
        queue: &QueueView,
        exclude: Option<SessionId>,
        out: &mut Vec<Transfer>,
    ) -> bool {
        let bytes = self.entries[&victim].bytes;
        let from = self.entries[&victim].placement;
        let to = from.below();
        debug_assert!(to.0 < self.pools.len(), "bottom tier evicts, not demotes");
        // Make room one tier down; cascade further demotions/evictions if
        // necessary.
        while !self.pools[to.0].fits(bytes) {
            if !self.push_down_from(now, to, queue, exclude, out) {
                // The tier below cannot hold this entry at all: drop it.
                self.drop_entry(victim);
                self.stats.drops_capacity += 1;
                self.emit(StoreEvent::Dropped {
                    session: victim.0,
                    bytes,
                    tier: from,
                    at: now,
                });
                return false;
            }
        }
        let new_blocks = self.pools[to.0].alloc(bytes).expect("fit ensured above");
        let e = self.entries.get_mut(&victim).expect("victim exists");
        let old_blocks = std::mem::replace(&mut e.blocks, new_blocks);
        e.placement = to;
        self.pools[from.0]
            .free(&old_blocks)
            .expect("blocks were in the source tier");
        self.stats.demotions += 1;
        self.stats.demotion_bytes += bytes;
        self.emit(StoreEvent::Demoted {
            session: victim.0,
            bytes,
            from,
            to,
            instance: queue.owner(victim),
            at: now,
        });
        out.push(Transfer {
            session: victim,
            bytes,
            from,
            to,
        });
        true
    }

    /// Frees space in `tier` until `bytes` fit, demoting victims hop by
    /// hop; pushes the demotion transfers onto `out`. Returns `false`
    /// when room cannot be made.
    pub(super) fn make_room_in(
        &mut self,
        now: Time,
        tier: TierId,
        bytes: u64,
        queue: &QueueView,
        exclude: Option<SessionId>,
        out: &mut Vec<Transfer>,
    ) -> bool {
        sim::scope!("store.make_room");
        let pool = &self.pools[tier.0];
        if pool.blocks_for(bytes) > pool.n_blocks() {
            return false;
        }
        while !self.pools[tier.0].fits(bytes) {
            let Some(victim) = self.choose_victim_in(tier, queue, exclude) else {
                return false;
            };
            self.demote_session(now, victim, queue, exclude, out);
        }
        true
    }

    /// Demotes cold entries until the configured tier-0 reserve is free
    /// again (§3.3.1's host-memory buffer).
    ///
    /// Only entries *outside* the look-ahead window are demoted here: the
    /// reserve exists to absorb incoming saves and fetches, and demoting a
    /// queued session would force the prefetcher to read it right back.
    pub fn maintain_reserve(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer> {
        sim::scope!("store.reserve");
        if self.cfg.keying == crate::KeyingMode::ContentAddressed {
            return self.ca_maintain_reserve(now, queue);
        }
        let reserve = (self.cfg.tiers[0].capacity as f64 * self.cfg.dram_reserve_fraction) as u64;
        let window = self.eviction_window();
        let mut transfers = Vec::new();
        while self.pools[0].free_bytes() < reserve {
            let Some(victim) = self.choose_victim_in(TierId(0), queue, None) else {
                break;
            };
            if queue.position(victim).is_some_and(|vp| vp < window) {
                break;
            }
            self.demote_session(now, victim, queue, None, &mut transfers);
        }
        transfers
    }

    /// Shrinks `sid`'s cached KV to `new_bytes`/`new_tokens` in place
    /// (decoupled KV truncation, §3.4). No-op when not cached or when the
    /// entry is not actually shrinking.
    pub fn truncate(&mut self, sid: SessionId, new_bytes: u64, new_tokens: u64) {
        if self.cfg.keying == crate::KeyingMode::ContentAddressed {
            return self.ca_truncate(sid, new_bytes, new_tokens);
        }
        let Some(e) = self.entries.get(&sid) else {
            return;
        };
        if new_bytes >= e.bytes {
            return;
        }
        let placement = e.placement;
        let was_ok = e.integrity_ok(sid);
        let pool = &mut self.pools[placement.0];
        let old = self.entries.get_mut(&sid).expect("checked above");
        let old_blocks = std::mem::take(&mut old.blocks);
        pool.free(&old_blocks).expect("entry blocks valid");
        let blocks = pool
            .alloc(new_bytes)
            .expect("shrinking realloc always fits");
        let e = self.entries.get_mut(&sid).expect("checked above");
        self.entry_bytes -= e.bytes - new_bytes;
        e.blocks = blocks;
        e.bytes = new_bytes;
        e.tokens = new_tokens;
        // Re-stamp the integrity checksum for the new metadata; an entry
        // corrupted at save time stays corrupt through truncation.
        let good = Entry::metadata_checksum(sid, new_bytes, new_tokens);
        e.checksum = if was_ok { good } else { good ^ 1 };
    }

    /// Drops `sid`'s KV (context-overflow invalidation in OF mode, or an
    /// aborted session).
    pub fn invalidate(&mut self, sid: SessionId) {
        if self.cfg.keying == crate::KeyingMode::ContentAddressed {
            return self.ca_invalidate(sid);
        }
        if self.entries.contains_key(&sid) {
            self.drop_entry(sid);
            self.stats.drops_invalidated += 1;
        }
    }

    /// Drops entries idle longer than the TTL; returns how many expired.
    pub fn expire(&mut self, now: Time) -> u64 {
        if self.cfg.keying == crate::KeyingMode::ContentAddressed {
            return self.ca_expire(now);
        }
        let Some(ttl) = self.cfg.ttl else {
            return 0;
        };
        let dead: Vec<SessionId> = self
            .entries
            .iter()
            .filter(|(_, e)| !e.pinned && now.saturating_since(e.last_access) > ttl)
            .map(|(&sid, _)| sid)
            .collect();
        let n = dead.len() as u64;
        let mark = self.trace_mark();
        for sid in dead {
            self.drop_entry(sid);
            self.emit(StoreEvent::Expired {
                session: sid.0,
                at: now,
            });
        }
        self.stats.drops_ttl += n;
        self.emit_occupancy(mark, now);
        n
    }
}
