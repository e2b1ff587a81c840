//! The block ledger's storage: the node slab, the prefix trie, the
//! session chains and the victim index the placement paths walk.
//!
//! Every victim choice of the content-addressed store asks for "the
//! least-recently-used node of tier `t` that is unpinned" (demotion,
//! prefetch and reserve victims) or "… that is unreferenced as well"
//! (refcounted eviction). Scanning the slab for each made every demotion
//! O(live nodes). The ledger instead keeps two ordered sets per tier,
//! keyed `(last_access, insert_seq, slot)`: `unpinned` holds the nodes
//! with `pins == 0`, `dead` the nodes with `refs == 0 && pins == 0`.
//! `insert_seq` is unique per node, so walking a set in order visits the
//! nodes in exactly the order a `min_by_key` over that key ranks them.
//!
//! The sets are correct by construction: the slab is private to this
//! module, [`BlockLedger::insert_node`] and [`BlockLedger::take_node`]
//! are the only ways into and out of it, and [`BlockLedger::node_mut`]
//! is the only write path — its [`NodeMut`] guard re-keys the node on
//! drop when its tier, pin/ref state or LRU key changed. Likewise the
//! session map is private, so the running byte total behind
//! [`BlockLedger::avg_session_bytes`] moves with every chain inserted or
//! removed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::{Deref, DerefMut};

use sim::Time;

use crate::chain::{ContentKey, DedupStats};
use crate::{BlockId, SessionId, TierId};

/// One stored chunk of KV, shared by every chain that references it.
pub(super) struct ChunkNode {
    pub(super) chain_hash: u64,
    pub(super) tokens: u64,
    pub(super) bytes: u64,
    pub(super) placement: TierId,
    pub(super) blocks: Vec<BlockId>,
    /// Saved chains referencing this node.
    pub(super) refs: u64,
    /// In-flight consults holding this node (exempt from movement).
    pub(super) pins: u64,
    pub(super) last_access: Time,
    pub(super) insert_seq: u64,
    /// Last session to save or match this node; used to attribute tier
    /// transfers when the node itself moves.
    pub(super) owner_hint: SessionId,
}

/// One session's view of the ledger: an ordered chain of node slots.
pub(super) struct SessionRef {
    pub(super) chain: Vec<usize>,
    pub(super) tokens: u64,
    pub(super) bytes: u64,
    pub(super) key: ContentKey,
    pub(super) last_access: Time,
    pub(super) insert_seq: u64,
}

/// A node's rank in a victim set: LRU order, ties broken by the unique
/// insertion sequence, then the slot it lives in.
type Lru = (Time, u64, usize);

/// Where a node sits in the victim index.
#[derive(Clone, Copy, PartialEq, Eq)]
struct IndexKey {
    tier: usize,
    lru: Lru,
    unpinned: bool,
    dead: bool,
}

impl IndexKey {
    fn of(node: &ChunkNode, slot: usize) -> Self {
        IndexKey {
            tier: node.placement.0,
            lru: (node.last_access, node.insert_seq, slot),
            unpinned: node.pins == 0,
            dead: node.pins == 0 && node.refs == 0,
        }
    }
}

/// Per-tier victim sets, grown on first use of a tier.
#[derive(Default)]
struct VictimIndex {
    /// Nodes with `pins == 0`, in LRU order.
    unpinned: Vec<BTreeSet<Lru>>,
    /// Nodes with `refs == 0 && pins == 0`, in LRU order.
    dead: Vec<BTreeSet<Lru>>,
}

impl VictimIndex {
    fn insert(&mut self, k: IndexKey) {
        fn set(sets: &mut Vec<BTreeSet<Lru>>, tier: usize) -> &mut BTreeSet<Lru> {
            if sets.len() <= tier {
                sets.resize_with(tier + 1, BTreeSet::new);
            }
            &mut sets[tier]
        }
        if k.unpinned {
            set(&mut self.unpinned, k.tier).insert(k.lru);
        }
        if k.dead {
            set(&mut self.dead, k.tier).insert(k.lru);
        }
    }

    fn remove(&mut self, k: IndexKey) {
        if k.unpinned {
            self.unpinned[k.tier].remove(&k.lru);
        }
        if k.dead {
            self.dead[k.tier].remove(&k.lru);
        }
    }
}

/// Slots of one victim set, least recently used first.
fn in_order(sets: &[BTreeSet<Lru>], tier: TierId) -> impl Iterator<Item = usize> + '_ {
    sets.get(tier.0)
        .into_iter()
        .flatten()
        .map(|&(_, _, slot)| slot)
}

/// Write access to one node. Dropping the guard re-keys the node in the
/// victim index when its tier, pin/ref state or LRU key changed.
pub(super) struct NodeMut<'a> {
    node: &'a mut ChunkNode,
    index: &'a mut VictimIndex,
    before: IndexKey,
}

impl Deref for NodeMut<'_> {
    type Target = ChunkNode;

    fn deref(&self) -> &ChunkNode {
        self.node
    }
}

impl DerefMut for NodeMut<'_> {
    fn deref_mut(&mut self) -> &mut ChunkNode {
        self.node
    }
}

impl Drop for NodeMut<'_> {
    fn drop(&mut self) {
        let after = IndexKey::of(self.node, self.before.lru.2);
        if after != self.before {
            self.index.remove(self.before);
            self.index.insert(after);
        }
    }
}

/// The shared-block side of the store (empty and inert in per-session
/// mode).
#[derive(Default)]
pub(in crate::store) struct BlockLedger {
    /// Slab of nodes; `None` slots are free for reuse.
    nodes: Vec<Option<ChunkNode>>,
    free_slots: Vec<usize>,
    index: VictimIndex,
    /// chain hash → slot: the prefix trie.
    pub(super) by_hash: HashMap<u64, usize>,
    sessions: BTreeMap<SessionId, SessionRef>,
    /// Σ `bytes` over `sessions`.
    session_bytes: u64,
    /// Content keys registered before a session's first save.
    pub(super) keys: BTreeMap<SessionId, ContentKey>,
    /// Chains pinned by in-flight consults.
    pub(super) pinned: BTreeMap<SessionId, Vec<usize>>,
    pub(super) next_seq: u64,
    pub(super) dedup: DedupStats,
}

impl BlockLedger {
    pub(super) fn node(&self, slot: usize) -> &ChunkNode {
        self.nodes[slot].as_ref().expect("slot is live")
    }

    /// The node in `slot`, or `None` when the slot is free or out of range.
    pub(super) fn get(&self, slot: usize) -> Option<&ChunkNode> {
        self.nodes.get(slot).and_then(Option::as_ref)
    }

    pub(super) fn node_mut(&mut self, slot: usize) -> NodeMut<'_> {
        let node = self.nodes[slot].as_mut().expect("slot is live");
        let before = IndexKey::of(node, slot);
        NodeMut {
            node,
            index: &mut self.index,
            before,
        }
    }

    pub(super) fn insert_node(&mut self, node: ChunkNode) -> usize {
        let slot = self.free_slots.pop().unwrap_or(self.nodes.len());
        self.index.insert(IndexKey::of(&node, slot));
        self.by_hash.insert(node.chain_hash, slot);
        if slot == self.nodes.len() {
            self.nodes.push(Some(node));
        } else {
            self.nodes[slot] = Some(node);
        }
        slot
    }

    /// Removes `slot`'s node from the slab, the trie and the index.
    pub(super) fn take_node(&mut self, slot: usize) -> ChunkNode {
        let node = self.nodes[slot].take().expect("slot is live");
        self.index.remove(IndexKey::of(&node, slot));
        self.by_hash.remove(&node.chain_hash);
        self.free_slots.push(slot);
        node
    }

    /// Live slots, ascending (deterministic iteration order).
    pub(super) fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| i))
    }

    /// Unpinned nodes of `tier`, least recently used first: the reserve
    /// victim is the first.
    pub(in crate::store) fn unpinned(&self, tier: TierId) -> impl Iterator<Item = usize> + '_ {
        in_order(&self.index.unpinned, tier)
    }

    /// Dead nodes (`refs == 0`, `pins == 0`) of `tier`, least recently
    /// used first: the refcounted-eviction victim is the first.
    pub(in crate::store) fn dead(&self, tier: TierId) -> impl Iterator<Item = usize> + '_ {
        in_order(&self.index.dead, tier)
    }

    pub(super) fn sessions(&self) -> &BTreeMap<SessionId, SessionRef> {
        &self.sessions
    }

    pub(super) fn session(&self, sid: SessionId) -> Option<&SessionRef> {
        self.sessions.get(&sid)
    }

    /// Stamps `sid`'s chain as accessed at `now`.
    pub(super) fn touch_session(&mut self, sid: SessionId, now: Time) {
        if let Some(r) = self.sessions.get_mut(&sid) {
            r.last_access = now;
        }
    }

    /// Stores `sid`'s chain, replacing any previous one.
    pub(super) fn insert_session(&mut self, sid: SessionId, r: SessionRef) {
        self.session_bytes += r.bytes;
        if let Some(old) = self.sessions.insert(sid, r) {
            self.session_bytes -= old.bytes;
        }
    }

    pub(super) fn remove_session(&mut self, sid: SessionId) -> Option<SessionRef> {
        let r = self.sessions.remove(&sid)?;
        self.session_bytes -= r.bytes;
        Some(r)
    }

    /// Mean stored bytes per chain; `None` when no chain is stored.
    pub(super) fn avg_session_bytes(&self) -> Option<u64> {
        let n = self.sessions.len() as u64;
        (n > 0).then(|| self.session_bytes / n)
    }

    /// Checks the victim index and the running byte total against a
    /// fresh rebuild from the slab and the session map.
    pub(super) fn check_derived(&self) -> Result<(), String> {
        let mut fresh = VictimIndex::default();
        for slot in self.live_slots() {
            fresh.insert(IndexKey::of(self.node(slot), slot));
        }
        let same = |a: &[BTreeSet<Lru>], b: &[BTreeSet<Lru>]| {
            let empty = BTreeSet::new();
            (0..a.len().max(b.len()))
                .all(|t| a.get(t).unwrap_or(&empty) == b.get(t).unwrap_or(&empty))
        };
        if !same(&self.index.unpinned, &fresh.unpinned) {
            return Err("unpinned index differs from a rebuild from the slab".into());
        }
        if !same(&self.index.dead, &fresh.dead) {
            return Err("dead index differs from a rebuild from the slab".into());
        }
        let total: u64 = self.sessions.values().map(|r| r.bytes).sum();
        if total != self.session_bytes {
            return Err(format!(
                "running chain bytes {} but chains sum to {total}",
                self.session_bytes
            ));
        }
        Ok(())
    }
}
