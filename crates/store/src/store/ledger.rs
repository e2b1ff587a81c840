//! The block ledger's storage: the node slab, the prefix trie, the
//! session chains and the victim index the placement paths walk.
//!
//! Every victim choice asks for "the unpinned nodes of tier `t`, in the
//! policy's order" (demotion, prefetch, reserve and bottom-tier victims)
//! or "… that are unreferenced as well" (refcounted eviction). The ledger
//! keeps two ordered sets per tier, keyed by the policy's order key
//! ([`PolicyKind::order_key`]) then the slot: `unpinned` holds the nodes
//! with `pins == 0`, `dead` the nodes with no users and no pins. The
//! order key ends in the unique `insert_seq`, so walking a set in order
//! visits the nodes in exactly the order a `min_by_key` over that key
//! ranks them.
//!
//! The sets are correct by construction: the slab is private to this
//! module, [`BlockLedger::insert_node`] and [`BlockLedger::take_node`]
//! are the only ways into and out of it, and [`BlockLedger::node_mut`]
//! is the only write path — its [`NodeMut`] guard re-keys the node on
//! drop when its tier, pin/user state or order key changed. Likewise the
//! session map is private, so the running byte total behind
//! [`BlockLedger::avg_session_bytes`] moves with every chain inserted or
//! removed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::{Deref, DerefMut};

use sim::Time;

use crate::chain::{ContentKey, DedupStats};
use crate::{BlockId, PolicyKind, SessionId, TierId};

/// One stored chunk of KV, shared by every chain that references it.
pub(super) struct ChunkNode {
    pub(super) chain_hash: u64,
    pub(super) tokens: u64,
    pub(super) bytes: u64,
    pub(super) placement: TierId,
    pub(super) blocks: Vec<BlockId>,
    /// Sessions whose chain references this node, ascending: the
    /// node's refcount is their number. A save in flight counts its
    /// session here before its chain is stored.
    pub(super) users: Vec<SessionId>,
    /// In-flight consults holding this node (exempt from movement).
    pub(super) pins: u64,
    pub(super) last_access: Time,
    pub(super) insert_seq: u64,
    /// Last session to save or match this node; used to attribute tier
    /// transfers when the node itself moves.
    pub(super) owner_hint: SessionId,
}

impl ChunkNode {
    /// Unreferenced and unpinned: reclaimable out of the system.
    pub(super) fn is_dead(&self) -> bool {
        self.users.is_empty() && self.pins == 0
    }

    /// Counts `sid` as a user of this node.
    pub(super) fn add_user(&mut self, sid: SessionId) {
        if let Err(i) = self.users.binary_search(&sid) {
            self.users.insert(i, sid);
        }
    }

    /// Stops counting `sid` as a user of this node.
    pub(super) fn remove_user(&mut self, sid: SessionId) {
        if let Ok(i) = self.users.binary_search(&sid) {
            self.users.remove(i);
        }
    }
}

/// One session's view of the ledger: an ordered chain of node slots.
pub(super) struct SessionRef {
    pub(super) chain: Vec<usize>,
    pub(super) tokens: u64,
    pub(super) bytes: u64,
    pub(super) key: ContentKey,
    /// Last save, consult or prefetch of the chain (the TTL clock).
    pub(super) last_access: Time,
    /// Integrity checksum over `(session, bytes, tokens)`, written at
    /// save time and verified on a fallible consult.
    pub(super) checksum: u64,
}

/// A node's rank in a victim set: the policy's order key, then the slot
/// it lives in.
type Rank = ((Time, u64), usize);

/// Where a node sits in the victim index.
#[derive(Clone, Copy, PartialEq, Eq)]
struct IndexKey {
    tier: usize,
    rank: Rank,
    unpinned: bool,
    dead: bool,
}

impl IndexKey {
    fn of(node: &ChunkNode, slot: usize, policy: PolicyKind) -> Self {
        IndexKey {
            tier: node.placement.0,
            rank: (policy.order_key(node.last_access, node.insert_seq), slot),
            unpinned: node.pins == 0,
            dead: node.is_dead(),
        }
    }
}

/// Per-tier victim sets, grown on first use of a tier.
#[derive(Default)]
struct VictimIndex {
    /// Nodes with `pins == 0`, in the policy's order.
    unpinned: Vec<BTreeSet<Rank>>,
    /// Nodes with no users and no pins, in the policy's order.
    dead: Vec<BTreeSet<Rank>>,
}

impl VictimIndex {
    fn insert(&mut self, k: IndexKey) {
        fn set(sets: &mut Vec<BTreeSet<Rank>>, tier: usize) -> &mut BTreeSet<Rank> {
            if sets.len() <= tier {
                sets.resize_with(tier + 1, BTreeSet::new);
            }
            &mut sets[tier]
        }
        if k.unpinned {
            set(&mut self.unpinned, k.tier).insert(k.rank);
        }
        if k.dead {
            set(&mut self.dead, k.tier).insert(k.rank);
        }
    }

    fn remove(&mut self, k: IndexKey) {
        if k.unpinned {
            self.unpinned[k.tier].remove(&k.rank);
        }
        if k.dead {
            self.dead[k.tier].remove(&k.rank);
        }
    }
}

/// Slots of one victim set, first victim first.
fn in_order(sets: &[BTreeSet<Rank>], tier: TierId) -> impl Iterator<Item = usize> + '_ {
    sets.get(tier.0)
        .into_iter()
        .flatten()
        .map(|&(_, slot)| slot)
}

/// Write access to one node. Dropping the guard re-keys the node in the
/// victim index when its tier, pin/user state or order key changed.
pub(super) struct NodeMut<'a> {
    node: &'a mut ChunkNode,
    index: &'a mut VictimIndex,
    policy: PolicyKind,
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
        let after = IndexKey::of(self.node, self.before.rank.1, self.policy);
        if after != self.before {
            self.index.remove(self.before);
            self.index.insert(after);
        }
    }
}

/// The store's contents: chunk nodes and the session chains over them.
pub(in crate::store) struct BlockLedger {
    policy: PolicyKind,
    /// Slab of nodes; `None` slots are free for reuse.
    nodes: Vec<Option<ChunkNode>>,
    free_slots: Vec<usize>,
    index: VictimIndex,
    /// chain hash → slot: the prefix trie.
    pub(super) by_hash: HashMap<u64, usize>,
    sessions: BTreeMap<SessionId, SessionRef>,
    /// Σ `bytes` over `sessions`.
    session_bytes: u64,
    /// Content keys registered before a session's first save, and keys
    /// whose generation a truncation or invalidation bumped.
    pub(super) keys: BTreeMap<SessionId, ContentKey>,
    /// Chains pinned by in-flight consults.
    pub(super) pinned: BTreeMap<SessionId, Vec<usize>>,
    pub(super) next_seq: u64,
    pub(super) dedup: DedupStats,
    /// Bumped whenever a node or a chain enters or leaves: derived views
    /// of the ledger (a pass's next-use map) stay valid while it holds.
    epoch: u64,
}

impl BlockLedger {
    /// An empty ledger ordering its victims by `policy`.
    pub(super) fn new(policy: PolicyKind) -> Self {
        BlockLedger {
            policy,
            nodes: Vec::new(),
            free_slots: Vec::new(),
            index: VictimIndex::default(),
            by_hash: HashMap::new(),
            sessions: BTreeMap::new(),
            session_bytes: 0,
            keys: BTreeMap::new(),
            pinned: BTreeMap::new(),
            next_seq: 0,
            dedup: DedupStats::default(),
            epoch: 0,
        }
    }

    /// The ledger's shape version (see the `epoch` field).
    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(super) fn node(&self, slot: usize) -> &ChunkNode {
        self.nodes[slot].as_ref().expect("slot is live")
    }

    /// The node in `slot`, or `None` when the slot is free or out of range.
    pub(super) fn get(&self, slot: usize) -> Option<&ChunkNode> {
        self.nodes.get(slot).and_then(Option::as_ref)
    }

    pub(super) fn node_mut(&mut self, slot: usize) -> NodeMut<'_> {
        let node = self.nodes[slot].as_mut().expect("slot is live");
        let before = IndexKey::of(node, slot, self.policy);
        NodeMut {
            node,
            index: &mut self.index,
            policy: self.policy,
            before,
        }
    }

    pub(super) fn insert_node(&mut self, node: ChunkNode) -> usize {
        self.epoch += 1;
        let slot = self.free_slots.pop().unwrap_or(self.nodes.len());
        self.index.insert(IndexKey::of(&node, slot, self.policy));
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
        self.epoch += 1;
        let node = self.nodes[slot].take().expect("slot is live");
        self.index.remove(IndexKey::of(&node, slot, self.policy));
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

    /// Unpinned nodes of `tier`, first victim first.
    pub(super) fn unpinned(&self, tier: TierId) -> impl Iterator<Item = usize> + '_ {
        in_order(&self.index.unpinned, tier)
    }

    /// Dead nodes (no users, no pins) of `tier`, first victim first.
    pub(super) fn dead(&self, tier: TierId) -> impl Iterator<Item = usize> + '_ {
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

    /// Stores `sid`'s chain, replacing any previous one. The chain's
    /// nodes must already count `sid` among their users.
    pub(super) fn insert_session(&mut self, sid: SessionId, r: SessionRef) {
        self.epoch += 1;
        self.session_bytes += r.bytes;
        if let Some(old) = self.sessions.insert(sid, r) {
            self.session_bytes -= old.bytes;
        }
    }

    /// Takes `sid`'s chain record out of the map. Its nodes still count
    /// `sid` as a user until the caller releases them.
    pub(super) fn remove_session(&mut self, sid: SessionId) -> Option<SessionRef> {
        let r = self.sessions.remove(&sid)?;
        self.epoch += 1;
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
            fresh.insert(IndexKey::of(self.node(slot), slot, self.policy));
        }
        let same = |a: &[BTreeSet<Rank>], b: &[BTreeSet<Rank>]| {
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
