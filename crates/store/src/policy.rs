//! Eviction policies: scheduler-aware (the paper's), LRU and FIFO.

use std::collections::HashMap;

use sim::Time;

use crate::SessionId;

/// A read-only view of the job scheduler's queue, head first.
///
/// The scheduler-aware schemes (§3.3) are built on exactly this: the queue
/// tells the store which sessions will be needed and in what order.
///
/// In a cluster, the view is *merged* across every instance's queue (see
/// the engine's `ClusterSim`); [`QueueView::with_owners`] additionally
/// records which serving instance each queued session belongs to, so the
/// store can attribute tier transfers per instance.
#[derive(Default)]
pub struct QueueView {
    order: Vec<SessionId>,
    /// Each queued session's earliest position, and the instance whose
    /// queue holds it there when the view was built with owners.
    slots: HashMap<SessionId, (usize, Option<u32>)>,
}

impl QueueView {
    /// Builds a view from the queue's session order (head first). When a
    /// session appears more than once, its earliest position wins.
    pub fn new(order: &[SessionId]) -> Self {
        let mut slots = HashMap::with_capacity(order.len());
        for (i, &sid) in order.iter().enumerate() {
            slots.entry(sid).or_insert((i, None));
        }
        QueueView {
            order: order.to_vec(),
            slots,
        }
    }

    /// Builds a view that also records the owning serving instance of
    /// each queued session. `owners[i]` is the instance whose queue holds
    /// `order[i]`; like positions, a duplicated session keeps the owner of
    /// its earliest occurrence.
    ///
    /// # Panics
    ///
    /// Panics when `order` and `owners` differ in length.
    pub fn with_owners(order: &[SessionId], owners: &[u32]) -> Self {
        let mut view = QueueView::empty();
        view.rebuild(order, owners);
        view
    }

    /// An empty queue (what LRU/FIFO effectively see).
    pub fn empty() -> Self {
        QueueView::default()
    }

    /// Rebuilds this view in place from a fresh `order`/`owners` pair,
    /// reusing the retained allocations: [`QueueView::with_owners`]
    /// without the allocation. This is the cluster's per-store-
    /// consultation hot path (`ClusterSim::merged_view` rebuilds a
    /// scratch view).
    ///
    /// # Panics
    ///
    /// Panics when `order` and `owners` differ in length.
    pub fn rebuild(&mut self, order: &[SessionId], owners: &[u32]) {
        assert_eq!(order.len(), owners.len(), "one owner per queued session");
        self.order.clear();
        self.order.extend_from_slice(order);
        self.slots.clear();
        for (i, (&sid, &inst)) in order.iter().zip(owners).enumerate() {
            self.slots.entry(sid).or_insert((i, Some(inst)));
        }
    }

    /// Returns the queue position of `sid` (0 = head), if present.
    pub fn position(&self, sid: SessionId) -> Option<usize> {
        self.slots.get(&sid).map(|&(pos, _)| pos)
    }

    /// Returns the serving instance whose queue holds `sid`, when the
    /// view was built with owner attribution and `sid` is queued.
    pub fn owner(&self, sid: SessionId) -> Option<u32> {
        self.slots.get(&sid).and_then(|&(_, owner)| owner)
    }

    /// Returns the number of queued jobs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates the first `window` queued sessions, head first.
    pub fn head(&self, window: usize) -> impl Iterator<Item = SessionId> + '_ {
        self.order.iter().copied().take(window)
    }
}

/// Which eviction policy an [`crate::AttentionStore`] runs.
///
/// Every policy ranks a tier's unpinned nodes in one order — least
/// recently used first, or earliest inserted first for FIFO — and the
/// store walks that order for victims.
/// Only the scheduler-aware policy also looks at the queue: it passes
/// over nodes a session inside the look-ahead eviction window will read,
/// and runs the look-ahead prefetcher (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's look-ahead policy (§3.3.2) with prefetching (§3.3.1).
    SchedulerAware,
    /// Least-recently-used baseline.
    Lru,
    /// First-in-first-out baseline.
    Fifo,
}

impl PolicyKind {
    /// Whether victim choice consults the queue and the store runs the
    /// look-ahead prefetcher. History-only baselines (LRU/FIFO, Figure
    /// 21) see no queue and never prefetch.
    pub fn is_scheduler_aware(self) -> bool {
        self == PolicyKind::SchedulerAware
    }

    /// A node's key in its tier's victim order, first victim first:
    /// least recently used (ties by insertion) for the scheduler-aware
    /// and LRU policies, earliest inserted for FIFO.
    pub(crate) fn order_key(self, last_access: Time, insert_seq: u64) -> (Time, u64) {
        match self {
            PolicyKind::Fifo => (Time::ZERO, insert_seq),
            PolicyKind::SchedulerAware | PolicyKind::Lru => (last_access, insert_seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_matches_with_owners_and_reuses_buffers() {
        let order = [SessionId(5), SessionId(6), SessionId(5), SessionId(7)];
        let owners = [1u32, 0, 2, 1];
        let fresh = QueueView::with_owners(&order, &owners);
        let mut reused = QueueView::default();
        // Rebuild over stale content to prove the clear is complete.
        reused.rebuild(&[SessionId(99)], &[9]);
        reused.rebuild(&order, &owners);
        assert_eq!(reused.len(), fresh.len());
        assert_eq!(
            reused.head(10).collect::<Vec<_>>(),
            fresh.head(10).collect::<Vec<_>>()
        );
        for &sid in &[SessionId(5), SessionId(6), SessionId(7), SessionId(99)] {
            assert_eq!(reused.position(sid), fresh.position(sid));
            assert_eq!(reused.owner(sid), fresh.owner(sid));
        }
        // Duplicates keep the earliest occurrence's position and owner.
        assert_eq!(reused.position(SessionId(5)), Some(0));
        assert_eq!(reused.owner(SessionId(5)), Some(1));
    }

    #[test]
    fn queue_view_duplicate_sessions_keep_earliest_position() {
        let q = QueueView::new(&[SessionId(5), SessionId(6), SessionId(5)]);
        assert_eq!(q.position(SessionId(5)), Some(0));
        assert_eq!(q.len(), 3);
        assert_eq!(
            q.head(2).collect::<Vec<_>>(),
            vec![SessionId(5), SessionId(6)]
        );
    }
}
