//! Scheduling stage: the job queue and the admission predicates.
//!
//! The serving pipeline keeps its waiting jobs behind a [`SchedulerPolicy`]
//! — an ordered queue the orchestrator enqueues turn arrivals into and
//! admits from the head of. [`Fcfs`] is the paper's policy (§4.1 runs
//! first-come-first-served continuous batching); the trait exists so
//! alternative orders (priority, SJF) can slot in without touching the
//! rest of the pipeline.
//!
//! The module also owns the two *pure* admission predicates the
//! orchestrator ([`ClusterSim`](crate::ClusterSim)) sequences in
//! admission: data-readiness and HBM residency.

use std::collections::VecDeque;

use sim::{Dur, Time};

/// An ordered queue of waiting jobs (indices into the pipeline's job
/// arena). Object-safe so the orchestrator can hold `Box<dyn
/// SchedulerPolicy>`.
pub trait SchedulerPolicy {
    /// Adds a newly arrived job to the queue.
    fn enqueue(&mut self, job: usize);
    /// Adds a job together with its scheduling key: the enqueue instant
    /// and the absolute TTFT deadline. Deadline-blind policies ([`Fcfs`])
    /// keep the default, which forwards to
    /// [`enqueue`](SchedulerPolicy::enqueue); deadline-aware policies
    /// ([`Edf`]) override it. Keeping the deadline an *argument* rather
    /// than a queue-side lookup keeps the trait object-safe and the job
    /// arena out of the scheduler.
    fn enqueue_with_deadline(&mut self, job: usize, now: Time, deadline: Time) {
        let _ = (now, deadline);
        self.enqueue(job);
    }
    /// The next job to admit, if any.
    fn front(&self) -> Option<usize>;
    /// Removes and returns the next job to admit.
    fn pop_front(&mut self) -> Option<usize>;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool;
    /// Number of waiting jobs.
    fn len(&self) -> usize;
    /// Appends the queued jobs in admission order (head first) to `out`
    /// without allocating. Feeds the store's scheduler-aware look-ahead
    /// windows; the orchestrator reuses one scratch buffer across every
    /// consultation (and, in a cluster, across every instance's queue).
    fn snapshot_into(&self, out: &mut Vec<usize>);
    /// The queued jobs in admission order (head first), as a fresh `Vec`.
    /// Convenience over [`snapshot_into`](SchedulerPolicy::snapshot_into)
    /// for tests and one-off inspection; hot paths should use the
    /// buffer-reusing form.
    fn snapshot(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        self.snapshot_into(&mut out);
        out
    }
}

/// First-come-first-served: the paper's admission order.
#[derive(Debug, Default)]
pub struct Fcfs {
    queue: VecDeque<usize>,
}

impl Fcfs {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Fcfs::default()
    }
}

impl SchedulerPolicy for Fcfs {
    fn enqueue(&mut self, job: usize) {
        self.queue.push_back(job);
    }

    fn front(&self) -> Option<usize> {
        self.queue.front().copied()
    }

    fn pop_front(&mut self) -> Option<usize> {
        self.queue.pop_front()
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn snapshot_into(&self, out: &mut Vec<usize>) {
        out.extend(self.queue.iter().copied());
    }
}

/// Earliest-deadline-first admission with a starvation guard.
///
/// Jobs sort by *effective* deadline — the requested absolute deadline
/// clamped to `enqueue instant + max_slack` (the deadline-floor rule).
/// The clamp is the anti-starvation guarantee: a job with an arbitrarily
/// loose (or missing) deadline still carries a finite key that only
/// arrival time can push out, so a steady stream of tight-deadline
/// arrivals overtakes it for at most `max_slack` of virtual time before
/// their keys sort behind its own. Ties break by enqueue order, so equal
/// deadlines degrade to FCFS and determinism is total.
#[derive(Debug)]
pub struct Edf {
    /// Sorted ascending by `(effective deadline, seq)`.
    entries: Vec<(Time, u64, usize)>,
    next_seq: u64,
    max_slack: Dur,
}

impl Edf {
    /// Creates an empty EDF queue whose starvation guard caps every
    /// job's effective deadline at `enqueue + max_slack`.
    pub fn new(max_slack: Dur) -> Self {
        Edf {
            entries: Vec::new(),
            next_seq: 0,
            max_slack,
        }
    }

    fn insert(&mut self, key: Time, job: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = self
            .entries
            .partition_point(|&(k, s, _)| (k, s) < (key, seq));
        self.entries.insert(at, (key, seq, job));
    }
}

impl SchedulerPolicy for Edf {
    /// Deadline-less enqueue: the job sorts behind every job with a real
    /// deadline (FIFO among its own kind). The orchestrator always uses
    /// [`enqueue_with_deadline`](SchedulerPolicy::enqueue_with_deadline)
    /// when an SLO policy is active, so this path only serves tests and
    /// manual use.
    fn enqueue(&mut self, job: usize) {
        self.insert(Time::MAX, job);
    }

    fn enqueue_with_deadline(&mut self, job: usize, now: Time, deadline: Time) {
        self.insert(deadline.min(now + self.max_slack), job);
    }

    fn front(&self) -> Option<usize> {
        self.entries.first().map(|&(_, _, j)| j)
    }

    fn pop_front(&mut self) -> Option<usize> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0).2)
        }
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn snapshot_into(&self, out: &mut Vec<usize>) {
        out.extend(self.entries.iter().map(|&(_, _, j)| j));
    }
}

/// Data-readiness predicate: a job whose KV is still staging into the
/// fast tier defers until `staged` — unless the batch is empty, in which
/// case the GPU has nothing better to do than wait in place.
///
/// Returns `Some(defer_until)` when admission must wait.
pub fn data_ready_defer(now: Time, staged: Time, batch_is_empty: bool) -> Option<Time> {
    if staged > now && !batch_is_empty {
        Some(staged)
    } else {
        None
    }
}

/// HBM residency predicate (§2.4, Challenge 2): the candidate's full
/// final context must fit beside the decoding batch's live KV. An empty
/// batch always admits — a job cannot wait on itself to free memory.
pub fn hbm_fits(reserved: u64, job_peak: u64, budget: u64, batch_is_empty: bool) -> bool {
    batch_is_empty || reserved + job_peak <= budget
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_preserves_arrival_order() {
        let mut q = Fcfs::new();
        assert!(q.is_empty());
        assert_eq!(q.front(), None);
        for j in [3, 1, 4] {
            q.enqueue(j);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.snapshot(), vec![3, 1, 4]);
        assert_eq!(q.front(), Some(3));
        assert_eq!(q.pop_front(), Some(3));
        assert_eq!(q.snapshot(), vec![1, 4]);
        // The allocation-free form appends into a caller-owned buffer.
        let mut buf = vec![9];
        q.snapshot_into(&mut buf);
        assert_eq!(buf, vec![9, 1, 4]);
    }

    #[test]
    fn fcfs_is_object_safe() {
        let mut q: Box<dyn SchedulerPolicy> = Box::new(Fcfs::new());
        q.enqueue(7);
        assert_eq!(q.pop_front(), Some(7));
        assert!(q.is_empty());
    }

    #[test]
    fn edf_orders_by_deadline_with_fifo_ties() {
        let mut q = Edf::new(Dur::from_secs_f64(1e6));
        let now = Time::from_secs_f64(0.0);
        q.enqueue_with_deadline(0, now, Time::from_secs_f64(30.0));
        q.enqueue_with_deadline(1, now, Time::from_secs_f64(10.0));
        q.enqueue_with_deadline(2, now, Time::from_secs_f64(10.0));
        q.enqueue_with_deadline(3, now, Time::from_secs_f64(20.0));
        assert_eq!(q.snapshot(), vec![1, 2, 3, 0]);
        assert_eq!(q.front(), Some(1));
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.len(), 2);
        let mut buf = Vec::new();
        q.snapshot_into(&mut buf);
        assert_eq!(buf, vec![3, 0]);
    }

    #[test]
    fn edf_is_object_safe_and_forwards_default_enqueue() {
        let mut q: Box<dyn SchedulerPolicy> = Box::new(Edf::new(Dur::from_secs_f64(10.0)));
        q.enqueue(7);
        q.enqueue_with_deadline(8, Time::ZERO, Time::from_secs_f64(1.0));
        // The deadline-less job carries the lowest priority.
        assert_eq!(q.pop_front(), Some(8));
        assert_eq!(q.pop_front(), Some(7));
        // Fcfs ignores deadlines entirely through the default method.
        let mut f: Box<dyn SchedulerPolicy> = Box::new(Fcfs::new());
        f.enqueue_with_deadline(1, Time::ZERO, Time::from_secs_f64(99.0));
        f.enqueue_with_deadline(2, Time::ZERO, Time::from_secs_f64(1.0));
        assert_eq!(f.snapshot(), vec![1, 2]);
    }

    /// The starvation guard (deadline floor): an old job with an
    /// arbitrarily loose deadline is clamped to `enqueue + max_slack`,
    /// so a steady stream of tight-deadline arrivals overtakes it only
    /// until their own (arrival-anchored) keys pass the old job's floor.
    #[test]
    fn edf_deadline_floor_prevents_starvation() {
        let slack = Dur::from_secs_f64(30.0);
        let mut q = Edf::new(slack);
        // A "whenever" job enqueued at t=0 with a deadline a week out.
        q.enqueue_with_deadline(99, Time::ZERO, Time::from_secs_f64(7.0 * 86_400.0));
        // Tight-deadline turns (2 s of slack) arriving every second.
        let mut admitted = Vec::new();
        for i in 0..60u64 {
            let now = Time::from_secs_f64(i as f64);
            q.enqueue_with_deadline(i as usize, now, now + Dur::from_secs_f64(2.0));
            admitted.push(q.pop_front().unwrap());
        }
        // The old job ran once the stream's deadlines passed its floor
        // (0 + 30 s): bounded bypass, not starvation.
        let pos = admitted.iter().position(|&j| j == 99);
        assert!(
            matches!(pos, Some(p) if p <= 30),
            "loose-deadline job starved: admissions {admitted:?}"
        );
        // Without the floor it would never have been admitted in this
        // window: every tight deadline beats a week-out deadline.
        let mut unguarded = Edf::new(Dur::from_secs_f64(1e9));
        unguarded.enqueue_with_deadline(99, Time::ZERO, Time::from_secs_f64(7.0 * 86_400.0));
        for i in 0..60u64 {
            let now = Time::from_secs_f64(i as f64);
            unguarded.enqueue_with_deadline(i as usize, now, now + Dur::from_secs_f64(2.0));
            assert_ne!(unguarded.pop_front(), Some(99));
        }
    }

    #[test]
    fn data_ready_defers_only_with_a_live_batch() {
        let now = Time::from_secs_f64(10.0);
        let later = Time::from_secs_f64(12.0);
        assert_eq!(data_ready_defer(now, later, false), Some(later));
        // Empty batch: waiting in place beats deferring.
        assert_eq!(data_ready_defer(now, later, true), None);
        // Already staged: no defer either way.
        assert_eq!(data_ready_defer(now, now, false), None);
    }

    #[test]
    fn hbm_check_admits_exactly_at_budget() {
        assert!(hbm_fits(60, 40, 100, false));
        assert!(!hbm_fits(60, 41, 100, false));
        // The empty batch bypasses the budget.
        assert!(hbm_fits(60, 41, 100, true));
    }
}
