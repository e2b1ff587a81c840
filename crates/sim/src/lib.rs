#![warn(missing_docs)]

//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the substrate on which the CachedAttention serving
//! simulator is built:
//!
//! - [`Time`] / [`Dur`]: typed virtual instants and durations with
//!   nanosecond resolution.
//! - [`EventQueue`] and the [`World`] trait: a stable-order event loop.
//! - [`BandwidthLink`]: a FIFO-serialized transfer resource used to model
//!   PCIe streams and SSD I/O channels.
//! - [`CapacityPool`]: byte-granularity space accounting for HBM, DRAM and
//!   disk tiers.
//! - [`SimRng`]: a seeded random source with the distributions the workload
//!   generator needs (exponential, log-normal, Zipf, categorical).
//! - [`event_table!`]: declares a trace event enum once, one row per
//!   variant, and generates its accessors, JSON text writer and schema
//!   ([`events`]).
//!
//! All randomness flows from a single `u64` seed and event ordering is
//! total (time, insertion sequence), so simulations are bit-reproducible.
//!
//! # Examples
//!
//! ```
//! use sim::{Dur, EventQueue, Time, World};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl World for Counter {
//!     type Event = ();
//!     fn handle(&mut self, now: Time, _ev: (), q: &mut EventQueue<()>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             q.push(now + Dur::from_secs_f64(1.0), ());
//!         }
//!     }
//! }
//!
//! let mut world = Counter { fired: 0 };
//! let mut q = EventQueue::new();
//! q.push(Time::ZERO, ());
//! let end = sim::run(&mut world, &mut q, None);
//! assert_eq!(world.fired, 3);
//! assert_eq!(end.as_secs_f64(), 2.0);
//! ```

pub mod events;
pub mod fault;
mod link;
mod pool;
pub mod profiler;
mod queue;
mod rng;
mod time;

pub use fault::{
    DramPressure, FaultPlan, FaultStream, FaultWindow, InstanceCrash, LinkFault, LinkFaultKind,
    RetryPolicy, SsdFaults,
};
pub use link::BandwidthLink;
pub use pool::{CapacityPool, PoolError};
pub use profiler::{ProfilerConfig, ScopeProfile, SelfProfile};
pub use queue::{BoundedInbox, EventQueue};
pub use rng::SimRng;
pub use time::{Dur, Time};

/// A simulated system: owns the mutable state and dispatches events.
///
/// The event loop ([`run`]) pops events in (time, sequence) order and hands
/// them to [`World::handle`] together with the current virtual time and the
/// queue, so handlers can schedule follow-up events.
pub trait World {
    /// The event type dispatched through the queue.
    type Event;

    /// Handles one event at virtual time `now`.
    fn handle(&mut self, now: Time, ev: Self::Event, q: &mut EventQueue<Self::Event>);
}

/// Runs the event loop until the queue drains or `until` is passed.
///
/// Returns the virtual time of the last event processed (or `Time::ZERO`
/// when no event ran). Events scheduled at exactly `until` still run;
/// events strictly after it are left in the queue.
pub fn run<W: World>(world: &mut W, q: &mut EventQueue<W::Event>, until: Option<Time>) -> Time {
    let mut last = Time::ZERO;
    while let Some(&at) = q.peek_time() {
        if let Some(limit) = until {
            if at > limit {
                break;
            }
        }
        let (now, ev) = q.pop().expect("peek_time guaranteed an event");
        last = now;
        world.handle(now, ev, q);
        // Host-time self-profiling: count the drained event and let the
        // heartbeat fire. Disabled cost is the one relaxed load.
        if profiler::is_enabled() {
            profiler::note_event(now);
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records the order in which tagged events fire.
    struct Recorder {
        seen: Vec<(Time, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: Time, ev: u32, _q: &mut EventQueue<u32>) {
            self.seen.push((now, ev));
        }
    }

    #[test]
    fn run_dispatches_in_time_order() {
        let mut w = Recorder { seen: Vec::new() };
        let mut q = EventQueue::new();
        q.push(Time::from_secs_f64(2.0), 2);
        q.push(Time::from_secs_f64(1.0), 1);
        q.push(Time::from_secs_f64(3.0), 3);
        run(&mut w, &mut q, None);
        let tags: Vec<u32> = w.seen.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn run_respects_until_limit() {
        let mut w = Recorder { seen: Vec::new() };
        let mut q = EventQueue::new();
        for i in 1..=5 {
            q.push(Time::from_secs_f64(i as f64), i);
        }
        let end = run(&mut w, &mut q, Some(Time::from_secs_f64(3.0)));
        assert_eq!(w.seen.len(), 3);
        assert_eq!(end, Time::from_secs_f64(3.0));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        let mut w = Recorder { seen: Vec::new() };
        let mut q = EventQueue::new();
        let t = Time::from_secs_f64(1.0);
        for i in 0..100 {
            q.push(t, i);
        }
        run(&mut w, &mut q, None);
        let tags: Vec<u32> = w.seen.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
    }
}
