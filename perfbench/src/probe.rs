//! The benchmark's own observer: per-turn virtual timings measured from
//! each turn's scheduled arrival, plus the store-side counters the traced
//! run reports.

use engine::{ConsultClass, EngineEvent, EngineObserver};
use sim::Time;
use store::{FetchKind, StoreEvent};
use telemetry::Telemetry;

/// Watches a run through the public observer hook and, when the workload
/// exports a trace, forwards every event to its [`Telemetry`] collector.
/// It asks for the store's event stream in every run, profiled or not, so
/// that the two kinds of run do the same work apart from the profiler.
///
/// Session ids are dense (`0..sessions`), and a session's turns are
/// strictly sequential, so one arrival slot per session is enough.
pub struct Probe {
    /// The workload's telemetry stack, when it records a trace.
    pub tel: Option<Telemetry>,
    arrival: Vec<Option<Time>>,
    prefetched: Vec<bool>,
    /// Arrival → first token per turn, seconds (queue wait included).
    pub arrival_ttft: Vec<f64>,
    /// Arrival → admission per turn, seconds.
    pub queue_wait: Vec<f64>,
    /// Admission → first token per turn, seconds.
    pub service_ttft: Vec<f64>,
    /// Engine events committed (the virtual fingerprint's event count).
    pub engine_events: u64,
    /// Turns that finished decoding.
    pub retired: u64,
    /// Σ KV load time the admitted prefills needed, seconds.
    pub load_s: f64,
    /// Σ of that load time left visible as a stall, seconds.
    pub stall_s: f64,
    /// Σ load time hidden under prefill compute, seconds.
    pub hidden_s: f64,
    /// Look-ahead prefetch promotions (from the store's events).
    pub prefetch_promotions: u64,
    /// Prefetch promotions whose session's next consult hit the fast tier.
    pub prefetch_useful: u64,
}

impl Probe {
    /// A probe for a trace of `sessions` sessions.
    pub fn new(sessions: usize, tel: Option<Telemetry>) -> Self {
        Probe {
            tel,
            arrival: vec![None; sessions],
            prefetched: vec![false; sessions],
            arrival_ttft: Vec::new(),
            queue_wait: Vec::new(),
            service_ttft: Vec::new(),
            engine_events: 0,
            retired: 0,
            load_s: 0.0,
            stall_s: 0.0,
            hidden_s: 0.0,
            prefetch_promotions: 0,
            prefetch_useful: 0,
        }
    }

    fn engine(&mut self, ev: EngineEvent) {
        self.engine_events += 1;
        match ev {
            EngineEvent::TurnArrived { session, at, .. } => {
                self.arrival[session as usize] = Some(at);
            }
            EngineEvent::Admitted { session, at, .. } => {
                let arrived = self.arrived(session);
                self.queue_wait.push((at - arrived).as_secs_f64());
            }
            EngineEvent::PrefillDone {
                session,
                ttft_secs,
                at,
            } => {
                let arrived = self.arrived(session);
                self.arrival_ttft.push((at - arrived).as_secs_f64());
                self.service_ttft.push(ttft_secs);
            }
            EngineEvent::PrefillTimed {
                load_secs,
                stall_secs,
                ..
            } => {
                self.load_s += load_secs;
                self.stall_s += stall_secs;
                self.hidden_s += (load_secs - stall_secs).max(0.0);
            }
            EngineEvent::Consulted { session, class, .. } => {
                let slot = &mut self.prefetched[session as usize];
                if *slot && class == ConsultClass::HitFast {
                    self.prefetch_useful += 1;
                }
                *slot = false;
            }
            EngineEvent::Retired { .. } => self.retired += 1,
            _ => {}
        }
    }

    fn store(&mut self, ev: StoreEvent) {
        if let StoreEvent::Promoted {
            session,
            kind: FetchKind::Prefetch,
            ..
        } = ev
        {
            // Block keying promotes a chain chunk by chunk: count the
            // session once per consult it is staged for.
            let slot = &mut self.prefetched[session as usize];
            if !*slot {
                self.prefetch_promotions += 1;
                *slot = true;
            }
        }
    }

    fn arrived(&self, session: u64) -> Time {
        self.arrival[session as usize].expect("a turn is admitted only after it arrives")
    }
}

impl EngineObserver for Probe {
    fn on_event(&mut self, ev: EngineEvent) {
        self.engine(ev);
        if let Some(tel) = &mut self.tel {
            tel.on_event(ev);
        }
    }

    fn on_instance_event(&mut self, instance: u32, ev: EngineEvent) {
        self.engine(ev);
        if let Some(tel) = &mut self.tel {
            tel.on_instance_event(instance, ev);
        }
    }

    fn wants_store_events(&self) -> bool {
        true
    }

    fn on_store_event(&mut self, ev: StoreEvent) {
        self.store(ev);
        if let Some(tel) = &mut self.tel {
            tel.on_store_event(ev);
        }
    }

    fn on_instance_store_event(&mut self, instance: u32, ev: StoreEvent) {
        self.store(ev);
        if let Some(tel) = &mut self.tel {
            tel.on_instance_store_event(instance, ev);
        }
    }
}
