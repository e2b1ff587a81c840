//! Engine trace events: an observer hook over the serving pipeline.
//!
//! Every stage of the pipeline reports what it decided — arrivals,
//! truncations, store consultations, admissions, completions — through an
//! [`EngineObserver`]. Observation is strictly read-only: observers see
//! events *after* the simulator has committed the corresponding state
//! change, and nothing the observer does can alter the run (which is why
//! the golden-report fixtures hold with or without one attached).
//!
//! [`EventLog`] is the canonical observer: it collects events into a
//! `Vec` for test assertions and offline analysis;
//! [`run_traced`](crate::run_traced) wires it up.
//!
//! Observers that also want the [`StoreEvent`] stream (the store's
//! placement decisions, drained through the engine so both streams share
//! one causal order) opt in via
//! [`EngineObserver::wants_store_events`].

use sim::events::{EventField, FieldType};
use sim::Time;
use store::StoreEvent;

/// How a store consultation classified a resuming job's KV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsultClass {
    /// First turn (no history): nothing to look up.
    NoHistory,
    /// No store configured (the RE baseline): always recompute.
    NoStore,
    /// History existed but no cached KV survived.
    Miss,
    /// KV found in the fast tier.
    HitFast,
    /// KV found in the slow tier.
    HitSlow,
}

impl ConsultClass {
    /// Lowercase label used in serialized traces.
    pub fn label(self) -> &'static str {
        match self {
            ConsultClass::NoHistory => "no_history",
            ConsultClass::NoStore => "no_store",
            ConsultClass::Miss => "miss",
            ConsultClass::HitFast => "hit_fast",
            ConsultClass::HitSlow => "hit_slow",
        }
    }
}

impl EventField for ConsultClass {
    const TYPE: FieldType = FieldType::String;
    fn write_json(&self, out: &mut String) {
        self.label().write_json(out);
    }
}

sim::event_table! {
    /// One observable step of the serving pipeline.
    ///
    /// Categories: `session` (turn lifecycle), `sched` (queueing and
    /// admission decisions), `gpu` (execution and HBM effects), `fault`
    /// (injected failures and their recovery) or `overload` (SLO-driven
    /// admission control, degradation and autoscaling). The encoding has
    /// the same shape as the store events', so both streams merge into
    /// one JSONL trace.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum EngineEvent {
        /// A session's next turn arrived and was queued.
        TurnArrived: "turn_arrived" in session {
            /// External session id.
            session: u64,
            /// Zero-based turn index within the session.
            turn: usize,
            /// Virtual arrival time.
            at: Time,
        },
        /// Context overflow shrank a session's visible history.
        Truncated: "truncated" in session {
            /// External session id.
            session: u64,
            /// History length before truncation.
            old_hist: u64,
            /// History length after truncation.
            new_hist: u64,
            /// Virtual time of the owning turn's arrival.
            at: Time,
        },
        /// The transfer stage consulted the store for a queue-head job.
        Consulted: "consulted" in sched {
            /// External session id.
            session: u64,
            /// Classification of the access.
            class: ConsultClass,
            /// Tokens of history the engine will reuse.
            reused: u64,
            /// Virtual consultation time.
            at: Time,
        },
        /// Admission deferred the queue-head job.
        Deferred: "deferred" in sched {
            /// External session id.
            session: u64,
            /// Earliest time admission can be retried.
            until: Time,
            /// Virtual time of the attempt.
            at: Time,
        },
        /// A job was admitted and its prefill issued.
        Admitted: "admitted" in sched {
            /// External session id.
            session: u64,
            /// Tokens of reused history.
            reused: u64,
            /// Tokens prefilled on the GPU.
            computed: u64,
            /// Whether the prefill was split into chunks.
            chunked: bool,
            /// Virtual admission time.
            at: Time,
        },
        /// Admission-time breakdown of the prefill the engine just issued:
        /// how much KV-transfer time the turn needs, how much compute, and
        /// how much of the transfer stays *visible* as a stall (§3.2.1's
        /// layer-wise preload hides the rest under compute). The span
        /// profiler derives overlap efficiency from this event alone.
        PrefillTimed: "prefill_timed" in gpu {
            /// External session id.
            session: u64,
            /// KV transfer time the reuse requires, seconds (host→device
            /// for DRAM-backed fast tiers, residual staging wait for
            /// HBM-backed ones; zero when nothing is reused).
            load_secs: f64,
            /// Pure prefill compute time, seconds.
            comp_secs: f64,
            /// Transfer time left visible on the critical path, seconds
            /// (the issued prefill lasts `comp_secs + stall_secs`).
            stall_secs: f64,
            /// Tier-stack index the reused KV was found in (`None`, and
            /// omitted from the encoding, when the turn reused nothing).
            tier: Option<usize>,
            /// Virtual admission time.
            at: Time,
        },
        /// A prefill finished and the job joined the decode batch.
        PrefillDone: "prefill_done" in gpu {
            /// External session id.
            session: u64,
            /// Service TTFT in seconds (admission → first token).
            ttft_secs: f64,
            /// Virtual completion time.
            at: Time,
        },
        /// A job finished decoding and retired.
        Retired: "retired" in session {
            /// External session id.
            session: u64,
            /// The session's history length after this turn.
            new_hist: u64,
            /// Virtual retirement time.
            at: Time,
        },
        /// Admission reserved HBM for a job's peak context (a gauge of the
        /// live-KV budget, §2.4).
        HbmReserved: "hbm_reserved" in gpu {
            /// External session id of the admitted job.
            session: u64,
            /// Live-KV bytes reserved after this admission (batch + new job).
            reserved_bytes: u64,
            /// The HBM budget those reservations must fit in.
            budget_bytes: u64,
            /// Virtual admission time.
            at: Time,
        },
        /// A serving instance crashed (scripted fault); its jobs are being
        /// re-routed to the survivors.
        InstanceCrashed: "instance_crashed" in fault {
            /// The instance that went down.
            instance: u32,
            /// Virtual crash time.
            at: Time,
        },
        /// A turn orphaned by an instance crash was re-queued elsewhere.
        TurnRerouted: "turn_rerouted" in fault {
            /// External session id.
            session: u64,
            /// The dead instance the turn was queued (or running) on.
            from: u32,
            /// The surviving instance it was re-queued on.
            to: u32,
            /// Virtual re-route time.
            at: Time,
        },
        /// A session's cached KV could not be served (read failure or
        /// corruption); the turn degrades to a full re-prefill.
        DegradedRecompute: "degraded_recompute" in fault {
            /// External session id.
            session: u64,
            /// Why the cache path failed (`"read_failed"`, `"corrupted"`,
            /// `"overload"` when the degradation ladder forced it).
            reason: &'static str,
            /// Virtual detection time.
            at: Time,
        },
        /// Header announcing that an SLO overload policy governs this run.
        /// Emitted once at start; every other `overload`-category event is
        /// gated on it (`trace_check` enforces both directions).
        SloConfig: "slo_config" in overload {
            /// Default TTFT target in seconds.
            ttft_target_secs: f64,
            /// Bounded per-instance inbox capacity (waiting jobs).
            inbox_capacity: u64,
            /// Virtual start time.
            at: Time,
        },
        /// An arriving turn was shed with a typed rejection instead of being
        /// queued (inbox overflow or the ladder's shed rung). Terminal for
        /// the session: no job is created and later turns never arrive.
        TurnShed: "turn_shed" in overload {
            /// External session id.
            session: u64,
            /// Zero-based turn index within the session.
            turn: usize,
            /// Why it was shed (`"inbox_full"`, `"overload_shed"`).
            reason: &'static str,
            /// Virtual arrival time.
            at: Time,
        },
        /// The degradation ladder moved one rung.
        OverloadLevelChanged: "overload_level" in overload {
            /// The rung it left (label).
            from: &'static str,
            /// The rung it entered (label).
            to: &'static str,
            /// Virtual decision time.
            at: Time,
        },
        /// The autoscaler brought an instance into service.
        ScaleUp: "scale_up" in overload {
            /// The instance now serving.
            instance: u32,
            /// Alive instances after the action.
            n_alive: u32,
            /// Virtual decision time.
            at: Time,
        },
        /// The autoscaler retired an instance; its queued and in-flight
        /// turns were re-routed (each emits [`EngineEvent::TurnRerouted`]).
        ScaleDown: "scale_down" in overload {
            /// The instance retired.
            instance: u32,
            /// Alive instances after the action.
            n_alive: u32,
            /// Virtual decision time.
            at: Time,
        },
    }
}

/// A sink for [`EngineEvent`]s (and, opted into, [`StoreEvent`]s).
pub trait EngineObserver {
    /// Called after the simulator commits the observed step.
    fn on_event(&mut self, ev: EngineEvent);

    /// Whether this observer wants the store's [`StoreEvent`] stream too.
    /// When `false` (the default) the engine leaves store tracing off, so
    /// plain observers pay nothing for it.
    fn wants_store_events(&self) -> bool {
        false
    }

    /// Called with each store placement decision, drained in commit order
    /// and interleaved causally with the engine events. Only invoked when
    /// [`wants_store_events`](EngineObserver::wants_store_events) is
    /// `true`.
    fn on_store_event(&mut self, _ev: StoreEvent) {}

    /// Instance-tagged form of [`on_event`](EngineObserver::on_event):
    /// the cluster orchestrator reports which serving instance committed
    /// the step. Defaults to dropping the tag, so single-instance
    /// observers need not care.
    fn on_instance_event(&mut self, _instance: u32, ev: EngineEvent) {
        self.on_event(ev);
    }

    /// Instance-tagged form of
    /// [`on_store_event`](EngineObserver::on_store_event): `instance` is
    /// the serving instance whose pipeline step drained the store event.
    /// Defaults to dropping the tag.
    fn on_instance_store_event(&mut self, _instance: u32, ev: StoreEvent) {
        self.on_store_event(ev);
    }
}

/// The default observer: discards everything, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl EngineObserver for NullObserver {
    fn on_event(&mut self, _ev: EngineEvent) {}
}

/// A Vec-collecting observer for tests and offline analysis.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<EngineEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// All collected events, in commit order.
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    /// Consumes the log, returning the collected events.
    pub fn into_events(self) -> Vec<EngineEvent> {
        self.events
    }
}

impl EngineObserver for EventLog {
    fn on_event(&mut self, ev: EngineEvent) {
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The event as a standalone JSON object.
    fn json(ev: &EngineEvent) -> String {
        let mut out = String::from("{");
        ev.write_json_members(&mut out);
        out.push('}');
        out
    }

    #[test]
    fn log_collects_in_order() {
        let mut log = EventLog::new();
        log.on_event(EngineEvent::TurnArrived {
            session: 3,
            turn: 0,
            at: Time::ZERO,
        });
        log.on_event(EngineEvent::Retired {
            session: 3,
            new_hist: 42,
            at: Time::from_secs_f64(1.0),
        });
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].session(), Some(3));
        assert!(matches!(
            log.events()[1],
            EngineEvent::Retired { new_hist: 42, .. }
        ));
    }

    #[test]
    fn serializes_as_tagged_objects() {
        let ev = EngineEvent::Consulted {
            session: 5,
            class: ConsultClass::HitSlow,
            reused: 700,
            at: Time::from_secs_f64(2.0),
        };
        assert_eq!(
            json(&ev),
            "{\"kind\":\"consulted\",\"session\":5,\"class\":\"hit_slow\",\
             \"reused\":700,\"at\":2.0}"
        );
        assert_eq!(ev.kind(), "consulted");
        assert_eq!(ev.category(), "sched");
        assert_eq!(ev.at(), Time::from_secs_f64(2.0));
    }

    #[test]
    fn prefill_timed_serializes_and_classifies() {
        let ev = EngineEvent::PrefillTimed {
            session: 4,
            load_secs: 0.5,
            comp_secs: 0.25,
            stall_secs: 0.125,
            tier: Some(1),
            at: Time::from_secs_f64(3.0),
        };
        assert_eq!(ev.kind(), "prefill_timed");
        assert_eq!(ev.category(), "gpu");
        assert_eq!(ev.session(), Some(4));
        assert_eq!(ev.at(), Time::from_secs_f64(3.0));
        assert_eq!(
            json(&ev),
            "{\"kind\":\"prefill_timed\",\"session\":4,\"load_secs\":0.5,\
             \"comp_secs\":0.25,\"stall_secs\":0.125,\"tier\":1,\"at\":3.0}"
        );
        // No reuse: the tier field is omitted entirely.
        let miss = EngineEvent::PrefillTimed {
            session: 4,
            load_secs: 0.0,
            comp_secs: 0.25,
            stall_secs: 0.0,
            tier: None,
            at: Time::from_secs_f64(3.0),
        };
        assert_eq!(
            json(&miss),
            "{\"kind\":\"prefill_timed\",\"session\":4,\"load_secs\":0.0,\
             \"comp_secs\":0.25,\"stall_secs\":0.0,\"at\":3.0}"
        );
    }

    #[test]
    fn fault_events_serialize_and_classify() {
        let crash = EngineEvent::InstanceCrashed {
            instance: 1,
            at: Time::from_secs_f64(3.0),
        };
        assert_eq!(crash.session(), None);
        assert_eq!(crash.category(), "fault");
        assert_eq!(
            json(&crash),
            "{\"kind\":\"instance_crashed\",\"instance\":1,\"at\":3.0}"
        );
        let re = EngineEvent::TurnRerouted {
            session: 9,
            from: 1,
            to: 0,
            at: Time::from_secs_f64(3.0),
        };
        assert_eq!(re.session(), Some(9));
        assert_eq!(re.kind(), "turn_rerouted");
        assert_eq!(
            json(&re),
            "{\"kind\":\"turn_rerouted\",\"session\":9,\"from\":1,\"to\":0,\"at\":3.0}"
        );
        let deg = EngineEvent::DegradedRecompute {
            session: 9,
            reason: "corrupted",
            at: Time::from_secs_f64(4.0),
        };
        assert_eq!(deg.category(), "fault");
        assert_eq!(deg.at(), Time::from_secs_f64(4.0));
    }

    #[test]
    fn overload_events_serialize_and_classify() {
        let hdr = EngineEvent::SloConfig {
            ttft_target_secs: 2.0,
            inbox_capacity: 32,
            at: Time::ZERO,
        };
        assert_eq!(hdr.session(), None);
        assert_eq!(hdr.category(), "overload");
        assert_eq!(
            json(&hdr),
            "{\"kind\":\"slo_config\",\"ttft_target_secs\":2.0,\"inbox_capacity\":32,\"at\":0.0}"
        );
        let shed = EngineEvent::TurnShed {
            session: 7,
            turn: 2,
            reason: "inbox_full",
            at: Time::from_secs_f64(5.0),
        };
        assert_eq!(shed.session(), Some(7));
        assert_eq!(shed.kind(), "turn_shed");
        assert_eq!(shed.category(), "overload");
        assert_eq!(
            json(&shed),
            "{\"kind\":\"turn_shed\",\"session\":7,\"turn\":2,\"reason\":\"inbox_full\",\"at\":5.0}"
        );
        let lvl = EngineEvent::OverloadLevelChanged {
            from: "normal",
            to: "recompute_only",
            at: Time::from_secs_f64(6.0),
        };
        assert_eq!(lvl.session(), None);
        assert_eq!(lvl.kind(), "overload_level");
        assert_eq!(
            json(&lvl),
            "{\"kind\":\"overload_level\",\"from\":\"normal\",\"to\":\"recompute_only\",\"at\":6.0}"
        );
        let up = EngineEvent::ScaleUp {
            instance: 2,
            n_alive: 3,
            at: Time::from_secs_f64(7.0),
        };
        assert_eq!(up.session(), None);
        assert_eq!(up.category(), "overload");
        assert_eq!(
            json(&up),
            "{\"kind\":\"scale_up\",\"instance\":2,\"n_alive\":3,\"at\":7.0}"
        );
        let down = EngineEvent::ScaleDown {
            instance: 2,
            n_alive: 2,
            at: Time::from_secs_f64(9.0),
        };
        assert_eq!(down.kind(), "scale_down");
        assert_eq!(down.at(), Time::from_secs_f64(9.0));
    }

    #[test]
    fn default_observer_ignores_store_events() {
        let mut obs = NullObserver;
        assert!(!obs.wants_store_events());
        // The default hook is a no-op; just exercise it.
        obs.on_store_event(StoreEvent::FetchMiss {
            session: 1,
            at: Time::ZERO,
        });
    }
}
