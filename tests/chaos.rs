//! Fault-injection properties: the cluster degrades, it never drops.
//!
//! Three contracts pin the fault layer:
//!
//! 1. **Liveness under arbitrary chaos** — for *any* fault plan (random
//!    link windows, SSD error/corruption rates, pressure spikes, crash
//!    schedules), every turn of every session still walks a valid
//!    lifecycle and eventually retires, timestamps never regress, and a
//!    rerouted turn restarts its pipeline on exactly one new instance.
//! 2. **Strict additivity** — an *empty* fault plan produces a report
//!    byte-identical to a run with no plan at all: the fault layer only
//!    exists when a fault is scripted.
//! 3. **Failover determinism** — a scripted mid-run crash on a
//!    2-instance cluster yields a byte-identical serialized report every
//!    time, under either router, and the report's fault counters agree
//!    with the emitted event stream.

use cachedattention::engine::{
    run_cluster, run_cluster_with_observer, ClusterConfig, EngineConfig, EngineEvent,
    EngineObserver, Mode, RouterKind,
};
use cachedattention::models::ModelSpec;
use cachedattention::sim::{Dur, FaultPlan, RetryPolicy, Time};
use cachedattention::workload::{Generator, ShareGptProfile};
use proptest::prelude::*;
use std::collections::HashMap;

/// The engine config the chaos runs use: paper settings squeezed enough
/// to exercise eviction and the slow tier.
fn pressured() -> EngineConfig {
    let mut cfg = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
    cfg.store.set_dram_bytes(8_000_000_000);
    cfg.store.set_disk_bytes(40_000_000_000);
    cfg
}

/// Captures the instance-tagged engine event stream.
#[derive(Default)]
struct InstanceLog {
    events: Vec<(u32, EngineEvent)>,
}

impl EngineObserver for InstanceLog {
    fn on_event(&mut self, ev: EngineEvent) {
        panic!("cluster emitted an unattributed event: {ev:?}");
    }

    fn on_instance_event(&mut self, instance: u32, ev: EngineEvent) {
        self.events.push((instance, ev));
    }
}

/// Where a session currently is in its turn lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Arrived,
    Admitted,
    Prefilled,
}

fn routers() -> impl Strategy<Value = RouterKind> {
    prop_oneof![
        Just(RouterKind::SessionAffinity),
        Just(RouterKind::LeastLoaded),
    ]
}

/// An arbitrary fault plan: every fault family drawn independently, with
/// windows and crash times inside the first minute so they land inside
/// small runs. Crash instances may exceed the cluster size (the
/// orchestrator must ignore those) and may target every instance (it
/// must refuse to kill the last one alive).
fn fault_plans() -> impl Strategy<Value = FaultPlan> {
    let window = (0u64..40_000, 1u64..30_000, 1u64..8);
    let rates = (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.2);
    let pressure = proptest::collection::vec((1u64..60_000, 0.1f64..0.9), 0..2);
    let crashes = proptest::collection::vec((0u32..4, 1u64..40_000), 0..3);
    ((0u64..u64::MAX, window), (rates, pressure, crashes)).prop_map(
        |((seed, (w_start, w_len, factor)), ((rd, wr, corrupt), pressure, crashes))| {
            let mut plan = FaultPlan::new(seed)
                .with_link_slowdown(
                    "slow-rd",
                    Time::from_millis(w_start),
                    Time::from_millis(w_start + w_len),
                    factor as f64,
                )
                .with_link_stall(
                    "slow-wr",
                    Time::from_millis(w_start / 2),
                    Time::from_millis(w_start / 2 + w_len / 2),
                )
                .with_ssd_errors(rd, wr, corrupt)
                .with_retry(RetryPolicy {
                    max_retries: 2,
                    base_backoff: Dur::from_millis(1),
                    multiplier: 2.0,
                });
            for (at, fraction) in pressure {
                plan = plan.with_dram_pressure(Time::from_millis(at), fraction);
            }
            for (instance, at) in crashes {
                plan = plan.with_crash(instance, Time::from_millis(at));
            }
            plan
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any fault plan, instance count and router: timestamps never
    /// regress, every turn walks the (fault-extended) lifecycle on one
    /// instance at a time, a reroute hands the turn to a different live
    /// instance and restarts its pipeline, and every session finishes.
    #[test]
    fn any_fault_plan_preserves_the_turn_lifecycle(
        seed in 0u64..5_000,
        n_sessions in 6usize..16,
        n_instances in 1usize..4,
        router in routers(),
        plan in fault_plans(),
    ) {
        let trace = Generator::new(ShareGptProfile::default(), seed).trace(n_sessions);
        let cfg = ClusterConfig::new(pressured(), n_instances, router).with_faults(plan);
        let (report, log) = run_cluster_with_observer(cfg, trace, InstanceLog::default());
        prop_assert!(!log.events.is_empty());

        // Liveness: chaos may slow turns down, never drop them.
        prop_assert_eq!(report.aggregate.sessions_done.get(), n_sessions as u64);

        // (phase, owning instance of the live turn) per session.
        let mut state: HashMap<u64, (Phase, u32)> = HashMap::new();
        let mut crashed: Vec<u32> = Vec::new();
        let mut prev_at = Time::ZERO;
        for (inst, ev) in &log.events {
            prop_assert!((*inst as usize) < n_instances, "phantom instance {inst}");
            prop_assert!(
                ev.at() >= prev_at,
                "timestamp regressed: {:?} after t={:?}",
                ev,
                prev_at
            );
            prev_at = ev.at();

            if let EngineEvent::InstanceCrashed { instance, .. } = ev {
                prop_assert_eq!(*instance, *inst);
                prop_assert!(!crashed.contains(instance), "instance {} crashed twice", instance);
                crashed.push(*instance);
                prop_assert!(
                    crashed.len() < n_instances,
                    "the last alive instance crashed"
                );
                continue;
            }

            // No SloPolicy is configured, so the overload vocabulary must
            // be absent: a chaos run is strictly additive over the fault
            // layer and never sheds, degrades by level, or scales.
            prop_assert!(
                !matches!(
                    ev,
                    EngineEvent::SloConfig { .. }
                        | EngineEvent::TurnShed { .. }
                        | EngineEvent::OverloadLevelChanged { .. }
                        | EngineEvent::ScaleUp { .. }
                        | EngineEvent::ScaleDown { .. }
                ),
                "overload event {:?} in an SLO-free run",
                ev
            );

            let sid = ev.session().expect("only crashes are instance-scoped");
            let entry = state.entry(sid).or_insert((Phase::Idle, *inst));
            let (phase, owner) = *entry;
            if phase != Phase::Idle && !matches!(ev, EngineEvent::TurnRerouted { .. }) {
                prop_assert!(
                    owner == *inst,
                    "session {} jumped from instance {} to {} mid-turn",
                    sid,
                    owner,
                    *inst
                );
            }
            match ev {
                EngineEvent::TurnArrived { .. } => {
                    prop_assert!(phase == Phase::Idle, "arrival for session {} mid-turn", sid);
                    *entry = (Phase::Arrived, *inst);
                }
                EngineEvent::Consulted { .. } | EngineEvent::Deferred { .. } => {
                    prop_assert!(phase == Phase::Arrived);
                }
                EngineEvent::DegradedRecompute { .. } => {
                    // Degradation happens at consult time, before admission.
                    prop_assert!(phase == Phase::Arrived);
                }
                EngineEvent::Admitted { .. } => {
                    prop_assert!(phase == Phase::Arrived);
                    entry.0 = Phase::Admitted;
                }
                EngineEvent::HbmReserved { .. } | EngineEvent::PrefillTimed { .. } => {
                    prop_assert!(phase == Phase::Admitted);
                }
                EngineEvent::PrefillDone { .. } => {
                    prop_assert!(phase == Phase::Admitted);
                    entry.0 = Phase::Prefilled;
                }
                EngineEvent::Retired { .. } => {
                    prop_assert!(phase == Phase::Prefilled);
                    entry.0 = Phase::Idle;
                }
                EngineEvent::Truncated { .. } => {
                    prop_assert!(phase != Phase::Idle);
                }
                EngineEvent::TurnRerouted { from, to, .. } => {
                    // A reroute moves a *live* turn off the instance that
                    // just died onto a different, live one, and restarts
                    // its pipeline from the queue.
                    prop_assert!(phase != Phase::Idle, "rerouted an idle session {}", sid);
                    prop_assert_eq!(*from, owner);
                    prop_assert!(crashed.contains(from), "reroute off a live instance");
                    prop_assert!(*from != *to, "rerouted onto the dead instance");
                    prop_assert!(!crashed.contains(to), "rerouted onto a crashed instance");
                    *entry = (Phase::Arrived, *to);
                }
                EngineEvent::InstanceCrashed { .. }
                | EngineEvent::SloConfig { .. }
                | EngineEvent::TurnShed { .. }
                | EngineEvent::OverloadLevelChanged { .. }
                | EngineEvent::ScaleUp { .. }
                | EngineEvent::ScaleDown { .. } => unreachable!("handled above"),
            }
        }
        for (sid, (phase, _)) in &state {
            prop_assert!(*phase == Phase::Idle, "session {} left mid-turn", sid);
        }

        // The report's fault counters agree with the event stream.
        let count = |pred: fn(&EngineEvent) -> bool| {
            log.events.iter().filter(|(_, e)| pred(e)).count() as u64
        };
        prop_assert_eq!(
            count(|e| matches!(e, EngineEvent::InstanceCrashed { .. })),
            report.faults.instance_crashes
        );
        prop_assert_eq!(
            count(|e| matches!(e, EngineEvent::TurnRerouted { .. })),
            report.faults.turns_rerouted
        );
        prop_assert_eq!(
            count(|e| matches!(e, EngineEvent::DegradedRecompute { .. })),
            report.faults.recompute_fallbacks
        );
        prop_assert_eq!(
            count(|e| matches!(e, EngineEvent::Retired { .. })),
            report.aggregate.turns_measured.get()
        );
    }

    /// An empty fault plan is not a fault plan: the serialized report is
    /// byte-identical to a run configured with no plan at all.
    #[test]
    fn empty_plan_is_byte_identical_to_no_plan(
        seed in 0u64..5_000,
        n_sessions in 6usize..16,
        n_instances in 1usize..4,
        router in routers(),
        fault_seed in 0u64..u64::MAX,
    ) {
        let gen = || Generator::new(ShareGptProfile::default(), seed).trace(n_sessions);
        let plain = run_cluster(ClusterConfig::new(pressured(), n_instances, router), gen());
        let empty = run_cluster(
            ClusterConfig::new(pressured(), n_instances, router)
                .with_faults(FaultPlan::new(fault_seed)),
            gen(),
        );
        prop_assert!(!empty.faults.any());
        prop_assert_eq!(
            serde_json::to_string_pretty(&plain).expect("serializes"),
            serde_json::to_string_pretty(&empty).expect("serializes"),
        );
    }
}

/// The scripted failover scenario: instance 1 of 2 dies at t=10s while
/// SSD faults and a pressure spike are live.
fn failover_plan() -> FaultPlan {
    FaultPlan::new(0xFA11)
        .with_link_slowdown(
            "slow-rd",
            Time::from_secs_f64(2.0),
            Time::from_secs_f64(20.0),
            3.0,
        )
        .with_ssd_errors(0.05, 0.05, 0.02)
        .with_dram_pressure(Time::from_secs_f64(6.0), 0.5)
        .with_crash(1, Time::from_secs_f64(10.0))
}

/// Re-running the same scripted crash is byte-for-byte deterministic
/// under either router, the crash actually fires, and no turn is lost.
#[test]
fn scripted_failover_is_deterministic_and_lossless() {
    for router in [RouterKind::SessionAffinity, RouterKind::LeastLoaded] {
        let run = || {
            let trace = Generator::new(ShareGptProfile::default(), 7).trace(30);
            let cfg = ClusterConfig::new(pressured(), 2, router).with_faults(failover_plan());
            let (report, log) = run_cluster_with_observer(cfg, trace, InstanceLog::default());
            let json = serde_json::to_string_pretty(&report).expect("serializes");
            (report, log, json)
        };
        let (report, log, json) = run();
        for _ in 0..2 {
            let (_, _, again) = run();
            assert_eq!(json, again, "{}: failover run diverged", router.label());
        }

        // The scripted faults really fired and the cluster absorbed them.
        assert_eq!(report.faults.instance_crashes, 1, "{}", router.label());
        assert_eq!(report.faults.pressure_events, 1, "{}", router.label());
        assert_eq!(
            report.aggregate.sessions_done.get(),
            30,
            "{}: sessions lost in failover",
            router.label()
        );
        let crashed: Vec<_> = report.instances.iter().filter(|i| i.crashed).collect();
        assert_eq!(crashed.len(), 1);
        assert_eq!(crashed[0].instance, 1);

        // After the crash instant every pipeline event happens on the
        // survivor.
        let crash_at = log
            .events
            .iter()
            .find_map(|(_, e)| match e {
                EngineEvent::InstanceCrashed { at, .. } => Some(*at),
                _ => None,
            })
            .expect("crash event emitted");
        for (inst, ev) in &log.events {
            if ev.at() > crash_at && !matches!(ev, EngineEvent::TurnRerouted { .. }) {
                assert_eq!(
                    *inst,
                    0,
                    "{}: event on the dead instance after the crash: {ev:?}",
                    router.label()
                );
            }
        }
    }
}
