//! Overload-control properties: the SLO layer degrades service, it
//! never corrupts the turn lifecycle — and when it is empty, it does
//! not exist.
//!
//! Three contracts pin the admission/ladder/autoscaler stack:
//!
//! 1. **Strict additivity** — attaching [`SloPolicy::noop`] reproduces
//!    every committed golden fixture byte-for-byte, and on arbitrary
//!    cluster shapes the full serialized report is byte-identical to a
//!    run with no policy at all.
//! 2. **Lifecycle under overload × chaos** — for *any* SLO policy
//!    (EDF or FCFS, tiny inboxes, aggressive ladder, autoscaling) and
//!    *any* fault plan, every turn still walks a valid lifecycle:
//!    admitted turns retire exactly once, a shed is terminal for its
//!    session (nothing follows it), reroutes only leave dead or retired
//!    instances, and a retired instance is silent until revived.
//! 3. **Accounting** — `sessions_done + turns_shed` covers the whole
//!    trace, and the overload counters agree with the event stream.

use bench_suite::profile::{golden_scenarios, pressured};
use cachedattention::engine::{
    run_cluster, run_cluster_with_observer, AutoscalePolicy, ClusterConfig, EngineEvent,
    EngineObserver, Medium, Mode, RouterKind, SloPolicy,
};
use cachedattention::sim::{Dur, FaultPlan, RetryPolicy, Time};
use cachedattention::workload::{Generator, ShareGptProfile, Surge};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// An empty SLO config is no SLO config: attaching [`SloPolicy::noop`]
/// to a 1-instance cluster must reproduce every committed golden
/// fixture byte-for-byte, under either router — the policy is dropped
/// at config time and no overload path ever runs.
#[test]
fn noop_slo_policy_reproduces_all_golden_fixtures() {
    for router in [RouterKind::SessionAffinity, RouterKind::LeastLoaded] {
        for (name, cfg) in golden_scenarios() {
            let trace = Generator::new(ShareGptProfile::default(), 7).trace(20);
            let report = run_cluster(
                ClusterConfig::new(cfg, 1, router).with_slo(SloPolicy::noop()),
                trace,
            );
            assert!(!report.overload.any(), "noop policy left overload tracks");
            let mut json = serde_json::to_string_pretty(&report.aggregate).expect("serializes");
            json.push('\n');

            let path = golden_dir().join(format!("{name}.json"));
            let expected = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
            assert_eq!(
                expected,
                json,
                "noop SloPolicy diverged from golden `{name}` under the {} router",
                router.label()
            );
        }
    }
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

/// Where a session currently is in its turn lifecycle. `Shed` is
/// terminal: a session that received a typed rejection emits nothing
/// afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Arrived,
    Admitted,
    Prefilled,
    Shed,
}

fn routers() -> impl Strategy<Value = RouterKind> {
    prop_oneof![
        Just(RouterKind::SessionAffinity),
        Just(RouterKind::LeastLoaded),
    ]
}

/// An arbitrary non-noop overload policy: EDF or FCFS admission, inbox
/// capacities small enough to overflow, decision ticks of a few
/// seconds, a ladder threshold low enough to climb rungs under the
/// surge, and (sometimes) a queue-driven autoscaler.
fn slo_policies() -> impl Strategy<Value = SloPolicy> {
    let target = 0.5f64..6.0;
    let inbox = 1usize..48;
    let tick = 1.0f64..8.0;
    let depth = 1.0f64..10.0;
    let autoscale = proptest::option::of((1usize..3, 3usize..6, 2.0f64..8.0));
    ((target, 0u8..2, inbox), (tick, depth, autoscale)).prop_map(
        |((target, edf, inbox), (tick, depth, autoscale))| {
            let edf = edf == 1;
            let mut p = SloPolicy::new(Dur::from_secs_f64(target))
                .with_inbox_capacity(inbox)
                .with_tick(Dur::from_secs_f64(tick));
            p.degrade_queue_depth = depth;
            if !edf {
                p = p.with_fcfs();
            }
            if let Some((min, max, up)) = autoscale {
                let mut a = AutoscalePolicy::default().with_bounds(min, max);
                a.up_queue_depth = up;
                a.cooldown = Dur::from_secs_f64(tick * 2.0);
                p = p.with_autoscale(a);
            }
            p
        },
    )
}

/// An arbitrary fault plan, as in `chaos.rs`: link windows, SSD error
/// rates, pressure spikes, and crash schedules inside the first minute.
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

/// The flash-crowd workload the overload properties run against: a
/// doubled base rate with a fixed surge window early enough to land
/// inside small traces.
fn surge_trace(seed: u64, n_sessions: usize, factor: f64) -> cachedattention::workload::Trace {
    let profile = ShareGptProfile::default()
        .with_arrival_rate(2.0)
        .with_surge(Surge {
            start_secs: 5.0,
            duration_secs: 60.0,
            factor,
        });
    Generator::new(profile, seed).trace(n_sessions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any overload policy, fault plan, cluster shape and router:
    /// timestamps never regress, every turn walks the (overload- and
    /// fault-extended) lifecycle on one instance at a time, a shed is
    /// terminal for its session, reroutes only leave crashed or retired
    /// instances, retired instances stay silent until revived, and the
    /// report's overload counters agree with the event stream.
    #[test]
    fn any_overload_policy_preserves_the_turn_lifecycle(
        seed in 0u64..5_000,
        n_sessions in 8usize..20,
        n_instances in 1usize..4,
        surge in 2.0f64..6.0,
        router in routers(),
        policy in slo_policies(),
        plan in fault_plans(),
    ) {
        let trace = surge_trace(seed, n_sessions, surge);
        let cfg = ClusterConfig::new(
            pressured(Mode::CachedAttention, Medium::DramDisk),
            n_instances,
            router,
        )
        .with_slo(policy)
        .with_faults(plan);
        let (report, log) = run_cluster_with_observer(cfg, trace, InstanceLog::default());
        prop_assert!(!log.events.is_empty());

        // (phase, owning instance of the live turn) per session.
        let mut state: HashMap<u64, (Phase, u32)> = HashMap::new();
        let mut crashed: BTreeSet<u32> = BTreeSet::new();
        let mut retired_instances: BTreeSet<u32> = BTreeSet::new();
        let mut slo_headers = 0u64;
        let mut sheds = 0u64;
        let mut transitions = 0u64;
        let mut scale_ups = 0u64;
        let mut scale_downs = 0u64;
        let mut ladder = "normal";
        let mut prev_at = Time::ZERO;
        for (inst, ev) in &log.events {
            prop_assert!(
                ev.at() >= prev_at,
                "timestamp regressed: {:?} after t={:?}",
                ev,
                prev_at
            );
            prev_at = ev.at();

            // Instance-scoped overload and fault events first.
            match ev {
                EngineEvent::SloConfig { .. } => {
                    slo_headers += 1;
                    continue;
                }
                EngineEvent::OverloadLevelChanged { from, to, .. } => {
                    prop_assert!(slo_headers > 0, "ladder moved before the SLO header");
                    prop_assert!(*from == ladder, "ladder jumped a rung: {} -> {}", from, to);
                    prop_assert!(from != to, "ladder 'moved' to the same rung");
                    ladder = to;
                    transitions += 1;
                    continue;
                }
                EngineEvent::ScaleUp { instance, n_alive, .. } => {
                    prop_assert!(slo_headers > 0, "scaled before the SLO header");
                    prop_assert!(*instance == *inst, "scale_up attributed elsewhere");
                    prop_assert!(
                        !crashed.contains(instance),
                        "autoscaler revived crashed instance {}", instance
                    );
                    retired_instances.remove(instance);
                    prop_assert!(*n_alive >= 1);
                    scale_ups += 1;
                    continue;
                }
                EngineEvent::ScaleDown { instance, n_alive, .. } => {
                    prop_assert!(slo_headers > 0, "scaled before the SLO header");
                    prop_assert!(*instance == *inst, "scale_down attributed elsewhere");
                    prop_assert!(
                        retired_instances.insert(*instance),
                        "instance {} retired twice without a revival", instance
                    );
                    prop_assert!(*n_alive >= 1, "autoscaler retired the last instance");
                    scale_downs += 1;
                    continue;
                }
                EngineEvent::InstanceCrashed { instance, .. } => {
                    prop_assert_eq!(*instance, *inst);
                    prop_assert!(
                        crashed.insert(*instance),
                        "instance {} crashed twice", instance
                    );
                    continue;
                }
                _ => {}
            }

            let sid = ev.session().expect("remaining events are session-scoped");
            // A cleanly retired instance holds nothing (the drain moved
            // its queue, batch and in-flight prefill), so nothing may be
            // attributed to it until the autoscaler revives it.
            prop_assert!(
                !retired_instances.contains(inst),
                "{} for session {} attributed to retired instance {}",
                ev.kind(),
                sid,
                inst
            );
            let entry = state.entry(sid).or_insert((Phase::Idle, *inst));
            let (phase, owner) = *entry;
            prop_assert!(
                phase != Phase::Shed,
                "session {} emitted {} after its shed",
                sid,
                ev.kind()
            );
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
                EngineEvent::TurnShed { reason, .. } => {
                    // Shed happens at admission time, before any job is
                    // created; it is terminal for the session.
                    prop_assert!(phase == Phase::Arrived, "shed a session not arriving");
                    prop_assert!(
                        *reason == "inbox_full" || *reason == "overload_shed",
                        "unknown shed reason {:?}", reason
                    );
                    entry.0 = Phase::Shed;
                    sheds += 1;
                }
                EngineEvent::Consulted { .. } | EngineEvent::Deferred { .. } => {
                    prop_assert!(phase == Phase::Arrived);
                }
                EngineEvent::DegradedRecompute { .. } => {
                    // Fault fallback and the ladder's recompute-only rung
                    // both degrade at consult time, before admission.
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
                    // A reroute moves a *live* turn off an instance that
                    // crashed or was cleanly retired, onto a live one,
                    // and restarts its pipeline from the queue.
                    prop_assert!(phase != Phase::Idle, "rerouted an idle session {}", sid);
                    prop_assert_eq!(*from, owner);
                    prop_assert!(
                        crashed.contains(from) || retired_instances.contains(from),
                        "rerouted off live instance {}", from
                    );
                    prop_assert!(*from != *to, "rerouted onto the same instance");
                    prop_assert!(!crashed.contains(to), "rerouted onto a crashed instance");
                    prop_assert!(
                        !retired_instances.contains(to),
                        "rerouted onto retired instance {}", to
                    );
                    *entry = (Phase::Arrived, *to);
                }
                EngineEvent::InstanceCrashed { .. }
                | EngineEvent::SloConfig { .. }
                | EngineEvent::OverloadLevelChanged { .. }
                | EngineEvent::ScaleUp { .. }
                | EngineEvent::ScaleDown { .. } => unreachable!("handled above"),
            }
        }

        // Every session either finished all its turns or stopped at
        // exactly one typed rejection; nothing is left mid-turn.
        let mut shed_sessions = 0u64;
        for (sid, (phase, _)) in &state {
            prop_assert!(
                *phase == Phase::Idle || *phase == Phase::Shed,
                "session {} left mid-turn in phase {:?}",
                sid,
                phase
            );
            if *phase == Phase::Shed {
                shed_sessions += 1;
            }
        }
        prop_assert!(sheds == shed_sessions, "a session shed more than once");
        prop_assert!(
            report.aggregate.sessions_done.get() + sheds == n_sessions as u64,
            "sessions neither finished nor shed"
        );

        // The overload counters agree with the event stream, and the
        // SLO header is emitted exactly once.
        prop_assert_eq!(slo_headers, 1);
        prop_assert_eq!(report.overload.turns_shed, sheds);
        prop_assert_eq!(report.overload.level_transitions, transitions);
        prop_assert_eq!(report.overload.scale_ups, scale_ups);
        prop_assert_eq!(report.overload.scale_downs, scale_downs);
        let retirements = log
            .events
            .iter()
            .filter(|(_, e)| matches!(e, EngineEvent::Retired { .. }))
            .count() as u64;
        prop_assert_eq!(retirements, report.aggregate.turns_measured.get());
    }

    /// Attaching the no-op policy to an arbitrary cluster shape is
    /// byte-identical to attaching none: the whole serialized report —
    /// not just the aggregate — matches, so the SLO layer has zero
    /// footprint when unconfigured.
    #[test]
    fn noop_policy_is_byte_identical_to_no_policy(
        seed in 0u64..5_000,
        n_sessions in 6usize..16,
        n_instances in 1usize..4,
        router in routers(),
    ) {
        let cfg = || pressured(Mode::CachedAttention, Medium::DramDisk);
        let gen = || Generator::new(ShareGptProfile::default(), seed).trace(n_sessions);
        let plain = run_cluster(ClusterConfig::new(cfg(), n_instances, router), gen());
        let noop = run_cluster(
            ClusterConfig::new(cfg(), n_instances, router).with_slo(SloPolicy::noop()),
            gen(),
        );
        prop_assert!(!noop.overload.any());
        prop_assert_eq!(
            serde_json::to_string_pretty(&plain).expect("serializes"),
            serde_json::to_string_pretty(&noop).expect("serializes"),
        );
    }
}
