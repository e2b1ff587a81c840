//! The cluster refactor's non-negotiable invariant: a 1-instance
//! cluster with the session-affinity router IS the single-GPU engine.
//!
//! `golden_report.rs` pins `run_trace` (a one-instance `ClusterSim`
//! under affinity routing) against the committed fixtures. This suite
//! closes the loop from the other side: driving `ClusterSim` *directly*
//! at `n_instances = 1`, under either router, must reproduce those same
//! fixtures byte-for-byte. A property test then checks the
//! cluster-specific causal structure for N > 1: every turn walks the
//! pipeline in order on one instance, and a session is never live on two
//! instances at once.

use bench_suite::profile::golden_scenarios;
use cachedattention::engine::{
    run_cluster, run_cluster_with_observer, ClusterConfig, EngineConfig, EngineEvent,
    EngineObserver, Medium, Mode, RouterKind,
};
use cachedattention::models::ModelSpec;
use cachedattention::sim::Time;
use cachedattention::workload::{Generator, ShareGptProfile};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// A single-instance cluster must reproduce every committed golden
/// fixture byte-for-byte, under either router (both degenerate to
/// "everything on instance 0" at N = 1).
#[test]
fn single_instance_cluster_reproduces_all_golden_fixtures() {
    for router in [RouterKind::SessionAffinity, RouterKind::LeastLoaded] {
        for (name, cfg) in golden_scenarios() {
            let trace = Generator::new(ShareGptProfile::default(), 7).trace(20);
            let report = run_cluster(ClusterConfig::new(cfg, 1, router), trace);
            let mut json = serde_json::to_string_pretty(&report.aggregate).expect("serializes");
            json.push('\n');

            let path = golden_dir().join(format!("{name}.json"));
            let expected = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
            assert_eq!(
                expected,
                json,
                "ClusterSim{{n_instances: 1, router: {}}} diverged from golden `{name}`",
                router.label()
            );
            // The per-instance breakdown of a 1-instance cluster is the
            // aggregate.
            assert_eq!(report.instances.len(), 1);
            let inst = &report.instances[0];
            assert_eq!(inst.h2d_bytes, report.aggregate.h2d_bytes);
            assert_eq!(inst.d2h_bytes, report.aggregate.d2h_bytes);
            assert_eq!(inst.slow_read_bytes, report.aggregate.slow_read_bytes);
            assert_eq!(inst.slow_write_bytes, report.aggregate.slow_write_bytes);
            assert_eq!(
                inst.hbm_high_water_bytes,
                report.aggregate.hbm_high_water_bytes
            );
            assert_eq!(inst.turns_done, report.aggregate.turns_measured.get());
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
        // The cluster orchestrator always attributes events; reaching
        // this instance-blind path would itself be a bug.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any instance count and router: timestamps never regress in
    /// commit order, every turn walks
    /// `TurnArrived ≤ Consulted ≤ Admitted ≤ PrefillDone ≤ Retired`
    /// entirely on one instance, and a session is never live on two
    /// instances concurrently.
    #[test]
    fn cluster_events_follow_the_lifecycle_on_one_instance(
        seed in 0u64..5_000,
        n_sessions in 6usize..20,
        n_instances in 1usize..5,
        router in routers(),
        dram_gb in 2u64..16,
    ) {
        let trace = Generator::new(ShareGptProfile::default(), seed).trace(n_sessions);
        let mut cfg = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
        cfg.medium = Medium::DramDisk;
        cfg.store.set_dram_bytes(dram_gb * 1_000_000_000);
        cfg.store.set_disk_bytes(40_000_000_000);
        let (report, log) = run_cluster_with_observer(
            ClusterConfig::new(cfg, n_instances, router),
            trace,
            InstanceLog::default(),
        );
        prop_assert!(!log.events.is_empty());
        prop_assert_eq!(report.instances.len(), n_instances);

        // (phase, owning instance of the live turn) per session.
        let mut state: HashMap<u64, (Phase, u32)> = HashMap::new();
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

            let sid = ev
                .session()
                .expect("fault-free runs only emit session-scoped events");
            let entry = state.entry(sid).or_insert((Phase::Idle, *inst));
            let (phase, owner) = *entry;
            if phase != Phase::Idle {
                // A live turn sticks to the instance that received it:
                // no session runs on two instances concurrently.
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
                    prop_assert!(
                        phase == Phase::Idle,
                        "turn arrived for session {} mid-turn", sid
                    );
                    *entry = (Phase::Arrived, *inst);
                }
                EngineEvent::Consulted { .. } | EngineEvent::Deferred { .. } => {
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
                EngineEvent::InstanceCrashed { .. }
                | EngineEvent::TurnRerouted { .. }
                | EngineEvent::DegradedRecompute { .. } => {
                    prop_assert!(false, "fault event in a fault-free run: {:?}", ev);
                }
                EngineEvent::SloConfig { .. }
                | EngineEvent::TurnShed { .. }
                | EngineEvent::OverloadLevelChanged { .. }
                | EngineEvent::ScaleUp { .. }
                | EngineEvent::ScaleDown { .. } => {
                    prop_assert!(false, "overload event in an SLO-free run: {:?}", ev);
                }
            }
        }
        for (sid, (phase, _)) in &state {
            prop_assert!(*phase == Phase::Idle, "session {} left mid-turn", sid);
        }
        // The stream agrees with the report's totals, in aggregate and
        // per instance.
        let retirements = log
            .events
            .iter()
            .filter(|(_, e)| matches!(e, EngineEvent::Retired { .. }))
            .count() as u64;
        prop_assert_eq!(retirements, report.aggregate.turns_measured.get());
        for inst in &report.instances {
            let mine = log
                .events
                .iter()
                .filter(|(i, e)| *i == inst.instance && matches!(e, EngineEvent::Retired { .. }))
                .count() as u64;
            prop_assert_eq!(mine, inst.turns_done);
        }
    }
}
