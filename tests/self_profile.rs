//! Self-profiling is strictly additive: a run executed with the
//! host-time profiler enabled must produce a byte-identical `RunReport`
//! to an unprofiled run of the same config.
//!
//! This is the two-clock counterpart of `telemetry_observers.rs`: that
//! suite pins that *virtual-time* observation is free; this one pins
//! that the *host-time* plane (scoped timers on the cluster, store and
//! telemetry hot paths, the heartbeat, RSS sampling) reads only wall
//! clocks and thread-local accumulators — never simulation state — so
//! enabling it cannot perturb a single simulated outcome.

use bench_suite::profile::{golden_scenarios, pressured};
use cachedattention::engine::{run_cluster, ClusterConfig, Mode, RouterKind};
use cachedattention::sim::{profiler, ProfilerConfig};
use cachedattention::workload::{Generator, ShareGptProfile, Trace};
use std::sync::Mutex;

/// The profiler's enable flag is process-global; tests that toggle it
/// must not interleave.
static PROFILER_LOCK: Mutex<()> = Mutex::new(());

fn golden_trace() -> Trace {
    Generator::new(ShareGptProfile::default(), 7).trace(20)
}

#[test]
fn profiled_single_engine_reports_are_byte_identical() {
    let _guard = PROFILER_LOCK.lock().unwrap();
    for (name, cfg) in golden_scenarios() {
        let plain = cachedattention::engine::run_trace(cfg.clone(), golden_trace());
        let expect = serde_json::to_string_pretty(&plain).unwrap();

        profiler::begin(ProfilerConfig::default());
        let profiled = cachedattention::engine::run_trace(cfg, golden_trace());
        let profile = profiler::finish();

        assert_eq!(
            expect,
            serde_json::to_string_pretty(&profiled).unwrap(),
            "scenario `{name}`: self-profiling changed the report"
        );
        assert!(
            profile.events > 0,
            "scenario `{name}`: the profiler saw no events"
        );
    }
}

#[test]
fn profiled_cluster_reports_are_byte_identical() {
    let _guard = PROFILER_LOCK.lock().unwrap();
    let engine = pressured(Mode::CachedAttention);
    let cfg = ClusterConfig::new(engine, 3, RouterKind::SessionAffinity);
    let trace = Generator::new(ShareGptProfile::default(), 11).trace(40);

    let plain = run_cluster(cfg.clone(), trace.clone());
    let expect = serde_json::to_string_pretty(&plain).unwrap();

    profiler::begin(ProfilerConfig::default());
    let profiled = run_cluster(cfg, trace);
    let profile = profiler::finish();

    assert_eq!(
        expect,
        serde_json::to_string_pretty(&profiled).unwrap(),
        "self-profiling changed the cluster report"
    );
    // The cluster path exercises the instrumented hot paths, so the
    // profile must actually contain them.
    let names: Vec<&str> = profile.scopes.iter().map(|s| s.name.as_str()).collect();
    for want in ["cluster.dispatch", "cluster.merged_view", "store.save"] {
        assert!(names.contains(&want), "scope `{want}` missing: {names:?}");
    }
}

/// Under recomputation there is no store to consult, so the cluster
/// never builds the merged queue view the store would read.
#[test]
fn recompute_clusters_build_no_merged_view() {
    let _guard = PROFILER_LOCK.lock().unwrap();
    let cfg = ClusterConfig::new(pressured(Mode::Recompute), 3, RouterKind::SessionAffinity);
    let trace = Generator::new(ShareGptProfile::default(), 11).trace(40);
    profiler::begin(ProfilerConfig::default());
    run_cluster(cfg, trace);
    let profile = profiler::finish();
    let names: Vec<&str> = profile.scopes.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"cluster.dispatch"), "{names:?}");
    assert!(!names.contains(&"cluster.merged_view"), "{names:?}");
}

#[test]
fn disabled_profiler_stays_silent_across_a_run() {
    let _guard = PROFILER_LOCK.lock().unwrap();
    let cfg = pressured(Mode::CachedAttention);
    // No begin(): the scope! macros must not record anything.
    let _report = cachedattention::engine::run_trace(cfg, golden_trace());
    profiler::begin(ProfilerConfig::default());
    let profile = profiler::finish();
    assert_eq!(profile.events, 0);
    assert!(profile.scopes.is_empty());
}
