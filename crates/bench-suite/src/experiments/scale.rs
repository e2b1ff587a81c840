//! The million-event throughput gate behind `exp_scale`.
//!
//! Every other experiment measures what the simulator *says* (virtual
//! latencies, hit rates); this one measures the simulator *itself*: how
//! many discrete events per host second it sustains on a large
//! multi-instance run, how much wall-clock and resident memory the run
//! costs, and where the host time goes (the per-scope self-profile from
//! `sim::profiler`).
//!
//! Two clocks, two regression disciplines:
//!
//! - **Virtual fields** (`turns`, `events`, `makespan_secs`, `hit_rate`)
//!   are bit-deterministic — the compare step requires them to match the
//!   baseline exactly (floats within epsilon). Any drift means serving
//!   behavior changed, not the machine. `events` counts the events the
//!   loop dispatched, and a decode run is one event however many tokens
//!   it covers, so the count also moves when the engine slices the same
//!   work into events differently.
//! - **Host fields** (`events_per_sec`, `wall_secs`, `peak_rss_bytes`)
//!   depend on the hardware running the gate, so they get a wide
//!   tolerance band ([`DEFAULT_HOST_TOLERANCE`], ±50%) that catches
//!   order-of-magnitude collapses (an accidental O(n²) in a hot path)
//!   without flaking on machine-to-machine noise.
//!
//! `ci.sh` runs the [`ScaleOpts::bench`] scenario and diffs it against
//! the checked-in `BENCH_scale.json`; regenerate with
//! `REGEN_BENCH=1 ./ci.sh` after intentional changes.

use engine::{run_cluster, ClusterConfig, ClusterReport, EngineConfig, Mode, RouterKind};
use models::ModelSpec;
use serde::{Serialize, Value};
use sim::{profiler, ProfilerConfig, SelfProfile};
use workload::{Diurnal, Generator, ShareGptProfile, Trace};

use crate::DEFAULT_SEED;

/// Version of the `BENCH_scale.json` layout. Bump when fields are
/// added, removed or renamed; the compare step refuses cross-schema
/// diffs.
pub const SCALE_SCHEMA: u64 = 1;

/// Tolerance band for host-clock fields (events/sec, wall seconds,
/// peak RSS). Host time is machine-dependent, so the band is wide: it
/// exists to catch algorithmic collapses, not 10% noise.
pub const DEFAULT_HOST_TOLERANCE: f64 = 0.5;

/// Absolute slack for the virtual-float comparisons: the simulator is
/// deterministic, so these only move on real behavior change.
const EPSILON: f64 = 1e-6;

/// Configuration of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleOpts {
    /// Number of conversation sessions in the trace.
    pub sessions: usize,
    /// Serving instances in the cluster.
    pub instances: usize,
    /// Mean session arrival rate (sessions/sec of virtual time).
    pub arrival_rate: f64,
    /// Diurnal modulation of the arrival rate (`None` = flat Poisson).
    pub diurnal: Option<Diurnal>,
    /// Heartbeat period for the stderr progress line (`None` = quiet).
    pub heartbeat_secs: Option<f64>,
}

impl ScaleOpts {
    /// The acceptance-scale run: 100K sessions (~575K turns, ~14M
    /// events) across 8 instances under a diurnal arrival wave that
    /// peaks right at fleet capacity — ~18 virtual hours, minutes of
    /// wall clock.
    pub fn full() -> Self {
        ScaleOpts {
            sessions: 100_000,
            instances: 8,
            arrival_rate: 1.5,
            diurnal: Some(Diurnal::default()),
            heartbeat_secs: Some(10.0),
        }
    }

    /// The CI gate scenario: large enough that per-event overheads
    /// dominate fixed costs (~300K events), small enough to run in a
    /// couple of seconds. This is the config `BENCH_scale.json` pins.
    pub fn bench() -> Self {
        ScaleOpts {
            sessions: 2_000,
            instances: 4,
            arrival_rate: 1.0,
            diurnal: Some(Diurnal::default()),
            heartbeat_secs: None,
        }
    }
}

/// KV of a finished conversation idles in the store this long (virtual
/// seconds) before the TTL sweep drops it.
///
/// The TTL is what makes a 100K-session run tractable *and* realistic:
/// without it every session ever saved stays resident forever, the
/// entry map grows with the total session count, and every
/// eviction-candidate scan (`store.reserve`, `store.prefetch` in the
/// self-profile) degrades linearly — the whole run goes quadratic. A
/// production store expires idle conversations; with a TTL the live
/// set is bounded by `arrival_rate x ttl` regardless of how many total
/// sessions flow through.
pub const SCALE_TTL_SECS: f64 = 3_600.0;

/// Sessions whose KV is concurrently resident at the diurnal peak:
/// arrivals during one TTL window, capped by the trace itself.
pub fn working_set_sessions(opts: &ScaleOpts) -> f64 {
    let peak_factor = opts.diurnal.as_ref().map_or(1.0, |d| 1.0 + d.amplitude);
    (opts.arrival_rate * peak_factor * SCALE_TTL_SECS).min(opts.sessions as f64)
}

/// The cluster configuration for a scale run: the paper's engine with
/// an idle-session TTL and storage provisioned for the *working set*,
/// not the total session count.
///
/// Unlike [`crate::scaled_config`] — which shrinks the store for small
/// runs to preserve the paper's eviction pressure — the scale gate
/// provisions for the TTL-bounded peak working set
/// ([`working_set_sessions`]) and grows DRAM/disk proportionally when
/// that exceeds the paper's 9K-session baseline. Total sessions don't
/// matter: a fleet serving a million conversations a day still only
/// holds a few hours' worth of KV at once.
pub fn scale_config(opts: &ScaleOpts) -> ClusterConfig {
    let f = (working_set_sessions(opts) / 9_000.0).max(1.0);
    let mut engine = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
    engine.store.ttl = Some(sim::Dur::from_secs_f64(SCALE_TTL_SECS));
    engine
        .store
        .set_dram_bytes((engine.store.dram_bytes() as f64 * f) as u64);
    engine
        .store
        .set_disk_bytes((engine.store.disk_bytes() as f64 * f) as u64);
    ClusterConfig::new(engine, opts.instances, RouterKind::SessionAffinity)
}

/// Builds the scale trace: the ShareGPT profile under `arrival_rate`,
/// optionally diurnally modulated, at the canonical seed.
pub fn scale_trace(opts: &ScaleOpts) -> Trace {
    let mut profile = ShareGptProfile::default().with_arrival_rate(opts.arrival_rate);
    if let Some(d) = &opts.diurnal {
        profile = profile.with_diurnal(d.clone());
    }
    Generator::new(profile, DEFAULT_SEED).trace(opts.sessions)
}

/// A completed scale run: the cluster report plus the host-time
/// self-profile collected around it.
#[derive(Debug)]
pub struct ScaleRun {
    /// The virtual-time serving report.
    pub report: ClusterReport,
    /// The host-time self-profile (wall clock, events/sec, RSS, scopes).
    pub profile: SelfProfile,
    /// Total turns in the driving trace.
    pub trace_turns: u64,
}

/// Runs the scale scenario with the self-profiler enabled.
///
/// No telemetry observer is attached: at hundreds of thousands of
/// sessions the verbatim trace would dominate memory, and the gate
/// measures the simulator core, not the exporter.
pub fn run_scale(opts: &ScaleOpts) -> ScaleRun {
    let trace = scale_trace(opts);
    let trace_turns = trace.total_turns() as u64;
    profiler::begin(ProfilerConfig {
        heartbeat_secs: opts.heartbeat_secs,
    });
    let report = run_cluster(scale_config(opts), trace);
    let profile = profiler::finish();
    ScaleRun {
        report,
        profile,
        trace_turns,
    }
}

/// The serialized fingerprint `BENCH_scale.json` pins.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleBench {
    /// Layout version ([`SCALE_SCHEMA`]).
    pub schema: u64,
    /// Sessions in the driving trace — exact match required.
    pub sessions: u64,
    /// Serving instances — exact match required.
    pub instances: u64,
    /// Total turns in the trace — exact match required.
    pub turns: u64,
    /// Discrete events dispatched — exact match required (the event
    /// count is a complete fingerprint of the simulation's control
    /// flow).
    pub events: u64,
    /// Virtual makespan, seconds — deterministic, epsilon-exact.
    pub makespan_secs: f64,
    /// Store hit rate — deterministic, epsilon-exact.
    pub hit_rate: f64,
    /// Host wall-clock of the run, seconds — banded (lower is better).
    pub wall_secs: f64,
    /// Events dispatched per host second — banded (higher is better).
    pub events_per_sec: f64,
    /// Peak resident set size, bytes (`null` off Linux) — banded
    /// (lower is better).
    pub peak_rss_bytes: Option<u64>,
    /// The per-scope host-time breakdown, for humans reading the JSON;
    /// the compare step ignores it (scope timings are even noisier
    /// than the totals).
    pub self_profile: SelfProfile,
}

/// Folds a completed run into the benchmark fingerprint.
pub fn to_bench(opts: &ScaleOpts, run: &ScaleRun) -> ScaleBench {
    ScaleBench {
        schema: SCALE_SCHEMA,
        sessions: opts.sessions as u64,
        instances: opts.instances as u64,
        turns: run.trace_turns,
        events: run.profile.events,
        makespan_secs: run.report.aggregate.makespan_secs,
        hit_rate: run.report.aggregate.hit_rate(),
        wall_secs: run.profile.wall_secs,
        events_per_sec: run.profile.events_per_sec,
        peak_rss_bytes: run.profile.peak_rss_bytes,
        self_profile: run.profile.clone(),
    }
}

/// Renders the human-readable summary `exp_scale` prints.
pub fn render(bench: &ScaleBench) -> String {
    let mut out = String::new();
    out.push_str("scale run (host-time throughput gate)\n");
    out.push_str(&format!(
        "  sessions {}  instances {}  turns {}\n",
        bench.sessions, bench.instances, bench.turns
    ));
    out.push_str(&format!(
        "  virtual: makespan {:.1}s  hit_rate {:.3}\n",
        bench.makespan_secs, bench.hit_rate
    ));
    let rss = match bench.peak_rss_bytes {
        Some(b) => format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)),
        None => "n/a".to_string(),
    };
    out.push_str(&format!(
        "  host:    {} events in {:.2}s wall = {:.0} events/sec, peak RSS {}\n",
        bench.events, bench.wall_secs, bench.events_per_sec, rss
    ));
    out.push('\n');
    out.push_str(&bench.self_profile.render_table());
    out
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Reads an optional numeric field, distinguishing an explicit `null`
/// (absent measurement, e.g. RSS off Linux) from a malformed profile.
fn opt_num(bench: &Value, field: &str) -> Result<Option<f64>, String> {
    match bench.get(field) {
        None => Err(format!("field `{field}` missing")),
        Some(Value::Null) => Ok(None),
        Some(v) => num(v)
            .map(Some)
            .ok_or_else(|| format!("field `{field}` non-numeric")),
    }
}

fn req_num(bench: &Value, field: &str) -> Result<f64, String> {
    opt_num(bench, field)?.ok_or_else(|| format!("field `{field}` null"))
}

/// Diffs `current` against `baseline` (both serialized [`ScaleBench`]
/// values); returns every failure found — empty means the gate passes.
///
/// Virtual fields must match exactly (integers) or within epsilon
/// (floats): the simulator is deterministic, so any drift is a real
/// behavior change — regenerate with `REGEN_BENCH=1 ./ci.sh` if
/// intended. Host fields are banded by `tolerance`: `events_per_sec`
/// fails when it *drops* below the band, `wall_secs` and
/// `peak_rss_bytes` when they *grow* above it.
pub fn compare_scale(baseline: &Value, current: &Value, tolerance: f64) -> Vec<String> {
    let mut fails = Vec::new();
    let base_schema = baseline.get("schema").and_then(num);
    let cur_schema = current.get("schema").and_then(num);
    if base_schema != cur_schema || base_schema != Some(SCALE_SCHEMA as f64) {
        fails.push(format!(
            "scale schema mismatch: baseline {:?} vs current {:?} (expected {SCALE_SCHEMA}); \
             regenerate with REGEN_BENCH=1 ./ci.sh",
            base_schema, cur_schema
        ));
        return fails;
    }

    // Deterministic virtual-time fields: exact.
    for field in ["sessions", "instances", "turns", "events"] {
        match (req_num(baseline, field), req_num(current, field)) {
            (Ok(b), Ok(c)) => {
                if b != c {
                    fails.push(format!(
                        "{field} changed {b} -> {c} (deterministic; must match exactly — \
                         regenerate with REGEN_BENCH=1 ./ci.sh if intended)"
                    ));
                }
            }
            (Err(e), _) | (_, Err(e)) => fails.push(e),
        }
    }
    for field in ["makespan_secs", "hit_rate"] {
        match (req_num(baseline, field), req_num(current, field)) {
            (Ok(b), Ok(c)) => {
                if (b - c).abs() > EPSILON {
                    fails.push(format!(
                        "{field} changed {b:.6} -> {c:.6} (deterministic; must match within \
                         epsilon — regenerate with REGEN_BENCH=1 ./ci.sh if intended)"
                    ));
                }
            }
            (Err(e), _) | (_, Err(e)) => fails.push(e),
        }
    }

    // Host-clock fields: banded.
    match (
        req_num(baseline, "events_per_sec"),
        req_num(current, "events_per_sec"),
    ) {
        (Ok(b), Ok(c)) => {
            if c < b * (1.0 - tolerance) - EPSILON {
                fails.push(format!(
                    "events_per_sec regressed {b:.0} -> {c:.0} (-{:.1}% > {:.1}% band)",
                    (b - c) / b.max(EPSILON) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => fails.push(e),
    }
    match (
        req_num(baseline, "wall_secs"),
        req_num(current, "wall_secs"),
    ) {
        (Ok(b), Ok(c)) => {
            if c > b * (1.0 + tolerance) + EPSILON {
                fails.push(format!(
                    "wall_secs regressed {b:.2} -> {c:.2} (+{:.1}% > {:.1}% band)",
                    (c - b) / b.max(EPSILON) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => fails.push(e),
    }
    match (
        opt_num(baseline, "peak_rss_bytes"),
        opt_num(current, "peak_rss_bytes"),
    ) {
        // RSS unavailable on both sides (non-Linux): simply absent.
        (Ok(None), Ok(None)) => {}
        (Ok(Some(b)), Ok(Some(c))) => {
            if c > b * (1.0 + tolerance) + EPSILON {
                fails.push(format!(
                    "peak_rss_bytes regressed {b:.0} -> {c:.0} (+{:.1}% > {:.1}% band)",
                    (c - b) / b.max(EPSILON) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
        (Ok(b), Ok(c)) => fails.push(format!(
            "peak_rss_bytes presence changed {b:?} -> {c:?} (null means unmeasurable; \
             regenerate with REGEN_BENCH=1 ./ci.sh if the platform changed)"
        )),
        (Err(e), _) | (_, Err(e)) => fails.push(e),
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The profiler's enable flag is process-global; every test that
    /// runs a profiled simulation must hold this.
    static PROFILER_LOCK: Mutex<()> = Mutex::new(());

    fn tiny() -> ScaleOpts {
        ScaleOpts {
            sessions: 120,
            instances: 2,
            arrival_rate: 2.0,
            diurnal: Some(Diurnal::default()),
            heartbeat_secs: None,
        }
    }

    #[test]
    fn scale_run_is_virtually_deterministic() {
        let _guard = PROFILER_LOCK.lock().unwrap();
        let opts = tiny();
        let a = to_bench(&opts, &run_scale(&opts));
        let b = to_bench(&opts, &run_scale(&opts));
        assert_eq!(a.turns, b.turns);
        assert_eq!(a.events, b.events);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.hit_rate, b.hit_rate);
        assert!(a.events > 0);
        assert!(a.events_per_sec > 0.0);
        assert!(!a.self_profile.scopes.is_empty(), "hot paths were scoped");
    }

    #[test]
    fn two_runs_of_the_same_bench_pass_the_gate() {
        let _guard = PROFILER_LOCK.lock().unwrap();
        let opts = tiny();
        let a = to_bench(&opts, &run_scale(&opts)).to_value();
        let b = to_bench(&opts, &run_scale(&opts)).to_value();
        let fails = compare_scale(&a, &b, DEFAULT_HOST_TOLERANCE);
        assert!(fails.is_empty(), "{fails:?}");
    }

    fn sample() -> Value {
        ScaleBench {
            schema: SCALE_SCHEMA,
            sessions: 4_000,
            instances: 4,
            turns: 23_000,
            events: 1_000_000,
            makespan_secs: 1_500.0,
            hit_rate: 0.9,
            wall_secs: 4.0,
            events_per_sec: 250_000.0,
            peak_rss_bytes: Some(500_000_000),
            self_profile: SelfProfile {
                wall_secs: 4.0,
                events: 1_000_000,
                events_per_sec: 250_000.0,
                peak_rss_bytes: Some(500_000_000),
                alloc_count: None,
                alloc_bytes: None,
                scopes: Vec::new(),
            },
        }
        .to_value()
    }

    fn set(bench: &mut Value, field: &str, to: Value) {
        let Value::Object(pairs) = bench else {
            panic!("bench must be an object")
        };
        for (k, v) in pairs.iter_mut() {
            if k == field {
                *v = to.clone();
            }
        }
    }

    #[test]
    fn identical_benches_pass() {
        assert!(compare_scale(&sample(), &sample(), DEFAULT_HOST_TOLERANCE).is_empty());
    }

    #[test]
    fn event_count_drift_fails_exactly() {
        let mut cur = sample();
        set(&mut cur, "events", Value::U64(1_000_001));
        let fails = compare_scale(&sample(), &cur, DEFAULT_HOST_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("events changed"));
    }

    #[test]
    fn makespan_drift_fails_but_epsilon_noise_passes() {
        let mut cur = sample();
        set(&mut cur, "makespan_secs", Value::F64(1_500.0 + 5e-7));
        assert!(compare_scale(&sample(), &cur, DEFAULT_HOST_TOLERANCE).is_empty());
        set(&mut cur, "makespan_secs", Value::F64(1_501.0));
        let fails = compare_scale(&sample(), &cur, DEFAULT_HOST_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("makespan_secs"));
    }

    #[test]
    fn throughput_collapse_fails_but_noise_passes() {
        let mut cur = sample();
        // -30% is inside the ±50% host band.
        set(&mut cur, "events_per_sec", Value::F64(175_000.0));
        assert!(compare_scale(&sample(), &cur, DEFAULT_HOST_TOLERANCE).is_empty());
        // -60% is a collapse.
        set(&mut cur, "events_per_sec", Value::F64(100_000.0));
        let fails = compare_scale(&sample(), &cur, DEFAULT_HOST_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("events_per_sec regressed"));
        // Faster is never a failure.
        set(&mut cur, "events_per_sec", Value::F64(900_000.0));
        assert!(compare_scale(&sample(), &cur, DEFAULT_HOST_TOLERANCE).is_empty());
    }

    #[test]
    fn rss_growth_and_presence_flips_fail() {
        let mut cur = sample();
        set(&mut cur, "peak_rss_bytes", Value::U64(800_000_000)); // +60%
        let fails = compare_scale(&sample(), &cur, DEFAULT_HOST_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("peak_rss_bytes regressed"));

        set(&mut cur, "peak_rss_bytes", Value::Null);
        let fails = compare_scale(&sample(), &cur, DEFAULT_HOST_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("presence changed"));

        // Null in both = absent, fine.
        let mut base = sample();
        set(&mut base, "peak_rss_bytes", Value::Null);
        assert!(compare_scale(&base, &cur, DEFAULT_HOST_TOLERANCE).is_empty());
    }

    #[test]
    fn schema_mismatch_fails_with_regen_hint() {
        let mut cur = sample();
        set(&mut cur, "schema", Value::U64(99));
        let fails = compare_scale(&sample(), &cur, DEFAULT_HOST_TOLERANCE);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("REGEN_BENCH=1"));
    }

    #[test]
    fn store_is_provisioned_for_the_working_set_not_total_sessions() {
        let paper_dram = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b())
            .store
            .dram_bytes();
        let small = scale_config(&tiny());
        assert_eq!(
            small.engine.store.dram_bytes(),
            paper_dram,
            "a working set below the paper scale keeps the paper store"
        );
        assert!(small.engine.store.ttl.is_some(), "scale runs always expire");

        // 100x the sessions at the same arrival rate: the TTL bounds the
        // resident set, so the store must NOT grow 100x with it.
        let many = scale_config(&ScaleOpts {
            sessions: 12_000,
            ..tiny()
        });
        let f = many.engine.store.dram_bytes() as f64 / paper_dram as f64;
        assert!(
            f < 2.0,
            "store grew {f:.1}x for 100x sessions; provisioning must track the TTL working set"
        );

        // A 10x arrival rate widens the working set and the store with it.
        let hot = scale_config(&ScaleOpts {
            sessions: 1_000_000,
            arrival_rate: 20.0,
            ..tiny()
        });
        assert!(hot.engine.store.dram_bytes() > many.engine.store.dram_bytes());
    }
}
