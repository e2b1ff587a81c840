//! The continuous perf-regression harness behind `exp_profile`.
//!
//! A bench profile is a deterministic fingerprint of serving latency:
//! the 13 canonical scenarios (CA/RE/OF × DramDisk/HbmDram/HbmOnly
//! placements plus the four CA ablations — the same matrix the golden
//! report fixtures pin) each run under full telemetry, fold into a
//! [`SpanForest`], and contribute one row of TTFT percentiles, stage
//! means, overlap efficiency and hit rate. Because the simulator is
//! virtual-time deterministic, a regenerated profile only moves when
//! serving behavior moves — so `ci.sh` diffs a fresh profile against
//! the checked-in `BENCH_profile.json` with tolerance bands and fails
//! the gate on regression:
//!
//! - latency-like fields fail when `new > base * (1 + tol)`,
//! - quality-like fields (overlap efficiency, hit rate) fail when
//!   `new < base * (1 - tol)`,
//! - turn counts and the schema version must match exactly (a mismatch
//!   means the workload or format changed — regenerate the baseline
//!   with `REGEN_BENCH=1 ./ci.sh`).

use engine::{EngineConfig, Medium, Mode};
use models::ModelSpec;
use serde::{Serialize, Value};
use telemetry::{run_with_telemetry, SpanForest};
use workload::{Generator, ShareGptProfile};

/// Version of the `BENCH_profile.json` layout. Bump when fields are
/// added, removed or renamed; the compare step refuses cross-schema
/// diffs.
pub const SCHEMA: u64 = 1;

/// Default fractional tolerance band for the latency/quality checks.
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Absolute slack added to every band so zero-valued baselines (e.g. a
/// stall mean of exactly 0) don't fail on float noise.
const EPSILON: f64 = 1e-6;

/// Per-scenario fields where larger values are regressions.
const LOWER_IS_BETTER: &[&str] = &[
    "ttft_p50_secs",
    "ttft_p95_secs",
    "ttft_p99_secs",
    "queue_wait_p99_secs",
    "fetch_stall_mean_secs",
    "prefill_compute_mean_secs",
    "decode_mean_secs",
];

/// Per-scenario fields where smaller values are regressions.
const HIGHER_IS_BETTER: &[&str] = &["overlap_efficiency", "hit_rate"];

/// One scenario's latency fingerprint.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioProfile {
    /// Scenario name (matches the golden fixture of the same name).
    pub name: String,
    /// Measured turns — must match the baseline exactly.
    pub turns: u64,
    /// Span well-formedness violations — must be zero.
    pub violations: u64,
    /// Median service TTFT (admission → first token), seconds. `None`
    /// (serialized `null`) when the scenario produced no samples; the
    /// compare step treats null-in-both as absent and a presence flip
    /// as a failure.
    pub ttft_p50_secs: Option<f64>,
    /// p95 service TTFT, seconds (`None` when no samples).
    pub ttft_p95_secs: Option<f64>,
    /// p99 service TTFT, seconds (`None` when no samples).
    pub ttft_p99_secs: Option<f64>,
    /// p99 queue wait, seconds (`None` when no samples).
    pub queue_wait_p99_secs: Option<f64>,
    /// Mean visible KV fetch stall inside prefill, seconds.
    pub fetch_stall_mean_secs: f64,
    /// Mean pure prefill compute, seconds.
    pub prefill_compute_mean_secs: f64,
    /// Mean decode duration, seconds.
    pub decode_mean_secs: f64,
    /// Σ hidden / Σ load — the §3.2.1 overlap observable.
    pub overlap_efficiency: f64,
    /// Store hit rate over all consults.
    pub hit_rate: f64,
}

/// The full fingerprint: schema version + one row per scenario.
#[derive(Debug, Clone, Serialize)]
pub struct BenchProfile {
    /// Layout version ([`SCHEMA`]).
    pub schema: u64,
    /// One row per canonical scenario, in matrix order.
    pub scenarios: Vec<ScenarioProfile>,
}

/// The serving modes of the canonical matrix, in matrix order.
pub const MODES: [Mode; 3] = [
    Mode::CachedAttention,
    Mode::Recompute,
    Mode::CoupledOverflow,
];

/// The placement mediums of the canonical matrix with the labels their
/// fixture names use, in matrix order.
pub const MEDIUMS: [(Medium, &str); 3] = [
    (Medium::DramDisk, "dramdisk"),
    (Medium::HbmDram, "hbmdram"),
    (Medium::HbmOnly, "hbmonly"),
];

/// The goldens' pressured store: LLaMA-13B on the paper engine with
/// 8 GB of DRAM over 40 GB of disk, small enough that 20 sessions of KV
/// overflow DRAM and spill to the slow tier, exercising eviction,
/// prefetch and both transfer links.
pub fn pressured(mode: Mode, medium: Medium) -> EngineConfig {
    let mut cfg = EngineConfig::paper(mode, ModelSpec::llama2_13b());
    cfg.medium = medium;
    cfg.store.set_dram_bytes(8_000_000_000);
    cfg.store.set_disk_bytes(40_000_000_000);
    cfg
}

/// The canonical scenario matrix: every mode × placement medium under
/// the [`pressured`] store, plus the four CachedAttention ablations.
/// Names match `tests/golden/*.json`.
pub fn golden_scenarios() -> Vec<(String, EngineConfig)> {
    let mut out = Vec::new();
    for mode in MODES {
        for (medium, label) in MEDIUMS {
            let name = format!("{}_{}", mode.label().to_lowercase(), label);
            out.push((name, pressured(mode, medium)));
        }
    }
    let mut chunked = pressured(Mode::CachedAttention, Medium::DramDisk);
    chunked.chunked_prefill_tokens = Some(256);
    out.push(("ca_dramdisk_chunked".into(), chunked));
    let mut int4 = pressured(Mode::CachedAttention, Medium::DramDisk);
    int4.kv_compression = 0.25;
    out.push(("ca_dramdisk_int4".into(), int4));
    let mut no_pl = pressured(Mode::CachedAttention, Medium::DramDisk);
    no_pl.preload = false;
    out.push(("ca_dramdisk_no_preload".into(), no_pl));
    let mut no_as = pressured(Mode::CachedAttention, Medium::DramDisk);
    no_as.async_save = false;
    out.push(("ca_dramdisk_no_async_save".into(), no_as));
    out
}

/// Runs one scenario traced and folds it into a profile row.
pub fn profile_scenario(name: &str, cfg: EngineConfig) -> ScenarioProfile {
    let trace = Generator::new(ShareGptProfile::default(), 7).trace(20);
    let (report, tel) = run_with_telemetry(cfg, trace);
    let forest = SpanForest::from_records(tel.records());
    let sum = forest.summary();
    ScenarioProfile {
        name: name.to_string(),
        turns: sum.turns,
        violations: sum.violations,
        ttft_p50_secs: sum.ttft_p50_secs,
        ttft_p95_secs: sum.ttft_p95_secs,
        ttft_p99_secs: sum.ttft_p99_secs,
        queue_wait_p99_secs: sum.queue_wait_p99_secs,
        fetch_stall_mean_secs: sum.fetch_stall_mean_secs,
        prefill_compute_mean_secs: sum.prefill_compute_mean_secs,
        decode_mean_secs: sum.decode_mean_secs,
        overlap_efficiency: sum.overlap_efficiency,
        hit_rate: report.hit_rate(),
    }
}

/// Runs the whole canonical matrix.
pub fn collect_profile() -> BenchProfile {
    BenchProfile {
        schema: SCHEMA,
        scenarios: golden_scenarios()
            .into_iter()
            .map(|(name, cfg)| profile_scenario(&name, cfg))
            .collect(),
    }
}

/// Renders the profile as the human-readable table `exp_profile`
/// prints.
pub fn render_table(profile: &BenchProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}\n",
        "scenario", "turns", "ttft_p50", "ttft_p95", "ttft_p99", "stall_mu", "overlap", "hit_rate"
    ));
    let opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:>8.3}s"),
        None => format!("{:>9}", "-"),
    };
    for s in &profile.scenarios {
        out.push_str(&format!(
            "{:<26} {:>6} {} {} {} {:>8.3}s {:>8.3} {:>8.3}\n",
            s.name,
            s.turns,
            opt(s.ttft_p50_secs),
            opt(s.ttft_p95_secs),
            opt(s.ttft_p99_secs),
            s.fetch_stall_mean_secs,
            s.overlap_efficiency,
            s.hit_rate,
        ));
    }
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

/// Reads a banded field off a scenario row, distinguishing "absent"
/// (an explicit `null` — the scenario had no samples) from malformed.
fn band_value(row: &Value, field: &str) -> Result<Option<f64>, String> {
    match row.get(field) {
        None => Err(format!("field `{field}` missing")),
        Some(Value::Null) => Ok(None),
        Some(v) => num(v)
            .map(Some)
            .ok_or_else(|| format!("field `{field}` non-numeric")),
    }
}

fn scenario_rows(profile: &Value) -> Vec<(String, Value)> {
    let Some(Value::Array(rows)) = profile.get("scenarios") else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|row| {
            let Some(Value::Str(name)) = row.get("name") else {
                return None;
            };
            Some((name.clone(), row.clone()))
        })
        .collect()
}

/// Diffs `current` against `baseline` (both serialized profiles) and
/// returns every regression found — empty means the gate passes.
///
/// Latency fields regress when `new > base * (1 + tolerance)`, quality
/// fields when `new < base * (1 - tolerance)`; both bands get a small
/// absolute epsilon so exactly-zero baselines compare cleanly. Scenario
/// sets, turn counts and the schema version must match exactly.
pub fn compare(baseline: &Value, current: &Value, tolerance: f64) -> Vec<String> {
    let mut fails = Vec::new();
    let base_schema = baseline.get("schema").and_then(num);
    let cur_schema = current.get("schema").and_then(num);
    if base_schema != cur_schema || base_schema != Some(SCHEMA as f64) {
        fails.push(format!(
            "schema mismatch: baseline {:?} vs current {:?} (expected {SCHEMA}); \
             regenerate with REGEN_BENCH=1 ./ci.sh",
            base_schema, cur_schema
        ));
        return fails;
    }

    let base_rows = scenario_rows(baseline);
    let cur_rows = scenario_rows(current);
    for (name, base) in &base_rows {
        let Some((_, cur)) = cur_rows.iter().find(|(n, _)| n == name) else {
            fails.push(format!(
                "scenario `{name}` present in baseline but missing from current profile; \
                 regenerate with REGEN_BENCH=1 ./ci.sh"
            ));
            continue;
        };
        for field in ["turns", "violations"] {
            let b = base.get(field).and_then(num);
            let c = cur.get(field).and_then(num);
            if b != c {
                fails.push(format!(
                    "{name}: {field} changed {b:?} -> {c:?} (must match exactly; \
                     regenerate with REGEN_BENCH=1 ./ci.sh if intended)"
                ));
            }
        }
        // A `null` (no samples) in BOTH profiles is fine — the field is
        // simply absent for that scenario. A presence flip means the
        // scenario started or stopped producing samples, which is a
        // behavior change and fails like any other mismatch.
        for field in LOWER_IS_BETTER {
            let (b, c) = match (band_value(base, field), band_value(cur, field)) {
                (Ok(b), Ok(c)) => (b, c),
                (Err(e), _) | (_, Err(e)) => {
                    fails.push(format!("{name}: {e}"));
                    continue;
                }
            };
            match (b, c) {
                (None, None) => {}
                (Some(b), Some(c)) => {
                    if c > b * (1.0 + tolerance) + EPSILON {
                        fails.push(format!(
                            "{name}: {field} regressed {b:.6} -> {c:.6} (+{:.1}% > {:.1}% band)",
                            (c - b) / b.max(EPSILON) * 100.0,
                            tolerance * 100.0
                        ));
                    }
                }
                (b, c) => fails.push(format!(
                    "{name}: {field} presence changed {b:?} -> {c:?} (null means no samples; \
                     regenerate with REGEN_BENCH=1 ./ci.sh if intended)"
                )),
            }
        }
        for field in HIGHER_IS_BETTER {
            let (b, c) = match (band_value(base, field), band_value(cur, field)) {
                (Ok(b), Ok(c)) => (b, c),
                (Err(e), _) | (_, Err(e)) => {
                    fails.push(format!("{name}: {e}"));
                    continue;
                }
            };
            match (b, c) {
                (None, None) => {}
                (Some(b), Some(c)) => {
                    if c < b * (1.0 - tolerance) - EPSILON {
                        fails.push(format!(
                            "{name}: {field} regressed {b:.6} -> {c:.6} (-{:.1}% > {:.1}% band)",
                            (b - c) / b.max(EPSILON) * 100.0,
                            tolerance * 100.0
                        ));
                    }
                }
                (b, c) => fails.push(format!(
                    "{name}: {field} presence changed {b:?} -> {c:?} (null means no samples; \
                     regenerate with REGEN_BENCH=1 ./ci.sh if intended)"
                )),
            }
        }
    }
    for (name, _) in &cur_rows {
        if !base_rows.iter().any(|(n, _)| n == name) {
            fails.push(format!(
                "scenario `{name}` is new (not in baseline); \
                 regenerate with REGEN_BENCH=1 ./ci.sh"
            ));
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny two-scenario profile as a serialized Value.
    fn sample() -> Value {
        BenchProfile {
            schema: SCHEMA,
            scenarios: vec![
                ScenarioProfile {
                    name: "ca_dramdisk".into(),
                    turns: 100,
                    violations: 0,
                    ttft_p50_secs: Some(1.0),
                    ttft_p95_secs: Some(2.0),
                    ttft_p99_secs: Some(3.0),
                    queue_wait_p99_secs: Some(0.5),
                    fetch_stall_mean_secs: 0.1,
                    prefill_compute_mean_secs: 0.4,
                    decode_mean_secs: 5.0,
                    overlap_efficiency: 0.8,
                    hit_rate: 0.9,
                },
                ScenarioProfile {
                    name: "re_dramdisk".into(),
                    turns: 100,
                    violations: 0,
                    ttft_p50_secs: Some(2.0),
                    ttft_p95_secs: Some(4.0),
                    ttft_p99_secs: Some(6.0),
                    queue_wait_p99_secs: Some(1.0),
                    fetch_stall_mean_secs: 0.0,
                    prefill_compute_mean_secs: 0.9,
                    decode_mean_secs: 5.0,
                    overlap_efficiency: 0.0,
                    hit_rate: 0.0,
                },
            ],
        }
        .to_value()
    }

    #[test]
    fn identical_profiles_pass() {
        assert!(compare(&sample(), &sample(), DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn drift_inside_the_band_passes() {
        let mut cur = sample();
        bump(&mut cur, "ca_dramdisk", "ttft_p99_secs", 3.06); // +2%
        assert!(compare(&sample(), &cur, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn synthetic_twenty_percent_ttft_regression_fails() {
        let mut cur = sample();
        bump(&mut cur, "ca_dramdisk", "ttft_p99_secs", 3.6); // +20%
        let fails = compare(&sample(), &cur, DEFAULT_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("ttft_p99_secs regressed"));
    }

    #[test]
    fn overlap_efficiency_loss_fails() {
        let mut cur = sample();
        bump(&mut cur, "ca_dramdisk", "overlap_efficiency", 0.5);
        let fails = compare(&sample(), &cur, DEFAULT_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("overlap_efficiency regressed"));
    }

    #[test]
    fn zero_baselines_tolerate_exact_zero() {
        // re_dramdisk has stall = 0 and overlap = 0; identical zeros
        // must not trip the relative bands.
        assert!(compare(&sample(), &sample(), 0.0).is_empty());
    }

    #[test]
    fn null_in_both_profiles_is_absent_not_a_failure() {
        let mut base = sample();
        let mut cur = sample();
        nullify(&mut base, "ca_dramdisk", "queue_wait_p99_secs");
        nullify(&mut cur, "ca_dramdisk", "queue_wait_p99_secs");
        assert!(compare(&base, &cur, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn percentile_presence_flip_fails() {
        let mut cur = sample();
        nullify(&mut cur, "ca_dramdisk", "ttft_p99_secs");
        let fails = compare(&sample(), &cur, DEFAULT_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("presence changed"));
    }

    #[test]
    fn schema_mismatch_fails_with_regen_hint() {
        let mut cur = sample();
        if let Value::Object(pairs) = &mut cur {
            for (k, v) in pairs.iter_mut() {
                if k == "schema" {
                    *v = Value::U64(99);
                }
            }
        }
        let fails = compare(&sample(), &cur, DEFAULT_TOLERANCE);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("REGEN_BENCH=1"));
    }

    #[test]
    fn missing_and_extra_scenarios_fail() {
        let mut cur = sample();
        if let Value::Object(pairs) = &mut cur {
            for (k, v) in pairs.iter_mut() {
                if k == "scenarios" {
                    if let Value::Array(rows) = v {
                        rows.remove(1);
                    }
                }
            }
        }
        let fails = compare(&sample(), &cur, DEFAULT_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("re_dramdisk"));
        // And the reverse direction: baseline missing a current row.
        let fails = compare(&cur, &sample(), DEFAULT_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("new (not in baseline)"));
    }

    #[test]
    fn canonical_matrix_has_thirteen_scenarios() {
        let names: Vec<String> = golden_scenarios().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 13);
        assert!(names.contains(&"ca_dramdisk".to_string()));
        assert!(names.contains(&"of_hbmonly".to_string()));
        assert!(names.contains(&"ca_dramdisk_no_async_save".to_string()));
    }

    fn nullify(profile: &mut Value, scenario: &str, field: &str) {
        set_field(profile, scenario, field, Value::Null);
    }

    fn bump(profile: &mut Value, scenario: &str, field: &str, to: f64) {
        set_field(profile, scenario, field, Value::F64(to));
    }

    fn set_field(profile: &mut Value, scenario: &str, field: &str, to: Value) {
        let Value::Object(pairs) = profile else {
            panic!("profile must be an object")
        };
        for (k, v) in pairs.iter_mut() {
            if k != "scenarios" {
                continue;
            }
            let Value::Array(rows) = v else {
                panic!("scenarios must be an array")
            };
            for row in rows {
                let Value::Object(fields) = row else {
                    panic!("row must be an object")
                };
                let is_target = fields
                    .iter()
                    .any(|(k, v)| k == "name" && matches!(v, Value::Str(s) if s == scenario));
                if !is_target {
                    continue;
                }
                for (k, v) in fields.iter_mut() {
                    if k == field {
                        *v = to.clone();
                    }
                }
            }
        }
    }
}
