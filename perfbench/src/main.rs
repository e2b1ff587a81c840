//! One benchmark for both clocks: the simulator's host time (set-up,
//! run, export, memory) and the virtual serving figures it produces
//! (arrival TTFT, SLO attainment, prefill throughput), on three
//! workloads that each load a different layer (see README.md).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload is a few independent shards, each one cluster serving its
//! own trace. A round sets up, simulates and exports every shard once;
//! rounds repeat until `--seconds` pass. Each host metric is the sum over
//! shards of the shard's median over its rounds, in reference seconds
//! (see [`calibrate`]). `--trace 0` runs
//! untraced rounds and reports the end-to-end metrics. `--trace 1`
//! alternates untraced and self-profiled rounds and reports the
//! per-layer metrics, which it also writes to `perfbench/out/`. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod probe;
mod workloads;

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use engine::{run_cluster_with_observer, ClusterReport, ClusterSim};
use serde::{Serialize, Value};
use sim::{profiler, ProfilerConfig, SelfProfile};
use telemetry::{to_chrome_trace, to_jsonl, SpanForest};

use probe::Probe;
use workloads::Workload;

/// Set-ups of each shard per round. `setup_s` sums the shards' medians
/// over all of them, so its samples spread over the whole run.
const SETUP_REPS: usize = 3;

/// Times each shard's report is encoded per round. A single encode takes
/// about a millisecond, so one alone reads as noise.
const REPORT_ENCODES: usize = 5;

/// Fewest rounds of each kind (untraced, profiled) per run, whatever
/// `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// The calibration kernel's time on an idle 2-vCPU Xeon VM, seconds.
/// Host times are reported in these reference seconds (see
/// [`calibrate`]).
const CAL_REF_S: f64 = 0.004;

/// Where the per-layer artifacts go, relative to the checkout root the
/// benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

/// Tolerance of the arrival-TTFT reconciliation against the report.
const RECONCILE_EPS: f64 = 1e-9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Host seconds of the export steps of one shard.
#[derive(Default)]
struct Export {
    total_s: f64,
    span_fold_s: f64,
    jsonl_s: f64,
    chrome_s: f64,
    jsonl_bytes: u64,
    records: u64,
    span_violations: usize,
}

/// Encodes the run's artifacts: the report JSON on every workload, and
/// the span fold, JSONL and Chrome trace where telemetry is attached.
fn export(report: &ClusterReport, probe: &Probe) -> Export {
    let encode_s = median((0..REPORT_ENCODES).map(|_| {
        let t = Instant::now();
        let json = serde_json::to_string(report).expect("reports always serialize");
        let s = t.elapsed().as_secs_f64();
        black_box(json.len());
        s
    }));
    let mut e = Export {
        total_s: encode_s,
        ..Export::default()
    };
    let Some(tel) = &probe.tel else { return e };
    let records = tel.records();
    e.records = records.len() as u64;

    let t = Instant::now();
    let forest = SpanForest::from_records(records);
    let summary = forest.summary();
    e.span_fold_s = t.elapsed().as_secs_f64();
    e.span_violations = forest.violations.len();
    black_box(summary);
    drop(forest);

    let t = Instant::now();
    let jsonl = to_jsonl(records);
    e.jsonl_s = t.elapsed().as_secs_f64();
    e.jsonl_bytes = jsonl.len() as u64;
    drop(jsonl);

    let t = Instant::now();
    let chrome = to_chrome_trace(records);
    e.chrome_s = t.elapsed().as_secs_f64();
    black_box(chrome.len());
    drop(chrome);

    e.total_s += e.span_fold_s + e.jsonl_s + e.chrome_s;
    e
}

/// Times a fixed kernel of the benchmark's own, which shares no code
/// with the simulator: hash-map updates, float math and a sort over a few
/// hundred kilobytes, like the simulator's own mix.
///
/// The machine the benchmark runs on is shared, and its speed drifts by
/// a third and more over minutes, uniformly across set-up, run and
/// export. Every repetition runs this kernel once and scales its host
/// times by `CAL_REF_S / kernel time`, so a slower machine slows the
/// kernel by the same factor and cancels out, while a change to the
/// simulator does not touch the kernel and shows in full.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 14);
    let mut acc = 0.0f64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x & 0x3FFF).or_insert(0) += i;
        acc += (x as f64).sqrt();
    }
    let mut v: Vec<u64> = map.into_values().collect();
    v.sort_unstable();
    black_box((acc, v));
    t.elapsed().as_secs_f64()
}

/// One shard set up, simulated and exported once: its host times, its
/// self-profile when profiled, and its virtual outcome when `keep` asks
/// for it (the first round of each kind only, so memory does not grow
/// with the round count).
struct Rep {
    traced: bool,
    /// `CAL_REF_S` over the calibration kernel's time, taken just before
    /// the run; every host time of this repetition is scaled by it.
    speed: f64,
    /// Turns in the shard's trace.
    turns: u64,
    /// Trace generation + config + cluster construction, per set-up.
    setup_s: [f64; SETUP_REPS],
    /// Trace generation alone, per set-up.
    gen_s: [f64; SETUP_REPS],
    sim_s: f64,
    export: Export,
    profile: Option<SelfProfile>,
    fingerprint: Fingerprint,
    fails: Vec<String>,
    outcome: Option<(ClusterReport, Probe)>,
}

fn run_shard(wl: Workload, seed: u64, shard: usize, traced: bool, keep: bool) -> Rep {
    let (mut setup_s, mut gen_s) = ([0.0; SETUP_REPS], [0.0; SETUP_REPS]);
    let mut trace = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let generated = wl.trace(seed, shard);
        gen_s[rep] = t.elapsed().as_secs_f64();
        let copy = generated.clone();
        let t = Instant::now();
        let world = ClusterSim::new(wl.config(), copy);
        setup_s[rep] = gen_s[rep] + t.elapsed().as_secs_f64();
        drop(world);
        trace = Some(generated);
    }
    let trace = trace.expect("at least one set-up");
    let (sessions, turns) = (trace.sessions.len(), trace.total_turns() as u64);

    let speed = CAL_REF_S / calibrate();
    let probe = Probe::new(sessions, wl.telemetry());
    let cfg = wl.config();
    if traced {
        profiler::begin(ProfilerConfig::default());
    }
    // The public API runs construction and drive in one call; the
    // construction is well under 0.1% of it (compare `setup_s`).
    let t = Instant::now();
    let (report, mut probe) = run_cluster_with_observer(cfg, trace, probe);
    let sim_s = t.elapsed().as_secs_f64();
    let profile = traced.then(profiler::finish);
    let export = export(&report, &probe);
    // The recorded trace is the largest allocation; it is not needed
    // past the export.
    probe.tel = None;
    let fingerprint = Fingerprint {
        turns: probe.retired,
        engine_events: probe.engine_events,
        makespan_s: report.aggregate.makespan_secs,
        ttft_sum_s: probe.arrival_ttft.iter().sum(),
    };
    let fails = check_shard(
        wl,
        sessions as u64,
        turns,
        &report,
        &probe,
        &export,
        profile.as_ref(),
    );
    Rep {
        traced,
        speed,
        turns,
        setup_s,
        gen_s,
        sim_s,
        export,
        profile,
        fingerprint,
        fails,
        outcome: keep.then_some((report, probe)),
    }
}

/// Every repetition of every shard: `shards[i]` holds shard `i`'s, in
/// run order. Untraced and profiled repetitions alternate round by round.
struct Reps {
    shards: Vec<Vec<Rep>>,
}

/// Which repetitions a statistic reads.
#[derive(Clone, Copy)]
enum Kind {
    Untraced,
    Traced,
    Any,
}

impl Kind {
    fn picks(self, rep: &Rep) -> bool {
        match self {
            Kind::Untraced => !rep.traced,
            Kind::Traced => rep.traced,
            Kind::Any => true,
        }
    }
}

impl Reps {
    /// Σ over shards of the median of the host times `f` draws from each
    /// of the shard's repetitions of `kind`, in reference seconds. Each
    /// shard's samples spread over the whole run, so a burst of machine
    /// noise moves one sample, not the median.
    fn sum_of_medians<I: IntoIterator<Item = f64>>(
        &self,
        kind: Kind,
        f: impl Fn(&Rep) -> I,
    ) -> f64 {
        self.shards
            .iter()
            .map(|reps| {
                median(
                    reps.iter()
                        .filter(|r| kind.picks(r))
                        .flat_map(|r| f(r).into_iter().map(move |x| x * r.speed)),
                )
            })
            .sum()
    }

    /// Each shard's first repetition of `kind`.
    fn firsts(&self, kind: Kind) -> impl Iterator<Item = &Rep> {
        self.shards
            .iter()
            .filter_map(move |reps| reps.iter().find(|r| kind.picks(r)))
    }

    /// Each shard's kept virtual outcome of `kind`.
    fn outcomes(&self, kind: Kind) -> impl Iterator<Item = &(ClusterReport, Probe)> {
        self.firsts(kind).filter_map(|r| r.outcome.as_ref())
    }

    /// Sums `f` over the shards' kept outcomes of `kind`.
    fn sum_outcome(&self, kind: Kind, f: impl Fn(&ClusterReport, &Probe) -> f64) -> f64 {
        self.outcomes(kind).map(|(r, p)| f(r, p)).sum()
    }

    /// Concatenates a per-turn sample over the shards' kept outcomes.
    fn samples(&self, kind: Kind, f: impl Fn(&Probe) -> &Vec<f64>) -> Vec<f64> {
        self.outcomes(kind)
            .flat_map(|(_, p)| f(p).iter().copied())
            .collect()
    }

    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.shards.iter().flatten()
    }
}

/// Nearest-rank percentile on the rank formula `metrics::Histogram`
/// uses, `p` in `[0, 100]`.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[((p / 100.0) * (v.len() - 1) as f64).round() as usize]
}

fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    percentile(&v, 50.0)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The exact virtual outcome of one shard: a given seed must reproduce
/// it bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct Fingerprint {
    turns: u64,
    engine_events: u64,
    makespan_s: f64,
    ttft_sum_s: f64,
}

/// Output checks of one shard run; returns the failures found.
fn check_shard(
    wl: Workload,
    sessions: u64,
    turns: u64,
    report: &ClusterReport,
    probe: &Probe,
    export: &Export,
    profile: Option<&SelfProfile>,
) -> Vec<String> {
    let mut fails = Vec::new();
    let agg = &report.aggregate;
    if agg.sessions_done.get() != sessions {
        fails.push(format!(
            "{} of {sessions} sessions completed",
            agg.sessions_done.get()
        ));
    }
    if probe.retired != turns || agg.turns_measured.get() != turns {
        fails.push(format!(
            "{turns} turns attempted, {} retired, {} measured",
            probe.retired,
            agg.turns_measured.get()
        ));
    }
    if probe.arrival_ttft.len() as u64 != turns {
        fails.push(format!(
            "{} first tokens for {turns} turns",
            probe.arrival_ttft.len()
        ));
    }
    let observed = mean(&probe.arrival_ttft);
    let reported = agg.ttft.mean() + agg.queue_wait.mean();
    if (observed - reported).abs() > RECONCILE_EPS {
        fails.push(format!(
            "mean arrival TTFT {observed} != service TTFT + queue wait {reported}"
        ));
    }
    if export.span_violations > 0 {
        fails.push(format!(
            "span fold found {} violations",
            export.span_violations
        ));
    }
    if wl.telemetry().is_some() && export.records == 0 {
        fails.push("telemetry recorded nothing".to_string());
    }
    if let Some(p) = profile {
        let self_s: f64 = p.scopes.iter().map(|s| s.self_ns as f64 / 1e9).sum();
        if self_s > p.wall_secs {
            fails.push(format!(
                "scope self time {self_s}s exceeds wall {}s",
                p.wall_secs
            ));
        }
    }
    fails
}

/// Ordered `name → (value, unit)` pairs for the result line.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("value".to_string(), Value::F64(*value)),
                            ("unit".to_string(), Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The end-to-end metrics; `turns` is the turns attempted per round,
/// so a turn that never reached its first token counts as an SLO miss.
fn end_to_end(wl: Workload, reps: &Reps, turns: u64) -> Metrics {
    let plain = Kind::Untraced;
    let ttft = reps.samples(plain, |p| &p.arrival_ttft);
    let limit = wl.ttft_limit_s();
    let met = ttft.iter().filter(|&&t| t <= limit).count();
    let prompt_tokens = reps.sum_outcome(plain, |r, _| r.aggregate.prompt_tokens.get() as f64);
    let prefill_s = reps.sum_outcome(plain, |r, _| r.aggregate.measured_prefill_secs);
    let mut m = Metrics::default();
    m.put("setup_s", reps.sum_of_medians(Kind::Any, |r| r.setup_s), "s");
    m.put("sim_s", reps.sum_of_medians(plain, |r| [r.sim_s]), "s");
    m.put(
        "export_s",
        reps.sum_of_medians(Kind::Any, |r| [r.export.total_s]),
        "s",
    );
    let rss = profiler::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    m.put("peak_rss_mib", rss, "MiB");
    m.put("ttft_p50_s", percentile(&ttft, 50.0), "s");
    m.put("ttft_p99_s", percentile(&ttft, 99.0), "s");
    m.put("slo_attain_frac", met as f64 / turns as f64, "frac");
    m.put("prefill_tok_per_gpu_s", prompt_tokens / prefill_s, "tok/s");
    m
}

/// The profiled `scope!` name each per-layer `_self_ms`/`_calls` pair
/// reads.
const SCOPES: [(&str, &str); 11] = [
    ("store.reserve", "store.reserve"),
    ("store.prefetch", "store.prefetch"),
    ("store.save", "store.save"),
    ("store.fetch", "store.fetch"),
    ("store.make_room", "store.make_room"),
    ("store.trie_probe", "store.trie_probe"),
    ("engine.dispatch", "cluster.dispatch"),
    ("engine.merged_view", "cluster.merged_view"),
    ("engine.admit", "cluster.admit"),
    ("engine.sched_snapshot", "sched.snapshot"),
    ("telemetry.dispatch", "telemetry.dispatch"),
];

/// One scope's (self ms, calls) in one profiled repetition.
fn scope(rep: &Rep, name: &str) -> (f64, f64) {
    rep.profile
        .iter()
        .flat_map(|p| p.scopes.iter().filter(|s| s.name == name))
        .fold((0.0, 0.0), |(ms, calls), s| {
            (ms + s.self_ns as f64 / 1e6, calls + s.calls as f64)
        })
}

fn per_layer(reps: &Reps) -> Metrics {
    let traced = Kind::Traced;
    let sum = |f: &dyn Fn(&ClusterReport, &Probe) -> f64| reps.sum_outcome(traced, f);
    let first = |f: &dyn Fn(&Rep) -> f64| reps.firsts(traced).map(f).sum::<f64>();
    let turns = sum(&|r, _| r.aggregate.turns_measured.get() as f64);
    let plain_sim_s = reps.sum_of_medians(Kind::Untraced, |r| [r.sim_s]);
    let traced_sim_s = reps.sum_of_medians(traced, |r| [r.sim_s]);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m = Metrics::default();
    for (metric, name) in SCOPES {
        let self_ms = reps.sum_of_medians(traced, |r| [scope(r, name).0]);
        m.put(format!("{metric}_self_ms"), self_ms, "ms");
        m.put(format!("{metric}_calls"), first(&|r| scope(r, name).1), "count");
    }
    let stats =
        |f: &dyn Fn(&store::StoreStats) -> u64| sum(&|r, _| f(&r.aggregate.store_stats) as f64);
    m.put(
        "store.fast_reuse_per_turn",
        sum(&|r, _| r.aggregate.hits_fast.get() as f64) / turns,
        "frac",
    );
    m.put(
        "store.slow_reuse_per_turn",
        sum(&|r, _| r.aggregate.hits_slow.get() as f64) / turns,
        "frac",
    );
    m.put("store.promotions", stats(&|s| s.promotions), "count");
    m.put("store.demotions", stats(&|s| s.demotions), "count");
    m.put(
        "store.drops_capacity",
        stats(&|s| s.drops_capacity),
        "count",
    );
    m.put(
        "store.dedup_ratio",
        ratio(
            sum(&|r, _| r.dedup.dedup_blocks as f64),
            sum(&|r, _| (r.dedup.dedup_blocks + r.dedup.new_blocks) as f64),
        ),
        "frac",
    );
    m.put(
        "store.prefetch_useful_frac",
        ratio(
            sum(&|_, p| p.prefetch_useful as f64),
            sum(&|_, p| p.prefetch_promotions as f64),
        ),
        "frac",
    );
    let queue_wait = reps.samples(traced, |p| &p.queue_wait);
    m.put(
        "engine.queue_wait_p50_s",
        percentile(&queue_wait, 50.0),
        "s",
    );
    m.put(
        "engine.queue_wait_p99_s",
        percentile(&queue_wait, 99.0),
        "s",
    );
    m.put(
        "engine.ttft_service_p50_s",
        percentile(&reps.samples(traced, |p| &p.service_ttft), 50.0),
        "s",
    );
    m.put("engine.fetch_stall_s", sum(&|_, p| p.stall_s), "s");
    m.put(
        "engine.overlap_eff",
        ratio(sum(&|_, p| p.hidden_s), sum(&|_, p| p.load_s)),
        "frac",
    );
    m.put(
        "engine.recompute_frac",
        ratio(
            sum(&|r, _| r.aggregate.computed_tokens.get() as f64),
            sum(&|r, _| r.aggregate.prompt_tokens.get() as f64),
        ),
        "frac",
    );
    m.put(
        "telemetry.records",
        first(&|r| r.export.records as f64),
        "count",
    );
    m.put(
        "telemetry.span_fold_s",
        reps.sum_of_medians(Kind::Any, |r| [r.export.span_fold_s]),
        "s",
    );
    m.put(
        "telemetry.jsonl_s",
        reps.sum_of_medians(Kind::Any, |r| [r.export.jsonl_s]),
        "s",
    );
    m.put(
        "telemetry.jsonl_bytes",
        first(&|r| r.export.jsonl_bytes as f64),
        "bytes",
    );
    m.put(
        "telemetry.chrome_s",
        reps.sum_of_medians(Kind::Any, |r| [r.export.chrome_s]),
        "s",
    );
    let events = first(&|r| r.profile.as_ref().map_or(0.0, |p| p.events as f64));
    m.put("sim.events", events, "count");
    m.put("sim.events_per_s", events / plain_sim_s, "1/s");
    m.put(
        "workload.gen_s",
        reps.sum_of_medians(Kind::Any, |r| r.gen_s),
        "s",
    );
    m.put("workload.turns", turns, "count");
    m.put(
        "host.calibration_ms",
        1e3 * CAL_REF_S / median(reps.all().map(|r| r.speed)),
        "ms",
    );
    m.put(
        "trace.overhead_frac",
        traced_sim_s / plain_sim_s - 1.0,
        "frac",
    );
    m
}

/// Writes the traced run's per-layer artifact: the per-layer metrics,
/// every repetition's untraced or profiled run time beside them, and the
/// first profiled repetition's scope tables.
fn write_layers(wl: Workload, seed: u64, layers: &Metrics, reps: &Reps) -> Result<(), String> {
    let times = |kind: Kind| {
        Value::Array(
            reps.shards
                .iter()
                .map(|shard| {
                    Value::Array(
                        shard
                            .iter()
                            .filter(|r| kind.picks(r))
                            .map(|r| Value::F64(r.sim_s))
                            .collect(),
                    )
                })
                .collect(),
        )
    };
    // `RunReport::hit_rate()` divides hits by resumption turns only, so
    // first-turn prefix hits under block keying push it above 1; the
    // per-turn reuse metrics above are the ones to compare.
    let hits = reps.sum_outcome(Kind::Traced, |r, _| {
        (r.aggregate.hits_fast.get() + r.aggregate.hits_slow.get()) as f64
    });
    let resumptions =
        reps.sum_outcome(Kind::Traced, |r, _| r.aggregate.resumption_turns.get() as f64);
    let doc = Value::Object(vec![
        ("workload".to_string(), Value::Str(wl.name().to_string())),
        ("seed".to_string(), Value::U64(seed)),
        ("untraced_sim_s".to_string(), times(Kind::Untraced)),
        ("traced_sim_s".to_string(), times(Kind::Traced)),
        (
            "report_hit_rate".to_string(),
            Value::F64(if resumptions > 0.0 {
                hits / resumptions
            } else {
                0.0
            }),
        ),
        ("per_layer".to_string(), layers.to_value()),
        (
            "self_profiles".to_string(),
            Value::Array(
                reps.firsts(Kind::Traced)
                    .filter_map(|r| r.profile.as_ref())
                    .map(|p| p.to_value())
                    .collect(),
            ),
        ),
    ]);
    let path = Path::new(OUT_DIR).join(format!("{}-seed{seed}.layers.json", wl.name()));
    let text = serde_json::to_string_pretty(&doc).expect("values serialize");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <chat_cached|chat_recompute|rag_blocks_traced> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let wl = args.workload;

    // Untraced and (with --trace 1) profiled rounds alternate until the
    // time is spent, so both kinds see the same machine conditions. The
    // clock is checked before every shard, so a run overshoots by at most
    // one shard; every shard still gets MIN_ROUNDS of each kind.
    let kinds = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut reps = Reps {
        shards: (0..wl.shards()).map(|_| Vec::new()).collect(),
    };
    let mut round = 0;
    'rounds: loop {
        let traced = args.trace && round % 2 == 1;
        // The first round of each kind keeps its virtual outcome.
        let keep = round < kinds;
        let t = Instant::now();
        for (shard, shard_reps) in reps.shards.iter_mut().enumerate() {
            if round >= MIN_ROUNDS * kinds && start.elapsed().as_secs_f64() >= args.seconds {
                break 'rounds;
            }
            shard_reps.push(run_shard(wl, args.seed, shard, traced, keep));
        }
        eprintln!(
            "perfbench: {} seed {} round {round} {}: {:.3}s",
            wl.name(),
            args.seed,
            if traced { "profiled" } else { "untraced" },
            t.elapsed().as_secs_f64(),
        );
        round += 1;
    }

    let turns: u64 = reps.firsts(Kind::Any).map(|r| r.turns).sum();
    let mut fails: Vec<String> = Vec::new();
    let fps: Vec<Fingerprint> = reps.shards.iter().map(|r| r[0].fingerprint.clone()).collect();
    for (shard, shard_reps) in reps.shards.iter().enumerate() {
        for (i, rep) in shard_reps.iter().enumerate() {
            fails.extend(
                rep.fails
                    .iter()
                    .map(|f| format!("shard {shard} round {i}: {f}")),
            );
            if rep.fingerprint != fps[shard] {
                fails.push(format!(
                    "shard {shard} round {i}: virtual fingerprint differs from round 0"
                ));
            }
        }
    }

    let metrics = if args.trace {
        let layers = per_layer(&reps);
        if let Err(e) = write_layers(wl, args.seed, &layers, &reps) {
            fails.push(e);
        }
        layers
    } else {
        end_to_end(wl, &reps, turns)
    };
    for (name, value, _) in &metrics.0 {
        // Every end-to-end metric is positive by construction; a zero
        // means a measurement is missing.
        if !value.is_finite() || (!args.trace && *value <= 0.0) {
            fails.push(format!("{name} reads {value}"));
        }
    }
    for f in &fails {
        eprintln!("perfbench: check failed: {f}");
    }

    let runs = reps.all().count() as u64;
    println!(
        "{} seed {}: {} shards, {turns} turns, {runs} shard runs, fingerprint {}",
        wl.name(),
        args.seed,
        reps.shards.len(),
        serde_json::to_string(&fps).expect("fingerprints serialize")
    );
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    let attempted: u64 = reps.all().map(|r| r.turns).sum();
    let completed: u64 = reps.all().map(|r| r.fingerprint.turns).sum();
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(fails.is_empty())),
        ("attempted".to_string(), Value::U64(attempted)),
        (
            "failed".to_string(),
            Value::U64(attempted.saturating_sub(completed)),
        ),
        ("metrics".to_string(), metrics.to_value()),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("values serialize")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    /// The probe's arrival TTFT, timed from each turn's scheduled
    /// arrival, equals the report's service TTFT plus its queue wait on
    /// every workload, and the run passes every output check.
    #[test]
    fn arrival_ttft_reconciles_with_the_report() {
        for wl in Workload::ALL {
            let rep = run_shard(wl, 7, 0, false, true);
            assert!(rep.fails.is_empty(), "{}: {:?}", wl.name(), rep.fails);
            let (report, probe) = rep.outcome.as_ref().expect("kept");
            let observed = mean(&probe.arrival_ttft);
            let reported = report.aggregate.ttft.mean() + report.aggregate.queue_wait.mean();
            assert!(
                (observed - reported).abs() <= RECONCILE_EPS,
                "{}: {observed} vs {reported}",
                wl.name()
            );
            assert_eq!(probe.arrival_ttft.len() as u64, rep.turns);
            assert_eq!(rep.turns, wl.trace(7, 0).total_turns() as u64);
        }
    }

    /// A seed reproduces its virtual fingerprint exactly; the next seed
    /// draws other traces.
    #[test]
    fn a_seed_reproduces_its_fingerprint() {
        let wl = Workload::ChatRecompute;
        let run = |seed| run_shard(wl, seed, 0, false, false).fingerprint;
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
        assert_ne!(wl.trace(3, 0).total_turns(), 0);
    }

    /// Each shard contributes the median of its own samples, so one slow
    /// sample in a shard moves nothing, and each sample is scaled by the
    /// machine speed measured beside it.
    #[test]
    fn host_metrics_sum_the_shard_medians() {
        let rep = |sim_s| Rep {
            traced: false,
            speed: 1.0,
            turns: 1,
            setup_s: [sim_s; SETUP_REPS],
            gen_s: [0.0; SETUP_REPS],
            sim_s,
            export: Export::default(),
            profile: None,
            fingerprint: Fingerprint {
                turns: 1,
                engine_events: 1,
                makespan_s: 1.0,
                ttft_sum_s: 1.0,
            },
            fails: Vec::new(),
            outcome: None,
        };
        let reps = Reps {
            shards: vec![
                vec![rep(1.0), rep(9.0), rep(1.0)],
                vec![rep(2.0), rep(2.0), rep(7.0)],
            ],
        };
        assert_eq!(reps.sum_of_medians(Kind::Untraced, |r| [r.sim_s]), 3.0);
        assert_eq!(reps.sum_of_medians(Kind::Any, |r| r.setup_s), 3.0);
        assert_eq!(reps.sum_of_medians(Kind::Traced, |r| [r.sim_s]), 0.0);
        // A repetition timed while the machine ran at half speed counts
        // at half its measured time.
        let slow = Reps {
            shards: vec![vec![Rep { speed: 0.5, ..rep(4.0) }]],
        };
        assert_eq!(slow.sum_of_medians(Kind::Untraced, |r| [r.sim_s]), 2.0);
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload rag_blocks_traced --seed 9 --seconds 30 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::RagBlocksTraced);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 30.0, true));
        for bad in [
            "--workload nope --seed 1",
            "--workload chat_cached",
            "--workload chat_cached --seed x",
            "--workload chat_cached --seed 1 --trace 2",
            "--workload chat_cached --seed 1 --seconds 0",
            "--workload chat_cached --seed 1 --seconds",
            "--workload chat_cached --seed 1 --verbose 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 99.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
