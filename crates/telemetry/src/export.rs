//! Trace exporters: JSONL event dumps, Chrome trace-event JSON, the
//! windowed time-series dump and a Prometheus-style text exposition.
//!
//! [`to_jsonl`] writes one self-describing JSON object per line — the
//! grep/jq-friendly format the CI smoke check validates. [`to_chrome_trace`]
//! renders the same records in the Chrome trace-event format (the
//! `{"traceEvents": [...]}` envelope), which Perfetto and
//! `chrome://tracing` open directly: one process per serving instance
//! (records without instance attribution land on the default process),
//! one thread per session showing queued → prefill → decode spans,
//! prefetch staging and write-buffer stall spans with flow arrows
//! linking each prefetch to the admission that consumes it, instant
//! markers for the store's placement decisions, and counter tracks for
//! HBM reservations and each tier's occupancy (one track per tier,
//! labeled with the stack's configured tier names). A session that migrates
//! instances under least-loaded routing shows its spans under whichever
//! process served that turn.
//!
//! The windowed plane adds two formats: [`windows_to_jsonl`] dumps one
//! `window_config` header line, one `window` record per tumbling window
//! (counters, gauges, latency sketches and the derived health signals)
//! and the `alert_fired`/`alert_resolved` transitions, while
//! [`to_prometheus`] renders a [`MetricsSnapshot`] as the text
//! exposition a Prometheus scrape of the final state would return.
//! [`to_chrome_trace_with_alerts`] overlays the alert transitions on the
//! Perfetto timeline as globally scoped instant events.

use std::collections::{HashMap, HashSet};

use engine::EngineEvent;
use serde::{text, Serialize, Value};
use store::{FetchKind, StoreEvent};

use crate::health::{AlertEvent, HealthSignals};
use crate::hub::MetricsSnapshot;
use crate::trace::{TraceEvent, TraceRecord};
use crate::window::WindowSeries;

/// Renders records as JSON Lines: one object per record, `seq` first.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        rec.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Virtual pid of unattributed records (and of instance 0, so
/// single-instance traces look exactly like the pre-cluster ones).
const DEFAULT_PID: u64 = 1;

/// Virtual pid of a record: instance `i` maps to process `i + 1`.
fn pid_of(rec: &TraceRecord) -> u64 {
    rec.instance.map_or(DEFAULT_PID, |i| u64::from(i) + 1)
}

/// One JSON object being appended to a text buffer: members land in
/// call order, and [`JsonObject::close`] ends it. Keys are literals
/// written unescaped; values go through the shared scalar formatter.
#[must_use = "an object must be closed"]
struct JsonObject<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonObject<'a> {
    fn open(out: &'a mut String) -> Self {
        out.push('{');
        JsonObject { out, empty: true }
    }

    /// Writes `"key":` (after a comma unless first) and returns the
    /// buffer for the value.
    fn key(&mut self, key: &'static str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    fn str(mut self, key: &'static str, value: &str) -> Self {
        text::write_str(self.key(key), value);
        self
    }

    fn u64(mut self, key: &'static str, value: u64) -> Self {
        text::write_u64(self.key(key), value);
        self
    }

    fn f64(mut self, key: &'static str, value: f64) -> Self {
        text::write_f64(self.key(key), value);
        self
    }

    /// A nested object whose members `members` writes.
    fn object(
        mut self,
        key: &'static str,
        members: impl FnOnce(JsonObject<'_>) -> JsonObject<'_>,
    ) -> Self {
        members(JsonObject::open(self.key(key))).close();
        self
    }

    fn close(self) {
        self.out.push('}');
    }
}

/// A Chrome trace-event file being written: the `{"traceEvents":[`
/// envelope is open, and each event is appended as text the moment it is
/// known, so no event list is held before writing.
struct ChromeTrace {
    out: String,
    events: usize,
}

impl ChromeTrace {
    fn new() -> Self {
        ChromeTrace {
            out: String::from("{\"traceEvents\":["),
            events: 0,
        }
    }

    /// Starts the next event.
    fn event(&mut self) -> JsonObject<'_> {
        if self.events > 0 {
            self.out.push(',');
        }
        self.events += 1;
        JsonObject::open(&mut self.out)
    }

    /// Closes the envelope.
    fn finish(mut self) -> String {
        self.out.push_str("],\"displayTimeUnit\":\"ms\"}");
        self.out
    }

    /// A complete ("X") span on a session track; `ts`/`dur` in µs.
    fn span(&mut self, name: &str, cat: &str, pid: u64, tid: u64, start_secs: f64, end_secs: f64) {
        self.event()
            .str("name", name)
            .str("cat", cat)
            .str("ph", "X")
            .f64("ts", start_secs * 1e6)
            .f64("dur", (end_secs - start_secs).max(0.0) * 1e6)
            .u64("pid", pid)
            .u64("tid", tid)
            .close();
    }

    /// A thread-scoped instant ("i") marker on a session track.
    fn instant(&mut self, name: &str, cat: &str, pid: u64, tid: u64, at_secs: f64) {
        self.event()
            .str("name", name)
            .str("cat", cat)
            .str("ph", "i")
            .str("s", "t")
            .f64("ts", at_secs * 1e6)
            .u64("pid", pid)
            .u64("tid", tid)
            .close();
    }

    /// A counter ("C") sample of one series.
    fn counter(&mut self, name: &str, pid: u64, at_secs: f64, series: &'static str, value: u64) {
        self.event()
            .str("name", name)
            .str("ph", "C")
            .f64("ts", at_secs * 1e6)
            .u64("pid", pid)
            .object("args", |args| args.u64(series, value))
            .close();
    }

    /// One endpoint of a flow arrow: `ph: "s"` opens it at the producer,
    /// `ph: "f"` (binding to the enclosing slice's end, `bp: "e"`) closes
    /// it at the consumer. Perfetto draws the arrow between the two slices.
    fn flow(&mut self, phase: &str, id: u64, pid: u64, tid: u64, at_secs: f64) {
        let ev = self
            .event()
            .str("name", "kv_transfer")
            .str("cat", "tiering")
            .str("ph", phase)
            .u64("id", id)
            .f64("ts", at_secs * 1e6)
            .u64("pid", pid)
            .u64("tid", tid);
        if phase == "f" { ev.str("bp", "e") } else { ev }.close();
    }

    /// A metadata ("M") event naming a process or a thread.
    fn metadata(&mut self, what: &str, pid: u64, tid: Option<u64>, label: &str) {
        let ev = self
            .event()
            .str("name", what)
            .str("ph", "M")
            .u64("pid", pid);
        match tid {
            Some(tid) => ev.u64("tid", tid),
            None => ev,
        }
        .object("args", |args| args.str("name", label))
        .close();
    }

    /// Writes the events every Chrome-trace flavour shares.
    fn write_records(&mut self, records: &[TraceRecord], alerts: &[AlertEvent]) {
        let mut named_pids: Vec<u64> = Vec::new();
        let mut named_threads: HashSet<(u64, u64)> = HashSet::new();
        // Open span starts, keyed by session: (pid at start, start time).
        let mut queued_at: HashMap<u64, (u64, f64)> = HashMap::new();
        let mut admitted_at: HashMap<u64, (u64, f64)> = HashMap::new();
        let mut prefill_done_at: HashMap<u64, (u64, f64)> = HashMap::new();
        let mut prefetch_at: HashMap<u64, (u64, f64)> = HashMap::new();
        // Finished prefetch stagings awaiting their consumer: session →
        // (pid of the staging span, staging end time). Consumed by the
        // next admission to draw the causal prefetch → prefill flow arrow.
        let mut prefetch_done: HashMap<u64, (u64, f64)> = HashMap::new();
        let mut flow_ids: u64 = 0;
        // Tier index → occupancy track name: the stack's display name
        // once a `tier_config` record announced it, else `t{index}`.
        let mut tier_tracks: HashMap<usize, String> = HashMap::new();

        for rec in records {
            let pid = pid_of(rec);
            if !named_pids.contains(&pid) {
                named_pids.push(pid);
                let label = if pid == DEFAULT_PID {
                    "cachedattention".to_string()
                } else {
                    format!("cachedattention instance {}", pid - 1)
                };
                self.metadata("process_name", pid, None, &label);
            }
            if let Some(sid) = rec.ev.session() {
                if named_threads.insert((pid, sid)) {
                    self.metadata("thread_name", pid, Some(sid), &format!("session {sid}"));
                }
            }
            let at = rec.ev.at().as_secs_f64();
            match rec.ev {
                TraceEvent::Engine(ev) => match ev {
                    EngineEvent::TurnArrived { session, .. } => {
                        queued_at.insert(session, (pid, at));
                    }
                    EngineEvent::Admitted { session, .. } => {
                        if let Some((p, start)) = queued_at.remove(&session) {
                            self.span("queued", "sched", p, session, start, at);
                        }
                        if let Some((p, end)) = prefetch_done.remove(&session) {
                            // Causal edge: the staged KV this admission
                            // consumes came from that prefetch.
                            flow_ids += 1;
                            self.flow("s", flow_ids, p, session, end);
                            self.flow("f", flow_ids, pid, session, at);
                        }
                        admitted_at.insert(session, (pid, at));
                    }
                    EngineEvent::PrefillDone { session, .. } => {
                        if let Some((p, start)) = admitted_at.remove(&session) {
                            self.span("prefill", "gpu", p, session, start, at);
                        }
                        prefill_done_at.insert(session, (pid, at));
                    }
                    EngineEvent::Retired { session, .. } => {
                        if let Some((p, start)) = prefill_done_at.remove(&session) {
                            self.span("decode", "gpu", p, session, start, at);
                        }
                    }
                    EngineEvent::HbmReserved { reserved_bytes, .. } => {
                        self.counter("hbm_reserved_bytes", pid, at, "reserved", reserved_bytes);
                    }
                    EngineEvent::PrefillTimed {
                        session,
                        stall_secs,
                        ..
                    } => {
                        // The visible fetch stall nests inside the upcoming
                        // `prefill` slice (the stall leads, compute follows).
                        if stall_secs > 0.0 {
                            self.span("fetch_stall", "gpu", pid, session, at, at + stall_secs);
                        }
                    }
                    EngineEvent::Truncated { session, .. }
                    | EngineEvent::Consulted { session, .. }
                    | EngineEvent::Deferred { session, .. }
                    | EngineEvent::TurnRerouted { session, .. }
                    | EngineEvent::DegradedRecompute { session, .. } => {
                        self.instant(ev.kind(), ev.category(), pid, session, at);
                    }
                    EngineEvent::TurnShed { session, .. } => {
                        // A shed closes the turn before it ever runs: end
                        // the queued span (the wait the admission
                        // controller cut short) and mark the rejection on
                        // the session lane.
                        if let Some((p, start)) = queued_at.remove(&session) {
                            self.span("queued", "sched", p, session, start, at);
                        }
                        self.instant(ev.kind(), ev.category(), pid, session, at);
                    }
                    EngineEvent::InstanceCrashed { .. }
                    | EngineEvent::ScaleUp { .. }
                    | EngineEvent::ScaleDown { .. }
                    | EngineEvent::OverloadLevelChanged { .. } => {
                        // No session track: mark the crash / fleet change
                        // on the instance's tid-0 lane.
                        self.instant(ev.kind(), ev.category(), pid, 0, at);
                    }
                    EngineEvent::SloConfig { .. } => {}
                },
                TraceEvent::Store(ev) => match ev {
                    StoreEvent::TierConfig { tier, name, .. } => {
                        tier_tracks.insert(tier.0, format!("store_occupancy_bytes:{name}"));
                    }
                    StoreEvent::Occupancy {
                        tier, used_bytes, ..
                    } => {
                        let track = tier_tracks
                            .entry(tier.0)
                            .or_insert_with(|| format!("store_occupancy_bytes:t{}", tier.0));
                        self.counter(track, pid, at, "used", used_bytes);
                    }
                    StoreEvent::Promoted {
                        session,
                        kind: FetchKind::Prefetch,
                        ..
                    } => {
                        prefetch_at.insert(session, (pid, at));
                    }
                    StoreEvent::PrefetchCompleted { session, .. } => {
                        if let Some((p, start)) = prefetch_at.remove(&session) {
                            self.span("prefetch", "tiering", p, session, start, at);
                            prefetch_done.insert(session, (p, at));
                        }
                    }
                    StoreEvent::WriteBufferStall { session, until, .. } => {
                        // The stall has real extent — admission is blocked
                        // from `at` until the buffer drains at `until` — so
                        // it renders as a duration slice, not an instant.
                        let until = until.as_secs_f64();
                        self.span("write_buffer_stall", "stall", pid, session, at, until);
                    }
                    other => {
                        if let Some(sid) = other.session() {
                            self.instant(other.kind(), other.category(), pid, sid, at);
                        }
                    }
                },
            }
        }
        for a in alerts {
            self.event()
                .str("name", &a.rule)
                .str("cat", "alert")
                .str("ph", "i")
                .str("s", "g")
                .f64("ts", a.at_secs * 1e6)
                .u64("pid", DEFAULT_PID)
                .u64("tid", 0)
                .object("args", |args| {
                    args.str("kind", a.kind.label())
                        .str("signal", &a.signal)
                        .f64("value", a.value)
                        .u64("window", a.window as u64)
                })
                .close();
        }
        if self.events == 0 {
            self.metadata("process_name", DEFAULT_PID, None, "cachedattention");
        }
    }
}

/// Renders records as a Chrome trace-event file (loadable in Perfetto).
///
/// Each serving instance is a process (instance `i` = pid `i + 1`;
/// unattributed records share pid 1 with instance 0); session tracks are
/// threads of the process that served them; `ts`/`dur` are microseconds
/// of virtual time. Span pairing follows the pipeline's causal order:
/// `TurnArrived → Admitted` becomes a `queued` span, `Admitted →
/// PrefillDone` a `prefill` span, `PrefillDone → Retired` a `decode`
/// span, and a prefetch `Promoted → PrefetchCompleted` pair a `prefetch`
/// staging span. Write-buffer stalls render with their real extent
/// (`at → until`), the visible fetch stall nests inside its prefill
/// slice, and a flow arrow connects each completed prefetch to the
/// admission that consumes the staged KV — the Perfetto waterfall shows
/// the §3.2 overlap (or its absence) directly. Store decisions appear
/// as instant markers; occupancy gauges and HBM reservations become
/// per-process counter tracks.
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    to_chrome_trace_with_alerts(records, &[])
}

/// [`to_chrome_trace`] with the alert timeline overlaid: every
/// `AlertFired`/`AlertResolved` transition renders as a globally scoped
/// instant event (`ph: "i"`, `s: "g"`) named after its rule, so Perfetto
/// draws a full-height marker at the window boundary where the rule
/// transitioned, with the deciding signal value in its args.
pub fn to_chrome_trace_with_alerts(records: &[TraceRecord], alerts: &[AlertEvent]) -> String {
    let mut trace = ChromeTrace::new();
    trace.write_records(records, alerts);
    trace.finish()
}

/// Virtual pid of the host-time self-profile process track.
const SELFPROF_PID: u64 = 1000;

/// [`to_chrome_trace`] with the host-time self-profile rendered as a
/// dedicated process beside the virtual-time tracks, so a single Chrome
/// trace shows both clocks. Each profiled scope becomes its own thread
/// under a "simulator host time (self-profile)" process holding one
/// aggregate slice whose extent is the scope's **self** time in host
/// microseconds (`ts` starts at zero: host slices align with the virtual
/// origin for side-by-side magnitude reading, not causality); call count
/// and total/mean/max ns ride in the slice args.
pub fn to_chrome_trace_two_clock(records: &[TraceRecord], profile: &sim::SelfProfile) -> String {
    let mut trace = ChromeTrace::new();
    trace.write_records(records, &[]);
    trace.metadata(
        "process_name",
        SELFPROF_PID,
        None,
        "simulator host time (self-profile)",
    );
    for (i, s) in profile.scopes.iter().enumerate() {
        let tid = i as u64;
        trace.metadata("thread_name", SELFPROF_PID, Some(tid), &s.name);
        trace
            .event()
            .str("name", &s.name)
            .str("cat", "selfprof")
            .str("ph", "X")
            .f64("ts", 0.0)
            .f64("dur", s.self_ns as f64 / 1e3)
            .u64("pid", SELFPROF_PID)
            .u64("tid", tid)
            .object("args", |args| {
                args.u64("calls", s.calls)
                    .u64("total_ns", s.total_ns)
                    .u64("self_ns", s.self_ns)
                    .u64("mean_ns", s.mean_ns)
                    .u64("max_ns", s.max_ns)
            })
            .close();
    }
    trace.finish()
}

/// Renders the windowed plane as JSON Lines: a `window_config` header
/// (width, window count, SLO target, tier names), then one `window`
/// record per tumbling window — counters, queue-depth and occupancy
/// gauges, the four latency sketches (sparse log-bucket form) and the
/// derived health signals — then the `alert_fired`/`alert_resolved`
/// transitions in chronological order. The CI smoke validates this
/// format with `trace_check --windows`.
///
/// # Panics
/// Panics when `signals` was not derived from `series` (point/window
/// count mismatch).
pub fn windows_to_jsonl(
    series: &WindowSeries,
    signals: &HealthSignals,
    alerts: &[AlertEvent],
) -> String {
    assert_eq!(
        series.windows.len(),
        signals.points.len(),
        "health signals must be derived from the same window series"
    );
    let mut out = String::new();
    let mut line = |v: Value| {
        out.push_str(&serde_json::to_string(&v).expect("window records always serialize"));
        out.push('\n');
    };
    line(Value::Object(vec![
        ("kind".into(), Value::Str("window_config".to_string())),
        ("width_secs".into(), Value::F64(series.width_secs)),
        ("windows".into(), Value::U64(series.windows.len() as u64)),
        (
            "slo_ttft_p99_secs".into(),
            Value::F64(signals.slo.ttft_p99_target_secs),
        ),
        (
            "tiers".into(),
            Value::Array(
                series
                    .tier_names
                    .iter()
                    .map(|n| Value::Str(n.clone()))
                    .collect(),
            ),
        ),
    ]));
    for (w, p) in series.windows.iter().zip(signals.points.iter()) {
        let tiers: Vec<Value> = w
            .tiers
            .iter()
            .map(|t| {
                Value::Object(vec![
                    ("tier".into(), Value::U64(t.tier as u64)),
                    (
                        "name".into(),
                        Value::Str(
                            series
                                .tier_names
                                .get(t.tier)
                                .cloned()
                                .unwrap_or_else(|| format!("t{}", t.tier)),
                        ),
                    ),
                    ("store_hits".into(), Value::U64(t.store_hits)),
                    (
                        "occupancy_end_bytes".into(),
                        Value::F64(t.occupancy_end_bytes),
                    ),
                    (
                        "occupancy_peak_bytes".into(),
                        Value::F64(t.occupancy_peak_bytes),
                    ),
                    (
                        "occupancy_slope_bytes_per_sec".into(),
                        Value::F64(
                            p.occupancy_slope_bytes_per_sec
                                .get(t.tier)
                                .copied()
                                .unwrap_or(0.0),
                        ),
                    ),
                ])
            })
            .collect();
        let instances: Vec<Value> = w
            .instances
            .iter()
            .map(|i| {
                Value::Object(vec![
                    ("instance".into(), Value::U64(u64::from(i.instance))),
                    ("turns_arrived".into(), Value::U64(i.counters.turns_arrived)),
                    ("admitted".into(), Value::U64(i.counters.admitted)),
                    ("retired".into(), Value::U64(i.counters.retired)),
                ])
            })
            .collect();
        line(Value::Object(vec![
            ("kind".into(), Value::Str("window".to_string())),
            ("index".into(), Value::U64(w.index as u64)),
            ("start_secs".into(), Value::F64(w.start_secs)),
            ("end_secs".into(), Value::F64(w.end_secs)),
            ("counters".into(), w.counters.to_value()),
            ("queue_depth_end".into(), Value::U64(w.queue_depth_end)),
            ("queue_depth_peak".into(), Value::U64(w.queue_depth_peak)),
            (
                "hbm_reserved_end_bytes".into(),
                Value::F64(w.hbm_reserved_end_bytes),
            ),
            (
                "arrival_rate_per_sec".into(),
                Value::F64(p.arrival_rate_per_sec),
            ),
            ("ttft_p99_secs".into(), p.ttft_p99_secs.to_value()),
            ("slo_burn_rate".into(), p.slo_burn_rate.to_value()),
            (
                "fault_rate_per_sec".into(),
                Value::F64(p.fault_rate_per_sec),
            ),
            ("ttft".into(), w.ttft.to_value()),
            ("queue_wait".into(), w.queue_wait.to_value()),
            ("fetch_stall".into(), w.fetch_stall.to_value()),
            ("prefetch_latency".into(), w.prefetch_latency.to_value()),
            ("tiers".into(), Value::Array(tiers)),
            ("instances".into(), Value::Array(instances)),
        ]));
    }
    for a in alerts {
        line(a.to_value());
    }
    out
}

/// Formats a float the way Prometheus expositions expect (plain decimal
/// or scientific, never `NaN`-quoted — the snapshot never holds one).
fn prom_num(x: f64) -> String {
    format!("{x}")
}

/// Writes one metric family: `# HELP`/`# TYPE` preamble plus one sample
/// line per `(labels, value)` pair. Families with no samples are elided.
fn prom_metric(out: &mut String, name: &str, help: &str, kind: &str, samples: Vec<(String, f64)>) {
    if samples.is_empty() {
        return;
    }
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (labels, v) in samples {
        out.push_str(&format!("{name}{labels} {}\n", prom_num(v)));
    }
}

/// Writes one summary family: quantile samples (absent percentiles are
/// skipped, matching the snapshot's `null` fields) plus optional
/// `_sum`/`_count` lines.
fn prom_summary(
    out: &mut String,
    name: &str,
    help: &str,
    count_sum: Option<(u64, f64)>,
    quantiles: &[(&str, Option<f64>)],
) {
    let qs: Vec<(&str, f64)> = quantiles
        .iter()
        .filter_map(|(q, v)| v.map(|v| (*q, v)))
        .collect();
    if qs.is_empty() && count_sum.is_none() {
        return;
    }
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
    for (q, v) in qs {
        out.push_str(&format!("{name}{{quantile=\"{q}\"}} {}\n", prom_num(v)));
    }
    if let Some((count, sum)) = count_sum {
        out.push_str(&format!("{name}_sum {}\n", prom_num(sum)));
        out.push_str(&format!("{name}_count {count}\n"));
    }
}

/// Renders a [`MetricsSnapshot`] as a Prometheus text exposition — what
/// a scrape of the final state would return. Every
/// [`Counters`](crate::Counters) field exports as
/// `cachedattention_<field>_total` with its doc as HELP, latency
/// summaries render as `{quantile="..."}` series (empty histograms
/// export no quantile samples, matching the snapshot's `null` fields),
/// and the per-tier / per-instance slices become labeled series.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let plain = |v: f64| vec![(String::new(), v)];

    for (name, help, value) in snap.counters.rows() {
        prom_metric(
            &mut out,
            &format!("cachedattention_{name}_total"),
            help,
            "counter",
            plain(value as f64),
        );
    }
    prom_metric(
        &mut out,
        "cachedattention_hit_rate",
        "Hits over classified consultations.",
        "gauge",
        plain(snap.hit_rate),
    );
    prom_metric(
        &mut out,
        "cachedattention_overlap_efficiency",
        "Fraction of KV transfer time hidden under prefill compute.",
        "gauge",
        plain(snap.overlap_efficiency),
    );
    prom_metric(
        &mut out,
        "cachedattention_hbm_reserved_peak_bytes",
        "Peak live-KV HBM reservation.",
        "gauge",
        plain(snap.hbm_reserved_peak_bytes),
    );

    // Latency summaries: absent percentiles (empty histograms) export no
    // quantile samples, matching the snapshot's `null` fields. Only TTFT
    // carries `_sum`/`_count` (the snapshot keeps no sample count for
    // the other distributions).
    prom_summary(
        &mut out,
        "cachedattention_ttft_seconds",
        "Service TTFT (admission to first token).",
        Some((
            snap.ttft_count,
            snap.ttft_mean_secs * snap.ttft_count as f64,
        )),
        &[
            ("0.5", snap.ttft_p50_secs),
            ("0.95", snap.ttft_p95_secs),
            ("0.99", snap.ttft_p99_secs),
        ],
    );
    prom_summary(
        &mut out,
        "cachedattention_queue_wait_seconds",
        "Queue wait (arrival to admission).",
        None,
        &[
            ("0.5", snap.queue_wait_p50_secs),
            ("0.95", snap.queue_wait_p95_secs),
            ("0.99", snap.queue_wait_p99_secs),
        ],
    );
    prom_summary(
        &mut out,
        "cachedattention_prefetch_latency_seconds",
        "Prefetch staging latency (promotion to completion).",
        None,
        &[("0.99", snap.prefetch_latency_p99_secs)],
    );

    prom_metric(
        &mut out,
        "cachedattention_store_hits_total",
        "Store lookups served per tier.",
        "counter",
        snap.tiers
            .iter()
            .map(|t| (format!("{{tier=\"{}\"}}", t.name), t.store_hits as f64))
            .collect(),
    );
    prom_metric(
        &mut out,
        "cachedattention_tier_occupancy_peak_bytes",
        "Peak occupancy per tier.",
        "gauge",
        snap.tiers
            .iter()
            .map(|t| (format!("{{tier=\"{}\"}}", t.name), t.occupancy_peak_bytes))
            .collect(),
    );
    prom_metric(
        &mut out,
        "cachedattention_instance_turns_arrived_total",
        "Turns routed per serving instance.",
        "counter",
        snap.instances
            .iter()
            .map(|i| {
                (
                    format!("{{instance=\"{}\"}}", i.instance),
                    i.turns_arrived as f64,
                )
            })
            .collect(),
    );
    prom_metric(
        &mut out,
        "cachedattention_instance_retired_total",
        "Jobs retired per serving instance.",
        "counter",
        snap.instances
            .iter()
            .map(|i| (format!("{{instance=\"{}\"}}", i.instance), i.retired as f64))
            .collect(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Time;
    use store::TierId;

    fn rec(seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            instance: None,
            ev,
        }
    }

    fn rec_on(seq: u64, instance: u32, ev: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            instance: Some(instance),
            ev,
        }
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            rec(
                0,
                TraceEvent::Engine(EngineEvent::TurnArrived {
                    session: 1,
                    turn: 0,
                    at: Time::ZERO,
                }),
            ),
            rec(
                1,
                TraceEvent::Store(StoreEvent::FetchHit {
                    session: 1,
                    tier: TierId(0),
                    bytes: 100,
                    at: Time::from_millis(1),
                }),
            ),
            rec(
                2,
                TraceEvent::Engine(EngineEvent::Admitted {
                    session: 1,
                    reused: 100,
                    computed: 50,
                    chunked: false,
                    at: Time::from_millis(2),
                }),
            ),
            rec(
                3,
                TraceEvent::Engine(EngineEvent::PrefillDone {
                    session: 1,
                    ttft_secs: 0.1,
                    at: Time::from_millis(102),
                }),
            ),
            rec(
                4,
                TraceEvent::Engine(EngineEvent::Retired {
                    session: 1,
                    new_hist: 150,
                    at: Time::from_millis(500),
                }),
            ),
            rec(
                5,
                TraceEvent::Store(StoreEvent::Occupancy {
                    tier: TierId(0),
                    used_bytes: 10,
                    at: Time::from_millis(500),
                }),
            ),
            rec(
                6,
                TraceEvent::Store(StoreEvent::Occupancy {
                    tier: TierId(1),
                    used_bytes: 20,
                    at: Time::from_millis(500),
                }),
            ),
        ]
    }

    #[test]
    fn jsonl_is_one_parsable_object_per_line() {
        let text = to_jsonl(&sample_records());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        for (i, line) in lines.iter().enumerate() {
            let v: Value = serde_json::from_str(line).expect("line parses");
            match v {
                Value::Object(pairs) => {
                    assert_eq!(pairs[0].0, "seq");
                    assert!(matches!(pairs[0].1, Value::U64(n) if n == i as u64));
                }
                other => panic!("expected object, got {other:?}"),
            }
        }
    }

    #[test]
    fn chrome_trace_has_spans_counters_and_metadata() {
        let json = to_chrome_trace(&sample_records());
        let parsed: Value = serde_json::from_str(&json).expect("valid JSON");
        let Value::Object(pairs) = parsed else {
            panic!("expected envelope object");
        };
        assert_eq!(pairs[0].0, "traceEvents");
        assert!(json.contains("\"name\":\"queued\""));
        assert!(json.contains("\"name\":\"prefill\""));
        assert!(json.contains("\"name\":\"decode\""));
        assert!(json.contains("\"name\":\"fetch_hit\""));
        // Per-tier occupancy tracks, labeled by index when no
        // `tier_config` record announced a name.
        assert!(json.contains("\"name\":\"store_occupancy_bytes:t0\""));
        assert!(json.contains("\"name\":\"store_occupancy_bytes:t1\""));
        assert!(json.contains("\"name\":\"session 1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"M\""));
    }

    #[test]
    fn tier_config_names_the_occupancy_tracks() {
        let records = vec![
            rec(
                0,
                TraceEvent::Store(StoreEvent::TierConfig {
                    tier: TierId(1),
                    name: "pooled",
                    capacity: 1_000,
                    at: Time::ZERO,
                }),
            ),
            rec(
                1,
                TraceEvent::Store(StoreEvent::Occupancy {
                    tier: TierId(1),
                    used_bytes: 64,
                    at: Time::from_millis(2),
                }),
            ),
        ];
        let json = to_chrome_trace(&records);
        assert!(json.contains("\"name\":\"store_occupancy_bytes:pooled\""));
        assert!(!json.contains("store_occupancy_bytes:t1"));
    }

    #[test]
    fn prefetch_flows_into_the_consuming_admission() {
        let records = vec![
            rec(
                0,
                TraceEvent::Engine(EngineEvent::TurnArrived {
                    session: 7,
                    turn: 0,
                    at: Time::ZERO,
                }),
            ),
            rec(
                1,
                TraceEvent::Store(StoreEvent::Promoted {
                    session: 7,
                    bytes: 100,
                    kind: FetchKind::Prefetch,
                    from: TierId(1),
                    to: TierId(0),
                    queue_pos: Some(0),
                    instance: None,
                    at: Time::from_millis(1),
                }),
            ),
            rec(
                2,
                TraceEvent::Store(StoreEvent::PrefetchCompleted {
                    session: 7,
                    instance: None,
                    at: Time::from_millis(5),
                }),
            ),
            rec(
                3,
                TraceEvent::Engine(EngineEvent::Admitted {
                    session: 7,
                    reused: 100,
                    computed: 50,
                    chunked: false,
                    at: Time::from_millis(8),
                }),
            ),
        ];
        let json = to_chrome_trace(&records);
        // The staging span, both flow endpoints sharing one id, and the
        // slice-end binding on the finish side.
        assert!(json.contains("\"name\":\"prefetch\""));
        assert!(json.contains("\"name\":\"kv_transfer\",\"cat\":\"tiering\",\"ph\":\"s\",\"id\":1"));
        assert!(json.contains("\"name\":\"kv_transfer\",\"cat\":\"tiering\",\"ph\":\"f\",\"id\":1"));
        assert!(json.contains("\"bp\":\"e\""));
    }

    #[test]
    fn write_buffer_stall_renders_with_its_real_extent() {
        let records = vec![rec(
            0,
            TraceEvent::Store(StoreEvent::WriteBufferStall {
                session: 3,
                until: Time::from_millis(40),
                at: Time::from_millis(10),
            }),
        )];
        let json = to_chrome_trace(&records);
        assert!(json.contains("\"name\":\"write_buffer_stall\""));
        // 30 ms of blocked admission = 30_000 µs of slice duration.
        assert!(json.contains("\"dur\":30000"));
        // A duration slice, not the old instant marker.
        assert!(!json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn instances_become_their_own_perfetto_processes() {
        let records = vec![
            rec_on(
                0,
                0,
                TraceEvent::Engine(EngineEvent::TurnArrived {
                    session: 1,
                    turn: 0,
                    at: Time::ZERO,
                }),
            ),
            rec_on(
                1,
                1,
                TraceEvent::Engine(EngineEvent::TurnArrived {
                    session: 2,
                    turn: 0,
                    at: Time::ZERO,
                }),
            ),
            rec_on(
                2,
                0,
                TraceEvent::Engine(EngineEvent::Admitted {
                    session: 1,
                    reused: 0,
                    computed: 50,
                    chunked: false,
                    at: Time::from_millis(2),
                }),
            ),
            rec_on(
                3,
                1,
                TraceEvent::Engine(EngineEvent::Admitted {
                    session: 2,
                    reused: 0,
                    computed: 50,
                    chunked: false,
                    at: Time::from_millis(3),
                }),
            ),
        ];
        let json = to_chrome_trace(&records);
        // Instance 0 keeps the pre-cluster process identity; instance 1
        // appears as its own named process with its own session thread.
        assert!(json.contains("\"name\":\"cachedattention\""));
        assert!(json.contains("\"name\":\"cachedattention instance 1\""));
        assert!(json.contains("\"pid\":2"));
        let parsed: Value = serde_json::from_str(&json).expect("valid JSON");
        let Value::Object(pairs) = parsed else {
            panic!("expected envelope object");
        };
        let Value::Array(events) = &pairs[0].1 else {
            panic!("expected traceEvents array");
        };
        // Both queued spans exist, one per process.
        let queued: Vec<&Value> = events
            .iter()
            .filter(|e| {
                serde_json::to_string(e)
                    .unwrap()
                    .contains("\"name\":\"queued\"")
            })
            .collect();
        assert_eq!(queued.len(), 2);
    }

    use crate::health::{AlertKind, AlertRule, HealthSignals, Signal, SloConfig};
    use crate::window::WindowedHub;
    use engine::EngineObserver;

    fn alert(kind: AlertKind, at_secs: f64, window: usize) -> AlertEvent {
        AlertEvent {
            rule: "queue_depth_high".into(),
            signal: "queue_depth".into(),
            kind,
            window,
            at_secs,
            value: 12.0,
        }
    }

    #[test]
    fn alerts_render_as_global_instants_in_the_chrome_trace() {
        let alerts = vec![
            alert(AlertKind::Fired, 2.0, 1),
            alert(AlertKind::Resolved, 5.0, 4),
        ];
        let json = to_chrome_trace_with_alerts(&sample_records(), &alerts);
        serde_json::from_str::<Value>(&json).expect("valid JSON");
        assert!(json.contains("\"name\":\"queue_depth_high\""));
        assert!(json.contains("\"cat\":\"alert\""));
        // Global-scope instants so they span every track in Perfetto.
        assert!(json.contains("\"ph\":\"i\",\"s\":\"g\""));
        assert!(json.contains("\"kind\":\"alert_fired\""));
        assert!(json.contains("\"kind\":\"alert_resolved\""));
        // Instant at 2 s virtual time = 2_000_000 µs.
        assert!(json.contains("\"ts\":2000000.0"));
    }

    /// A small windowed run: two TTFT samples in different windows plus
    /// a queue arrival, sealed and scored against a 1 s SLO.
    fn windowed_fixture() -> (crate::window::WindowSeries, HealthSignals) {
        let mut hub = WindowedHub::new(1.0);
        hub.on_event(EngineEvent::TurnArrived {
            session: 1,
            turn: 0,
            at: Time::from_millis(100),
        });
        hub.on_event(EngineEvent::Admitted {
            session: 1,
            reused: 0,
            computed: 50,
            chunked: false,
            at: Time::from_millis(200),
        });
        hub.on_event(EngineEvent::PrefillDone {
            session: 1,
            ttft_secs: 0.1,
            at: Time::from_millis(300),
        });
        hub.on_event(EngineEvent::PrefillDone {
            session: 2,
            ttft_secs: 2.5,
            at: Time::from_secs_f64(1.5),
        });
        hub.on_store_event(StoreEvent::Occupancy {
            tier: TierId(0),
            used_bytes: 64,
            at: Time::from_millis(400),
        });
        let series = hub.series();
        let signals = HealthSignals::from_series(&series, &SloConfig::new(1.0));
        (series, signals)
    }

    #[test]
    fn windowed_jsonl_has_header_windows_and_alerts() {
        let (series, signals) = windowed_fixture();
        let rules = [AlertRule::new("burn", Signal::SloBurnRate, 1.0)];
        let alerts = signals.evaluate(&rules);
        assert!(!alerts.is_empty());
        let text = windows_to_jsonl(&series, &signals, &alerts);
        let lines: Vec<&str> = text.lines().collect();
        // Header + one line per window + one per alert event.
        assert_eq!(lines.len(), 1 + series.windows.len() + alerts.len());
        let header: Value = serde_json::from_str(lines[0]).expect("header parses");
        assert!(matches!(header.get("kind"), Some(Value::Str(s)) if s == "window_config"));
        assert!(matches!(header.get("width_secs"), Some(Value::F64(w)) if *w == 1.0));
        for line in &lines[1..=series.windows.len()] {
            let v: Value = serde_json::from_str(line).expect("window line parses");
            assert!(matches!(v.get("kind"), Some(Value::Str(s)) if s == "window"));
            assert!(v.get("counters").is_some());
            assert!(v.get("ttft").is_some());
            assert!(v.get("tiers").is_some());
        }
        let last: Value = serde_json::from_str(lines.last().unwrap()).expect("alert parses");
        assert!(matches!(last.get("kind"), Some(Value::Str(s)) if s.starts_with("alert_")));
        // Window 0's TTFT sample (0.1 s) is under the 1 s target: burn 0.
        let w0: Value = serde_json::from_str(lines[1]).expect("w0 parses");
        assert!(matches!(w0.get("slo_burn_rate"), Some(Value::F64(b)) if *b == 0.0));
        // Window 1's sample (2.5 s) breaches: burn present and > 1.
        let w1: Value = serde_json::from_str(lines[2]).expect("w1 parses");
        assert!(matches!(w1.get("slo_burn_rate"), Some(Value::F64(b)) if *b > 1.0));
    }

    #[test]
    fn prometheus_exposition_has_counters_gauges_and_summaries() {
        let mut hub = crate::hub::MetricsHub::new();
        hub.on_event(EngineEvent::TurnArrived {
            session: 1,
            turn: 0,
            at: Time::ZERO,
        });
        hub.on_event(EngineEvent::Admitted {
            session: 1,
            reused: 0,
            computed: 50,
            chunked: false,
            at: Time::from_millis(4),
        });
        hub.on_event(EngineEvent::PrefillDone {
            session: 1,
            ttft_secs: 0.25,
            at: Time::from_millis(254),
        });
        hub.on_store_event(StoreEvent::TierConfig {
            tier: TierId(0),
            name: "dram",
            capacity: 1_000,
            at: Time::ZERO,
        });
        hub.on_store_event(StoreEvent::FetchHit {
            session: 1,
            tier: TierId(0),
            bytes: 5,
            at: Time::from_millis(1),
        });
        let text = to_prometheus(&hub.snapshot());
        assert!(text.contains("# TYPE cachedattention_turns_arrived_total counter"));
        assert!(text.contains("cachedattention_turns_arrived_total 1\n"));
        assert!(text.contains("# TYPE cachedattention_ttft_seconds summary"));
        assert!(text.contains("cachedattention_ttft_seconds{quantile=\"0.99\"} 0.25\n"));
        assert!(text.contains("cachedattention_ttft_seconds_count 1\n"));
        assert!(text.contains("cachedattention_store_hits_total{tier=\"dram\"} 1\n"));
        // Empty distributions export no quantile series at all.
        assert!(!text.contains("cachedattention_prefetch_latency_seconds"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            assert!(
                line.split_whitespace().count() == 2,
                "malformed sample line: {line}"
            );
        }
    }

    /// Every [`Counters`](crate::Counters) field exports exactly once as
    /// `cachedattention_<field>_total`, with the snapshot's value and its
    /// doc as a one-line HELP free of doc markup.
    #[test]
    fn prometheus_exports_every_counter_under_its_field_name() {
        let mut cfg = engine::EngineConfig::paper(
            engine::Mode::CachedAttention,
            models::ModelSpec::llama2_13b(),
        );
        cfg.store.set_dram_bytes(8_000_000_000);
        cfg.store.set_disk_bytes(40_000_000_000);
        let trace = workload::Generator::new(workload::ShareGptProfile::default(), 7).trace(20);
        let (_report, tel) = crate::run_with_telemetry(cfg, trace);
        let snap = tel.snapshot();
        let text = to_prometheus(&snap);
        let lines: Vec<&str> = text.lines().collect();
        let Value::Object(fields) = snap.counters.to_value() else {
            panic!("counters serialize as an object");
        };
        assert_eq!(fields.len(), 38);
        for (field, value) in fields {
            let Value::U64(value) = value else {
                panic!("counter `{field}` is not an integer");
            };
            let name = format!("cachedattention_{field}_total");
            let help = format!("# HELP {name} ");
            let at: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].starts_with(&help))
                .collect();
            assert_eq!(at.len(), 1, "{name}: one HELP line");
            let text = &lines[at[0]][help.len()..];
            assert!(!text.is_empty(), "{name}: empty HELP");
            assert!(!text.contains(['`', '[']), "{name}: doc markup in HELP");
            assert_eq!(lines[at[0] + 1], format!("# TYPE {name} counter"));
            let sample = format!("{name} {value}");
            assert_eq!(lines[at[0] + 2], sample);
            let samples = lines
                .iter()
                .filter(|l| l.starts_with(&format!("{name} ")))
                .count();
            assert_eq!(samples, 1, "{name}: one sample");
        }
    }
}
