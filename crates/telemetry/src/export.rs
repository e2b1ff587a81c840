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
use serde::{Serialize, Value};
use store::{FetchKind, StoreEvent};

use crate::health::{AlertEvent, HealthSignals};
use crate::hub::MetricsSnapshot;
use crate::trace::{TraceEvent, TraceRecord};
use crate::window::WindowSeries;

/// Renders records as JSON Lines: one object per record, `seq` first.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&serde_json::to_string(rec).expect("trace records always serialize"));
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

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn micros(secs: f64) -> Value {
    Value::F64(secs * 1e6)
}

/// A complete ("X") span on a session track.
fn span(name: &str, cat: &str, pid: u64, tid: u64, start_secs: f64, end_secs: f64) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("cat", Value::Str(cat.to_string())),
        ("ph", Value::Str("X".to_string())),
        ("ts", micros(start_secs)),
        ("dur", micros((end_secs - start_secs).max(0.0))),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
    ])
}

/// A thread-scoped instant ("i") marker on a session track.
fn instant(name: &str, cat: &str, pid: u64, tid: u64, at_secs: f64) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("cat", Value::Str(cat.to_string())),
        ("ph", Value::Str("i".to_string())),
        ("s", Value::Str("t".to_string())),
        ("ts", micros(at_secs)),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
    ])
}

/// A counter ("C") sample.
fn counter(name: &str, pid: u64, at_secs: f64, args: Vec<(&str, Value)>) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("C".to_string())),
        ("ts", micros(at_secs)),
        ("pid", Value::U64(pid)),
        ("args", obj(args)),
    ])
}

/// One endpoint of a flow arrow: `ph: "s"` opens it at the producer,
/// `ph: "f"` (binding to the enclosing slice's end, `bp: "e"`) closes
/// it at the consumer. Perfetto draws the arrow between the two slices.
fn flow(phase: &str, id: u64, pid: u64, tid: u64, at_secs: f64) -> Value {
    let mut pairs = vec![
        ("name", Value::Str("kv_transfer".to_string())),
        ("cat", Value::Str("tiering".to_string())),
        ("ph", Value::Str(phase.to_string())),
        ("id", Value::U64(id)),
        ("ts", micros(at_secs)),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
    ];
    if phase == "f" {
        pairs.push(("bp", Value::Str("e".to_string())));
    }
    obj(pairs)
}

/// A metadata ("M") event naming a process or a thread.
fn metadata(what: &str, pid: u64, tid: Option<u64>, label: &str) -> Value {
    let mut pairs = vec![
        ("name", Value::Str(what.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::U64(pid)),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid", Value::U64(tid)));
    }
    pairs.push(("args", obj(vec![("name", Value::Str(label.to_string()))])));
    obj(pairs)
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
    chrome_envelope(chrome_events(records, alerts))
}

/// Builds the trace-event list shared by every Chrome-trace flavour.
fn chrome_events(records: &[TraceRecord], alerts: &[AlertEvent]) -> Vec<Value> {
    let mut events: Vec<Value> = Vec::new();
    let mut named_pids: Vec<u64> = Vec::new();
    let mut named_threads: HashSet<(u64, u64)> = HashSet::new();
    // Open span starts, keyed by session: (pid at start, start time).
    let mut queued_at: HashMap<u64, (u64, f64)> = HashMap::new();
    let mut admitted_at: HashMap<u64, (u64, f64)> = HashMap::new();
    let mut prefill_done_at: HashMap<u64, (u64, f64)> = HashMap::new();
    let mut prefetch_at: HashMap<u64, (u64, f64)> = HashMap::new();
    // Finished prefetch stagings awaiting their consumer: session →
    // (pid of the staging span, staging end time). Consumed by the next
    // admission to draw the causal prefetch → prefill flow arrow.
    let mut prefetch_done: HashMap<u64, (u64, f64)> = HashMap::new();
    let mut flow_ids: u64 = 0;
    // Tier index → display name, learned from `tier_config` records.
    let mut tier_labels: HashMap<usize, &'static str> = HashMap::new();

    for rec in records {
        let pid = pid_of(rec);
        if !named_pids.contains(&pid) {
            named_pids.push(pid);
            let label = if pid == DEFAULT_PID {
                "cachedattention".to_string()
            } else {
                format!("cachedattention instance {}", pid - 1)
            };
            events.push(metadata("process_name", pid, None, &label));
        }
        if let Some(sid) = rec.ev.session() {
            if named_threads.insert((pid, sid)) {
                events.push(metadata(
                    "thread_name",
                    pid,
                    Some(sid),
                    &format!("session {sid}"),
                ));
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
                        events.push(span("queued", "sched", p, session, start, at));
                    }
                    if let Some((p, end)) = prefetch_done.remove(&session) {
                        // Causal edge: the staged KV this admission
                        // consumes came from that prefetch.
                        flow_ids += 1;
                        events.push(flow("s", flow_ids, p, session, end));
                        events.push(flow("f", flow_ids, pid, session, at));
                    }
                    admitted_at.insert(session, (pid, at));
                }
                EngineEvent::PrefillDone { session, .. } => {
                    if let Some((p, start)) = admitted_at.remove(&session) {
                        events.push(span("prefill", "gpu", p, session, start, at));
                    }
                    prefill_done_at.insert(session, (pid, at));
                }
                EngineEvent::Retired { session, .. } => {
                    if let Some((p, start)) = prefill_done_at.remove(&session) {
                        events.push(span("decode", "gpu", p, session, start, at));
                    }
                }
                EngineEvent::HbmReserved { reserved_bytes, .. } => {
                    events.push(counter(
                        "hbm_reserved_bytes",
                        pid,
                        at,
                        vec![("reserved", Value::U64(reserved_bytes))],
                    ));
                }
                EngineEvent::PrefillTimed {
                    session,
                    stall_secs,
                    ..
                } => {
                    // The visible fetch stall nests inside the upcoming
                    // `prefill` slice (the stall leads, compute follows).
                    if stall_secs > 0.0 {
                        events.push(span(
                            "fetch_stall",
                            "gpu",
                            pid,
                            session,
                            at,
                            at + stall_secs,
                        ));
                    }
                }
                EngineEvent::Truncated { session, .. }
                | EngineEvent::Consulted { session, .. }
                | EngineEvent::Deferred { session, .. }
                | EngineEvent::TurnRerouted { session, .. }
                | EngineEvent::DegradedRecompute { session, .. } => {
                    events.push(instant(ev.kind(), ev.category(), pid, session, at));
                }
                EngineEvent::TurnShed { session, .. } => {
                    // A shed closes the turn before it ever runs: end the
                    // queued span (the wait the admission controller cut
                    // short) and mark the rejection on the session lane.
                    if let Some((p, start)) = queued_at.remove(&session) {
                        events.push(span("queued", "sched", p, session, start, at));
                    }
                    events.push(instant(ev.kind(), ev.category(), pid, session, at));
                }
                EngineEvent::InstanceCrashed { .. }
                | EngineEvent::ScaleUp { .. }
                | EngineEvent::ScaleDown { .. }
                | EngineEvent::OverloadLevelChanged { .. } => {
                    // No session track: mark the crash / fleet change on
                    // the instance's tid-0 lane.
                    events.push(instant(ev.kind(), ev.category(), pid, 0, at));
                }
                EngineEvent::SloConfig { .. } => {}
            },
            TraceEvent::Store(ev) => match ev {
                StoreEvent::TierConfig { tier, name, .. } => {
                    tier_labels.insert(tier.0, name);
                }
                StoreEvent::Occupancy {
                    tier, used_bytes, ..
                } => {
                    let label = tier_labels
                        .get(&tier.0)
                        .map_or_else(|| format!("t{}", tier.0), |n| (*n).to_string());
                    events.push(counter(
                        &format!("store_occupancy_bytes:{label}"),
                        pid,
                        at,
                        vec![("used", Value::U64(used_bytes))],
                    ));
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
                        events.push(span("prefetch", "tiering", p, session, start, at));
                        prefetch_done.insert(session, (p, at));
                    }
                }
                StoreEvent::WriteBufferStall { session, until, .. } => {
                    // The stall has real extent — admission is blocked
                    // from `at` until the buffer drains at `until` — so
                    // it renders as a duration slice, not an instant.
                    events.push(span(
                        "write_buffer_stall",
                        "stall",
                        pid,
                        session,
                        at,
                        until.as_secs_f64(),
                    ));
                }
                other => {
                    if let Some(sid) = other.session() {
                        events.push(instant(other.kind(), other.category(), pid, sid, at));
                    }
                }
            },
        }
    }
    for a in alerts {
        events.push(obj(vec![
            ("name", Value::Str(a.rule.clone())),
            ("cat", Value::Str("alert".to_string())),
            ("ph", Value::Str("i".to_string())),
            ("s", Value::Str("g".to_string())),
            ("ts", micros(a.at_secs)),
            ("pid", Value::U64(DEFAULT_PID)),
            ("tid", Value::U64(0)),
            (
                "args",
                obj(vec![
                    ("kind", Value::Str(a.kind.label().to_string())),
                    ("signal", Value::Str(a.signal.clone())),
                    ("value", Value::F64(a.value)),
                    ("window", Value::U64(a.window as u64)),
                ]),
            ),
        ]));
    }
    if events.is_empty() {
        events.push(metadata(
            "process_name",
            DEFAULT_PID,
            None,
            "cachedattention",
        ));
    }
    events
}

/// Wraps trace events in the `{"traceEvents": [...]}` envelope.
fn chrome_envelope(events: Vec<Value>) -> String {
    // Events are written (and freed) one at a time: serializing the
    // envelope as a single `Value` would first clone the whole tree.
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde_json::push_value(&mut out, &ev);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
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
    let mut events = chrome_events(records, &[]);
    events.push(metadata(
        "process_name",
        SELFPROF_PID,
        None,
        "simulator host time (self-profile)",
    ));
    for (i, s) in profile.scopes.iter().enumerate() {
        let tid = i as u64;
        events.push(metadata("thread_name", SELFPROF_PID, Some(tid), &s.name));
        events.push(obj(vec![
            ("name", Value::Str(s.name.clone())),
            ("cat", Value::Str("selfprof".to_string())),
            ("ph", Value::Str("X".to_string())),
            ("ts", Value::F64(0.0)),
            ("dur", Value::F64(s.self_ns as f64 / 1e3)),
            ("pid", Value::U64(SELFPROF_PID)),
            ("tid", Value::U64(tid)),
            (
                "args",
                obj(vec![
                    ("calls", Value::U64(s.calls)),
                    ("total_ns", Value::U64(s.total_ns)),
                    ("self_ns", Value::U64(s.self_ns)),
                    ("mean_ns", Value::U64(s.mean_ns)),
                    ("max_ns", Value::U64(s.max_ns)),
                ]),
            ),
        ]));
    }
    chrome_envelope(events)
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
    line(obj(vec![
        ("kind", Value::Str("window_config".to_string())),
        ("width_secs", Value::F64(series.width_secs)),
        ("windows", Value::U64(series.windows.len() as u64)),
        (
            "slo_ttft_p99_secs",
            Value::F64(signals.slo.ttft_p99_target_secs),
        ),
        (
            "tiers",
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
                obj(vec![
                    ("tier", Value::U64(t.tier as u64)),
                    (
                        "name",
                        Value::Str(
                            series
                                .tier_names
                                .get(t.tier)
                                .cloned()
                                .unwrap_or_else(|| format!("t{}", t.tier)),
                        ),
                    ),
                    ("store_hits", Value::U64(t.store_hits)),
                    ("occupancy_end_bytes", Value::F64(t.occupancy_end_bytes)),
                    ("occupancy_peak_bytes", Value::F64(t.occupancy_peak_bytes)),
                    (
                        "occupancy_slope_bytes_per_sec",
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
                obj(vec![
                    ("instance", Value::U64(u64::from(i.instance))),
                    ("turns_arrived", Value::U64(i.counters.turns_arrived)),
                    ("admitted", Value::U64(i.counters.admitted)),
                    ("retired", Value::U64(i.counters.retired)),
                ])
            })
            .collect();
        line(obj(vec![
            ("kind", Value::Str("window".to_string())),
            ("index", Value::U64(w.index as u64)),
            ("start_secs", Value::F64(w.start_secs)),
            ("end_secs", Value::F64(w.end_secs)),
            ("counters", w.counters.to_value()),
            ("queue_depth_end", Value::U64(w.queue_depth_end)),
            ("queue_depth_peak", Value::U64(w.queue_depth_peak)),
            (
                "hbm_reserved_end_bytes",
                Value::F64(w.hbm_reserved_end_bytes),
            ),
            ("arrival_rate_per_sec", Value::F64(p.arrival_rate_per_sec)),
            ("ttft_p99_secs", p.ttft_p99_secs.to_value()),
            ("slo_burn_rate", p.slo_burn_rate.to_value()),
            ("fault_rate_per_sec", Value::F64(p.fault_rate_per_sec)),
            ("ttft", w.ttft.to_value()),
            ("queue_wait", w.queue_wait.to_value()),
            ("fetch_stall", w.fetch_stall.to_value()),
            ("prefetch_latency", w.prefetch_latency.to_value()),
            ("tiers", Value::Array(tiers)),
            ("instances", Value::Array(instances)),
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
/// a scrape of the final state would return. Counters get the `_total`
/// suffix convention, latency summaries render as `{quantile="..."}`
/// series (empty histograms export no quantile samples, matching the
/// snapshot's `null` fields), and the per-tier / per-instance slices
/// become labeled series.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let plain = |v: f64| vec![(String::new(), v)];

    let c = &snap.counters;
    let counters: [(&str, &str, u64); 18] = [
        (
            "turns_arrived",
            "Turns that arrived and were queued.",
            c.turns_arrived,
        ),
        (
            "turns_retired",
            "Jobs that finished decoding and retired.",
            c.retired,
        ),
        (
            "truncations",
            "Context-overflow truncations.",
            c.truncations,
        ),
        (
            "hits_fast",
            "Consultations classified fast-tier hits.",
            c.hits_fast,
        ),
        (
            "hits_slow",
            "Consultations classified slow-tier hits.",
            c.hits_slow,
        ),
        ("misses", "Consultations classified misses.", c.misses),
        (
            "store_misses",
            "Store lookups that found nothing cached.",
            c.store_misses,
        ),
        ("saves", "Sessions saved or updated in the store.", c.saves),
        (
            "save_rejections",
            "Saves rejected for capacity.",
            c.save_rejections,
        ),
        (
            "prefetch_promotions",
            "Look-ahead prefetch promotions.",
            c.prefetch_promotions,
        ),
        (
            "demand_promotions",
            "Demand-fetch promotions.",
            c.demand_promotions,
        ),
        (
            "demotions",
            "One-hop demotions to slower tiers.",
            c.demotions,
        ),
        ("evictions", "Bottom-tier evictions.", c.evictions),
        (
            "write_stalls",
            "Admissions stalled on the HBM write buffer.",
            c.write_stalls,
        ),
        (
            "read_retries",
            "Injected read errors that were retried.",
            c.read_retries,
        ),
        (
            "write_retries",
            "Injected write errors that were retried.",
            c.write_retries,
        ),
        (
            "instance_crashes",
            "Scripted instance crashes.",
            c.instance_crashes,
        ),
        (
            "turns_rerouted",
            "Turns re-queued after a crash.",
            c.turns_rerouted,
        ),
    ];
    for (name, help, v) in counters {
        prom_metric(
            &mut out,
            &format!("cachedattention_{name}_total"),
            help,
            "counter",
            plain(v as f64),
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
                TraceEvent::Engine(EngineEvent::turn_arrived(1, 0, Time::ZERO)),
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
                TraceEvent::Engine(EngineEvent::admitted(
                    1,
                    100,
                    50,
                    false,
                    Time::from_millis(2),
                )),
            ),
            rec(
                3,
                TraceEvent::Engine(EngineEvent::prefill_done(1, 0.1, Time::from_millis(102))),
            ),
            rec(
                4,
                TraceEvent::Engine(EngineEvent::retired(1, 150, Time::from_millis(500))),
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
                TraceEvent::Engine(EngineEvent::turn_arrived(7, 0, Time::ZERO)),
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
                TraceEvent::Engine(EngineEvent::admitted(
                    7,
                    100,
                    50,
                    false,
                    Time::from_millis(8),
                )),
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
                TraceEvent::Engine(EngineEvent::turn_arrived(1, 0, Time::ZERO)),
            ),
            rec_on(
                1,
                1,
                TraceEvent::Engine(EngineEvent::turn_arrived(2, 0, Time::ZERO)),
            ),
            rec_on(
                2,
                0,
                TraceEvent::Engine(EngineEvent::admitted(1, 0, 50, false, Time::from_millis(2))),
            ),
            rec_on(
                3,
                1,
                TraceEvent::Engine(EngineEvent::admitted(2, 0, 50, false, Time::from_millis(3))),
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
        hub.on_event(EngineEvent::turn_arrived(1, 0, Time::from_millis(100)));
        hub.on_event(EngineEvent::admitted(
            1,
            0,
            50,
            false,
            Time::from_millis(200),
        ));
        hub.on_event(EngineEvent::prefill_done(1, 0.1, Time::from_millis(300)));
        hub.on_event(EngineEvent::prefill_done(2, 2.5, Time::from_secs_f64(1.5)));
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
        hub.on_event(EngineEvent::turn_arrived(1, 0, Time::ZERO));
        hub.on_event(EngineEvent::admitted(1, 0, 50, false, Time::from_millis(4)));
        hub.on_event(EngineEvent::prefill_done(1, 0.25, Time::from_millis(254)));
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
}
