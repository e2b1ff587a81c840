//! The trace exporters' wire format, pinned.
//!
//! `tests/golden/chrome_trace.json` holds the three Chrome trace-event
//! flavours (`to_chrome_trace`, `_with_alerts`, `_two_clock`) of one
//! hand-made record list, plus the empty trace, one flavour per line.
//! The record list reaches every branch of the Chrome exporter: each
//! span kind, the prefetch → admission flow pair, the HBM and per-tier
//! occupancy counters (one tier named by a `tier_config` record, one
//! labeled by the `t{n}` fallback), session-lane and tid-0 instants, a
//! shed that closes its queued span, and two instances. The fixture
//! was written by the `serde::Value`-tree exporter the text writers
//! replaced, so a byte-equal match shows they kept the format. To
//! regenerate it after an intentional format change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test trace_export
//! ```
//!
//! A second test sends strings that need escaping through every
//! exporter and parses them back.

use std::collections::BTreeSet;
use std::path::PathBuf;

use cachedattention::engine::{ConsultClass, EngineEvent};
use cachedattention::sim::events::Value;
use cachedattention::sim::{ScopeProfile, SelfProfile, Time};
use cachedattention::store::{FetchKind, StoreEvent, TierId};
use cachedattention::telemetry::{
    check_record, to_chrome_trace, to_chrome_trace_two_clock, to_chrome_trace_with_alerts,
    to_jsonl, AlertEvent, AlertKind, TraceEvent, TraceRecord,
};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace.json")
}

fn t(secs: f64) -> Time {
    Time::from_secs_f64(secs)
}

fn engine(ev: EngineEvent) -> TraceEvent {
    TraceEvent::Engine(ev)
}

fn store(ev: StoreEvent) -> TraceEvent {
    TraceEvent::Store(ev)
}

/// Stamps events in order; `instance` is each record's attribution.
fn stamp(events: Vec<(Option<u32>, TraceEvent)>) -> Vec<TraceRecord> {
    events
        .into_iter()
        .enumerate()
        .map(|(i, (instance, ev))| TraceRecord {
            seq: i as u64,
            instance,
            ev,
        })
        .collect()
}

/// A two-instance trace that reaches every branch of the Chrome
/// exporter (see the module docs).
fn records() -> Vec<TraceRecord> {
    let (none, i0, i1) = (None, Some(0), Some(1));
    stamp(vec![
        // Unattributed headers: a named tier, a gauge on it and on an
        // unnamed tier, and two events the exporter draws nothing for.
        (
            none,
            store(StoreEvent::TierConfig {
                tier: TierId(1),
                name: "pooled",
                capacity: 1 << 30,
                at: t(0.0),
            }),
        ),
        (
            none,
            store(StoreEvent::Occupancy {
                tier: TierId(1),
                used_bytes: 4_096,
                at: t(0.001),
            }),
        ),
        (
            none,
            store(StoreEvent::Occupancy {
                tier: TierId(2),
                used_bytes: 8_192,
                at: t(0.001),
            }),
        ),
        (
            none,
            engine(EngineEvent::SloConfig {
                ttft_target_secs: 2.0,
                inbox_capacity: 32,
                at: t(0.0),
            }),
        ),
        (
            none,
            store(StoreEvent::BlockConfig {
                block_tokens: 16,
                at: t(0.0),
            }),
        ),
        // Session 1 on instance 0: prefetched while queued, stalled on
        // the write buffer, then admitted through the whole pipeline.
        (
            i0,
            engine(EngineEvent::TurnArrived {
                session: 1,
                turn: 0,
                at: t(0.0),
            }),
        ),
        (
            i0,
            engine(EngineEvent::Truncated {
                session: 1,
                old_hist: 4_096,
                new_hist: 2_048,
                at: t(0.0),
            }),
        ),
        (
            i0,
            engine(EngineEvent::Consulted {
                session: 1,
                class: ConsultClass::HitSlow,
                reused: 2_048,
                at: t(0.000_25),
            }),
        ),
        (
            i0,
            store(StoreEvent::Promoted {
                session: 1,
                bytes: 1_024,
                kind: FetchKind::Prefetch,
                from: TierId(1),
                to: TierId(0),
                queue_pos: Some(0),
                instance: Some(0),
                at: t(0.000_5),
            }),
        ),
        (
            i0,
            engine(EngineEvent::Deferred {
                session: 1,
                until: t(0.003),
                at: t(0.001),
            }),
        ),
        (
            i0,
            store(StoreEvent::PrefetchCompleted {
                session: 1,
                instance: Some(0),
                at: t(0.002),
            }),
        ),
        (
            i0,
            store(StoreEvent::WriteBufferStall {
                session: 1,
                until: t(0.004),
                at: t(0.002_5),
            }),
        ),
        (
            i0,
            engine(EngineEvent::Admitted {
                session: 1,
                reused: 2_048,
                computed: 300,
                chunked: false,
                at: t(0.004),
            }),
        ),
        (
            i0,
            engine(EngineEvent::HbmReserved {
                session: 1,
                reserved_bytes: 1_000_000,
                budget_bytes: 8_000_000,
                at: t(0.004),
            }),
        ),
        (
            i0,
            engine(EngineEvent::PrefillTimed {
                session: 1,
                load_secs: 0.0625,
                comp_secs: 0.125,
                stall_secs: 0.031_25,
                tier: Some(1),
                at: t(0.004),
            }),
        ),
        (
            i0,
            store(StoreEvent::FetchHit {
                session: 1,
                tier: TierId(1),
                bytes: 1_024,
                at: t(0.004),
            }),
        ),
        (
            i0,
            engine(EngineEvent::PrefillDone {
                session: 1,
                ttft_secs: 0.156_25,
                at: t(0.160_25),
            }),
        ),
        (
            i0,
            engine(EngineEvent::Retired {
                session: 1,
                new_hist: 2_500,
                at: t(0.5),
            }),
        ),
        (
            i0,
            store(StoreEvent::Saved {
                session: 1,
                bytes: 1_280,
                tier: TierId(0),
                at: t(0.5),
            }),
        ),
        // A demand promotion is a plain instant, not a staging span.
        (
            i0,
            store(StoreEvent::Promoted {
                session: 3,
                bytes: 512,
                kind: FetchKind::Demand,
                from: TierId(2),
                to: TierId(0),
                queue_pos: None,
                instance: None,
                at: t(0.012_3),
            }),
        ),
        // Instance 1: session 2 arrives, runs with no visible stall and
        // degrades; session 4 is shed while queued; then fleet events.
        (
            i1,
            engine(EngineEvent::TurnArrived {
                session: 2,
                turn: 0,
                at: t(0.01),
            }),
        ),
        (
            i1,
            engine(EngineEvent::PrefillTimed {
                session: 2,
                load_secs: 0.0,
                comp_secs: 0.25,
                stall_secs: 0.0,
                tier: None,
                at: t(0.02),
            }),
        ),
        (
            i1,
            engine(EngineEvent::DegradedRecompute {
                session: 2,
                reason: "read_failed",
                at: t(0.02),
            }),
        ),
        (
            i1,
            engine(EngineEvent::TurnArrived {
                session: 4,
                turn: 1,
                at: t(0.03),
            }),
        ),
        (
            i1,
            engine(EngineEvent::TurnShed {
                session: 4,
                turn: 1,
                reason: "inbox_full",
                at: t(0.035),
            }),
        ),
        (
            i1,
            store(StoreEvent::Occupancy {
                tier: TierId(0),
                used_bytes: 640,
                at: t(0.036),
            }),
        ),
        (
            i1,
            engine(EngineEvent::InstanceCrashed {
                instance: 1,
                at: t(0.04),
            }),
        ),
        (
            i1,
            engine(EngineEvent::OverloadLevelChanged {
                from: "normal",
                to: "recompute_only",
                at: t(0.05),
            }),
        ),
        (
            i1,
            engine(EngineEvent::ScaleUp {
                instance: 2,
                n_alive: 3,
                at: t(0.06),
            }),
        ),
        (
            i1,
            engine(EngineEvent::ScaleDown {
                instance: 2,
                n_alive: 2,
                at: t(0.07),
            }),
        ),
        // Session 2 migrates: re-routed and admitted on instance 0, so
        // its queued span stays on the process it started on.
        (
            i0,
            engine(EngineEvent::TurnRerouted {
                session: 2,
                from: 1,
                to: 0,
                at: t(0.04),
            }),
        ),
        (
            i0,
            engine(EngineEvent::Admitted {
                session: 2,
                reused: 0,
                computed: 900,
                chunked: true,
                at: t(0.08),
            }),
        ),
    ])
}

fn alerts() -> Vec<AlertEvent> {
    vec![
        AlertEvent {
            rule: "queue_depth_high".into(),
            signal: "queue_depth".into(),
            kind: AlertKind::Fired,
            window: 1,
            at_secs: 0.02,
            value: 12.0,
        },
        AlertEvent {
            rule: "queue_depth_high".into(),
            signal: "queue_depth".into(),
            kind: AlertKind::Resolved,
            window: 7,
            at_secs: 0.07,
            value: 0.333,
        },
    ]
}

fn scope(name: &str, calls: u64, total_ns: u64, self_ns: u64, max_ns: u64) -> ScopeProfile {
    ScopeProfile {
        name: name.to_string(),
        calls,
        total_ns,
        self_ns,
        mean_ns: total_ns / calls,
        max_ns,
    }
}

fn profile(scopes: Vec<ScopeProfile>) -> SelfProfile {
    SelfProfile {
        wall_secs: 0.5,
        events: 1_000,
        events_per_sec: 2_000.0,
        peak_rss_bytes: None,
        alloc_count: None,
        alloc_bytes: None,
        scopes,
    }
}

/// The four exports the fixture pins, as `(key, text)`.
fn exports() -> [(&'static str, String); 4] {
    let records = records();
    let profile = profile(vec![
        scope("store.reserve", 40, 123_457, 98_765, 9_001),
        scope("engine.dispatch", 7, 5_000, 1_234, 2_000),
    ]);
    [
        ("to_chrome_trace", to_chrome_trace(&records)),
        (
            "to_chrome_trace_with_alerts",
            to_chrome_trace_with_alerts(&records, &alerts()),
        ),
        (
            "to_chrome_trace_two_clock",
            to_chrome_trace_two_clock(&records, &profile),
        ),
        ("empty", to_chrome_trace(&[])),
    ]
}

/// The fixture's text: one `"key":<export>` member per line.
fn fixture_text() -> String {
    let members: Vec<String> = exports()
        .iter()
        .map(|(key, text)| format!("\"{key}\":{text}"))
        .collect();
    format!("{{{}}}\n", members.join(",\n"))
}

#[test]
fn chrome_exports_match_the_fixture_byte_for_byte() {
    let text = fixture_text();
    let path = fixture_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    for (i, (want, got)) in expected.lines().zip(text.lines()).enumerate() {
        if want != got {
            let at = want
                .bytes()
                .zip(got.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(want.len().min(got.len()));
            let from = at.saturating_sub(80);
            panic!(
                "fixture line {} diverges at byte {at}:\n want …{}\n  got …{}",
                i + 1,
                &want[from..(at + 80).min(want.len())],
                &got[from..(at + 80).min(got.len())],
            );
        }
    }
    assert_eq!(expected, text);
}

fn trace_events(chrome: &str) -> Vec<Value> {
    let v: Value = serde_json::from_str(chrome).expect("a Chrome trace parses");
    match v.get("traceEvents") {
        Some(Value::Array(events)) => events.clone(),
        other => panic!("no traceEvents array: {other:?}"),
    }
}

fn str_of<'a>(ev: &'a Value, key: &str) -> &'a str {
    match ev.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

/// The record list reaches what the module docs promise.
#[test]
fn the_fixture_reaches_every_branch() {
    let [(_, plain), (_, with_alerts), (_, two_clock), (_, empty)] = exports();
    let events = trace_events(&plain);
    let named: BTreeSet<(String, String)> = events
        .iter()
        .map(|ev| (str_of(ev, "ph").to_string(), str_of(ev, "name").to_string()))
        .collect();
    let want = [
        ("X", "queued"),
        ("X", "prefill"),
        ("X", "decode"),
        ("X", "prefetch"),
        ("X", "fetch_stall"),
        ("X", "write_buffer_stall"),
        ("s", "kv_transfer"),
        ("f", "kv_transfer"),
        ("C", "hbm_reserved_bytes"),
        ("C", "store_occupancy_bytes:pooled"),
        ("C", "store_occupancy_bytes:t2"),
        ("C", "store_occupancy_bytes:t0"),
        ("i", "truncated"),
        ("i", "consulted"),
        ("i", "deferred"),
        ("i", "fetch_hit"),
        ("i", "saved"),
        ("i", "promoted"),
        ("i", "degraded_recompute"),
        ("i", "turn_shed"),
        ("i", "turn_rerouted"),
        ("i", "instance_crashed"),
        ("i", "overload_level"),
        ("i", "scale_up"),
        ("i", "scale_down"),
        ("M", "process_name"),
        ("M", "thread_name"),
    ];
    for (ph, name) in want {
        assert!(
            named.contains(&(ph.to_string(), name.to_string())),
            "no `{ph}` event named `{name}`"
        );
    }
    let queued = events
        .iter()
        .filter(|ev| str_of(ev, "name") == "queued")
        .count();
    assert_eq!(queued, 3, "sessions 1 and 2 queue, and the shed closes 4's");
    let pids: BTreeSet<u64> = events
        .iter()
        .filter_map(|ev| match ev.get("pid") {
            Some(Value::U64(p)) => Some(*p),
            _ => None,
        })
        .collect();
    assert_eq!(pids, BTreeSet::from([1, 2]));
    assert!(with_alerts.contains("\"cat\":\"alert\""));
    assert!(two_clock.contains("\"cat\":\"selfprof\""));
    assert_eq!(trace_events(&empty).len(), 1);
}

/// A string with a quote, a backslash, a newline and a control
/// character: each needs its own escape.
const TIER: &str = "po\"ol\\ed\ntier\u{1}";
const RULE: &str = "queue \"depth\"\\high\n\u{7}";
const SIGNAL: &str = "sig\\nal\"\n\u{1f}";
const SCOPE: &str = "store.\"reserve\"\\\n\u{2}";

/// Tier names, alert rules and signals, and self-profile scope names
/// come from configuration, so the writers must escape them: each
/// round-trips through the JSONL export and every Chrome flavour that
/// carries it.
#[test]
fn strings_needing_escapes_round_trip_through_every_exporter() {
    let records = stamp(vec![
        (
            None,
            store(StoreEvent::TierConfig {
                tier: TierId(0),
                name: TIER,
                capacity: 64,
                at: t(0.0),
            }),
        ),
        (
            Some(1),
            store(StoreEvent::Occupancy {
                tier: TierId(0),
                used_bytes: 32,
                at: t(0.5),
            }),
        ),
    ]);

    let jsonl = to_jsonl(&records);
    let header = jsonl.lines().next().expect("a first line");
    let Value::Object(pairs) = serde_json::from_str(header).expect("the line parses") else {
        panic!("the line is not an object");
    };
    check_record(&pairs).expect("the line matches the schema");
    assert_eq!(str_of(&Value::Object(pairs), "name"), TIER);

    let alerts = [AlertEvent {
        rule: RULE.to_string(),
        signal: SIGNAL.to_string(),
        kind: AlertKind::Fired,
        window: 0,
        at_secs: 1.0,
        value: 2.5,
    }];
    let profile = profile(vec![scope(SCOPE, 1, 10, 10, 10)]);
    let track = format!("store_occupancy_bytes:{TIER}");
    for chrome in [
        to_chrome_trace(&records),
        to_chrome_trace_with_alerts(&records, &alerts),
        to_chrome_trace_two_clock(&records, &profile),
    ] {
        let events = trace_events(&chrome);
        assert!(
            events
                .iter()
                .any(|ev| str_of(ev, "ph") == "C" && str_of(ev, "name") == track),
            "no occupancy track named {track:?} in {chrome}"
        );
    }

    let events = trace_events(&to_chrome_trace_with_alerts(&records, &alerts));
    let alert = events
        .iter()
        .find(|ev| matches!(ev.get("cat"), Some(Value::Str(c)) if c == "alert"))
        .expect("the alert instant");
    assert_eq!(str_of(alert, "name"), RULE);
    assert_eq!(
        str_of(alert.get("args").expect("alert args"), "signal"),
        SIGNAL
    );

    let events = trace_events(&to_chrome_trace_two_clock(&records, &profile));
    let slice = events
        .iter()
        .find(|ev| matches!(ev.get("cat"), Some(Value::Str(c)) if c == "selfprof"))
        .expect("the self-profile slice");
    assert_eq!(str_of(slice, "name"), SCOPE);
    assert!(
        events.iter().any(|ev| str_of(ev, "name") == "thread_name"
            && ev.get("pid") == Some(&Value::U64(1000))
            && str_of(ev.get("args").expect("metadata args"), "name") == SCOPE),
        "no thread named {SCOPE:?} on the self-profile process"
    );
}
