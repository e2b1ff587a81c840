//! CI validator for telemetry output files.
//!
//! ```text
//! trace_check [--jsonl PATH] [--chrome PATH] [--metrics PATH]
//!             [--windows PATH] [--self-profile PATH]
//! ```
//!
//! Checks that a JSONL trace parses line-by-line, that every line
//! matches the schema the event tables generate (a declared kind, the
//! category the schema gives it, and exactly the declared fields with
//! their JSON types; see `telemetry::check_record`), that the trace
//! covers every event category the taxonomy defines (`session`, `sched`,
//! `gpu` from the engine; `cache`, `tiering`, `gauge` from the store —
//! `stall` is workload-dependent and not required), and that it forms
//! well-formed spans:
//! every session walks the turn lifecycle in order, every opened
//! stage reaches a matching terminal event for the same session (a
//! prefetch `promoted` has its `prefetch_completed`, an arrival
//! eventually retires), and no stage has negative duration.
//!
//! Block-keyed traces are gated on their `block_config` header: every
//! `block_*` event requires the header to have appeared first (so a
//! per-session trace, which never emits the header, must carry no block
//! events at all), a header plus any `saved` commit requires at least
//! one `block_saved`, every `block_evicted` carries `refs: 0` (a node
//! still referenced by a live chain is never evicted, only demoted),
//! every `block_dedup_hit` matches at least one block of payload, and a
//! `block_saved` writes bytes exactly when it allocates fresh chunks.
//!
//! Overload-controlled traces are gated the same way on their
//! `slo_config` header: every other event of the schema's `overload`
//! category requires the header to have appeared first, so an SLO-free
//! trace must be overload-event-free byte-for-byte. A `turn_shed` is a
//! terminal typed rejection: legal only in the `arrived` phase (the turn
//! closes with no pipeline spans), with a known `reason`. Scaling must
//! be reflected in instance
//! attribution: after a `scale_down` retires an instance, no
//! session-scoped engine event may be attributed to it until a
//! `scale_up` revives it.
//!
//! A Chrome trace must be valid JSON with a non-empty `traceEvents`
//! array. Every event must carry the keys its phase requires: a complete
//! slice (`X`) its `name`, `cat`, `ts`, `dur >= 0`, `pid` and `tid`; an
//! instant (`i`) its scope `s`, `ts`, `pid` and `tid`; a counter (`C`) an
//! `args` object of numeric series; a flow end (`s`/`f`) its `id`, `ts`,
//! `pid` and `tid`, plus `bp` on the finish; metadata (`M`) the name
//! `process_name` or `thread_name` and a string `args.name`. Any other
//! phase is rejected, and each flow id must have exactly one start and
//! one finish. A metrics snapshot must parse as a JSON object with a
//! `counters` object, `hit_rate` and `tiers`.
//!
//! `--self-profile` validates a host-time self-profile (the JSON
//! `exp_scale --out` writes, or any object carrying a `self_profile`
//! key): the run must have dispatched events at a positive rate, and
//! every scope row must be internally consistent — at least one call,
//! `self_ns <= total_ns` (a scope's exclusive time cannot exceed its
//! inclusive time), `mean_ns <= max_ns <= total_ns`, and the summed
//! exclusive times must fit inside the measured wall clock (scopes
//! partition host time; they can never add up to more than the run
//! took).
//!
//! `--windows` validates the windowed-JSONL export of `exp_watch`: a
//! `window_config` header, then one `window` line per tumbling window —
//! indexes dense from 0, each window exactly `[i*width, (i+1)*width)`
//! so the series is contiguous and non-overlapping — then the alert
//! timeline: per rule, `alert_fired` and `alert_resolved` must strictly
//! alternate starting with a fire (no double-fires, no orphan
//! resolves); an alert still open at end of file is legal. Exits
//! non-zero with a message on the first failure, so `ci.sh` can gate
//! on it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::process::ExitCode;

use bench_suite::Args;
use serde::Value;
use telemetry::check_record;

/// Categories that any non-trivial CachedAttention run must emit.
const REQUIRED_CATEGORIES: [&str; 6] = ["session", "sched", "gpu", "cache", "tiering", "gauge"];

/// The header every other `overload`-category event is gated on.
const SLO_HEADER: &str = "slo_config";

fn fail(msg: &str) -> ExitCode {
    eprintln!("[trace_check] FAIL: {msg}");
    ExitCode::FAILURE
}

/// Where a session currently is in its turn lifecycle, plus the last
/// milestone timestamp to compare stage durations against.
struct TurnState {
    phase: &'static str,
    milestone_at: f64,
}

/// Per-session span well-formedness over the JSONL stream: lifecycle
/// order, matched open/terminal pairs, non-negative stage durations.
#[derive(Default)]
struct SpanChecker {
    turns: HashMap<u64, TurnState>,
    open_prefetch: HashMap<u64, f64>,
}

impl SpanChecker {
    fn phase(&self, session: u64) -> &'static str {
        self.turns.get(&session).map_or("idle", |t| t.phase)
    }

    fn advance(&mut self, session: u64, phase: &'static str, at: f64) {
        self.turns.insert(
            session,
            TurnState {
                phase,
                milestone_at: at,
            },
        );
    }

    /// Applies one event; returns a violation message on malformed spans.
    fn on_event(
        &mut self,
        kind: &str,
        session: u64,
        at: f64,
        get: &dyn Fn(&str) -> Option<Value>,
    ) -> Result<(), String> {
        let phase = self.phase(session);
        let milestone = self.turns.get(&session).map_or(0.0, |t| t.milestone_at);
        match kind {
            "turn_arrived" => {
                if phase != "idle" {
                    return Err(format!("turn arrived for session {session} still {phase}"));
                }
                self.advance(session, "arrived", at);
            }
            "consulted" | "deferred" if phase != "arrived" => {
                return Err(format!("`{kind}` for session {session} in phase {phase}"));
            }
            "admitted" => {
                if phase != "arrived" {
                    return Err(format!("admission for session {session} in phase {phase}"));
                }
                if at < milestone {
                    return Err(format!(
                        "negative queue wait for session {session}: admitted {at} < arrived {milestone}"
                    ));
                }
                self.advance(session, "admitted", at);
            }
            "hbm_reserved" if phase != "admitted" => {
                return Err(format!(
                    "hbm_reserved for session {session} in phase {phase}"
                ));
            }
            "prefill_timed" => {
                if phase != "admitted" {
                    return Err(format!(
                        "prefill_timed for session {session} in phase {phase}"
                    ));
                }
                for field in ["load_secs", "comp_secs", "stall_secs"] {
                    match get(field) {
                        Some(Value::F64(x)) if x >= 0.0 => {}
                        other => {
                            return Err(format!(
                                "prefill_timed for session {session}: bad `{field}` {other:?}"
                            ))
                        }
                    }
                }
            }
            "prefill_done" => {
                if phase != "admitted" {
                    return Err(format!(
                        "prefill_done for session {session} in phase {phase}"
                    ));
                }
                if at < milestone {
                    return Err(format!(
                        "negative prefill for session {session}: done {at} < admitted {milestone}"
                    ));
                }
                self.advance(session, "prefilled", at);
            }
            "retired" => {
                if phase != "prefilled" {
                    return Err(format!("retirement for session {session} in phase {phase}"));
                }
                if at < milestone {
                    return Err(format!(
                        "negative decode for session {session}: retired {at} < first token {milestone}"
                    ));
                }
                self.turns.remove(&session);
            }
            "truncated" if phase == "idle" => {
                return Err(format!("truncation for idle session {session}"));
            }
            "turn_shed" => {
                // A typed rejection is terminal: the turn arrived, was
                // refused admission, and opens no pipeline spans.
                if phase != "arrived" {
                    return Err(format!("turn_shed for session {session} in phase {phase}"));
                }
                match get("reason") {
                    Some(Value::Str(r)) if r == "inbox_full" || r == "overload_shed" => {}
                    other => {
                        return Err(format!(
                            "turn_shed for session {session} with unknown `reason` {other:?}"
                        ))
                    }
                }
                self.turns.remove(&session);
            }
            "turn_rerouted" => {
                // The turn restarts its pipeline on the target instance:
                // back to the queue, clock reset to the reroute.
                if phase == "idle" {
                    return Err(format!("reroute for idle session {session}"));
                }
                self.advance(session, "arrived", at);
            }
            "promoted" => {
                if matches!(get("fetch"), Some(Value::Str(f)) if f == "prefetch") {
                    if self.open_prefetch.contains_key(&session) {
                        return Err(format!(
                            "prefetch for session {session} re-opened before completing"
                        ));
                    }
                    self.open_prefetch.insert(session, at);
                }
            }
            "prefetch_completed" => {
                let Some(start) = self.open_prefetch.remove(&session) else {
                    return Err(format!(
                        "prefetch_completed for session {session} without an open prefetch"
                    ));
                };
                if at < start {
                    return Err(format!(
                        "negative prefetch for session {session}: completed {at} < promoted {start}"
                    ));
                }
            }
            "write_buffer_stall" => match get("until") {
                Some(Value::F64(until)) if until >= at => {}
                other => {
                    return Err(format!(
                        "write_buffer_stall for session {session}: `until` {other:?} before at {at}"
                    ))
                }
            },
            _ => {}
        }
        Ok(())
    }

    /// End-of-stream: every opened span must have terminated.
    fn finish(&self) -> Result<(), String> {
        if let Some((sid, t)) = self.turns.iter().next() {
            return Err(format!("session {sid} left {} at end of trace", t.phase));
        }
        if let Some((sid, _)) = self.open_prefetch.iter().next() {
            return Err(format!("prefetch for session {sid} never completed"));
        }
        Ok(())
    }
}

/// Per-event block-keying checks: every `block_*` event needs the
/// `block_config` header first, evictions only reclaim dead nodes,
/// dedup hits match real payload, and saves write bytes exactly when
/// they allocate fresh chunks.
fn check_block_event(
    kind: &str,
    get: &dyn Fn(&str) -> Option<Value>,
    header_seen: bool,
) -> Result<(), String> {
    if !kind.starts_with("block_") || kind == "block_config" {
        return Ok(());
    }
    if !header_seen {
        return Err(format!(
            "`{kind}` before any `block_config` header — per-session traces must carry no block \
             events"
        ));
    }
    // `check_record` already held every field to its declared type.
    let uint = |key: &str| match get(key) {
        Some(Value::U64(n)) => n,
        other => unreachable!("schema-checked `{key}` is {other:?}"),
    };
    match kind {
        "block_evicted" if uint("refs") != 0 => Err(format!(
            "block_evicted with `refs` {} — referenced nodes are never evicted",
            uint("refs")
        )),
        "block_dedup_hit" if uint("matched_blocks") == 0 => {
            Err("block_dedup_hit matching no blocks".to_string())
        }
        "block_dedup_hit" if uint("bytes") < uint("matched_blocks") => Err(format!(
            "block_dedup_hit matching {} blocks but `bytes` {}",
            uint("matched_blocks"),
            uint("bytes")
        )),
        "block_saved" if uint("new_blocks") + uint("dedup_blocks") == 0 => {
            Err("block_saved committing an empty chain".to_string())
        }
        "block_saved" if (uint("new_blocks") == 0) != (uint("bytes_written") == 0) => Err(format!(
            "block_saved wrote {} bytes over {} fresh chunks",
            uint("bytes_written"),
            uint("new_blocks")
        )),
        _ => Ok(()),
    }
}

fn check_jsonl(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let summary = check_trace(path, &text)?;
    println!("[trace_check] {summary}");
    Ok(())
}

/// Checks a JSONL trace's text; `path` labels the messages. Returns the
/// one-line summary on success.
fn check_trace(path: &str, text: &str) -> Result<String, String> {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut lines = 0u64;
    let mut spans = SpanChecker::default();
    // Block-keyed gating: the `block_config` header (with its chunk
    // granularity) must precede every block event.
    let mut block_tokens: Option<u64> = None;
    let mut block_saves = 0u64;
    let mut saves = 0u64;
    // Overload gating: the `slo_config` header must precede every
    // overload event. Instances retired by `scale_down` may not be
    // attributed engine work until a `scale_up` revives them.
    let mut slo_seen = false;
    let mut sheds = 0u64;
    let mut scale_events = 0u64;
    let mut retired_instances: BTreeSet<u64> = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: not valid JSON: {e:?}", i + 1))?;
        let Value::Object(pairs) = v else {
            return Err(format!("{path}:{}: line is not an object", i + 1));
        };
        let schema = check_record(&pairs).map_err(|msg| format!("{path}:{}: {msg}", i + 1))?;
        let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        match get("seq") {
            Some(Value::U64(n)) if n == i as u64 => {}
            other => return Err(format!("{path}:{}: bad seq {other:?}", i + 1)),
        }
        let kind = schema.kind;
        seen.insert(schema.category);
        check_block_event(kind, &get, block_tokens.is_some())
            .map_err(|msg| format!("{path}:{}: {msg}", i + 1))?;
        match kind {
            "block_config" => match get("block_tokens") {
                Some(Value::U64(bt)) if bt > 0 => block_tokens = Some(bt),
                other => {
                    return Err(format!(
                        "{path}:{}: block_config with bad `block_tokens` {other:?}",
                        i + 1
                    ))
                }
            },
            "block_saved" => block_saves += 1,
            "saved" => saves += 1,
            SLO_HEADER => slo_seen = true,
            _ => {}
        }
        if schema.category == "overload" && kind != SLO_HEADER {
            if !slo_seen {
                return Err(format!(
                    "{path}:{}: `{kind}` before any `{SLO_HEADER}` header — SLO-free traces \
                     must carry no overload events",
                    i + 1
                ));
            }
            match kind {
                "turn_shed" => sheds += 1,
                "scale_down" => {
                    scale_events += 1;
                    if let Some(Value::U64(inst)) = get("instance") {
                        retired_instances.insert(inst);
                    }
                }
                "scale_up" => {
                    scale_events += 1;
                    if let Some(Value::U64(inst)) = get("instance") {
                        retired_instances.remove(&inst);
                    }
                }
                _ => {}
            }
        } else if matches!(get("source"), Some(Value::Str(s)) if s == "engine")
            && get("session").is_some()
        {
            // Session-scoped engine work on a retired instance means
            // the scale-down stranded (or mis-routed) a turn.
            if let Some(Value::U64(inst)) = get("instance") {
                if retired_instances.contains(&inst) {
                    return Err(format!(
                        "{path}:{}: `{kind}` attributed to instance {inst} after its \
                         scale_down",
                        i + 1
                    ));
                }
            }
        }
        if let Some(Value::U64(session)) = get("session") {
            let at = match get("at") {
                Some(Value::F64(x)) => x,
                _ => 0.0,
            };
            spans
                .on_event(kind, session, at, &get)
                .map_err(|msg| format!("{path}:{}: {msg}", i + 1))?;
        }
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{path}: empty trace"));
    }
    spans.finish().map_err(|msg| format!("{path}: {msg}"))?;
    if block_tokens.is_some() && saves > 0 && block_saves == 0 {
        return Err(format!(
            "{path}: block-keyed trace ({saves} saves) carries no `block_saved` events"
        ));
    }
    for cat in REQUIRED_CATEGORIES {
        if !seen.contains(cat) {
            return Err(format!("{path}: no `{cat}` events (saw: {seen:?})"));
        }
    }
    let keying = match block_tokens {
        Some(bt) => format!("block-keyed ({bt} tokens/block, {block_saves} block saves)"),
        None => "per-session".to_string(),
    };
    let overload = if slo_seen {
        format!(", SLO-controlled ({sheds} sheds, {scale_events} scale events)")
    } else {
        String::new()
    };
    Ok(format!(
        "{path}: {lines} events match the schema, spans well-formed, {keying}, categories \
         {seen:?}{overload}"
    ))
}

fn check_chrome(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let summary = check_chrome_text(path, &text)?;
    println!("[trace_check] {summary}");
    Ok(())
}

/// The keys a trace event of phase `ph` must carry, with their JSON
/// types (`number` admits integers too); `None` for a phase the
/// exporters never write.
fn required_keys(ph: &str) -> Option<&'static [(&'static str, &'static str)]> {
    Some(match ph {
        "X" => &[
            ("name", "string"),
            ("cat", "string"),
            ("ts", "number"),
            ("dur", "number"),
            ("pid", "integer"),
            ("tid", "integer"),
        ],
        "i" => &[
            ("s", "string"),
            ("ts", "number"),
            ("pid", "integer"),
            ("tid", "integer"),
        ],
        "C" => &[("args", "object")],
        "s" => &[
            ("id", "integer"),
            ("ts", "number"),
            ("pid", "integer"),
            ("tid", "integer"),
        ],
        "f" => &[
            ("id", "integer"),
            ("ts", "number"),
            ("pid", "integer"),
            ("tid", "integer"),
            ("bp", "string"),
        ],
        "M" => &[("name", "string"), ("args", "object")],
        _ => return None,
    })
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_))
}

/// Checks one trace event against its phase's required keys and values;
/// returns the phase.
fn check_chrome_event(ev: &Value) -> Result<&str, String> {
    let Some(Value::Str(ph)) = ev.get("ph") else {
        return Err("event has no string `ph`".to_string());
    };
    let required = required_keys(ph).ok_or_else(|| format!("unknown phase `{ph}`"))?;
    for &(key, ty) in required {
        match ev.get(key) {
            None => return Err(format!("`{ph}` event lacks `{key}`")),
            Some(v) if v.kind() == ty || (ty == "number" && is_number(v)) => {}
            Some(v) => return Err(format!("`{ph}` event's `{key}` is {}, not {ty}", v.kind())),
        }
    }
    let args = ev.get("args");
    match ph.as_str() {
        // A negative dur renders as garbage in Perfetto and means a span
        // was paired backwards.
        "X" => match ev.get("dur") {
            Some(Value::F64(d)) if *d < 0.0 => return Err(format!("X slice with dur {d}")),
            Some(Value::I64(d)) => return Err(format!("X slice with dur {d}")),
            _ => {}
        },
        "C" => match args {
            Some(Value::Object(series)) if !series.is_empty() => {
                if let Some((key, v)) = series.iter().find(|(_, v)| !is_number(v)) {
                    return Err(format!("counter series `{key}` is {}", v.kind()));
                }
            }
            _ => return Err("counter with no series in `args`".to_string()),
        },
        "M" => {
            if let Some(Value::Str(name)) = ev.get("name") {
                if name != "process_name" && name != "thread_name" {
                    return Err(format!(
                        "metadata `{name}` is neither process_name nor thread_name"
                    ));
                }
            }
            if !matches!(args.and_then(|a| a.get("name")), Some(Value::Str(_))) {
                return Err("metadata without a string `args.name`".to_string());
            }
        }
        _ => {}
    }
    Ok(ph)
}

/// Checks a Chrome trace's text; `path` labels the messages. Every event
/// carries the keys its phase requires, and every flow id has exactly
/// one start (`s`) and one finish (`f`). Returns the one-line summary.
fn check_chrome_text(path: &str, text: &str) -> Result<String, String> {
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("{path}: not valid JSON: {e:?}"))?;
    let Value::Object(pairs) = v else {
        return Err(format!("{path}: envelope is not an object"));
    };
    let events = match pairs.iter().find(|(k, _)| k == "traceEvents") {
        Some((_, Value::Array(xs))) if !xs.is_empty() => xs,
        Some((_, Value::Array(_))) => return Err(format!("{path}: traceEvents is empty")),
        _ => return Err(format!("{path}: missing traceEvents array")),
    };
    // Flow id → index of its `s` and of its `f` event.
    let mut flows: BTreeMap<u64, [Option<usize>; 2]> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let at = |msg: String| format!("{path}: traceEvents[{i}]: {msg}");
        let ph = check_chrome_event(ev).map_err(at)?;
        let end = match ph {
            "s" => 0,
            "f" => 1,
            _ => continue,
        };
        let Some(Value::U64(id)) = ev.get("id") else {
            return Err(at("flow id is negative".to_string()));
        };
        let slot = &mut flows.entry(*id).or_default()[end];
        if slot.is_some() {
            return Err(at(format!("flow {id} has a second `{ph}`")));
        }
        *slot = Some(i);
    }
    for (id, ends) in &flows {
        match ends {
            [Some(_), Some(_)] => {}
            [Some(i), None] => {
                return Err(format!(
                    "{path}: traceEvents[{i}]: flow {id} never finishes"
                ))
            }
            [None, Some(i)] => {
                return Err(format!("{path}: traceEvents[{i}]: flow {id} never started"))
            }
            [None, None] => unreachable!("a flow entry is made by one of its ends"),
        }
    }
    Ok(format!(
        "{path}: {} trace events carry their phases' keys, {} flows paired",
        events.len(),
        flows.len()
    ))
}

fn check_metrics(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("{path}: not valid JSON: {e:?}"))?;
    let Value::Object(pairs) = &v else {
        return Err(format!("{path}: snapshot is not an object"));
    };
    for key in ["counters", "hit_rate", "tiers"] {
        if !pairs.iter().any(|(k, _)| k == key) {
            return Err(format!("{path}: missing `{key}`"));
        }
    }
    if !matches!(
        v.get("counters").and_then(|c| c.get("turns_arrived")),
        Some(Value::U64(_))
    ) {
        return Err(format!("{path}: `counters` lacks `turns_arrived`"));
    }
    println!("[trace_check] {path}: snapshot ok ({} fields)", pairs.len());
    Ok(())
}

/// Validates a host-time self-profile: positive throughput and
/// internally consistent per-scope timing rows.
fn check_self_profile(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("{path}: not valid JSON: {e:?}"))?;
    // Accept either a bare SelfProfile or a wrapper (e.g. a ScaleBench)
    // carrying one under `self_profile`.
    let profile = v.get("self_profile").unwrap_or(&v);
    let num = |field: &str| -> Result<f64, String> {
        match profile.get(field) {
            Some(Value::F64(x)) => Ok(*x),
            Some(Value::U64(n)) => Ok(*n as f64),
            other => Err(format!("{path}: bad `{field}` {other:?}")),
        }
    };
    let wall_secs = num("wall_secs")?;
    let events = num("events")?;
    let rate = num("events_per_sec")?;
    if wall_secs <= 0.0 {
        return Err(format!("{path}: non-positive wall_secs {wall_secs}"));
    }
    if events < 1.0 {
        return Err(format!("{path}: profiled run dispatched no events"));
    }
    if rate <= 0.0 {
        return Err(format!("{path}: non-positive events_per_sec {rate}"));
    }
    match profile.get("peak_rss_bytes") {
        None | Some(Value::Null) | Some(Value::U64(1..)) => {}
        other => return Err(format!("{path}: bad `peak_rss_bytes` {other:?}")),
    }
    let Some(Value::Array(scopes)) = profile.get("scopes") else {
        return Err(format!("{path}: missing `scopes` array"));
    };
    let mut self_sum_ns = 0.0f64;
    for (i, s) in scopes.iter().enumerate() {
        let name = match s.get("name") {
            Some(Value::Str(n)) if !n.is_empty() => n,
            other => return Err(format!("{path}: scopes[{i}]: bad `name` {other:?}")),
        };
        let field = |f: &str| -> Result<f64, String> {
            match s.get(f) {
                Some(Value::U64(n)) => Ok(*n as f64),
                other => Err(format!("{path}: scope `{name}`: bad `{f}` {other:?}")),
            }
        };
        let (calls, total, selfn, mean, max) = (
            field("calls")?,
            field("total_ns")?,
            field("self_ns")?,
            field("mean_ns")?,
            field("max_ns")?,
        );
        if calls < 1.0 {
            return Err(format!("{path}: scope `{name}` recorded zero calls"));
        }
        if selfn > total {
            return Err(format!(
                "{path}: scope `{name}`: self {selfn} > total {total} (exclusive time cannot \
                 exceed inclusive)"
            ));
        }
        if mean > max || max > total {
            return Err(format!(
                "{path}: scope `{name}`: mean {mean} / max {max} / total {total} out of order"
            ));
        }
        self_sum_ns += selfn;
    }
    // Exclusive times partition the instrumented host time: their sum
    // must fit in the wall clock (small slack for clock granularity).
    if self_sum_ns > wall_secs * 1e9 * 1.01 + 1e6 {
        return Err(format!(
            "{path}: summed scope self time {:.3}s exceeds wall clock {wall_secs:.3}s",
            self_sum_ns / 1e9
        ));
    }
    println!(
        "[trace_check] {path}: self-profile ok ({} scopes, {events:.0} events at {rate:.0}/s, \
         {:.1}% of wall instrumented)",
        scopes.len(),
        self_sum_ns / (wall_secs * 1e9) * 100.0
    );
    Ok(())
}

/// Validates the windowed-JSONL export: header, contiguous windows,
/// and a well-paired alert lifecycle.
fn check_windows(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut lines = text.lines().enumerate();

    let parse = |i: usize, line: &str| -> Result<Value, String> {
        serde_json::from_str(line).map_err(|e| format!("{path}:{}: not valid JSON: {e:?}", i + 1))
    };
    let kind_of = |v: &Value| -> Option<String> {
        match v.get("kind") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    };

    // Header.
    let Some((i, line)) = lines.next() else {
        return Err(format!("{path}: empty windowed export"));
    };
    let header = parse(i, line)?;
    if kind_of(&header).as_deref() != Some("window_config") {
        return Err(format!(
            "{path}: first line is not a `window_config` header"
        ));
    }
    let width = match header.get("width_secs") {
        Some(Value::F64(w)) if *w > 0.0 => *w,
        other => return Err(format!("{path}: bad header `width_secs` {other:?}")),
    };
    let declared = match header.get("windows") {
        Some(Value::U64(n)) => *n,
        other => return Err(format!("{path}: bad header `windows` {other:?}")),
    };
    if !matches!(header.get("tiers"), Some(Value::Array(_))) {
        return Err(format!("{path}: header missing `tiers` array"));
    }

    // Window lines: dense indexes, each exactly [i*width, (i+1)*width)
    // — contiguity and non-overlap in one check. Alerts follow.
    const EPS: f64 = 1e-9;
    let mut windows = 0u64;
    // Per-rule alert state: true while an alert is open.
    let mut open_rules: HashMap<String, bool> = HashMap::new();
    let mut alert_events = 0u64;
    let mut last_alert_at = f64::NEG_INFINITY;
    let mut in_alerts = false;
    for (i, line) in lines {
        let v = parse(i, line)?;
        let kind = kind_of(&v).ok_or_else(|| format!("{path}:{}: missing `kind`", i + 1))?;
        match kind.as_str() {
            "window" => {
                if in_alerts {
                    return Err(format!("{path}:{}: window line after alerts began", i + 1));
                }
                match v.get("index") {
                    Some(Value::U64(n)) if *n == windows => {}
                    other => {
                        return Err(format!(
                            "{path}:{}: expected window index {windows}, got {other:?}",
                            i + 1
                        ))
                    }
                }
                let (start, end) = match (v.get("start_secs"), v.get("end_secs")) {
                    (Some(Value::F64(s)), Some(Value::F64(e))) => (s, e),
                    other => return Err(format!("{path}:{}: bad window bounds {other:?}", i + 1)),
                };
                let want_start = windows as f64 * width;
                if (start - want_start).abs() > EPS || (end - (want_start + width)).abs() > EPS {
                    return Err(format!(
                        "{path}:{}: window {windows} spans [{start}, {end}), expected \
                         [{want_start}, {}) — series not contiguous",
                        i + 1,
                        want_start + width
                    ));
                }
                for key in ["counters", "ttft", "queue_wait", "tiers"] {
                    if v.get(key).is_none() {
                        return Err(format!("{path}:{}: window missing `{key}`", i + 1));
                    }
                }
                windows += 1;
            }
            "alert_fired" | "alert_resolved" => {
                in_alerts = true;
                let rule = match v.get("rule") {
                    Some(Value::Str(r)) => r.clone(),
                    other => return Err(format!("{path}:{}: bad alert `rule` {other:?}", i + 1)),
                };
                match v.get("window") {
                    Some(Value::U64(w)) if *w < windows => {}
                    other => {
                        return Err(format!(
                        "{path}:{}: alert `window` {other:?} outside the {windows}-window series",
                        i + 1
                    ))
                    }
                }
                let at = match v.get("at") {
                    Some(Value::F64(a)) => *a,
                    other => return Err(format!("{path}:{}: bad alert `at` {other:?}", i + 1)),
                };
                if at < last_alert_at {
                    return Err(format!(
                        "{path}:{}: alert timeline not chronological ({at} after {last_alert_at})",
                        i + 1
                    ));
                }
                last_alert_at = at;
                let open = open_rules.entry(rule.clone()).or_insert(false);
                match (kind.as_str(), *open) {
                    ("alert_fired", false) => *open = true,
                    ("alert_fired", true) => {
                        return Err(format!(
                            "{path}:{}: rule `{rule}` fired while already active",
                            i + 1
                        ))
                    }
                    ("alert_resolved", true) => *open = false,
                    ("alert_resolved", false) => {
                        return Err(format!(
                            "{path}:{}: rule `{rule}` resolved without an open alert",
                            i + 1
                        ))
                    }
                    _ => unreachable!(),
                }
                alert_events += 1;
            }
            other => {
                return Err(format!("{path}:{}: unexpected line kind `{other}`", i + 1));
            }
        }
    }
    if windows == 0 {
        return Err(format!("{path}: no window lines"));
    }
    if windows != declared {
        return Err(format!(
            "{path}: header declares {declared} windows, found {windows}"
        ));
    }
    let still_open: Vec<&String> = open_rules
        .iter()
        .filter(|(_, open)| **open)
        .map(|(r, _)| r)
        .collect();
    println!(
        "[trace_check] {path}: {windows} contiguous windows x {width}s, {alert_events} alert \
         events well-paired ({} open at EOF)",
        still_open.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let mut checked = false;
    for (flag, check) in [
        ("--jsonl", check_jsonl as fn(&str) -> Result<(), String>),
        ("--chrome", check_chrome),
        ("--metrics", check_metrics),
        ("--windows", check_windows),
        ("--self-profile", check_self_profile),
    ] {
        if let Some(path) = args.value(flag) {
            checked = true;
            if let Err(msg) = check(path) {
                return fail(&msg);
            }
        }
    }
    if !checked {
        return fail(
            "nothing to check: pass --jsonl/--chrome/--metrics/--windows/--self-profile PATH",
        );
    }
    println!("[trace_check] ok");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench_suite::telemetry_cli::render_trace;
    use engine::{ConsultClass, EngineEvent};
    use sim::Time;
    use std::path::Path;
    use store::{StoreEvent, TierId};
    use telemetry::{to_chrome_trace, TraceEvent, TraceRecord};

    fn t(secs: f64) -> Time {
        Time::from_secs_f64(secs)
    }

    /// A small well-formed trace covering every required category: one
    /// session's turn from arrival to retirement, a save and a demotion.
    fn valid_trace() -> String {
        let events = [
            TraceEvent::Store(StoreEvent::TierConfig {
                tier: TierId(0),
                name: "dram",
                capacity: 1_000,
                at: t(0.0),
            }),
            TraceEvent::Engine(EngineEvent::TurnArrived {
                session: 1,
                turn: 0,
                at: t(0.0),
            }),
            TraceEvent::Engine(EngineEvent::Consulted {
                session: 1,
                class: ConsultClass::NoHistory,
                reused: 0,
                at: t(0.0),
            }),
            TraceEvent::Engine(EngineEvent::Admitted {
                session: 1,
                reused: 0,
                computed: 10,
                chunked: false,
                at: t(0.1),
            }),
            TraceEvent::Engine(EngineEvent::PrefillDone {
                session: 1,
                ttft_secs: 0.1,
                at: t(0.2),
            }),
            TraceEvent::Engine(EngineEvent::Retired {
                session: 1,
                new_hist: 20,
                at: t(0.5),
            }),
            TraceEvent::Store(StoreEvent::Saved {
                session: 1,
                bytes: 64,
                tier: TierId(0),
                at: t(0.5),
            }),
            TraceEvent::Store(StoreEvent::Demoted {
                session: 1,
                bytes: 64,
                from: TierId(0),
                to: TierId(1),
                instance: None,
                at: t(0.6),
            }),
        ];
        let records: Vec<TraceRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, ev)| TraceRecord {
                seq: i as u64,
                instance: None,
                ev,
            })
            .collect();
        render_trace(Path::new("t.jsonl"), &records, &[])
    }

    /// `valid_trace` with the first `from` on line `line` replaced.
    fn edited(line: usize, from: &str, to: &str) -> String {
        let trace = valid_trace();
        let mut lines: Vec<String> = trace.lines().map(str::to_string).collect();
        assert!(lines[line - 1].contains(from), "line {line} lacks {from}");
        lines[line - 1] = lines[line - 1].replacen(from, to, 1);
        lines.join("\n") + "\n"
    }

    fn rejection(text: &str) -> String {
        check_trace("t.jsonl", text).expect_err("the trace must be rejected")
    }

    #[test]
    fn a_well_formed_trace_passes() {
        let summary = check_trace("t.jsonl", &valid_trace()).unwrap();
        assert!(
            summary.starts_with("t.jsonl: 8 events match the schema"),
            "{summary}"
        );
    }

    #[test]
    fn schema_violations_are_rejected_naming_the_line() {
        let cases = [
            (
                edited(5, "\"prefill_done\"", "\"prefill_finished\""),
                "t.jsonl:5: unknown engine kind `prefill_finished`",
            ),
            (
                edited(6, "\"category\":\"session\"", "\"category\":\"gpu\""),
                "t.jsonl:6: `retired` has category `gpu`, the schema declares `session`",
            ),
            (
                edited(6, ",\"new_hist\":20", ""),
                "t.jsonl:6: `retired` is missing field `new_hist`",
            ),
            (
                edited(4, "\"chunked\":false", "\"chunked\":0"),
                "t.jsonl:4: `admitted` field `chunked` is integer, declared bool",
            ),
            (
                edited(7, "\"bytes\":64", "\"bytes\":64,\"pinned\":true"),
                "t.jsonl:7: `saved` carries undeclared field `pinned`",
            ),
            (
                edited(8, "\"bytes\":64", "\"bytes\":64,\"session\":1"),
                "t.jsonl:8: key `session` appears twice",
            ),
        ];
        for (text, want) in cases {
            let err = rejection(&text);
            assert_eq!(err, want);
        }
    }

    /// One event of each phase the exporters write, well formed; the
    /// flow pair shares id 1.
    const EVENTS: [&str; 6] = [
        r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"cachedattention"}}"#,
        r#"{"name":"queued","cat":"sched","ph":"X","ts":0.0,"dur":5.0,"pid":1,"tid":1}"#,
        r#"{"name":"consulted","cat":"sched","ph":"i","s":"t","ts":1.0,"pid":1,"tid":1}"#,
        r#"{"name":"hbm_reserved_bytes","ph":"C","ts":1.0,"pid":1,"args":{"reserved":10}}"#,
        r#"{"name":"kv_transfer","cat":"tiering","ph":"s","id":1,"ts":1.0,"pid":1,"tid":1}"#,
        r#"{"name":"kv_transfer","cat":"tiering","ph":"f","id":1,"ts":2.0,"pid":1,"tid":1,"bp":"e"}"#,
    ];

    fn chrome(events: &[&str]) -> String {
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }

    /// `EVENTS` with the first `from` in event `i` replaced.
    fn chrome_edited(i: usize, from: &str, to: &str) -> String {
        let mut events = EVENTS.map(str::to_string);
        assert!(events[i].contains(from), "event {i} lacks {from}");
        events[i] = events[i].replacen(from, to, 1);
        chrome(&events.each_ref().map(String::as_str))
    }

    #[test]
    fn well_formed_chrome_traces_pass() {
        let summary = check_chrome_text("t.json", &chrome(&EVENTS)).unwrap();
        assert_eq!(
            summary,
            "t.json: 6 trace events carry their phases' keys, 1 flows paired"
        );
        // The exporter's own output, prefetch flow included.
        let records: Vec<TraceRecord> = [
            TraceEvent::Engine(EngineEvent::TurnArrived {
                session: 7,
                turn: 0,
                at: t(0.0),
            }),
            TraceEvent::Store(StoreEvent::Promoted {
                session: 7,
                bytes: 100,
                kind: store::FetchKind::Prefetch,
                from: TierId(1),
                to: TierId(0),
                queue_pos: Some(0),
                instance: None,
                at: t(0.001),
            }),
            TraceEvent::Store(StoreEvent::PrefetchCompleted {
                session: 7,
                instance: None,
                at: t(0.005),
            }),
            TraceEvent::Engine(EngineEvent::Admitted {
                session: 7,
                reused: 100,
                computed: 50,
                chunked: false,
                at: t(0.008),
            }),
            TraceEvent::Engine(EngineEvent::HbmReserved {
                session: 7,
                reserved_bytes: 10,
                budget_bytes: 100,
                at: t(0.008),
            }),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, ev)| TraceRecord {
            seq: i as u64,
            instance: None,
            ev,
        })
        .collect();
        let summary = check_chrome_text("t.json", &to_chrome_trace(&records)).unwrap();
        assert!(summary.ends_with("1 flows paired"), "{summary}");
    }

    #[test]
    fn chrome_events_missing_their_phase_keys_are_rejected() {
        let cases = [
            (
                chrome_edited(1, ",\"dur\":5.0", ""),
                "traceEvents[1]: `X` event lacks `dur`",
            ),
            (
                chrome_edited(1, "\"dur\":5.0", "\"dur\":-5.0"),
                "traceEvents[1]: X slice with dur -5",
            ),
            (
                chrome_edited(1, "\"name\":\"queued\"", "\"name\":3"),
                "traceEvents[1]: `X` event's `name` is integer, not string",
            ),
            (
                chrome_edited(1, "\"ph\":\"X\"", "\"ph\":\"B\""),
                "traceEvents[1]: unknown phase `B`",
            ),
            (
                chrome_edited(2, "\"s\":\"t\",", ""),
                "traceEvents[2]: `i` event lacks `s`",
            ),
            (
                chrome_edited(3, ",\"args\":{\"reserved\":10}", ""),
                "traceEvents[3]: `C` event lacks `args`",
            ),
            (
                chrome_edited(3, "\"reserved\":10", "\"reserved\":\"10\""),
                "traceEvents[3]: counter series `reserved` is string",
            ),
            (
                chrome_edited(4, "\"id\":1,", ""),
                "traceEvents[4]: `s` event lacks `id`",
            ),
            (
                chrome_edited(5, ",\"bp\":\"e\"", ""),
                "traceEvents[5]: `f` event lacks `bp`",
            ),
            (
                chrome_edited(0, "\"process_name\"", "\"process_title\""),
                "traceEvents[0]: metadata `process_title` is neither process_name nor \
                 thread_name",
            ),
            (
                chrome_edited(0, "{\"name\":\"cachedattention\"}", "{\"name\":1}"),
                "traceEvents[0]: metadata without a string `args.name`",
            ),
        ];
        for (text, want) in cases {
            let err = check_chrome_text("t.json", &text).expect_err(want);
            assert_eq!(err, format!("t.json: {want}"));
        }
    }

    #[test]
    fn flows_need_exactly_one_start_and_one_finish() {
        let [m, x, i, c, s, f] = EVENTS;
        let cases = [
            (
                chrome(&[m, x, i, c, s]),
                "traceEvents[4]: flow 1 never finishes",
            ),
            (
                chrome(&[m, x, i, c, f]),
                "traceEvents[4]: flow 1 never started",
            ),
            (
                chrome(&[m, x, i, c, s, s, f]),
                "traceEvents[5]: flow 1 has a second `s`",
            ),
            (
                chrome(&[m, x, i, c, s, f, f]),
                "traceEvents[6]: flow 1 has a second `f`",
            ),
        ];
        for (text, want) in cases {
            let err = check_chrome_text("t.json", &text).expect_err(want);
            assert_eq!(err, format!("t.json: {want}"));
        }
    }

    #[test]
    fn semantic_checks_still_apply() {
        // Lifecycle order: a first token for a session that never arrived.
        let err = rejection(&edited(5, "\"session\":1", "\"session\":2"));
        assert_eq!(err, "t.jsonl:5: prefill_done for session 2 in phase idle");
        // Non-negative durations: admitted before it arrived.
        let err = rejection(&edited(2, "\"at\":0.0", "\"at\":0.15"));
        assert!(err.starts_with("t.jsonl:4: negative queue wait"), "{err}");
        // Overload events need the `slo_config` header.
        let shed = "{\"seq\":8,\"source\":\"engine\",\"category\":\"overload\",\
                    \"kind\":\"scale_up\",\"instance\":1,\"n_alive\":2,\"at\":1.0}\n";
        let err = rejection(&(valid_trace() + shed));
        assert!(
            err.starts_with("t.jsonl:9: `scale_up` before any `slo_config`"),
            "{err}"
        );
        // Block events need the `block_config` header, and reclaim only
        // unreferenced nodes.
        let evicted = |refs: u64| {
            format!(
                "{{\"seq\":9,\"source\":\"store\",\"category\":\"tiering\",\
                 \"kind\":\"block_evicted\",\"blocks\":1,\"bytes\":8,\"tier\":1,\
                 \"refs\":{refs},\"at\":1.0}}\n"
            )
        };
        let header = "{\"seq\":8,\"source\":\"store\",\"category\":\"gauge\",\
                      \"kind\":\"block_config\",\"block_tokens\":16,\"at\":0.0}\n";
        let err = rejection(&(valid_trace() + &evicted(0).replace("\"seq\":9", "\"seq\":8")));
        assert!(
            err.starts_with("t.jsonl:9: `block_evicted` before any `block_config`"),
            "{err}"
        );
        let err = rejection(&(valid_trace() + header + &evicted(2)));
        assert!(
            err.starts_with("t.jsonl:10: block_evicted with `refs`"),
            "{err}"
        );
    }
}
