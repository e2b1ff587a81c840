//! The merged trace: engine and store events in one causal stream.
//!
//! The serving engine emits [`EngineEvent`]s for its own pipeline steps
//! and drains the store's [`StoreEvent`]s after every interaction, so an
//! observer sees both streams interleaved in commit order. A
//! [`TraceRecord`] stamps each event with that global order (`seq`) plus
//! its source and category, which is what the exporters serialize.
//! [`TRACE_SCHEMA`] is the generated schema of both event tables, and
//! [`check_record`] validates one exported line against it.

use engine::EngineEvent;
use serde::{Serialize, Value};
use sim::events::EventSchema;
use sim::Time;
use store::StoreEvent;

/// The merged trace's schema: each source's generated event table.
pub const TRACE_SCHEMA: [(&str, &[EventSchema]); 2] = [
    ("engine", EngineEvent::SCHEMA),
    ("store", StoreEvent::SCHEMA),
];

/// One event of the merged stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A serving-pipeline step.
    Engine(EngineEvent),
    /// A store placement decision (or an engine-emitted transfer-timing
    /// event; see the store crate's event docs).
    Store(StoreEvent),
}

impl TraceEvent {
    /// Which subsystem emitted the event.
    pub fn source(&self) -> &'static str {
        match self {
            TraceEvent::Engine(_) => "engine",
            TraceEvent::Store(_) => "store",
        }
    }

    /// Snake-case variant name (`turn_arrived`, `fetch_hit`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Engine(e) => e.kind(),
            TraceEvent::Store(e) => e.kind(),
        }
    }

    /// Coarse category: `session`/`sched`/`gpu` for engine events,
    /// `cache`/`tiering`/`gauge`/`stall` for store events.
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::Engine(e) => e.category(),
            TraceEvent::Store(e) => e.category(),
        }
    }

    /// The event's virtual timestamp.
    pub fn at(&self) -> Time {
        match self {
            TraceEvent::Engine(e) => e.at(),
            TraceEvent::Store(e) => e.at(),
        }
    }

    /// The session the event concerns (`None` for tier-wide gauges and
    /// instance-scoped faults).
    pub fn session(&self) -> Option<u64> {
        match self {
            TraceEvent::Engine(e) => e.session(),
            TraceEvent::Store(e) => e.session(),
        }
    }

    /// The serving instance the event itself names, if any.
    pub fn instance(&self) -> Option<u32> {
        match self {
            TraceEvent::Engine(e) => e.instance(),
            TraceEvent::Store(e) => e.instance(),
        }
    }
}

/// One line of the exported trace: a [`TraceEvent`] stamped with its
/// position in the merged commit order and, in cluster runs, the serving
/// instance whose pipeline step committed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Zero-based position in the merged stream. Timestamps alone cannot
    /// order the trace (an engine-emitted completion event may carry a
    /// future link time), so consumers sort and join on `seq`.
    pub seq: u64,
    /// Serving instance the event is attributed to (`None` when the
    /// record was collected through the instance-blind observer path).
    pub instance: Option<u32>,
    /// The event itself.
    pub ev: TraceEvent,
}

impl Serialize for TraceRecord {
    /// Serializes as the event's tagged object with `seq`, `source`,
    /// `category` (and `instance`, when attributed) prepended, so every
    /// JSONL line is self-describing. An event that names its own
    /// instance carries the attribution in its payload, so the key is
    /// written once.
    fn to_value(&self) -> Value {
        let inner = match &self.ev {
            TraceEvent::Engine(e) => e.to_value(),
            TraceEvent::Store(e) => e.to_value(),
        };
        let mut pairs = vec![
            ("seq".to_string(), Value::U64(self.seq)),
            (
                "source".to_string(),
                Value::Str(self.ev.source().to_string()),
            ),
            (
                "category".to_string(),
                Value::Str(self.ev.category().to_string()),
            ),
        ];
        if let (Some(inst), None) = (self.instance, self.ev.instance()) {
            pairs.push(("instance".to_string(), Value::U64(u64::from(inst))));
        }
        match inner {
            Value::Object(fields) => pairs.extend(fields),
            other => pairs.push(("event".to_string(), other)),
        }
        Value::Object(pairs)
    }
}

/// Checks one parsed JSONL trace line against [`TRACE_SCHEMA`]: no key
/// repeats; the envelope before `kind` is `seq`, `source`, `category`
/// and an optional `instance`; the kind is declared for its source with
/// the category the line states; and the payload after `kind` has
/// exactly the declared fields, each of its declared JSON type. Returns
/// the kind's schema.
pub fn check_record(pairs: &[(String, Value)]) -> Result<&'static EventSchema, String> {
    for (i, (key, _)) in pairs.iter().enumerate() {
        if pairs[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("key `{key}` appears twice"));
        }
    }
    let Some(kind_at) = pairs.iter().position(|(k, _)| k == "kind") else {
        return Err("missing `kind`".to_string());
    };
    let (envelope, rest) = pairs.split_at(kind_at);
    let get = |key: &str| envelope.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    for (key, value) in envelope {
        let ok = match key.as_str() {
            "seq" | "instance" => matches!(value, Value::U64(_)),
            "source" | "category" => matches!(value, Value::Str(_)),
            other => return Err(format!("undeclared envelope key `{other}`")),
        };
        if !ok {
            return Err(format!("envelope `{key}` is {}", value.kind()));
        }
    }
    let (Some(Value::Str(source)), Some(Value::Str(category)), Value::Str(kind)) =
        (get("source"), get("category"), &rest[0].1)
    else {
        return Err("envelope needs string `source`, `category` and `kind`".to_string());
    };
    let table = TRACE_SCHEMA
        .iter()
        .find(|(s, _)| s == source)
        .map(|(_, table)| *table)
        .ok_or_else(|| format!("unknown source `{source}`"))?;
    let schema = table
        .iter()
        .find(|s| s.kind == kind)
        .ok_or_else(|| format!("unknown {source} kind `{kind}`"))?;
    if schema.category != category {
        return Err(format!(
            "`{kind}` has category `{category}`, the schema declares `{}`",
            schema.category
        ));
    }
    schema.check(&rest[1..])?;
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::ConsultClass;
    use store::TierId;

    #[test]
    fn records_are_self_describing_jsonl_lines() {
        let rec = TraceRecord {
            seq: 3,
            instance: None,
            ev: TraceEvent::Engine(EngineEvent::consulted(
                7,
                ConsultClass::HitFast,
                500,
                Time::from_secs_f64(1.0),
            )),
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert_eq!(
            json,
            "{\"seq\":3,\"source\":\"engine\",\"category\":\"sched\",\
             \"kind\":\"consulted\",\"session\":7,\"class\":\"hit_fast\",\
             \"reused\":500,\"at\":1.0}"
        );
    }

    #[test]
    fn attributed_records_carry_their_instance() {
        let rec = TraceRecord {
            seq: 4,
            instance: Some(2),
            ev: TraceEvent::Engine(EngineEvent::consulted(
                7,
                ConsultClass::HitFast,
                500,
                Time::from_secs_f64(1.0),
            )),
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert_eq!(
            json,
            "{\"seq\":4,\"source\":\"engine\",\"category\":\"sched\",\
             \"instance\":2,\"kind\":\"consulted\",\"session\":7,\
             \"class\":\"hit_fast\",\"reused\":500,\"at\":1.0}"
        );
    }

    /// An event that names its instance carries the attribution once,
    /// in its payload; an event without one gets the envelope key.
    #[test]
    fn attributed_records_write_instance_once() {
        let rec = TraceRecord {
            seq: 5,
            instance: Some(1),
            ev: TraceEvent::Store(StoreEvent::PrefetchCompleted {
                session: 7,
                instance: Some(1),
                at: Time::from_secs_f64(2.0),
            }),
        };
        assert_eq!(
            serde_json::to_string(&rec).unwrap(),
            "{\"seq\":5,\"source\":\"store\",\"category\":\"tiering\",\
             \"kind\":\"prefetch_completed\",\"session\":7,\"instance\":1,\"at\":2.0}"
        );
        let crash = TraceRecord {
            seq: 6,
            instance: Some(1),
            ev: TraceEvent::Engine(EngineEvent::instance_crashed(1, Time::from_secs_f64(3.0))),
        };
        assert_eq!(
            serde_json::to_string(&crash).unwrap(),
            "{\"seq\":6,\"source\":\"engine\",\"category\":\"fault\",\
             \"kind\":\"instance_crashed\",\"instance\":1,\"at\":3.0}"
        );
        let unowned = TraceRecord {
            seq: 7,
            instance: Some(0),
            ev: TraceEvent::Store(StoreEvent::PrefetchCompleted {
                session: 7,
                instance: None,
                at: Time::from_secs_f64(2.0),
            }),
        };
        assert_eq!(
            serde_json::to_string(&unowned).unwrap(),
            "{\"seq\":7,\"source\":\"store\",\"category\":\"tiering\",\"instance\":0,\
             \"kind\":\"prefetch_completed\",\"session\":7,\"at\":2.0}"
        );
    }

    fn line(json: &str) -> Vec<(String, Value)> {
        match serde_json::from_str(json).unwrap() {
            Value::Object(pairs) => pairs,
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn check_record_accepts_exported_lines() {
        let rec = TraceRecord {
            seq: 4,
            instance: Some(2),
            ev: TraceEvent::Engine(EngineEvent::consulted(
                7,
                ConsultClass::HitFast,
                500,
                Time::from_secs_f64(1.0),
            )),
        };
        let schema = check_record(&line(&serde_json::to_string(&rec).unwrap())).unwrap();
        assert_eq!((schema.kind, schema.category), ("consulted", "sched"));
    }

    #[test]
    fn check_record_rejects_malformed_lines() {
        let cases = [
            (
                r#"{"seq":0,"source":"engine","category":"sched","kind":"bogus","at":1.0}"#,
                "unknown engine kind `bogus`",
            ),
            (
                r#"{"seq":0,"source":"disk","category":"sched","kind":"retired","at":1.0}"#,
                "unknown source `disk`",
            ),
            (
                r#"{"seq":0,"source":"engine","category":"gpu","kind":"retired","session":1,"new_hist":2,"at":1.0}"#,
                "`retired` has category `gpu`, the schema declares `session`",
            ),
            (
                r#"{"seq":0,"source":"engine","category":"session","kind":"retired","session":1,"at":1.0}"#,
                "missing field `new_hist`",
            ),
            (
                r#"{"seq":0,"source":"engine","category":"session","kind":"retired","session":"1","new_hist":2,"at":1.0}"#,
                "field `session` is string, declared integer",
            ),
            (
                r#"{"seq":0,"source":"engine","category":"session","kind":"retired","session":1,"new_hist":2,"bytes":3,"at":1.0}"#,
                "undeclared field `bytes`",
            ),
            (
                r#"{"seq":0,"source":"store","category":"tiering","instance":1,"kind":"prefetch_completed","session":1,"instance":1,"at":1.0}"#,
                "key `instance` appears twice",
            ),
            (
                r#"{"seq":0,"source":"engine","category":"session","extra":1,"kind":"retired","session":1,"new_hist":2,"at":1.0}"#,
                "undeclared envelope key `extra`",
            ),
        ];
        for (json, want) in cases {
            let err = check_record(&line(json)).unwrap_err();
            assert!(err.contains(want), "`{err}` lacks `{want}` for {json}");
        }
    }

    #[test]
    fn store_events_carry_their_category() {
        let rec = TraceRecord {
            seq: 0,
            instance: None,
            ev: TraceEvent::Store(StoreEvent::FetchHit {
                session: 2,
                tier: TierId(1),
                bytes: 10,
                at: Time::ZERO,
            }),
        };
        assert_eq!(rec.ev.source(), "store");
        assert_eq!(rec.ev.category(), "cache");
        assert_eq!(rec.ev.kind(), "fetch_hit");
        assert_eq!(rec.ev.session(), Some(2));
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.starts_with("{\"seq\":0,\"source\":\"store\""));
    }
}
