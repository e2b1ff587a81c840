//! The event vocabulary's wire format, pinned.
//!
//! `tests/golden/event_vocabulary.jsonl` holds one trace line per event
//! kind of both streams (engine and store), with every `Option` field
//! encoded once as `Some` and once as `None`. The fixture was written by
//! the hand-written encoders the event tables replaced, so a byte-equal
//! match shows the generated encoding kept the format; the same lines
//! must pass the generated schema's check, and the README's taxonomy
//! table must list exactly the schema's kinds. To regenerate the fixture
//! after an intentional format change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test event_vocabulary
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;

use cachedattention::engine::{ConsultClass, EngineEvent};
use cachedattention::sim::events::{Absence, Value};
use cachedattention::sim::Time;
use cachedattention::store::{FetchKind, StoreEvent, TierId};
use cachedattention::telemetry::{check_record, to_jsonl, TraceEvent, TraceRecord, TRACE_SCHEMA};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/event_vocabulary.jsonl")
}

fn t(secs: f64) -> Time {
    Time::from_secs_f64(secs)
}

/// One event per kind, plus a second event for every kind with an
/// `Option` field so that both `Some` and `None` are encoded.
fn every_kind() -> Vec<TraceEvent> {
    let store = [
        StoreEvent::TierConfig {
            tier: TierId(1),
            name: "ssd",
            capacity: 4_000_000,
            at: t(0.0),
        },
        StoreEvent::Saved {
            session: 3,
            bytes: 1_024,
            tier: TierId(0),
            at: t(1.5),
        },
        StoreEvent::SaveRejected {
            session: 4,
            bytes: 2_048,
            at: t(1.75),
        },
        StoreEvent::FetchHit {
            session: 3,
            tier: TierId(1),
            bytes: 1_024,
            at: t(2.0),
        },
        StoreEvent::FetchMiss {
            session: 5,
            at: t(2.25),
        },
        StoreEvent::Promoted {
            session: 3,
            bytes: 1_024,
            kind: FetchKind::Prefetch,
            from: TierId(1),
            to: TierId(0),
            queue_pos: Some(2),
            instance: Some(1),
            at: t(2.5),
        },
        StoreEvent::Promoted {
            session: 6,
            bytes: 512,
            kind: FetchKind::Demand,
            from: TierId(2),
            to: TierId(0),
            queue_pos: None,
            instance: None,
            at: t(2.625),
        },
        StoreEvent::Demoted {
            session: 7,
            bytes: 640,
            from: TierId(0),
            to: TierId(1),
            instance: Some(0),
            at: t(3.0),
        },
        StoreEvent::Demoted {
            session: 8,
            bytes: 320,
            from: TierId(1),
            to: TierId(2),
            instance: None,
            at: t(3.125),
        },
        StoreEvent::Evicted {
            session: 9,
            bytes: 4_096,
            tier: TierId(1),
            window_pos: Some(4),
            instance: Some(1),
            at: t(3.25),
        },
        StoreEvent::Evicted {
            session: 10,
            bytes: 128,
            tier: TierId(2),
            window_pos: None,
            instance: None,
            at: t(3.375),
        },
        StoreEvent::Dropped {
            session: 11,
            bytes: 256,
            tier: TierId(0),
            at: t(3.5),
        },
        StoreEvent::Expired {
            session: 12,
            at: t(30.0),
        },
        StoreEvent::Occupancy {
            tier: TierId(0),
            used_bytes: 9_000,
            at: t(3.5),
        },
        StoreEvent::PrefetchCompleted {
            session: 3,
            instance: Some(1),
            at: t(2.75),
        },
        StoreEvent::PrefetchCompleted {
            session: 13,
            instance: None,
            at: t(2.875),
        },
        StoreEvent::WriteBufferStall {
            session: 14,
            until: t(4.5),
            at: t(4.0),
        },
        StoreEvent::ReadRetry {
            session: 15,
            attempt: 0,
            at: t(5.0),
        },
        StoreEvent::ReadFailed {
            session: 15,
            attempts: 3,
            at: t(5.25),
        },
        StoreEvent::WriteRetry {
            session: 16,
            attempt: 1,
            at: t(5.5),
        },
        StoreEvent::WriteFailed {
            session: 16,
            attempts: 3,
            at: t(5.75),
        },
        StoreEvent::CorruptionDetected {
            session: 17,
            bytes: 2_000,
            at: t(6.0),
        },
        StoreEvent::BlockConfig {
            block_tokens: 128,
            at: t(0.0),
        },
        StoreEvent::BlockSaved {
            session: 18,
            new_blocks: 2,
            dedup_blocks: 5,
            bytes_written: 200,
            bytes_saved: 500,
            at: t(6.5),
        },
        StoreEvent::BlockDedupHit {
            session: 18,
            matched_blocks: 5,
            bytes: 500,
            at: t(6.25),
        },
        StoreEvent::BlockDiverged {
            session: 19,
            at_block: 3,
            released_blocks: 2,
            at: t(6.75),
        },
        StoreEvent::BlockEvicted {
            blocks: 1,
            bytes: 100,
            tier: TierId(1),
            refs: 0,
            at: t(7.0),
        },
    ];
    let engine = [
        EngineEvent::turn_arrived(1, 0, t(0.125)),
        EngineEvent::truncated(1, 4_096, 2_048, t(0.125)),
        EngineEvent::consulted(1, ConsultClass::HitSlow, 2_048, t(0.25)),
        EngineEvent::deferred(1, t(0.5), t(0.375)),
        EngineEvent::admitted(1, 2_048, 300, true, t(0.5)),
        EngineEvent::prefill_timed(1, 0.0625, 0.125, 0.03125, Some(1), t(0.5)),
        EngineEvent::prefill_timed(2, 0.0, 0.25, 0.0, None, t(0.625)),
        EngineEvent::prefill_done(1, 0.15625, t(0.65625)),
        EngineEvent::retired(1, 2_500, t(1.0)),
        EngineEvent::hbm_reserved(1, 1_000_000, 8_000_000, t(0.5)),
        EngineEvent::instance_crashed(1, t(8.0)),
        EngineEvent::turn_rerouted(20, 1, 0, t(8.0)),
        EngineEvent::degraded_recompute(21, "read_failed", t(8.5)),
        EngineEvent::slo_config(2.0, 32, t(0.0)),
        EngineEvent::turn_shed(22, 1, "inbox_full", t(9.0)),
        EngineEvent::overload_level("normal", "recompute_only", t(9.5)),
        EngineEvent::scale_up(2, 3, t(10.0)),
        EngineEvent::scale_down(2, 2, t(12.0)),
    ];
    store
        .into_iter()
        .map(TraceEvent::Store)
        .chain(engine.into_iter().map(TraceEvent::Engine))
        .collect()
}

fn records() -> Vec<TraceRecord> {
    every_kind()
        .into_iter()
        .enumerate()
        .map(|(i, ev)| TraceRecord {
            seq: i as u64,
            instance: None,
            ev,
        })
        .collect()
}

#[test]
fn encoding_matches_the_fixture_byte_for_byte() {
    let jsonl = to_jsonl(&records());
    let path = fixture_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &jsonl).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    for (i, (want, got)) in expected.lines().zip(jsonl.lines()).enumerate() {
        assert_eq!(want, got, "line {} diverged from the fixture", i + 1);
    }
    assert_eq!(expected, jsonl);
}

/// Every (source, category, kind) triple the schema declares.
fn schema_triples() -> BTreeSet<(&'static str, &'static str, &'static str)> {
    TRACE_SCHEMA
        .iter()
        .flat_map(|(source, table)| table.iter().map(move |s| (*source, s.category, s.kind)))
        .collect()
}

fn fixture_lines() -> Vec<Vec<(String, Value)>> {
    let text = std::fs::read_to_string(fixture_path()).expect("read fixture");
    text.lines()
        .map(
            |line| match serde_json::from_str(line).expect("fixture line parses") {
                Value::Object(pairs) => pairs,
                other => panic!("fixture line is not an object: {other:?}"),
            },
        )
        .collect()
}

/// The fixture's lines pass the schema check, together they cover every
/// declared kind, and every field that may be absent appears both
/// present and absent (or `null`).
#[test]
fn the_fixture_matches_the_schema_and_covers_it() {
    let mut kinds = BTreeSet::new();
    let mut present = BTreeSet::new();
    let mut absent = BTreeSet::new();
    for (i, pairs) in fixture_lines().iter().enumerate() {
        let schema = check_record(pairs).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        let source = match pairs.iter().find(|(k, _)| k == "source") {
            Some((_, Value::Str(s))) => s.clone(),
            other => panic!("line {}: bad source {other:?}", i + 1),
        };
        kinds.insert((source, schema.category, schema.kind));
        for f in schema.fields.iter().filter(|f| f.absence != Absence::Never) {
            match pairs.iter().find(|(k, _)| k == f.key) {
                Some((_, v)) if *v != Value::Null => present.insert((schema.kind, f.key)),
                _ => absent.insert((schema.kind, f.key)),
            };
        }
    }
    let want: BTreeSet<_> = schema_triples()
        .into_iter()
        .map(|(s, c, k)| (s.to_string(), c, k))
        .collect();
    assert_eq!(kinds, want);
    let optional: BTreeSet<_> = TRACE_SCHEMA
        .iter()
        .flat_map(|(_, table)| table.iter())
        .flat_map(|s| {
            s.fields
                .iter()
                .filter(|f| f.absence != Absence::Never)
                .map(move |f| (s.kind, f.key))
        })
        .collect();
    assert_eq!(present, optional, "optional fields never encoded as Some");
    assert_eq!(absent, optional, "optional fields never encoded as None");
}

/// The README's event taxonomy table lists each (source, category, kind)
/// triple of the schema exactly once, and nothing else.
#[test]
fn readme_taxonomy_lists_exactly_the_schema() {
    let readme = include_str!("../README.md");
    let mut listed = Vec::new();
    for line in readme.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 5 || !matches!(cells[1], "engine" | "store") {
            continue;
        }
        let category = cells[2].trim_matches('`');
        for kind in cells[3].split(',') {
            listed.push((cells[1], category, kind.trim().trim_matches('`')));
        }
    }
    let unique: BTreeSet<_> = listed.iter().copied().collect();
    assert_eq!(unique.len(), listed.len(), "a README row repeats a kind");
    assert_eq!(unique, schema_triples());
}

#[test]
fn the_fixture_covers_every_kind() {
    let kinds: std::collections::BTreeSet<(&str, &str)> = every_kind()
        .iter()
        .map(|ev| (ev.source(), ev.kind()))
        .collect();
    assert_eq!(
        kinds.iter().filter(|(s, _)| *s == "engine").count(),
        17,
        "engine kinds: {kinds:?}"
    );
    assert_eq!(
        kinds.iter().filter(|(s, _)| *s == "store").count(),
        23,
        "store kinds: {kinds:?}"
    );
}
