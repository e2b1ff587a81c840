//! Observation is free: every golden scenario must produce a
//! byte-identical `RunReport` under every observer in the telemetry
//! stack, and the `MetricsHub`'s aggregates must reconcile with the
//! report's own counters.
//!
//! This is the telemetry counterpart of `golden_report.rs`: that suite
//! pins the unobserved behavior against committed fixtures; this one
//! pins that attaching `NullObserver`, `EventLog`, `MetricsHub`, or the
//! full `Telemetry` stack (trace recording + hub + store-event tracing)
//! changes nothing.

use cachedattention::engine::{
    run_trace, run_with_observer, EngineConfig, EventLog, Medium, Mode, NullObserver,
};
use cachedattention::models::ModelSpec;
use cachedattention::store::KeyingMode;
use cachedattention::telemetry::{run_with_telemetry, MetricsHub};
use cachedattention::workload::{Generator, ShareGptProfile, Trace};

const MODES: [Mode; 3] = [
    Mode::CachedAttention,
    Mode::Recompute,
    Mode::CoupledOverflow,
];

const MEDIUMS: [Medium; 3] = [Medium::DramDisk, Medium::HbmDram, Medium::HbmOnly];

/// The same pressured configuration the golden fixtures use.
fn pressured(mode: Mode, medium: Medium) -> EngineConfig {
    let mut cfg = EngineConfig::paper(mode, ModelSpec::llama2_13b());
    cfg.medium = medium;
    cfg.store.set_dram_bytes(8_000_000_000);
    cfg.store.set_disk_bytes(40_000_000_000);
    cfg
}

/// All 13 golden scenarios from `golden_report.rs`.
fn scenarios() -> Vec<(String, EngineConfig)> {
    let mut out = Vec::new();
    for mode in MODES {
        for medium in MEDIUMS {
            let name = format!("{}_{:?}", mode.label().to_lowercase(), medium);
            out.push((name, pressured(mode, medium)));
        }
    }
    let mut chunked = pressured(Mode::CachedAttention, Medium::DramDisk);
    chunked.chunked_prefill_tokens = Some(256);
    out.push(("ca_chunked".into(), chunked));
    let mut int4 = pressured(Mode::CachedAttention, Medium::DramDisk);
    int4.kv_compression = 0.25;
    out.push(("ca_int4".into(), int4));
    let mut no_pl = pressured(Mode::CachedAttention, Medium::DramDisk);
    no_pl.preload = false;
    out.push(("ca_no_preload".into(), no_pl));
    let mut no_as = pressured(Mode::CachedAttention, Medium::DramDisk);
    no_as.async_save = false;
    out.push(("ca_no_async_save".into(), no_as));
    out
}

fn golden_trace() -> Trace {
    Generator::new(ShareGptProfile::default(), 7).trace(20)
}

#[test]
fn every_observer_yields_the_same_report() {
    for (name, cfg) in scenarios() {
        let trace = golden_trace();
        let baseline = run_trace(cfg.clone(), trace.clone());
        let expect = serde_json::to_string_pretty(&baseline).unwrap();

        let (nulled, _) = run_with_observer(cfg.clone(), trace.clone(), NullObserver);
        let (logged, log) = run_with_observer(cfg.clone(), trace.clone(), EventLog::new());
        let (hubbed, _hub) = run_with_observer(cfg.clone(), trace.clone(), MetricsHub::new());
        let (traced, tel) = run_with_telemetry(cfg, trace);

        for (observer, report) in [
            ("NullObserver", &nulled),
            ("EventLog", &logged),
            ("MetricsHub", &hubbed),
            ("Telemetry", &traced),
        ] {
            assert_eq!(
                expect,
                serde_json::to_string_pretty(report).unwrap(),
                "scenario `{name}`: report diverged under {observer}"
            );
        }
        assert!(
            !log.events().is_empty(),
            "scenario `{name}`: empty event log"
        );
        assert!(
            !tel.records().is_empty(),
            "scenario `{name}`: empty telemetry trace"
        );
    }
}

/// The hub sees every turn (the golden configs run with zero warmup), so
/// its per-tier hit counters must reconcile exactly with the report's —
/// under both keyings: a content-addressed run demotes chunk by chunk,
/// and every node demotion reports one `demoted` event.
#[test]
fn hub_counters_reconcile_with_the_report() {
    let runs = MODES
        .iter()
        .map(|&mode| (mode, KeyingMode::PerSession))
        .chain([(Mode::CachedAttention, KeyingMode::ContentAddressed)]);
    for (mode, keying) in runs {
        let mut cfg = pressured(mode, Medium::DramDisk);
        cfg.store.keying = keying;
        assert_eq!(cfg.warmup_turns, 0, "reconciliation needs zero warmup");
        let (report, hub) = run_with_observer(cfg, golden_trace(), MetricsHub::new());
        let snap = hub.snapshot();

        assert_eq!(snap.hits_fast, report.hits_fast.get());
        assert_eq!(snap.hits_slow, report.hits_slow.get());
        assert_eq!(snap.misses, report.misses.get());
        assert_eq!(snap.turns_arrived, report.turns_measured.get());
        assert_eq!(snap.retired, report.turns_measured.get());
        assert_eq!(snap.truncations, report.truncations.get());
        assert_eq!(snap.ttft_count, report.ttft.count() as u64);
        // Store-side streams agree with the store's own ledger.
        assert_eq!(snap.saves, report.store_stats.saves);
        assert_eq!(snap.save_rejections, report.store_stats.save_rejected);
        assert_eq!(snap.demotions, report.store_stats.demotions);
        if keying == KeyingMode::PerSession {
            // A consult or prefetch pass stages a session's chunks under
            // one `promoted` event, so only one-chunk sessions count
            // promotions one to one.
            assert_eq!(
                snap.prefetch_promotions + snap.demand_promotions,
                report.store_stats.promotions
            );
        }
        if mode == Mode::CachedAttention {
            assert!(snap.demotions > 0, "{keying:?}: the run never demoted");
            assert!(snap.store_hits_dram + snap.store_hits_disk > 0);
            assert_eq!(
                snap.store_hits_dram + snap.store_hits_disk,
                snap.hits_fast + snap.hits_slow
            );
        }
    }
}
