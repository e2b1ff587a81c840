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

use bench_suite::profile::{golden_scenarios, pressured, MODES};
use cachedattention::engine::{run_trace, run_with_observer, EventLog, Mode, NullObserver};
use cachedattention::store::KeyingMode;
use cachedattention::telemetry::{run_with_telemetry, MetricsHub};
use cachedattention::workload::{Generator, ShareGptProfile, Trace};

fn golden_trace() -> Trace {
    Generator::new(ShareGptProfile::default(), 7).trace(20)
}

#[test]
fn every_observer_yields_the_same_report() {
    for (name, cfg) in golden_scenarios() {
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
        let mut cfg = pressured(mode);
        cfg.store.keying = keying;
        assert_eq!(cfg.warmup_turns, 0, "reconciliation needs zero warmup");
        let (report, hub) = run_with_observer(cfg, golden_trace(), MetricsHub::new());
        let snap = hub.snapshot();
        let c = &snap.counters;

        assert_eq!(c.hits_fast, report.hits_fast.get());
        assert_eq!(c.hits_slow, report.hits_slow.get());
        assert_eq!(c.misses, report.misses.get());
        assert_eq!(c.turns_arrived, report.turns_measured.get());
        assert_eq!(c.admitted, report.turns_measured.get());
        assert_eq!(c.retired, report.turns_measured.get());
        assert_eq!(c.truncations, report.truncations.get());
        assert_eq!(snap.ttft_count, report.ttft.count() as u64);
        // Store-side streams agree with the store's own ledger.
        assert_eq!(c.saves, report.store_stats.saves);
        assert_eq!(c.save_rejections, report.store_stats.save_rejected);
        assert_eq!(c.demotions, report.store_stats.demotions);
        if keying == KeyingMode::PerSession {
            // A consult or prefetch pass stages a session's chunks under
            // one `promoted` event, so only one-chunk sessions count
            // promotions one to one.
            assert_eq!(
                c.prefetch_promotions + c.demand_promotions,
                report.store_stats.promotions
            );
        }
        if mode == Mode::CachedAttention {
            assert!(c.demotions > 0, "{keying:?}: the run never demoted");
            let tier_hits: u64 = snap.tiers.iter().map(|t| t.store_hits).sum();
            assert!(tier_hits > 0);
            assert_eq!(tier_hits, c.hits_fast + c.hits_slow);
        }
    }
}
