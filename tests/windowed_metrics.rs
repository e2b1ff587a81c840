//! Window-vs-snapshot reconciliation: the streaming observability plane
//! must tell the same story as the end-of-run aggregates.
//!
//! The [`WindowedHub`] folds the identical commit-ordered event stream
//! the scalar `MetricsHub` consumes, just sliced into tumbling windows
//! of virtual time. Three contracts pin it, for every mode, medium,
//! window width — and for arbitrary fault plans on a cluster:
//!
//! 1. **Counter conservation** — summing the counters over all windows
//!    yields exactly the scalar snapshot's counters, every field. Nothing
//!    is double counted at a window boundary, nothing is dropped. Beyond
//!    the proptests, one content-addressed run and one SLO-controlled
//!    cluster run check the block, dedup, shed, ladder and scaling
//!    counters, which are zero elsewhere.
//! 2. **Sketch fidelity** — the merged per-window [`LogSketch`]es hold
//!    exactly as many samples as the snapshot's exact histograms, and
//!    every percentile the snapshot reports is reproduced within the
//!    sketch's documented relative error.
//! 3. **Window geometry** — indexes are dense from zero and window `i`
//!    spans exactly `[i*width, (i+1)*width)`: contiguous,
//!    non-overlapping, gap-free.

use cachedattention::engine::{
    AutoscalePolicy, ClusterConfig, EngineConfig, Medium, Mode, RouterKind, SloPolicy,
};
use cachedattention::metrics::LogSketch;
use cachedattention::models::ModelSpec;
use cachedattention::sim::{Dur, FaultPlan, RetryPolicy, Time};
use cachedattention::store::KeyingMode;
use cachedattention::telemetry::{
    run_cluster_with_windowed_telemetry, run_with_windowed_telemetry, MetricsSnapshot, Telemetry,
    WindowSeries,
};
use cachedattention::workload::{
    Generator, PrefixProfile, PrefixScenario, ShareGptProfile, Surge, Trace,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The pressured config the golden scenarios use: small enough tiers to
/// exercise eviction and the slow path.
fn pressured(mode: Mode, medium: Medium) -> EngineConfig {
    let mut cfg = EngineConfig::paper(mode, ModelSpec::llama2_13b());
    cfg.medium = medium;
    cfg.store.set_dram_bytes(8_000_000_000);
    cfg.store.set_disk_bytes(40_000_000_000);
    cfg
}

fn modes() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::CachedAttention),
        Just(Mode::Recompute),
        Just(Mode::CoupledOverflow),
    ]
}

fn mediums() -> impl Strategy<Value = Medium> {
    prop_oneof![
        Just(Medium::DramDisk),
        Just(Medium::HbmDram),
        Just(Medium::HbmOnly),
    ]
}

fn routers() -> impl Strategy<Value = RouterKind> {
    prop_oneof![
        Just(RouterKind::SessionAffinity),
        Just(RouterKind::LeastLoaded),
    ]
}

/// Arbitrary fault plans, the same families the chaos suite draws:
/// link windows, SSD error rates, pressure spikes, crash schedules.
fn fault_plans() -> impl Strategy<Value = FaultPlan> {
    let window = (0u64..40_000, 1u64..30_000, 1u64..8);
    let rates = (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.2);
    let pressure = proptest::collection::vec((1u64..60_000, 0.1f64..0.9), 0..2);
    let crashes = proptest::collection::vec((0u32..4, 1u64..40_000), 0..3);
    ((0u64..u64::MAX, window), (rates, pressure, crashes)).prop_map(
        |((seed, (w_start, w_len, factor)), ((rd, wr, corrupt), pressure, crashes))| {
            let mut plan = FaultPlan::new(seed)
                .with_link_slowdown(
                    "slow-rd",
                    Time::from_millis(w_start),
                    Time::from_millis(w_start + w_len),
                    factor as f64,
                )
                .with_ssd_errors(rd, wr, corrupt)
                .with_retry(RetryPolicy {
                    max_retries: 2,
                    base_backoff: Dur::from_millis(1),
                    multiplier: 2.0,
                });
            for (at, fraction) in pressure {
                plan = plan.with_dram_pressure(Time::from_millis(at), fraction);
            }
            for (instance, at) in crashes {
                plan = plan.with_crash(instance, Time::from_millis(at));
            }
            plan
        },
    )
}

fn gen_trace(seed: u64, sessions: usize) -> Trace {
    Generator::new(ShareGptProfile::default(), seed).trace(sessions)
}

/// Contract 3: dense indexes, exact `[i*width, (i+1)*width)` spans.
fn assert_contiguous(series: &WindowSeries) -> Result<(), TestCaseError> {
    for (i, w) in series.windows.iter().enumerate() {
        prop_assert_eq!(w.index, i);
        prop_assert!(
            (w.start_secs - i as f64 * series.width_secs).abs() < 1e-9,
            "window {i} starts at {} not {}",
            w.start_secs,
            i as f64 * series.width_secs
        );
        prop_assert!(
            (w.end_secs - (i + 1) as f64 * series.width_secs).abs() < 1e-9,
            "window {i} ends at {} not {}",
            w.end_secs,
            (i + 1) as f64 * series.width_secs
        );
        prop_assert!(
            w.queue_depth_peak >= w.queue_depth_end,
            "window {i}: peak {} below end {}",
            w.queue_depth_peak,
            w.queue_depth_end
        );
    }
    Ok(())
}

/// Contracts 1 and 2 against the scalar hub's snapshot.
fn assert_reconciles(tel: &Telemetry) -> Result<(), TestCaseError> {
    let series = tel.window_series().expect("windowed plane attached");
    let snap = tel.snapshot();
    assert_contiguous(&series)?;
    let totals = series.totals();

    // 1. Counter conservation: the windows' counters sum to the run's,
    // every field of them.
    prop_assert_eq!(totals.counters, snap.counters);

    // Per-tier hits are conserved tier by tier, in tier order.
    prop_assert_eq!(series.tier_names.len(), snap.tiers.len());
    for (i, t) in snap.tiers.iter().enumerate() {
        let windowed: u64 = series
            .windows
            .iter()
            .map(|w| w.tiers.get(i).map_or(0, |wt| wt.store_hits))
            .sum();
        prop_assert!(
            windowed == t.store_hits,
            "tier {i} (`{}`) hits diverged",
            t.name
        );
    }

    // 2. Sketch fidelity: same sample counts, percentiles within the
    // sketch's documented relative error of the exact histograms.
    prop_assert_eq!(totals.ttft.count(), snap.ttft_count);
    assert_percentiles_close(&totals, &snap)?;
    Ok(())
}

fn assert_percentiles_close(
    totals: &cachedattention::telemetry::WindowTotals,
    snap: &MetricsSnapshot,
) -> Result<(), TestCaseError> {
    let rel = LogSketch::relative_error();
    let close =
        |label: &str, sketch: Option<f64>, exact: Option<f64>| -> Result<(), TestCaseError> {
            match (sketch, exact) {
                (None, None) => Ok(()),
                (Some(s), Some(e)) => {
                    prop_assert!(
                        (s - e).abs() <= rel * e.abs() + 1e-9,
                        "{label}: sketch {s} vs exact {e} (allowed rel {rel})"
                    );
                    Ok(())
                }
                (s, e) => {
                    prop_assert!(
                        false,
                        "{label}: presence diverged, sketch {s:?} exact {e:?}"
                    );
                    Ok(())
                }
            }
        };
    close("ttft p50", totals.ttft.percentile(50.0), snap.ttft_p50_secs)?;
    close("ttft p95", totals.ttft.percentile(95.0), snap.ttft_p95_secs)?;
    close("ttft p99", totals.ttft.percentile(99.0), snap.ttft_p99_secs)?;
    close(
        "queue_wait p50",
        totals.queue_wait.percentile(50.0),
        snap.queue_wait_p50_secs,
    )?;
    close(
        "queue_wait p95",
        totals.queue_wait.percentile(95.0),
        snap.queue_wait_p95_secs,
    )?;
    close(
        "queue_wait p99",
        totals.queue_wait.percentile(99.0),
        snap.queue_wait_p99_secs,
    )?;
    close(
        "prefetch p99",
        totals.prefetch_latency.percentile(99.0),
        snap.prefetch_latency_p99_secs,
    )?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single-engine reconciliation across every mode x medium and an
    /// arbitrary window width: the windowed plane conserves counters
    /// and reproduces the snapshot's percentiles.
    #[test]
    fn windows_reconcile_with_snapshot_across_modes(
        mode in modes(),
        medium in mediums(),
        width_secs in 5.0f64..180.0,
        seed in 0u64..5_000,
    ) {
        let trace = gen_trace(seed, 14);
        let (_report, tel) =
            run_with_windowed_telemetry(pressured(mode, medium), trace, width_secs);
        assert_reconciles(&tel)?;
    }

    /// The same reconciliation holds on a faulted cluster: reroutes,
    /// retries, crashes and pressure spikes land in some window, and
    /// the sums still agree with the scalar hub exactly.
    #[test]
    fn windows_reconcile_with_snapshot_under_faults(
        plan in fault_plans(),
        router in routers(),
        n_instances in 1usize..3,
        width_secs in 5.0f64..120.0,
        seed in 0u64..5_000,
    ) {
        let trace = gen_trace(seed, 10);
        let cfg = ClusterConfig::new(
            pressured(Mode::CachedAttention, Medium::DramDisk),
            n_instances,
            router,
        )
        .with_faults(plan);
        let (_report, tel) = run_cluster_with_windowed_telemetry(cfg, trace, width_secs);
        assert_reconciles(&tel)?;
    }
}

/// Content-addressed keying on a shared-system-prompt workload: the
/// block and dedup counters are live, and still reconcile.
#[test]
fn windows_reconcile_under_block_keying() {
    let mut cfg = pressured(Mode::CachedAttention, Medium::DramDisk);
    cfg.store.keying = KeyingMode::ContentAddressed;
    let scenario = PrefixScenario::SharedSystemPrompt {
        pools: 2,
        prompt_tokens: 1024,
    };
    let trace = PrefixProfile::new(ShareGptProfile::default(), scenario).trace(11, 24);
    let (_report, tel) = run_with_windowed_telemetry(cfg, trace, 20.0);
    assert_reconciles(&tel).unwrap();
    let c = tel.snapshot().counters;
    assert!(c.block_dedup_hits > 0 && c.blocks_deduped > 0, "{c:?}");
    assert!(
        c.dedup_bytes_saved > 0 && c.dedup_bytes_written > 0,
        "{c:?}"
    );
}

/// An autoscaled SLO ladder under a flash crowd: the shed, ladder and
/// scaling counters are live, and still reconcile.
#[test]
fn windows_reconcile_under_slo_control() {
    let profile = ShareGptProfile::default()
        .with_arrival_rate(2.0)
        .with_surge(Surge {
            start_secs: 10.0,
            duration_secs: 120.0,
            factor: 4.0,
        });
    let trace = Generator::new(profile, 7).trace(120);
    let autoscale = AutoscalePolicy {
        up_queue_depth: 1.5,
        down_queue_depth: 0.5,
        cooldown: Dur::from_secs_f64(10.0),
        ..AutoscalePolicy::default()
    }
    .with_bounds(1, 4);
    let mut slo = SloPolicy::new(Dur::from_secs_f64(5.0)).with_autoscale(autoscale);
    // A small inbox makes the crowd overflow it, so turns are shed.
    slo.inbox_capacity = 6;
    let cfg = ClusterConfig::new(
        pressured(Mode::CachedAttention, Medium::DramDisk),
        2,
        RouterKind::SessionAffinity,
    )
    .with_slo(slo);
    let (_report, tel) = run_cluster_with_windowed_telemetry(cfg, trace, 30.0);
    assert_reconciles(&tel).unwrap();
    let c = tel.snapshot().counters;
    assert!(c.turns_shed > 0, "{c:?}");
    assert!(c.overload_transitions > 0, "{c:?}");
    assert!(c.scale_ups > 0 && c.scale_downs > 0, "{c:?}");
}
