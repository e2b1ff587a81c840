//! The span profiler's contract: for any workload the engine can
//! produce, folding the merged trace yields well-formed span trees, and
//! on the 13 golden scenarios the trees reconcile exactly with the
//! pinned `RunReport` latencies.
//!
//! Well-formed means: zero violations, every turn is a single root
//! (`turn ▸ queue_wait ▸ prefill ▸ decode`), children are contained in
//! their parent, and siblings never overlap. Reconciliation means: the
//! forest has one turn per measured first token, the prefill span *is*
//! the report's service TTFT (their sums agree to float-noise), queue
//! waits sum to the report's, and each prefill span splits exactly into
//! visible stall + pure compute (the `total == comp + max(stall, wait)`
//! identity of the execution model).

use bench_suite::profile::{golden_scenarios, mediums, pressured, MODES};
use cachedattention::engine::{EngineConfig, Mode};
use cachedattention::telemetry::{run_with_telemetry, Span, SpanForest};
use cachedattention::workload::{Generator, ShareGptProfile};
use proptest::prelude::*;

/// Recursively checks the tree invariants: non-negative extent,
/// children contained in the parent, siblings non-overlapping and
/// ordered by start.
fn assert_well_formed(span: &Span, ctx: &str) {
    const EPS: f64 = 1e-9;
    assert!(
        span.end_secs >= span.start_secs,
        "{ctx}: `{}` has negative extent [{}, {}]",
        span.name,
        span.start_secs,
        span.end_secs
    );
    let mut prev_end = span.start_secs;
    for child in &span.children {
        assert!(
            child.start_secs >= span.start_secs - EPS && child.end_secs <= span.end_secs + EPS,
            "{ctx}: `{}` [{}, {}] escapes parent `{}` [{}, {}]",
            child.name,
            child.start_secs,
            child.end_secs,
            span.name,
            span.start_secs,
            span.end_secs
        );
        assert!(
            child.start_secs >= prev_end - EPS,
            "{ctx}: `{}` starts at {} before its sibling ended at {}",
            child.name,
            child.start_secs,
            prev_end
        );
        prev_end = child.end_secs;
        assert_well_formed(child, ctx);
    }
}

/// Forest-wide invariants shared by the proptest and the golden suite.
/// `contiguous_prefill` is false for chunked-prefill configs, where
/// chunks interleave with decode iterations and the admission→first
/// token span legitimately exceeds pure compute + stall.
fn assert_forest_well_formed(forest: &SpanForest, ctx: &str, contiguous_prefill: bool) {
    assert!(
        forest.violations.is_empty(),
        "{ctx}: span violations: {:?}",
        forest.violations
    );
    for t in &forest.turns {
        let ctx = format!("{ctx}, session {} turn {}", t.session, t.turn);
        assert_eq!(t.root.name, "turn", "{ctx}: root is not `turn`");
        let names: Vec<&str> = t.root.children.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            ["queue_wait", "prefill", "decode"],
            "{ctx}: root stages are {names:?}"
        );
        assert_well_formed(&t.root, &ctx);
        // The prefill span splits into visible stall + pure compute:
        // the execution model's `total = comp + max(stall, wait)`
        // identity, with the wait share folded into `stall_secs` by the
        // `prefill_timed` emission. Timestamps are quantized to the
        // model's nanosecond tick independently of the f64 stage
        // durations, so the identity holds to microsecond slack, not
        // bit-exactly.
        let prefill = &t.root.children[1];
        if contiguous_prefill {
            assert!(
                (prefill.secs() - (t.comp_secs + t.stall_secs)).abs() < 1e-6,
                "{ctx}: prefill span {}s != comp {}s + stall {}s",
                prefill.secs(),
                t.comp_secs,
                t.stall_secs
            );
        } else {
            assert!(
                prefill.secs() >= t.comp_secs + t.stall_secs - 1e-6,
                "{ctx}: chunked prefill span {}s shorter than comp {}s + stall {}s",
                prefill.secs(),
                t.comp_secs,
                t.stall_secs
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary workloads under every mode: the builder yields a
    /// violation-free forest of single-rooted, contained,
    /// non-overlapping span trees whose prefill spans obey the timing
    /// identity.
    #[test]
    fn arbitrary_workloads_build_well_formed_span_trees(
        seed in 0u64..5_000,
        n_sessions in 4usize..16,
        mode_ix in 0usize..3,
        medium_ix in 0usize..3,
        dram_gb in 2u64..16,
    ) {
        let (tiers, medium) = mediums()[medium_ix].clone();
        let mut cfg = pressured(MODES[mode_ix]);
        cfg.store.tiers = tiers;
        cfg.store.set_dram_bytes(dram_gb * 1_000_000_000);
        let trace = Generator::new(ShareGptProfile::default(), seed).trace(n_sessions);
        let (report, tel) = run_with_telemetry(cfg, trace);
        let forest = SpanForest::from_records(tel.records());
        let ctx = format!(
            "seed {seed}, {} sessions, {:?}/{medium}",
            n_sessions, MODES[mode_ix]
        );
        assert_forest_well_formed(&forest, &ctx, true);
        prop_assert!(
            forest.turns.len() == report.ttft.count(),
            "{}: forest has {} turns, report measured {}",
            ctx,
            forest.turns.len(),
            report.ttft.count()
        );
    }
}

/// Every golden scenario reconciles: turn counts match the pinned
/// report, the prefill spans sum to the report's TTFT mass, queue
/// waits sum to the report's, and the §3.2.1 overlap observable points
/// the right way for each ablation.
#[test]
fn golden_scenarios_reconcile_spans_with_reports() {
    for (name, cfg) in golden_scenarios() {
        let trace = Generator::new(ShareGptProfile::default(), 7).trace(20);
        let contiguous = cfg.chunked_prefill_tokens.is_none();
        let (report, tel) = run_with_telemetry(cfg, trace);
        let forest = SpanForest::from_records(tel.records());
        assert_forest_well_formed(&forest, &name, contiguous);

        assert_eq!(
            forest.turns.len(),
            report.ttft.count(),
            "{name}: forest has {} turns, report measured {}",
            forest.turns.len(),
            report.ttft.count()
        );
        let span_ttft: f64 = forest.turns.iter().map(|t| t.ttft_service_secs()).sum();
        let report_ttft = report.ttft.mean() * report.ttft.count() as f64;
        assert!(
            (span_ttft - report_ttft).abs() < 1e-6,
            "{name}: span TTFT sum {span_ttft} != report TTFT sum {report_ttft}"
        );
        let span_wait: f64 = forest.turns.iter().map(|t| t.queue_wait_secs()).sum();
        assert!(
            (span_wait - report.queue_wait.sum()).abs() < 1e-6,
            "{name}: span queue-wait sum {span_wait} != report {}",
            report.queue_wait.sum()
        );
    }
}

/// The §3.2.1 observable behaves across the matrix: layer-wise preload
/// hides most of CA's KV transfers, Recompute has no transfers to
/// hide, and disabling preload makes the whole load visible.
#[test]
fn overlap_efficiency_matches_the_paper_story() {
    let run = |cfg: EngineConfig| {
        let trace = Generator::new(ShareGptProfile::default(), 7).trace(20);
        let (_report, tel) = run_with_telemetry(cfg, trace);
        SpanForest::from_records(tel.records()).overlap_efficiency()
    };
    let ca = run(pressured(Mode::CachedAttention));
    assert!(ca > 0.0, "CA DramDisk must hide some transfer, got {ca}");
    let re = run(pressured(Mode::Recompute));
    assert!(re.abs() < 1e-12, "RE has nothing to hide, got {re}");
    let mut no_pl = pressured(Mode::CachedAttention);
    no_pl.preload = false;
    let ablated = run(no_pl);
    // Without preload the stall equals the load up to nanosecond
    // quantization, so a residual ≪ 1% can remain.
    assert!(
        ablated.abs() < 1e-2,
        "preload=false leaves the load visible, got {ablated}"
    );
    assert!(ca > ablated, "preload must beat its ablation");
}
