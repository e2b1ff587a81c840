//! Tier-stack design-space sweep: capacity planning over depth-N stacks.
//!
//! Not a paper figure — the paper fixes a DRAM/SSD pair (§3.3) — but the
//! question its cost argument begs: once the store walks an arbitrary
//! [`TierStack`], which *mix* of media serves a workload cheapest without
//! giving back the TTFT win? This experiment sweeps candidate stacks —
//! the paper's 2-tier baseline, a pooled-memory middle tier, an
//! object-store cold floor, and a shifted capacity split — through the
//! same workload and fault schedule, then prices each run with the
//! [`PriceSheet`] rental rates so per-tier hit rates, TTFT p50/p95 and
//! dollars-per-session-hour land side by side in one table.
//!
//! The cost figure of merit is `$/sess·h`: the platform's hourly rental
//! (GPUs plus every tier's capacity at its $/GB·h rate) divided by
//! session throughput (sessions served per makespan hour) — the dollars
//! to carry one session end to end at the configuration's sustained
//! rate. A cheaper stack that tanks the hit rate pays the cost back in
//! makespan, so the column moves for both reasons.

use engine::{ClusterConfig, ClusterReport, Mode, RouterKind};
use metrics::aws::PriceSheet;
use metrics::table::Table;
use models::{ModelSpec, TierSpec, TierStack};
use sim::{FaultPlan, Time};
use telemetry::{run_cluster_with_telemetry, MetricsSnapshot};

use crate::{paper_trace, scaled_config, Scale};

/// One candidate stack in the sweep.
pub struct StackCase {
    /// Row label.
    pub label: &'static str,
    /// The stack, fastest tier first.
    pub tiers: TierStack,
}

/// The candidate stacks, scaled to the run's session count the same way
/// [`scaled_config`] scales the paper pair (with the same whole-session
/// floors, so tiny CI runs still stage full sessions):
///
/// - `paper 2-tier`  — DRAM(D) / SSD(S), byte-identical to the default.
/// - `+pooled`       — half the DRAM, a pooled-memory tier of D between
///   it and the same SSD: trades local DRAM for cheaper remote memory.
/// - `+object`       — four deep: DRAM(D/2) / pooled(D) / SSD(S/2) /
///   object(2S); the cold floor doubles total capacity at a third of the
///   SSD's $/GB.
/// - `lean-dram`     — DRAM(D/4) / pooled(D/2) / SSD(S): the aggressive
///   end of the split, probing how little hot memory the workload needs.
pub fn stack_cases(scale: Scale, model: &ModelSpec) -> Vec<StackCase> {
    let base = scaled_config(Mode::CachedAttention, model.clone(), scale).store;
    let max_session = model.kv_bytes(model.context_window as u64);
    let d = base.dram_bytes();
    let s = base.disk_bytes();
    let floor = 5 * max_session;
    vec![
        StackCase {
            label: "paper 2-tier",
            tiers: TierStack::two_tier(d, s),
        },
        StackCase {
            label: "+pooled",
            tiers: TierStack::new(vec![
                TierSpec::dram((d / 2).max(floor)),
                TierSpec::pooled_memory(d),
                TierSpec::ssd(s),
            ]),
        },
        StackCase {
            label: "+object",
            tiers: TierStack::new(vec![
                TierSpec::dram((d / 2).max(floor)),
                TierSpec::pooled_memory(d),
                TierSpec::ssd((s / 2).max(5 * floor)),
                TierSpec::object_store(2 * s),
            ]),
        },
        StackCase {
            label: "lean-dram",
            tiers: TierStack::new(vec![
                TierSpec::dram((d / 4).max(floor)),
                TierSpec::pooled_memory((d / 2).max(floor)),
                TierSpec::ssd(s),
            ]),
        },
    ]
}

/// A mild fault schedule that touches every boundary a four-deep stack
/// exposes: read slowdowns on the top boundary and the deeper
/// `slow-rd2`/`slow-rd3` links, a write stall on the top boundary, and
/// low SSD error rates. Boundaries a shallower stack lacks are simply
/// absent from its run (the engine skips unmatched link names), so the
/// same plan is fair across depths.
pub fn tier_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_link_slowdown(
            "slow-rd",
            Time::from_secs_f64(2.0),
            Time::from_secs_f64(20.0),
            2.0,
        )
        .with_link_slowdown(
            "slow-rd2",
            Time::from_secs_f64(4.0),
            Time::from_secs_f64(24.0),
            3.0,
        )
        .with_link_slowdown(
            "slow-rd3",
            Time::from_secs_f64(6.0),
            Time::from_secs_f64(28.0),
            4.0,
        )
        .with_link_stall(
            "slow-wr",
            Time::from_secs_f64(5.0),
            Time::from_secs_f64(9.0),
        )
        .with_ssd_errors(0.01, 0.01, 0.0)
}

/// One stack's measured row.
pub struct TierRow {
    /// Case label.
    pub label: &'static str,
    /// The stack that ran.
    pub stack: TierStack,
    /// Hourly rental of the stack's storage alone.
    pub storage_dollars_per_hour: f64,
    /// Platform $/h over session throughput — see the module docs.
    pub dollars_per_session_hour: f64,
    /// Median service TTFT, milliseconds.
    pub ttft_p50_ms: f64,
    /// p95 service TTFT, milliseconds.
    pub ttft_p95_ms: f64,
    /// Sessions the run completed.
    pub sessions_done: u64,
    /// `(tier name, store hits)` per tier, fastest first.
    pub tier_hits: Vec<(String, u64)>,
    /// Store consultations (hits + misses) the hub classified.
    pub lookups: u64,
}

/// The sweep results, one row per candidate stack.
pub struct TierResults {
    /// Rows in [`stack_cases`] order.
    pub rows: Vec<TierRow>,
}

fn row_from(
    case: StackCase,
    n_gpus: u32,
    report: &ClusterReport,
    snap: &MetricsSnapshot,
    prices: &PriceSheet,
) -> TierRow {
    let storage_rate = case.tiers.dollars_per_hour();
    let rate = prices.gpu_per_hour * f64::from(n_gpus) + storage_rate;
    let makespan_hours = report.aggregate.makespan_secs / 3600.0;
    let sessions = report.aggregate.sessions_done.get();
    let dollars_per_session_hour = if sessions == 0 {
        f64::INFINITY
    } else {
        rate * makespan_hours / sessions as f64
    };
    let tier_hits = snap
        .tiers
        .iter()
        .map(|t| (t.name.clone(), t.store_hits))
        .collect();
    TierRow {
        label: case.label,
        stack: case.tiers,
        storage_dollars_per_hour: storage_rate,
        dollars_per_session_hour,
        ttft_p50_ms: snap.ttft_p50_secs.unwrap_or(0.0) * 1e3,
        ttft_p95_ms: snap.ttft_p95_secs.unwrap_or(0.0) * 1e3,
        sessions_done: sessions,
        tier_hits,
        lookups: snap.counters.hits_fast + snap.counters.hits_slow + snap.counters.misses,
    }
}

/// Runs the sweep: the same workload (and, when `faulted`, the same
/// fault schedule) through every candidate stack on a single serving
/// instance, so every difference between rows is the stack.
pub fn compute(scale: Scale, faulted: bool) -> TierResults {
    let model = ModelSpec::llama2_13b();
    let prices = PriceSheet::default();
    let mut rows = Vec::new();
    for case in stack_cases(scale, &model) {
        let mut cfg = scaled_config(Mode::CachedAttention, model.clone(), scale);
        cfg.store.tiers = case.tiers.clone();
        let n_gpus = cfg.cluster.n_gpus;
        let trace = paper_trace(scale, 1.0);
        let mut cluster = ClusterConfig::new(cfg, 1, RouterKind::SessionAffinity);
        if faulted {
            cluster = cluster.with_faults(tier_plan(crate::DEFAULT_SEED));
        }
        let (report, tel) = run_cluster_with_telemetry(cluster, trace);
        rows.push(row_from(case, n_gpus, &report, &tel.snapshot(), &prices));
    }
    TierResults { rows }
}

/// Formats a capacity compactly: `128G`, `10T`.
fn cap(bytes: u64) -> String {
    if bytes >= 1_000_000_000_000 {
        format!("{:.0}T", bytes as f64 / 1e12)
    } else {
        format!("{:.0}G", bytes as f64 / 1e9)
    }
}

/// Renders a stack as `dram 13G+disk 10T`.
fn stack_cell(stack: &TierStack) -> String {
    stack
        .0
        .iter()
        .map(|t| format!("{} {}", t.name, cap(t.capacity)))
        .collect::<Vec<_>>()
        .join("+")
}

/// Renders per-tier hit rates as `dram 62.1% pooled 8.3% disk 1.0%`.
fn hits_cell(row: &TierRow) -> String {
    row.tier_hits
        .iter()
        .map(|(name, hits)| {
            let share = if row.lookups == 0 {
                0.0
            } else {
                *hits as f64 / row.lookups as f64
            };
            format!("{name} {:.1}%", share * 100.0)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders the sweep as a comparison table, cheapest mix visible at a
/// glance in the `$/sess·h` column.
pub fn render(r: &TierResults) -> String {
    let mut t = Table::new(
        "Tier-stack sweep: storage mix vs. latency and cost (1 instance)",
        &[
            "config",
            "stack",
            "store $/h",
            "per-tier hit rate",
            "TTFT p50 ms",
            "TTFT p95 ms",
            "$/sess·h",
        ],
    );
    for row in &r.rows {
        t.row(&[
            row.label.to_string(),
            stack_cell(&row.stack),
            format!("{:.4}", row.storage_dollars_per_hour),
            hits_cell(row),
            format!("{:.1}", row.ttft_p50_ms),
            format!("{:.1}", row.ttft_p95_ms),
            format!("{:.5}", row.dollars_per_session_hour),
        ]);
    }
    t.render()
}

/// Runs the faulted sweep at `scale` and renders the table.
pub fn run(scale: Scale) -> String {
    render(&compute(scale, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The candidate list covers the design space the module documents:
    /// the exact paper pair, a pooled middle tier, a four-deep stack
    /// with an object-store floor, and a lean split.
    #[test]
    fn cases_cover_the_design_space() {
        let scale = Scale {
            sessions: 30,
            warmup_turns: 0,
        };
        let model = ModelSpec::llama2_13b();
        let cases = stack_cases(scale, &model);
        assert_eq!(cases.len(), 4);
        let base = scaled_config(Mode::CachedAttention, model, scale).store;
        assert_eq!(
            cases[0].tiers, base.tiers,
            "baseline must be the paper pair"
        );
        assert_eq!(cases[1].tiers.len(), 3);
        let deep = &cases[2].tiers;
        assert_eq!(deep.len(), 4);
        assert_eq!(
            deep.0.iter().map(|t| t.name).collect::<Vec<_>>(),
            ["dram", "pooled", "disk", "object"]
        );
        // Deeper stacks buy more total capacity for less than the
        // paper pair's rate would charge for it.
        assert!(deep.total_capacity() > cases[0].tiers.total_capacity());
        let per_gb_hour = |s: &TierStack| s.dollars_per_hour() / (s.total_capacity() as f64 / 1e9);
        assert!(per_gb_hour(deep) < per_gb_hour(&cases[0].tiers));
    }

    /// The fault plan names every boundary of a four-deep stack.
    #[test]
    fn plan_reaches_deep_boundaries() {
        let plan = tier_plan(1);
        assert!(!plan.is_empty());
        assert_eq!(plan.link_faults.len(), 4);
        assert!(plan.crashes.is_empty(), "the sweep must not crash anyone");
    }

    /// A small faulted sweep serves every session on every stack, the
    /// four-deep row reports per-tier hits for all four tiers, and every
    /// row prices to a finite positive figure.
    #[test]
    fn sweep_serves_everything_on_every_stack() {
        let scale = Scale {
            sessions: 30,
            warmup_turns: 0,
        };
        let r = compute(scale, true);
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert_eq!(row.sessions_done, 30, "{}: sessions lost", row.label);
            assert!(row.lookups > 0, "{}: no store consultations", row.label);
            assert!(
                row.dollars_per_session_hour.is_finite() && row.dollars_per_session_hour > 0.0,
                "{}: bad cost figure",
                row.label
            );
        }
        assert!(r.rows[0].tier_hits.iter().map(|(_, h)| h).sum::<u64>() > 0);
        let deep = &r.rows[2];
        assert_eq!(deep.tier_hits.len(), 4, "four-deep row must report 4 tiers");
        assert_eq!(deep.tier_hits[1].0, "pooled");
        let table = render(&r);
        assert!(table.contains("$/sess·h"));
        assert!(table.contains("paper 2-tier"));
        assert!(table.contains("object"));
    }
}
