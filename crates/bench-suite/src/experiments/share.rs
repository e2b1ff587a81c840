//! Cross-session prefix sharing: per-session vs. block keying.
//!
//! Not a paper figure — the paper keys the store by session (§3.3), so
//! two conversations opening with the same system prompt store the same
//! KV twice and neither can reuse the other's prefill. This experiment
//! asks what content-addressed block keying buys on workloads where the
//! sharing is real: fleet system prompts, agentic fan-out, and Zipf-hot
//! RAG documents ([`PrefixScenario`]). Each scenario runs twice at the
//! *same tier capacity* — once with the paper's per-session keying, once
//! with [`KeyingMode::ContentAddressed`] — so every difference between a
//! scenario's two rows is the keying.
//!
//! Columns: the fast-tier hit rate (consults answered from DRAM —
//! block keying turns first-turn prefills of a shared prefix into fast
//! hits, which per-session keying cannot), TTFT p50/p95, the save-side
//! dedup ratio (fraction of chunks that resolved to an already-stored
//! node), physical bytes the dedup avoided writing, and the effective
//! capacity factor (logical bytes stored per physical byte written).
//! Per-session rows show zeros in the dedup columns by construction —
//! the mode has no chain ledger to share.

use engine::{ClusterConfig, ClusterReport, Mode, RouterKind};
use metrics::table::Table;
use models::ModelSpec;
use store::KeyingMode;
use telemetry::{run_cluster_with_telemetry, MetricsSnapshot, Telemetry};
use workload::{PrefixProfile, PrefixScenario, ShareGptProfile, Trace};

use crate::{scaled_config, Scale, DEFAULT_SEED};

/// One sharing shape in the sweep.
pub struct ShareCase {
    /// Row label (the scenario's own label).
    pub label: &'static str,
    /// The sharing shape stamped on the workload.
    pub scenario: PrefixScenario,
}

/// The three sharing shapes the experiment sweeps: a fleet of four
/// 1K-token system prompts, eight-wide agentic fan-out from 2K-token
/// parent contexts, and RAG over 64 Zipf(1.1)-hot 1K-token documents.
pub fn share_cases() -> Vec<ShareCase> {
    vec![
        ShareCase {
            label: "system_prompt",
            scenario: PrefixScenario::SharedSystemPrompt {
                pools: 4,
                prompt_tokens: 1024,
            },
        },
        ShareCase {
            label: "agentic_fanout",
            scenario: PrefixScenario::AgenticFanOut {
                children: 8,
                parent_tokens: 2048,
            },
        },
        ShareCase {
            label: "rag_documents",
            scenario: PrefixScenario::RagDocuments {
                docs: 64,
                doc_tokens: 1024,
                zipf_s: 1.1,
            },
        },
    ]
}

/// Builds the stamped workload for one scenario at `scale`.
pub fn share_trace(scenario: PrefixScenario, scale: Scale) -> Trace {
    PrefixProfile::new(ShareGptProfile::default(), scenario).trace(DEFAULT_SEED, scale.sessions)
}

/// One (scenario, keying) measured row.
pub struct ShareRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Keying-mode label (`per_session` / `content_addressed`).
    pub keying: &'static str,
    /// Turns whose prefix consult was answered from the fastest tier,
    /// over all turns. The denominator is turns — not consults — so the
    /// modes compare fairly: per-session keying never consults on a
    /// first turn (nothing could match), block keying does and can hit;
    /// both count the turn.
    pub fast_reuse_per_turn: f64,
    /// Median service TTFT, milliseconds.
    pub ttft_p50_ms: f64,
    /// p95 service TTFT, milliseconds.
    pub ttft_p95_ms: f64,
    /// Save-side chunks resolved to already-stored nodes, as a fraction.
    pub dedup_ratio: f64,
    /// Physical bytes dedup avoided writing.
    pub bytes_saved: u64,
    /// Logical bytes stored per physical byte written.
    pub effective_capacity: f64,
    /// Sessions the run completed.
    pub sessions_done: u64,
}

/// The sweep results: for each scenario, the per-session row then the
/// content-addressed row.
pub struct ShareResults {
    /// Rows in [`share_cases`] order, two per scenario.
    pub rows: Vec<ShareRow>,
}

/// Runs one scenario under one keying mode at scale-proportional
/// capacity; both keying modes of a scenario get byte-identical tier
/// capacities and the identical stamped trace.
pub fn run_one(
    scenario: PrefixScenario,
    keying: KeyingMode,
    scale: Scale,
) -> (ClusterReport, Telemetry) {
    let model = ModelSpec::llama2_13b();
    let mut cfg = scaled_config(Mode::CachedAttention, model, scale);
    cfg.store.keying = keying;
    let trace = share_trace(scenario, scale);
    let cluster = ClusterConfig::new(cfg, 1, RouterKind::SessionAffinity);
    run_cluster_with_telemetry(cluster, trace)
}

fn row_from(
    label: &'static str,
    keying: KeyingMode,
    report: &ClusterReport,
    snap: &MetricsSnapshot,
) -> ShareRow {
    ShareRow {
        scenario: label,
        keying: keying.label(),
        fast_reuse_per_turn: if snap.turns_arrived == 0 {
            0.0
        } else {
            snap.hits_fast as f64 / snap.turns_arrived as f64
        },
        ttft_p50_ms: snap.ttft_p50_secs.unwrap_or(0.0) * 1e3,
        ttft_p95_ms: snap.ttft_p95_secs.unwrap_or(0.0) * 1e3,
        dedup_ratio: report.dedup.dedup_ratio(),
        bytes_saved: report.dedup.bytes_saved,
        effective_capacity: report.dedup.effective_capacity_factor(),
        sessions_done: report.aggregate.sessions_done.get(),
    }
}

/// Runs the sweep: every scenario under both keying modes.
pub fn compute(scale: Scale) -> ShareResults {
    let mut rows = Vec::new();
    for case in share_cases() {
        for keying in [KeyingMode::PerSession, KeyingMode::ContentAddressed] {
            let (report, tel) = run_one(case.scenario, keying, scale);
            rows.push(row_from(case.label, keying, &report, &tel.snapshot()));
        }
    }
    ShareResults { rows }
}

/// Renders the sweep as a comparison table, the per-session and
/// content-addressed rows of each scenario adjacent.
pub fn render(r: &ShareResults) -> String {
    let mut t = Table::new(
        "Prefix sharing: per-session vs. content-addressed keying (equal capacity)",
        &[
            "scenario",
            "keying",
            "fast reuse/turn",
            "TTFT p50 ms",
            "TTFT p95 ms",
            "dedup ratio",
            "bytes saved",
            "capacity x",
        ],
    );
    for row in &r.rows {
        t.row(&[
            row.scenario.to_string(),
            row.keying.to_string(),
            format!("{:.3}", row.fast_reuse_per_turn),
            format!("{:.1}", row.ttft_p50_ms),
            format!("{:.1}", row.ttft_p95_ms),
            format!("{:.3}", row.dedup_ratio),
            format!("{:.2}GB", row.bytes_saved as f64 / 1e9),
            format!("{:.2}", row.effective_capacity),
        ]);
    }
    t.render()
}

/// Runs the sweep at `scale` and renders the table.
pub fn run(scale: Scale) -> String {
    render(&compute(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The case list covers the three sharing shapes.
    #[test]
    fn cases_cover_the_sharing_shapes() {
        let cases = share_cases();
        assert_eq!(cases.len(), 3);
        let labels: Vec<&str> = cases.iter().map(|c| c.label).collect();
        assert_eq!(labels, ["system_prompt", "agentic_fanout", "rag_documents"]);
        for c in &cases {
            assert_eq!(c.label, c.scenario.label());
        }
    }

    /// A small sweep serves every session under both keying modes, the
    /// per-session rows report zero dedup (the mode has no ledger), every
    /// content-addressed row actually dedups, and — DRAM still holding
    /// most chains at this size — block keying's fast-tier hit rate is
    /// at least per-session keying's on every scenario, fan-out included
    /// (true on 11 of 13 trace seeds, seeds 1–12 and the default).
    #[test]
    fn sweep_dedups_only_under_block_keying() {
        let scale = Scale {
            sessions: 40,
            warmup_turns: 0,
        };
        let r = compute(scale);
        assert_eq!(r.rows.len(), 6);
        for pair in r.rows.chunks(2) {
            let (per, ca) = (&pair[0], &pair[1]);
            assert_eq!(per.keying, "per_session");
            assert_eq!(ca.keying, "content_addressed");
            assert_eq!(per.scenario, ca.scenario);
            assert_eq!(per.sessions_done, 40, "{}: sessions lost", per.scenario);
            assert_eq!(ca.sessions_done, 40, "{}: sessions lost", ca.scenario);
            assert_eq!(per.dedup_ratio, 0.0);
            assert_eq!(per.bytes_saved, 0);
            assert_eq!(per.effective_capacity, 1.0);
            assert!(
                ca.dedup_ratio > 0.0,
                "{}: block keying found no shared chunks",
                ca.scenario
            );
            assert!(ca.bytes_saved > 0);
            assert!(ca.effective_capacity > 1.0);
            assert!(
                ca.fast_reuse_per_turn >= per.fast_reuse_per_turn,
                "{}: fast reuse per turn regressed ({:.3} < {:.3})",
                ca.scenario,
                ca.fast_reuse_per_turn,
                per.fast_reuse_per_turn
            );
        }
        let table = render(&r);
        assert!(table.contains("content_addressed"));
        assert!(table.contains("capacity x"));
    }

    /// The headline claim at equal capacity: on every shared-prefix
    /// scenario, block keying's TTFT p50 and p95 are no worse than
    /// per-session keying's; where first turns open on a shared prompt
    /// or document, its fast-tier hit rate is at least the per-session
    /// rate; and at least one scenario strictly improves both the hit
    /// rate and p95.
    ///
    /// Fan-out's hit rate is claimed only at the smaller sweep above.
    /// Over trace seeds 1–12 and the default seed at this scale, block
    /// keying's fan-out hit rate is the lower one on 11 of 13 (mean 0.58
    /// against 0.63), while its TTFT
    /// p50 and p95 win on all 13: the parent context shared by eight
    /// children stays hot in DRAM, so room is made by demoting a child's
    /// private tail, and one chunk below DRAM makes the whole consult a
    /// slow hit even though it reads only that tail.
    #[test]
    fn block_keying_wins_at_equal_capacity() {
        let scale = Scale {
            sessions: 60,
            warmup_turns: 0,
        };
        let r = compute(scale);
        let mut strict = 0;
        for pair in r.rows.chunks(2) {
            let (per, ca) = (&pair[0], &pair[1]);
            assert!(
                ca.scenario == "agentic_fanout"
                    || ca.fast_reuse_per_turn >= per.fast_reuse_per_turn,
                "{}: fast reuse per turn regressed ({:.3} < {:.3})",
                ca.scenario,
                ca.fast_reuse_per_turn,
                per.fast_reuse_per_turn
            );
            assert!(
                ca.ttft_p50_ms <= per.ttft_p50_ms,
                "{}: TTFT p50 regressed ({:.1} > {:.1})",
                ca.scenario,
                ca.ttft_p50_ms,
                per.ttft_p50_ms
            );
            assert!(
                ca.ttft_p95_ms <= per.ttft_p95_ms,
                "{}: TTFT p95 regressed ({:.1} > {:.1})",
                ca.scenario,
                ca.ttft_p95_ms,
                per.ttft_p95_ms
            );
            if ca.fast_reuse_per_turn > per.fast_reuse_per_turn && ca.ttft_p95_ms < per.ttft_p95_ms
            {
                strict += 1;
            }
        }
        assert!(strict > 0, "no scenario strictly improved");
    }
}
