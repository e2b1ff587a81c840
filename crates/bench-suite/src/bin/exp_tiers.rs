//! Tier-stack sweep: depth-N storage mixes priced against TTFT.
//!
//! Two modes:
//!
//! ```text
//! exp_tiers [--sessions N | --paper] [--healthy]
//!     # sweep: the paper 2-tier baseline, +pooled-memory, a four-deep
//!     # +object-store stack, and a lean DRAM split, each run through
//!     # the same workload and (unless --healthy) the same mild fault
//!     # schedule; one table of per-tier hit rate, TTFT p50/p95 and
//!     # $-per-session-hour
//!
//! exp_tiers [--sessions N | --paper] --stack paper|pooled|object|lean
//!           [--healthy]              # drop the fault schedule
//!           [--seed S]               # fault-dice seed, default 20240418
//!           [--trace-out PATH]...    # .jsonl => JSON Lines, else Chrome trace
//!           [--metrics-out PATH]     # MetricsSnapshot as pretty JSON
//!     # single run of one candidate stack with the full telemetry
//!     # stack: per-tier occupancy tracks and hop-by-hop transfers show
//!     # up on the Perfetto timeline
//! ```

use bench_suite::experiments::tiers;
use bench_suite::{paper_trace, scaled_config, Scale, TelemetryArgs, DEFAULT_SEED};
use engine::{ClusterConfig, Mode, RouterKind};
use models::ModelSpec;
use telemetry::{run_cluster_with_telemetry, to_chrome_trace, to_jsonl};

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn main() {
    let scale = Scale::from_args();
    let faulted = !has_flag("--healthy");

    let Some(which) = flag_value("--stack") else {
        // Sweep mode: every candidate stack through one table.
        print!("{}", tiers::render(&tiers::compute(scale, faulted)));
        return;
    };

    // Single-run mode with full telemetry.
    let model = ModelSpec::llama2_13b();
    let mut cases = tiers::stack_cases(scale, &model);
    let idx = match which.as_str() {
        "paper" => 0,
        "pooled" => 1,
        "object" => 2,
        "lean" => 3,
        other => {
            eprintln!("error: unknown stack '{other}' (paper | pooled | object | lean)");
            std::process::exit(1);
        }
    };
    let case = cases.swap_remove(idx);
    let seed = flag_value("--seed")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(DEFAULT_SEED);
    let outs = TelemetryArgs::from_args();

    let mut cfg = scaled_config(Mode::CachedAttention, model, scale);
    cfg.store.tiers = case.tiers.clone();
    let trace = paper_trace(scale, 1.0);
    let mut cluster = ClusterConfig::new(cfg, 1, RouterKind::SessionAffinity);
    if faulted {
        cluster = cluster.with_faults(tiers::tier_plan(seed));
    }
    let (report, tel) = run_cluster_with_telemetry(cluster, trace);

    for path in &outs.trace_outs {
        let body = if path.extension().is_some_and(|e| e == "jsonl") {
            to_jsonl(tel.records())
        } else {
            to_chrome_trace(tel.records())
        };
        std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!(
            "[exp_tiers] wrote {} ({} events)",
            path.display(),
            tel.records().len()
        );
    }
    if let Some(path) = &outs.metrics_out {
        bench_suite::telemetry_cli::write_snapshot(path, &tel.snapshot());
    }

    let snap = tel.snapshot();
    println!(
        "exp_tiers: stack '{}' ({} tiers, {} sessions{})",
        case.label,
        case.tiers.len(),
        scale.sessions,
        if faulted { ", faulted" } else { "" }
    );
    println!(
        "  makespan={:.1}s ttft p50/p95={:.1}/{:.1}ms hit_rate={:.3} sessions_done={}",
        report.aggregate.makespan_secs,
        snap.ttft_p50_secs.unwrap_or(0.0) * 1e3,
        snap.ttft_p95_secs.unwrap_or(0.0) * 1e3,
        report.aggregate.hit_rate(),
        report.aggregate.sessions_done.get()
    );
    for t in &snap.tiers {
        println!(
            "  tier {} ({}): hits={} peak_occupancy={:.2}GB",
            t.tier,
            t.name,
            t.store_hits,
            t.occupancy_peak_bytes / 1e9
        );
    }
    println!(
        "  storage=${:.4}/h  faults: retries r/w={}/{} failures r/w={}/{}",
        case.tiers.dollars_per_hour(),
        report.faults.read_retries,
        report.faults.write_retries,
        report.faults.read_failures,
        report.faults.write_failures
    );
}
