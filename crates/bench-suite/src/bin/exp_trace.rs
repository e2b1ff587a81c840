//! Telemetry capture: one end-to-end run with the full observer stack.
//!
//! Runs a single (mode, model) experiment with the merged engine/store
//! event trace attached and writes the requested outputs:
//!
//! ```text
//! exp_trace [--sessions N | --paper] [--mode CA|RE|OF]
//!           [--trace-out PATH]...   # .jsonl => JSON Lines, else Chrome trace
//!           [--metrics-out PATH]    # MetricsSnapshot as pretty JSON
//! ```
//!
//! With no output flags it still runs traced and prints the summary, so
//! it doubles as a quick sanity check that observation is free: the
//! printed hit rate must match `exp_fig13_hitrate` at the same scale.

use bench_suite::{paper_trace, scaled_config, Scale, TelemetryArgs};
use engine::Mode;
use models::ModelSpec;
use telemetry::{run_with_telemetry, to_chrome_trace, to_jsonl};

fn mode_from_args() -> Mode {
    let args: Vec<String> = std::env::args().collect();
    match args
        .iter()
        .position(|a| a == "--mode")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        Some("RE") => Mode::Recompute,
        Some("OF") => Mode::CoupledOverflow,
        _ => Mode::CachedAttention,
    }
}

fn main() {
    let scale = Scale::from_args();
    let mode = mode_from_args();
    let outs = TelemetryArgs::from_args();
    let model = ModelSpec::llama2_13b();
    let cfg = scaled_config(mode, model, scale);
    let trace = paper_trace(scale, 1.0);

    let (report, tel) = run_with_telemetry(cfg, trace);
    for path in &outs.trace_outs {
        let body = if path.extension().is_some_and(|e| e == "jsonl") {
            to_jsonl(tel.records())
        } else {
            to_chrome_trace(tel.records())
        };
        std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!(
            "[exp_trace] wrote {} ({} events)",
            path.display(),
            tel.records().len()
        );
    }
    if let Some(path) = &outs.metrics_out {
        bench_suite::telemetry_cli::write_snapshot(path, &tel.snapshot());
    }

    let snap = tel.snapshot();
    let c = &snap.counters;
    println!(
        "exp_trace: {} on Llama2-13B, {} sessions",
        mode.label(),
        scale.sessions
    );
    println!(
        "  events={} (engine+store), turns={}, retired={}",
        tel.records().len(),
        c.turns_arrived,
        c.retired
    );
    println!(
        "  report hit_rate={:.3}, hub hit_rate={:.3} (hub counts warmup turns too)",
        report.hit_rate(),
        snap.hit_rate
    );
    let tier_hits: Vec<String> = snap
        .tiers
        .iter()
        .map(|t| format!("{}={}", t.name, t.store_hits))
        .collect();
    println!(
        "  store: hits [{}] misses={} saves={} prefetches={}",
        tier_hits.join(" "),
        c.store_misses,
        c.saves,
        c.prefetch_promotions
    );
    println!(
        "  ttft mean={:.3}s p99={:.3}s, queue wait mean={:.3}s",
        snap.ttft_mean_secs,
        snap.ttft_p99_secs.unwrap_or(0.0),
        snap.queue_wait_mean_secs
    );
}
