//! Prefix-sharing sweep: per-session vs. content-addressed keying.
//!
//! Two modes:
//!
//! ```text
//! exp_share [--sessions N | --paper] [--smoke]
//!     # sweep: three sharing shapes (fleet system prompts, agentic
//!     # fan-out, Zipf-hot RAG documents), each run under per-session
//!     # and content-addressed keying at identical tier capacity; one
//!     # table of fast-tier hit rate, TTFT p50/p95, dedup ratio, bytes
//!     # saved and effective capacity factor. --smoke shrinks the run
//!     # for CI.
//!
//! exp_share [--sessions N | --paper] --scenario system_prompt|agentic_fanout|rag_documents
//!           [--keying per_session|content_addressed]   # default content_addressed
//!           [--trace-out PATH]...    # .jsonl => JSON Lines, else Chrome trace
//!           [--metrics-out PATH]     # MetricsSnapshot as pretty JSON
//!     # single run of one (scenario, keying) cell with the full
//!     # telemetry stack: block_saved / block_dedup_hit / block_diverged
//!     # events land in the trace for `trace_check --jsonl` to validate
//! ```

use bench_suite::experiments::share;
use bench_suite::{Args, Scale, TelemetryArgs};
use store::KeyingMode;

fn main() {
    let args = Args::from_env();
    let scale = if args.has("--smoke") {
        Scale {
            sessions: 40,
            warmup_turns: 0,
        }
    } else {
        Scale::from_args()
    };

    let Some(which) = args.value("--scenario") else {
        // Sweep mode: every (scenario, keying) cell through one table.
        print!("{}", share::run(scale));
        return;
    };

    // Single-run mode with full telemetry.
    let Some(case) = share::share_cases().into_iter().find(|c| c.label == which) else {
        eprintln!(
            "error: unknown scenario '{which}' (system_prompt | agentic_fanout | rag_documents)"
        );
        std::process::exit(1);
    };
    let keying = match args.value("--keying") {
        None | Some("content_addressed") => KeyingMode::ContentAddressed,
        Some("per_session") => KeyingMode::PerSession,
        Some(other) => {
            eprintln!("error: unknown keying '{other}' (per_session | content_addressed)");
            std::process::exit(1);
        }
    };
    let outs = TelemetryArgs::from_args();

    let (report, tel) = share::run_one(case.scenario, keying, scale);
    outs.write(&tel, &[]);

    let snap = tel.snapshot();
    let c = &snap.counters;
    let lookups = c.hits_fast + c.hits_slow + c.misses;
    println!(
        "exp_share: scenario '{}' under {} keying ({} sessions)",
        case.label,
        keying.label(),
        scale.sessions
    );
    println!(
        "  makespan={:.1}s ttft p50/p95={:.1}/{:.1}ms fast_hit_rate={:.3} sessions_done={}",
        report.aggregate.makespan_secs,
        snap.ttft_p50_secs.unwrap_or(0.0) * 1e3,
        snap.ttft_p95_secs.unwrap_or(0.0) * 1e3,
        if lookups == 0 {
            0.0
        } else {
            c.hits_fast as f64 / lookups as f64
        },
        report.aggregate.sessions_done.get()
    );
    println!(
        "  dedup: ratio={:.3} hits={} matched_blocks={} saved={:.2}GB written={:.2}GB capacity_x={:.2}",
        report.dedup.dedup_ratio(),
        report.dedup.lookup_hits,
        report.dedup.matched_blocks,
        report.dedup.bytes_saved as f64 / 1e9,
        report.dedup.bytes_written as f64 / 1e9,
        report.dedup.effective_capacity_factor()
    );
    println!(
        "  blocks: divergences={} refcounted_evictions={} session_releases={}",
        report.dedup.divergences, report.dedup.refcounted_evictions, report.dedup.session_releases
    );
}
