//! Host-time throughput gate: how fast is the simulator itself?
//!
//! ```text
//! exp_scale                      # CI bench preset (~4K sessions, seconds)
//!           --full               # acceptance scale: 100K sessions, 8
//!                                # instances, diurnal arrivals (minutes)
//!           --sessions N         # override session count
//!           --instances N        # override instance count
//!           --rate F             # override mean arrival rate (/sec)
//!           --heartbeat F        # stderr progress line every F host secs
//!           --flat               # disable the diurnal arrival wave
//!           --out PATH           # write BENCH_scale.json-style JSON
//!           --baseline PATH      # diff against a committed bench;
//!                                # exit 1 on regression
//!           --tolerance F        # host-field band (default 0.5)
//!           --trace-out PATH     # two-clock Chrome trace: virtual-time
//!                                # serving events next to a host-time
//!                                # self-profile track (keep this small)
//! ```
//!
//! Unlike every other experiment, the interesting output here is
//! host-clock: events dispatched per wall second, total wall time, peak
//! RSS, and the per-scope self-profile saying where the host time went.
//! The virtual fields (event count, makespan, hit rate) ride along as a
//! determinism fingerprint the baseline compare pins exactly.

use bench_suite::experiments::scale::{
    compare_scale, render, run_scale, scale_config, scale_trace, to_bench, ScaleOpts, ScaleRun,
    DEFAULT_HOST_TOLERANCE,
};
use bench_suite::Args;
use serde::{Serialize, Value};
use sim::{profiler, ProfilerConfig};
use std::path::PathBuf;
use telemetry::{run_cluster_with_telemetry, to_chrome_trace_two_clock};

fn main() {
    let args = Args::from_env();
    let mut opts = if args.has("--full") {
        ScaleOpts::full()
    } else {
        ScaleOpts::bench()
    };
    if let Some(n) = args.parse("--sessions") {
        opts.sessions = n;
    }
    if let Some(n) = args.parse("--instances") {
        opts.instances = n;
    }
    if let Some(r) = args.parse("--rate") {
        opts.arrival_rate = r;
    }
    if let Some(h) = args.parse("--heartbeat") {
        opts.heartbeat_secs = Some(h);
    }
    if args.has("--flat") {
        opts.diurnal = None;
    }
    let out = args.value("--out").map(PathBuf::from);
    let baseline = args.value("--baseline").map(PathBuf::from);
    let tolerance = args
        .parse::<f64>("--tolerance")
        .unwrap_or(DEFAULT_HOST_TOLERANCE);
    let trace_outs: Vec<PathBuf> = args
        .values("--trace-out")
        .into_iter()
        .map(PathBuf::from)
        .collect();

    let run = if trace_outs.is_empty() {
        run_scale(&opts)
    } else {
        // Two-clock export: the verbatim trace costs memory proportional
        // to the event count, so this path is for smoke-scale runs.
        let trace = scale_trace(&opts);
        let trace_turns = trace.total_turns() as u64;
        profiler::begin(ProfilerConfig {
            heartbeat_secs: opts.heartbeat_secs,
        });
        let (report, tel) = run_cluster_with_telemetry(scale_config(&opts), trace);
        let profile = profiler::finish();
        for path in &trace_outs {
            let body = to_chrome_trace_two_clock(tel.records(), &profile);
            std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            eprintln!(
                "[exp_scale] wrote {} ({} serving events + {} self-profile scopes)",
                path.display(),
                tel.records().len(),
                profile.scopes.len()
            );
        }
        ScaleRun {
            report,
            profile,
            trace_turns,
        }
    };

    let bench = to_bench(&opts, &run);
    print!("{}", render(&bench));

    if let Some(path) = &out {
        let mut json = serde_json::to_string_pretty(&bench).expect("benches always serialize");
        json.push('\n');
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("[exp_scale] wrote {}", path.display());
    }

    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        let base: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse baseline {}: {e}", path.display()));
        let fails = compare_scale(&base, &bench.to_value(), tolerance);
        if fails.is_empty() {
            println!(
                "throughput gate: PASS vs {} (host tolerance {:.0}%)",
                path.display(),
                tolerance * 100.0
            );
        } else {
            eprintln!(
                "throughput gate: FAIL vs {} (host tolerance {:.0}%)",
                path.display(),
                tolerance * 100.0
            );
            for f in &fails {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}
