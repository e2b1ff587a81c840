//! Chaos runs: fault injection and graceful degradation on a cluster.
//!
//! Two modes:
//!
//! ```text
//! exp_chaos [--sessions N | --paper]
//!     # sweep: fault intensity {0, 0.25, 0.5, 1.0} on a 2-instance
//!     # cluster, one table of TTFT / hit rate / fault-path counters
//!
//! exp_chaos [--sessions N | --paper] --intensity K
//!           [--instances M]          # default 2
//!           [--seed S]               # fault-dice seed, default 20240418
//!           [--trace-out PATH]...    # .jsonl => JSON Lines, else Chrome trace
//!           [--metrics-out PATH]     # MetricsSnapshot as pretty JSON
//!     # single faulted run with the full telemetry stack: every retry,
//!     # corruption, reroute and the crash shows up on the Perfetto
//!     # timeline in its instance's process track
//! ```

use bench_suite::experiments::chaos;
use bench_suite::{paper_trace, scaled_config, Args, Scale, TelemetryArgs, DEFAULT_SEED};
use engine::{ClusterConfig, Mode, RouterKind};
use models::ModelSpec;
use telemetry::run_cluster_with_telemetry;

fn main() {
    let args = Args::from_env();
    let scale = Scale::from_args();
    let intensity = args.parse::<f64>("--intensity");

    let Some(k) = intensity else {
        // Sweep mode: healthy baseline plus three escalating fault mixes.
        print!("{}", chaos::run(scale, &[0.0, 0.25, 0.5, 1.0]));
        return;
    };

    // Single-run mode with full telemetry.
    let n = args.parse::<usize>("--instances").unwrap_or(2);
    let seed = args.parse::<u64>("--seed").unwrap_or(DEFAULT_SEED);
    let outs = TelemetryArgs::from_args();
    let model = ModelSpec::llama2_13b();
    let cfg = scaled_config(Mode::CachedAttention, model, scale);
    let trace = paper_trace(scale, 1.0);
    let cluster = ClusterConfig::new(cfg, n, RouterKind::SessionAffinity)
        .with_faults(chaos::chaos_plan(seed, k));
    let (report, tel) = run_cluster_with_telemetry(cluster, trace);
    outs.write(&tel, &[]);

    let f = &report.faults;
    println!(
        "exp_chaos: intensity {:.2} (seed {}) on {} instances, {} sessions",
        k, seed, n, scale.sessions
    );
    println!(
        "  makespan={:.1}s ttft={:.1}ms hit_rate={:.3} sessions_done={}",
        report.aggregate.makespan_secs,
        report.aggregate.ttft_mean() * 1e3,
        report.aggregate.hit_rate(),
        report.aggregate.sessions_done.get()
    );
    println!(
        "  retries r/w={}/{} failures r/w={}/{} corruptions={} recompute_fallbacks={}",
        f.read_retries,
        f.write_retries,
        f.read_failures,
        f.write_failures,
        f.corruptions_detected,
        f.recompute_fallbacks
    );
    println!(
        "  crashes={} rerouted={} pressure_events={}",
        f.instance_crashes, f.turns_rerouted, f.pressure_events
    );
    for inst in &report.instances {
        println!(
            "  instance {}: turns={} hit_rate={:.3}{}",
            inst.instance,
            inst.turns_done,
            inst.hit_rate(),
            if inst.crashed { " (crashed)" } else { "" }
        );
    }
}
