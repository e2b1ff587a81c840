//! Cluster scaling: N serving instances sharing one AttentionStore.
//!
//! Two modes:
//!
//! ```text
//! exp_cluster [--sessions N | --paper]
//!     # sweep: {1,2,4,8} instances x {affinity, least-loaded} routers,
//!     # one table of aggregate throughput + per-instance hit rates
//!
//! exp_cluster [--sessions N | --paper] --instances K
//!             [--router affinity|least-loaded]
//!             [--trace-out PATH]...   # .jsonl => JSON Lines, else Chrome trace
//!             [--metrics-out PATH]    # MetricsSnapshot as pretty JSON
//!     # single run with the full telemetry stack: every trace record is
//!     # tagged with its instance, and the Chrome export gives each
//!     # instance its own Perfetto process track
//! ```

use bench_suite::experiments::cluster;
use bench_suite::{paper_trace, scaled_config, Args, Scale, TelemetryArgs};
use engine::{ClusterConfig, Mode, RouterKind};
use models::ModelSpec;
use telemetry::run_cluster_with_telemetry;

fn main() {
    let args = Args::from_env();
    let scale = Scale::from_args();
    let instances = args.parse::<usize>("--instances");

    let Some(n) = instances else {
        // Sweep mode: the full router x instance-count comparison.
        print!("{}", cluster::run(scale, &[1, 2, 4, 8]));
        return;
    };

    // Single-run mode with full telemetry.
    let router = match args.value("--router") {
        Some("least-loaded") => RouterKind::LeastLoaded,
        _ => RouterKind::SessionAffinity,
    };
    let outs = TelemetryArgs::from_args();
    let model = ModelSpec::llama2_13b();
    let cfg = scaled_config(Mode::CachedAttention, model, scale);
    let trace = paper_trace(scale, 1.0);
    let (report, tel) = run_cluster_with_telemetry(ClusterConfig::new(cfg, n, router), trace);
    outs.write(&tel, &[]);

    let snap = tel.snapshot();
    println!(
        "exp_cluster: {} instances ({} router) on Llama2-13B, {} sessions",
        n, report.router, scale.sessions
    );
    println!(
        "  makespan={:.1}s throughput={:.2} turns/s hit_rate={:.3} sessions_done={}",
        report.aggregate.makespan_secs,
        report.throughput(),
        report.aggregate.hit_rate(),
        report.aggregate.sessions_done.get()
    );
    println!(
        "  events={} turns={} retired={}",
        tel.records().len(),
        snap.counters.turns_arrived,
        snap.counters.retired
    );
    for inst in &report.instances {
        println!(
            "  instance {}: turns={} hit_rate={:.3} h2d={}MB d2h={}MB hbm_peak={}MB",
            inst.instance,
            inst.turns_done,
            inst.hit_rate(),
            inst.h2d_bytes / 1_000_000,
            inst.d2h_bytes / 1_000_000,
            inst.hbm_high_water_bytes / 1_000_000
        );
    }
}
