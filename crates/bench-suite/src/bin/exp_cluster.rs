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
use bench_suite::{paper_trace, scaled_config, Scale, TelemetryArgs};
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

fn router_from_args() -> RouterKind {
    match flag_value("--router").as_deref() {
        Some("least-loaded") => RouterKind::LeastLoaded,
        _ => RouterKind::SessionAffinity,
    }
}

fn main() {
    let scale = Scale::from_args();
    let instances = flag_value("--instances").and_then(|s| s.parse::<usize>().ok());

    let Some(n) = instances else {
        // Sweep mode: the full router x instance-count comparison.
        print!("{}", cluster::run(scale, &[1, 2, 4, 8]));
        return;
    };

    // Single-run mode with full telemetry.
    let router = router_from_args();
    let outs = TelemetryArgs::from_args();
    let model = ModelSpec::llama2_13b();
    let cfg = scaled_config(Mode::CachedAttention, model, scale);
    let trace = paper_trace(scale, 1.0);
    let (report, tel) = run_cluster_with_telemetry(ClusterConfig::new(cfg, n, router), trace);

    for path in &outs.trace_outs {
        let body = if path.extension().is_some_and(|e| e == "jsonl") {
            to_jsonl(tel.records())
        } else {
            to_chrome_trace(tel.records())
        };
        std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!(
            "[exp_cluster] wrote {} ({} events)",
            path.display(),
            tel.records().len()
        );
    }
    if let Some(path) = &outs.metrics_out {
        bench_suite::telemetry_cli::write_snapshot(path, &tel.snapshot());
    }

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
