//! Online observability plane on a bursty run: windowed metrics,
//! streaming SLO signals and the deterministic alert timeline.
//!
//! ```text
//! exp_watch [--sessions N | --paper]
//!           [--window-secs W]       # tumbling window width, default 60
//!           [--slo-ttft-p99 S]      # SLO target seconds, default 1.0
//!           [--windows-out PATH]    # windowed-JSONL time series + alerts
//!           [--prom-out PATH]       # Prometheus text exposition (final scrape)
//!           [--trace-out PATH]...   # .jsonl => JSON Lines, else Chrome trace
//!                                   # (alerts render as global instants)
//!           [--metrics-out PATH]    # MetricsSnapshot as pretty JSON
//! ```
//!
//! The run replays the ShareGPT workload under MMPP bursts with the
//! windowed telemetry plane attached and prints the window table, a
//! queue-depth sparkline, and every `alert_fired`/`alert_resolved`
//! transition. Everything is virtual-time deterministic: same flags,
//! same alerts. Validate the windowed JSONL with
//! `trace_check --windows PATH`.

use bench_suite::experiments::watch;
use bench_suite::{Args, Scale, TelemetryArgs};
use telemetry::{to_prometheus, windows_to_jsonl, SloConfig};

fn main() {
    let args = Args::from_env();
    let scale = Scale::from_args();
    let window_secs = args
        .parse::<f64>("--window-secs")
        .unwrap_or(watch::DEFAULT_WINDOW_SECS);
    let slo = SloConfig::new(args.parse::<f64>("--slo-ttft-p99").unwrap_or(1.0));
    let outs = TelemetryArgs::from_args();

    let run = watch::run_watch(scale, window_secs, slo);

    if let Some(path) = args.value("--windows-out") {
        let body = windows_to_jsonl(&run.series, &run.signals, &run.alerts);
        std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!(
            "[exp_watch] wrote {path} ({} windows, {} alert events)",
            run.series.windows.len(),
            run.alerts.len()
        );
    }
    if let Some(path) = args.value("--prom-out") {
        let body = to_prometheus(&run.telemetry.snapshot());
        std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[exp_watch] wrote {path}");
    }
    outs.write(&run.telemetry, &run.alerts);

    println!(
        "exp_watch: {} sessions (bursty), window {:.0}s",
        scale.sessions, window_secs
    );
    println!(
        "  makespan={:.1}s ttft={:.1}ms hit_rate={:.3} sessions_done={}",
        run.report.makespan_secs,
        run.report.ttft_mean() * 1e3,
        run.report.hit_rate(),
        run.report.sessions_done.get()
    );
    print!("{}", watch::render(&run, 24));
}
