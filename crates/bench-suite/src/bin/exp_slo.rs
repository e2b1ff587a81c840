//! Flash-crowd robustness: SLO-aware admission control, the degradation
//! ladder and queue-driven autoscaling under a deterministic surge.
//!
//! ```text
//! exp_slo [--sessions N | --paper]
//!         [--surge-factor F]      # flash-crowd rate multiplier, default 4
//!         [--ttft-target S]       # TTFT deadline seconds, default 5.0
//!         [--windows-out PATH]    # windowed-JSONL time series + alerts
//!         [--prom-out PATH]       # Prometheus text exposition (final scrape)
//!         [--trace-out PATH]...   # .jsonl => JSON Lines, else Chrome trace
//!         [--metrics-out PATH]    # MetricsSnapshot as pretty JSON
//! ```
//!
//! Three policies serve the byte-identical surge trace on the same
//! 2-instance cluster: measurement-only FCFS (the pre-SLO baseline),
//! the EDF + degradation-ladder policy on the static fleet, and the
//! ladder with queue-driven autoscaling. The table compares
//! TTFT-deadline attainment against what each policy paid for it (shed
//! turns, degraded recomputes, forced truncations, fleet churn). All
//! telemetry artifacts come from the autoscaled run. Everything is
//! virtual-time deterministic: same flags, same table. Validate the
//! JSONL trace with `trace_check PATH` and the windowed series with
//! `trace_check --windows PATH`.

use bench_suite::experiments::slo;
use bench_suite::{Args, Scale, TelemetryArgs};
use telemetry::{to_prometheus, windows_to_jsonl};

fn main() {
    let args = Args::from_env();
    let scale = Scale::from_args();
    let surge_factor = args
        .parse::<f64>("--surge-factor")
        .unwrap_or(slo::DEFAULT_SURGE_FACTOR);
    let target_secs = args
        .parse::<f64>("--ttft-target")
        .unwrap_or(slo::DEFAULT_TTFT_TARGET_SECS);
    let outs = TelemetryArgs::from_args();

    let r = slo::compute(scale, surge_factor, target_secs);

    if let Some(path) = args.value("--windows-out") {
        let body = windows_to_jsonl(&r.series, &r.signals, &r.alerts);
        std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!(
            "[exp_slo] wrote {path} ({} windows, {} alert events)",
            r.series.windows.len(),
            r.alerts.len()
        );
    }
    if let Some(path) = args.value("--prom-out") {
        let body = to_prometheus(&r.telemetry.snapshot());
        std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[exp_slo] wrote {path}");
    }
    outs.write(&r.telemetry, &r.alerts);

    println!(
        "exp_slo: {} sessions, {surge_factor:.0}x flash crowd, TTFT deadline {target_secs:.1}s",
        scale.sessions
    );
    print!("{}", slo::render(&r, surge_factor, target_secs));
    let auto = &r.rows.last().expect("three variants").report;
    println!(
        "autoscaled run: attainment={:.3} shed={} scale={}+/{}- peak={} alerts={}",
        auto.overload.attainment(),
        auto.overload.turns_shed,
        auto.overload.scale_ups,
        auto.overload.scale_downs,
        auto.overload.peak_instances,
        r.alerts.len()
    );
}
