//! Runs every experiment and writes `EXPERIMENTS-report.txt`.
//!
//! `--paper` uses the full 9K-session scale (slow); the default quick
//! scale reproduces every shape in minutes.
//!
//! `--trace-out PATH` (repeatable; `.jsonl` => JSON Lines, else Chrome
//! trace for Perfetto) and `--metrics-out PATH` additionally capture the
//! reference CachedAttention run (Llama2-13B at the selected scale) with
//! the full telemetry stack attached.

use bench_suite::experiments::{self, e2e};
use bench_suite::{paper_trace, scaled_config, Args, Scale, TelemetryArgs};
use engine::Mode;
use models::ModelSpec;
use std::fmt::Write as _;

fn main() {
    let scale = Scale::from_args();
    let telemetry = TelemetryArgs::from_args();
    let quick = !Args::from_env().has("--paper");
    let (steps, episodes) = if quick { (900, 10) } else { (2_000, 24) };
    let mut out = String::new();
    let mut section = |name: &str, body: String| {
        eprintln!("[exp_all] finished {name}");
        let _ = writeln!(out, "{body}");
    };
    section("sec24", experiments::sec24::run());
    section("fig01", experiments::fig01::run());
    section("fig02", experiments::fig02::run(scale.sessions.max(5_000)));
    section("fig04", experiments::fig04::run(scale.sessions.max(3_000)));
    let r = e2e::compute(scale);
    section("fig13", e2e::fig13(&r));
    section("fig14", e2e::fig14(&r));
    section("fig15", e2e::fig15(&r));
    section("fig16", e2e::fig16(&r));
    section("fig17", e2e::fig17(&r));
    section("fig18", experiments::fig18::run());
    section("fig19", experiments::fig19::run());
    section("fig20", experiments::fig20::run());
    section("fig21", experiments::fig21::run(scale));
    section("fig21-window", experiments::fig21::window_sweep(scale));
    section("fig22", experiments::fig22::run(scale));
    section("tab1", experiments::tab12::table1(steps, episodes));
    section("tab2", experiments::tab12::table2(steps, episodes));
    section("fig23", experiments::fig23::run(scale));
    section("fig24", experiments::fig24::run(scale));
    section("fig25", experiments::fig25::run(scale));
    section(
        "ext-tdl",
        experiments::ext_tdl::run(steps * 6, episodes * 4),
    );
    section("ext-compression", experiments::ext_compression::run(scale));
    section("ext-chunked", experiments::ext_chunked::run(scale));
    section("ext-bursty", experiments::ext_bursty::run(scale));
    if telemetry.any() {
        let model = ModelSpec::llama2_13b();
        let cfg = scaled_config(Mode::CachedAttention, model, scale);
        telemetry.run(cfg, paper_trace(scale, 1.0));
        eprintln!("[exp_all] finished telemetry capture");
    }
    print!("{out}");
    std::fs::write("EXPERIMENTS-report.txt", &out).expect("write report");
    eprintln!("[exp_all] wrote EXPERIMENTS-report.txt");
}
