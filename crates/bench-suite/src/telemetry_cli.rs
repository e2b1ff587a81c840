//! `--trace-out` / `--metrics-out` support for the experiment binaries.
//!
//! Any experiment binary can accept:
//!
//! - `--trace-out PATH` (repeatable): dump the merged engine/store event
//!   trace of the telemetry run. `.jsonl` paths get JSON Lines (one
//!   self-describing object per event); any other extension gets the
//!   Chrome trace-event format, which Perfetto and `chrome://tracing`
//!   open directly, with the run's alerts as global instants when it
//!   has any.
//! - `--metrics-out PATH`: write the aggregated
//!   [`MetricsSnapshot`](telemetry::MetricsSnapshot) as
//!   pretty-printed JSON.
//!
//! Telemetry is strictly read-only, so the returned [`RunReport`] is
//! identical whether or not any flag is given.

use std::path::{Path, PathBuf};

use engine::{run_trace, EngineConfig, RunReport};
use telemetry::{
    run_with_telemetry, to_chrome_trace_with_alerts, to_jsonl, AlertEvent, Telemetry, TraceRecord,
};
use workload::Trace;

use crate::Args;

/// Parsed `--trace-out` / `--metrics-out` flags.
#[derive(Debug, Clone, Default)]
pub struct TelemetryArgs {
    /// Trace destinations (`.jsonl` → JSON Lines, else Chrome trace).
    pub trace_outs: Vec<PathBuf>,
    /// Metrics-snapshot destination.
    pub metrics_out: Option<PathBuf>,
}

impl TelemetryArgs {
    /// Parses the flags from the process arguments.
    pub fn from_args() -> Self {
        let args = Args::from_env();
        TelemetryArgs {
            trace_outs: args
                .values("--trace-out")
                .into_iter()
                .map(PathBuf::from)
                .collect(),
            metrics_out: args.value("--metrics-out").map(PathBuf::from),
        }
    }

    /// Whether any telemetry output was requested.
    pub fn any(&self) -> bool {
        !self.trace_outs.is_empty() || self.metrics_out.is_some()
    }

    /// Runs `cfg` over `trace`, attaching the telemetry stack and
    /// writing the requested outputs when any flag was given, or running
    /// plain (zero observation cost) otherwise. Either way the report is
    /// byte-identical.
    pub fn run(&self, cfg: EngineConfig, trace: Trace) -> RunReport {
        if !self.any() {
            return run_trace(cfg, trace);
        }
        let (report, tel) = run_with_telemetry(cfg, trace);
        self.write(&tel, &[]);
        report
    }

    /// Writes `tel`'s trace to every `--trace-out` path (see
    /// [`render_trace`]) and its metrics snapshot to `--metrics-out`.
    pub fn write(&self, tel: &Telemetry, alerts: &[AlertEvent]) {
        for path in &self.trace_outs {
            write_out(path, &render_trace(path, tel.records(), alerts));
            eprintln!(
                "[telemetry] wrote {} ({} events)",
                path.display(),
                tel.records().len()
            );
        }
        if let Some(path) = &self.metrics_out {
            let body =
                serde_json::to_string_pretty(&tel.snapshot()).expect("snapshot always serializes");
            write_out(path, &body);
            eprintln!("[telemetry] wrote {}", path.display());
        }
    }
}

/// Renders `records` in the format `path` asks for: JSON Lines for a
/// `.jsonl` path, otherwise a Chrome trace with `alerts` as global
/// instants.
pub fn render_trace(path: &Path, records: &[TraceRecord], alerts: &[AlertEvent]) -> String {
    if is_jsonl(path) {
        to_jsonl(records)
    } else {
        to_chrome_trace_with_alerts(records, alerts)
    }
}

fn is_jsonl(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "jsonl")
}

fn write_out(path: &Path, body: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_dispatch_is_by_extension() {
        assert!(is_jsonl(Path::new("trace.jsonl")));
        assert!(!is_jsonl(Path::new("trace.json")));
        assert!(!is_jsonl(Path::new("trace")));
    }

    #[test]
    fn default_args_are_inert() {
        let args = TelemetryArgs::default();
        assert!(!args.any());
    }
}
