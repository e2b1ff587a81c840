//! Extension experiment: the online observability plane watching a
//! bursty run.
//!
//! `exp_watch` replays the ShareGPT workload under a two-phase MMPP
//! arrival process (the same burst model as `exp_ext_bursty`) with the
//! windowed telemetry plane attached: tumbling windows of virtual time,
//! per-window health signals ([`HealthSignals`]), and the deterministic
//! alert-rules engine ([`default_rules`]) firing on queue buildup, SLO
//! burn and fault storms. The rendered report is the window table, a
//! queue-depth sparkline, and the alert timeline — the same artifacts
//! the windowed-JSONL export carries for `trace_check --windows`.

use engine::{EngineConfig, Mode, RunReport};
use models::ModelSpec;
use telemetry::{
    default_rules, run_with_windowed_telemetry, AlertEvent, AlertKind, HealthSignals, SloConfig,
    Telemetry, WindowSeries,
};
use workload::{Burstiness, Generator, ShareGptProfile};

use crate::{scaled_config, Scale, DEFAULT_SEED};

/// Default tumbling window width, seconds of virtual time.
pub const DEFAULT_WINDOW_SECS: f64 = 60.0;

/// Everything one watched run produces.
pub struct WatchRun {
    /// The unobserved-identical run report.
    pub report: RunReport,
    /// The full telemetry stack (trace + scalar hub + windowed hub).
    pub telemetry: Telemetry,
    /// The sealed window series.
    pub series: WindowSeries,
    /// Per-window health signals scored against the SLO.
    pub signals: HealthSignals,
    /// The alert transitions the stock rule set produced.
    pub alerts: Vec<AlertEvent>,
}

/// The bursty CachedAttention config the watch runs under.
pub fn watch_config(scale: Scale) -> EngineConfig {
    scaled_config(Mode::CachedAttention, ModelSpec::llama2_13b(), scale)
}

/// Runs the bursty workload with the windowed plane attached and scores
/// it against `slo`.
pub fn run_watch(scale: Scale, window_secs: f64, slo: SloConfig) -> WatchRun {
    let profile = ShareGptProfile::default().with_burstiness(Burstiness::default());
    let trace = Generator::new(profile, DEFAULT_SEED).trace(scale.sessions);
    let (report, telemetry) = run_with_windowed_telemetry(watch_config(scale), trace, window_secs);
    let series = telemetry
        .window_series()
        .expect("windowed telemetry always carries a series");
    let signals = HealthSignals::from_series(&series, &slo);
    let alerts = signals.evaluate(&default_rules(window_secs));
    WatchRun {
        report,
        telemetry,
        series,
        signals,
        alerts,
    }
}

/// Renders a u64 series as a unicode sparkline (one glyph per sample,
/// scaled to the series max).
pub fn sparkline(values: &[u64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 {
                GLYPHS[0]
            } else {
                GLYPHS[(v as usize * (GLYPHS.len() - 1))
                    .div_ceil(max as usize)
                    .min(7)]
            }
        })
        .collect()
}

/// Renders the watch report: window table (strided to at most
/// `max_rows`), queue-depth sparkline, and the alert timeline.
pub fn render(run: &WatchRun, max_rows: usize) -> String {
    let mut out = String::new();
    let n = run.series.windows.len();
    out.push_str(&format!(
        "watch: {} windows x {:.0}s (SLO: ttft p99 <= {:.3}s)\n",
        n, run.series.width_secs, run.signals.slo.ttft_p99_target_secs
    ));
    out.push_str(&format!(
        "{:>4} {:>10} {:>7} {:>7} {:>7} {:>6} {:>10} {:>8} {:>8}\n",
        "win", "t_start", "arrived", "admit", "retired", "q_end", "ttft_p99", "burn", "faults/s"
    ));
    let opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    };
    let stride = n.div_ceil(max_rows.max(1)).max(1);
    for (w, p) in run
        .series
        .windows
        .iter()
        .zip(&run.signals.points)
        .step_by(stride)
    {
        out.push_str(&format!(
            "{:>4} {:>9.0}s {:>7} {:>7} {:>7} {:>6} {:>10} {:>8} {:>8.3}\n",
            w.index,
            w.start_secs,
            w.counters.turns_arrived,
            w.counters.admitted,
            w.counters.retired,
            w.queue_depth_end,
            opt(p.ttft_p99_secs),
            opt(p.slo_burn_rate),
            p.fault_rate_per_sec,
        ));
    }
    if stride > 1 {
        out.push_str(&format!(
            "  (every {stride}th window of {n}; full series in the windowed JSONL)\n"
        ));
    }
    let depths: Vec<u64> = run
        .series
        .windows
        .iter()
        .map(|w| w.queue_depth_end)
        .collect();
    out.push_str(&format!("queue depth  {}\n", sparkline(&depths)));
    if run.alerts.is_empty() {
        out.push_str("alerts: none fired\n");
    } else {
        out.push_str(&format!("alerts ({}):\n", run.alerts.len()));
        for a in &run.alerts {
            out.push_str(&format!(
                "  {:>9.0}s {:<14} {:<16} (window {}, {} = {:.3})\n",
                a.at_secs,
                a.kind.label(),
                a.rule,
                a.window,
                a.signal,
                a.value
            ));
        }
        let open: Vec<&AlertEvent> = run
            .alerts
            .iter()
            .filter(|a| {
                a.kind == AlertKind::Fired
                    && !run.alerts.iter().any(|b| {
                        b.kind == AlertKind::Resolved && b.rule == a.rule && b.at_secs > a.at_secs
                    })
            })
            .collect();
        if !open.is_empty() {
            out.push_str(&format!(
                "  still open at end of run: {}\n",
                open.iter()
                    .map(|a| a.rule.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            sessions: 40,
            warmup_turns: 0,
        }
    }

    #[test]
    fn watch_run_is_deterministic_and_contiguous() {
        let a = run_watch(tiny(), 30.0, SloConfig::new(1.0));
        let b = run_watch(tiny(), 30.0, SloConfig::new(1.0));
        assert_eq!(a.series.windows.len(), b.series.windows.len());
        assert_eq!(a.alerts.len(), b.alerts.len());
        for (x, y) in a.alerts.iter().zip(&b.alerts) {
            assert_eq!(x.rule, y.rule);
            assert_eq!(x.window, y.window);
        }
        for (i, w) in a.series.windows.iter().enumerate() {
            assert_eq!(w.index, i);
        }
        // The windowed plane reconciles with the scalar hub's totals.
        let totals = a.series.totals();
        let snap = a.telemetry.snapshot();
        assert_eq!(totals.counters, snap.counters);
        assert_eq!(totals.ttft.count(), snap.ttft_count);
    }

    #[test]
    fn render_includes_table_sparkline_and_alert_section() {
        let run = run_watch(tiny(), 30.0, SloConfig::new(1.0));
        let text = render(&run, 12);
        assert!(text.contains("watch:"));
        assert!(text.contains("ttft_p99"));
        assert!(text.contains("queue depth"));
        assert!(text.contains("alert"));
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let s = sparkline(&[0, 1, 8]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }
}
