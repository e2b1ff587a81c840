#![warn(missing_docs)]

//! Unified run telemetry for the CachedAttention simulator.
//!
//! The serving engine publishes [`EngineEvent`]s for its pipeline steps
//! (arrival, scheduling, prefill, retirement) and, when tracing is on,
//! drains the AttentionStore's [`StoreEvent`]s (tier hits, promotions,
//! evictions, occupancy gauges) after every store interaction. This
//! crate merges the two streams into one causally ordered trace and
//! aggregates it live:
//!
//! - [`TraceRecord`]/[`TraceEvent`]: one event of the merged stream,
//!   stamped with its commit-order `seq`, source and category.
//! - [`Counters`]: the one fold from events to counter increments,
//!   shared by both hubs.
//! - [`MetricsHub`]: an [`EngineObserver`] folding the stream into
//!   [`Counters`] and the `metrics` crate's primitives (per-tier hits,
//!   TTFT and queue-wait histograms, HBM and per-tier occupancy time
//!   series), rendered on demand as a [`MetricsSnapshot`].
//! - [`to_jsonl`] / [`to_chrome_trace`]: exporters for the raw trace —
//!   grep-friendly JSON Lines, and the Chrome trace-event format that
//!   Perfetto and `chrome://tracing` open directly.
//! - [`Telemetry`] + [`run_with_telemetry`]: the turnkey combination —
//!   run a config and get the report, the full trace, and the hub.
//!
//! Observation is strictly read-only: a run produces a byte-identical
//! [`RunReport`] whether observed by `NullObserver` or the full
//! [`Telemetry`] stack (the golden-report tests enforce this).

use engine::{ClusterConfig, ClusterReport, EngineConfig, EngineEvent, EngineObserver, RunReport};
use store::StoreEvent;
use workload::Trace;

mod counters;
mod export;
pub mod health;
mod hub;
pub mod span;
mod trace;
mod window;

pub use counters::Counters;
pub use export::{
    to_chrome_trace, to_chrome_trace_two_clock, to_chrome_trace_with_alerts, to_jsonl,
    to_prometheus, windows_to_jsonl,
};
pub use health::{
    default_rules, AlertEvent, AlertKind, AlertRule, HealthPoint, HealthSignals, Signal, SloConfig,
};
pub use hub::{InstanceMetrics, MetricsHub, MetricsSnapshot};
pub use span::{Bottleneck, ProfileSummary, Span, SpanForest, TierStats, TurnSpan};
pub use trace::{check_record, TraceEvent, TraceRecord, TRACE_SCHEMA};
pub use window::{Window, WindowInstance, WindowSeries, WindowTier, WindowTotals, WindowedHub};

/// The full telemetry stack: records the merged event trace verbatim
/// and feeds every event through a [`MetricsHub`].
///
/// Use [`run_with_telemetry`] to drive a run with one attached, then
/// export [`Telemetry::records`] with [`to_jsonl`]/[`to_chrome_trace`]
/// and summarize with [`Telemetry::snapshot`].
#[derive(Debug, Default)]
pub struct Telemetry {
    records: Vec<TraceRecord>,
    hub: MetricsHub,
    windows: Option<WindowedHub>,
}

impl Telemetry {
    /// A fresh, empty telemetry collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A collector that additionally slices the run into tumbling
    /// windows of `width_secs` virtual time (the streaming plane the
    /// health signals and alert rules are computed from).
    pub fn with_windows(width_secs: f64) -> Self {
        Telemetry {
            windows: Some(WindowedHub::new(width_secs)),
            ..Self::default()
        }
    }

    /// The windowed aggregator, when enabled via
    /// [`with_windows`](Self::with_windows).
    pub fn windows(&self) -> Option<&WindowedHub> {
        self.windows.as_ref()
    }

    /// Seals and returns the window series (`None` unless constructed
    /// with [`with_windows`](Self::with_windows)).
    pub fn window_series(&self) -> Option<WindowSeries> {
        self.windows.as_ref().map(WindowedHub::series)
    }

    /// The merged trace in commit order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The live metrics aggregator.
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
    }

    /// Renders the hub's current aggregates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.hub.snapshot()
    }

    fn push(&mut self, instance: Option<u32>, ev: TraceEvent) {
        let seq = self.records.len() as u64;
        self.records.push(TraceRecord { seq, instance, ev });
    }
}

impl EngineObserver for Telemetry {
    fn on_event(&mut self, ev: EngineEvent) {
        sim::scope!("telemetry.dispatch");
        self.push(None, TraceEvent::Engine(ev));
        self.hub.on_event(ev);
        if let Some(w) = self.windows.as_mut() {
            w.on_event(ev);
        }
    }

    fn on_instance_event(&mut self, instance: u32, ev: EngineEvent) {
        sim::scope!("telemetry.dispatch");
        self.push(Some(instance), TraceEvent::Engine(ev));
        self.hub.on_instance_event(instance, ev);
        if let Some(w) = self.windows.as_mut() {
            w.on_instance_event(instance, ev);
        }
    }

    fn wants_store_events(&self) -> bool {
        true
    }

    fn on_store_event(&mut self, ev: StoreEvent) {
        sim::scope!("telemetry.dispatch");
        self.push(None, TraceEvent::Store(ev));
        self.hub.on_store_event(ev);
        if let Some(w) = self.windows.as_mut() {
            w.on_store_event(ev);
        }
    }

    fn on_instance_store_event(&mut self, instance: u32, ev: StoreEvent) {
        sim::scope!("telemetry.dispatch");
        // Events that carry their own owner attribution (promotions,
        // demotions, prefetch completions) keep it; the rest are tagged
        // with the instance whose pipeline step drained them.
        let inst = ev.instance().unwrap_or(instance);
        self.push(Some(inst), TraceEvent::Store(ev));
        self.hub.on_instance_store_event(inst, ev);
        if let Some(w) = self.windows.as_mut() {
            w.on_instance_store_event(inst, ev);
        }
    }
}

/// Runs `trace` under `cfg` with the full telemetry stack attached.
///
/// The returned [`RunReport`] is byte-identical to an unobserved run of
/// the same config; the [`Telemetry`] holds the merged event trace and
/// the aggregated metrics.
pub fn run_with_telemetry(cfg: EngineConfig, trace: Trace) -> (RunReport, Telemetry) {
    engine::run_with_observer(cfg, trace, Telemetry::new())
}

/// Runs a cluster under `cfg` with the full telemetry stack attached.
///
/// Every trace record is tagged with the serving instance it ran on, the
/// hub folds per-instance aggregates next to the global ones, and the
/// Chrome exporter renders each instance as its own Perfetto process.
pub fn run_cluster_with_telemetry(cfg: ClusterConfig, trace: Trace) -> (ClusterReport, Telemetry) {
    engine::run_cluster_with_observer(cfg, trace, Telemetry::new())
}

/// [`run_with_telemetry`] with the windowed plane enabled: the returned
/// [`Telemetry`] additionally carries a [`WindowedHub`] slicing the run
/// into `width_secs`-wide tumbling windows.
pub fn run_with_windowed_telemetry(
    cfg: EngineConfig,
    trace: Trace,
    width_secs: f64,
) -> (RunReport, Telemetry) {
    engine::run_with_observer(cfg, trace, Telemetry::with_windows(width_secs))
}

/// [`run_cluster_with_telemetry`] with the windowed plane enabled.
pub fn run_cluster_with_windowed_telemetry(
    cfg: ClusterConfig,
    trace: Trace,
    width_secs: f64,
) -> (ClusterReport, Telemetry) {
    engine::run_cluster_with_observer(cfg, trace, Telemetry::with_windows(width_secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Mode;
    use models::ModelSpec;
    use workload::{Generator, ShareGptProfile};

    fn small_cfg(mode: Mode) -> (EngineConfig, Trace) {
        let trace = Generator::new(ShareGptProfile::default(), 7).trace(12);
        let cfg = EngineConfig::paper(mode, ModelSpec::llama2_13b());
        (cfg, trace)
    }

    #[test]
    fn telemetry_run_matches_plain_run() {
        let (cfg, trace) = small_cfg(Mode::CachedAttention);
        let plain = engine::run_trace(cfg.clone(), trace.clone());
        let (observed, tel) = run_with_telemetry(cfg, trace);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&observed).unwrap()
        );
        assert!(!tel.records().is_empty());
    }

    #[test]
    fn merged_stream_has_both_sources_and_dense_seq() {
        let (cfg, trace) = small_cfg(Mode::CachedAttention);
        let (_report, tel) = run_with_telemetry(cfg, trace);
        let recs = tel.records();
        assert!(recs.iter().any(|r| matches!(r.ev, TraceEvent::Engine(_))));
        assert!(recs.iter().any(|r| matches!(r.ev, TraceEvent::Store(_))));
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn hub_counts_agree_with_trace() {
        let (cfg, trace) = small_cfg(Mode::CachedAttention);
        let (_report, tel) = run_with_telemetry(cfg, trace);
        let snap = tel.snapshot();
        let arrived = tel
            .records()
            .iter()
            .filter(|r| r.ev.kind() == "turn_arrived")
            .count() as u64;
        assert_eq!(snap.counters.turns_arrived, arrived);
    }
}
