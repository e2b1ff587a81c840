//! Streaming SLO signals and the deterministic alert-rules engine.
//!
//! [`HealthSignals`] derives one [`HealthPoint`] per tumbling window of a
//! [`WindowSeries`]: queue depth, rolling TTFT p99,
//! the p99 error-budget *burn rate* against a configurable SLO target,
//! per-tier occupancy slope, and fault-event rates. An [`AlertRule`]
//! (threshold + sustain duration + hysteresis) is evaluated over that
//! series, emitting [`AlertEvent`]s (`AlertFired` / `AlertResolved`)
//! pinned to window boundaries — everything is a pure function of the
//! window series and the rule set, so alert timelines are bit-reproducible
//! across runs, exactly like the rest of the simulator.
//!
//! Semantics, evaluated per window in index order:
//! - a rule *breaches* in a window when its signal is **strictly above**
//!   `threshold`; once the breach has persisted for `sustain_secs` of
//!   contiguous windows the rule fires at that window's end.
//! - an active alert *resolves* at the end of the first window whose
//!   signal is **at or below** `clear_below` (set it under `threshold`
//!   for hysteresis, so a signal oscillating across the threshold does
//!   not flap).
//! - a window with no latency samples evaluates latency-derived signals
//!   as 0 (no traffic is healthy traffic).

use serde::{Serialize, Value};

use crate::window::WindowSeries;

/// The SLO quantile the burn-rate signal budgets against (p99).
const BURN_QUANTILE: f64 = 0.99;

/// The service-level objective the health layer scores against.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SloConfig {
    /// The TTFT the p99 must stay under, seconds.
    pub ttft_p99_target_secs: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            ttft_p99_target_secs: 1.0,
        }
    }
}

impl SloConfig {
    /// An SLO of "p99 TTFT stays under `target_secs`".
    pub fn new(target_secs: f64) -> Self {
        SloConfig {
            ttft_p99_target_secs: target_secs,
        }
    }
}

/// One window's derived health signals.
#[derive(Debug, Clone)]
pub struct HealthPoint {
    /// The window index this point describes.
    pub index: usize,
    /// Window start, seconds of virtual time.
    pub start_secs: f64,
    /// Window end, seconds of virtual time.
    pub end_secs: f64,
    /// Queue depth at the end of the window.
    pub queue_depth_end: u64,
    /// Peak queue depth within the window.
    pub queue_depth_peak: u64,
    /// Turn arrivals per second of virtual time.
    pub arrival_rate_per_sec: f64,
    /// Rolling TTFT p99 over this window's completions (`None` when no
    /// prefill finished in the window).
    pub ttft_p99_secs: Option<f64>,
    /// p99 error-budget burn rate: the fraction of this window's TTFT
    /// samples over the SLO target, divided by the budget (1 − 0.99).
    /// 1.0 means the window consumed its budget exactly; above 1.0 the
    /// SLO is burning down. `None` when no samples landed.
    pub slo_burn_rate: Option<f64>,
    /// Fault-stream events (retries, failures, corruptions, crashes,
    /// reroutes, recompute fallbacks) per second of virtual time.
    pub fault_rate_per_sec: f64,
    /// Per-tier occupancy slope, bytes per second of virtual time
    /// (end-of-window level minus the previous window's, over the
    /// width). Positive slopes mean the tier is filling.
    pub occupancy_slope_bytes_per_sec: Vec<f64>,
}

/// The live signal a rule watches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Signal {
    /// Peak queue depth in the window.
    QueueDepth,
    /// Rolling TTFT p99, seconds (0 when the window had no samples).
    TtftP99Secs,
    /// p99 error-budget burn rate (0 when the window had no samples).
    SloBurnRate,
    /// Fault events per second.
    FaultRate,
    /// Occupancy slope of one tier, bytes per second.
    TierOccupancySlope(usize),
}

impl Signal {
    /// The signal's value in one window (missing signals read as 0).
    pub fn value(&self, p: &HealthPoint) -> f64 {
        match self {
            Signal::QueueDepth => p.queue_depth_peak as f64,
            Signal::TtftP99Secs => p.ttft_p99_secs.unwrap_or(0.0),
            Signal::SloBurnRate => p.slo_burn_rate.unwrap_or(0.0),
            Signal::FaultRate => p.fault_rate_per_sec,
            Signal::TierOccupancySlope(t) => p
                .occupancy_slope_bytes_per_sec
                .get(*t)
                .copied()
                .unwrap_or(0.0),
        }
    }

    /// Stable snake-case label, used in exports.
    pub fn label(&self) -> String {
        match self {
            Signal::QueueDepth => "queue_depth".to_string(),
            Signal::TtftP99Secs => "ttft_p99_secs".to_string(),
            Signal::SloBurnRate => "slo_burn_rate".to_string(),
            Signal::FaultRate => "fault_rate_per_sec".to_string(),
            Signal::TierOccupancySlope(t) => format!("tier{t}_occupancy_slope"),
        }
    }
}

/// A deterministic alerting rule: threshold, sustain duration and
/// hysteresis, all in virtual time.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// The rule's display name (also the pairing key in exports).
    pub name: String,
    /// The signal watched.
    pub signal: Signal,
    /// Fire once the signal stays strictly above this for
    /// [`sustain_secs`](Self::sustain_secs).
    pub threshold: f64,
    /// Resolve once the signal is at or below this (defaults to 80% of
    /// the threshold).
    pub clear_below: f64,
    /// How long the breach must persist before firing (0 fires at the
    /// first breaching window's end).
    pub sustain_secs: f64,
}

impl AlertRule {
    /// A rule firing when `signal > threshold`, with default hysteresis
    /// (clear at 80% of the threshold) and no sustain requirement.
    pub fn new(name: impl Into<String>, signal: Signal, threshold: f64) -> Self {
        AlertRule {
            name: name.into(),
            signal,
            threshold,
            clear_below: threshold * 0.8,
            sustain_secs: 0.0,
        }
    }

    /// Requires the breach to persist `secs` of virtual time.
    pub fn sustain(mut self, secs: f64) -> Self {
        self.sustain_secs = secs;
        self
    }

    /// Sets the hysteresis clear level.
    pub fn clear_below(mut self, level: f64) -> Self {
        self.clear_below = level;
        self
    }
}

/// Whether an [`AlertEvent`] opened or closed an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// The rule's breach sustained long enough: the alert opened.
    Fired,
    /// The signal dropped to the clear level: the alert closed.
    Resolved,
}

impl AlertKind {
    /// Stable snake-case label (`alert_fired` / `alert_resolved`).
    pub fn label(&self) -> &'static str {
        match self {
            AlertKind::Fired => "alert_fired",
            AlertKind::Resolved => "alert_resolved",
        }
    }
}

/// One alert transition, pinned to a window boundary of virtual time.
#[derive(Debug, Clone)]
pub struct AlertEvent {
    /// The rule that transitioned.
    pub rule: String,
    /// The signal label the rule watches.
    pub signal: String,
    /// Fired or resolved.
    pub kind: AlertKind,
    /// The window whose evaluation caused the transition.
    pub window: usize,
    /// The transition time (that window's end), seconds of virtual time.
    pub at_secs: f64,
    /// The signal's value in the deciding window.
    pub value: f64,
}

impl Serialize for AlertEvent {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".into(), Value::Str(self.kind.label().to_string())),
            ("rule".into(), Value::Str(self.rule.clone())),
            ("signal".into(), Value::Str(self.signal.clone())),
            ("window".into(), Value::U64(self.window as u64)),
            ("at".into(), Value::F64(self.at_secs)),
            ("value".into(), Value::F64(self.value)),
        ])
    }
}

/// The derived health series of one run.
#[derive(Debug, Clone)]
pub struct HealthSignals {
    /// The SLO the burn rate was computed against.
    pub slo: SloConfig,
    /// One point per window, index-ordered.
    pub points: Vec<HealthPoint>,
}

impl HealthSignals {
    /// Computes the per-window health signals of a sealed series.
    pub fn from_series(series: &WindowSeries, slo: &SloConfig) -> Self {
        let width = series.width_secs;
        let mut prev_occ: Vec<f64> = Vec::new();
        let points = series
            .windows
            .iter()
            .map(|w| {
                let slope: Vec<f64> = w
                    .tiers
                    .iter()
                    .map(|t| {
                        let prev = prev_occ.get(t.tier).copied().unwrap_or(0.0);
                        (t.occupancy_end_bytes - prev) / width
                    })
                    .collect();
                prev_occ = w.tiers.iter().map(|t| t.occupancy_end_bytes).collect();
                let burn = (w.ttft.count() > 0).then(|| {
                    let over = w.ttft.count_over(slo.ttft_p99_target_secs) as f64;
                    over / w.ttft.count() as f64 / (1.0 - BURN_QUANTILE)
                });
                HealthPoint {
                    index: w.index,
                    start_secs: w.start_secs,
                    end_secs: w.end_secs,
                    queue_depth_end: w.queue_depth_end,
                    queue_depth_peak: w.queue_depth_peak,
                    arrival_rate_per_sec: w.counters.turns_arrived as f64 / width,
                    ttft_p99_secs: w.ttft.percentile(99.0),
                    slo_burn_rate: burn,
                    fault_rate_per_sec: w.counters.fault_events() as f64 / width,
                    occupancy_slope_bytes_per_sec: slope,
                }
            })
            .collect();
        HealthSignals { slo: *slo, points }
    }

    /// Evaluates `rules` over the series, returning every alert
    /// transition in chronological (window, then rule) order.
    pub fn evaluate(&self, rules: &[AlertRule]) -> Vec<AlertEvent> {
        struct RuleState {
            active: bool,
            breach_since: Option<f64>,
        }
        let mut states: Vec<RuleState> = rules
            .iter()
            .map(|_| RuleState {
                active: false,
                breach_since: None,
            })
            .collect();
        let mut events = Vec::new();
        for p in &self.points {
            for (rule, state) in rules.iter().zip(states.iter_mut()) {
                let v = rule.signal.value(p);
                if state.active {
                    if v <= rule.clear_below {
                        state.active = false;
                        state.breach_since = None;
                        events.push(AlertEvent {
                            rule: rule.name.clone(),
                            signal: rule.signal.label(),
                            kind: AlertKind::Resolved,
                            window: p.index,
                            at_secs: p.end_secs,
                            value: v,
                        });
                    }
                } else if v > rule.threshold {
                    let since = *state.breach_since.get_or_insert(p.start_secs);
                    if p.end_secs - since >= rule.sustain_secs {
                        state.active = true;
                        events.push(AlertEvent {
                            rule: rule.name.clone(),
                            signal: rule.signal.label(),
                            kind: AlertKind::Fired,
                            window: p.index,
                            at_secs: p.end_secs,
                            value: v,
                        });
                    }
                } else {
                    state.breach_since = None;
                }
            }
        }
        events
    }
}

/// The stock rule set the `exp_watch` experiment (and the future
/// autoscaler) watches: queue buildup, SLO burn and fault storms, with
/// sustain windows scaled to the series' window width.
pub fn default_rules(width_secs: f64) -> Vec<AlertRule> {
    vec![
        AlertRule::new("queue_depth_high", Signal::QueueDepth, 8.0)
            .sustain(2.0 * width_secs)
            .clear_below(4.0),
        AlertRule::new("ttft_slo_burn", Signal::SloBurnRate, 1.0)
            .sustain(2.0 * width_secs)
            .clear_below(0.5),
        AlertRule::new("fault_storm", Signal::FaultRate, 0.1).clear_below(0.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowedHub;
    use engine::{EngineEvent, EngineObserver};
    use sim::Time;

    /// Drives a hub so that windows 0..n hold one TTFT sample each.
    fn series_with_ttfts(width: f64, ttfts: &[f64]) -> WindowSeries {
        let mut hub = WindowedHub::new(width);
        for (i, &t) in ttfts.iter().enumerate() {
            hub.on_event(EngineEvent::PrefillDone {
                session: i as u64,
                ttft_secs: t,
                at: Time::from_secs_f64(i as f64 * width + width / 2.0),
            });
        }
        hub.series()
    }

    #[test]
    fn burn_rate_scores_against_the_target() {
        let series = series_with_ttfts(1.0, &[0.1, 2.0]);
        let signals = HealthSignals::from_series(&series, &SloConfig::new(1.0));
        // Window 0: sample under target → zero burn.
        assert_eq!(signals.points[0].slo_burn_rate, Some(0.0));
        // Window 1: every sample over target → burn = 1/0.01 = 100.
        let burn = signals.points[1].slo_burn_rate.unwrap();
        assert!((burn - 100.0).abs() < 1e-9, "{burn}");
        assert_eq!(signals.points[1].ttft_p99_secs, Some(2.0));
    }

    #[test]
    fn empty_windows_have_no_latency_signal() {
        let mut hub = WindowedHub::new(1.0);
        hub.on_event(EngineEvent::TurnArrived {
            session: 1,
            turn: 0,
            at: Time::from_secs_f64(2.5),
        });
        let signals = HealthSignals::from_series(&hub.series(), &SloConfig::default());
        assert_eq!(signals.points[0].ttft_p99_secs, None);
        assert_eq!(signals.points[0].slo_burn_rate, None);
        assert!((signals.points[2].arrival_rate_per_sec - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sustain_delays_firing() {
        // Burn is over threshold from window 0 on; with a 2 s sustain on
        // 1 s windows the alert fires at the end of window 1.
        let series = series_with_ttfts(1.0, &[5.0, 5.0, 5.0]);
        let signals = HealthSignals::from_series(&series, &SloConfig::new(1.0));
        let rules = [AlertRule::new("burn", Signal::SloBurnRate, 1.0).sustain(2.0)];
        let events = signals.evaluate(&rules);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AlertKind::Fired);
        assert_eq!(events[0].window, 1);
        assert_eq!(events[0].at_secs, 2.0);
    }

    #[test]
    fn interrupted_breaches_reset_the_sustain_clock() {
        // over, under, over, over: a 2 s sustain only completes on the
        // second contiguous streak.
        let series = series_with_ttfts(1.0, &[5.0, 0.1, 5.0, 5.0]);
        let signals = HealthSignals::from_series(&series, &SloConfig::new(1.0));
        let rules = [AlertRule::new("burn", Signal::SloBurnRate, 1.0).sustain(2.0)];
        let events = signals.evaluate(&rules);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].window, 3);
    }

    #[test]
    fn hysteresis_requires_the_clear_level() {
        // Fire on 5.0, then hover between clear (0.5) and threshold
        // (1.0): the alert must stay open until the signal reaches 0.5.
        let series = series_with_ttfts(1.0, &[5.0, 5.0, 0.1]);
        let signals = HealthSignals::from_series(&series, &SloConfig::new(1.0));
        // p99 signal: values 5.0, 5.0, 0.1 with threshold 2.0, clear 1.0.
        let rules = [AlertRule::new("ttft", Signal::TtftP99Secs, 2.0).clear_below(1.0)];
        let events = signals.evaluate(&rules);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, AlertKind::Fired);
        assert_eq!(events[0].window, 0);
        assert_eq!(events[1].kind, AlertKind::Resolved);
        assert_eq!(events[1].window, 2);
        assert_eq!(events[1].at_secs, 3.0);
    }

    #[test]
    fn open_alerts_stay_open_at_eof() {
        let series = series_with_ttfts(1.0, &[5.0, 5.0]);
        let signals = HealthSignals::from_series(&series, &SloConfig::new(1.0));
        let rules = [AlertRule::new("ttft", Signal::TtftP99Secs, 2.0)];
        let events = signals.evaluate(&rules);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AlertKind::Fired);
    }

    #[test]
    fn occupancy_slope_tracks_fill_rate() {
        use store::{StoreEvent, TierId};
        let mut hub = WindowedHub::new(2.0);
        for (at, bytes) in [(0.5, 100u64), (2.5, 500), (4.5, 300)] {
            hub.on_store_event(StoreEvent::Occupancy {
                tier: TierId(0),
                used_bytes: bytes,
                at: Time::from_secs_f64(at),
            });
        }
        let signals = HealthSignals::from_series(&hub.series(), &SloConfig::default());
        assert!((signals.points[0].occupancy_slope_bytes_per_sec[0] - 50.0).abs() < 1e-9);
        assert!((signals.points[1].occupancy_slope_bytes_per_sec[0] - 200.0).abs() < 1e-9);
        assert!((signals.points[2].occupancy_slope_bytes_per_sec[0] + 100.0).abs() < 1e-9);
    }

    #[test]
    fn default_rules_cover_queue_burn_and_faults() {
        let rules = default_rules(5.0);
        assert_eq!(rules.len(), 3);
        assert!(rules.iter().any(|r| r.signal == Signal::QueueDepth));
        assert!(rules.iter().any(|r| r.signal == Signal::SloBurnRate));
        assert!(rules.iter().any(|r| r.signal == Signal::FaultRate));
        // Hysteresis is real: every clear level sits under its threshold.
        for r in &rules {
            assert!(r.clear_below < r.threshold);
        }
    }
}
