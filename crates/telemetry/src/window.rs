//! The windowed metrics plane: tumbling sim-time windows over the same
//! commit-ordered event stream [`MetricsHub`](crate::MetricsHub) folds
//! into end-of-run totals.
//!
//! A [`WindowedHub`] slices the run into fixed-width tumbling windows of
//! *virtual* time. Each window carries the event [`Counters`] (global and
//! per-instance, folded by the same code as the run's), per-tier hits,
//! queue-depth and occupancy gauges, and four mergeable [`LogSketch`]
//! latency distributions (TTFT, queue wait, fetch stall, prefetch
//! latency). The window counters sum to the run's by construction, and
//! because the sketches share one fixed bucket grid, merging every
//! window yields exactly the sketch of the whole run — the
//! reconciliation proptests pin both against the end-of-run
//! [`MetricsSnapshot`](crate::MetricsSnapshot).
//!
//! Events land in the window containing their own timestamp, not the
//! window being "currently" filled: the merged trace is ordered by
//! commit `seq`, and a completion event may carry a future link time, so
//! windows are kept addressable at all times and only sealed by
//! [`WindowedHub::series`]. Observation is strictly read-only, exactly
//! like the scalar hub.

use std::collections::HashMap;

use engine::{EngineEvent, EngineObserver};
use metrics::LogSketch;
use store::{FetchKind, StoreEvent};

use crate::counters::Counters;

/// One tier's slice of a window.
#[derive(Debug, Clone)]
pub struct WindowTier {
    /// Tier-stack index, fastest first.
    pub tier: usize,
    /// Store lookups that found KV resident in this tier.
    pub store_hits: u64,
    /// Occupancy at the end of the window, bytes (forward-filled from
    /// the previous window when no gauge sample landed here).
    pub occupancy_end_bytes: f64,
    /// Peak occupancy within the window, bytes.
    pub occupancy_peak_bytes: f64,
    /// Whether a gauge sample actually landed in this window.
    sampled: bool,
}

impl WindowTier {
    fn new(tier: usize) -> Self {
        WindowTier {
            tier,
            store_hits: 0,
            occupancy_end_bytes: 0.0,
            occupancy_peak_bytes: 0.0,
            sampled: false,
        }
    }
}

/// One instance's slice of a window (empty in single-engine runs, which
/// observe through the instance-blind hooks): the arrivals, admissions
/// and retirements the instance committed in the window, folded like the
/// window's own counters.
#[derive(Debug, Clone, Copy)]
pub struct WindowInstance {
    /// Instance id.
    pub instance: u32,
    /// The instance's arrivals, admissions and retirements in this
    /// window (its other counters stay zero).
    pub counters: Counters,
}

/// One tumbling window of the run: `[start_secs, end_secs)` in virtual
/// time.
#[derive(Debug, Clone)]
pub struct Window {
    /// Zero-based window index; `start_secs = index * width`.
    pub index: usize,
    /// Inclusive window start, seconds of virtual time.
    pub start_secs: f64,
    /// Exclusive window end, seconds of virtual time.
    pub end_secs: f64,
    /// Event tallies for this window.
    pub counters: Counters,
    /// Queue depth (arrived, not yet admitted) at the end of the window.
    pub queue_depth_end: u64,
    /// Peak queue depth observed within the window.
    pub queue_depth_peak: u64,
    /// Live-KV HBM reservation at the end of the window, bytes.
    pub hbm_reserved_end_bytes: f64,
    /// Service TTFTs completed in this window, seconds.
    pub ttft: LogSketch,
    /// Queue waits of jobs admitted in this window, seconds.
    pub queue_wait: LogSketch,
    /// Visible fetch stalls of prefills issued in this window, seconds.
    pub fetch_stall: LogSketch,
    /// Prefetch staging latencies completed in this window, seconds.
    pub prefetch_latency: LogSketch,
    /// Per-tier slices, fastest tier first.
    pub tiers: Vec<WindowTier>,
    /// Per-instance slices (cluster runs only).
    pub instances: Vec<WindowInstance>,
    /// Whether any queue-depth-relevant event landed in this window.
    depth_sampled: bool,
    /// Whether an HBM gauge sample landed in this window.
    hbm_sampled: bool,
}

impl Window {
    fn new(index: usize, width_secs: f64) -> Self {
        Window {
            index,
            start_secs: index as f64 * width_secs,
            end_secs: (index + 1) as f64 * width_secs,
            counters: Counters::default(),
            queue_depth_end: 0,
            queue_depth_peak: 0,
            hbm_reserved_end_bytes: 0.0,
            ttft: LogSketch::new(),
            queue_wait: LogSketch::new(),
            fetch_stall: LogSketch::new(),
            prefetch_latency: LogSketch::new(),
            tiers: Vec::new(),
            instances: Vec::new(),
            depth_sampled: false,
            hbm_sampled: false,
        }
    }

    fn tier(&mut self, tier: usize) -> &mut WindowTier {
        if self.tiers.len() <= tier {
            let from = self.tiers.len();
            self.tiers.extend((from..=tier).map(WindowTier::new));
        }
        &mut self.tiers[tier]
    }

    fn instance(&mut self, instance: u32) -> &mut WindowInstance {
        let i = instance as usize;
        if self.instances.len() <= i {
            let from = self.instances.len();
            self.instances.extend((from..=i).map(|n| WindowInstance {
                instance: n as u32,
                counters: Counters::default(),
            }));
        }
        &mut self.instances[i]
    }

    fn record_depth(&mut self, depth: u64) {
        self.queue_depth_peak = self.queue_depth_peak.max(depth);
        self.queue_depth_end = depth;
        self.depth_sampled = true;
    }
}

/// The sealed window series a [`WindowedHub`] renders at end of run:
/// contiguous, non-overlapping windows covering `[0, n * width)` with
/// gauges forward-filled across silent windows.
#[derive(Debug, Clone)]
pub struct WindowSeries {
    /// The tumbling window width, seconds of virtual time.
    pub width_secs: f64,
    /// Tier display names, fastest first (`t{i}` when never announced).
    pub tier_names: Vec<String>,
    /// The windows, index-ordered and contiguous.
    pub windows: Vec<Window>,
}

impl WindowSeries {
    /// Rolls every window up into one totals window (counters summed,
    /// sketches merged) — by construction exactly what a single-window
    /// hub would have recorded for the whole run.
    pub fn totals(&self) -> WindowTotals {
        let mut counters = Counters::default();
        let mut ttft = LogSketch::new();
        let mut queue_wait = LogSketch::new();
        let mut fetch_stall = LogSketch::new();
        let mut prefetch_latency = LogSketch::new();
        for w in &self.windows {
            counters.merge(&w.counters);
            ttft.merge(&w.ttft);
            queue_wait.merge(&w.queue_wait);
            fetch_stall.merge(&w.fetch_stall);
            prefetch_latency.merge(&w.prefetch_latency);
        }
        WindowTotals {
            counters,
            ttft,
            queue_wait,
            fetch_stall,
            prefetch_latency,
        }
    }
}

/// The end-of-run rollup of a [`WindowSeries`].
#[derive(Debug, Clone)]
pub struct WindowTotals {
    /// Summed per-window counters.
    pub counters: Counters,
    /// All TTFT samples, merged.
    pub ttft: LogSketch,
    /// All queue-wait samples, merged.
    pub queue_wait: LogSketch,
    /// All fetch-stall samples, merged.
    pub fetch_stall: LogSketch,
    /// All prefetch-latency samples, merged.
    pub prefetch_latency: LogSketch,
}

/// An [`EngineObserver`] aggregating the merged event stream into
/// tumbling windows of virtual time. Attach standalone, or through
/// [`Telemetry::with_windows`](crate::Telemetry::with_windows) to record
/// the raw trace alongside.
#[derive(Debug, Clone)]
pub struct WindowedHub {
    width_secs: f64,
    windows: Vec<Window>,
    /// Arrival time of each session's in-flight turn — the same pairing
    /// state [`MetricsHub`](crate::MetricsHub) keeps, so window queue
    /// waits reconcile sample-for-sample with the end-of-run histogram.
    /// Its size is also the observable queue depth (arrived, not yet
    /// admitted).
    arrivals: HashMap<u64, f64>,
    /// Promotion time of each session's in-flight prefetch.
    prefetch_starts: HashMap<u64, f64>,
    tier_names: Vec<Option<&'static str>>,
}

impl WindowedHub {
    /// Creates a hub slicing the run into `width_secs`-wide windows.
    ///
    /// # Panics
    /// Panics when `width_secs` is not strictly positive and finite.
    pub fn new(width_secs: f64) -> Self {
        assert!(
            width_secs > 0.0 && width_secs.is_finite(),
            "window width must be positive and finite"
        );
        WindowedHub {
            width_secs,
            windows: Vec::new(),
            arrivals: HashMap::new(),
            prefetch_starts: HashMap::new(),
            tier_names: Vec::new(),
        }
    }

    /// The configured window width, seconds.
    pub fn width_secs(&self) -> f64 {
        self.width_secs
    }

    fn window_at(&mut self, at_secs: f64) -> &mut Window {
        let idx = ((at_secs / self.width_secs).floor()).max(0.0) as usize;
        if self.windows.len() <= idx {
            let from = self.windows.len();
            let width = self.width_secs;
            self.windows
                .extend((from..=idx).map(|i| Window::new(i, width)));
        }
        &mut self.windows[idx]
    }

    fn record_depth_at(&mut self, at_secs: f64) {
        let depth = self.arrivals.len() as u64;
        self.window_at(at_secs).record_depth(depth);
    }

    /// Seals the series: windows are made contiguous from virtual time
    /// zero, and the queue-depth / occupancy / HBM gauges are forward-
    /// filled across windows no sample landed in (a silent window holds
    /// the last known level).
    pub fn series(&self) -> WindowSeries {
        let mut windows = self.windows.clone();
        let n_tiers = windows
            .iter()
            .map(|w| w.tiers.len())
            .max()
            .unwrap_or(0)
            .max(self.tier_names.len());
        let mut depth_carry = 0u64;
        let mut hbm_carry = 0.0f64;
        let mut occ_carry = vec![0.0f64; n_tiers];
        for w in &mut windows {
            for t in w.tiers.len()..n_tiers {
                w.tiers.push(WindowTier::new(t));
            }
            if w.depth_sampled {
                depth_carry = w.queue_depth_end;
            } else {
                w.queue_depth_end = depth_carry;
                w.queue_depth_peak = depth_carry;
            }
            if w.hbm_sampled {
                hbm_carry = w.hbm_reserved_end_bytes;
            } else {
                w.hbm_reserved_end_bytes = hbm_carry;
            }
            for t in &mut w.tiers {
                if t.sampled {
                    occ_carry[t.tier] = t.occupancy_end_bytes;
                } else {
                    t.occupancy_end_bytes = occ_carry[t.tier];
                    t.occupancy_peak_bytes = occ_carry[t.tier];
                }
            }
        }
        let tier_names = (0..n_tiers)
            .map(|i| match self.tier_names.get(i).copied().flatten() {
                Some(n) => n.to_string(),
                None => format!("t{i}"),
            })
            .collect();
        WindowSeries {
            width_secs: self.width_secs,
            tier_names,
            windows,
        }
    }
}

impl EngineObserver for WindowedHub {
    fn on_event(&mut self, ev: EngineEvent) {
        let at = ev.at().as_secs_f64();
        self.window_at(at).counters.on_event(ev);
        match ev {
            EngineEvent::TurnArrived { session, .. } => {
                self.arrivals.insert(session, at);
                self.record_depth_at(at);
            }
            EngineEvent::Admitted { session, .. } => {
                if let Some(arrived) = self.arrivals.remove(&session) {
                    self.window_at(at).queue_wait.push(at - arrived);
                }
                self.record_depth_at(at);
            }
            EngineEvent::PrefillTimed { stall_secs, .. } => {
                self.window_at(at).fetch_stall.push(stall_secs);
            }
            EngineEvent::PrefillDone { ttft_secs, .. } => {
                self.window_at(at).ttft.push(ttft_secs);
            }
            EngineEvent::HbmReserved { reserved_bytes, .. } => {
                let w = self.window_at(at);
                w.hbm_reserved_end_bytes = reserved_bytes as f64;
                w.hbm_sampled = true;
            }
            EngineEvent::TurnShed { session, .. } => {
                // The arrival opened a queue-depth entry; the rejection
                // closes it without an admission.
                self.arrivals.remove(&session);
                self.record_depth_at(at);
            }
            _ => {}
        }
    }

    fn on_instance_event(&mut self, instance: u32, ev: EngineEvent) {
        // Instance slices follow the turn lifecycle only, so a window
        // lists the instances that moved turns in it.
        if matches!(
            ev,
            EngineEvent::TurnArrived { .. }
                | EngineEvent::Admitted { .. }
                | EngineEvent::Retired { .. }
        ) {
            let at = ev.at().as_secs_f64();
            self.window_at(at).instance(instance).counters.on_event(ev);
        }
        self.on_event(ev);
    }

    fn wants_store_events(&self) -> bool {
        true
    }

    fn on_store_event(&mut self, ev: StoreEvent) {
        let at = ev.at().as_secs_f64();
        self.window_at(at).counters.on_store_event(ev);
        match ev {
            StoreEvent::TierConfig { tier, name, .. } => {
                if self.tier_names.len() <= tier.0 {
                    self.tier_names.resize(tier.0 + 1, None);
                }
                self.tier_names[tier.0] = Some(name);
            }
            StoreEvent::FetchHit { tier, .. } => self.window_at(at).tier(tier.0).store_hits += 1,
            StoreEvent::Promoted {
                session,
                kind: FetchKind::Prefetch,
                ..
            } => {
                self.prefetch_starts.insert(session, at);
            }
            StoreEvent::Occupancy {
                tier, used_bytes, ..
            } => {
                let t = self.window_at(at).tier(tier.0);
                t.occupancy_end_bytes = used_bytes as f64;
                t.occupancy_peak_bytes = t.occupancy_peak_bytes.max(used_bytes as f64);
                t.sampled = true;
            }
            StoreEvent::PrefetchCompleted { session, .. } => {
                if let Some(start) = self.prefetch_starts.remove(&session) {
                    self.window_at(at).prefetch_latency.push(at - start);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Time;
    use store::TierId;

    fn arrival(session: u64, at: f64) -> EngineEvent {
        EngineEvent::turn_arrived(session, 0, Time::from_secs_f64(at))
    }

    fn admitted(session: u64, at: f64) -> EngineEvent {
        EngineEvent::admitted(session, 0, 10, false, Time::from_secs_f64(at))
    }

    #[test]
    fn events_land_in_their_own_windows() {
        let mut hub = WindowedHub::new(5.0);
        hub.on_event(arrival(1, 1.0));
        hub.on_event(arrival(2, 6.0));
        hub.on_event(EngineEvent::prefill_done(1, 0.3, Time::from_secs_f64(12.0)));
        let series = hub.series();
        assert_eq!(series.windows.len(), 3);
        assert_eq!(series.windows[0].counters.turns_arrived, 1);
        assert_eq!(series.windows[1].counters.turns_arrived, 1);
        assert_eq!(series.windows[2].ttft.count(), 1);
        for (i, w) in series.windows.iter().enumerate() {
            assert_eq!(w.index, i);
            assert_eq!(w.start_secs, i as f64 * 5.0);
            assert_eq!(w.end_secs, (i + 1) as f64 * 5.0);
        }
    }

    #[test]
    fn queue_depth_tracks_arrivals_minus_admissions() {
        let mut hub = WindowedHub::new(1.0);
        hub.on_event(arrival(1, 0.1));
        hub.on_event(arrival(2, 0.2));
        hub.on_event(admitted(1, 0.5));
        hub.on_event(admitted(2, 2.5));
        let series = hub.series();
        assert_eq!(series.windows[0].queue_depth_peak, 2);
        assert_eq!(series.windows[0].queue_depth_end, 1);
        // Window 1 is silent: forward-filled from window 0.
        assert_eq!(series.windows[1].queue_depth_end, 1);
        assert_eq!(series.windows[1].queue_depth_peak, 1);
        assert_eq!(series.windows[2].queue_depth_end, 0);
    }

    #[test]
    fn queue_wait_pairs_arrival_to_admission() {
        let mut hub = WindowedHub::new(5.0);
        hub.on_event(arrival(7, 1.0));
        hub.on_event(admitted(7, 3.5));
        let series = hub.series();
        let w = &series.windows[0];
        assert_eq!(w.queue_wait.count(), 1);
        assert!((w.queue_wait.percentile(50.0).unwrap() - 2.5).abs() < 1e-9);
        // An admission without a tracked arrival contributes no sample.
        let mut hub = WindowedHub::new(5.0);
        hub.on_event(admitted(9, 3.5));
        assert_eq!(hub.series().windows[0].queue_wait.count(), 0);
    }

    #[test]
    fn occupancy_forward_fills_silent_windows() {
        let mut hub = WindowedHub::new(1.0);
        hub.on_store_event(StoreEvent::TierConfig {
            tier: TierId(0),
            name: "dram",
            capacity: 1_000,
            at: Time::ZERO,
        });
        hub.on_store_event(StoreEvent::Occupancy {
            tier: TierId(0),
            used_bytes: 700,
            at: Time::from_secs_f64(0.5),
        });
        hub.on_store_event(StoreEvent::Occupancy {
            tier: TierId(0),
            used_bytes: 300,
            at: Time::from_secs_f64(3.5),
        });
        let series = hub.series();
        assert_eq!(series.tier_names, vec!["dram".to_string()]);
        assert_eq!(series.windows[0].tiers[0].occupancy_end_bytes, 700.0);
        assert_eq!(series.windows[1].tiers[0].occupancy_end_bytes, 700.0);
        assert_eq!(series.windows[2].tiers[0].occupancy_end_bytes, 700.0);
        assert_eq!(series.windows[3].tiers[0].occupancy_end_bytes, 300.0);
        // The sampled window's peak keeps the within-window max.
        assert_eq!(series.windows[0].tiers[0].occupancy_peak_bytes, 700.0);
    }

    #[test]
    fn totals_merge_counters_and_sketches() {
        let mut hub = WindowedHub::new(2.0);
        for (s, at) in [(1u64, 0.5), (2, 2.5), (3, 4.5)] {
            hub.on_event(arrival(s, at));
            hub.on_event(EngineEvent::prefill_done(
                s,
                0.1 * s as f64,
                Time::from_secs_f64(at + 0.4),
            ));
        }
        let totals = hub.series().totals();
        assert_eq!(totals.counters.turns_arrived, 3);
        assert_eq!(totals.ttft.count(), 3);
        assert!((totals.ttft.sum() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn instance_slices_grow_on_demand() {
        let mut hub = WindowedHub::new(1.0);
        hub.on_instance_event(2, arrival(1, 0.5));
        let series = hub.series();
        let insts = &series.windows[0].instances;
        assert_eq!(insts.len(), 3);
        assert_eq!(insts[2].counters.turns_arrived, 1);
        assert_eq!(insts[0].counters.turns_arrived, 0);
        // The instance-blind tally still sees the event.
        assert_eq!(series.windows[0].counters.turns_arrived, 1);
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn zero_width_is_rejected() {
        WindowedHub::new(0.0);
    }
}
