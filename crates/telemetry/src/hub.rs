//! The live metrics hub: an observer aggregating both event streams into
//! the `metrics` primitives as the run executes.
//!
//! Where [`RunReport`](engine::RunReport) is the simulator's own
//! accounting (computed from internal state, warmup-filtered), the
//! [`MetricsHub`] rebuilds the same figures purely from the observable
//! event stream — per-tier hit counters, TTFT and queue-wait histograms,
//! HBM and per-tier occupancy curves — which is exactly what a production
//! telemetry agent would see. With zero warmup turns the hub's hit
//! counts reconcile with the report's, which the integration tests pin.

use std::collections::HashMap;

use engine::{EngineEvent, EngineObserver};
use metrics::{Histogram, TimeSeries};
use serde::Serialize;
use store::{FetchKind, StoreEvent, TierId};

use crate::counters::Counters;

/// Bucket width of the occupancy gauge curves, seconds.
const GAUGE_BUCKET_SECS: f64 = 1.0;

/// An [`EngineObserver`] that aggregates live into metrics primitives.
///
/// Attach it with [`engine::run_with_observer`] (or through
/// [`Telemetry`](crate::Telemetry)); render the aggregates with
/// [`snapshot`](MetricsHub::snapshot). Observation is read-only: a run
/// with a hub attached produces a byte-identical `RunReport`.
#[derive(Debug, Clone)]
pub struct MetricsHub {
    /// The run's event tallies (the shared [`Counters`] fold).
    counters: Counters,
    /// Runs of consecutive deferrals of one session, among deferrals.
    deferred_runs: u64,
    /// The session the current deferral run belongs to.
    last_deferred: Option<u64>,
    ttft: Histogram,
    queue_wait: Histogram,
    /// Visible fetch-stall share of each issued prefill, seconds.
    fetch_stall: Histogram,
    /// Pure compute share of each issued prefill, seconds.
    prefill_compute: Histogram,
    /// Total KV transfer time the reuses required, seconds.
    kv_load_secs: f64,
    /// Share of that transfer hidden under prefill compute (§3.2.1).
    kv_hidden_secs: f64,
    /// Prefetch staging latency (promotion → completion), seconds.
    prefetch_latency: Histogram,
    /// Promotion time of each session's in-flight prefetch.
    prefetch_starts: HashMap<u64, f64>,
    hbm_reserved: TimeSeries,
    /// Arrival time of each session's in-flight turn, for queue waits.
    arrivals: HashMap<u64, f64>,
    // Store-stream slices per tier-stack index. They grow on demand as
    // events reference deeper tiers; names come from the `tier_config`
    // records a tracing store emits up front (falling back to the `t{i}`
    // index label).
    tier_names: Vec<Option<&'static str>>,
    store_hits_by_tier: Vec<u64>,
    occupancy_by_tier: Vec<TimeSeries>,
    // Per-instance slices, grown on demand as the cluster's
    // instance-tagged observer hooks report new instance ids.
    per_instance: Vec<InstanceAgg>,
}

/// One instance's slice: the events attributed to it, folded the same
/// way as the run's.
#[derive(Debug, Clone, Default)]
struct InstanceAgg {
    counters: Counters,
    /// Turns this instance lost to reroutes (billed to the instance the
    /// turn left, not the survivor that emitted the event).
    turns_rerouted_away: u64,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub::new()
    }
}

impl MetricsHub {
    /// Creates an empty hub (1-second gauge buckets).
    pub fn new() -> Self {
        MetricsHub {
            counters: Counters::default(),
            deferred_runs: 0,
            last_deferred: None,
            ttft: Histogram::new(),
            queue_wait: Histogram::new(),
            fetch_stall: Histogram::new(),
            prefill_compute: Histogram::new(),
            kv_load_secs: 0.0,
            kv_hidden_secs: 0.0,
            prefetch_latency: Histogram::new(),
            prefetch_starts: HashMap::new(),
            hbm_reserved: TimeSeries::new(GAUGE_BUCKET_SECS),
            arrivals: HashMap::new(),
            tier_names: Vec::new(),
            store_hits_by_tier: Vec::new(),
            occupancy_by_tier: Vec::new(),
            per_instance: Vec::new(),
        }
    }

    /// The per-instance slice for `instance`, grown on demand.
    fn instance_agg(&mut self, instance: u32) -> &mut InstanceAgg {
        let i = instance as usize;
        if self.per_instance.len() <= i {
            self.per_instance.resize_with(i + 1, InstanceAgg::default);
        }
        &mut self.per_instance[i]
    }

    /// Grows the per-tier slices so index `tier` is addressable.
    fn grow_tiers(&mut self, tier: TierId) {
        let n = tier.0 + 1;
        if self.tier_names.len() < n {
            self.tier_names.resize(n, None);
        }
        if self.store_hits_by_tier.len() < n {
            self.store_hits_by_tier.resize(n, 0);
        }
        if self.occupancy_by_tier.len() < n {
            self.occupancy_by_tier
                .resize_with(n, || TimeSeries::new(GAUGE_BUCKET_SECS));
        }
    }

    /// Renders the per-tier store-stream slices, fastest tier first.
    fn tier_metrics(&self) -> Vec<TierMetrics> {
        (0..self
            .store_hits_by_tier
            .len()
            .max(self.occupancy_by_tier.len())
            .max(self.tier_names.len()))
            .map(|i| TierMetrics {
                tier: i,
                name: match self.tier_names.get(i).copied().flatten() {
                    Some(n) => n.to_string(),
                    None => format!("t{i}"),
                },
                store_hits: self.store_hits_by_tier.get(i).copied().unwrap_or(0),
                occupancy_peak_bytes: self.occupancy_by_tier.get(i).map_or(0.0, TimeSeries::peak),
                occupancy_timeline: self
                    .occupancy_by_tier
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| TimeSeries::new(GAUGE_BUCKET_SECS)),
            })
            .collect()
    }

    /// Renders the current aggregates as a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut ttft = self.ttft.clone();
        let mut queue_wait = self.queue_wait.clone();
        let mut prefetch_latency = self.prefetch_latency.clone();
        MetricsSnapshot {
            counters: self.counters,
            hit_rate: self.counters.hit_rate(),
            ttft_count: ttft.count() as u64,
            ttft_mean_secs: ttft.mean(),
            ttft_p50_secs: ttft.median(),
            ttft_p95_secs: ttft.percentile(95.0),
            ttft_p99_secs: ttft.percentile(99.0),
            queue_wait_mean_secs: queue_wait.mean(),
            queue_wait_p50_secs: queue_wait.median(),
            queue_wait_p95_secs: queue_wait.percentile(95.0),
            queue_wait_p99_secs: queue_wait.percentile(99.0),
            fetch_stall_mean_secs: self.fetch_stall.mean(),
            prefill_compute_mean_secs: self.prefill_compute.mean(),
            kv_load_secs_total: self.kv_load_secs,
            kv_hidden_secs_total: self.kv_hidden_secs,
            overlap_efficiency: if self.kv_load_secs > 0.0 {
                self.kv_hidden_secs / self.kv_load_secs
            } else {
                0.0
            },
            prefetch_latency_mean_secs: prefetch_latency.mean(),
            prefetch_latency_p99_secs: prefetch_latency.percentile(99.0),
            deferred_runs: self.deferred_runs,
            dedup_ratio: self.counters.dedup_ratio(),
            hbm_reserved_peak_bytes: self.hbm_reserved.peak(),
            hbm_reserved_timeline: self.hbm_reserved.clone(),
            tiers: self.tier_metrics(),
            instances: self
                .per_instance
                .iter()
                .enumerate()
                .map(|(i, agg)| {
                    let c = &agg.counters;
                    InstanceMetrics {
                        instance: i as u32,
                        turns_arrived: c.turns_arrived,
                        hits_fast: c.hits_fast,
                        hits_slow: c.hits_slow,
                        misses: c.misses,
                        hit_rate: c.hit_rate(),
                        retired: c.retired,
                        read_retries: c.read_retries,
                        write_retries: c.write_retries,
                        recompute_fallbacks: c.recompute_fallbacks,
                        turns_rerouted_away: agg.turns_rerouted_away,
                    }
                })
                .collect(),
        }
    }
}

impl EngineObserver for MetricsHub {
    fn on_event(&mut self, ev: EngineEvent) {
        self.counters.on_event(ev);
        match ev {
            EngineEvent::TurnArrived { session, at, .. } => {
                self.arrivals.insert(session, at.as_secs_f64());
            }
            EngineEvent::Deferred { session, .. } if self.last_deferred != Some(session) => {
                self.deferred_runs += 1;
                self.last_deferred = Some(session);
            }
            EngineEvent::Admitted { session, at, .. } => {
                if let Some(arrived) = self.arrivals.remove(&session) {
                    self.queue_wait.push(at.as_secs_f64() - arrived);
                }
            }
            EngineEvent::PrefillTimed {
                load_secs,
                comp_secs,
                stall_secs,
                ..
            } => {
                self.fetch_stall.push(stall_secs);
                self.prefill_compute.push(comp_secs);
                self.kv_load_secs += load_secs;
                self.kv_hidden_secs += (load_secs - stall_secs).max(0.0);
            }
            EngineEvent::PrefillDone { ttft_secs, .. } => self.ttft.push(ttft_secs),
            EngineEvent::HbmReserved {
                reserved_bytes, at, ..
            } => self
                .hbm_reserved
                .record_max(at.as_secs_f64(), reserved_bytes as f64),
            // A shed turn's open arrival must not linger as a phantom
            // queue-wait entry.
            EngineEvent::TurnShed { session, .. } => {
                self.arrivals.remove(&session);
            }
            _ => {}
        }
    }

    fn on_instance_event(&mut self, instance: u32, ev: EngineEvent) {
        self.instance_agg(instance).counters.on_event(ev);
        if let EngineEvent::TurnRerouted { from, .. } = ev {
            self.instance_agg(from).turns_rerouted_away += 1;
        }
        self.on_event(ev);
    }

    fn wants_store_events(&self) -> bool {
        true
    }

    fn on_store_event(&mut self, ev: StoreEvent) {
        self.counters.on_store_event(ev);
        match ev {
            StoreEvent::TierConfig { tier, name, .. } => {
                self.grow_tiers(tier);
                self.tier_names[tier.0] = Some(name);
            }
            StoreEvent::FetchHit { tier, .. } => {
                self.grow_tiers(tier);
                self.store_hits_by_tier[tier.0] += 1;
            }
            StoreEvent::Promoted {
                session,
                kind: FetchKind::Prefetch,
                at,
                ..
            } => {
                self.prefetch_starts.insert(session, at.as_secs_f64());
            }
            StoreEvent::Occupancy {
                tier,
                used_bytes,
                at,
            } => {
                self.grow_tiers(tier);
                self.occupancy_by_tier[tier.0].record_max(at.as_secs_f64(), used_bytes as f64);
            }
            StoreEvent::PrefetchCompleted { session, at, .. } => {
                if let Some(start) = self.prefetch_starts.remove(&session) {
                    self.prefetch_latency.push(at.as_secs_f64() - start);
                }
            }
            _ => {}
        }
    }

    fn on_instance_store_event(&mut self, instance: u32, ev: StoreEvent) {
        // Store events are billed to the instance whose pipeline step
        // drained them, so chaos runs stay profile-comparable per GPU.
        self.instance_agg(instance).counters.on_store_event(ev);
        self.on_store_event(ev);
    }
}

/// A serializable rendering of a [`MetricsHub`]'s aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    /// The run's event tallies (all turns; the hub sees no warmup
    /// filter). Each window line of the windowed export carries the same
    /// object for its window, and the windows sum to this one.
    pub counters: Counters,
    /// Hits over classified consultations.
    pub hit_rate: f64,
    /// TTFT samples observed.
    pub ttft_count: u64,
    /// Mean service TTFT, seconds.
    pub ttft_mean_secs: f64,
    /// Median service TTFT, seconds (`None` — serialized `null` — when
    /// no prefill completed; distinguishes "no samples" from "0 s").
    pub ttft_p50_secs: Option<f64>,
    /// p95 service TTFT, seconds (`None` when no samples).
    pub ttft_p95_secs: Option<f64>,
    /// p99 service TTFT, seconds (`None` when no samples).
    pub ttft_p99_secs: Option<f64>,
    /// Mean queue wait (arrival → admission), seconds.
    pub queue_wait_mean_secs: f64,
    /// Median queue wait, seconds (`None` when no samples).
    pub queue_wait_p50_secs: Option<f64>,
    /// p95 queue wait, seconds (`None` when no samples).
    pub queue_wait_p95_secs: Option<f64>,
    /// p99 queue wait, seconds (`None` when no samples).
    pub queue_wait_p99_secs: Option<f64>,
    /// Mean visible fetch stall per issued prefill, seconds.
    pub fetch_stall_mean_secs: f64,
    /// Mean pure prefill compute per issued prefill, seconds.
    pub prefill_compute_mean_secs: f64,
    /// Total KV transfer time required by reuse, seconds.
    pub kv_load_secs_total: f64,
    /// Share of that transfer hidden under prefill compute, seconds.
    pub kv_hidden_secs_total: f64,
    /// Fraction of KV transfer time hidden under compute (§3.2.1's
    /// direct observable; 0 when nothing was transferred).
    pub overlap_efficiency: f64,
    /// Mean prefetch staging latency (promotion → completion), seconds.
    pub prefetch_latency_mean_secs: f64,
    /// p99 prefetch staging latency, seconds (`None` when no samples).
    pub prefetch_latency_p99_secs: Option<f64>,
    /// Runs of consecutive admission deferrals of one session (a retry
    /// flood counts once per stalled session).
    pub deferred_runs: u64,
    /// Fraction of saved blocks that were dedup hits.
    pub dedup_ratio: f64,
    /// Peak live-KV HBM reservation, bytes.
    pub hbm_reserved_peak_bytes: f64,
    /// Live-KV HBM reservation over time (1 s buckets, per-bucket max).
    pub hbm_reserved_timeline: TimeSeries,
    /// Per-tier store-stream aggregates, fastest tier first, labeled by
    /// the stack's configured tier names.
    pub tiers: Vec<TierMetrics>,
    /// Per-instance engine-stream aggregates (empty when the run was
    /// observed through the instance-blind hooks).
    pub instances: Vec<InstanceMetrics>,
}

/// One tier's slice of the store-stream aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct TierMetrics {
    /// Tier-stack index, fastest first.
    pub tier: usize,
    /// The tier's display name (from the store's `tier_config` records;
    /// `t{i}` when the run never announced one).
    pub name: String,
    /// Store lookups that found KV resident in this tier.
    pub store_hits: u64,
    /// Peak occupancy of this tier, bytes.
    pub occupancy_peak_bytes: f64,
    /// This tier's occupancy over time (1 s buckets, per-bucket max).
    pub occupancy_timeline: TimeSeries,
}

/// One instance's slice of the engine-stream aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct InstanceMetrics {
    /// Instance id.
    pub instance: u32,
    /// Turns routed to this instance.
    pub turns_arrived: u64,
    /// Fast-tier hits consulted on this instance.
    pub hits_fast: u64,
    /// Slow-tier hits consulted on this instance.
    pub hits_slow: u64,
    /// Misses consulted on this instance.
    pub misses: u64,
    /// Hits over classified consultations on this instance.
    pub hit_rate: f64,
    /// Jobs retired on this instance.
    pub retired: u64,
    /// Injected slow-tier read errors retried on this instance.
    pub read_retries: u64,
    /// Injected slow-tier write errors retried on this instance.
    pub write_retries: u64,
    /// Turns degraded to a full re-prefill on this instance.
    pub recompute_fallbacks: u64,
    /// Turns this instance lost to crash reroutes.
    pub turns_rerouted_away: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::ConsultClass;
    use sim::Time;

    #[test]
    fn hub_aggregates_both_streams() {
        let mut hub = MetricsHub::new();
        assert!(hub.wants_store_events());
        hub.on_event(EngineEvent::TurnArrived {
            session: 1,
            turn: 0,
            at: Time::ZERO,
        });
        hub.on_event(EngineEvent::Consulted {
            session: 1,
            class: ConsultClass::HitFast,
            reused: 100,
            at: Time::from_millis(1),
        });
        hub.on_event(EngineEvent::Deferred {
            session: 1,
            until: Time::from_millis(3),
            at: Time::from_millis(2),
        });
        hub.on_event(EngineEvent::Deferred {
            session: 1,
            until: Time::from_millis(4),
            at: Time::from_millis(3),
        });
        hub.on_event(EngineEvent::Admitted {
            session: 1,
            reused: 100,
            computed: 50,
            chunked: false,
            at: Time::from_millis(4),
        });
        hub.on_event(EngineEvent::PrefillDone {
            session: 1,
            ttft_secs: 0.25,
            at: Time::from_millis(254),
        });
        hub.on_event(EngineEvent::HbmReserved {
            session: 1,
            reserved_bytes: 1_000,
            budget_bytes: 10_000,
            at: Time::from_millis(4),
        });
        hub.on_store_event(StoreEvent::TierConfig {
            tier: TierId(0),
            name: "dram",
            capacity: 1_000,
            at: Time::ZERO,
        });
        hub.on_store_event(StoreEvent::FetchHit {
            session: 1,
            tier: TierId(0),
            bytes: 5,
            at: Time::from_millis(1),
        });
        hub.on_store_event(StoreEvent::Occupancy {
            tier: TierId(0),
            used_bytes: 500,
            at: Time::from_millis(1),
        });
        hub.on_store_event(StoreEvent::Occupancy {
            tier: TierId(1),
            used_bytes: 700,
            at: Time::from_millis(1),
        });
        let snap = hub.snapshot();
        assert_eq!(snap.counters.turns_arrived, 1);
        assert_eq!(snap.counters.hits_fast, 1);
        assert_eq!(snap.hit_rate, 1.0);
        assert_eq!(snap.counters.deferred_events, 2);
        assert_eq!(snap.deferred_runs, 1);
        assert_eq!(snap.ttft_count, 1);
        assert!((snap.ttft_mean_secs - 0.25).abs() < 1e-12);
        assert!((snap.queue_wait_mean_secs - 0.004).abs() < 1e-12);
        assert_eq!(snap.hbm_reserved_peak_bytes, 1_000.0);
        // Tier 0 was announced as "dram", tier 1 falls back to its index
        // label.
        assert_eq!(snap.tiers.len(), 2);
        assert_eq!(snap.tiers[0].name, "dram");
        assert_eq!(snap.tiers[0].store_hits, 1);
        assert_eq!(snap.tiers[0].occupancy_peak_bytes, 500.0);
        assert_eq!(snap.tiers[1].name, "t1");
        assert_eq!(snap.tiers[1].store_hits, 0);
        assert_eq!(snap.tiers[1].occupancy_peak_bytes, 700.0);
    }

    /// A deferral run is consecutive deferrals of one session among the
    /// deferrals: other events do not break it, another session does.
    #[test]
    fn deferral_runs_count_session_changes() {
        let mut hub = MetricsHub::new();
        let defer = |s: u64, ms: u64| EngineEvent::Deferred {
            session: s,
            until: Time::from_millis(ms + 1),
            at: Time::from_millis(ms),
        };
        hub.on_event(EngineEvent::TurnArrived {
            session: 1,
            turn: 0,
            at: Time::ZERO,
        });
        for ms in [10, 20, 30] {
            hub.on_event(defer(1, ms));
        }
        hub.on_event(EngineEvent::TurnArrived {
            session: 2,
            turn: 0,
            at: Time::from_millis(35),
        });
        hub.on_event(defer(1, 40));
        hub.on_event(defer(2, 50));
        hub.on_event(defer(1, 60));
        let snap = hub.snapshot();
        assert_eq!(snap.counters.deferred_events, 6);
        assert_eq!(snap.deferred_runs, 3);
    }

    /// Hits below tier 1 stay separable in the per-tier slices.
    #[test]
    fn deep_tier_hits_are_sliced_per_tier() {
        let mut hub = MetricsHub::new();
        for (tier, n) in [(1usize, 2u64), (3, 1)] {
            for _ in 0..n {
                hub.on_store_event(StoreEvent::FetchHit {
                    session: 1,
                    tier: TierId(tier),
                    bytes: 5,
                    at: Time::ZERO,
                });
            }
        }
        let snap = hub.snapshot();
        assert_eq!(snap.tiers.len(), 4);
        assert_eq!(snap.tiers[0].store_hits, 0);
        assert_eq!(snap.tiers[1].store_hits, 2);
        assert_eq!(snap.tiers[2].store_hits, 0);
        assert_eq!(snap.tiers[3].store_hits, 1);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let hub = MetricsHub::new();
        let json = serde_json::to_string(&hub.snapshot()).unwrap();
        assert!(json.starts_with("{\"counters\":{\"turns_arrived\":0,"));
        assert!(json.contains("\"hit_rate\":0.0"));
        assert!(json.contains("\"hbm_reserved_timeline\""));
        // Empty histograms export null percentiles, not a fake 0.0.
        assert!(json.contains("\"ttft_p50_secs\":null"));
        assert!(json.contains("\"queue_wait_p99_secs\":null"));
        assert!(json.contains("\"prefetch_latency_p99_secs\":null"));
    }
}
