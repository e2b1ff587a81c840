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

use engine::{CoalescedLog, ConsultClass, EngineEvent, EngineObserver};
use metrics::{Counter, Histogram, TimeSeries};
use serde::Serialize;
use store::{FetchKind, StoreEvent, TierId};

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
    // Engine-stream aggregates.
    turns_arrived: Counter,
    hits_fast: Counter,
    hits_slow: Counter,
    misses: Counter,
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
    truncations: Counter,
    retired: Counter,
    hbm_reserved: TimeSeries,
    /// Admission retries coalesced per session run (satellite fix for
    /// the one-`Deferred`-per-retry flood).
    deferrals: CoalescedLog,
    /// Arrival time of each session's in-flight turn, for queue waits.
    arrivals: HashMap<u64, f64>,
    // Store-stream aggregates, sliced per tier-stack index. The slices
    // grow on demand as events reference deeper tiers; names come from
    // the `tier_config` records a tracing store emits up front (falling
    // back to the `t{i}` index label).
    tier_names: Vec<Option<&'static str>>,
    store_hits_by_tier: Vec<Counter>,
    occupancy_by_tier: Vec<TimeSeries>,
    store_misses: Counter,
    saves: Counter,
    save_rejections: Counter,
    prefetch_promotions: Counter,
    demand_promotions: Counter,
    demotions: Counter,
    evictions: Counter,
    drops: Counter,
    expirations: Counter,
    write_stalls: Counter,
    // Block-keyed store aggregates (all-zero under per-session keying).
    block_dedup_hits: Counter,
    blocks_matched: Counter,
    blocks_deduped: Counter,
    blocks_written: Counter,
    dedup_bytes_saved: Counter,
    dedup_bytes_written: Counter,
    block_divergences: Counter,
    block_evictions: Counter,
    // Fault-stream aggregates (all-zero without a fault plan).
    read_retries: Counter,
    read_failures: Counter,
    write_retries: Counter,
    write_failures: Counter,
    corruptions_detected: Counter,
    recompute_fallbacks: Counter,
    instance_crashes: Counter,
    turns_rerouted: Counter,
    // Overload-stream aggregates (all-zero without an SLO policy).
    turns_shed: Counter,
    overload_transitions: Counter,
    scale_ups: Counter,
    scale_downs: Counter,
    // Per-instance slices of the engine stream, grown on demand as the
    // cluster's instance-tagged observer hooks report new instance ids.
    per_instance: Vec<InstanceAgg>,
}

/// Per-instance slice of the engine-stream aggregates.
#[derive(Debug, Clone)]
struct InstanceAgg {
    turns_arrived: Counter,
    hits_fast: Counter,
    hits_slow: Counter,
    misses: Counter,
    retired: Counter,
    read_retries: Counter,
    write_retries: Counter,
    recompute_fallbacks: Counter,
    turns_rerouted_away: Counter,
}

impl InstanceAgg {
    fn new() -> Self {
        InstanceAgg {
            turns_arrived: Counter::new(),
            hits_fast: Counter::new(),
            hits_slow: Counter::new(),
            misses: Counter::new(),
            retired: Counter::new(),
            read_retries: Counter::new(),
            write_retries: Counter::new(),
            recompute_fallbacks: Counter::new(),
            turns_rerouted_away: Counter::new(),
        }
    }
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
            turns_arrived: Counter::new(),
            hits_fast: Counter::new(),
            hits_slow: Counter::new(),
            misses: Counter::new(),
            ttft: Histogram::new(),
            queue_wait: Histogram::new(),
            fetch_stall: Histogram::new(),
            prefill_compute: Histogram::new(),
            kv_load_secs: 0.0,
            kv_hidden_secs: 0.0,
            prefetch_latency: Histogram::new(),
            prefetch_starts: HashMap::new(),
            truncations: Counter::new(),
            retired: Counter::new(),
            hbm_reserved: TimeSeries::new(GAUGE_BUCKET_SECS),
            deferrals: CoalescedLog::new(),
            arrivals: HashMap::new(),
            tier_names: Vec::new(),
            store_hits_by_tier: Vec::new(),
            occupancy_by_tier: Vec::new(),
            store_misses: Counter::new(),
            saves: Counter::new(),
            save_rejections: Counter::new(),
            prefetch_promotions: Counter::new(),
            demand_promotions: Counter::new(),
            demotions: Counter::new(),
            evictions: Counter::new(),
            drops: Counter::new(),
            expirations: Counter::new(),
            write_stalls: Counter::new(),
            block_dedup_hits: Counter::new(),
            blocks_matched: Counter::new(),
            blocks_deduped: Counter::new(),
            blocks_written: Counter::new(),
            dedup_bytes_saved: Counter::new(),
            dedup_bytes_written: Counter::new(),
            block_divergences: Counter::new(),
            block_evictions: Counter::new(),
            read_retries: Counter::new(),
            read_failures: Counter::new(),
            write_retries: Counter::new(),
            write_failures: Counter::new(),
            corruptions_detected: Counter::new(),
            recompute_fallbacks: Counter::new(),
            instance_crashes: Counter::new(),
            turns_rerouted: Counter::new(),
            turns_shed: Counter::new(),
            overload_transitions: Counter::new(),
            scale_ups: Counter::new(),
            scale_downs: Counter::new(),
            per_instance: Vec::new(),
        }
    }

    /// The coalesced admission-deferral log.
    pub fn deferrals(&self) -> &CoalescedLog {
        &self.deferrals
    }

    /// The per-instance slice for `instance`, grown on demand.
    fn instance_agg(&mut self, instance: u32) -> &mut InstanceAgg {
        let i = instance as usize;
        if self.per_instance.len() <= i {
            self.per_instance.resize_with(i + 1, InstanceAgg::new);
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
            self.store_hits_by_tier.resize_with(n, Counter::new);
        }
        if self.occupancy_by_tier.len() < n {
            self.occupancy_by_tier
                .resize_with(n, || TimeSeries::new(GAUGE_BUCKET_SECS));
        }
    }

    /// Renders the per-tier store-stream slices, fastest tier first. The
    /// single source the snapshot's `tiers` array AND its legacy scalar
    /// rollups (`store_hits_dram`/`_disk`, the dram/disk occupancy peaks
    /// and timelines) are both derived from, so they cannot drift apart.
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
                store_hits: self.store_hits_by_tier.get(i).map_or(0, Counter::get),
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
        let tiers = self.tier_metrics();
        MetricsSnapshot {
            turns_arrived: self.turns_arrived.get(),
            hits_fast: self.hits_fast.get(),
            hits_slow: self.hits_slow.get(),
            misses: self.misses.get(),
            hit_rate: {
                let hits = self.hits_fast.get() + self.hits_slow.get();
                let total = hits + self.misses.get();
                if total == 0 {
                    0.0
                } else {
                    hits as f64 / total as f64
                }
            },
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
            truncations: self.truncations.get(),
            retired: self.retired.get(),
            deferred_events: self.deferrals.deferred_total(),
            deferred_runs: self.deferrals.entries().len() as u64,
            store_hits_dram: tiers.first().map_or(0, |t| t.store_hits),
            store_hits_disk: tiers.iter().skip(1).map(|t| t.store_hits).sum(),
            store_misses: self.store_misses.get(),
            saves: self.saves.get(),
            save_rejections: self.save_rejections.get(),
            prefetch_promotions: self.prefetch_promotions.get(),
            demand_promotions: self.demand_promotions.get(),
            demotions: self.demotions.get(),
            evictions: self.evictions.get(),
            drops: self.drops.get(),
            expirations: self.expirations.get(),
            write_stalls: self.write_stalls.get(),
            block_dedup_hits: self.block_dedup_hits.get(),
            blocks_matched: self.blocks_matched.get(),
            blocks_deduped: self.blocks_deduped.get(),
            blocks_written: self.blocks_written.get(),
            dedup_bytes_saved: self.dedup_bytes_saved.get(),
            dedup_bytes_written: self.dedup_bytes_written.get(),
            dedup_ratio: {
                let total = self.blocks_deduped.get() + self.blocks_written.get();
                if total == 0 {
                    0.0
                } else {
                    self.blocks_deduped.get() as f64 / total as f64
                }
            },
            block_divergences: self.block_divergences.get(),
            block_evictions: self.block_evictions.get(),
            read_retries: self.read_retries.get(),
            read_failures: self.read_failures.get(),
            write_retries: self.write_retries.get(),
            write_failures: self.write_failures.get(),
            corruptions_detected: self.corruptions_detected.get(),
            recompute_fallbacks: self.recompute_fallbacks.get(),
            instance_crashes: self.instance_crashes.get(),
            turns_rerouted: self.turns_rerouted.get(),
            turns_shed: self.turns_shed.get(),
            overload_transitions: self.overload_transitions.get(),
            scale_ups: self.scale_ups.get(),
            scale_downs: self.scale_downs.get(),
            hbm_reserved_peak_bytes: self.hbm_reserved.peak(),
            dram_occupancy_peak_bytes: tiers.first().map_or(0.0, |t| t.occupancy_peak_bytes),
            disk_occupancy_peak_bytes: tiers.get(1).map_or(0.0, |t| t.occupancy_peak_bytes),
            hbm_reserved_timeline: self.hbm_reserved.clone(),
            dram_occupancy_timeline: tiers
                .first()
                .map(|t| t.occupancy_timeline.clone())
                .unwrap_or_else(|| TimeSeries::new(GAUGE_BUCKET_SECS)),
            disk_occupancy_timeline: tiers
                .get(1)
                .map(|t| t.occupancy_timeline.clone())
                .unwrap_or_else(|| TimeSeries::new(GAUGE_BUCKET_SECS)),
            tiers,
            instances: self
                .per_instance
                .iter()
                .enumerate()
                .map(|(i, agg)| {
                    let hits = agg.hits_fast.get() + agg.hits_slow.get();
                    let total = hits + agg.misses.get();
                    InstanceMetrics {
                        instance: i as u32,
                        turns_arrived: agg.turns_arrived.get(),
                        hits_fast: agg.hits_fast.get(),
                        hits_slow: agg.hits_slow.get(),
                        misses: agg.misses.get(),
                        hit_rate: if total == 0 {
                            0.0
                        } else {
                            hits as f64 / total as f64
                        },
                        retired: agg.retired.get(),
                        read_retries: agg.read_retries.get(),
                        write_retries: agg.write_retries.get(),
                        recompute_fallbacks: agg.recompute_fallbacks.get(),
                        turns_rerouted_away: agg.turns_rerouted_away.get(),
                    }
                })
                .collect(),
        }
    }
}

impl EngineObserver for MetricsHub {
    fn on_event(&mut self, ev: EngineEvent) {
        match ev {
            EngineEvent::TurnArrived { session, at, .. } => {
                self.turns_arrived.incr();
                self.arrivals.insert(session, at.as_secs_f64());
            }
            EngineEvent::Truncated { .. } => self.truncations.incr(),
            EngineEvent::Consulted { class, .. } => match class {
                ConsultClass::NoHistory => {}
                ConsultClass::NoStore | ConsultClass::Miss => self.misses.incr(),
                ConsultClass::HitFast => self.hits_fast.incr(),
                ConsultClass::HitSlow => self.hits_slow.incr(),
            },
            EngineEvent::Deferred { .. } => self.deferrals.on_event(ev),
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
            EngineEvent::Retired { .. } => self.retired.incr(),
            EngineEvent::HbmReserved {
                reserved_bytes, at, ..
            } => self
                .hbm_reserved
                .record_max(at.as_secs_f64(), reserved_bytes as f64),
            EngineEvent::InstanceCrashed { .. } => self.instance_crashes.incr(),
            EngineEvent::TurnRerouted { .. } => self.turns_rerouted.incr(),
            EngineEvent::DegradedRecompute { .. } => self.recompute_fallbacks.incr(),
            // A shed turn's open arrival must not linger as a phantom
            // queue-wait entry.
            EngineEvent::TurnShed { session, .. } => {
                self.turns_shed.incr();
                self.arrivals.remove(&session);
            }
            EngineEvent::OverloadLevelChanged { .. } => self.overload_transitions.incr(),
            EngineEvent::ScaleUp { .. } => self.scale_ups.incr(),
            EngineEvent::ScaleDown { .. } => self.scale_downs.incr(),
            EngineEvent::SloConfig { .. } => {}
        }
    }

    fn on_instance_event(&mut self, instance: u32, ev: EngineEvent) {
        let agg = self.instance_agg(instance);
        match ev {
            EngineEvent::TurnArrived { .. } => agg.turns_arrived.incr(),
            EngineEvent::Consulted { class, .. } => match class {
                ConsultClass::NoHistory => {}
                ConsultClass::NoStore | ConsultClass::Miss => agg.misses.incr(),
                ConsultClass::HitFast => agg.hits_fast.incr(),
                ConsultClass::HitSlow => agg.hits_slow.incr(),
            },
            EngineEvent::Retired { .. } => agg.retired.incr(),
            EngineEvent::DegradedRecompute { .. } => agg.recompute_fallbacks.incr(),
            _ => {}
        }
        // A reroute is billed to the instance the turn left (the dead
        // one), not the survivor that emitted the event.
        if let EngineEvent::TurnRerouted { from, .. } = ev {
            self.instance_agg(from).turns_rerouted_away.incr();
        }
        self.on_event(ev);
    }

    fn wants_store_events(&self) -> bool {
        true
    }

    fn on_store_event(&mut self, ev: StoreEvent) {
        match ev {
            StoreEvent::TierConfig { tier, name, .. } => {
                self.grow_tiers(tier);
                self.tier_names[tier.0] = Some(name);
            }
            StoreEvent::Saved { .. } => self.saves.incr(),
            StoreEvent::SaveRejected { .. } => self.save_rejections.incr(),
            StoreEvent::FetchHit { tier, .. } => {
                self.grow_tiers(tier);
                self.store_hits_by_tier[tier.0].incr();
            }
            StoreEvent::FetchMiss { .. } => self.store_misses.incr(),
            StoreEvent::Promoted {
                session, kind, at, ..
            } => match kind {
                FetchKind::Demand => self.demand_promotions.incr(),
                FetchKind::Prefetch => {
                    self.prefetch_promotions.incr();
                    self.prefetch_starts.insert(session, at.as_secs_f64());
                }
            },
            StoreEvent::Demoted { .. } => self.demotions.incr(),
            StoreEvent::Evicted { .. } => self.evictions.incr(),
            StoreEvent::Dropped { .. } => self.drops.incr(),
            StoreEvent::Expired { .. } => self.expirations.incr(),
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
            StoreEvent::WriteBufferStall { .. } => self.write_stalls.incr(),
            StoreEvent::BlockConfig { .. } => {}
            StoreEvent::BlockSaved {
                new_blocks,
                dedup_blocks,
                bytes_written,
                bytes_saved,
                ..
            } => {
                self.blocks_written.add(new_blocks);
                self.blocks_deduped.add(dedup_blocks);
                self.dedup_bytes_written.add(bytes_written);
                self.dedup_bytes_saved.add(bytes_saved);
            }
            StoreEvent::BlockDedupHit { matched_blocks, .. } => {
                self.block_dedup_hits.incr();
                self.blocks_matched.add(matched_blocks);
            }
            StoreEvent::BlockDiverged { .. } => self.block_divergences.incr(),
            StoreEvent::BlockEvicted { .. } => self.block_evictions.incr(),
            StoreEvent::ReadRetry { .. } => self.read_retries.incr(),
            StoreEvent::ReadFailed { .. } => self.read_failures.incr(),
            StoreEvent::WriteRetry { .. } => self.write_retries.incr(),
            StoreEvent::WriteFailed { .. } => self.write_failures.incr(),
            StoreEvent::CorruptionDetected { .. } => self.corruptions_detected.incr(),
        }
    }

    fn on_instance_store_event(&mut self, instance: u32, ev: StoreEvent) {
        // Fault retries are billed to the instance whose pipeline step
        // drained them, so chaos runs stay profile-comparable per GPU.
        match ev {
            StoreEvent::ReadRetry { .. } => self.instance_agg(instance).read_retries.incr(),
            StoreEvent::WriteRetry { .. } => self.instance_agg(instance).write_retries.incr(),
            _ => {}
        }
        self.on_store_event(ev);
    }
}

/// A serializable rendering of a [`MetricsHub`]'s aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    /// Turns that arrived (all turns; the hub sees no warmup filter).
    pub turns_arrived: u64,
    /// Consultations classified fast-tier hits.
    pub hits_fast: u64,
    /// Consultations classified slow-tier hits.
    pub hits_slow: u64,
    /// Consultations classified misses (no cached KV, or no store).
    pub misses: u64,
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
    /// Context-overflow truncations.
    pub truncations: u64,
    /// Jobs retired.
    pub retired: u64,
    /// Total admission deferrals (before coalescing).
    pub deferred_events: u64,
    /// Coalesced deferral runs (consecutive same-session retries).
    pub deferred_runs: u64,
    /// Store lookups that found KV resident in tier 0 (the fast staging
    /// tier; rollup of the per-tier slices in [`tiers`](Self::tiers)).
    pub store_hits_dram: u64,
    /// Store lookups that found KV resident below tier 0 (all slower
    /// tiers combined).
    pub store_hits_disk: u64,
    /// Store lookups that found nothing cached.
    pub store_misses: u64,
    /// Sessions saved or updated.
    pub saves: u64,
    /// Saves rejected for capacity.
    pub save_rejections: u64,
    /// Look-ahead prefetch promotions (slow tier → tier 0).
    pub prefetch_promotions: u64,
    /// Demand-fetch promotions (slow tier → tier 0).
    pub demand_promotions: u64,
    /// One-hop demotions to an adjacent slower tier.
    pub demotions: u64,
    /// Evictions out of the stack's bottom tier (out of the system).
    pub evictions: u64,
    /// Entries dropped because the tier below could not take their
    /// demotion.
    pub drops: u64,
    /// TTL expirations.
    pub expirations: u64,
    /// Admissions stalled on the HBM write buffer.
    pub write_stalls: u64,
    /// Consults that matched at least one stored block (block-keyed
    /// stores only; zero under per-session keying, like every dedup
    /// counter below).
    pub block_dedup_hits: u64,
    /// Blocks matched across all consults.
    pub blocks_matched: u64,
    /// Save-side blocks that resolved to an already-stored copy.
    pub blocks_deduped: u64,
    /// Save-side blocks written fresh.
    pub blocks_written: u64,
    /// Bytes not written because the block already existed.
    pub dedup_bytes_saved: u64,
    /// Bytes physically written by saves.
    pub dedup_bytes_written: u64,
    /// Fraction of saved blocks that were dedup hits.
    pub dedup_ratio: f64,
    /// Sessions that forked off a shared chain (copy-on-divergence).
    pub block_divergences: u64,
    /// Unreferenced blocks reclaimed (refcounted eviction).
    pub block_evictions: u64,
    /// Injected slow-tier read errors that were retried.
    pub read_retries: u64,
    /// Reads abandoned after exhausting their retry budget.
    pub read_failures: u64,
    /// Injected slow-tier write errors that were retried.
    pub write_retries: u64,
    /// Saves abandoned after exhausting their retry budget.
    pub write_failures: u64,
    /// Checksum mismatches caught on load.
    pub corruptions_detected: u64,
    /// Turns degraded to a full re-prefill after a cache-path failure.
    pub recompute_fallbacks: u64,
    /// Scripted instance crashes observed.
    pub instance_crashes: u64,
    /// Turns re-queued onto surviving instances after a crash.
    pub turns_rerouted: u64,
    /// Arriving turns shed with a typed rejection (SLO admission).
    pub turns_shed: u64,
    /// Degradation-ladder rung changes (either direction).
    pub overload_transitions: u64,
    /// Autoscaler scale-up actions.
    pub scale_ups: u64,
    /// Autoscaler scale-down actions.
    pub scale_downs: u64,
    /// Peak live-KV HBM reservation, bytes.
    pub hbm_reserved_peak_bytes: f64,
    /// Peak tier-0 occupancy, bytes (see [`tiers`](Self::tiers) for the
    /// full stack).
    pub dram_occupancy_peak_bytes: f64,
    /// Peak tier-1 occupancy, bytes.
    pub disk_occupancy_peak_bytes: f64,
    /// Live-KV HBM reservation over time (1 s buckets, per-bucket max).
    pub hbm_reserved_timeline: TimeSeries,
    /// Tier-0 occupancy over time (1 s buckets, per-bucket max).
    pub dram_occupancy_timeline: TimeSeries,
    /// Tier-1 occupancy over time (1 s buckets, per-bucket max).
    pub disk_occupancy_timeline: TimeSeries,
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
    use sim::Time;

    #[test]
    fn hub_aggregates_both_streams() {
        let mut hub = MetricsHub::new();
        assert!(hub.wants_store_events());
        hub.on_event(EngineEvent::turn_arrived(1, 0, Time::ZERO));
        hub.on_event(EngineEvent::consulted(
            1,
            ConsultClass::HitFast,
            100,
            Time::from_millis(1),
        ));
        hub.on_event(EngineEvent::deferred(
            1,
            Time::from_millis(3),
            Time::from_millis(2),
        ));
        hub.on_event(EngineEvent::deferred(
            1,
            Time::from_millis(4),
            Time::from_millis(3),
        ));
        hub.on_event(EngineEvent::admitted(
            1,
            100,
            50,
            false,
            Time::from_millis(4),
        ));
        hub.on_event(EngineEvent::prefill_done(1, 0.25, Time::from_millis(254)));
        hub.on_event(EngineEvent::hbm_reserved(
            1,
            1_000,
            10_000,
            Time::from_millis(4),
        ));
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
        assert_eq!(snap.turns_arrived, 1);
        assert_eq!(snap.hits_fast, 1);
        assert_eq!(snap.hit_rate, 1.0);
        assert_eq!(snap.deferred_events, 2);
        assert_eq!(snap.deferred_runs, 1);
        assert_eq!(snap.store_hits_dram, 1);
        assert_eq!(snap.ttft_count, 1);
        assert!((snap.ttft_mean_secs - 0.25).abs() < 1e-12);
        assert!((snap.queue_wait_mean_secs - 0.004).abs() < 1e-12);
        assert_eq!(snap.hbm_reserved_peak_bytes, 1_000.0);
        assert_eq!(snap.dram_occupancy_peak_bytes, 500.0);
        assert_eq!(snap.disk_occupancy_peak_bytes, 700.0);
        // The per-tier slices carry the same data keyed by name: tier 0
        // was announced as "dram", tier 1 fell back to its index label.
        assert_eq!(snap.tiers.len(), 2);
        assert_eq!(snap.tiers[0].name, "dram");
        assert_eq!(snap.tiers[0].store_hits, 1);
        assert_eq!(snap.tiers[0].occupancy_peak_bytes, 500.0);
        assert_eq!(snap.tiers[1].name, "t1");
        assert_eq!(snap.tiers[1].store_hits, 0);
        assert_eq!(snap.tiers[1].occupancy_peak_bytes, 700.0);
    }

    /// Hits below tier 1 still roll up into the legacy slow-tier counter
    /// and the per-tier slices keep them separable.
    #[test]
    fn deep_tier_hits_roll_up() {
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
        assert_eq!(snap.store_hits_dram, 0);
        assert_eq!(snap.store_hits_disk, 3);
        assert_eq!(snap.tiers.len(), 4);
        assert_eq!(snap.tiers[1].store_hits, 2);
        assert_eq!(snap.tiers[2].store_hits, 0);
        assert_eq!(snap.tiers[3].store_hits, 1);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let hub = MetricsHub::new();
        let json = serde_json::to_string(&hub.snapshot()).unwrap();
        assert!(json.contains("\"turns_arrived\":0"));
        assert!(json.contains("\"hit_rate\":0.0"));
        assert!(json.contains("\"dram_occupancy_timeline\""));
        // Empty histograms export null percentiles, not a fake 0.0.
        assert!(json.contains("\"ttft_p50_secs\":null"));
        assert!(json.contains("\"queue_wait_p99_secs\":null"));
        assert!(json.contains("\"prefetch_latency_p99_secs\":null"));
    }
}
