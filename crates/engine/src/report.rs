//! Per-run metrics: everything the paper's evaluation section reports.

use metrics::aws::{CostReport, PriceSheet};
use metrics::{Counter, Histogram, TimeSeries, Welford};
use store::StoreStats;

use crate::events::ConsultClass;
use crate::Mode;
use serde::Serialize;

/// Metrics collected over one serving run (post-warmup unless noted).
///
/// Serializes to JSON with deterministic field order and shortest
/// round-trip float formatting, so two bit-identical runs produce
/// byte-identical JSON — the golden-report regression tests
/// (`tests/golden_report.rs`) rely on this to pin the simulator's exact
/// behavior across refactors.
#[derive(Debug, Default, Serialize)]
pub struct RunReport {
    /// Served model name.
    pub model: String,
    /// Serving mode label ("CA"/"RE"/"OF").
    pub mode: String,
    /// Time to first token per measured turn, seconds: GPU admission →
    /// first token (service latency; queue wait is reported separately).
    pub ttft: Histogram,
    /// Queue wait per measured turn, seconds (arrival → GPU admission).
    pub queue_wait: Welford,
    /// Turns measured (arrived after warmup).
    pub turns_measured: Counter,
    /// Measured turns that had history to reuse (turn index ≥ 1).
    pub resumption_turns: Counter,
    /// Resumption turns whose KV was found in the fast tier.
    pub hits_fast: Counter,
    /// Resumption turns whose KV was found in the slow tier.
    pub hits_slow: Counter,
    /// Resumption turns with no cached KV.
    pub misses: Counter,
    /// Prompt tokens the measured turns presented (history + new).
    pub prompt_tokens: Counter,
    /// Prompt tokens actually prefilled on the GPU (new + missed history).
    pub computed_tokens: Counter,
    /// GPU seconds spent in prefill compute (whole run).
    pub prefill_busy_secs: f64,
    /// GPU seconds spent in decode iterations (whole run).
    pub decode_busy_secs: f64,
    /// GPU seconds stalled waiting for KV transfers (whole run).
    pub stall_secs: f64,
    /// GPU seconds of prefill attributable to measured turns only.
    pub measured_prefill_secs: f64,
    /// Wall-clock seconds from first arrival to last completion.
    pub makespan_secs: f64,
    /// Per-turn decode wall latency (first decode token to completion),
    /// seconds. Prefill-blocked iterations inflate it; chunked prefill
    /// deflates it.
    pub decode_latency: Histogram,
    /// Bytes moved host→device (KV loads).
    pub h2d_bytes: u64,
    /// Bytes moved device→host (KV saves).
    pub d2h_bytes: u64,
    /// Bytes read from the slow tier.
    pub slow_read_bytes: u64,
    /// Bytes written to the slow tier.
    pub slow_write_bytes: u64,
    /// Final AttentionStore statistics.
    pub store_stats: StoreStats,
    /// Context-overflow truncations performed.
    pub truncations: Counter,
    /// Sessions completed.
    pub sessions_done: Counter,
    /// GPU busy-seconds per minute of virtual time (utilization curve).
    pub gpu_busy_timeline: TimeSeries,
    /// Peak HBM bytes held by live KV of the running batch (§2.4's
    /// Challenge 2: the free-HBM budget the batch competes for).
    pub hbm_high_water_bytes: u64,
}

impl RunReport {
    /// Creates an empty report labelled for `model`/`mode`.
    pub fn new(model: &str, mode: Mode) -> Self {
        RunReport {
            model: model.to_string(),
            mode: mode.label().to_string(),
            ..RunReport::default()
        }
    }

    /// Records a store consultation's hit/miss classification. Only
    /// measured turns count toward the report.
    pub fn record_consult(&mut self, class: ConsultClass, measured: bool) {
        if !measured {
            return;
        }
        match class {
            ConsultClass::NoHistory => {}
            ConsultClass::NoStore | ConsultClass::Miss => self.misses.incr(),
            ConsultClass::HitFast => self.hits_fast.incr(),
            ConsultClass::HitSlow => self.hits_slow.incr(),
        }
    }

    /// Records an admission: `comp` seconds of prefill compute, stalled
    /// for `stall` seconds; measured turns also contribute token counts.
    /// The admission's GPU timeline span is the instance's to record.
    pub fn record_admission(
        &mut self,
        comp: f64,
        stall: f64,
        measured: bool,
        prompt_tokens: u64,
        computed_tokens: u64,
    ) {
        self.prefill_busy_secs += comp;
        self.stall_secs += stall;
        if measured {
            self.turns_measured.incr();
            self.prompt_tokens.add(prompt_tokens);
            self.computed_tokens.add(computed_tokens);
            self.measured_prefill_secs += comp;
        }
    }

    /// Records a prefill completion (the first token) of a measured turn.
    pub fn record_first_token(&mut self, measured: bool, ttft: f64, queue_wait: f64) {
        if measured {
            self.ttft.push(ttft);
            self.queue_wait.push(queue_wait);
        }
    }

    /// Adds one instance's GPU busy time: its decode seconds and its
    /// timeline, bucket by bucket.
    pub(crate) fn add_gpu_busy(&mut self, busy: &GpuBusy) {
        self.decode_busy_secs += busy.decode_secs;
        self.gpu_busy_timeline.merge(&busy.timeline);
    }

    /// Overall KV cache hit rate over resumption turns (Fig 13).
    pub fn hit_rate(&self) -> f64 {
        let total = self.resumption_turns.get();
        if total == 0 {
            return 0.0;
        }
        (self.hits_fast.get() + self.hits_slow.get()) as f64 / total as f64
    }

    /// Fast-tier (DRAM) share of resumption turns (Fig 21's breakdown).
    pub fn fast_hit_rate(&self) -> f64 {
        self.hits_fast.ratio_of(&self.resumption_turns)
    }

    /// Slow-tier (disk) share of resumption turns.
    pub fn slow_hit_rate(&self) -> f64 {
        self.hits_slow.ratio_of(&self.resumption_turns)
    }

    /// Mean TTFT in seconds (Fig 14).
    pub fn ttft_mean(&self) -> f64 {
        self.ttft.mean()
    }

    /// Prefill throughput: prompt tokens presented per second of prefill
    /// GPU time (Fig 15). Reuse raises this because reused history costs
    /// no prefill time.
    pub fn prefill_throughput(&self) -> f64 {
        if self.measured_prefill_secs == 0.0 {
            return 0.0;
        }
        self.prompt_tokens.get() as f64 / self.measured_prefill_secs
    }

    /// Total GPU hours to finish the workload (Fig 16): the makespan, as
    /// the GPUs are rented for the duration of the run.
    pub fn gpu_hours(&self) -> f64 {
        self.makespan_secs / 3600.0
    }

    /// GPU busy hours (prefill + decode + transfer stalls).
    pub fn busy_hours(&self) -> f64 {
        (self.prefill_busy_secs + self.decode_busy_secs + self.stall_secs) / 3600.0
    }

    /// Fraction of presented prompt tokens that had to be recomputed.
    pub fn recompute_fraction(&self) -> f64 {
        self.computed_tokens.ratio_of(&self.prompt_tokens)
    }

    /// Prices the run (Fig 17): GPUs and storage rented for the makespan.
    pub fn cost(&self, prices: &PriceSheet, n_gpus: u32, dram_gb: f64, ssd_gb: f64) -> CostReport {
        CostReport::price(
            prices,
            n_gpus,
            self.gpu_hours(),
            dram_gb,
            ssd_gb,
            self.gpu_hours(),
        )
    }
}

/// One instance's GPU busy time: decode seconds and the utilization
/// timeline (prefill and decode spans).
///
/// Each instance sums its own, and the run report adds them in instance
/// order at the end, so the totals do not depend on how the event loop
/// slices an instance's decoding into events.
#[derive(Debug, Default)]
pub(crate) struct GpuBusy {
    /// GPU seconds spent in decode iterations.
    pub(crate) decode_secs: f64,
    /// GPU busy-seconds per minute of virtual time.
    pub(crate) timeline: TimeSeries,
}

impl GpuBusy {
    /// Records an admitted prefill's `total`-second GPU span from `now`.
    pub(crate) fn record_prefill(&mut self, now: f64, total: f64) {
        self.timeline.add_span(now, total, total);
    }

    /// Records one decode iteration of `dur` seconds. `span_at` is the
    /// start time for the utilization timeline — `None` for iterations
    /// piggybacked inside a chunked prefill, whose span the admission
    /// already covers.
    pub(crate) fn record_decode_iter(&mut self, dur: f64, span_at: Option<f64>) {
        self.decode_secs += dur;
        if let Some(at) = span_at {
            self.timeline.add_span(at, dur, dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_runs() {
        let r = RunReport::new("m", Mode::CachedAttention);
        assert_eq!(r.hit_rate(), 0.0);
        assert_eq!(r.prefill_throughput(), 0.0);
        assert_eq!(r.recompute_fraction(), 0.0);
    }

    #[test]
    fn hit_rates_partition() {
        let mut r = RunReport::new("m", Mode::CachedAttention);
        r.resumption_turns.add(10);
        r.hits_fast.add(6);
        r.hits_slow.add(1);
        r.misses.add(3);
        assert!((r.hit_rate() - 0.7).abs() < 1e-12);
        assert!((r.fast_hit_rate() - 0.6).abs() < 1e-12);
        assert!((r.slow_hit_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn throughput_uses_presented_tokens() {
        let mut r = RunReport::new("m", Mode::CachedAttention);
        r.prompt_tokens.add(10_000);
        r.measured_prefill_secs = 2.0;
        assert_eq!(r.prefill_throughput(), 5_000.0);
    }

    #[test]
    fn cost_matches_paper_storage_share() {
        // 2-GPU LLaMA-13B: storage should be ~16% of the CA bill (§4.2).
        let mut r = RunReport::new("LLaMA-13B", Mode::CachedAttention);
        r.makespan_secs = 3600.0;
        let c = r.cost(&PriceSheet::default(), 2, 128.0, 10_000.0);
        assert!(
            (c.storage_fraction() - 0.164).abs() < 0.01,
            "{}",
            c.storage_fraction()
        );
    }
}
