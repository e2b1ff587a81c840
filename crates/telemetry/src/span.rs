//! Causal spans: fold the merged event trace into per-turn span trees.
//!
//! The raw trace is a flat, commit-ordered stream of instants. This
//! module rebuilds the *durations* the paper reasons about — for every
//! turn a well-formed tree
//!
//! ```text
//! turn
//! ├── queue_wait            arrival   → admission
//! │   ├── prefetch          disk→DRAM staging (store-side, owner-attributed)
//! │   └── write_buffer      admission blocked on the HBM write buffer (§3.2.2)
//! ├── prefill               admission → first token
//! │   └── fetch_stall       KV transfer left visible under §3.2.1's preload
//! └── decode                first token → retirement
//! ```
//!
//! plus the causal edges that cross subsystems: the `prefetch` child is
//! the shared store staging KV for this instance's queue, and a
//! rerouted turn keeps one root spanning both instances it touched.
//!
//! On top of the forest sit the paper's observables:
//!
//! - [`TurnSpan::bottleneck`]: the critical-path attribution — which
//!   segment dominated this turn's arrival-to-first-token latency.
//! - [`SpanForest::overlap_efficiency`]: the fraction of KV transfer
//!   time hidden under prefill compute, the direct §3.2.1 observable
//!   (≈ 0 for the RE baseline and for `preload = false` ablations).
//! - [`SpanForest::summary`]: percentiles, per-stage means and per-tier
//!   fetch-latency breakdowns (§3.3), serializable for `exp_profile`
//!   and the `BENCH_profile.json` regression harness.
//!
//! The builder is total: malformed input never panics, it records a
//! human-readable violation instead (the CI `trace_check` gate and the
//! proptests assert the engine never produces one).

use std::collections::HashMap;

use engine::EngineEvent;
use metrics::Histogram;
use serde::Serialize;
use sim::Time;
use store::{FetchKind, StoreEvent};

use crate::trace::{TraceEvent, TraceRecord};

/// One node of a turn's span tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Segment name (`turn`, `queue_wait`, `prefetch`, `write_buffer`,
    /// `prefill`, `fetch_stall`, `decode`).
    pub name: &'static str,
    /// Start of the segment, virtual seconds.
    pub start_secs: f64,
    /// End of the segment, virtual seconds (`>= start_secs`).
    pub end_secs: f64,
    /// Nested sub-segments, non-overlapping and contained in the parent.
    pub children: Vec<Span>,
}

impl Span {
    fn new(name: &'static str, start: f64, end: f64) -> Span {
        Span {
            name,
            start_secs: start,
            end_secs: end,
            children: Vec::new(),
        }
    }

    /// The segment's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }
}

/// Which segment dominated a turn's arrival-to-first-token latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Plain scheduler queueing (HBM residency, batch slots, ordering).
    QueueWait,
    /// Admission blocked on the draining HBM write buffer (§3.2.2).
    WriteBuffer,
    /// KV transfer time left visible despite layer-wise preload (§3.2.1).
    FetchStall,
    /// The prefill computation itself — the floor CachedAttention aims
    /// to get TTFT down to.
    PrefillCompute,
}

impl Bottleneck {
    /// Snake-case label used in summaries.
    pub fn label(self) -> &'static str {
        match self {
            Bottleneck::QueueWait => "queue_wait",
            Bottleneck::WriteBuffer => "write_buffer",
            Bottleneck::FetchStall => "fetch_stall",
            Bottleneck::PrefillCompute => "prefill_compute",
        }
    }
}

/// One turn's reconstructed spans and timing attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct TurnSpan {
    /// External session id.
    pub session: u64,
    /// Zero-based turn index within the session.
    pub turn: usize,
    /// Serving instance that retired the turn (`None` in single-engine
    /// traces collected through the instance-blind observer path).
    pub instance: Option<u32>,
    /// Turn arrival (root start).
    pub arrival: Time,
    /// Admission (prefill issue).
    pub admitted: Time,
    /// First token.
    pub prefill_done: Time,
    /// Retirement (root end).
    pub retired: Time,
    /// Store classification of the reuse (`hit_fast`, `hit_slow`,
    /// `miss`, `no_history`, `no_store`), when consulted.
    pub consult_class: Option<&'static str>,
    /// Tokens of history reused from the store.
    pub reused_tokens: u64,
    /// Tokens prefilled on the GPU.
    pub computed_tokens: u64,
    /// KV transfer time the reuse required, seconds.
    pub load_secs: f64,
    /// Pure prefill compute, seconds.
    pub comp_secs: f64,
    /// Transfer time left visible on the critical path, seconds.
    pub stall_secs: f64,
    /// Admission retries while queued.
    pub deferrals: u64,
    /// Total admission time lost to HBM write-buffer drains, seconds.
    pub write_buffer_secs: f64,
    /// The store-side prefetch that staged this turn's KV, when one ran
    /// (promotion time → staging completion).
    pub prefetch: Option<(Time, Time)>,
    /// Crash reroutes this turn survived.
    pub reroutes: u64,
    /// Whether a cache-path fault degraded the turn to a re-prefill.
    pub degraded: bool,
    /// The assembled span tree (root `turn`).
    pub root: Span,
}

impl TurnSpan {
    /// Arrival → admission, seconds.
    pub fn queue_wait_secs(&self) -> f64 {
        self.admitted.saturating_since(self.arrival).as_secs_f64()
    }

    /// Admission → first token (the report's service TTFT), seconds.
    pub fn ttft_service_secs(&self) -> f64 {
        self.prefill_done
            .saturating_since(self.admitted)
            .as_secs_f64()
    }

    /// Arrival → first token (what the user experiences), seconds.
    pub fn ttft_arrival_secs(&self) -> f64 {
        self.prefill_done
            .saturating_since(self.arrival)
            .as_secs_f64()
    }

    /// First token → retirement, seconds.
    pub fn decode_secs(&self) -> f64 {
        self.retired
            .saturating_since(self.prefill_done)
            .as_secs_f64()
    }

    /// KV transfer time hidden under prefill compute, seconds.
    pub fn hidden_secs(&self) -> f64 {
        (self.load_secs - self.stall_secs).max(0.0)
    }

    /// Critical-path attribution: the segment that contributed most to
    /// this turn's arrival-to-first-token latency. Write-buffer time is
    /// carved out of the queue wait it is part of; ties resolve toward
    /// the earlier pipeline stage.
    pub fn bottleneck(&self) -> Bottleneck {
        let wb = self.write_buffer_secs.min(self.queue_wait_secs());
        let segments = [
            (Bottleneck::QueueWait, self.queue_wait_secs() - wb),
            (Bottleneck::WriteBuffer, wb),
            (Bottleneck::FetchStall, self.stall_secs),
            (Bottleneck::PrefillCompute, self.comp_secs),
        ];
        let mut best = segments[0];
        for seg in &segments[1..] {
            if seg.1 > best.1 {
                best = *seg;
            }
        }
        best.0
    }
}

/// Per-session build state while walking the stream.
struct Pending {
    turn: usize,
    instance: Option<u32>,
    arrival: Time,
    admitted: Option<Time>,
    prefill_done: Option<Time>,
    consult_class: Option<&'static str>,
    reused: u64,
    computed: u64,
    load_secs: f64,
    comp_secs: f64,
    stall_secs: f64,
    deferrals: u64,
    write_buffer: Vec<(Time, Time)>,
    prefetch_open: Option<Time>,
    prefetch: Option<(Time, Time)>,
    reroutes: u64,
    degraded: bool,
}

impl Pending {
    fn new(turn: usize, arrival: Time) -> Pending {
        Pending {
            turn,
            instance: None,
            arrival,
            admitted: None,
            prefill_done: None,
            consult_class: None,
            reused: 0,
            computed: 0,
            load_secs: 0.0,
            comp_secs: 0.0,
            stall_secs: 0.0,
            deferrals: 0,
            write_buffer: Vec::new(),
            prefetch_open: None,
            prefetch: None,
            reroutes: 0,
            degraded: false,
        }
    }
}

/// Every turn's span tree plus any well-formedness violations found
/// while folding the stream.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// Completed turns, in retirement order.
    pub turns: Vec<TurnSpan>,
    /// Human-readable well-formedness violations (empty for any trace
    /// the engine emits; the proptests and `trace_check` pin this).
    pub violations: Vec<String>,
}

/// Clamps `(start, end)` into `[lo, hi]`; `None` if nothing remains.
fn clamp(start: Time, end: Time, lo: Time, hi: Time) -> Option<(f64, f64)> {
    let s = start.max(lo).min(hi);
    let e = end.max(lo).min(hi);
    if e > s {
        Some((s.as_secs_f64(), e.as_secs_f64()))
    } else {
        None
    }
}

/// Packs labeled intervals into a parent window as non-overlapping
/// children: clamps each to the window, sorts by start, and trims any
/// residual overlap so siblings never intersect.
fn pack_children(lo: Time, hi: Time, items: Vec<(&'static str, Time, Time)>) -> Vec<Span> {
    let mut clamped: Vec<(&'static str, f64, f64)> = items
        .into_iter()
        .filter_map(|(name, s, e)| clamp(s, e, lo, hi).map(|(s, e)| (name, s, e)))
        .collect();
    clamped.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut out: Vec<Span> = Vec::new();
    for (name, start, end) in clamped {
        let start = match out.last() {
            Some(prev) => start.max(prev.end_secs),
            None => start,
        };
        if end > start {
            out.push(Span::new(name, start, end));
        }
    }
    out
}

impl SpanForest {
    /// Folds a commit-ordered trace into per-turn span trees.
    ///
    /// Records must be in `seq` order (timestamps alone cannot order
    /// the stream: a store `prefetch_completed` carries its future
    /// link-completion time). Crash reroutes restart the turn's
    /// pipeline but keep its single root; the count is recorded on
    /// [`TurnSpan::reroutes`].
    pub fn from_records(records: &[TraceRecord]) -> SpanForest {
        let mut forest = SpanForest::default();
        let mut pending: HashMap<u64, Pending> = HashMap::new();
        for rec in records {
            match rec.ev {
                TraceEvent::Engine(ev) => forest.engine_event(&mut pending, rec.instance, ev),
                TraceEvent::Store(ev) => forest.store_event(&mut pending, ev),
            }
        }
        let mut open: Vec<u64> = pending.keys().copied().collect();
        open.sort_unstable();
        for sid in open {
            forest
                .violations
                .push(format!("session {sid}: turn still open at end of trace"));
        }
        forest
    }

    fn engine_event(
        &mut self,
        pending: &mut HashMap<u64, Pending>,
        instance: Option<u32>,
        ev: EngineEvent,
    ) {
        match ev {
            EngineEvent::TurnArrived { session, turn, at } => {
                if pending.insert(session, Pending::new(turn, at)).is_some() {
                    self.violations
                        .push(format!("session {session}: arrival mid-turn"));
                }
            }
            EngineEvent::Consulted {
                session,
                class,
                reused,
                at: _,
            } => {
                if let Some(p) = pending.get_mut(&session) {
                    p.consult_class = Some(class.label());
                    p.reused = reused;
                }
            }
            EngineEvent::Deferred { session, .. } => {
                if let Some(p) = pending.get_mut(&session) {
                    p.deferrals += 1;
                }
            }
            EngineEvent::Admitted {
                session,
                computed,
                at,
                ..
            } => match pending.get_mut(&session) {
                Some(p) if p.admitted.is_none() => {
                    p.admitted = Some(at);
                    p.computed = computed;
                    p.instance = instance.or(p.instance);
                }
                Some(_) => self
                    .violations
                    .push(format!("session {session}: double admission")),
                None => self
                    .violations
                    .push(format!("session {session}: admission without arrival")),
            },
            EngineEvent::PrefillTimed {
                session,
                load_secs,
                comp_secs,
                stall_secs,
                ..
            } => {
                if let Some(p) = pending.get_mut(&session) {
                    p.load_secs = load_secs;
                    p.comp_secs = comp_secs;
                    p.stall_secs = stall_secs;
                }
            }
            EngineEvent::PrefillDone { session, at, .. } => match pending.get_mut(&session) {
                Some(p) if p.admitted.is_some() && p.prefill_done.is_none() => {
                    p.prefill_done = Some(at);
                }
                _ => self
                    .violations
                    .push(format!("session {session}: first token without admission")),
            },
            EngineEvent::Retired { session, at, .. } => match pending.remove(&session) {
                Some(p) => self.finish_turn(session, p, at),
                None => self
                    .violations
                    .push(format!("session {session}: retirement without arrival")),
            },
            EngineEvent::TurnRerouted { session, to, .. } => match pending.get_mut(&session) {
                Some(p) => {
                    // The survivor restarts the pipeline from its queue;
                    // the turn keeps one root spanning both instances.
                    p.admitted = None;
                    p.prefill_done = None;
                    p.load_secs = 0.0;
                    p.comp_secs = 0.0;
                    p.stall_secs = 0.0;
                    p.instance = Some(to);
                    p.reroutes += 1;
                }
                None => self
                    .violations
                    .push(format!("session {session}: reroute of an idle session")),
            },
            EngineEvent::DegradedRecompute { session, .. } => {
                if let Some(p) = pending.get_mut(&session) {
                    p.degraded = true;
                }
            }
            // A shed turn opened with its arrival and ends right there:
            // the rejection closes the turn with no pipeline spans.
            EngineEvent::TurnShed { session, .. } => {
                if pending.remove(&session).is_none() {
                    self.violations
                        .push(format!("session {session}: shed without arrival"));
                }
            }
            EngineEvent::Truncated { .. }
            | EngineEvent::HbmReserved { .. }
            | EngineEvent::InstanceCrashed { .. }
            | EngineEvent::SloConfig { .. }
            | EngineEvent::OverloadLevelChanged { .. }
            | EngineEvent::ScaleUp { .. }
            | EngineEvent::ScaleDown { .. } => {}
        }
    }

    fn store_event(&mut self, pending: &mut HashMap<u64, Pending>, ev: StoreEvent) {
        match ev {
            StoreEvent::Promoted {
                session,
                kind: FetchKind::Prefetch,
                at,
                ..
            } => {
                if let Some(p) = pending.get_mut(&session) {
                    p.prefetch_open = Some(at);
                }
            }
            StoreEvent::PrefetchCompleted { session, at, .. } => {
                if let Some(p) = pending.get_mut(&session) {
                    if let Some(start) = p.prefetch_open.take() {
                        if at < start {
                            self.violations.push(format!(
                                "session {session}: prefetch completed before it started"
                            ));
                        } else {
                            p.prefetch = Some((start, at));
                        }
                    }
                }
            }
            StoreEvent::WriteBufferStall {
                session, until, at, ..
            } => {
                if let Some(p) = pending.get_mut(&session) {
                    if until >= at {
                        p.write_buffer.push((at, until));
                    } else {
                        self.violations
                            .push(format!("session {session}: negative write-buffer stall"));
                    }
                }
            }
            _ => {}
        }
    }

    /// Closes a pending turn into a [`TurnSpan`], recording violations
    /// for any mis-ordered milestone and clamping so the emitted tree
    /// stays well-formed regardless.
    fn finish_turn(&mut self, session: u64, p: Pending, retired: Time) {
        let (Some(admitted), Some(prefill_done)) = (p.admitted, p.prefill_done) else {
            self.violations.push(format!(
                "session {session}: retired without a full pipeline"
            ));
            return;
        };
        for (what, earlier, later) in [
            ("queue_wait", p.arrival, admitted),
            ("prefill", admitted, prefill_done),
            ("decode", prefill_done, retired),
        ] {
            if later < earlier {
                self.violations
                    .push(format!("session {session}: negative {what} duration"));
            }
        }
        let admitted = admitted.max(p.arrival);
        let prefill_done = prefill_done.max(admitted);
        let retired = retired.max(prefill_done);

        let mut queue_items: Vec<(&'static str, Time, Time)> = Vec::new();
        if let Some((s, e)) = p.prefetch {
            queue_items.push(("prefetch", s, e));
        }
        for (s, e) in &p.write_buffer {
            queue_items.push(("write_buffer", *s, *e));
        }
        let mut queue = Span::new(
            "queue_wait",
            p.arrival.as_secs_f64(),
            admitted.as_secs_f64(),
        );
        queue.children = pack_children(p.arrival, admitted, queue_items);

        let mut prefill = Span::new(
            "prefill",
            admitted.as_secs_f64(),
            prefill_done.as_secs_f64(),
        );
        if p.stall_secs > 0.0 {
            let stall_end = (admitted.as_secs_f64() + p.stall_secs).min(prefill.end_secs);
            if stall_end > prefill.start_secs {
                prefill
                    .children
                    .push(Span::new("fetch_stall", prefill.start_secs, stall_end));
            }
        }

        let decode = Span::new("decode", prefill_done.as_secs_f64(), retired.as_secs_f64());

        let mut root = Span::new("turn", p.arrival.as_secs_f64(), retired.as_secs_f64());
        root.children = vec![queue, prefill, decode];

        let write_buffer_secs = p
            .write_buffer
            .iter()
            .map(|(s, e)| e.saturating_since(*s).as_secs_f64())
            .sum();
        self.turns.push(TurnSpan {
            session,
            turn: p.turn,
            instance: p.instance,
            arrival: p.arrival,
            admitted,
            prefill_done,
            retired,
            consult_class: p.consult_class,
            reused_tokens: p.reused,
            computed_tokens: p.computed,
            load_secs: p.load_secs,
            comp_secs: p.comp_secs,
            stall_secs: p.stall_secs,
            deferrals: p.deferrals,
            write_buffer_secs,
            prefetch: p.prefetch,
            reroutes: p.reroutes,
            degraded: p.degraded,
            root,
        });
    }

    /// Fraction of KV transfer time hidden under prefill compute across
    /// the whole run (Σ hidden / Σ load, 0 when nothing transferred) —
    /// the §3.2.1 observable. ≈ 0 for RE (nothing reused) and for the
    /// `preload = false` ablation (everything stalls).
    pub fn overlap_efficiency(&self) -> f64 {
        let load: f64 = self.turns.iter().map(|t| t.load_secs).sum();
        if load <= 0.0 {
            return 0.0;
        }
        self.turns.iter().map(|t| t.hidden_secs()).sum::<f64>() / load
    }

    /// Aggregates the forest into the serializable profile the
    /// regression harness records.
    pub fn summary(&self) -> ProfileSummary {
        let mut ttft_service = Histogram::new();
        let mut ttft_arrival = Histogram::new();
        let mut queue_wait = Histogram::new();
        let mut stall = Histogram::new();
        let mut compute = Histogram::new();
        let mut decode = Histogram::new();
        let mut prefetch = Histogram::new();
        let mut bottlenecks = [0u64; 4];
        let mut tiers: Vec<TierStats> = Vec::new();
        for t in &self.turns {
            ttft_service.push(t.ttft_service_secs());
            ttft_arrival.push(t.ttft_arrival_secs());
            queue_wait.push(t.queue_wait_secs());
            stall.push(t.stall_secs);
            compute.push(t.comp_secs);
            decode.push(t.decode_secs());
            if let Some((s, e)) = t.prefetch {
                prefetch.push(e.saturating_since(s).as_secs_f64());
            }
            bottlenecks[match t.bottleneck() {
                Bottleneck::QueueWait => 0,
                Bottleneck::WriteBuffer => 1,
                Bottleneck::FetchStall => 2,
                Bottleneck::PrefillCompute => 3,
            }] += 1;
            if let Some(class) = t.consult_class {
                let slot = match tiers.iter_mut().find(|s| s.class == class) {
                    Some(slot) => slot,
                    None => {
                        tiers.push(TierStats {
                            class,
                            turns: 0,
                            mean_load_secs: 0.0,
                            mean_stall_secs: 0.0,
                        });
                        tiers.last_mut().expect("just pushed")
                    }
                };
                // Accumulate sums first; normalized below.
                slot.turns += 1;
                slot.mean_load_secs += t.load_secs;
                slot.mean_stall_secs += t.stall_secs;
            }
        }
        for slot in &mut tiers {
            if slot.turns > 0 {
                slot.mean_load_secs /= slot.turns as f64;
                slot.mean_stall_secs /= slot.turns as f64;
            }
        }
        tiers.sort_by(|a, b| a.class.cmp(b.class));
        let pct = |h: &mut Histogram, p: f64| h.percentile(p);
        ProfileSummary {
            turns: self.turns.len() as u64,
            violations: self.violations.len() as u64,
            ttft_mean_secs: ttft_service.mean(),
            ttft_p50_secs: pct(&mut ttft_service, 50.0),
            ttft_p95_secs: pct(&mut ttft_service, 95.0),
            ttft_p99_secs: pct(&mut ttft_service, 99.0),
            ttft_arrival_mean_secs: ttft_arrival.mean(),
            ttft_arrival_p99_secs: pct(&mut ttft_arrival, 99.0),
            queue_wait_mean_secs: queue_wait.mean(),
            queue_wait_p99_secs: pct(&mut queue_wait, 99.0),
            fetch_stall_mean_secs: stall.mean(),
            prefill_compute_mean_secs: compute.mean(),
            decode_mean_secs: decode.mean(),
            prefetch_count: prefetch.count() as u64,
            prefetch_mean_secs: prefetch.mean(),
            kv_load_secs_total: self.turns.iter().map(|t| t.load_secs).sum(),
            kv_hidden_secs_total: self.turns.iter().map(|t| t.hidden_secs()).sum(),
            overlap_efficiency: self.overlap_efficiency(),
            bottleneck_queue_wait: bottlenecks[0],
            bottleneck_write_buffer: bottlenecks[1],
            bottleneck_fetch_stall: bottlenecks[2],
            bottleneck_prefill_compute: bottlenecks[3],
            tiers,
        }
    }
}

/// Fetch-latency breakdown for one consult class (§3.3): how long turns
/// of that class spent loading KV and how much of it stayed visible.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TierStats {
    /// Consult classification (`hit_fast`, `hit_slow`, `miss`,
    /// `no_history`, `no_store`).
    pub class: &'static str,
    /// Turns so classified.
    pub turns: u64,
    /// Mean KV transfer time required, seconds.
    pub mean_load_secs: f64,
    /// Mean transfer time left visible on the critical path, seconds.
    pub mean_stall_secs: f64,
}

/// Serializable aggregate of a [`SpanForest`] — the per-scenario record
/// of `BENCH_profile.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileSummary {
    /// Turns profiled.
    pub turns: u64,
    /// Span well-formedness violations (must be 0).
    pub violations: u64,
    /// Mean service TTFT (admission → first token), seconds.
    pub ttft_mean_secs: f64,
    /// Median service TTFT, seconds (`None` — serialized `null` — when
    /// no turn completed a prefill; distinguishes "no samples" from
    /// "0 s").
    pub ttft_p50_secs: Option<f64>,
    /// p95 service TTFT, seconds (`None` when no samples).
    pub ttft_p95_secs: Option<f64>,
    /// p99 service TTFT, seconds (`None` when no samples).
    pub ttft_p99_secs: Option<f64>,
    /// Mean arrival TTFT (arrival → first token), seconds.
    pub ttft_arrival_mean_secs: f64,
    /// p99 arrival TTFT, seconds (`None` when no samples).
    pub ttft_arrival_p99_secs: Option<f64>,
    /// Mean queue wait, seconds.
    pub queue_wait_mean_secs: f64,
    /// p99 queue wait, seconds (`None` when no samples).
    pub queue_wait_p99_secs: Option<f64>,
    /// Mean visible fetch stall, seconds.
    pub fetch_stall_mean_secs: f64,
    /// Mean pure prefill compute, seconds.
    pub prefill_compute_mean_secs: f64,
    /// Mean decode duration, seconds.
    pub decode_mean_secs: f64,
    /// Prefetch staging spans observed.
    pub prefetch_count: u64,
    /// Mean prefetch staging latency, seconds.
    pub prefetch_mean_secs: f64,
    /// Total KV transfer time required by reuse, seconds.
    pub kv_load_secs_total: f64,
    /// Share of that transfer hidden under compute, seconds.
    pub kv_hidden_secs_total: f64,
    /// Σ hidden / Σ load (§3.2.1 observable).
    pub overlap_efficiency: f64,
    /// Turns bottlenecked on plain queueing.
    pub bottleneck_queue_wait: u64,
    /// Turns bottlenecked on the HBM write buffer.
    pub bottleneck_write_buffer: u64,
    /// Turns bottlenecked on visible KV fetch.
    pub bottleneck_fetch_stall: u64,
    /// Turns bottlenecked on prefill compute.
    pub bottleneck_prefill_compute: u64,
    /// Per-consult-class fetch-latency breakdown, sorted by class.
    pub tiers: Vec<TierStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::ConsultClass;
    use store::TierId;

    fn rec(seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            instance: Some(0),
            ev,
        }
    }

    fn t(secs: f64) -> Time {
        Time::from_secs_f64(secs)
    }

    /// arrival 0 → admit 2 → first token 5 → retire 9, with a prefetch
    /// staging [0.5, 1.5], a write-buffer stall [0, 0.25] and an
    /// admission-time breakdown of load 2.0 / comp 2.0 / stall 1.0.
    fn one_turn() -> Vec<TraceRecord> {
        let evs: Vec<TraceEvent> = vec![
            TraceEvent::Engine(EngineEvent::TurnArrived {
                session: 7,
                turn: 0,
                at: t(0.0),
            }),
            TraceEvent::Store(StoreEvent::WriteBufferStall {
                session: 7,
                until: t(0.25),
                at: t(0.0),
            }),
            TraceEvent::Store(StoreEvent::Promoted {
                session: 7,
                bytes: 100,
                kind: FetchKind::Prefetch,
                from: TierId(1),
                to: TierId(0),
                queue_pos: Some(0),
                instance: Some(0),
                at: t(0.5),
            }),
            TraceEvent::Store(StoreEvent::PrefetchCompleted {
                session: 7,
                instance: Some(0),
                at: t(1.5),
            }),
            TraceEvent::Engine(EngineEvent::Consulted {
                session: 7,
                class: ConsultClass::HitFast,
                reused: 80,
                at: t(2.0),
            }),
            TraceEvent::Engine(EngineEvent::Admitted {
                session: 7,
                reused: 80,
                computed: 40,
                chunked: false,
                at: t(2.0),
            }),
            TraceEvent::Engine(EngineEvent::PrefillTimed {
                session: 7,
                load_secs: 2.0,
                comp_secs: 2.0,
                stall_secs: 1.0,
                tier: Some(0),
                at: t(2.0),
            }),
            TraceEvent::Engine(EngineEvent::PrefillDone {
                session: 7,
                ttft_secs: 3.0,
                at: t(5.0),
            }),
            TraceEvent::Engine(EngineEvent::Retired {
                session: 7,
                new_hist: 120,
                at: t(9.0),
            }),
        ];
        evs.into_iter()
            .enumerate()
            .map(|(i, ev)| rec(i as u64, ev))
            .collect()
    }

    #[test]
    fn builds_one_well_formed_turn() {
        let forest = SpanForest::from_records(&one_turn());
        assert!(forest.violations.is_empty(), "{:?}", forest.violations);
        assert_eq!(forest.turns.len(), 1);
        let turn = &forest.turns[0];
        assert_eq!(turn.session, 7);
        assert_eq!(turn.instance, Some(0));
        assert_eq!(turn.consult_class, Some("hit_fast"));
        assert_eq!(turn.queue_wait_secs(), 2.0);
        assert_eq!(turn.ttft_service_secs(), 3.0);
        assert_eq!(turn.decode_secs(), 4.0);
        assert_eq!(turn.hidden_secs(), 1.0);
        // Root spans the whole turn; stage children tile it exactly.
        assert_eq!(turn.root.name, "turn");
        assert_eq!(turn.root.secs(), 9.0);
        let names: Vec<_> = turn.root.children.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["queue_wait", "prefill", "decode"]);
        // queue_wait holds the write-buffer stall and the prefetch.
        let queue = &turn.root.children[0];
        let q_names: Vec<_> = queue.children.iter().map(|c| c.name).collect();
        assert_eq!(q_names, vec!["write_buffer", "prefetch"]);
        // prefill holds the visible stall, which leads the compute.
        let prefill = &turn.root.children[1];
        assert_eq!(prefill.children.len(), 1);
        assert_eq!(prefill.children[0].name, "fetch_stall");
        assert_eq!(prefill.children[0].secs(), 1.0);
    }

    #[test]
    fn attributes_the_bottleneck_to_the_dominant_segment() {
        let forest = SpanForest::from_records(&one_turn());
        // comp 2.0 beats stall 1.0, write-buffer 0.25 and plain queue
        // wait 2.0 - 0.25 = 1.75.
        assert_eq!(forest.turns[0].bottleneck(), Bottleneck::PrefillCompute);
        let mut t0 = forest.turns[0].clone();
        t0.stall_secs = 5.0;
        assert_eq!(t0.bottleneck(), Bottleneck::FetchStall);
    }

    #[test]
    fn overlap_efficiency_is_hidden_over_load() {
        let forest = SpanForest::from_records(&one_turn());
        // load 2.0, stall 1.0 → hidden 1.0 → efficiency 0.5.
        assert!((forest.overlap_efficiency() - 0.5).abs() < 1e-12);
        let summary = forest.summary();
        assert_eq!(summary.turns, 1);
        assert_eq!(summary.violations, 0);
        assert_eq!(summary.prefetch_count, 1);
        assert!((summary.prefetch_mean_secs - 1.0).abs() < 1e-12);
        assert_eq!(summary.tiers.len(), 1);
        assert_eq!(summary.tiers[0].class, "hit_fast");
        let json = serde_json::to_string(&summary).unwrap();
        assert!(json.contains("\"overlap_efficiency\":0.5"));
    }

    #[test]
    fn empty_forest_has_zero_efficiency_not_nan() {
        let forest = SpanForest::from_records(&[]);
        assert_eq!(forest.overlap_efficiency(), 0.0);
        assert_eq!(forest.summary().turns, 0);
    }

    #[test]
    fn malformed_streams_record_violations_instead_of_panicking() {
        // Retirement without any pipeline behind it.
        let recs = vec![rec(
            0,
            TraceEvent::Engine(EngineEvent::Retired {
                session: 3,
                new_hist: 10,
                at: t(1.0),
            }),
        )];
        let forest = SpanForest::from_records(&recs);
        assert_eq!(forest.turns.len(), 0);
        assert_eq!(forest.violations.len(), 1);
        // A turn left open at the end of the trace.
        let recs = vec![rec(
            0,
            TraceEvent::Engine(EngineEvent::TurnArrived {
                session: 4,
                turn: 0,
                at: t(0.0),
            }),
        )];
        let forest = SpanForest::from_records(&recs);
        assert!(forest.violations[0].contains("still open"));
    }

    #[test]
    fn reroute_restarts_the_pipeline_under_one_root() {
        let evs: Vec<TraceEvent> = vec![
            TraceEvent::Engine(EngineEvent::TurnArrived {
                session: 9,
                turn: 2,
                at: t(0.0),
            }),
            TraceEvent::Engine(EngineEvent::Consulted {
                session: 9,
                class: ConsultClass::HitSlow,
                reused: 50,
                at: t(1.0),
            }),
            TraceEvent::Engine(EngineEvent::Admitted {
                session: 9,
                reused: 50,
                computed: 10,
                chunked: false,
                at: t(1.0),
            }),
            TraceEvent::Engine(EngineEvent::PrefillTimed {
                session: 9,
                load_secs: 1.0,
                comp_secs: 0.5,
                stall_secs: 1.0,
                tier: Some(1),
                at: t(1.0),
            }),
            TraceEvent::Engine(EngineEvent::TurnRerouted {
                session: 9,
                from: 0,
                to: 1,
                at: t(2.0),
            }),
            TraceEvent::Engine(EngineEvent::Consulted {
                session: 9,
                class: ConsultClass::Miss,
                reused: 0,
                at: t(3.0),
            }),
            TraceEvent::Engine(EngineEvent::Admitted {
                session: 9,
                reused: 0,
                computed: 60,
                chunked: false,
                at: t(3.0),
            }),
            TraceEvent::Engine(EngineEvent::PrefillTimed {
                session: 9,
                load_secs: 0.0,
                comp_secs: 2.0,
                stall_secs: 0.0,
                tier: None,
                at: t(3.0),
            }),
            TraceEvent::Engine(EngineEvent::PrefillDone {
                session: 9,
                ttft_secs: 2.0,
                at: t(5.0),
            }),
            TraceEvent::Engine(EngineEvent::Retired {
                session: 9,
                new_hist: 60,
                at: t(6.0),
            }),
        ];
        let recs: Vec<TraceRecord> = evs
            .into_iter()
            .enumerate()
            .map(|(i, ev)| rec(i as u64, ev))
            .collect();
        let forest = SpanForest::from_records(&recs);
        assert!(forest.violations.is_empty(), "{:?}", forest.violations);
        assert_eq!(forest.turns.len(), 1);
        let turn = &forest.turns[0];
        assert_eq!(turn.reroutes, 1);
        assert_eq!(turn.instance, Some(0));
        // The re-run's timings replace the aborted attempt's.
        assert_eq!(turn.consult_class, Some("miss"));
        assert_eq!(turn.comp_secs, 2.0);
        assert_eq!(turn.stall_secs, 0.0);
        assert_eq!(turn.queue_wait_secs(), 3.0);
    }

    #[test]
    fn packing_trims_overlapping_children() {
        let spans = pack_children(
            t(0.0),
            t(10.0),
            vec![
                ("write_buffer", t(1.0), t(4.0)),
                ("prefetch", t(3.0), t(6.0)),
                ("write_buffer", t(20.0), t(30.0)), // outside the window
            ],
        );
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].end_secs, 4.0);
        assert_eq!(spans[1].start_secs, 4.0); // trimmed to the sibling
        assert_eq!(spans[1].end_secs, 6.0);
        let _ = TierId(0); // keep the store import exercised
    }
}
