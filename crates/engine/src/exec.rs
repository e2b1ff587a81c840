//! Execution stage: what the GPU runs and for how long.
//!
//! Owns the job arena's [`Job`] record, the GPU's current [`Action`], the
//! decode batch, and the timing arithmetic: [`prefill_timing`] folds the
//! layer-wise pre-loading schedule (§3.2.1) into a prefill's duration,
//! [`plan_prefill`] decides monolithic vs Sarathi-style chunked issue,
//! `Executor::plan_run` times a decode run of the continuous batch, and
//! [`Executor::advance_decode`] steps the batch through it.
//!
//! The stage is deliberately ignorant of the report and the store: it
//! returns durations and classifications, and the orchestrator does the
//! bookkeeping.

use sim::{Dur, Time};

use crate::overlap::{no_preload, with_preload, PreloadParams};
use crate::transfer::TransferPlan;
use crate::EngineConfig;

/// What the GPU is doing until the pending tick.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    /// Prefilling `job` monolithically; at the tick it joins the batch.
    Prefill {
        /// Job arena index.
        job: usize,
    },
    /// Running one chunk of `job`'s prefill; `chunks_left` more follow.
    PrefillChunk {
        /// Job arena index.
        job: usize,
        /// Chunks remaining after the current one.
        chunks_left: u32,
        /// Duration of each chunk.
        chunk_dur: Dur,
    },
    /// A decode run of the whole batch: the iterations
    /// `Executor::plan_run` timed, ending at the tick.
    Decode,
    /// Stalled waiting for data or buffer drain.
    Sleep,
}

/// One turn's job.
#[derive(Debug)]
pub struct Job {
    /// Owning session (index into the simulator's session table).
    pub session: usize,
    /// Serving instance the router assigned this turn to (always 0 on a
    /// single-instance engine).
    pub instance: u32,
    /// When the turn arrived.
    pub arrival: Time,
    /// Prompt tokens presented this turn (clamped to the window).
    pub user_tokens: u64,
    /// Response tokens to decode.
    pub resp_tokens: u64,
    /// Historical context tokens visible to the model (post-truncation).
    pub hist_tokens: u64,
    /// History tokens served from the cache.
    pub reused_tokens: u64,
    /// Tokens actually prefilled on the GPU.
    pub computed_tokens: u64,
    /// Live context length while decoding.
    pub ctx_tokens: u64,
    /// Decode tokens still to produce.
    pub remaining_decode: u64,
    /// Whether this turn counts toward the metrics (past warmup).
    pub measured: bool,
    /// Pure prefill compute time in seconds.
    pub prefill_secs: f64,
    /// When the job was admitted onto the GPU.
    pub admitted_at: Time,
    /// When decoding started (prefill completion).
    pub decode_start: Time,
    /// Store-consultation outcome, filled the first time the job reaches
    /// the queue head: (reused tokens, staging completion time, tier the
    /// KV was found in — `None` on a miss).
    pub consulted: Option<(u64, Time, Option<store::TierId>)>,
    /// Absolute TTFT deadline the scheduler orders by; `None` when no SLO
    /// policy governs the run.
    pub deadline: Option<Time>,
    /// Admitted under overload degradation: skip the store's fetch path
    /// and recompute the full prefill (the turn still saves on retire).
    pub degraded: bool,
}

impl Job {
    /// A fresh job for one arriving turn on `instance`, not yet consulted
    /// or admitted.
    #[allow(clippy::too_many_arguments)]
    pub fn for_turn(
        session: usize,
        instance: u32,
        arrival: Time,
        user_tokens: u64,
        resp_tokens: u64,
        hist_tokens: u64,
        measured: bool,
    ) -> Self {
        Job {
            session,
            instance,
            arrival,
            user_tokens,
            resp_tokens,
            hist_tokens,
            reused_tokens: 0,
            computed_tokens: 0,
            ctx_tokens: 0,
            remaining_decode: resp_tokens,
            measured,
            prefill_secs: 0.0,
            admitted_at: Time::ZERO,
            decode_start: Time::ZERO,
            consulted: None,
            deadline: None,
            degraded: false,
        }
    }
}

/// How an admitted prefill is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillIssue {
    /// One uninterrupted prefill.
    Monolithic,
    /// Sarathi-style chunking: `n_chunks` equal slices with one decode
    /// iteration piggybacked between consecutive slices.
    Chunked {
        /// Number of slices.
        n_chunks: u64,
        /// Duration of each slice.
        chunk_dur: Dur,
    },
}

/// Splits a prefill into chunks when a chunk size is configured and the
/// computed span exceeds it.
pub fn plan_prefill(chunk_tokens: Option<u64>, computed: u64, total: Dur) -> PrefillIssue {
    match chunk_tokens {
        Some(chunk) if computed > chunk => {
            let n_chunks = computed.div_ceil(chunk).max(1);
            PrefillIssue::Chunked {
                n_chunks,
                chunk_dur: total / n_chunks,
            }
        }
        _ => PrefillIssue::Monolithic,
    }
}

/// The timing of one admitted prefill, as issued to the GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IssuedPrefill {
    /// How long the issued prefill lasts: compute plus visible stall.
    pub total: Dur,
    /// Pure prefill compute.
    pub comp: Dur,
    /// Transfer or staging time left visible on the critical path.
    pub stall: Dur,
    /// KV transfer time the reuse requires (zero when nothing is
    /// reused): the host→device load of the stored bytes under a host
    /// tier 0, the staging wait under a device-memory tier 0.
    pub load: Dur,
}

/// Computes the prefill timing of a job given its reuse split and the
/// staging completion of its cached KV.
///
/// Under a host-memory tier 0 the reused KV is pre-loaded layer-wise
/// over the `h2d` stream, overlapped with the partial prefill (§3.2.1);
/// the stream is occupied through the end of the load. Under a
/// device-memory tier 0 ([`TransferPlan::device_resident`]) the KV is
/// already on the GPU and only the staging wait remains. Either way the
/// prefill cannot finish before its KV is staged.
pub fn prefill_timing(
    cfg: &EngineConfig,
    plan: &mut TransferPlan,
    now: Time,
    reused: u64,
    computed: u64,
    staged: Time,
) -> IssuedPrefill {
    let m = &cfg.model;
    let comp = cfg.cost.prefill_time(m, &cfg.cluster, computed, reused);
    let wait = staged.saturating_since(now);
    let timing = |total: Dur, stall: Dur, load: Dur| IssuedPrefill {
        total: total.max(wait + comp),
        comp,
        stall: stall.max(wait),
        load,
    };
    if reused == 0 {
        return timing(comp, Dur::ZERO, Dur::ZERO);
    }
    if plan.device_resident() {
        return timing(wait + comp, wait, wait);
    }
    let load_bytes = cfg.stored_kv_bytes(reused);
    let layers = m.n_layers;
    let t_load_layer = plan.h2d_duration_of(load_bytes / layers as u64);
    let t_comp_layer = comp / layers as u64;
    // The read stream may have warmed the buffer while it was idle
    // before this job, but never before the KV was staged in DRAM.
    let stream_free = plan.h2d_busy_until().max(staged);
    let max_warm = t_load_layer * cfg.read_buffer_layers as u64;
    let (warm, delay) = if stream_free <= now {
        (now.saturating_since(stream_free).min(max_warm), Dur::ZERO)
    } else {
        (Dur::ZERO, stream_free - now)
    };
    let params = PreloadParams {
        n_layers: layers,
        t_load_layer,
        t_comp_layer,
        buffer_layers: cfg.read_buffer_layers,
        warm,
        delay,
    };
    let preload = if cfg.preload {
        with_preload(&params)
    } else {
        no_preload(&params)
    };
    // Occupy the load stream through the end of this job's transfers.
    plan.h2d_occupy(now + preload.load_done, load_bytes);
    timing(
        preload.done,
        preload.stall,
        plan.h2d_duration_of(load_bytes),
    )
}

/// The GPU's mutable execution state: current action, paused chunked
/// prefill, the continuous decode batch and its decode run.
#[derive(Debug, Default)]
pub struct Executor {
    /// What the GPU runs until the pending tick (`None` = idle).
    pub gpu_action: Option<Action>,
    /// A chunked prefill paused for one piggybacked decode iteration:
    /// (job, chunks left, chunk duration).
    pub pending_chunk: Option<(usize, u32, Dur)>,
    /// Jobs decoding together under continuous batching.
    pub batch: Vec<usize>,
    /// The generation of the pending tick. A tick carrying an older one
    /// was superseded: a cut moved the run's end, or a drain emptied the
    /// instance.
    pub(crate) tick_gen: u64,
    /// The decode run [`Action::Decode`] stands for.
    run: DecodeRun,
}

/// A decode run: consecutive iterations of one batch, timed when planned.
#[derive(Debug, Default)]
struct DecodeRun {
    /// When the first iteration started.
    start: Time,
    /// Each iteration's end, in order; the run's tick is at the last.
    ends: Vec<Time>,
    /// Whether the iterations are GPU timeline spans (a decode iteration
    /// piggybacked inside a chunked prefill is covered by the admission).
    spans: bool,
}

impl Executor {
    /// Creates an idle executor with an empty batch.
    pub fn new() -> Self {
        Executor::default()
    }

    /// Iterations until the first batched job finishes.
    pub(crate) fn iters_to_first_finish(&self, jobs: &[Job]) -> u64 {
        self.batch
            .iter()
            .map(|&j| jobs[j].remaining_decode)
            .min()
            .unwrap_or(0)
    }

    /// Plans a decode run of `iters` iterations of the current batch from
    /// `now` and returns when it ends. Iteration `i` of a batch of `n`
    /// whose context is `C0` at `now` lasts
    /// `decode_iter_time(n, C0 + i·n)`, exactly what stepping the batch
    /// one token at a time would charge.
    pub(crate) fn plan_run(
        &mut self,
        cfg: &EngineConfig,
        jobs: &[Job],
        now: Time,
        iters: u64,
        spans: bool,
    ) -> Time {
        let n = self.batch.len() as u64;
        let cost = cfg.cost.decode_cost(&cfg.model, &cfg.cluster, n);
        let mut ctx: u64 = self.batch.iter().map(|&j| jobs[j].ctx_tokens).sum();
        let run = &mut self.run;
        run.start = now;
        run.spans = spans;
        run.ends.clear();
        let mut at = now;
        for _ in 0..iters {
            at += cost.iter_time(ctx);
            run.ends.push(at);
            ctx += n;
        }
        at
    }

    /// Ends the run at its first iteration boundary at or after `now`
    /// (never at the run's start). Returns the new end when that
    /// shortened the run.
    pub(crate) fn cut_run(&mut self, now: Time) -> Option<Time> {
        let ends = &mut self.run.ends;
        let kept = 1 + ends.partition_point(|&e| e < now);
        if kept >= ends.len() {
            return None;
        }
        ends.truncate(kept);
        Some(ends[kept - 1])
    }

    /// The run's iterations in order, as (start, duration, whether it is
    /// a timeline span).
    pub(crate) fn run_iters(&self) -> impl Iterator<Item = (Time, Dur, bool)> + '_ {
        let starts = std::iter::once(self.run.start).chain(self.run.ends.iter().copied());
        starts
            .zip(&self.run.ends)
            .map(|(start, &end)| (start, end - start, self.run.spans))
    }

    /// Number of iterations in the run.
    pub(crate) fn run_len(&self) -> u64 {
        self.run.ends.len() as u64
    }

    /// Advances every batched job by `tokens` decoded tokens; removes and
    /// returns the jobs that just finished, in batch order.
    pub fn advance_decode(&mut self, jobs: &mut [Job], tokens: u64) -> Vec<usize> {
        let mut finished = Vec::new();
        for &j in &self.batch {
            let job = &mut jobs[j];
            job.ctx_tokens += tokens;
            job.remaining_decode -= tokens;
            if job.remaining_decode == 0 {
                finished.push(j);
            }
        }
        if !finished.is_empty() {
            self.batch.retain(|j| !finished.contains(j));
        }
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(resp: u64) -> Job {
        Job {
            session: 0,
            instance: 0,
            arrival: Time::ZERO,
            user_tokens: 10,
            resp_tokens: resp,
            hist_tokens: 0,
            reused_tokens: 0,
            computed_tokens: 10,
            ctx_tokens: 10,
            remaining_decode: resp,
            measured: true,
            prefill_secs: 0.0,
            admitted_at: Time::ZERO,
            decode_start: Time::ZERO,
            consulted: None,
            deadline: None,
            degraded: false,
        }
    }

    #[test]
    fn plan_prefill_only_chunks_past_the_threshold() {
        let total = Dur::from_secs_f64(1.0);
        assert_eq!(plan_prefill(None, 10_000, total), PrefillIssue::Monolithic);
        assert_eq!(
            plan_prefill(Some(256), 200, total),
            PrefillIssue::Monolithic
        );
        assert_eq!(
            plan_prefill(Some(256), 256, total),
            PrefillIssue::Monolithic
        );
        match plan_prefill(Some(256), 1000, total) {
            PrefillIssue::Chunked {
                n_chunks,
                chunk_dur,
            } => {
                assert_eq!(n_chunks, 4);
                assert_eq!(chunk_dur, total / 4);
            }
            other => panic!("expected chunked, got {other:?}"),
        }
    }

    #[test]
    fn advance_decode_retires_in_batch_order() {
        let mut jobs = vec![job(1), job(2), job(1)];
        let mut ex = Executor::new();
        ex.batch = vec![0, 1, 2];
        let finished = ex.advance_decode(&mut jobs, 1);
        assert_eq!(finished, vec![0, 2]);
        assert_eq!(ex.batch, vec![1]);
        assert_eq!(jobs[0].ctx_tokens, 11);
        assert_eq!(jobs[1].remaining_decode, 1);
        let finished = ex.advance_decode(&mut jobs, 1);
        assert_eq!(finished, vec![1]);
        assert!(ex.batch.is_empty());
    }

    #[test]
    fn a_run_times_each_iteration_at_its_own_context() {
        let cfg = EngineConfig::paper(crate::Mode::Recompute, models::ModelSpec::llama2_13b());
        let jobs = vec![job(5), job(3)];
        let mut ex = Executor::new();
        ex.batch = vec![0, 1];
        let start = Time::from_secs_f64(2.0);
        assert_eq!(ex.iters_to_first_finish(&jobs), 3);
        let end = ex.plan_run(&cfg, &jobs, start, 3, true);
        let mut at = start;
        for (i, (s, dur, span)) in ex.run_iters().enumerate() {
            let ctx = 20 + 2 * i as u64;
            assert_eq!((s, span), (at, true));
            assert_eq!(
                dur,
                cfg.cost.decode_iter_time(&cfg.model, &cfg.cluster, 2, ctx)
            );
            at += dur;
        }
        assert_eq!((at, ex.run_len()), (end, 3));
    }

    #[test]
    fn cuts_land_on_the_first_boundary_never_the_start() {
        let cfg = EngineConfig::paper(crate::Mode::Recompute, models::ModelSpec::llama2_13b());
        let jobs = vec![job(10)];
        let mut ex = Executor::new();
        ex.batch = vec![0];
        let start = Time::from_secs_f64(1.0);
        let plan = |ex: &mut Executor| {
            ex.plan_run(&cfg, &jobs, start, 6, true);
            ex.run_iters().map(|(s, d, _)| s + d).collect::<Vec<_>>()
        };
        let ends = plan(&mut ex);
        // At the start instant the run keeps its first iteration.
        assert_eq!(ex.cut_run(start), Some(ends[0]));
        // Strictly inside iteration 2: it finishes.
        plan(&mut ex);
        assert_eq!(ex.cut_run(ends[1] + Dur::from_nanos(1)), Some(ends[2]));
        // Exactly on the end of iteration 2: the run ends there.
        plan(&mut ex);
        assert_eq!(ex.cut_run(ends[2]), Some(ends[2]));
        assert_eq!(ex.run_len(), 3);
        // Inside the last iteration there is nothing to cut.
        plan(&mut ex);
        assert_eq!(ex.cut_run(ends[4] + Dur::from_nanos(1)), None);
        assert_eq!(ex.run_len(), 6);
    }
}
