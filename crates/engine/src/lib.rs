#![warn(missing_docs)]

//! The LLM serving engine of the CachedAttention reproduction.
//!
//! This crate ties the substrates together into the system the paper
//! evaluates. The engine is a staged pipeline around a thin
//! discrete-event orchestrator:
//!
//! - [`EngineConfig`] / [`Mode`] / [`Medium`]: a serving setup — which
//!   model, which hardware, CachedAttention (`CA`) vs recomputation
//!   (`RE`) vs the coupled-positional-encoding overflow baseline (`OF`),
//!   and which storage hierarchy backs AttentionStore.
//! - [`scheduler`]: the job queue ([`scheduler::SchedulerPolicy`], FCFS
//!   by default) and the pure admission predicates.
//! - [`transfer`]: the four bandwidth links (h2d/d2h/slow-rd/slow-wr),
//!   store consultation, fast-tier staging and write-buffer gating.
//! - [`hbm`]: the live-KV HBM budget and high-water ledger (§2.4).
//! - [`truncate`]: the context-overflow policy (§3.4).
//! - [`exec`]: prefill/decode timing, chunked-prefill issue and the
//!   continuous decode batch.
//! - [`overlap`]: the layer-wise pre-loading and asynchronous saving
//!   timing models (§3.2, Figures 6–8, ablated in Figures 18–20).
//! - [`ClusterSim`] / [`run_cluster`]: the orchestrator dispatching
//!   closed-loop multi-turn sessions over those stages — per-instance
//!   [`EngineInstance`] pipelines behind a [`router`] ([`RouterKind`]),
//!   all sharing one AttentionStore through a merged, owner-attributed
//!   queue view.
//! - [`run_trace`]: one instance under affinity routing
//!   ([`ClusterConfig::single`]); [`run_traced`] additionally collects
//!   the [`EngineEvent`] stream through the [`EngineObserver`] hook.
//! - [`slo`]: the overload-robustness layer — per-turn TTFT deadlines
//!   (EDF queueing), a deterministic admission/degradation ladder and a
//!   queue-driven autoscaler, all optional and off by default.
//! - [`RunReport`] / [`ClusterReport`]: every metric the paper's
//!   evaluation reports, plus per-instance breakdowns.

mod cluster;
mod config;
pub mod events;
pub mod exec;
pub mod hbm;
mod instance;
pub mod overlap;
mod report;
pub mod router;
pub mod scheduler;
pub mod slo;
pub mod transfer;
pub mod truncate;

pub use cluster::{ClusterConfig, ClusterReport, ClusterSim, Ev, FaultReport, OverloadReport};
pub use config::{EngineConfig, Medium, Mode};
pub use events::{ConsultClass, EngineEvent, EngineObserver, EventLog, NullObserver};
pub use instance::{EngineInstance, InstanceReport};
pub use report::RunReport;
pub use router::{InstanceLoad, LeastLoaded, RouterKind, RouterPolicy, SessionAffinity};
pub use slo::{AutoscalePolicy, OverloadLevel, SloPolicy};

use models::ModelSpec;
use workload::Trace;

/// Runs `cfg` over `trace` and returns the collected report.
///
/// # Examples
///
/// ```
/// use engine::{run_trace, EngineConfig, Mode};
/// use models::ModelSpec;
/// use workload::{Generator, ShareGptProfile};
///
/// let trace = Generator::new(ShareGptProfile::default(), 1).trace(20);
/// let cfg = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
/// let report = run_trace(cfg, trace);
/// assert_eq!(report.sessions_done.get(), 20);
/// assert!(report.hit_rate() > 0.5);
/// ```
pub fn run_trace(cfg: EngineConfig, trace: Trace) -> RunReport {
    run_with_observer(cfg, trace, NullObserver).0
}

/// Runs `cfg` over `trace` with `obs` attached, returning the report and
/// the observer back. This is the hook external telemetry layers build
/// on: the observer sees every committed pipeline step (and, when it
/// opts in via [`EngineObserver::wants_store_events`], every store
/// placement decision) without being able to influence the run.
pub fn run_with_observer<O: EngineObserver>(
    cfg: EngineConfig,
    trace: Trace,
    obs: O,
) -> (RunReport, O) {
    let (report, obs) = run_cluster_with_observer(ClusterConfig::single(cfg), trace, obs);
    (report.aggregate, obs)
}

/// Runs `cfg` over `trace` with an [`EventLog`] attached, returning the
/// report together with the full [`EngineEvent`] stream in commit order.
pub fn run_traced(cfg: EngineConfig, trace: Trace) -> (RunReport, Vec<EngineEvent>) {
    let (report, log) = run_with_observer(cfg, trace, EventLog::new());
    (report, log.into_events())
}

/// Runs a cluster of identical instances sharing one AttentionStore and
/// returns the aggregate-plus-per-instance report. With
/// `n_instances == 1` this is exactly [`run_trace`].
pub fn run_cluster(cfg: ClusterConfig, trace: Trace) -> ClusterReport {
    ClusterSim::run(cfg, trace)
}

/// Runs a cluster with `obs` attached, returning the report and the
/// observer back. The observer's per-instance hooks
/// ([`EngineObserver::on_instance_event`] /
/// [`EngineObserver::on_instance_store_event`]) see which instance each
/// step ran on.
pub fn run_cluster_with_observer<O: EngineObserver>(
    cfg: ClusterConfig,
    trace: Trace,
    obs: O,
) -> (ClusterReport, O) {
    let mut world = ClusterSim::with_observer(cfg, trace, obs);
    world.drive();
    world.finish()
}

/// Convenience: the paper's end-to-end run for one model and mode.
pub fn run_paper_workload(
    mode: Mode,
    model: ModelSpec,
    trace: Trace,
    warmup_turns: usize,
) -> RunReport {
    let cfg = EngineConfig::paper(mode, model).with_warmup(warmup_turns);
    run_trace(cfg, trace)
}
