//! The N-instance cluster orchestrator sharing one AttentionStore.
//!
//! [`ClusterSim`] generalizes the single-engine discrete-event loop to a
//! cluster: one event stream drives N [`EngineInstance`]s — each with its
//! own job queue, executor, PCIe links and HBM ledger — while the session
//! table, the job arena, the shared [`AttentionStore`] and the aggregate
//! [`RunReport`] stay global. A [`RouterPolicy`] picks the instance for
//! every arriving turn ([`SessionAffinity`](crate::router::SessionAffinity)
//! by default).
//!
//! The shared store sees one *merged* [`QueueView`] built from every
//! instance's queue: per-queue positions are interleaved round-robin
//! (all queue heads first, then all seconds, ties by instance id), so the
//! §3.3 prefetch and eviction windows protect the sessions the cluster
//! will serve soonest regardless of which instance holds them. Each
//! session in the view is tagged with its owning instance, which is how
//! prefetch/demotion transfers are charged to the right instance's links
//! and how store events carry per-instance attribution.
//!
//! Determinism: with `n_instances == 1` every router routes to instance
//! 0, the merged view degenerates to the single queue, and every
//! operation lands in the same order as the pre-cluster engine — the
//! golden `RunReport` fixtures reproduce byte-for-byte (pinned by
//! `tests/cluster_equivalence.rs`).
//!
//! Decoding advances in *decode runs*: an instance's batch decodes to its
//! next decision (the first job's finish, or the next boundary while a
//! queued job could be admitted) in one event, and a job queued mid-run
//! cuts the run at the boundary the per-token loop would have admitted it
//! at. Each instance sums its own GPU busy time, which `finish` adds in
//! instance order, so no report depends on how decoding is sliced into
//! events (DESIGN §9).

use std::collections::BTreeMap;

use serde::Serialize;
use sim::{BoundedInbox, Dur, EventQueue, FaultPlan, Time, World};
use store::{
    AttentionStore, ContentKey, DedupStats, KeyingMode, QueueView, SessionId, StoreEvent, TierId,
};
use workload::Trace;

use crate::events::{ConsultClass, EngineEvent, EngineObserver, NullObserver};
use crate::exec::{self, Action, Job, PrefillIssue};
use crate::instance::{EngineInstance, InstanceReport};
use crate::router::{InstanceLoad, RouterKind, RouterPolicy};
use crate::scheduler;
use crate::slo::{OverloadLevel, ScaleDecision, SloPolicy, SloState};
use crate::transfer::FaultedConsult;
use crate::truncate;
use crate::{EngineConfig, Mode, RunReport};

#[cfg(test)]
thread_local! {
    /// The most iterations one decode run may cover in this thread's
    /// simulations. A cap of 1 reproduces the per-token loop, the oracle
    /// the tests hold decode runs to.
    pub(crate) static RUN_CAP: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// Simulation events (public because [`ClusterSim`] implements
/// [`World<Event = Ev>`]; not constructed by users directly).
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// A session's next turn arrived (the user hit enter).
    TurnArrival(usize),
    /// An instance's GPU finished its current action (or should wake
    /// up). The second field is the tick's generation: a tick older than
    /// the instance's current one was superseded and is ignored.
    GpuTick(u32, u64),
    /// Periodic TTL sweep of the shared store.
    Sweep,
    /// A scripted instance crash fired (fault plan).
    Crash(u32),
    /// A scripted DRAM pressure spike fired (index into the fault plan's
    /// pressure list).
    Pressure(usize),
    /// An SLO decision tick closed (ladder + autoscaler evaluation).
    SloTick,
}

/// Per-session progress.
#[derive(Debug)]
struct SessionState {
    /// Index into `trace.sessions`.
    spec: usize,
    /// Next turn index to arrive.
    next_turn: usize,
    /// Historical context tokens visible to the model (post-truncation).
    hist_tokens: u64,
}

/// A cluster serving setup: the per-instance engine config, the instance
/// count, and the routing policy.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-instance engine configuration (every instance is identical).
    pub engine: EngineConfig,
    /// Number of serving instances sharing the store.
    pub n_instances: usize,
    /// Which router dispatches arriving turns.
    pub router: RouterKind,
    /// Scripted faults injected into the run (`None` = fault-free; an
    /// empty plan acts as `None`, so the fault layer is strictly additive
    /// and fault-free runs stay byte-identical).
    pub faults: Option<FaultPlan>,
    /// The overload-robustness policy (`None` = no SLO; the no-op policy
    /// acts as `None`, so the overload layer is strictly additive and
    /// SLO-free runs stay byte-identical).
    pub slo: Option<SloPolicy>,
}

impl ClusterConfig {
    /// A cluster of `n_instances` copies of `engine` under `router`.
    pub fn new(engine: EngineConfig, n_instances: usize, router: RouterKind) -> Self {
        ClusterConfig {
            engine,
            n_instances,
            router,
            faults: None,
            slo: None,
        }
    }

    /// The degenerate single-instance cluster [`run_trace`](crate::run_trace)
    /// runs: one instance, affinity routing.
    pub fn single(engine: EngineConfig) -> Self {
        ClusterConfig::new(engine, 1, RouterKind::SessionAffinity)
    }

    /// Installs a fault plan for the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs an SLO overload policy.
    pub fn with_slo(mut self, policy: SloPolicy) -> Self {
        self.slo = Some(policy);
        self
    }
}

/// Fault-path counters of one cluster run: what the injected faults did
/// and how the cluster degraded around them. All-zero for fault-free
/// runs (it lives beside the golden-pinned aggregate, not inside it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultReport {
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
    /// Turns that fell back to a full re-prefill after a cache-path
    /// failure (read failure or corruption).
    pub recompute_fallbacks: u64,
    /// Scripted instance crashes that fired.
    pub instance_crashes: u64,
    /// Turns re-queued onto surviving instances after a crash.
    pub turns_rerouted: u64,
    /// Scripted DRAM pressure spikes that fired.
    pub pressure_events: u64,
}

impl FaultReport {
    /// Whether any fault-path activity was recorded.
    pub fn any(&self) -> bool {
        *self != FaultReport::default()
    }
}

/// Overload-path counters of one cluster run: what the admission ladder
/// and the autoscaler did. All-zero for SLO-free runs (like
/// [`FaultReport`], it lives beside the golden-pinned aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OverloadReport {
    /// Arriving turns rejected with a typed shed event.
    pub turns_shed: u64,
    /// Turns admitted in recompute-only degradation (fetch skipped).
    pub degraded_recomputes: u64,
    /// Truncations forced by the shrunken hard-truncate window.
    pub hard_truncations: u64,
    /// Degradation-ladder rung changes (either direction).
    pub level_transitions: u64,
    /// Autoscaler scale-up actions.
    pub scale_ups: u64,
    /// Autoscaler scale-down actions.
    pub scale_downs: u64,
    /// Measured first tokens that met their TTFT deadline.
    pub slo_attained: u64,
    /// Measured first tokens that missed, plus measured shed turns.
    pub slo_missed: u64,
    /// Peak alive instances during the run.
    pub peak_instances: u64,
}

impl OverloadReport {
    /// Whether any overload-path activity was recorded.
    pub fn any(&self) -> bool {
        *self != OverloadReport::default()
    }

    /// Fraction of measured turns that met their TTFT deadline (shed
    /// turns count as misses). `1.0` when nothing was measured.
    pub fn attainment(&self) -> f64 {
        let total = self.slo_attained + self.slo_missed;
        if total == 0 {
            return 1.0;
        }
        self.slo_attained as f64 / total as f64
    }
}

/// The result of a cluster run: the aggregate report plus per-instance
/// breakdowns.
#[derive(Debug, Serialize)]
pub struct ClusterReport {
    /// Aggregate metrics across all instances (same recorder call order
    /// as the single-engine report; link totals summed, HBM high water
    /// maxed).
    pub aggregate: RunReport,
    /// Label of the router that dispatched turns.
    pub router: &'static str,
    /// Per-instance counters and link totals.
    pub instances: Vec<InstanceReport>,
    /// Fault-path counters (all-zero when no fault plan was installed).
    pub faults: FaultReport,
    /// Overload-path counters (all-zero when no SLO policy was installed).
    pub overload: OverloadReport,
    /// Cross-session dedup counters (all-zero under per-session keying).
    pub dedup: DedupStats,
}

impl ClusterReport {
    /// Aggregate serving throughput: measured turns per makespan second.
    pub fn throughput(&self) -> f64 {
        if self.aggregate.makespan_secs == 0.0 {
            return 0.0;
        }
        self.aggregate.turns_measured.get() as f64 / self.aggregate.makespan_secs
    }
}

/// The cluster world: one event stream dispatched across N instances.
pub struct ClusterSim<O: EngineObserver = NullObserver> {
    cfg: EngineConfig,
    trace: Trace,
    sessions: Vec<SessionState>,
    jobs: Vec<Job>,
    instances: Vec<EngineInstance>,
    router: Box<dyn RouterPolicy>,
    /// The shared store; `None` under [`Mode::Recompute`].
    store: Option<AttentionStore>,
    turn_arrivals: usize,
    sessions_remaining: usize,
    last_completion: Time,
    report: RunReport,
    obs: O,
    /// The run's fault plan (`None` = fault-free; crashes and pressure
    /// spikes are only scheduled when set).
    fault_plan: Option<FaultPlan>,
    /// Fault-path counters; `finish` adds the store's side.
    faults: FaultReport,
    /// The run's SLO policy (`None` = SLO-free; the overload paths are
    /// only taken when set).
    slo: Option<SloPolicy>,
    slo_state: SloState,
    /// One admission ledger per instance, indexed like `instances`.
    /// Empty when no SLO policy is installed.
    inboxes: Vec<BoundedInbox>,
    /// Overload-path counters.
    overload: OverloadReport,
    // Reusable scratch buffers: the merged queue view and router loads
    // are rebuilt at every consultation, and per-consultation allocation
    // was the hot path the snapshot_into refactor removed.
    scratch_snapshot: Vec<usize>,
    scratch_triples: Vec<(u32, u32, usize)>,
    scratch_order: Vec<SessionId>,
    scratch_owners: Vec<u32>,
    scratch_view: QueueView,
    scratch_loads: Vec<InstanceLoad>,
}

impl ClusterSim<NullObserver> {
    /// Builds a cluster simulator for `cfg` over `trace`.
    pub fn new(cfg: ClusterConfig, trace: Trace) -> Self {
        ClusterSim::with_observer(cfg, trace, NullObserver)
    }

    /// Runs the full workload to completion and returns the report.
    pub fn run(cfg: ClusterConfig, trace: Trace) -> ClusterReport {
        let mut world = ClusterSim::new(cfg, trace);
        world.drive();
        world.finish().0
    }
}

impl<O: EngineObserver> ClusterSim<O> {
    /// Builds a cluster that reports every pipeline step to `obs`.
    pub fn with_observer(cfg: ClusterConfig, trace: Trace, obs: O) -> Self {
        assert!(
            cfg.n_instances >= 1,
            "a cluster needs at least one instance"
        );
        let ClusterConfig {
            engine,
            n_instances,
            router,
            faults,
            slo,
        } = cfg;
        // An empty plan and a no-op policy are no plan and no policy, so
        // both layers are strictly additive: runs without them stay
        // byte-identical.
        let faults = faults.filter(|p| !p.is_empty());
        let slo = slo.filter(|p| !p.is_noop());
        let mut store = match engine.mode {
            Mode::Recompute => None,
            _ => Some(AttentionStore::new(engine.store.clone())),
        };
        if let Some(s) = &mut store {
            // Store tracing is buffered-and-drained, never behavioral:
            // only turn it on for observers that will consume the stream.
            s.set_tracing(obs.wants_store_events());
            if let Some(plan) = &faults {
                s.set_faults(plan.clone());
            }
        }
        let sessions = (0..trace.sessions.len())
            .map(|i| SessionState {
                spec: i,
                next_turn: 0,
                hist_tokens: 0,
            })
            .collect();
        let sessions_remaining = trace.sessions.len();
        let report = RunReport::new(engine.model.name, engine.mode);
        let mut instances: Vec<EngineInstance> = (0..n_instances)
            .map(|i| Self::build_instance(i as u32, &engine, slo.as_ref()))
            .collect();
        if let Some(plan) = &faults {
            for inst in &mut instances {
                inst.plan.install_faults(plan, inst.id);
            }
        }
        let inboxes = match &slo {
            Some(p) => (0..n_instances)
                .map(|_| BoundedInbox::new(p.inbox_capacity))
                .collect(),
            None => Vec::new(),
        };
        let overload = OverloadReport {
            peak_instances: if slo.is_some() { n_instances as u64 } else { 0 },
            ..OverloadReport::default()
        };
        ClusterSim {
            cfg: engine,
            trace,
            sessions,
            jobs: Vec::new(),
            instances,
            router: router.build(),
            store,
            turn_arrivals: 0,
            sessions_remaining,
            last_completion: Time::ZERO,
            report,
            obs,
            fault_plan: faults,
            faults: FaultReport::default(),
            slo,
            slo_state: SloState::default(),
            inboxes,
            overload,
            scratch_snapshot: Vec::new(),
            scratch_triples: Vec::new(),
            scratch_order: Vec::new(),
            scratch_owners: Vec::new(),
            scratch_view: QueueView::empty(),
            scratch_loads: Vec::new(),
        }
    }

    /// Builds one instance, honouring the SLO policy's queueing choice:
    /// EDF with its starvation floor when configured, FCFS otherwise.
    fn build_instance(id: u32, engine: &EngineConfig, slo: Option<&SloPolicy>) -> EngineInstance {
        match slo.and_then(|p| p.edf_max_slack) {
            Some(slack) => {
                EngineInstance::with_scheduler(id, engine, Box::new(scheduler::Edf::new(slack)))
            }
            None => EngineInstance::new(id, engine),
        }
    }

    /// Feeds the trace's session arrivals and runs the event loop dry.
    pub(crate) fn drive(&mut self) {
        let mut q = EventQueue::new();
        for (i, s) in self.trace.sessions.iter().enumerate() {
            q.push(s.arrival, Ev::TurnArrival(i));
        }
        if self.cfg.store.ttl.is_some() && self.cfg.mode != Mode::Recompute {
            q.push(Time::from_secs_f64(30.0), Ev::Sweep);
        }
        if let Some(plan) = &self.fault_plan {
            for c in &plan.crashes {
                q.push(c.at, Ev::Crash(c.instance));
            }
            for (i, p) in plan.pressure.iter().enumerate() {
                q.push(p.at, Ev::Pressure(i));
            }
        }
        if let Some(p) = &self.slo {
            // The header event announcing the policy: every other
            // overload-category event is gated on its presence.
            let header = EngineEvent::SloConfig {
                ttft_target_secs: p.ttft_target.as_secs_f64(),
                inbox_capacity: p.inbox_capacity.min(u32::MAX as usize) as u64,
                at: Time::ZERO,
            };
            let first_tick = Time::ZERO + p.tick;
            self.obs.on_instance_event(0, header);
            q.push(first_tick, Ev::SloTick);
        }
        sim::run(self, &mut q, None);
    }

    /// Finalizes the report; hands back the observer too.
    pub(crate) fn finish(mut self) -> (ClusterReport, O) {
        self.report.makespan_secs = self.last_completion.as_secs_f64();
        for inst in &self.instances {
            self.report.add_gpu_busy(&inst.busy);
        }
        self.report.h2d_bytes = self.instances.iter().map(|i| i.plan.h2d_bytes()).sum();
        self.report.d2h_bytes = self.instances.iter().map(|i| i.plan.d2h_bytes()).sum();
        self.report.slow_read_bytes = self
            .instances
            .iter()
            .map(|i| i.plan.slow_read_bytes())
            .sum();
        self.report.slow_write_bytes = self
            .instances
            .iter()
            .map(|i| i.plan.slow_write_bytes())
            .sum();
        self.report.hbm_high_water_bytes = self
            .instances
            .iter()
            .map(|i| i.hbm.high_water())
            .max()
            .unwrap_or(0);
        if let Some(store) = &self.store {
            self.report.store_stats = *store.stats();
        }
        if let Some(store) = &self.store {
            let fs = store.fault_stats();
            self.faults.read_retries = fs.read_retries;
            self.faults.read_failures = fs.read_failures;
            self.faults.write_retries = fs.write_retries;
            self.faults.write_failures = fs.write_failures;
            self.faults.corruptions_detected = fs.corruptions_detected;
        }
        let instances: Vec<InstanceReport> = self.instances.iter().map(|i| i.report()).collect();
        let dedup = self
            .store
            .as_ref()
            .map(|s| s.dedup_stats())
            .unwrap_or_default();
        (
            ClusterReport {
                aggregate: self.report,
                router: self.router.label(),
                instances,
                faults: self.faults,
                overload: self.overload,
                dedup,
            },
            self.obs,
        )
    }

    /// External id of a session-table row.
    fn sid(&self, session: usize) -> SessionId {
        SessionId(self.trace.sessions[self.sessions[session].spec].id)
    }

    /// Builds the merged, owner-attributed queue view the shared store
    /// consults: per-queue positions interleaved round-robin (all heads
    /// first, ties by instance id), each session tagged with its owning
    /// instance. With one instance this is exactly that instance's queue.
    /// Every collection involved — the snapshot/order/owner scratch Vecs
    /// *and* the returned view itself — is a reusable `ClusterSim` buffer
    /// ([`QueueView::rebuild`] refills the retained maps), so a
    /// steady-state consultation allocates nothing. Callers hand the view
    /// back by assigning `self.scratch_view = view` after their last use.
    fn merged_view(&mut self) -> QueueView {
        sim::scope!("cluster.merged_view");
        let mut snapshot = std::mem::take(&mut self.scratch_snapshot);
        let mut triples = std::mem::take(&mut self.scratch_triples);
        let mut order = std::mem::take(&mut self.scratch_order);
        let mut owners = std::mem::take(&mut self.scratch_owners);
        triples.clear();
        {
            sim::scope!("sched.snapshot");
            for inst in &self.instances {
                snapshot.clear();
                inst.sched.snapshot_into(&mut snapshot);
                for (pos, &j) in snapshot.iter().enumerate() {
                    triples.push((pos as u32, inst.id, j));
                }
            }
        }
        triples.sort_unstable();
        order.clear();
        owners.clear();
        for &(_, inst_id, j) in triples.iter() {
            order.push(self.sid(self.jobs[j].session));
            owners.push(inst_id);
        }
        let mut view = std::mem::take(&mut self.scratch_view);
        view.rebuild(&order, &owners);
        self.scratch_snapshot = snapshot;
        self.scratch_triples = triples;
        self.scratch_order = order;
        self.scratch_owners = owners;
        view
    }

    /// Routes a session's arriving turn to an instance.
    fn route(&mut self, session: usize) -> u32 {
        sim::scope!("cluster.route");
        let mut loads = std::mem::take(&mut self.scratch_loads);
        loads.clear();
        loads.extend(self.instances.iter().map(|i| InstanceLoad {
            queued: i.sched.len(),
            batch: i.exec.batch.len(),
            alive: i.alive,
        }));
        let inst = self.router.route(self.sid(session).0, &loads);
        debug_assert!(inst < self.instances.len(), "router picked a real instance");
        self.scratch_loads = loads;
        inst as u32
    }

    /// Forwards buffered store events to an opted-in observer, keeping
    /// both streams in one commit order. `acting` is the instance whose
    /// pipeline step triggered the drain.
    fn pump_store_events(&mut self, acting: u32) {
        if !self.obs.wants_store_events() {
            return;
        }
        if let Some(store) = &mut self.store {
            for ev in store.drain_events() {
                self.obs.on_instance_store_event(acting, ev);
            }
        }
    }

    /// Runs the scheduler-aware prefetcher over the merged queue.
    /// Transfers are charged to each target session's owning instance
    /// (unowned sessions — e.g. demotion victims no longer queued — fall
    /// back to the `acting` instance's links).
    fn run_prefetch(&mut self, now: Time, acting: u32) {
        if self.store.is_none() {
            return;
        }
        // Under recompute-only degradation (or harsher) the ladder sheds
        // speculative slow-tier bandwidth: no prefetching at all.
        if self.slo.is_some() && self.slo_state.level() >= OverloadLevel::RecomputeOnly {
            return;
        }
        sim::scope!("cluster.prefetch");
        let view = self.merged_view();
        let store = self.store.as_mut().expect("checked above");
        // Prefetch read retries cost backoff wall time: the surviving
        // transfers start once it elapses.
        let outcome = store.try_prefetch(now, &view);
        let (transfers, start) = (outcome.transfers, now + outcome.backoff);
        // Group each owner's transfers into one charge call so the hops
        // of a multi-hop promotion chain on that owner's links; owners
        // are visited in sorted order for determinism.
        let mut by_owner: BTreeMap<u32, Vec<store::Transfer>> = BTreeMap::new();
        for t in &transfers {
            let owner = view.owner(t.session).unwrap_or(acting);
            by_owner.entry(owner).or_default().push(*t);
        }
        for (owner, ts) in &by_owner {
            self.instances[*owner as usize].plan.charge(start, ts);
        }
        self.pump_store_events(acting);
        if self.obs.wants_store_events() {
            // The store planned the promotions; only the owning
            // instance's transfer stage knows when its slow-read link
            // completes them. One completion per session: block keying
            // promotes a chain chunk by chunk, so a session may own
            // several fast-arriving transfers from one pass.
            let mut completed = std::collections::BTreeSet::new();
            for t in &transfers {
                if t.to.is_fast() && completed.insert(t.session) {
                    let owner = view.owner(t.session).unwrap_or(acting);
                    let at = self.instances[owner as usize]
                        .plan
                        .fast_ready(t.session.0)
                        .unwrap_or(now);
                    self.obs.on_instance_store_event(
                        owner,
                        StoreEvent::PrefetchCompleted {
                            session: t.session.0,
                            instance: Some(owner),
                            at,
                        },
                    );
                }
            }
        }
        self.scratch_view = view;
    }

    /// Applies context-window truncation at turn arrival. Returns the new
    /// history length. Under [`OverloadLevel::HardTruncate`] the ladder
    /// shrinks the effective window, truncating harder to shrink every
    /// prefill.
    fn apply_truncation(
        &mut self,
        now: Time,
        session: usize,
        user: u64,
        measured: bool,
        inst: u32,
    ) -> u64 {
        let full = self.cfg.model.context_window as u64;
        let hard = self.slo.is_some() && self.slo_state.level() >= OverloadLevel::HardTruncate;
        let window = if hard {
            let fraction = self
                .slo
                .as_ref()
                .expect("checked above")
                .hard_truncate_window;
            ((full as f64 * fraction).floor() as u64).max(1)
        } else {
            full
        };
        let hist = self.sessions[session].hist_tokens;
        let out = truncate::truncate_history(window, self.cfg.truncation_ratio, hist, user);
        if !out.truncated {
            return hist;
        }
        if hard {
            self.overload.hard_truncations += 1;
        }
        if measured {
            self.report.truncations.incr();
        }
        let sid = self.sid(session);
        let bytes = self.cfg.stored_kv_bytes(out.new_hist);
        truncate::apply_store_effect(self.cfg.mode, self.store.as_mut(), sid, bytes, out.new_hist);
        self.sessions[session].hist_tokens = out.new_hist;
        self.obs.on_instance_event(
            inst,
            EngineEvent::Truncated {
                session: sid.0,
                old_hist: hist,
                new_hist: out.new_hist,
                at: now,
            },
        );
        out.new_hist
    }

    /// Handles a turn arrival: routes it, creates the job, queues it on
    /// its instance, prefetches.
    fn on_turn_arrival(&mut self, now: Time, session: usize, q: &mut EventQueue<Ev>) {
        sim::scope!("cluster.turn_arrival");
        let arrival_index = self.turn_arrivals;
        self.turn_arrivals += 1;
        let measured = arrival_index >= self.cfg.warmup_turns;
        let spec = &self.trace.sessions[self.sessions[session].spec];
        let turn_idx = self.sessions[session].next_turn;
        let turn = &spec.turns[turn_idx];
        let user = (turn.user_tokens as u64).min(self.cfg.model.context_window as u64);
        let resp = turn.resp_tokens as u64;
        let content = spec.content;
        let ttft_deadline = turn.ttft_deadline;
        let inst = self.route(session);
        // SLO admission control: the ladder's shed rung and the bounded
        // inbox both reject with a typed event before the turn touches
        // the store or the session state.
        if self.slo.is_some() {
            let reason = if self.slo_state.level() >= OverloadLevel::Shed {
                Some("overload_shed")
            } else if !self.inboxes[inst as usize].try_accept() {
                Some("inbox_full")
            } else {
                None
            };
            if let Some(reason) = reason {
                let sid = self.sid(session);
                self.obs.on_instance_event(
                    inst,
                    EngineEvent::TurnArrived {
                        session: sid.0,
                        turn: turn_idx,
                        at: now,
                    },
                );
                self.obs.on_instance_event(
                    inst,
                    EngineEvent::TurnShed {
                        session: sid.0,
                        turn: turn_idx,
                        reason,
                        at: now,
                    },
                );
                self.overload.turns_shed += 1;
                if measured {
                    self.slo_state.note_shed();
                    self.overload.slo_missed += 1;
                }
                // Terminal for the session: no job exists, and in the
                // closed loop its later turns never arrive.
                self.sessions_remaining -= 1;
                return;
            }
        }
        // Declare the session's token-content identity before anything
        // touches the store, so block hashing can recognise shared
        // prefixes from the very first save.
        if turn_idx == 0 {
            let sid = self.sid(session);
            if let Some(store) = &mut self.store {
                if store.config().keying == KeyingMode::ContentAddressed {
                    let key = match content {
                        Some(c) => ContentKey {
                            shared_seed: c.shared_seed,
                            shared_tokens: c.shared_tokens,
                            private_seed: c.private_seed,
                            generation: 0,
                        },
                        None => ContentKey::private(sid.0),
                    };
                    store.register_content(sid, key);
                }
            }
        }
        self.obs.on_instance_event(
            inst,
            EngineEvent::TurnArrived {
                session: self.sid(session).0,
                turn: turn_idx,
                at: now,
            },
        );
        let hist = self.apply_truncation(now, session, user, measured, inst);
        self.jobs.push(Job::for_turn(
            session, inst, now, user, resp, hist, measured,
        ));
        let job_idx = self.jobs.len() - 1;
        let deadline = self
            .slo
            .as_ref()
            .map(|p| now + ttft_deadline.unwrap_or(p.ttft_target));
        self.jobs[job_idx].deadline = deadline;
        if self.slo.is_some() && self.slo_state.level() >= OverloadLevel::RecomputeOnly {
            self.jobs[job_idx].degraded = true;
        }
        match deadline {
            Some(d) => self.instances[inst as usize]
                .sched
                .enqueue_with_deadline(job_idx, now, d),
            None => self.instances[inst as usize].sched.enqueue(job_idx),
        }
        self.run_prefetch(now, inst);
        self.wake_for_queued_job(now, inst, q);
    }

    /// Schedules instance `inst`'s next GPU tick at `at`, tagged with its
    /// current generation.
    fn push_tick(&self, q: &mut EventQueue<Ev>, inst: u32, at: Time) {
        q.push(
            at,
            Ev::GpuTick(inst, self.instances[inst as usize].exec.tick_gen),
        );
    }

    /// A job was just queued on `inst`. An idle instance wakes now. One in
    /// a decode run whose batch has room ends the run at the boundary
    /// where the per-token loop would next try the admission: the first
    /// at or after `now`, never the run's start.
    fn wake_for_queued_job(&mut self, now: Time, inst: u32, q: &mut EventQueue<Ev>) {
        let exec = &mut self.instances[inst as usize].exec;
        match exec.gpu_action {
            None => {
                exec.gpu_action = Some(Action::Sleep);
                self.push_tick(q, inst, now);
            }
            Some(Action::Decode) if exec.batch.len() < self.cfg.max_batch => {
                if let Some(end) = exec.cut_run(now) {
                    exec.tick_gen += 1;
                    self.push_tick(q, inst, end);
                }
            }
            _ => {}
        }
    }

    /// Consults the store for an instance's head job and classifies the
    /// access. The consultation (demand fetch, pinning) charges the
    /// owning instance's links. Returns (reused tokens, when the KV is
    /// staged in the fast tier, tier the KV was found in).
    fn consult_store(&mut self, now: Time, job_idx: usize) -> (u64, Time, Option<TierId>) {
        sim::scope!("cluster.consult");
        let job = &self.jobs[job_idx];
        let (session, hist, user, measured, inst) = (
            job.session,
            job.hist_tokens,
            job.user_tokens,
            job.measured,
            job.instance,
        );
        let sid = self.sid(session);
        let ca = self
            .store
            .as_ref()
            .is_some_and(|s| s.config().keying == KeyingMode::ContentAddressed);
        // Under per-session keying a first turn has nothing to look up.
        // Under block keying it does: the turn's own input may share a
        // prefix (system prompt, parent context) with blocks other
        // sessions already stored, so the store is consulted regardless.
        if hist == 0 && !ca {
            self.obs.on_instance_event(
                inst,
                EngineEvent::Consulted {
                    session: sid.0,
                    class: ConsultClass::NoHistory,
                    reused: 0,
                    at: now,
                },
            );
            return (0, now, None);
        }
        if measured && hist > 0 {
            self.report.resumption_turns.incr();
            self.instances[inst as usize].resumption_turns += 1;
        }
        if self.store.is_none() {
            // RE: always recompute.
            self.report.record_consult(ConsultClass::NoStore, measured);
            self.obs.on_instance_event(
                inst,
                EngineEvent::Consulted {
                    session: sid.0,
                    class: ConsultClass::NoStore,
                    reused: 0,
                    at: now,
                },
            );
            return (0, now, None);
        }
        let view = self.merged_view();
        let cfg = &self.cfg;
        let store = self.store.as_mut().expect("checked above");
        // The whole next context — history plus the arriving input — is
        // matched against the stored prefix.
        let FaultedConsult { consult, degraded } = self.instances[inst as usize].plan.consult(
            now,
            store,
            sid,
            hist + user,
            &view,
            |tokens| cfg.stored_kv_bytes(tokens),
        );
        self.scratch_view = view;
        self.pump_store_events(inst);
        if let Some(reason) = degraded {
            self.faults.recompute_fallbacks += 1;
            self.obs.on_instance_event(
                inst,
                EngineEvent::DegradedRecompute {
                    session: sid.0,
                    reason: reason.label(),
                    at: now,
                },
            );
        }
        self.report.record_consult(consult.class, measured);
        if measured {
            let me = &mut self.instances[inst as usize];
            match consult.class {
                ConsultClass::HitFast => me.hits_fast += 1,
                ConsultClass::HitSlow => me.hits_slow += 1,
                ConsultClass::Miss => me.misses += 1,
                ConsultClass::NoHistory | ConsultClass::NoStore => {}
            }
        }
        self.obs.on_instance_event(
            inst,
            EngineEvent::Consulted {
                session: sid.0,
                class: consult.class,
                reused: consult.reused,
                at: now,
            },
        );
        (consult.reused, consult.staged, consult.tier)
    }

    /// The recompute-only consult path for overload-degraded jobs: the
    /// store is never touched (no fetch, no pin, no prefetch interest),
    /// so the turn prefills its whole context from scratch. Classified as
    /// [`ConsultClass::NoStore`] so hit/miss statistics stay honest.
    fn degraded_consult(&mut self, now: Time, job_idx: usize) -> (u64, Time, Option<TierId>) {
        let job = &self.jobs[job_idx];
        let (session, hist, measured, inst) =
            (job.session, job.hist_tokens, job.measured, job.instance);
        let sid = self.sid(session);
        if measured && hist > 0 {
            self.report.resumption_turns.incr();
            self.instances[inst as usize].resumption_turns += 1;
        }
        self.overload.degraded_recomputes += 1;
        self.obs.on_instance_event(
            inst,
            EngineEvent::DegradedRecompute {
                session: sid.0,
                reason: "overload",
                at: now,
            },
        );
        self.report.record_consult(ConsultClass::NoStore, measured);
        self.obs.on_instance_event(
            inst,
            EngineEvent::Consulted {
                session: sid.0,
                class: ConsultClass::NoStore,
                reused: 0,
                at: now,
            },
        );
        (0, now, None)
    }

    /// Starts the prefill of instance `inst`'s head job. On `Err` the job
    /// cannot start at `now` (data or buffer not ready) and the value is
    /// the earliest time it could.
    fn try_admit(&mut self, now: Time, inst: u32, q: &mut EventQueue<Ev>) -> Result<(), Time> {
        sim::scope!("cluster.admit");
        let i = inst as usize;
        let job_idx = self.instances[i].sched.front().expect("caller checked");
        let gate = self.instances[i].plan.write_gate(now);
        if gate > now {
            if self.obs.wants_store_events() {
                let sid = self.sid(self.jobs[job_idx].session);
                self.obs.on_instance_store_event(
                    inst,
                    StoreEvent::WriteBufferStall {
                        session: sid.0,
                        until: gate,
                        at: now,
                    },
                );
            }
            return Err(self.defer(now, job_idx, gate));
        }
        // Consult the store the first time this job reaches the head; the
        // outcome (hit classification, pinning, demand fetch) sticks.
        // Degraded jobs skip the store entirely — no fetch, no pin.
        let (reused, staged, hit_tier) = match self.jobs[job_idx].consulted {
            Some(r) => r,
            None => {
                let r = if self.jobs[job_idx].degraded {
                    self.degraded_consult(now, job_idx)
                } else {
                    self.consult_store(now, job_idx)
                };
                self.jobs[job_idx].consulted = Some(r);
                r
            }
        };
        // KV still staging into the fast tier: decode meanwhile.
        if let Some(until) =
            scheduler::data_ready_defer(now, staged, self.instances[i].exec.batch.is_empty())
        {
            return Err(self.defer(now, job_idx, until));
        }
        // HBM residency (§2.4, Challenge 2): the new job's full context
        // plus its response must fit beside the decoding batch's live KV.
        let job = &self.jobs[job_idx];
        let job_peak = self
            .cfg
            .model
            .kv_bytes(job.hist_tokens + job.user_tokens + job.resp_tokens);
        let reserved = self.instances[i].hbm.reserved_kv(
            &self.cfg.model,
            &self.instances[i].exec.batch,
            &self.jobs,
        );
        if !scheduler::hbm_fits(
            reserved,
            job_peak,
            self.instances[i].hbm.budget(),
            self.instances[i].exec.batch.is_empty(),
        ) {
            // Decode until a job retires and frees HBM.
            return Err(self.defer(now, job_idx, now));
        }
        self.instances[i].sched.pop_front();
        if !self.inboxes.is_empty() {
            self.inboxes[i].release();
        }
        let job = &self.jobs[job_idx];
        // Summed before subtracting: under block keying the matched
        // prefix can extend into the new input, so `reused` may exceed
        // the history alone.
        let computed = job.hist_tokens + job.user_tokens - reused;
        let timing = exec::prefill_timing(
            &self.cfg,
            &mut self.instances[i].plan,
            now,
            reused,
            computed,
            staged,
        );
        self.instances[i].hbm.note_reserved(reserved + job_peak);
        self.instances[i]
            .busy
            .record_prefill(now.as_secs_f64(), timing.total.as_secs_f64());
        let sid = self.sid(self.jobs[job_idx].session);
        let job = &mut self.jobs[job_idx];
        job.reused_tokens = reused;
        job.computed_tokens = computed;
        job.admitted_at = now;
        job.prefill_secs = timing.comp.as_secs_f64();
        self.report.record_admission(
            timing.comp.as_secs_f64(),
            timing.stall.as_secs_f64(),
            job.measured,
            job.hist_tokens + job.user_tokens,
            computed,
        );
        let issue = exec::plan_prefill(self.cfg.chunked_prefill_tokens, computed, timing.total);
        let chunked = match issue {
            PrefillIssue::Chunked {
                n_chunks,
                chunk_dur,
            } => {
                self.issue_chunk(now, q, inst, job_idx, (n_chunks - 1) as u32, chunk_dur);
                true
            }
            PrefillIssue::Monolithic => {
                self.instances[i].exec.gpu_action = Some(Action::Prefill { job: job_idx });
                self.push_tick(q, inst, now + timing.total);
                false
            }
        };
        self.obs.on_instance_event(
            inst,
            EngineEvent::Admitted {
                session: sid.0,
                reused,
                computed,
                chunked,
                at: now,
            },
        );
        // Overlap accounting for the span profiler: the KV transfer this
        // reuse requires vs. the share of it left visible as a stall.
        self.obs.on_instance_event(
            inst,
            EngineEvent::PrefillTimed {
                session: sid.0,
                load_secs: timing.load.as_secs_f64(),
                comp_secs: timing.comp.as_secs_f64(),
                stall_secs: timing.stall.as_secs_f64(),
                tier: if reused == 0 {
                    None
                } else {
                    hit_tier.map(|t| t.0)
                },
                at: now,
            },
        );
        self.obs.on_instance_event(
            inst,
            EngineEvent::HbmReserved {
                session: sid.0,
                reserved_bytes: reserved + job_peak,
                budget_bytes: self.instances[i].hbm.budget(),
                at: now,
            },
        );
        // The queue head moved: give the prefetcher a chance to stage the
        // next jobs' KV while this prefill runs.
        self.run_prefetch(now, inst);
        Ok(())
    }

    /// Reports a deferred admission to the observer; returns `until`.
    fn defer(&mut self, now: Time, job_idx: usize, until: Time) -> Time {
        let job = &self.jobs[job_idx];
        let inst = job.instance;
        let sid = self.sid(job.session);
        self.obs.on_instance_event(
            inst,
            EngineEvent::Deferred {
                session: sid.0,
                until,
                at: now,
            },
        );
        until
    }

    /// Starts the next slice of a paused chunked prefill on `inst`.
    fn issue_chunk(
        &mut self,
        now: Time,
        q: &mut EventQueue<Ev>,
        inst: u32,
        job: usize,
        chunks_left: u32,
        chunk_dur: Dur,
    ) {
        self.instances[inst as usize].exec.gpu_action = Some(Action::PrefillChunk {
            job,
            chunks_left,
            chunk_dur,
        });
        self.push_tick(q, inst, now + chunk_dur);
    }

    /// Starts a decode run of `iters` iterations of `inst`'s batch at
    /// `now`; `spans` says whether its iterations are timeline spans.
    fn start_run(&mut self, now: Time, inst: u32, iters: u64, spans: bool, q: &mut EventQueue<Ev>) {
        #[cfg(test)]
        let iters = iters.min(RUN_CAP.with(std::cell::Cell::get));
        let exec = &mut self.instances[inst as usize].exec;
        let end = exec.plan_run(&self.cfg, &self.jobs, now, iters, spans);
        exec.gpu_action = Some(Action::Decode);
        self.push_tick(q, inst, end);
    }

    /// Completes a prefill on `inst`: records TTFT (admission → first
    /// token; queue wait is reported separately), flushes the
    /// prefill-phase KV through the instance's write stream (§3.2.2),
    /// moves the job into the instance's decode batch.
    fn complete_prefill(&mut self, now: Time, inst: u32, job_idx: usize) {
        let i = inst as usize;
        let job = &mut self.jobs[job_idx];
        job.ctx_tokens = job.hist_tokens + job.user_tokens;
        job.decode_start = now;
        let (session, measured, computed) = (job.session, job.measured, job.computed_tokens);
        let deadline = job.deadline;
        let ttft = (now - job.admitted_at).as_secs_f64();
        let queue_wait = (job.admitted_at - job.arrival).as_secs_f64();
        if self.slo.is_some() && measured {
            // Attainment is end-to-end: the deadline is absolute from the
            // turn's arrival, so queue wait counts against it.
            let met = deadline.is_none_or(|d| now <= d);
            if met {
                self.overload.slo_attained += 1;
            } else {
                self.overload.slo_missed += 1;
            }
            self.slo_state.note_first_token(met);
        }
        self.report.record_first_token(measured, ttft, queue_wait);
        if self.cfg.mode != Mode::Recompute {
            let bytes = self.cfg.stored_kv_bytes(computed);
            self.instances[i].plan.d2h_transfer(now, bytes);
        }
        self.instances[i].exec.batch.push(job_idx);
        self.obs.on_instance_event(
            inst,
            EngineEvent::PrefillDone {
                session: self.sid(session).0,
                ttft_secs: ttft,
                at: now,
            },
        );
    }

    /// Retires a finished job on `inst`: saves KV to the shared store,
    /// updates the session, schedules the next turn.
    fn retire_job(&mut self, now: Time, inst: u32, job_idx: usize, q: &mut EventQueue<Ev>) {
        sim::scope!("cluster.retire");
        self.last_completion = now;
        self.instances[inst as usize].last_completion = now;
        let job = &self.jobs[job_idx];
        let (session, measured, resp) = (job.session, job.measured, job.resp_tokens);
        let new_hist = job.hist_tokens + job.user_tokens + job.resp_tokens;
        if measured {
            self.report
                .decode_latency
                .push((now - job.decode_start).as_secs_f64());
        }
        // Save the whole session's KV back to the store; only the decode
        // phase's fresh tokens still need the device→host hop (the prefill
        // share was flushed at prefill completion). Demotions the save
        // triggers charge their victim's owning instance.
        if self.cfg.mode != Mode::Recompute {
            let sid = self.sid(session);
            let total_bytes = self.cfg.stored_kv_bytes(new_hist);
            let view = self.merged_view();
            let store = self.store.as_mut().expect("store exists outside RE");
            // Write retries cost backoff wall time before the device→host
            // flush can start; an exhausted save drops the stale entry
            // (the next turn re-prefills).
            let outcome = store.try_save(sid, total_bytes, new_hist, now, &view);
            let (transfers, backoff) = (outcome.transfers, outcome.backoff);
            for t in &transfers {
                let owner = view.owner(t.session).unwrap_or(inst) as usize;
                self.instances[owner]
                    .plan
                    .charge(now, std::slice::from_ref(t));
            }
            self.scratch_view = view;
            self.pump_store_events(inst);
            let done = self.instances[inst as usize]
                .plan
                .d2h_transfer(now + backoff, self.cfg.stored_kv_bytes(resp));
            if !self.cfg.async_save {
                // Synchronous saving blocks the GPU until the write-back
                // completes (Fig 8a).
                self.report.stall_secs += done.saturating_since(now).as_secs_f64();
            }
        }
        // Advance the session.
        let st = &mut self.sessions[session];
        st.hist_tokens = new_hist;
        st.next_turn += 1;
        let spec = &self.trace.sessions[st.spec];
        if st.next_turn < spec.turns.len() {
            let think = spec.turns[st.next_turn - 1].think;
            q.push(now + think, Ev::TurnArrival(session));
        } else {
            self.sessions_remaining -= 1;
            self.report.sessions_done.incr();
        }
        self.instances[inst as usize].turns_done += 1;
        self.obs.on_instance_event(
            inst,
            EngineEvent::Retired {
                session: self.sid(session).0,
                new_hist,
                at: now,
            },
        );
        // Space freed by the save/demotions may unblock prefetches.
        self.run_prefetch(now, inst);
    }

    /// Handles a scripted instance crash: marks the instance dead, tells
    /// the router, and drains everything it held — queued jobs, the
    /// decode batch, and any in-flight prefill — re-routing each turn to
    /// a surviving instance as a fresh (un-consulted) job. Consult-time
    /// pins are released so the shared store never leaks a dead
    /// instance's reservations; the HBM ledger reconciles automatically
    /// because reservations are derived from live batch contents.
    ///
    /// Crashing the last alive instance would strand the workload, so
    /// such crashes are skipped (as are crashes of already-dead or
    /// out-of-range instances).
    fn on_crash(&mut self, now: Time, inst: u32, q: &mut EventQueue<Ev>) {
        let i = inst as usize;
        if i >= self.instances.len() || !self.instances[i].alive {
            return;
        }
        if self.instances.iter().filter(|x| x.alive).count() <= 1 {
            return;
        }
        self.instances[i].alive = false;
        self.faults.instance_crashes += 1;
        self.router.on_instance_down(i);
        self.obs.on_instance_event(
            inst,
            EngineEvent::InstanceCrashed {
                instance: inst,
                at: now,
            },
        );
        self.drain_instance(now, inst, q);
    }

    /// Drains everything a just-retired instance held — queued jobs, the
    /// decode batch, and any in-flight prefill — re-routing each turn to
    /// a surviving instance as a fresh (un-consulted) job. Shared by the
    /// crash path and the autoscaler's clean scale-down.
    fn drain_instance(&mut self, now: Time, inst: u32, q: &mut EventQueue<Ev>) {
        let i = inst as usize;
        // Queue order first, then the decode batch, then the GPU's
        // in-flight prefill — a deterministic re-queue order.
        let mut orphans: Vec<usize> = Vec::new();
        while let Some(j) = self.instances[i].sched.pop_front() {
            if !self.inboxes.is_empty() {
                self.inboxes[i].release();
            }
            orphans.push(j);
        }
        // Orphans past this point were already admitted — the decode
        // batch delivered (and recorded) its first tokens, an in-flight
        // prefill recorded its admission — so their re-run is recovery
        // work, not a second measured turn.
        let admitted_from = orphans.len();
        // A decode run the drain cuts short: the iterations the GPU had
        // begun happened, the rest never run. Whatever tick the instance
        // had pending is stale.
        let me = &mut self.instances[i];
        if let Some(Action::Decode) = me.exec.gpu_action {
            me.record_decode_run(now);
        }
        me.exec.tick_gen += 1;
        orphans.append(&mut me.exec.batch);
        if let Some((job, _, _)) = self.instances[i].exec.pending_chunk.take() {
            if !orphans.contains(&job) {
                orphans.push(job);
            }
        }
        match self.instances[i].exec.gpu_action.take() {
            Some(Action::Prefill { job }) | Some(Action::PrefillChunk { job, .. })
                if !orphans.contains(&job) =>
            {
                orphans.push(job);
            }
            _ => {}
        }
        for (pos, j) in orphans.into_iter().enumerate() {
            let session = self.jobs[j].session;
            let sid = self.sid(session);
            // Release the consult-time pin and forget the consult: the
            // new home must re-derive reuse from the store's current
            // state (the dead instance's staging clocks are gone).
            if self.jobs[j].consulted.is_some() {
                if let Some(store) = &mut self.store {
                    store.unpin(sid);
                }
            }
            let job = &mut self.jobs[j];
            job.consulted = None;
            job.reused_tokens = 0;
            job.computed_tokens = 0;
            job.ctx_tokens = 0;
            job.remaining_decode = job.resp_tokens;
            job.prefill_secs = 0.0;
            job.admitted_at = Time::ZERO;
            job.decode_start = Time::ZERO;
            if pos >= admitted_from {
                job.measured = false;
            }
            let to = self.route(session);
            self.jobs[j].instance = to;
            // Recovery re-queues are never shed: they were already
            // admitted once, so the new home's inbox takes them even
            // past capacity (the overflow is bounded by the dead
            // instance's own bounded occupancy).
            if !self.inboxes.is_empty() {
                self.inboxes[to as usize].force_accept();
            }
            match self.jobs[j].deadline {
                Some(d) => self.instances[to as usize]
                    .sched
                    .enqueue_with_deadline(j, now, d),
                None => self.instances[to as usize].sched.enqueue(j),
            }
            self.faults.turns_rerouted += 1;
            self.obs.on_instance_event(
                to,
                EngineEvent::TurnRerouted {
                    session: sid.0,
                    from: inst,
                    to,
                    at: now,
                },
            );
            self.wake_for_queued_job(now, to, q);
        }
    }

    /// One SLO decision tick: evaluate the ladder and the autoscaler on
    /// the observable signals (queue depth per alive instance, TTFT burn
    /// since the previous tick), emit transition events, and re-arm.
    fn on_slo_tick(&mut self, now: Time, q: &mut EventQueue<Ev>) {
        let Some(p) = self.slo.clone() else {
            return;
        };
        let n_alive = self.instances.iter().filter(|x| x.alive).count();
        let depth: usize = self
            .instances
            .iter()
            .filter(|x| x.alive)
            .map(|x| x.sched.len())
            .sum();
        let depth_per_instance = depth as f64 / n_alive.max(1) as f64;
        let d = self.slo_state.on_tick(&p, now, depth_per_instance, n_alive);
        if let Some((from, to)) = d.transition {
            self.overload.level_transitions += 1;
            self.obs.on_instance_event(
                0,
                EngineEvent::OverloadLevelChanged {
                    from: from.label(),
                    to: to.label(),
                    at: now,
                },
            );
        }
        match d.scale {
            Some(ScaleDecision::Up) => self.scale_up(now),
            Some(ScaleDecision::Down) => self.scale_down(now, q),
            None => {}
        }
        if self.sessions_remaining > 0 {
            q.push(now + p.tick, Ev::SloTick);
        }
    }

    /// Brings one instance into service: revives the lowest-indexed
    /// departed instance if any, otherwise grows the fleet with a fresh
    /// one (same engine config, same queueing policy, same fault plan).
    fn scale_up(&mut self, now: Time) {
        let id = match self.instances.iter().position(|x| x.departed) {
            Some(i) => {
                self.instances[i].alive = true;
                self.instances[i].departed = false;
                i as u32
            }
            None => {
                let id = self.instances.len() as u32;
                let mut inst = Self::build_instance(id, &self.cfg, self.slo.as_ref());
                if let Some(plan) = &self.fault_plan {
                    inst.plan.install_faults(plan, id);
                }
                self.instances.push(inst);
                if let Some(p) = &self.slo {
                    self.inboxes.push(BoundedInbox::new(p.inbox_capacity));
                }
                id
            }
        };
        self.overload.scale_ups += 1;
        let n_alive = self.instances.iter().filter(|x| x.alive).count();
        self.overload.peak_instances = self.overload.peak_instances.max(n_alive as u64);
        self.obs.on_instance_event(
            id,
            EngineEvent::ScaleUp {
                instance: id,
                n_alive: n_alive as u32,
                at: now,
            },
        );
        // No GPU wake needed: the new instance is empty and the router's
        // next dispatch sees it alive.
    }

    /// Retires the highest-indexed alive instance cleanly: marks it
    /// departed (not crashed), tells the router, and reroutes everything
    /// it held through the crash path's drain, so no in-flight turn is
    /// stranded.
    fn scale_down(&mut self, now: Time, q: &mut EventQueue<Ev>) {
        let n_alive = self.instances.iter().filter(|x| x.alive).count();
        if n_alive <= 1 {
            return;
        }
        let Some(i) = self.instances.iter().rposition(|x| x.alive) else {
            return;
        };
        self.instances[i].alive = false;
        self.instances[i].departed = true;
        self.router.on_instance_down(i);
        self.overload.scale_downs += 1;
        let inst = i as u32;
        self.obs.on_instance_event(
            inst,
            EngineEvent::ScaleDown {
                instance: inst,
                n_alive: (n_alive - 1) as u32,
                at: now,
            },
        );
        self.drain_instance(now, inst, q);
    }

    /// Handles a scripted DRAM pressure spike: squeezes the store's DRAM
    /// tier to the plan's fraction, charging the demotions to each
    /// victim's owning instance.
    fn on_pressure(&mut self, now: Time, idx: usize) {
        let Some(p) = self.fault_plan.as_ref().and_then(|f| f.pressure.get(idx)) else {
            return;
        };
        let fraction = p.fraction;
        self.faults.pressure_events += 1;
        if self.store.is_none() {
            return;
        }
        let view = self.merged_view();
        let store = self.store.as_mut().expect("checked above");
        let transfers = store.apply_pressure(now, fraction, &view);
        for t in &transfers {
            let owner = view.owner(t.session).unwrap_or(0) as usize;
            self.instances[owner]
                .plan
                .charge(now, std::slice::from_ref(t));
        }
        self.scratch_view = view;
        self.pump_store_events(0);
    }

    /// Picks instance `inst`'s next action after the previous one
    /// completed.
    fn schedule_next(&mut self, now: Time, inst: u32, q: &mut EventQueue<Ev>) {
        let i = inst as usize;
        // A paused chunked prefill resumes before anything else.
        if let Some((job, chunks_left, chunk_dur)) = self.instances[i].exec.pending_chunk.take() {
            self.issue_chunk(now, q, inst, job, chunks_left.saturating_sub(1), chunk_dur);
            return;
        }
        // Admission first: prefill of waiting jobs blocks decoding, which
        // is the continuous-batching behaviour the paper describes.
        if !self.instances[i].sched.is_empty()
            && self.instances[i].exec.batch.len() < self.cfg.max_batch
        {
            match self.try_admit(now, inst, q) {
                Ok(()) => return,
                Err(ready_at) => {
                    if self.instances[i].exec.batch.is_empty() {
                        // Nothing else to run: stall until ready.
                        self.instances[i].exec.gpu_action = Some(Action::Sleep);
                        self.report.stall_secs += (ready_at - now).as_secs_f64();
                        self.push_tick(q, inst, ready_at);
                        return;
                    }
                    // Fall through to decode while the buffer drains.
                }
            }
        }
        let me = &self.instances[i];
        if !me.exec.batch.is_empty() {
            // Decode up to the next boundary where anything could change:
            // the next one while a queued job can retry its admission
            // (so a deferred head job re-emits its deferral each time),
            // else the first job's finish. A job queued mid-run cuts the
            // run short (`wake_for_queued_job`).
            let retry = !me.sched.is_empty() && me.exec.batch.len() < self.cfg.max_batch;
            let iters = if retry {
                1
            } else {
                me.exec.iters_to_first_finish(&self.jobs)
            };
            self.start_run(now, inst, iters, true, q);
            return;
        }
        // Idle: a future TurnArrival will wake this instance.
        self.instances[i].exec.gpu_action = None;
    }
}

impl<O: EngineObserver> World for ClusterSim<O> {
    type Event = Ev;

    fn handle(&mut self, now: Time, ev: Ev, q: &mut EventQueue<Ev>) {
        sim::scope!("cluster.dispatch");
        match ev {
            Ev::TurnArrival(session) => self.on_turn_arrival(now, session, q),
            Ev::Sweep => {
                if let Some(store) = &mut self.store {
                    store.expire(now);
                }
                self.pump_store_events(0);
                if self.sessions_remaining > 0 {
                    q.push(now + Dur::from_secs_f64(30.0), Ev::Sweep);
                }
            }
            Ev::Crash(inst) => self.on_crash(now, inst, q),
            Ev::Pressure(idx) => self.on_pressure(now, idx),
            Ev::SloTick => self.on_slo_tick(now, q),
            Ev::GpuTick(inst, tick_gen) => {
                let i = inst as usize;
                // Ticks scheduled before a crash landed (the instance is
                // gone and its work was already re-routed) or superseded
                // by a cut or a drain.
                if !self.instances[i].alive || tick_gen != self.instances[i].exec.tick_gen {
                    return;
                }
                match self.instances[i].exec.gpu_action.take() {
                    Some(Action::Prefill { job }) => self.complete_prefill(now, inst, job),
                    Some(Action::PrefillChunk {
                        job,
                        chunks_left,
                        chunk_dur,
                    }) => {
                        if chunks_left == 0 {
                            self.complete_prefill(now, inst, job);
                        } else if self.instances[i].exec.batch.is_empty() {
                            // Nothing to piggyback: run the next slice.
                            self.issue_chunk(now, q, inst, job, chunks_left - 1, chunk_dur);
                            return;
                        } else {
                            // Let one decode iteration through, then
                            // resume (schedule_next picks it back up). Its
                            // timeline span is covered by the admission.
                            self.instances[i].exec.pending_chunk =
                                Some((job, chunks_left, chunk_dur));
                            self.start_run(now, inst, 1, false, q);
                            return;
                        }
                    }
                    Some(Action::Decode) => {
                        let me = &mut self.instances[i];
                        me.record_decode_run(Time::MAX);
                        let tokens = me.exec.run_len();
                        let finished = me.exec.advance_decode(&mut self.jobs, tokens);
                        for j in finished {
                            self.retire_job(now, inst, j, q);
                        }
                    }
                    Some(Action::Sleep) | None => {}
                }
                self.schedule_next(now, inst, q);
            }
        }
    }
}

#[cfg(test)]
mod tests;
