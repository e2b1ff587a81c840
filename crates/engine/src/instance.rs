//! One serving instance of a cluster: the per-GPU pipeline state.
//!
//! [`EngineInstance`] bundles everything that was per-engine before the
//! cluster refactor — the job queue, the executor, the PCIe/slow-tier
//! links and the HBM ledger — plus per-instance counters the cluster
//! report surfaces. The shared pieces (the session table, the job arena,
//! the [`AttentionStore`](store::AttentionStore) and the aggregate
//! [`RunReport`](crate::RunReport)) stay in the
//! [`ClusterSim`](crate::ClusterSim) orchestrator.

use serde::Serialize;
use sim::Time;

use crate::exec::Executor;
use crate::hbm::HbmLedger;
use crate::report::GpuBusy;
use crate::scheduler::{Fcfs, SchedulerPolicy};
use crate::transfer::TransferPlan;
use crate::EngineConfig;

/// The per-instance pipeline state of one cluster member.
pub struct EngineInstance {
    /// Instance id (index into the cluster's instance table).
    pub id: u32,
    /// The instance's job queue (FCFS by default).
    pub sched: Box<dyn SchedulerPolicy>,
    /// The instance's GPU execution state (action + decode batch).
    pub exec: Executor,
    /// The instance's four bandwidth links and staging clocks.
    pub plan: TransferPlan,
    /// The instance's live-KV HBM ledger.
    pub hbm: HbmLedger,
    /// GPU busy time recorded on this instance.
    pub(crate) busy: GpuBusy,
    /// Turns retired on this instance.
    pub turns_done: u64,
    /// Measured resumption turns consulted for jobs routed here.
    pub resumption_turns: u64,
    /// Measured fast-tier hits for jobs routed here.
    pub hits_fast: u64,
    /// Measured slow-tier hits for jobs routed here.
    pub hits_slow: u64,
    /// Measured misses for jobs routed here.
    pub misses: u64,
    /// Last job retirement on this instance.
    pub last_completion: Time,
    /// Whether the instance is still serving (`false` after a scripted
    /// crash; dead instances accept no routes and ignore GPU ticks).
    pub alive: bool,
    /// Whether a clean autoscaler scale-down (not a crash) took this
    /// instance out of service. Departed instances can be revived by a
    /// later scale-up.
    pub departed: bool,
}

impl EngineInstance {
    /// Builds instance `id` for `cfg`: an empty FCFS queue, an idle
    /// executor, fresh links and a model-sized HBM budget.
    pub fn new(id: u32, cfg: &EngineConfig) -> Self {
        Self::with_scheduler(id, cfg, Box::new(Fcfs::new()))
    }

    /// Like [`EngineInstance::new`] but with a caller-chosen queueing
    /// policy (e.g. EDF under an SLO config).
    pub fn with_scheduler(id: u32, cfg: &EngineConfig, sched: Box<dyn SchedulerPolicy>) -> Self {
        EngineInstance {
            id,
            sched,
            exec: Executor::new(),
            plan: TransferPlan::new(cfg),
            hbm: HbmLedger::new(&cfg.cluster, &cfg.model),
            busy: GpuBusy::default(),
            turns_done: 0,
            resumption_turns: 0,
            hits_fast: 0,
            hits_slow: 0,
            misses: 0,
            last_completion: Time::ZERO,
            alive: true,
            departed: false,
        }
    }

    /// Records the decode run's iterations that started before `until`,
    /// in order: all of them at the run's own tick (`Time::MAX`), only
    /// those the GPU had begun when a drain cuts the run short.
    pub(crate) fn record_decode_run(&mut self, until: Time) {
        for (start, dur, span) in self.exec.run_iters() {
            if start >= until {
                break;
            }
            let secs = dur.as_secs_f64();
            self.busy
                .record_decode_iter(secs, span.then(|| start.as_secs_f64()));
        }
    }

    /// Snapshot of this instance's counters and link totals for the
    /// cluster report.
    pub fn report(&self) -> InstanceReport {
        InstanceReport {
            instance: self.id,
            turns_done: self.turns_done,
            resumption_turns: self.resumption_turns,
            hits_fast: self.hits_fast,
            hits_slow: self.hits_slow,
            misses: self.misses,
            h2d_bytes: self.plan.h2d_bytes(),
            d2h_bytes: self.plan.d2h_bytes(),
            slow_read_bytes: self.plan.slow_read_bytes(),
            slow_write_bytes: self.plan.slow_write_bytes(),
            hbm_high_water_bytes: self.hbm.high_water(),
            last_completion_secs: self.last_completion.as_secs_f64(),
            crashed: !self.alive && !self.departed,
            departed: self.departed,
        }
    }
}

/// Per-instance metrics of one cluster run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct InstanceReport {
    /// Instance id.
    pub instance: u32,
    /// Turns retired on this instance.
    pub turns_done: u64,
    /// Measured resumption turns consulted for jobs routed here.
    pub resumption_turns: u64,
    /// Measured fast-tier hits.
    pub hits_fast: u64,
    /// Measured slow-tier hits.
    pub hits_slow: u64,
    /// Measured misses.
    pub misses: u64,
    /// Bytes moved host→device on this instance's links.
    pub h2d_bytes: u64,
    /// Bytes moved device→host on this instance's links.
    pub d2h_bytes: u64,
    /// Bytes read from the slow tier for this instance.
    pub slow_read_bytes: u64,
    /// Bytes written to the slow tier for this instance.
    pub slow_write_bytes: u64,
    /// Peak live-KV HBM reservation on this instance.
    pub hbm_high_water_bytes: u64,
    /// Last retirement on this instance, seconds.
    pub last_completion_secs: f64,
    /// Whether a scripted fault took this instance down during the run.
    pub crashed: bool,
    /// Whether the autoscaler retired this instance cleanly and it was
    /// still out of service at the end of the run.
    pub departed: bool,
}

impl InstanceReport {
    /// KV hit rate over this instance's measured resumption turns.
    pub fn hit_rate(&self) -> f64 {
        if self.resumption_turns == 0 {
            return 0.0;
        }
        (self.hits_fast + self.hits_slow) as f64 / self.resumption_turns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use models::ModelSpec;

    #[test]
    fn fresh_instance_is_idle_and_empty() {
        let cfg = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
        let inst = EngineInstance::new(3, &cfg);
        assert_eq!(inst.id, 3);
        assert!(inst.sched.is_empty());
        assert!(inst.exec.batch.is_empty());
        let r = inst.report();
        assert_eq!(r.instance, 3);
        assert_eq!(r.turns_done, 0);
        assert_eq!(r.hit_rate(), 0.0);
    }

    #[test]
    fn instance_hit_rate_partitions() {
        let r = InstanceReport {
            resumption_turns: 10,
            hits_fast: 6,
            hits_slow: 1,
            misses: 3,
            ..InstanceReport::default()
        };
        assert!((r.hit_rate() - 0.7).abs() < 1e-12);
    }
}
