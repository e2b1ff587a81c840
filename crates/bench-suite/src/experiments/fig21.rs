//! Figure 21: scheduler-aware eviction vs LRU vs FIFO under different
//! storage configurations (§4.3.3).
//!
//! Paper (LLaMA-13B): at 128G/10T CA hits 86% vs LRU 58% and FIFO 48%,
//! with LRU/FIFO DRAM hit rates near zero (no prefetching) while CA's
//! hits land >99% in DRAM; the hit-rate gap translates into up to 2.7×
//! GPU time.

use engine::{run_trace, EngineConfig, Mode, RunReport};
use metrics::table::{pct, Table};
use models::ModelSpec;
use store::PolicyKind;

use crate::{paper_trace, Scale};

/// Runs one (policy, DRAM, disk) cell.
pub fn run_cell(policy: PolicyKind, dram_bytes: u64, disk_bytes: u64, scale: Scale) -> RunReport {
    let mut cfg = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b())
        .with_warmup(scale.warmup_turns);
    cfg.store.policy = policy;
    cfg.store.set_dram_bytes(dram_bytes);
    cfg.store.set_disk_bytes(disk_bytes);
    run_trace(cfg, paper_trace(scale, 1.0))
}

/// Renders the Figure 21 table.
pub fn run(scale: Scale) -> String {
    let configs = [
        ("128G/2T", 2_000_000_000_000u64),
        ("128G/10T", 10_000_000_000_000),
    ];
    let policies = [
        ("CA", PolicyKind::SchedulerAware),
        ("LRU", PolicyKind::Lru),
        ("FIFO", PolicyKind::Fifo),
    ];
    let mut t = Table::new(
        "Figure 21: eviction policies (LLaMA-13B)",
        &[
            "storage",
            "policy",
            "hit rate",
            "DRAM hits",
            "disk hits",
            "GPU busy h",
        ],
    );
    let mut out = String::new();
    let f = scale.capacity_factor();
    for (label, disk) in configs {
        for (pname, policy) in policies {
            let r = run_cell(
                policy,
                (128_000_000_000f64 * f) as u64,
                (disk as f64 * f) as u64,
                scale,
            );
            t.row(&[
                label.into(),
                pname.into(),
                pct(r.hit_rate()),
                pct(r.fast_hit_rate()),
                pct(r.slow_hit_rate()),
                format!("{:.2}", r.busy_hours()),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "paper shape: CA > LRU > FIFO on overall hit rate; LRU/FIFO DRAM hit rates\n\
         are near zero (no prefetching); CA's hits are almost all DRAM hits.\n",
    );
    out
}

/// Extra ablation (not a paper figure): how the look-ahead window length
/// affects the scheduler-aware hit rate. Demonstrates that the paper's
/// `(C_mem + C_disk)/S_kv` sizing saturates the benefit.
pub fn window_sweep(scale: Scale) -> String {
    // The window length is derived inside the store from capacity and the
    // average entry size; sweep capacity to move it.
    let mut t = Table::new(
        "Ablation: look-ahead horizon via store capacity (LLaMA-13B, scheduler-aware)",
        &["disk capacity", "eviction window (entries)", "hit rate"],
    );
    let f = scale.capacity_factor();
    for disk_tb in [1u64, 2, 5, 10] {
        let r = run_cell(
            PolicyKind::SchedulerAware,
            (128_000_000_000f64 * f) as u64,
            ((disk_tb * 1_000_000_000_000) as f64 * f) as u64,
            scale,
        );
        let window = (128_000_000_000 + disk_tb * 1_000_000_000_000)
            / ModelSpec::llama2_13b().kv_bytes(1500).max(1);
        t.row(&[format!("{disk_tb}T"), window.to_string(), pct(r.hit_rate())]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            sessions: 120,
            warmup_turns: 120,
        }
    }

    /// The policy ordering from the paper: CA ≥ LRU ≥ FIFO on hit rate,
    /// and CA's hits land in DRAM while LRU's do not (no prefetch).
    #[test]
    fn policy_ordering_holds_under_pressure() {
        // A deliberately tight store so eviction and placement decisions
        // matter: DRAM holds only a handful of sessions.
        let dram = 16_000_000_000u64;
        let disk = 120_000_000_000u64;
        let ca = run_cell(PolicyKind::SchedulerAware, dram, disk, tiny());
        let lru = run_cell(PolicyKind::Lru, dram, disk, tiny());
        let fifo = run_cell(PolicyKind::Fifo, dram, disk, tiny());
        assert!(
            ca.hit_rate() >= lru.hit_rate() - 0.02,
            "CA {} vs LRU {}",
            ca.hit_rate(),
            lru.hit_rate()
        );
        assert!(
            lru.hit_rate() >= fifo.hit_rate() - 0.02,
            "LRU {} vs FIFO {}",
            lru.hit_rate(),
            fifo.hit_rate()
        );
        assert!(
            ca.fast_hit_rate() > lru.fast_hit_rate(),
            "CA DRAM {} vs LRU DRAM {}",
            ca.fast_hit_rate(),
            lru.fast_hit_rate()
        );
    }

    /// More disk capacity never hurts the scheduler-aware hit rate.
    #[test]
    fn capacity_monotone() {
        let dram = 128_000_000_000;
        let small = run_cell(PolicyKind::SchedulerAware, dram, 100_000_000_000, tiny());
        let big = run_cell(PolicyKind::SchedulerAware, dram, 2_000_000_000_000, tiny());
        assert!(big.hit_rate() >= small.hit_rate() - 0.02);
    }
}
