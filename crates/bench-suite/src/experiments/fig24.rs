//! Figure 24: caching storage mediums — HBM only vs HBM+DRAM vs
//! DRAM+SSD (§4.3.7).
//!
//! Paper: a 10 GB HBM cache alone hits ~0%; adding 128 GB DRAM reaches
//! 3.4/1.7/7.7/19.1% (13B/65B/70B/Falcon); the full DRAM+SSD hierarchy
//! reaches 86/71/89/90%.

use engine::{run_trace, EngineConfig, Mode, RunReport};
use metrics::table::{pct, Table};
use models::{ModelSpec, TierSpec, TierStack};

use crate::{paper_trace, Scale};

/// The three storage configurations of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediumConfig {
    /// 10 GB of spare HBM only.
    HbmOnly,
    /// 10 GB HBM + 128 GB DRAM.
    HbmDram,
    /// 128 GB DRAM + 10 TB SSD (full CachedAttention).
    DramDisk,
}

impl MediumConfig {
    fn label(self) -> &'static str {
        match self {
            MediumConfig::HbmOnly => "HBM(10G)",
            MediumConfig::HbmDram => "HBM+DRAM(10G/128G)",
            MediumConfig::DramDisk => "DRAM+SSD(128G/10T)",
        }
    }
}

/// Runs one (model, medium) cell.
pub fn run_cell(model: ModelSpec, medium: MediumConfig, scale: Scale) -> RunReport {
    let mut cfg = EngineConfig::paper(Mode::CachedAttention, model).with_warmup(scale.warmup_turns);
    // Scale-proportional storage, like the other end-to-end experiments,
    // floored at whole sessions (the store moves sessions atomically).
    let f = scale.capacity_factor();
    let max_session = cfg.model.kv_bytes(cfg.model.context_window as u64);
    let scaled = |bytes: u64| (bytes as f64 * f) as u64;
    let hbm = TierSpec::hbm(scaled(10_000_000_000).max(max_session));
    cfg.store.tiers = match medium {
        // HBM alone: the DRAM tier below it holds nothing.
        MediumConfig::HbmOnly => TierStack::new(vec![hbm, TierSpec::dram(0)]),
        MediumConfig::HbmDram => TierStack::new(vec![
            hbm,
            TierSpec::dram(scaled(128_000_000_000).max(5 * max_session)),
        ]),
        MediumConfig::DramDisk => TierStack::two_tier(
            scaled(cfg.store.dram_bytes()).max(5 * max_session),
            scaled(cfg.store.disk_bytes()).max(25 * max_session),
        ),
    };
    run_trace(cfg, paper_trace(scale, 1.0))
}

/// Renders the Figure 24 table.
pub fn run(scale: Scale) -> String {
    let paper = [
        ("LLaMA-13B", 0.0, 0.034, 0.86),
        ("LLaMA-65B", 0.0, 0.017, 0.71),
        ("LLaMA-70B", 0.0, 0.077, 0.89),
        ("Falcon-40B", 0.0, 0.191, 0.90),
    ];
    let mut t = Table::new(
        "Figure 24: caching storage mediums",
        &["model", "medium", "hit rate", "paper hit", "GPU busy h"],
    );
    for (m, (_, p_hbm_dram, p_full)) in models::evaluation_models()
        .into_iter()
        .zip(paper.iter().map(|&(_, a, b, c)| (a, b, c)))
    {
        for medium in [
            MediumConfig::HbmOnly,
            MediumConfig::HbmDram,
            MediumConfig::DramDisk,
        ] {
            let r = run_cell(m.clone(), medium, scale);
            let paper_hit = match medium {
                MediumConfig::HbmOnly => "~0%".to_string(),
                MediumConfig::HbmDram => pct(p_hbm_dram),
                MediumConfig::DramDisk => pct(p_full),
            };
            t.row(&[
                m.name.to_string(),
                medium.label().into(),
                pct(r.hit_rate()),
                paper_hit,
                format!("{:.2}", r.busy_hours()),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            sessions: 100,
            warmup_turns: 100,
        }
    }

    /// Hit rate ordering: HBM-only < HBM+DRAM < DRAM+SSD, with HBM-only
    /// near zero (the paper's headline for this figure).
    #[test]
    fn medium_hierarchy_ordering() {
        let m = ModelSpec::llama1_65b();
        let hbm = run_cell(m.clone(), MediumConfig::HbmOnly, tiny());
        let hbm_dram = run_cell(m.clone(), MediumConfig::HbmDram, tiny());
        let full = run_cell(m, MediumConfig::DramDisk, tiny());
        assert!(hbm.hit_rate() < 0.3, "HBM-only hit {}", hbm.hit_rate());
        assert!(hbm_dram.hit_rate() >= hbm.hit_rate());
        assert!(full.hit_rate() > hbm_dram.hit_rate());
        assert!(full.hit_rate() > 0.7, "full hit {}", full.hit_rate());
    }
}
