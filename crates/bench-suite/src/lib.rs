#![warn(missing_docs)]

//! Shared harness for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one of the paper's tables or
//! figures (see `DESIGN.md` for the index). This library holds the pieces
//! they share: workload construction, the four-model end-to-end runner,
//! and simple CLI parsing.

use engine::{run_trace, EngineConfig, Mode, RunReport};
use models::ModelSpec;
use workload::{Generator, ShareGptProfile, Trace};

pub mod experiments;
pub mod profile;
pub mod telemetry_cli;

pub use telemetry_cli::TelemetryArgs;

/// Default seed used by every experiment unless overridden.
pub const DEFAULT_SEED: u64 = 20240418;

/// Scale of an end-to-end run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Number of conversation sessions.
    pub sessions: usize,
    /// Leading turn arrivals excluded from metrics (store warmup).
    pub warmup_turns: usize,
}

impl Scale {
    /// The paper's full setup: 9K sessions, first 10K of ~52K turns warm
    /// the store (§4.2). Slow: minutes per model/mode pair.
    pub fn paper() -> Self {
        Scale {
            sessions: 9_000,
            warmup_turns: 10_000,
        }
    }

    /// A proportional small run for quick iteration and CI.
    pub fn quick() -> Self {
        Scale {
            sessions: 1_000,
            warmup_turns: 1_100,
        }
    }

    /// Capacity factor for scale-proportional storage: the paper's hit
    /// rates come from 9K sessions pressuring a 128 GB / 10 TB store, so
    /// a quick run with `N` sessions shrinks the store by `N / 9000` to
    /// preserve the pressure (and therefore the eviction dynamics).
    pub fn capacity_factor(&self) -> f64 {
        (self.sessions as f64 / Scale::paper().sessions as f64).min(1.0)
    }

    /// Parses `--sessions N` / `--paper` from CLI args, defaulting to
    /// [`Scale::quick`]. Warmup stays proportional (~19% of turns, like
    /// the paper's 10K/52K).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--paper") {
            return Scale::paper();
        }
        if let Some(pos) = args.iter().position(|a| a == "--sessions") {
            if let Some(n) = args.get(pos + 1).and_then(|s| s.parse::<usize>().ok()) {
                return Scale {
                    sessions: n,
                    warmup_turns: n * 11 / 10,
                };
            }
        }
        Scale::quick()
    }
}

/// Builds the ShareGPT-calibrated trace used by the end-to-end runs.
pub fn paper_trace(scale: Scale, arrival_rate: f64) -> Trace {
    let profile = ShareGptProfile::default().with_arrival_rate(arrival_rate);
    Generator::new(profile, DEFAULT_SEED).trace(scale.sessions)
}

/// The paper's engine configuration with storage scaled to the run's
/// session count (see [`Scale::capacity_factor`]).
///
/// Session granularity sets a floor: DRAM must still stage a handful of
/// whole sessions (the store moves sessions atomically, §3.3.2), so very
/// small test runs keep at least 5 window-sized sessions of DRAM and 25
/// of disk.
pub fn scaled_config(mode: Mode, model: ModelSpec, scale: Scale) -> EngineConfig {
    let f = scale.capacity_factor();
    let max_session = model.kv_bytes(model.context_window as u64);
    let mut cfg = EngineConfig::paper(mode, model).with_warmup(scale.warmup_turns);
    cfg.store
        .set_dram_bytes(((cfg.store.dram_bytes() as f64 * f) as u64).max(5 * max_session));
    cfg.store
        .set_disk_bytes(((cfg.store.disk_bytes() as f64 * f) as u64).max(25 * max_session));
    cfg
}

/// Runs one (model, mode) end-to-end experiment at the paper's settings
/// (scale-proportional storage).
pub fn run_e2e(mode: Mode, model: ModelSpec, scale: Scale) -> RunReport {
    let trace = paper_trace(scale, 1.0);
    run_trace(scaled_config(mode, model, scale), trace)
}

/// Runs CA and RE for every evaluation model; returns `(model, ca, re)`.
pub fn run_all_models(scale: Scale) -> Vec<(ModelSpec, RunReport, RunReport)> {
    models::evaluation_models()
        .into_iter()
        .map(|m| {
            let ca = run_e2e(Mode::CachedAttention, m.clone(), scale);
            let re = run_e2e(Mode::Recompute, m.clone(), scale);
            (m, ca, re)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_sane() {
        let p = Scale::paper();
        assert_eq!(p.sessions, 9_000);
        let q = Scale::quick();
        assert!(q.sessions < p.sessions);
        assert!(q.warmup_turns > 0);
    }

    #[test]
    fn trace_scales_with_sessions() {
        let t = paper_trace(
            Scale {
                sessions: 50,
                warmup_turns: 0,
            },
            1.0,
        );
        assert_eq!(t.sessions.len(), 50);
    }
}
