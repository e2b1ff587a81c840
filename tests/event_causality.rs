//! Property-based tests of the engine event stream's causal structure.
//!
//! Every turn of every session must walk the pipeline in order —
//! `TurnArrived ≤ Consulted ≤ Admitted ≤ PrefillDone ≤ Retired` — and
//! the committed stream must carry non-decreasing timestamps, for any
//! ShareGPT workload in any serving mode. This pins the contract the
//! telemetry exporters rely on when they pair events into spans.

use cachedattention::engine::{run_traced, EngineConfig, EngineEvent, Mode};
use cachedattention::models::ModelSpec;
use cachedattention::sim::Time;
use cachedattention::workload::{Generator, ShareGptProfile};
use proptest::prelude::*;
use std::collections::HashMap;

/// Where a session currently is in its turn lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Arrived,
    Admitted,
    Prefilled,
}

fn modes() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::CachedAttention),
        Just(Mode::Recompute),
        Just(Mode::CoupledOverflow),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The per-session lifecycle automaton accepts every traced run.
    #[test]
    fn events_follow_the_turn_lifecycle(
        seed in 0u64..5_000,
        n_sessions in 4usize..20,
        mode in modes(),
        dram_gb in 2u64..16,
        disk_gb in 8u64..64,
    ) {
        let trace = Generator::new(ShareGptProfile::default(), seed).trace(n_sessions);
        let mut cfg = EngineConfig::paper(mode, ModelSpec::llama2_13b());
        cfg.store.set_dram_bytes(dram_gb * 1_000_000_000);
        cfg.store.set_disk_bytes(disk_gb * 1_000_000_000);
        let (report, events) = run_traced(cfg, trace);
        prop_assert!(!events.is_empty());

        let mut phase: HashMap<u64, Phase> = HashMap::new();
        let mut prev_at = Time::ZERO;
        for ev in &events {
            // Commit order is time order: the engine emits every event
            // at its own simulation instant.
            prop_assert!(
                ev.at() >= prev_at,
                "timestamp regressed: {:?} after t={:?}",
                ev,
                prev_at
            );
            prev_at = ev.at();

            let sid = ev
                .session()
                .expect("fault-free runs only emit session-scoped events");
            let state = phase.entry(sid).or_insert(Phase::Idle);
            match ev {
                EngineEvent::TurnArrived { .. } => {
                    prop_assert!(
                        *state == Phase::Idle,
                        "turn arrived for session {} mid-turn", sid
                    );
                    *state = Phase::Arrived;
                }
                EngineEvent::Consulted { .. } | EngineEvent::Deferred { .. } => {
                    prop_assert!(
                        *state == Phase::Arrived,
                        "consult/defer for session {} outside the queue window", sid
                    );
                }
                EngineEvent::Admitted { .. } => {
                    prop_assert!(
                        *state == Phase::Arrived,
                        "admission for session {} without an arrival", sid
                    );
                    *state = Phase::Admitted;
                }
                EngineEvent::HbmReserved { .. } => {
                    prop_assert!(
                        *state == Phase::Admitted,
                        "HBM reservation for session {} outside admission", sid
                    );
                }
                EngineEvent::PrefillTimed { load_secs, comp_secs, stall_secs, .. } => {
                    prop_assert!(
                        *state == Phase::Admitted,
                        "prefill timing for session {} outside admission", sid
                    );
                    prop_assert!(
                        *load_secs >= 0.0 && *comp_secs >= 0.0 && *stall_secs >= 0.0,
                        "negative prefill timing for session {}", sid
                    );
                }
                EngineEvent::PrefillDone { .. } => {
                    prop_assert!(
                        *state == Phase::Admitted,
                        "prefill completion for session {} without admission", sid
                    );
                    *state = Phase::Prefilled;
                }
                EngineEvent::Retired { .. } => {
                    prop_assert!(
                        *state == Phase::Prefilled,
                        "retirement for session {} without a prefill", sid
                    );
                    *state = Phase::Idle;
                }
                // Context-overflow truncation position depends on the
                // mode; it only needs a live turn.
                EngineEvent::Truncated { .. } => {
                    prop_assert!(*state != Phase::Idle);
                }
                EngineEvent::InstanceCrashed { .. }
                | EngineEvent::TurnRerouted { .. }
                | EngineEvent::DegradedRecompute { .. } => {
                    prop_assert!(false, "fault event in a fault-free run: {:?}", ev);
                }
                EngineEvent::SloConfig { .. }
                | EngineEvent::TurnShed { .. }
                | EngineEvent::OverloadLevelChanged { .. }
                | EngineEvent::ScaleUp { .. }
                | EngineEvent::ScaleDown { .. } => {
                    prop_assert!(false, "overload event in an SLO-free run: {:?}", ev);
                }
            }
        }
        // Every turn that started also finished.
        for (sid, state) in &phase {
            prop_assert!(*state == Phase::Idle, "session {} left mid-turn", sid);
        }
        // The stream agrees with the report's totals.
        let retirements = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::Retired { .. }))
            .count() as u64;
        prop_assert_eq!(retirements, report.turns_measured.get());
    }
}
