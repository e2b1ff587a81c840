//! Property-based tests of the serving engine: arbitrary configurations
//! (mode, buffers, chunking, compression, tier 0 and storage sizes) over
//! arbitrary small workloads must preserve the engine's accounting
//! invariants.

use cachedattention::engine::{run_trace, EngineConfig, Mode};
use cachedattention::models::{ModelSpec, TierSpec};
use cachedattention::workload::{Generator, ShareGptProfile};
use proptest::prelude::*;

fn modes() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::CachedAttention),
        Just(Mode::Recompute),
        Just(Mode::CoupledOverflow),
    ]
}

/// Tier 0 of the store: host DRAM or device HBM (sized by the test).
fn tier0s() -> impl Strategy<Value = TierSpec> {
    prop_oneof![Just(TierSpec::dram(0)), Just(TierSpec::hbm(0))]
}

fn model_specs() -> impl Strategy<Value = ModelSpec> {
    prop_oneof![
        Just(ModelSpec::llama2_13b()),
        Just(ModelSpec::llama1_65b()),
        Just(ModelSpec::falcon_40b()),
        Just(ModelSpec::mistral_7b()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any configuration serves any workload to completion with
    /// consistent accounting.
    #[test]
    fn engine_invariants_under_arbitrary_configs(
        seed in 0u64..10_000,
        n_sessions in 5usize..40,
        mode in modes(),
        tier0 in tier0s(),
        model in model_specs(),
        max_batch in 1usize..32,
        preload in proptest::bool::ANY,
        async_save in proptest::bool::ANY,
        read_buffer in 0u32..40,
        chunk in proptest::option::of(64u64..1024),
        compression_pct in 10u32..=100,
        dram_gb in 1u64..64,
        disk_gb in 0u64..512,
    ) {
        let trace = Generator::new(ShareGptProfile::default(), seed).trace(n_sessions);
        let total_turns = trace.total_turns() as u64;
        let mut cfg = EngineConfig::paper(mode, model);
        cfg.store.tiers[0] = tier0.with_capacity(dram_gb * 1_000_000_000);
        cfg.max_batch = max_batch;
        cfg.preload = preload;
        cfg.async_save = async_save;
        cfg.read_buffer_layers = read_buffer;
        cfg.chunked_prefill_tokens = chunk;
        cfg.kv_compression = compression_pct as f64 / 100.0;
        cfg.store.set_disk_bytes(disk_gb * 1_000_000_000);
        let r = run_trace(cfg, trace);
        // Everything completes exactly once.
        prop_assert_eq!(r.sessions_done.get() as usize, n_sessions);
        prop_assert_eq!(r.turns_measured.get(), total_turns);
        prop_assert_eq!(r.ttft.count() as u64, total_turns);
        // Hit/miss partitions resumption turns.
        prop_assert_eq!(
            r.hits_fast.get() + r.hits_slow.get() + r.misses.get(),
            r.resumption_turns.get()
        );
        // Token accounting.
        prop_assert!(r.computed_tokens.get() <= r.prompt_tokens.get());
        if mode == Mode::Recompute {
            prop_assert_eq!(r.computed_tokens.get(), r.prompt_tokens.get());
            prop_assert_eq!(r.h2d_bytes, 0);
        }
        // Time sanity: busy components fit in the makespan per GPU.
        prop_assert!(r.makespan_secs >= 0.0);
        prop_assert!(
            r.prefill_busy_secs + r.decode_busy_secs <= r.makespan_secs + 1.0,
            "busy {} + {} exceeds makespan {}",
            r.prefill_busy_secs,
            r.decode_busy_secs,
            r.makespan_secs
        );
    }

    /// KV compression never increases the bytes moved and never lowers
    /// the hit rate, whatever the configuration.
    #[test]
    fn compression_is_monotone(
        seed in 0u64..1_000,
        dram_gb in 2u64..32,
        disk_gb in 8u64..128,
    ) {
        let trace = Generator::new(ShareGptProfile::default(), seed).trace(30);
        let run_with = |ratio: f64| {
            let mut cfg =
                EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
            cfg.kv_compression = ratio;
            cfg.store.set_dram_bytes(dram_gb * 1_000_000_000);
            cfg.store.set_disk_bytes(disk_gb * 1_000_000_000);
            run_trace(cfg, trace.clone())
        };
        let raw = run_with(1.0);
        let packed = run_with(0.25);
        prop_assert!(packed.h2d_bytes <= raw.h2d_bytes);
        prop_assert!(packed.d2h_bytes <= raw.d2h_bytes);
        prop_assert!(packed.hit_rate() >= raw.hit_rate() - 1e-9);
    }
}
