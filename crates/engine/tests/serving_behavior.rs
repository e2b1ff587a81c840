//! End-to-end behaviour of the serving pipeline, exercised through the
//! public API only.

use engine::{
    run_paper_workload, run_trace, run_traced, ConsultClass, EngineConfig, EngineEvent, Mode,
    RunReport,
};
use models::ModelSpec;
use workload::{Generator, ShareGptProfile, Trace};

fn small_trace(n: usize, seed: u64) -> Trace {
    Generator::new(ShareGptProfile::default(), seed).trace(n)
}

fn run(mode: Mode, n: usize) -> RunReport {
    run_paper_workload(mode, ModelSpec::llama2_13b(), small_trace(n, 7), 0)
}

/// Every session runs to completion in both modes.
#[test]
fn workload_completes_in_all_modes() {
    for mode in [
        Mode::CachedAttention,
        Mode::Recompute,
        Mode::CoupledOverflow,
    ] {
        let r = run(mode, 120);
        assert_eq!(r.sessions_done.get(), 120, "{mode:?}");
        assert!(r.makespan_secs > 0.0);
        assert_eq!(r.turns_measured.get() as usize, {
            // All turns measured with zero warmup.
            small_trace(120, 7).total_turns()
        });
    }
}

/// With an ample store, CachedAttention hits on nearly every
/// resumption turn.
#[test]
fn ca_hit_rate_is_high_with_ample_store() {
    let r = run(Mode::CachedAttention, 150);
    assert!(r.resumption_turns.get() > 0);
    assert!(r.hit_rate() > 0.95, "hit rate {}", r.hit_rate());
    // Scheduler-aware placement keeps the hits in the fast tier.
    assert!(r.fast_hit_rate() > 0.9, "fast {}", r.fast_hit_rate());
}

/// RE recomputes everything: computed == presented prompt tokens.
#[test]
fn re_recomputes_all_prompt_tokens() {
    let r = run(Mode::Recompute, 100);
    assert_eq!(r.computed_tokens.get(), r.prompt_tokens.get());
    assert_eq!(r.hit_rate(), 0.0);
}

/// The paper's headline: CA cuts TTFT, computed tokens and GPU time
/// versus RE on the same trace.
#[test]
fn ca_beats_re_on_the_same_trace() {
    let ca = run(Mode::CachedAttention, 200);
    let re = run(Mode::Recompute, 200);
    assert!(
        ca.ttft_mean() < re.ttft_mean(),
        "TTFT ca {} re {}",
        ca.ttft_mean(),
        re.ttft_mean()
    );
    assert!(ca.computed_tokens.get() < re.computed_tokens.get() / 2);
    assert!(ca.prefill_throughput() > re.prefill_throughput());
    assert!(ca.busy_hours() < re.busy_hours());
}

/// OF sits between CA and RE: overflow invalidations cost it hits.
#[test]
fn of_loses_hits_to_overflow() {
    // LLaMA-65B's 2K window overflows constantly (§4.3.4).
    let ca = run_paper_workload(
        Mode::CachedAttention,
        ModelSpec::llama1_65b(),
        small_trace(150, 11),
        0,
    );
    let of = run_paper_workload(
        Mode::CoupledOverflow,
        ModelSpec::llama1_65b(),
        small_trace(150, 11),
        0,
    );
    assert!(
        of.hit_rate() < ca.hit_rate(),
        "of {} ca {}",
        of.hit_rate(),
        ca.hit_rate()
    );
    assert!(of.store_stats.drops_invalidated > 0);
}

/// Truncation keeps every admitted prompt inside the context window.
#[test]
fn context_never_exceeds_window() {
    let r = run_paper_workload(
        Mode::CachedAttention,
        ModelSpec::llama1_65b(),
        small_trace(100, 3),
        0,
    );
    assert!(r.truncations.get() > 0, "workload should overflow 2K");
    // Indirect check: prompt tokens per turn never exceed the window.
    // (Direct check lives in truncate::truncate_history's unit tests.)
    let max_prompt = r.prompt_tokens.get() / r.turns_measured.get().max(1);
    assert!(max_prompt <= 2048 + 2048);
}

/// Runs are deterministic: identical seeds give identical reports.
#[test]
fn runs_are_deterministic() {
    let a = run(Mode::CachedAttention, 80);
    let b = run(Mode::CachedAttention, 80);
    assert_eq!(a.makespan_secs, b.makespan_secs);
    assert_eq!(a.computed_tokens.get(), b.computed_tokens.get());
    assert_eq!(a.h2d_bytes, b.h2d_bytes);
    assert_eq!(a.store_stats, b.store_stats);
}

/// HBM residency limits the batch: with a deliberately tiny HBM the
/// run still completes and the live-KV high water stays within the
/// budget (admission defers to decode instead of overcommitting).
#[test]
fn hbm_budget_limits_the_batch() {
    let trace = small_trace(120, 19);
    let mut cfg = EngineConfig::paper(Mode::Recompute, ModelSpec::llama1_65b());
    // Shrink HBM so only a couple of 65B contexts fit beside the
    // weights: total 160 GB − 130 GB weights − 16 GB reserve ≈ 14 GB.
    cfg.cluster.gpu.hbm_bytes = 40_000_000_000;
    let budget = {
        let total = cfg.cluster.total_hbm_bytes();
        total - cfg.model.weight_bytes() - total / 10
    };
    let r = run_trace(cfg, trace.clone());
    assert_eq!(r.sessions_done.get(), 120);
    // A single job is always admitted when the batch is empty (it
    // cannot wait on itself), so the bound is the budget or the
    // largest single-job reservation, whichever is greater.
    let model = ModelSpec::llama1_65b();
    let max_single = trace
        .sessions
        .iter()
        .flat_map(|sess| {
            (0..sess.n_turns()).map(|i| {
                let t = &sess.turns[i];
                let hist = sess.historical_tokens_at(i).min(2048);
                model.kv_bytes(hist + t.user_tokens as u64 + t.resp_tokens as u64)
            })
        })
        .max()
        .unwrap_or(0);
    assert!(
        r.hbm_high_water_bytes <= budget.max(max_single),
        "high water {} exceeds budget {budget} and max single {max_single}",
        r.hbm_high_water_bytes
    );
    // A roomy HBM admits far more concurrent KV.
    let roomy = run_trace(
        EngineConfig::paper(Mode::Recompute, ModelSpec::llama1_65b()),
        trace,
    );
    assert!(roomy.hbm_high_water_bytes >= r.hbm_high_water_bytes);
}

/// The GPU-busy timeline accounts for every busy second: its total
/// matches prefill + decode (stalls inside prefills included in the
/// prefill span).
#[test]
fn busy_timeline_accounts_for_busy_time() {
    let r = run(Mode::CachedAttention, 80);
    let timeline_total = r.gpu_busy_timeline.total();
    let busy = r.prefill_busy_secs + r.decode_busy_secs + r.stall_secs;
    // The timeline records prefill spans at their full (stall
    // inclusive) duration, so totals agree within the stall slack.
    assert!(
        (timeline_total - busy).abs() <= r.stall_secs + 1.0,
        "timeline {timeline_total} vs busy {busy}"
    );
    assert!(r.gpu_busy_timeline.peak() > 0.0);
}

/// Chunked prefill trades a little TTFT for decode-latency relief:
/// the run still completes, decoding jobs stop being blocked by whole
/// prefills, and the total computed work is unchanged.
#[test]
fn chunked_prefill_relieves_decode_blocking() {
    let trace = small_trace(200, 13);
    let model = ModelSpec::llama2_70b();
    let base = EngineConfig::paper(Mode::Recompute, model.clone());
    let mono = run_trace(base.clone(), trace.clone());
    let chunked = run_trace(base.with_chunked_prefill(256), trace);
    assert_eq!(mono.sessions_done.get(), chunked.sessions_done.get());
    assert_eq!(mono.computed_tokens.get(), chunked.computed_tokens.get());
    // Decode wall latency improves (fewer long prefill stalls).
    let mut m = mono;
    let mut c = chunked;
    let (m_p95, c_p95) = (
        m.decode_latency.percentile(95.0).unwrap(),
        c.decode_latency.percentile(95.0).unwrap(),
    );
    assert!(
        c_p95 <= m_p95 * 1.02,
        "chunked p95 {c_p95} vs monolithic {m_p95}"
    );
    // The prefilled job itself waits a bit longer.
    assert!(c.ttft_mean() >= m.ttft_mean() * 0.98);
}

/// Warmup excludes early turns from the metrics but not the run.
#[test]
fn warmup_filters_metrics() {
    let all = run_paper_workload(
        Mode::CachedAttention,
        ModelSpec::llama2_13b(),
        small_trace(100, 5),
        0,
    );
    let warmed = run_paper_workload(
        Mode::CachedAttention,
        ModelSpec::llama2_13b(),
        small_trace(100, 5),
        200,
    );
    assert!(warmed.turns_measured.get() < all.turns_measured.get());
    assert_eq!(warmed.sessions_done.get(), all.sessions_done.get());
    // Warmed-up hit rates are at least as good: the store is hot.
    assert!(warmed.hit_rate() >= all.hit_rate() - 0.05);
}

/// The observer hook is pure observation: a traced run produces the
/// exact same report as an untraced one, plus a consistent event
/// stream (every turn arrives, every admitted job retires, hit/miss
/// classifications agree with the report counters).
#[test]
fn traced_run_matches_untraced_and_is_consistent() {
    let cfg = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
    let trace = small_trace(60, 7);
    let plain = run_trace(cfg.clone(), trace.clone());
    let (traced, events) = run_traced(cfg, trace.clone());
    assert_eq!(plain.makespan_secs, traced.makespan_secs);
    assert_eq!(plain.computed_tokens.get(), traced.computed_tokens.get());
    assert_eq!(plain.h2d_bytes, traced.h2d_bytes);
    assert_eq!(plain.store_stats, traced.store_stats);

    let count = |f: &dyn Fn(&EngineEvent) -> bool| events.iter().filter(|e| f(e)).count();
    let arrivals = count(&|e| matches!(e, EngineEvent::TurnArrived { .. }));
    let admissions = count(&|e| matches!(e, EngineEvent::Admitted { .. }));
    let prefills = count(&|e| matches!(e, EngineEvent::PrefillDone { .. }));
    let retirements = count(&|e| matches!(e, EngineEvent::Retired { .. }));
    assert_eq!(arrivals, trace.total_turns());
    assert_eq!(admissions, arrivals);
    assert_eq!(prefills, arrivals);
    assert_eq!(retirements, arrivals);

    let hits_fast = count(&|e| {
        matches!(
            e,
            EngineEvent::Consulted {
                class: ConsultClass::HitFast,
                ..
            }
        )
    });
    assert_eq!(hits_fast as u64, traced.hits_fast.get());
    let truncations = count(&|e| matches!(e, EngineEvent::Truncated { .. }));
    assert_eq!(truncations as u64, traced.truncations.get());
}
