//! Criterion micro-benchmarks of the substrate crates: event queue
//! throughput, AttentionStore operations, workload generation, cost-model
//! evaluation and the tiny transformer's forward pass.
//!
//! These measure the *simulator's own* performance (events/sec, store
//! ops/sec), complementing the `exp_*` binaries that regenerate the
//! paper's simulated results.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use models::{ClusterSpec, CostModel, ModelSpec};
use sim::{Dur, EventQueue, SimRng, Time};
use store::{AttentionStore, PolicyKind, QueueView, SessionId, StoreConfig};
use tinyllm::{Model, PeMode, TinyConfig, Weights};
use workload::{Generator, ShareGptProfile};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(Time::from_nanos(i * 7919 % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("sim/rng_mixed_draws_10k", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(7);
            let mut acc = 0.0f64;
            for _ in 0..10_000 {
                acc += rng.exp(2.0) + rng.lognormal(4.0, 1.0);
            }
            black_box(acc)
        })
    });
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    for policy in [
        PolicyKind::SchedulerAware,
        PolicyKind::Lru,
        PolicyKind::Fifo,
    ] {
        g.bench_with_input(
            BenchmarkId::new("save_evict_churn", format!("{policy:?}")),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut store = AttentionStore::new(StoreConfig {
                        tiers: models::TierStack::two_tier(4_000_000_000, 20_000_000_000),
                        block_bytes: 16 * 1024 * 1024,
                        policy,
                        ttl: None,
                        dram_reserve_fraction: 0.1,
                        default_session_bytes: 100_000_000,
                        ..StoreConfig::default()
                    });
                    let queue: Vec<SessionId> = (0..16).map(SessionId).collect();
                    let view = QueueView::new(&queue);
                    for i in 0..400u64 {
                        store.save(
                            SessionId(i % 64),
                            80_000_000 + (i % 7) * 10_000_000,
                            1_000,
                            Time::from_nanos(i),
                            &view,
                        );
                        if i % 3 == 0 {
                            store.load_prefix(
                                SessionId((i + 32) % 64),
                                1_100,
                                Time::from_nanos(i),
                                &view,
                            );
                            store.unpin(SessionId((i + 32) % 64));
                        }
                        store.prefetch(Time::from_nanos(i), &view);
                    }
                    black_box(store.stats().saves)
                })
            },
        );
    }
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    c.bench_function("workload/generate_1k_sessions", |b| {
        b.iter(|| {
            let t = Generator::new(ShareGptProfile::default(), 3).trace(1_000);
            black_box(t.total_turns())
        })
    });
}

fn bench_cost_model(c: &mut Criterion) {
    let m = ModelSpec::llama2_70b();
    let cluster = ClusterSpec::paper_testbed();
    let cm = CostModel::default();
    c.bench_function("models/cost_eval_10k", |b| {
        b.iter(|| {
            let mut acc = Dur::ZERO;
            for i in 0..10_000u64 {
                acc += cm.prefill_time(&m, &cluster, 100 + i % 1000, i % 4096);
            }
            black_box(acc)
        })
    });
}

fn bench_tinyllm_forward(c: &mut Criterion) {
    let cfg = TinyConfig::table12();
    let model = Model::new(cfg.clone(), Weights::random(&cfg, 1));
    let tokens: Vec<usize> = (0..64).map(|i| i % cfg.vocab).collect();
    let mut g = c.benchmark_group("tinyllm");
    for mode in [PeMode::Decoupled, PeMode::Coupled] {
        g.bench_with_input(
            BenchmarkId::new("forward_64_tokens", format!("{mode:?}")),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let mut cache = model.cache(mode);
                    black_box(model.forward(&tokens, &mut cache).len())
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_rng,
    bench_store,
    bench_workload,
    bench_cost_model,
    bench_tinyllm_forward
);
criterion_main!(benches);
