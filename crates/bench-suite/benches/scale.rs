//! Criterion benchmarks for the simulator's own hot paths — the scopes
//! the self-profile ranks highest on large runs.
//!
//! Four groups:
//!
//! - `queue_view`: building the cluster's merged look-ahead window from
//!   per-instance queues. Compares the allocating constructor
//!   (`QueueView::with_owners`, one fresh Vec + two fresh HashMaps per
//!   call) against the in-place `rebuild` on a retained view — the
//!   buffer-reuse fix `ClusterSim::merged_view` ships with.
//! - `window_maintenance`: `maintain_reserve` on a populated store — the
//!   demote-until-reserve-free loop `exp_scale` shows dominating large
//!   runs, driven by a full look-ahead window.
//! - `scope_guard`: one `scope!` in isolation, disabled vs enabled —
//!   the disabled path is what instrumented hot paths cost a normal
//!   run (the < 5% additivity claim), the enabled path is the price of
//!   asking for a profile.
//! - `self_profiler`: identical runs (micro cluster; the 13 golden
//!   scenarios) with the profiler off vs on — end-to-end enabled
//!   overhead, which scales inversely with per-event cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::{run_cluster, ClusterConfig, EngineConfig, Mode, RouterKind};
use models::{ModelSpec, TierStack};
use sim::{profiler, ProfilerConfig, Time};
use store::{AttentionStore, PolicyKind, QueueView, SessionId, StoreConfig};
use workload::{Generator, ShareGptProfile};

const MB: u64 = 1_000_000;

fn bench_queue_view(c: &mut Criterion) {
    // A merged cluster queue of the size large scale runs see: a few
    // thousand queued sessions across the fleet.
    let order: Vec<SessionId> = (0..4096).map(SessionId).collect();
    let owners: Vec<u32> = (0..4096u32).map(|i| i % 8).collect();
    let mut g = c.benchmark_group("queue_view");

    g.bench_with_input(BenchmarkId::new("build", "fresh_alloc"), &(), |b, ()| {
        b.iter(|| {
            let view = QueueView::with_owners(&order, &owners);
            black_box(view.len())
        })
    });

    g.bench_with_input(BenchmarkId::new("build", "rebuild_reuse"), &(), |b, ()| {
        let mut view = QueueView::empty();
        b.iter(|| {
            view.rebuild(&order, &owners);
            black_box(view.len())
        })
    });
    g.finish();
}

fn bench_window_maintenance(c: &mut Criterion) {
    // A DRAM tier filled to the brim with cold sessions plus a reserve
    // requirement forces `maintain_reserve` through its demotion loop.
    let populated = || {
        let mut s = AttentionStore::new(StoreConfig {
            tiers: TierStack::two_tier(512 * MB, 4096 * MB),
            block_bytes: MB,
            policy: PolicyKind::SchedulerAware,
            ttl: None,
            dram_reserve_fraction: 0.2,
            default_session_bytes: MB,
            ..StoreConfig::default()
        });
        let empty = QueueView::empty();
        for i in 0..256u64 {
            s.save(SessionId(i), 2 * MB, 64, Time::ZERO, &empty);
        }
        s
    };
    let queued: Vec<SessionId> = (0..64).map(SessionId).collect();
    let owners: Vec<u32> = (0..64u32).map(|i| i % 4).collect();
    let queue = QueueView::with_owners(&queued, &owners);

    let mut g = c.benchmark_group("window_maintenance");
    // The populated store is rebuilt inside the timed body (the reserve
    // loop consumes it), so this measures fill + demote-until-free; the
    // comparison of interest is across commits, not against the other
    // groups.
    g.bench_with_input(
        BenchmarkId::new("maintain_reserve", "cold_dram"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut s = populated();
                let t = s.maintain_reserve(Time::from_millis(10), &queue);
                black_box(t.len())
            })
        },
    );
    g.finish();
}

fn bench_scope_guard(c: &mut Criterion) {
    let mut g = c.benchmark_group("scope_guard");

    // Disabled: what the compiled-in instrumentation costs a normal
    // (unprofiled) run — one relaxed atomic load and a branch per
    // scope. This is the "< 5% on the exp_profile scenarios" claim:
    // at ~1 ns x ~2.3 scopes/event against ~0.5 us/event, the
    // disabled macros tax those runs well under 1%.
    g.bench_with_input(BenchmarkId::new("scope", "disabled"), &(), |b, ()| {
        b.iter(|| {
            for i in 0..1024u64 {
                sim::scope!("bench.scope");
                black_box(i);
            }
        })
    });

    // Enabled: two clock reads plus thread-local stack bookkeeping per
    // scope — the price of asking for a profile, paid only then.
    g.bench_with_input(BenchmarkId::new("scope", "enabled"), &(), |b, ()| {
        profiler::begin(ProfilerConfig::default());
        b.iter(|| {
            for i in 0..1024u64 {
                sim::scope!("bench.scope");
                black_box(i);
            }
        });
        profiler::finish();
    });
    g.finish();
}

fn bench_self_profiler_overhead(c: &mut Criterion) {
    let engine = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
    let cfg = ClusterConfig::new(engine, 2, RouterKind::SessionAffinity);
    let trace = Generator::new(ShareGptProfile::default(), 13).trace(60);

    let mut g = c.benchmark_group("self_profiler");
    g.sample_size(10);

    // Enabled-profiler overhead scales inversely with per-event cost:
    // the guard's fixed ~190 ns (two clock reads + TLS) is ~2% of wall
    // on `exp_scale --full` (expensive, queue-scan-heavy events) but
    // dominates micro runs like this one, whose events are ~0.5 us.
    g.bench_with_input(BenchmarkId::new("cluster_run", "off"), &(), |b, ()| {
        b.iter(|| {
            let r = run_cluster(cfg.clone(), trace.clone());
            black_box(r.aggregate.makespan_secs)
        })
    });

    g.bench_with_input(BenchmarkId::new("cluster_run", "on"), &(), |b, ()| {
        b.iter(|| {
            profiler::begin(ProfilerConfig::default());
            let r = run_cluster(cfg.clone(), trace.clone());
            let p = profiler::finish();
            black_box((r.aggregate.makespan_secs, p.events))
        })
    });

    // The 13 exp_profile golden scenarios with the profiler enabled vs
    // disabled. Single-engine runs go through the same 1-instance
    // cluster, so enabling the profiler pays the full per-event
    // scope cost here too — this group reports that price honestly;
    // the < 5% additivity claim is about the *disabled* path above.
    let scenarios = bench_suite::profile::golden_scenarios();
    let golden_trace = || Generator::new(ShareGptProfile::default(), 7).trace(20);

    g.bench_with_input(
        BenchmarkId::new("exp_profile_matrix", "off"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut done = 0u64;
                for (_, cfg) in &scenarios {
                    let r = engine::run_trace(cfg.clone(), golden_trace());
                    done += r.sessions_done.get();
                }
                black_box(done)
            })
        },
    );

    g.bench_with_input(
        BenchmarkId::new("exp_profile_matrix", "on"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut done = 0u64;
                profiler::begin(ProfilerConfig::default());
                for (_, cfg) in &scenarios {
                    let r = engine::run_trace(cfg.clone(), golden_trace());
                    done += r.sessions_done.get();
                }
                let p = profiler::finish();
                black_box((done, p.events))
            })
        },
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_queue_view,
    bench_window_maintenance,
    bench_scope_guard,
    bench_self_profiler_overhead
);
criterion_main!(benches);
