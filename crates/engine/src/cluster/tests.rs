//! Decode runs against the per-token loop they replace.
//!
//! With [`RUN_CAP`] at 1 every decode run covers one iteration: one tick
//! per token, which is the per-token loop. Uncapped runs must reproduce
//! it exactly — the same report JSON and the same engine and store event
//! streams, instance by instance — over random configs and over the
//! directed cases where a run is cut or drained.

use models::ModelSpec;
use proptest::prelude::*;
use sim::{profiler, Dur, FaultPlan, ProfilerConfig, RetryPolicy, Time};
use store::{KeyingMode, StoreEvent};
use workload::{
    Generator, PrefixProfile, PrefixScenario, SessionSpec, ShareGptProfile, Trace, TurnSpec,
};

use super::{ClusterConfig, ClusterSim, RUN_CAP};
use crate::events::{EngineEvent, EngineObserver};
use crate::router::RouterKind;
use crate::slo::{AutoscalePolicy, SloPolicy};
use crate::{EngineConfig, Mode};

/// One observed event and the instance it was reported on.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Engine(u32, EngineEvent),
    Store(u32, StoreEvent),
}

/// Records the engine and store streams in their one commit order.
#[derive(Default)]
struct Streams(Vec<Seen>);

impl EngineObserver for Streams {
    fn on_event(&mut self, ev: EngineEvent) {
        panic!("the cluster reported an unattributed event: {ev:?}");
    }

    fn wants_store_events(&self) -> bool {
        true
    }

    fn on_instance_event(&mut self, instance: u32, ev: EngineEvent) {
        self.0.push(Seen::Engine(instance, ev));
    }

    fn on_instance_store_event(&mut self, instance: u32, ev: StoreEvent) {
        self.0.push(Seen::Store(instance, ev));
    }
}

/// Runs `cfg` over `trace` with decode runs capped at `cap` iterations;
/// returns the report JSON and the streams.
fn run(cfg: &ClusterConfig, trace: &Trace, cap: u64) -> (String, Vec<Seen>) {
    RUN_CAP.with(|c| c.set(cap));
    let mut world = ClusterSim::with_observer(cfg.clone(), trace.clone(), Streams::default());
    world.drive();
    RUN_CAP.with(|c| c.set(u64::MAX));
    let (report, streams) = world.finish();
    let json = serde_json::to_string(&report).expect("reports serialize");
    (json, streams.0)
}

/// Asserts that decode runs reproduce the per-token loop on `trace`;
/// returns the streams.
fn assert_matches_per_token(cfg: &ClusterConfig, trace: &Trace) -> Vec<Seen> {
    let (want_report, want) = run(cfg, trace, 1);
    let (got_report, got) = run(cfg, trace, u64::MAX);
    if let Some(i) = got.iter().zip(&want).position(|(a, b)| a != b) {
        panic!(
            "event {i} differs: decode runs {:?}, per-token {:?}",
            got[i], want[i]
        );
    }
    assert_eq!(got.len(), want.len(), "the event streams differ in length");
    assert_eq!(got_report, want_report, "the report differs");
    got
}

fn turn(user: u32, resp: u32, think_secs: f64) -> TurnSpec {
    TurnSpec {
        user_tokens: user,
        resp_tokens: resp,
        think: Dur::from_secs_f64(think_secs),
        ttft_deadline: None,
    }
}

fn session(id: u64, arrival: Time, turns: Vec<TurnSpec>) -> SessionSpec {
    SessionSpec {
        id,
        arrival,
        turns,
        content: None,
    }
}

/// When the `nth` (0-based) engine event of `session` matching `pick`
/// happened.
fn nth_at(seen: &[Seen], session: u64, nth: usize, pick: fn(&EngineEvent) -> bool) -> Time {
    seen.iter()
        .filter_map(|s| match s {
            Seen::Engine(_, ev) if ev.session() == Some(session) && pick(ev) => Some(ev.at()),
            _ => None,
        })
        .nth(nth)
        .unwrap_or_else(|| panic!("session {session} has no event #{nth} of that kind"))
}

fn prefill_done(ev: &EngineEvent) -> bool {
    matches!(ev, EngineEvent::PrefillDone { .. })
}

fn admitted(ev: &EngineEvent) -> bool {
    matches!(ev, EngineEvent::Admitted { .. })
}

fn retired(ev: &EngineEvent) -> bool {
    matches!(ev, EngineEvent::Retired { .. })
}

fn arrived(ev: &EngineEvent) -> bool {
    matches!(ev, EngineEvent::TurnArrived { .. })
}

/// The iteration ends of a job decoding alone from `start` at context
/// `ctx`, as the per-token loop times them.
fn lone_ends(cfg: &EngineConfig, start: Time, ctx: u64, iters: u64) -> Vec<Time> {
    let mut at = start;
    (0..iters)
        .map(|i| {
            at += cfg
                .cost
                .decode_iter_time(&cfg.model, &cfg.cluster, 1, ctx + i);
            at
        })
        .collect()
}

fn midpoint(a: Time, b: Time) -> Time {
    Time::from_nanos((a.as_nanos() + b.as_nanos()) / 2)
}

fn engine(mode: Mode) -> EngineConfig {
    EngineConfig::paper(mode, ModelSpec::llama2_13b())
}

/// A job queued mid-run is admitted at the boundary the per-token loop
/// would admit it at: the end of the iteration it arrived in, or the
/// boundary it arrived exactly on.
#[test]
fn arrivals_mid_iteration_and_on_a_later_boundary_cut_the_run() {
    for mode in [Mode::CachedAttention, Mode::Recompute] {
        let cfg = ClusterConfig::single(engine(mode));
        let a = session(1, Time::ZERO, vec![turn(200, 64, 1.0)]);
        let (_, alone) = run(&cfg, &Trace::new(vec![a.clone()]), u64::MAX);
        let ends = lone_ends(&cfg.engine, nth_at(&alone, 1, 0, prefill_done), 200, 64);
        for (arrival, admission) in [
            (midpoint(ends[9], ends[10]), ends[10]),
            (ends[20], ends[20]),
        ] {
            let b = session(2, arrival, vec![turn(100, 8, 1.0)]);
            let seen = assert_matches_per_token(&cfg, &Trace::new(vec![a.clone(), b]));
            assert_eq!(nth_at(&seen, 2, 0, admitted), admission, "{mode:?}");
        }
    }
}

/// A zero think time queues the next turn at the instant its previous
/// turn retired, which is where the batch's next run starts; the per-token
/// loop admits it one iteration later, not at the start instant.
#[test]
fn an_arrival_at_a_runs_start_waits_for_its_first_boundary() {
    for mode in [Mode::CachedAttention, Mode::Recompute] {
        let cfg = ClusterConfig::single(engine(mode));
        let a = session(1, Time::ZERO, vec![turn(100, 8, 0.0), turn(50, 4, 0.0)]);
        let b = session(2, Time::ZERO, vec![turn(120, 64, 0.0)]);
        let seen = assert_matches_per_token(&cfg, &Trace::new(vec![a, b]));
        let retire = nth_at(&seen, 1, 0, retired);
        assert_eq!(nth_at(&seen, 1, 1, arrived), retire);
        assert!(nth_at(&seen, 1, 1, admitted) > retire, "{mode:?}");
        assert!(nth_at(&seen, 2, 0, retired) > retire, "b decoded past it");
    }
}

/// The autoscaler retires an instance while its job is mid-run; the
/// iterations it began are recorded and the job is re-routed.
#[test]
fn a_scale_down_mid_run_drains_the_batch() {
    let auto = AutoscalePolicy {
        cooldown: Dur::from_secs_f64(2.0),
        ..AutoscalePolicy::default().with_bounds(1, 2)
    };
    let slo = SloPolicy::new(Dur::from_secs_f64(5.0))
        .with_tick(Dur::from_secs_f64(1.0))
        .with_autoscale(auto);
    let cfg =
        ClusterConfig::new(engine(Mode::Recompute), 2, RouterKind::SessionAffinity).with_slo(slo);
    let trace = Trace::new(vec![
        session(1, Time::ZERO, vec![turn(100, 16, 1.0)]),
        session(2, Time::ZERO, vec![turn(300, 2000, 1.0)]),
    ]);
    let seen = assert_matches_per_token(&cfg, &trace);
    let down = seen
        .iter()
        .find_map(|s| match s {
            Seen::Engine(1, EngineEvent::ScaleDown { at, .. }) => Some(*at),
            _ => None,
        })
        .expect("instance 1 was scaled down");
    assert!(nth_at(&seen, 2, 0, prefill_done) < down);
    assert!(seen.iter().any(|s| matches!(
        s,
        Seen::Engine(0, EngineEvent::TurnRerouted { session: 2, from: 1, to: 0, at }) if *at == down
    )));
}

/// A chunked prefill lets one decode iteration through between chunks;
/// when that iteration finishes a job, the job retires mid-prefill.
#[test]
fn a_piggybacked_iteration_can_finish_a_job() {
    let mut eng = engine(Mode::Recompute);
    eng.chunked_prefill_tokens = Some(64);
    let cfg = ClusterConfig::single(eng);
    let a = session(1, Time::ZERO, vec![turn(200, 40, 1.0)]);
    let (_, alone) = run(&cfg, &Trace::new(vec![a.clone()]), u64::MAX);
    let ends = lone_ends(&cfg.engine, nth_at(&alone, 1, 0, prefill_done), 200, 40);
    // Arrive during iteration 38: admitted with one token left.
    let b = session(2, midpoint(ends[37], ends[38]), vec![turn(500, 8, 1.0)]);
    let seen = assert_matches_per_token(&cfg, &Trace::new(vec![a, b]));
    let a_done = nth_at(&seen, 1, 0, retired);
    assert!(nth_at(&seen, 2, 0, admitted) < a_done);
    assert!(a_done < nth_at(&seen, 2, 0, prefill_done));
}

/// Identical sessions on two instances decode in lockstep, so their
/// boundaries coincide; zero think times queue each next turn at one.
#[test]
fn coinciding_boundaries_on_two_instances_keep_the_order() {
    let turns = || vec![turn(300, 50, 0.0), turn(100, 30, 0.0), turn(80, 20, 0.0)];
    let trace = Trace::new(vec![
        session(1, Time::ZERO, turns()),
        session(2, Time::ZERO, turns()),
    ]);
    for router in [RouterKind::SessionAffinity, RouterKind::LeastLoaded] {
        for mode in [Mode::CachedAttention, Mode::Recompute] {
            let cfg = ClusterConfig::new(engine(mode), 2, router);
            let seen = assert_matches_per_token(&cfg, &trace);
            assert_eq!(nth_at(&seen, 1, 0, retired), nth_at(&seen, 2, 0, retired));
        }
    }
}

/// The oracle shares the recording code, so check it directly: a crash
/// strictly inside iteration `j` of a job decoding alone on instance 1
/// leaves instance 1 with exactly iterations `0..=j` of decode time.
#[test]
fn a_crash_mid_iteration_records_the_iterations_begun() {
    let eng = engine(Mode::Recompute);
    let trace = Trace::new(vec![
        session(1, Time::ZERO, vec![turn(100, 10, 1.0)]),
        session(2, Time::ZERO, vec![turn(300, 200, 1.0)]),
    ]);
    let cfg = ClusterConfig::new(eng.clone(), 2, RouterKind::SessionAffinity);
    let (_, probe) = run(&cfg, &trace, u64::MAX);
    assert!(matches!(
        probe
            .iter()
            .find(|s| matches!(s, Seen::Engine(_, EngineEvent::Admitted { session: 2, .. }))),
        Some(Seen::Engine(1, _))
    ));
    let ends = lone_ends(&eng, nth_at(&probe, 2, 0, prefill_done), 300, 200);
    let j = 50;
    let crash = midpoint(ends[j - 1], ends[j]);
    let cfg = cfg.with_faults(FaultPlan::new(1).with_crash(1, crash));
    let mut world = ClusterSim::new(cfg, trace);
    world.drive();
    let want = (0..=j as u64).fold(0.0, |sum, i| {
        sum + eng
            .cost
            .decode_iter_time(&eng.model, &eng.cluster, 1, 300 + i)
            .as_secs_f64()
    });
    assert_eq!(world.instances[1].busy.decode_secs, want);
}

/// Runs actually cover many tokens: the same workload dispatches a
/// fraction of the per-token loop's events.
#[test]
fn decode_runs_dispatch_far_fewer_events() {
    let cfg = ClusterConfig::new(engine(Mode::Recompute), 2, RouterKind::SessionAffinity);
    let trace = Generator::new(ShareGptProfile::default(), 3).trace(20);
    let events = |cap| {
        profiler::begin(ProfilerConfig::default());
        run(&cfg, &trace, cap);
        profiler::finish().events
    };
    let (per_token, runs) = (events(1), events(u64::MAX));
    assert!(
        runs * 5 < per_token,
        "{runs} events vs {per_token} per token"
    );
}

/// A fault plan as in the chaos suite: a link slowdown, SSD errors, a
/// pressure spike and, when `crashes`, instance crashes in the first
/// minute.
fn fault_plan(seed: u64, crashes: bool) -> FaultPlan {
    let at = |salt: u64| Time::from_millis(1 + (seed.wrapping_mul(salt) >> 20) % 60_000);
    let mut plan = FaultPlan::new(seed)
        .with_link_slowdown("slow-rd", at(3), at(3) + Dur::from_secs_f64(20.0), 4.0)
        .with_ssd_errors(0.1, 0.1, 0.05)
        .with_retry(RetryPolicy {
            max_retries: 2,
            base_backoff: Dur::from_millis(1),
            multiplier: 2.0,
        })
        .with_dram_pressure(at(5), 0.5);
    if crashes {
        plan = plan.with_crash((seed % 4) as u32, at(7));
        plan = plan.with_crash(((seed >> 8) % 4) as u32, at(11));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over random traces and configs, decode runs reproduce the
    /// per-token loop's report and streams exactly.
    #[test]
    fn decode_runs_reproduce_the_per_token_loop(
        seed in 0u64..u64::MAX,
        n_sessions in 2usize..40,
        n_instances in 1usize..5,
        mode in 0usize..3,
        content_addressed in proptest::bool::ANY,
        chunk in proptest::option::of(64u64..1024),
        batch in 0usize..5,
        think in 0usize..3,
        rate in 0.2f64..3.0,
        least_loaded in proptest::bool::ANY,
        slo in 0usize..3,
        faults in 0usize..3,
    ) {
        let mode = [Mode::CachedAttention, Mode::Recompute, Mode::CoupledOverflow][mode];
        let mut eng = engine(mode);
        eng.store.set_dram_bytes(8_000_000_000);
        eng.store.set_disk_bytes(40_000_000_000);
        eng.chunked_prefill_tokens = chunk;
        eng.max_batch = if batch == 0 { 24 } else { batch };
        let profile = ShareGptProfile::default()
            .with_arrival_rate(rate)
            .with_mean_think_secs([0.0, 2.0, 15.0][think]);
        let trace = if content_addressed {
            eng.store.keying = KeyingMode::ContentAddressed;
            let scenario = PrefixScenario::SharedSystemPrompt { pools: 2, prompt_tokens: 512 };
            PrefixProfile::new(profile, scenario).trace(seed, n_sessions)
        } else {
            Generator::new(profile, seed).trace(n_sessions)
        };
        let router = if least_loaded { RouterKind::LeastLoaded } else { RouterKind::SessionAffinity };
        let mut cfg = ClusterConfig::new(eng, n_instances, router);
        if slo > 0 {
            let mut p = SloPolicy::new(Dur::from_secs_f64(2.0)).with_tick(Dur::from_secs_f64(2.0));
            p.degrade_queue_depth = 2.0;
            if slo == 2 {
                let mut a = AutoscalePolicy::default().with_bounds(1, 4);
                a.up_queue_depth = 2.0;
                a.cooldown = Dur::from_secs_f64(4.0);
                p = p.with_autoscale(a);
            }
            cfg = cfg.with_slo(p);
        }
        if faults > 0 {
            cfg = cfg.with_faults(fault_plan(seed, faults == 2));
        }
        assert_matches_per_token(&cfg, &trace);
    }
}
