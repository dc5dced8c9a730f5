//! Exact, seed-deterministic cost counts of the scheduler's hot paths —
//! the one tier-1 gate for algorithmic cost.
//!
//! Wall-clock timings (the `perfbench` workloads) spread too widely on a
//! shared host to tell a 20% regression from noise. Allocation, append and
//! byte counts of a seeded run do not jitter, so this file pins them
//! exactly, on the three `perfbench` shapes:
//!
//! * **closed-wide** — GREEDY max-UCB-gap on one device at U ∈ {1k, 10k}.
//!   Algorithm 2's user pick scans every tenant, so its allocations grow
//!   linearly in U (527 per pick at 1k, 5,052 at 10k); arm selection, the
//!   posterior update and completion do not depend on U.
//! * **open-deep** — HYBRID with GP-BUCB over 100 arms on four devices,
//!   Poisson arrivals with churn, at two arrival rates eight times apart
//!   with the same jobs per tenant: the cost per completion, posterior
//!   update and arm pick stays bounded in the arrival rate.
//! * **service** — the `EaseMl` facade with a write-ahead log: appends and
//!   bytes per round, and checkpoint bytes after r and 2r rounds at fixed
//!   U (today the checkpoint grows with r: `Cluster::history` keeps every
//!   run).
//!
//! Allocations come from the span profiler's per-node self counts under
//! [`CountingAlloc`]. They are exact in debug and release builds alike
//! while the optimizer elides no allocation pair, so CI runs this file in
//! both. `dispatch`'s own self-allocations are not pinned: lazy
//! initialisation makes them differ between the first engine in the
//! process and later ones.
//!
//! A failing assertion names the count that moved. If the change is
//! intended, update the constant here in the same change and justify the
//! new value in CHANGES.md.

use easeml::prelude::*;
use easeml::server::{EaseMl, QualityOracle, TrainingOutcome};
use easeml_data::SynConfig;
use easeml_exec::{ExecEngine, Fleet};
use easeml_gp::ArmPrior;
use easeml_obs::json::{as_object, get_u64, parse};
use easeml_obs::{set_global_profiler, CallTreeProfile, CountingAlloc, Profiler, RecorderHandle};
use easeml_sched::PickRule;
use easeml_wal::{FsyncPolicy, WalOptions};
use easeml_workload::{ArrivalKind, ChurnConfig, ReplayDriver, WorkloadScript};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// The profiler is process-global and folds spans from every thread, so
/// the tests in this file run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `work` under a fresh global profiler and returns its call tree.
fn profiled<T>(work: impl FnOnce() -> T) -> (T, CallTreeProfile) {
    let profiler = Arc::new(Profiler::new());
    set_global_profiler(Some(profiler.clone()));
    let out = work();
    set_global_profiler(None);
    (out, profiler.snapshot())
}

/// Asserts one pinned count.
fn pin(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what} moved from {pinned} to {got}. If the change is intended, update the \
         constant in tests/cost_model.rs in the same change and justify it in CHANGES.md"
    );
}

/// Asserts the calls and self-allocations of the node at `path`.
fn pin_node(shape: &str, profile: &CallTreeProfile, path: &[&str], calls: u64, allocs: u64) {
    let node = profile
        .find(path)
        .unwrap_or_else(|| panic!("{shape}: no {path:?} node in the profile"));
    pin(&format!("{shape} {path:?} calls"), node.count, calls);
    pin(
        &format!("{shape} {path:?} allocations"),
        node.allocs,
        allocs,
    );
}

/// Decisions each closed-wide run profiles, after construction.
const CLOSED_WIDE_TICKS: u64 = 20;

/// Profiles [`CLOSED_WIDE_TICKS`] ticks of the closed-wide shape: U tenants
/// × 20 arms, unit costs, one device, seed 7.
fn closed_wide(users: usize) -> CallTreeProfile {
    let dataset = SynConfig {
        num_users: users,
        num_models: 20,
        ..SynConfig::paper(0.5, 1.0)
    }
    .generate(7)
    .unit_cost_view();
    let priors: Vec<ArmPrior> = (0..users)
        .map(|_| ArmPrior::independent(20, 0.05))
        .collect();
    let cfg = SimConfig {
        budget: CLOSED_WIDE_TICKS as f64,
        cost_aware: false,
        noise_var: 1e-3,
        delta: 0.1,
        fault: None,
    };
    let mut engine = ExecEngine::new(
        &dataset,
        &priors,
        SchedulerKind::Greedy(PickRule::MaxUcbGap),
        &cfg,
        Fleet::uniform(1),
        7,
        RecorderHandle::noop(),
    );
    profiled(|| {
        for tick in 0..CLOSED_WIDE_TICKS {
            assert!(engine.tick(), "tick {tick} ended the run early");
        }
    })
    .1
}

#[test]
fn closed_wide_user_pick_is_linear_in_tenants_and_the_rest_is_flat() {
    let _serial = serial();
    for (users, pick_user) in [(1_000, 10_540), (10_000, 101_040)] {
        let shape = format!("closed-wide U={users}");
        let profile = closed_wide(users);
        let ticks = CLOSED_WIDE_TICKS;
        pin_node(
            &shape,
            &profile,
            &["dispatch", "pick_user"],
            ticks,
            pick_user,
        );
        pin_node(&shape, &profile, &["dispatch", "pick_arm"], ticks, 602);
        pin_node(&shape, &profile, &["complete"], ticks, 734);
        pin_node(
            &shape,
            &profile,
            &["complete", "posterior_update"],
            ticks,
            546,
        );
    }
}

/// Tenants, arms and mean jobs per tenant of the open-deep shape.
const OPEN_DEEP_USERS: usize = 8;
const OPEN_DEEP_ARMS: usize = 100;
const OPEN_DEEP_JOBS_PER_TENANT: f64 = 10.0;

/// Profiles a whole open-deep replay at per-tenant arrival rate `rate`: the
/// horizon shrinks with the rate, so every rate serves the same jobs.
fn open_deep(rate: f64) -> (usize, CallTreeProfile) {
    let dataset = SynConfig {
        num_users: OPEN_DEEP_USERS,
        num_models: OPEN_DEEP_ARMS,
        ..SynConfig::paper(0.5, 0.5)
    }
    .generate(7);
    let priors: Vec<ArmPrior> = (0..OPEN_DEEP_USERS)
        .map(|_| ArmPrior::independent(OPEN_DEEP_ARMS, 0.05))
        .collect();
    let horizon = OPEN_DEEP_JOBS_PER_TENANT / rate;
    let script = WorkloadScript::synthetic(
        OPEN_DEEP_USERS,
        ArrivalKind::Poisson { rate },
        horizon,
        Some(&ChurnConfig::new(horizon / 4.0, horizon / 8.0)),
        7,
    );
    let engine = ExecEngine::new(
        &dataset,
        &priors,
        SchedulerKind::Hybrid,
        &SimConfig::new(1e12),
        Fleet::uniform(4),
        7,
        RecorderHandle::noop(),
    );
    let (trace, profile) = profiled(|| ReplayDriver::new(engine, script).run());
    (trace.dispatches, profile)
}

#[test]
fn open_deep_cost_per_job_is_bounded_in_the_arrival_rate() {
    let _serial = serial();
    // (rate, jobs, complete, posterior_update, pick_arm allocations).
    let pinned = [
        (0.5, 62, 9_712, 6_660, 6_810),
        (4.0, 62, 10_475, 6_660, 6_792),
    ];
    let mut per_job = Vec::new();
    for (rate, jobs, complete, update, pick_arm) in pinned {
        let shape = format!("open-deep rate={rate}");
        let (dispatches, profile) = open_deep(rate);
        pin(&format!("{shape} dispatches"), dispatches as u64, jobs);
        pin_node(&shape, &profile, &["complete"], jobs, complete);
        pin_node(
            &shape,
            &profile,
            &["complete", "posterior_update"],
            jobs,
            update,
        );
        pin_node(&shape, &profile, &["dispatch", "pick_arm"], jobs, pick_arm);
        per_job.push([complete, update, pick_arm].map(|a| a as f64 / jobs as f64));
    }
    // The claim the pins encode, kept for whoever re-pins them: eight times
    // the arrival rate costs at most a quarter more per job on each path.
    for (slow, fast) in per_job[0].into_iter().zip(per_job[1]) {
        assert!(fast <= 1.25 * slow, "per-job cost {slow} -> {fast}");
    }
}

const VISION_PROG: &str = "{input: {[Tensor[64, 64, 3]], []}, output: {[Tensor[5]], []}}";
const METEO_PROG: &str = "{input: {[Tensor[16]], [next]}, output: {[Tensor[3]], []}}";

fn toy_oracle() -> QualityOracle {
    Box::new(|user, model| {
        let info = model.info();
        let base = if user % 2 == 0 { 0.66 } else { 0.48 };
        Ok(TrainingOutcome {
            accuracy: (base + 0.02 * (info.year as f64 - 2010.0)).min(0.99),
            cost: info.relative_cost,
        })
    })
}

/// `(appends, append_bytes)` from `Durability::stats_json`.
fn wal_counts(server: &EaseMl) -> (u64, u64) {
    let doc = parse(&server.durability().stats_json()).expect("stats are JSON");
    let fields = as_object(&doc, "stats").expect("stats are an object");
    (
        get_u64(fields, "appends").unwrap(),
        get_u64(fields, "append_bytes").unwrap(),
    )
}

#[test]
fn service_wal_cost_per_round_is_flat_and_the_checkpoint_grows_with_rounds() {
    let _serial = serial();
    const ROUNDS: u64 = 50;
    let dir = std::env::temp_dir().join(format!("easeml-cost-model-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut server = EaseMl::new(toy_oracle(), 7);
    for (i, program) in [VISION_PROG, METEO_PROG, VISION_PROG, METEO_PROG]
        .iter()
        .enumerate()
    {
        server
            .register_user(&format!("tenant-{i}"), program)
            .unwrap();
    }
    let options = WalOptions {
        segment_bytes: 1 << 30,
        fsync: FsyncPolicy::Never,
    };
    server.set_durability(Durability::open(&dir, options).unwrap());
    // (rounds run, checkpoint bytes). The checkpoint carries every run the
    // cluster has seen; once it keeps per-tenant aggregates instead, the
    // two sizes are equal.
    for (rounds, checkpoint_bytes) in [(ROUNDS, 7_543), (2 * ROUNDS, 14_584)] {
        while server.rounds_executed() < rounds {
            server.try_run_round().expect("round");
        }
        let (appends, bytes) = wal_counts(&server);
        pin(
            &format!("service WAL appends after {rounds} rounds"),
            appends,
            3 * rounds,
        );
        pin(
            &format!("service WAL bytes after {rounds} rounds"),
            bytes,
            140 * rounds,
        );
        let len = server.checkpoint().len() as u64;
        pin(
            &format!("service checkpoint bytes after {rounds} rounds"),
            len,
            checkpoint_bytes,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
