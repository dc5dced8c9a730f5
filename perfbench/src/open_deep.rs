//! `open-deep`: GP-BUCB over many arms with delayed multi-device feedback.
//!
//! 16 tenants × 100 arms, HYBRID scheduling on a 4-device fleet, per-tenant
//! Poisson arrivals with tenant churn (`WorkloadScript::synthetic` plus
//! `ChurnConfig`) driven by `ReplayDriver::step` — open-loop in simulated
//! time only; in host time one caller waits on every step. Seeded crash,
//! timeout and straggler faults run the censoring path. No WAL is attached:
//! recovery decodes a `ReplayCheckpoint` taken at 97.5% of the horizon,
//! restores the driver, and re-drives it to the crash point (the end of the
//! script), digest-checked against the live run.

use crate::{
    busy_share, check_exec_trace, instance_seed, ms_since, Args, Attribution, Checks,
    DecisionClock, Layers, Outcome, Scratch, SessionFigures, Tracer,
};
use easeml::prelude::*;
use easeml_data::Dataset;
use easeml_exec::{ExecEngine, Fleet};
use easeml_gp::ArmPrior;
use easeml_obs::RecorderHandle;
use easeml_workload::{ArrivalKind, ChurnConfig, ReplayCheckpoint, ReplayDriver, WorkloadScript};
use std::time::Instant;

/// Run sizes.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Tenants U.
    pub users: usize,
    /// Arms K per tenant.
    pub arms: usize,
    /// Devices in the fleet.
    pub devices: usize,
    /// Per-tenant Poisson arrival rate (jobs per simulated time unit).
    pub rate: f64,
    /// Simulated horizon of the arrival script.
    pub horizon: f64,
    /// Mean active period of a tenant (simulated time).
    pub mean_lifetime: f64,
    /// Mean absence of a tenant between active periods.
    pub mean_absence: f64,
    /// Sessions per untraced run.
    pub sessions: usize,
    /// Recoveries per session.
    pub recoveries: usize,
    /// Set-ups per session (the last one runs the session).
    pub setups: usize,
}

impl Sizes {
    /// Sizes for a run measuring about `seconds` on a 2-vCPU machine.
    pub fn for_seconds(seconds: f64) -> Sizes {
        Sizes {
            users: 16,
            arms: 100,
            devices: 4,
            rate: 0.5,
            horizon: (12.75 * seconds).max(20.0),
            mean_lifetime: 10.0,
            mean_absence: 5.0,
            sessions: 11,
            recoveries: 1,
            setups: 5,
        }
    }

    /// Smoke-test sizes.
    pub fn tiny() -> Sizes {
        Sizes {
            users: 6,
            arms: 12,
            devices: 3,
            rate: 0.5,
            horizon: 30.0,
            mean_lifetime: 5.0,
            mean_absence: 2.5,
            sessions: 2,
            recoveries: 2,
            setups: 2,
        }
    }

    fn script(&self, seed: u64) -> WorkloadScript {
        let churn = ChurnConfig::new(self.mean_lifetime, self.mean_absence);
        WorkloadScript::synthetic(
            self.users,
            ArrivalKind::Poisson { rate: self.rate },
            self.horizon,
            Some(&churn),
            seed,
        )
    }

    fn sim_config(&self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::new(1e12);
        cfg.fault = Some(
            FaultConfig::new(seed)
                .with_crash_rate(0.08)
                .with_timeout_rate(0.04)
                .with_stragglers(0.08, 3.0),
        );
        cfg
    }
}

/// One line describing the run's configuration.
pub fn describe(sizes: &Sizes) -> String {
    format!(
        "open-deep: U={} K={} HYBRID + GP-BUCB on {} devices, Poisson rate {} per tenant \
         over horizon {}, churn {}/{}",
        sizes.users,
        sizes.arms,
        sizes.devices,
        sizes.rate,
        sizes.horizon,
        sizes.mean_lifetime,
        sizes.mean_absence
    )
}

/// Runs the sessions this process measures, each on its own instance
/// with its own set-ups, timed loop and recoveries.
pub fn run(sizes: &Sizes, args: &Args) -> Outcome {
    let scratch = Scratch::new("open-deep");
    let mut outcome = Outcome::default();
    for k in args.session_range(sizes.sessions) {
        session(
            sizes,
            instance_seed(args.seed, k),
            args.trace,
            &scratch,
            &mut outcome,
        );
    }
    outcome.notes.push(describe(sizes));
    outcome
}

/// The seeded inputs: the dataset and one prior per tenant.
fn inputs(sizes: &Sizes, seed: u64) -> (Dataset, Vec<ArmPrior>) {
    let dataset = easeml_data::SynConfig {
        num_users: sizes.users,
        num_models: sizes.arms,
        ..easeml_data::SynConfig::paper(0.5, 0.5)
    }
    .generate(seed);
    let priors = (0..sizes.users)
        .map(|_| ArmPrior::independent(sizes.arms, 0.05))
        .collect();
    (dataset, priors)
}

/// The engine, warmed up, inside a replay driver over `script`.
fn build<'a>(
    sizes: &Sizes,
    seed: u64,
    dataset: &'a Dataset,
    priors: &[ArmPrior],
    script: WorkloadScript,
) -> ReplayDriver<'a> {
    let engine = ExecEngine::new(
        dataset,
        priors,
        SchedulerKind::Hybrid,
        &sizes.sim_config(seed),
        Fleet::uniform(sizes.devices),
        seed,
        RecorderHandle::noop(),
    );
    ReplayDriver::new(engine, script)
}

fn session(sizes: &Sizes, seed: u64, traced: bool, scratch: &Scratch, outcome: &mut Outcome) {
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut figures = SessionFigures::default();
    // Repeated builds from scratch, each timed from start to the first
    // decision; the last one runs the session.
    for _ in 1..sizes.setups {
        let t = Instant::now();
        let (dataset, priors) = inputs(sizes, seed);
        let driver = build(sizes, seed, &dataset, &priors, sizes.script(seed));
        figures.setups_s.push(t.elapsed().as_secs_f64());
        drop(driver);
    }
    let start = Instant::now();
    let (dataset, priors) = inputs(sizes, seed);
    layers.set("data.generate_ms", ms_since(start));
    let t = Instant::now();
    let script = sizes.script(seed);
    layers.set("workload.script_ms", ms_since(t));
    let t = Instant::now();
    let mut driver = build(sizes, seed, &dataset, &priors, script);
    layers.set("exec.warmup_ms", ms_since(t));
    figures.setups_s.push(start.elapsed().as_secs_f64());

    let ck_path = scratch.path("replay-checkpoint.txt");
    let ck_at = 0.975 * sizes.horizon;
    let mut ck_step = None;
    let tracer = traced.then(Tracer::install);
    let mut clock = DecisionClock::new();
    loop {
        if ck_step.is_none() && driver.engine().now() >= ck_at {
            let t = Instant::now();
            let written = std::fs::write(&ck_path, driver.checkpoint().encode());
            layers.set("core.checkpoint_write_ms", ms_since(t));
            checks.check(written.is_ok(), || format!("checkpoint: {written:?}"));
            ck_step = Some(clock.decisions());
        }
        // A step that returns true resolved exactly one completion, so the
        // runs it dispatched are the in-flight growth plus one.
        let before = driver.engine().in_flight_len();
        let more = clock.time(|| {
            let more = driver.step();
            let after = driver.engine().in_flight_len();
            (
                more,
                (after + usize::from(more)).saturating_sub(before) as u64,
            )
        });
        if !more {
            break;
        }
    }
    clock.stop();
    let profile = tracer.map(Tracer::finish);
    // Every step call returned; the last one reported the script's end.
    checks.passed(clock.decisions() as u64);

    let live_digest = driver.engine().state_digest();
    let live_steps = clock.decisions();
    let trace = driver.run();
    figures.record_clock(&clock);
    checks.check(trace.dispatches as u64 == clock.dispatched(), || {
        format!(
            "{} dispatches in the trace, {} counted per step",
            trace.dispatches,
            clock.dispatched()
        )
    });
    let mu_stars = (0..sizes.users).map(|u| dataset.best_quality(u)).collect();
    figures.regret = check_exec_trace(&trace, mu_stars, &mut checks);

    let ck_step = ck_step.unwrap_or(0);
    let recoveries = if traced { 1 } else { sizes.recoveries };
    for _ in 0..recoveries {
        let t0 = Instant::now();
        let restored = std::fs::read_to_string(&ck_path)
            .map_err(|e| e.to_string())
            .and_then(|text| ReplayCheckpoint::decode(&text))
            .and_then(|ck| ReplayDriver::restore(&dataset, &priors, sizes.script(seed), &ck));
        let restore_ms = ms_since(t0);
        match restored {
            Ok(mut driver) => {
                let t = Instant::now();
                let mut steps = 0;
                while driver.step() {
                    steps += 1;
                }
                layers.set("core.replay_ms", ms_since(t));
                layers.set("core.restore_ms", restore_ms);
                layers.set("core.replayed_rounds", steps as f64);
                let digest = driver.engine().state_digest();
                checks.check(
                    digest == live_digest && ck_step + steps + 1 == live_steps,
                    || {
                        format!(
                            "re-driven digest {digest} after {steps} steps != live {live_digest} \
                         after {} steps",
                            live_steps - ck_step - 1
                        )
                    },
                );
            }
            Err(e) => checks.check(false, || format!("restore: {e}")),
        }
        figures.recoveries_ms.push(ms_since(t0));
    }

    if let Some(profile) = profile {
        let attribution = Attribution::new(&profile, clock.decision_ms(), clock.decisions());
        attribution.layer_rows(&mut layers);
        outcome.notes.push(attribution.table());
        layers.set("exec.device_utilization", busy_share(&trace));
        layers.set(
            "exec.queue_delay_p50_sim",
            trace.queueing_delay.quantile(0.5).unwrap_or(0.0),
        );
        let text = std::fs::read_to_string(&ck_path).expect("read the checkpoint back");
        layers.set("core.checkpoint_bytes", text.len() as f64);
        let engine_json = text.split_once('\n').map_or("", |(_, e)| e);
        let t = Instant::now();
        let parsed = easeml_obs::json::parse(engine_json);
        layers.set("obs.json_parse_ms", ms_since(t));
        checks.check(parsed.is_ok(), || {
            "engine checkpoint is not JSON".to_string()
        });
    }
    outcome.push_session(figures);
    outcome.checks.merge(checks);
    outcome.layers = layers;
}
