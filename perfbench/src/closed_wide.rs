//! `closed-wide`: Algorithm 2's GREEDY user picking at large U.
//!
//! 10,000 tenants × 20 arms from `SynConfig::paper(0.5, 1.0)` with unit
//! costs, cost-oblivious GREEDY max-UCB-gap picking on an `ExecEngine` with
//! one device (digest-identical to the serial simulator), `tick` called
//! back to back. A write-ahead log runs throughout. After the timed
//! decisions a checkpoint is taken, a few more (untimed) decisions run,
//! the engine "crashes", and `easeml_exec::recover_engine` rebuilds it from
//! an untouched copy of the checkpoint and log, digest-checked against the
//! live engine. The checkpoint sits outside the timed calls because its
//! fsyncs slowed the next few ticks threefold — disk timing, not
//! scheduling; the service workload measures checkpoints in the loop.

use crate::{
    busy_share, check_exec_trace, copy_dir, instance_seed, ms_since, open_wal, Args, Attribution,
    Checks, DecisionClock, Layers, Outcome, Scratch, SessionFigures, Tracer, WalStats,
};
use easeml::prelude::*;
use easeml_data::Dataset;
use easeml_exec::{recover_engine, ExecCheckpoint, ExecEngine, Fleet};
use easeml_gp::ArmPrior;
use easeml_obs::RecorderHandle;
use easeml_sched::PickRule;
use std::path::Path;
use std::time::Instant;

/// Run sizes.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Tenants U.
    pub users: usize,
    /// Arms K per tenant.
    pub arms: usize,
    /// Timed decisions per session.
    pub decisions: usize,
    /// Untimed decisions between the checkpoint and the crash.
    pub delta: usize,
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
        // At least 1,000 decisions per session from 17 s up, so each
        // session's tail is read at p99.
        let decisions = ((60.0 * seconds) as usize).max(40);
        Sizes {
            users: 10_000,
            arms: 20,
            decisions,
            delta: decisions / 20,
            sessions: 4,
            recoveries: 1,
            setups: 2,
        }
    }

    /// Smoke-test sizes.
    pub fn tiny() -> Sizes {
        Sizes {
            users: 40,
            arms: 5,
            decisions: 30,
            delta: 5,
            sessions: 2,
            recoveries: 2,
            setups: 2,
        }
    }
}

/// One line describing the run's configuration.
pub fn describe(sizes: &Sizes) -> String {
    format!(
        "closed-wide: U={} K={} GREEDY max-UCB-gap, 1 device, {} timed decisions per session, \
         then a checkpoint {} decisions before the crash",
        sizes.users, sizes.arms, sizes.decisions, sizes.delta
    )
}

/// Runs the sessions this process measures, each on its own instance
/// with its own set-ups, timed loop and recoveries.
pub fn run(sizes: &Sizes, args: &Args) -> Outcome {
    let scratch = Scratch::new("closed-wide");
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
        ..easeml_data::SynConfig::paper(0.5, 1.0)
    }
    .generate(seed)
    .unit_cost_view();
    let priors = (0..sizes.users)
        .map(|_| ArmPrior::independent(sizes.arms, 0.05))
        .collect();
    (dataset, priors)
}

/// The engine with its warm-up pass done and a fresh WAL attached.
fn build<'a>(
    sizes: &Sizes,
    seed: u64,
    dataset: &'a Dataset,
    priors: &[ArmPrior],
    wal_dir: &Path,
) -> ExecEngine<'a> {
    let cfg = SimConfig {
        budget: (sizes.decisions + sizes.delta) as f64,
        cost_aware: false,
        noise_var: 1e-3,
        delta: 0.1,
        fault: None,
    };
    let mut engine = ExecEngine::new(
        dataset,
        priors,
        SchedulerKind::Greedy(PickRule::MaxUcbGap),
        &cfg,
        Fleet::uniform(1),
        seed,
        RecorderHandle::noop(),
    );
    engine.set_durability(open_wal(wal_dir));
    engine
}

fn session(sizes: &Sizes, seed: u64, traced: bool, scratch: &Scratch, outcome: &mut Outcome) {
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut figures = SessionFigures::default();
    let wal_dir = scratch.path("wal");
    // Repeated builds from scratch, each timed from start to the first
    // decision; the last one runs the session.
    for _ in 1..sizes.setups {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let t = Instant::now();
        let (dataset, priors) = inputs(sizes, seed);
        let engine = build(sizes, seed, &dataset, &priors, &wal_dir);
        figures.setups_s.push(t.elapsed().as_secs_f64());
        drop(engine);
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    let start = Instant::now();
    let (dataset, priors) = inputs(sizes, seed);
    layers.set("data.generate_ms", ms_since(start));
    let t = Instant::now();
    let mut engine = build(sizes, seed, &dataset, &priors, &wal_dir);
    layers.set("exec.warmup_ms", ms_since(t));
    figures.setups_s.push(start.elapsed().as_secs_f64());

    let ck_path = scratch.path("checkpoint.json");
    let tracer = traced.then(Tracer::install);
    let mut clock = DecisionClock::new();
    for i in 0..sizes.decisions {
        // One device, unit costs: every tick dispatches one run and
        // resolves it, which the dispatch count check below confirms.
        let ticked = clock.time(|| (engine.tick(), 1));
        checks.check(ticked, || format!("tick {i} ended the run early"));
    }
    clock.stop();
    let profile = tracer.map(Tracer::finish);
    let t = Instant::now();
    let written = engine.checkpoint_to(&ck_path);
    layers.set("core.checkpoint_write_ms", ms_since(t));
    checks.check(written.is_ok(), || format!("checkpoint: {written:?}"));
    for i in 0..sizes.delta {
        let ticked = engine.tick();
        checks.check(ticked, || {
            format!("tick {i} after the checkpoint ended the run")
        });
    }

    // The crash: the live engine's digest is the reference every recovery
    // must reproduce; the log and checkpoint stay on disk as they were.
    let live_digest = engine.state_digest();
    let wal = WalStats::parse(&engine.durability().stats_json());
    let trace = engine.finish();
    figures.record_clock(&clock);

    checks.check(trace.dispatches == sizes.decisions + sizes.delta, || {
        format!(
            "{} dispatches for {} decisions",
            trace.dispatches,
            sizes.decisions + sizes.delta
        )
    });
    let mu_stars = (0..sizes.users).map(|u| dataset.best_quality(u)).collect();
    figures.regret = check_exec_trace(&trace, mu_stars, &mut checks);

    let recoveries = if traced { 1 } else { sizes.recoveries };
    for r in 0..recoveries {
        let copy = scratch.path(&format!("recover-{r}"));
        copy_dir(&wal_dir, &copy);
        let t = Instant::now();
        let recovered = std::fs::read_to_string(&ck_path)
            .map_err(|e| e.to_string())
            .and_then(|text| ExecCheckpoint::from_json(&text))
            .and_then(|ck| recover_engine(&dataset, &priors, &ck, &copy));
        let ms = ms_since(t);
        match recovered {
            Ok((engine, report)) => {
                checks.check(engine.state_digest() == live_digest, || {
                    format!(
                        "recovered digest {} != live {live_digest}",
                        engine.state_digest()
                    )
                });
                layers.set("core.replayed_rounds", report.replayed_rounds as f64);
            }
            Err(e) => checks.check(false, || format!("recover_engine: {e}")),
        }
        figures.recoveries_ms.push(ms);
    }

    if let Some(profile) = profile {
        let attribution = Attribution::new(&profile, clock.decision_ms(), clock.decisions());
        attribution.layer_rows(&mut layers);
        outcome.notes.push(attribution.table());
        let decisions = clock.decisions().max(1) as f64;
        layers.set("wal.appends_per_decision", wal.appends / decisions);
        layers.set("wal.bytes_per_decision", wal.bytes / decisions);
        layers.set("wal.fsyncs", wal.fsyncs);
        layers.set("exec.device_utilization", busy_share(&trace));
        layers.set(
            "exec.queue_delay_p50_sim",
            trace.queueing_delay.quantile(0.5).unwrap_or(0.0),
        );
        recovery_layers(&dataset, &priors, &ck_path, &wal_dir, scratch, &mut layers);
    }
    outcome.push_session(figures);
    outcome.checks.merge(checks);
    outcome.layers = layers;
}

/// Splits one recovery into its layers by timing each public step on its
/// own: the JSON parse of the checkpoint, the engine restore, the log read,
/// and the digest-verified replay (the rest of `recover_engine`).
fn recovery_layers(
    dataset: &Dataset,
    priors: &[ArmPrior],
    ck_path: &Path,
    wal_dir: &Path,
    scratch: &Scratch,
    layers: &mut Layers,
) {
    let text = std::fs::read_to_string(ck_path).expect("read the checkpoint back");
    layers.set("core.checkpoint_bytes", text.len() as f64);
    let t = Instant::now();
    let parsed = easeml_obs::json::parse(&text);
    layers.set("obs.json_parse_ms", ms_since(t));
    drop(parsed);
    let ck = ExecCheckpoint::from_json(&text).expect("checkpoint parses");
    let t = Instant::now();
    let restored = ExecEngine::restore(dataset, priors, &ck);
    let restore_ms = ms_since(t);
    drop(restored);
    let copy = scratch.path("recover-layers");
    copy_dir(wal_dir, &copy);
    let t = Instant::now();
    let log = easeml_wal::read_log(&copy);
    let read_log_ms = ms_since(t);
    drop(log);
    let t = Instant::now();
    let recovered = recover_engine(dataset, priors, &ck, &copy);
    let recover_ms = ms_since(t);
    drop(recovered);
    layers.set("core.restore_ms", restore_ms);
    layers.set("wal.read_log_ms", read_log_ms);
    layers.set(
        "core.replay_ms",
        (recover_ms - restore_ms - read_log_ms).max(0.0),
    );
}
