//! `service`: the `EaseMl` facade wired the way `examples/live_dashboard.rs`
//! wires it.
//!
//! 200 tenants register from the four multi-model DSL program shapes
//! (image classification, image recovery, time-series classification,
//! tree classification). HYBRID scheduling runs with seeded faults and the
//! default `RetryPolicy`; recording goes through a `TeeRecorder` of an
//! `InMemoryRecorder` and an aggregate `TimeSeriesRecorder`. Writes sit
//! beside reads on the decision path: WAL appends on every round, a
//! `checkpoint_to` every fixed number of rounds, and an inline
//! `render_metrics` scrape every fixed number of rounds. Partway through
//! the session the server crashes; `EaseMl::recover` rebuilds it from
//! untouched copies of the checkpoint and log (digest-checked), and the
//! session resumes on the recovered server with the recorder and a WAL
//! re-attached.

use crate::{
    copy_dir, instance_seed, median, ms_since, open_wal, same_regret, Args, Attribution, Checks,
    DecisionClock, Layers, Outcome, RegretTally, Scratch, SessionFigures, Tracer, WalStats,
};
use easeml::prelude::*;
use easeml::server::{QualityOracle, RoundResult, TrainingOutcome};
use easeml_dsl::ModelId;
use easeml_obs::{
    Event, InMemoryRecorder, RecorderHandle, ScaleConfig, StreamingSink, TeeRecorder,
    TimeSeriesRecorder,
};
use easeml_sched::MultiTenantRegret;
use easeml_wal::splitmix64;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Run sizes.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Registered tenants.
    pub tenants: usize,
    /// Timed rounds per session (warm-up rounds excluded).
    pub rounds: usize,
    /// Timed rounds before the crash.
    pub crash_after: usize,
    /// Rounds between `checkpoint_to` calls.
    pub checkpoint_every: usize,
    /// Rounds between `/metrics` scrapes.
    pub scrape_every: usize,
    /// Sessions per untraced run.
    pub sessions: usize,
    /// Recoveries per crash.
    pub recoveries: usize,
    /// Set-ups per session (the last one runs the session).
    pub setups: usize,
}

impl Sizes {
    /// Sizes for a run measuring about `seconds` on a 2-vCPU machine.
    pub fn for_seconds(seconds: f64) -> Sizes {
        Sizes {
            tenants: 200,
            rounds: ((1_250.0 * seconds) as usize).max(2_000),
            crash_after: 1_300,
            checkpoint_every: 500,
            scrape_every: 250,
            sessions: 4,
            recoveries: 1,
            setups: 9,
        }
    }

    /// Smoke-test sizes.
    pub fn tiny() -> Sizes {
        Sizes {
            tenants: 12,
            rounds: 120,
            crash_after: 70,
            checkpoint_every: 25,
            scrape_every: 20,
            sessions: 2,
            recoveries: 2,
            setups: 2,
        }
    }
}

/// Uniform draw in [0, 1) from a hash of `key`.
fn unit(key: u64) -> f64 {
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// The clean quality a tenant's model reaches: a per-tenant baseline, a
/// model-recency bonus and a per-(tenant, model) offset, all from `seed`.
fn quality(seed: u64, user: usize, model: ModelId) -> TrainingOutcome {
    let info = model.info();
    let base = 0.40 + 0.30 * unit(seed ^ splitmix64(user as u64 + 1));
    let offset = 0.10 * unit(seed ^ splitmix64(((user as u64) << 8) ^ model as u64));
    TrainingOutcome {
        accuracy: (base + offset + 0.01 * (f64::from(info.year) - 2010.0)).min(0.99),
        cost: info.relative_cost,
    }
}

fn oracle(seed: u64) -> QualityOracle {
    Box::new(move |user, model| Ok(quality(seed, user, model)))
}

/// Tenant `i`'s DSL program: one of the four multi-model shapes, with
/// seeded tensor sizes.
fn program(seed: u64, i: usize) -> String {
    let r = splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
    let side = 16 << (r % 4);
    let classes = 2 + (r >> 8) % 30;
    let width = 4 + (r >> 16) % 60;
    match i % 4 {
        0 => format!(
            "{{input: {{[Tensor[{side}, {side}, 3]], []}}, output: {{[Tensor[{classes}]], []}}}}"
        ),
        1 => format!(
            "{{input: {{[Tensor[{side}, {side}, 3]], []}}, \
             output: {{[Tensor[{side}, {side}, 3]], []}}}}"
        ),
        2 => {
            format!("{{input: {{[Tensor[{width}]], [next]}}, output: {{[Tensor[{classes}]], []}}}}")
        }
        _ => format!(
            "{{input: {{[Tensor[{width}]], [left, right]}}, output: {{[Tensor[{classes}]], []}}}}"
        ),
    }
}

/// A `StreamingSink` wrapper timing every fold of the wrapped
/// `TimeSeriesRecorder` (traced runs only).
struct TimedFold {
    inner: Arc<TimeSeriesRecorder>,
    nanos: AtomicU64,
}

impl StreamingSink for TimedFold {
    fn append(&self, seq: u64, event: &Event) {
        let t = Instant::now();
        self.inner.append(seq, event);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The recorder stack one session shares across the crash.
struct Telemetry {
    primary: Arc<InMemoryRecorder>,
    series: Arc<TimeSeriesRecorder>,
    fold: Option<Arc<TimedFold>>,
    handle: RecorderHandle,
}

impl Telemetry {
    fn new(traced: bool) -> Telemetry {
        let primary = Arc::new(InMemoryRecorder::new());
        let series = Arc::new(TimeSeriesRecorder::aggregate(ScaleConfig::default()));
        let fold = traced.then(|| {
            Arc::new(TimedFold {
                inner: series.clone(),
                nanos: AtomicU64::new(0),
            })
        });
        let sink: Arc<dyn StreamingSink> = match &fold {
            Some(fold) => fold.clone(),
            None => series.clone(),
        };
        let tee = Arc::new(TeeRecorder::new(primary.clone()).with_sink(sink));
        Telemetry {
            primary,
            series,
            fold,
            handle: RecorderHandle::new(tee),
        }
    }
}

/// Every completion and failed attempt the live server returned.
#[derive(Default)]
struct Ledger {
    completions: Vec<(usize, f64, f64)>,
    failed_attempts: u64,
}

impl Ledger {
    fn note(&mut self, outcome: &RoundOutcome) {
        match outcome.result {
            RoundResult::Completed(o) => {
                self.completions.push((outcome.user, o.accuracy, o.cost));
                self.failed_attempts += outcome.attempts - 1;
            }
            RoundResult::Censored { .. } => self.failed_attempts += outcome.attempts,
        }
    }
}

/// One line describing the run's configuration.
pub fn describe(sizes: &Sizes) -> String {
    format!(
        "service: {} tenants, HYBRID with faults and retries, {} rounds per session, \
         checkpoint every {}, /metrics every {}, crash after {}",
        sizes.tenants, sizes.rounds, sizes.checkpoint_every, sizes.scrape_every, sizes.crash_after
    )
}

/// Runs the sessions this process measures, each on its own instance
/// with its own set-ups, timed loop, crash and recoveries.
pub fn run(sizes: &Sizes, args: &Args) -> Outcome {
    let scratch = Scratch::new("service");
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

/// A built service: the server after registration and warm-up, its
/// recorder stack and WAL, and the rounds it has returned so far.
struct Built {
    server: EaseMl,
    telemetry: Telemetry,
    ledger: Ledger,
    mu_stars: Vec<f64>,
    checks: Checks,
    layers: Layers,
}

/// Builds the service from scratch: generates the tenants' programs,
/// registers them, attaches the recorder stack and a fresh WAL in
/// `wal_dir`, and runs the warm-up rounds.
fn build(sizes: &Sizes, seed: u64, traced: bool, wal_dir: &Path) -> Built {
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut ledger = Ledger::default();
    let t = Instant::now();
    let programs: Vec<String> = (0..sizes.tenants).map(|i| program(seed, i)).collect();
    layers.set("data.generate_ms", ms_since(t));
    let telemetry = Telemetry::new(traced);
    let mut server = EaseMl::new(oracle(seed), seed);
    server.set_fault_injector(Some(FaultInjector::new(
        FaultConfig::new(seed)
            .with_crash_rate(0.08)
            .with_timeout_rate(0.04)
            .with_stragglers(0.08, 3.0),
    )));
    server.set_recorder(telemetry.handle.clone());
    let t = Instant::now();
    for (i, src) in programs.iter().enumerate() {
        let registered = server.register_user(&format!("tenant-{i}"), src);
        checks.check(registered.is_ok(), || {
            format!("register tenant {i}: {registered:?}")
        });
    }
    layers.set(
        "dsl.register_us",
        ms_since(t) * 1e3 / sizes.tenants.max(1) as f64,
    );
    let mu_stars: Vec<f64> = (0..server.num_users())
        .map(|u| {
            server
                .job(u)
                .candidate_models()
                .iter()
                .map(|&m| quality(seed, u, m).accuracy)
                .fold(0.0, f64::max)
        })
        .collect();
    for (u, &target) in mu_stars.iter().enumerate() {
        telemetry.series.set_target(u, target);
    }
    let _ = std::fs::remove_dir_all(wal_dir);
    server.set_durability(open_wal(wal_dir));
    // Warm-up: Algorithm 2 serves every tenant once before picking.
    let t = Instant::now();
    for _ in 0..server.num_users() {
        let round = server.try_run_round();
        checks.check(round.is_ok(), || format!("warm-up round: {round:?}"));
        if let Ok(round) = round {
            ledger.note(&round);
        }
    }
    layers.set("exec.warmup_ms", ms_since(t));
    Built {
        server,
        telemetry,
        ledger,
        mu_stars,
        checks,
        layers,
    }
}

fn session(sizes: &Sizes, seed: u64, traced: bool, scratch: &Scratch, outcome: &mut Outcome) {
    let mut figures = SessionFigures::default();
    let wal_dir = scratch.path("wal");
    // Repeated builds from scratch, each timed from start to the first
    // decision; the last one runs the session.
    for _ in 1..sizes.setups {
        let t = Instant::now();
        let built = build(sizes, seed, traced, &wal_dir);
        figures.setups_s.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    let t = Instant::now();
    let Built {
        mut server,
        telemetry,
        mut ledger,
        mu_stars,
        mut checks,
        mut layers,
    } = build(sizes, seed, traced, &wal_dir);
    figures.setups_s.push(t.elapsed().as_secs_f64());

    let ck_path = scratch.path("checkpoint.json");
    let mut checkpoint_ms = Vec::new();
    let mut snapshot_ms = Vec::new();
    let mut render_ms = Vec::new();
    let mut body_bytes = 0usize;
    let mut wal = WalStats::default();
    let mut recovery_text = String::new();
    let mut recovery_wal = std::path::PathBuf::new();
    let mut recoveries_ms = Vec::new();
    let tracer = traced.then(Tracer::install);
    let mut clock = DecisionClock::new();
    for i in 1..=sizes.rounds {
        let round = clock.time(|| {
            let round = server.try_run_round();
            let runs = round.as_ref().map_or(0, |r| r.attempts);
            (round, runs)
        });
        checks.check(round.is_ok(), || format!("round {i}: {round:?}"));
        if let Ok(round) = &round {
            ledger.note(round);
        }
        if i % sizes.checkpoint_every == 0 {
            let t = Instant::now();
            let written = server.checkpoint_to(&ck_path);
            checkpoint_ms.push(ms_since(t));
            checks.check(written.is_ok(), || format!("checkpoint: {written:?}"));
        }
        if i % sizes.scrape_every == 0 {
            let t = Instant::now();
            let snapshot = telemetry.series.snapshot();
            snapshot_ms.push(ms_since(t));
            let t = Instant::now();
            let body = easeml_obs_http::render_metrics(&telemetry.primary, Some(&snapshot));
            render_ms.push(ms_since(t));
            body_bytes = body.len();
            checks.check(body.contains("easeml_"), || {
                "empty /metrics body".to_string()
            });
        }
        if i == sizes.crash_after {
            // The crash: the live digest is the reference; the checkpoint
            // and log stay on disk exactly as the dead server left them.
            let live_digest = server.state_digest();
            wal = WalStats::parse(&server.durability().stats_json());
            drop(server);
            server = clock.exclude(|| {
                // Recovery is reported on its own; keep its replayed
                // rounds out of the traced session's profile.
                let profiler = easeml_obs::set_global_profiler(None);
                let mut last = None;
                for r in 0..if traced { 1 } else { sizes.recoveries } {
                    let dir = scratch.path(&format!("recover-{r}"));
                    copy_dir(&wal_dir, &dir.join("wal"));
                    std::fs::copy(&ck_path, dir.join("checkpoint.json"))
                        .expect("copy the checkpoint");
                    let t = Instant::now();
                    let recovered = EaseMl::recover(
                        &dir.join("checkpoint.json"),
                        &dir.join("wal"),
                        oracle(seed),
                    );
                    recoveries_ms.push(ms_since(t));
                    match recovered {
                        Ok((recovered, report)) => {
                            checks.check(recovered.state_digest() == live_digest, || {
                                format!(
                                    "recovered digest {} != live {live_digest}",
                                    recovered.state_digest()
                                )
                            });
                            layers.set("core.replayed_rounds", report.replayed_rounds as f64);
                            last = Some(recovered);
                            recovery_wal = dir.join("wal");
                        }
                        Err(e) => checks.check(false, || format!("EaseMl::recover: {e}")),
                    }
                }
                let mut server = last.expect("a recovery succeeded to resume from");
                server.set_recorder(telemetry.handle.clone());
                server.set_durability(open_wal(&recovery_wal));
                if traced {
                    recovery_text = std::fs::read_to_string(&ck_path).unwrap_or_default();
                }
                easeml_obs::set_global_profiler(profiler);
                server
            });
        }
    }
    clock.stop();
    let profile = tracer.map(Tracer::finish);
    wal = wal.add(WalStats::parse(&server.durability().stats_json()));

    figures.record_clock(&clock);
    let recover_ms = median(&recoveries_ms);
    figures.recoveries_ms = recoveries_ms;

    let mut tally = RegretTally::new(&mu_stars);
    let mut library = MultiTenantRegret::new(mu_stars);
    for &(user, quality, cost) in &ledger.completions {
        library.record_round(user, quality, cost);
    }
    for event in telemetry.primary.events() {
        if let Event::TrainingCompleted {
            user,
            quality,
            cost,
            ..
        } = event
        {
            tally.complete(user, quality, cost);
        }
    }
    checks.check(same_regret(library.cumulative(), tally.total()), || {
        format!(
            "regret {} from the returned rounds != {} from the recorded events",
            library.cumulative(),
            tally.total()
        )
    });
    let snapshot = telemetry.series.snapshot();
    checks.check(
        snapshot.rounds == ledger.completions.len() as u64
            && snapshot.failed_rounds == ledger.failed_attempts,
        || {
            format!(
                "time-series tally {} completed / {} failed != returned {} / {}",
                snapshot.rounds,
                snapshot.failed_rounds,
                ledger.completions.len(),
                ledger.failed_attempts
            )
        },
    );
    figures.regret = library.cumulative();

    if let Some(profile) = profile {
        let decisions = clock.decisions().max(1) as f64;
        let attribution = Attribution::new(&profile, clock.decision_ms(), clock.decisions());
        attribution.layer_rows(&mut layers);
        outcome.notes.push(attribution.table());
        layers.set("wal.appends_per_decision", wal.appends / decisions);
        layers.set("wal.bytes_per_decision", wal.bytes / decisions);
        layers.set("wal.fsyncs", wal.fsyncs);
        layers.set("core.checkpoint_write_ms", median(&checkpoint_ms));
        layers.set(
            "core.checkpoint_bytes",
            std::fs::metadata(&ck_path).map_or(0.0, |m| m.len() as f64),
        );
        if let Some(fold) = &telemetry.fold {
            let nanos = fold.nanos.load(Ordering::Relaxed) as f64;
            layers.set("obs.fold_us", nanos / 1e3 / decisions);
        }
        layers.set(
            "obs.events_per_decision",
            telemetry.primary.num_events() as f64 / decisions,
        );
        layers.set("obs.snapshot_ms", median(&snapshot_ms));
        layers.set("obs-http.render_ms", median(&render_ms));
        layers.set("obs-http.body_bytes", body_bytes as f64);
        recovery_layers(
            seed,
            &recovery_text,
            &wal_dir,
            recover_ms,
            scratch,
            &mut layers,
        );
    }
    outcome.push_session(figures);
    outcome.checks.merge(checks);
    outcome.layers = layers;
}

/// Splits the recovery into its layers by timing each public step on its
/// own: the JSON parse of the checkpoint, `EaseMl::restore`, the log read;
/// the replay is the rest of the measured `EaseMl::recover`.
fn recovery_layers(
    seed: u64,
    text: &str,
    wal_dir: &Path,
    recover_ms: f64,
    scratch: &Scratch,
    layers: &mut Layers,
) {
    let t = Instant::now();
    let parsed = easeml_obs::json::parse(text);
    let parse_ms = ms_since(t);
    drop(parsed);
    let t = Instant::now();
    let restored = EaseMl::restore(text, oracle(seed));
    let restore_ms = ms_since(t);
    drop(restored);
    let copy = scratch.path("recover-layers");
    copy_dir(wal_dir, &copy);
    let t = Instant::now();
    let log = easeml_wal::read_log(&copy);
    let read_log_ms = ms_since(t);
    drop(log);
    layers.set("obs.json_parse_ms", parse_ms);
    layers.set("core.restore_ms", restore_ms);
    layers.set("wal.read_log_ms", read_log_ms);
    layers.set(
        "core.replay_ms",
        (recover_ms - parse_ms - restore_ms - read_log_ms).max(0.0),
    );
}
