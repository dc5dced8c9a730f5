//! Guards the "zero-cost when disabled" claim of `easeml-obs`.
//!
//! Four variants of the same full HYBRID simulation (10 users x 20 models,
//! 50% budget, fixed seed):
//!
//! * `sim/noop_recorder_overhead` — plain [`simulate`], i.e. the default
//!   disabled handle. Compare against `sched/greedy_full_run_10x20_50pct`
//!   from `fig00_micro` for the pre-instrumentation baseline shape;
//! * `sim/noop_handle_plumbed` — [`simulate_with_recorder`] with an
//!   explicit noop handle, checking the plumbing itself costs nothing;
//! * `sim/inmemory_recorder` — a fresh [`InMemoryRecorder`] per iteration,
//!   the worst-case fully-recording path;
//! * `sim/tee_file_sink` — the live-telemetry stack: a [`TeeRecorder`]
//!   fanning out to the in-memory recorder *and* a buffered
//!   [`JsonlFileSink`], bounding the cost of streaming the trace to disk.
//!
//! The first two must be statistically indistinguishable; the last two
//! bound the price of turning recording on.

use criterion::{criterion_group, criterion_main, Criterion};
use easeml::prelude::*;
use easeml_data::{Dataset, SynConfig};
use easeml_gp::ArmPrior;
use easeml_obs::{InMemoryRecorder, JsonlFileSink, RecorderHandle, StreamingSink, TeeRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

fn workload() -> (Dataset, Vec<ArmPrior>, SimConfig) {
    let dataset = SynConfig {
        num_users: 10,
        num_models: 20,
        ..SynConfig::paper(0.5, 1.0)
    }
    .generate(1)
    .unit_cost_view();
    let priors: Vec<ArmPrior> = (0..10).map(|_| ArmPrior::independent(20, 0.05)).collect();
    let cfg = SimConfig {
        budget: 100.0,
        cost_aware: false,
        noise_var: 1e-3,
        delta: 0.1,
        fault: None,
    };
    (dataset, priors, cfg)
}

fn bench_overhead(c: &mut Criterion) {
    let (dataset, priors, cfg) = workload();

    c.bench_function("sim/noop_recorder_overhead", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            simulate(
                black_box(&dataset),
                black_box(&priors),
                SchedulerKind::EaseMl,
                &cfg,
                &mut rng,
            )
        })
    });

    c.bench_function("sim/noop_handle_plumbed", |b| {
        let handle = RecorderHandle::noop();
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            simulate_with_recorder(
                black_box(&dataset),
                black_box(&priors),
                SchedulerKind::EaseMl,
                &cfg,
                &mut rng,
                &handle,
            )
        })
    });

    c.bench_function("sim/inmemory_recorder", |b| {
        b.iter(|| {
            let rec = Arc::new(InMemoryRecorder::new());
            let handle = RecorderHandle::new(rec.clone());
            let mut rng = StdRng::seed_from_u64(7);
            let trace = simulate_with_recorder(
                black_box(&dataset),
                black_box(&priors),
                SchedulerKind::EaseMl,
                &cfg,
                &mut rng,
                &handle,
            );
            black_box(rec.num_events());
            trace
        })
    });

    c.bench_function("sim/tee_file_sink", |b| {
        let path =
            std::env::temp_dir().join(format!("easeml-obs-overhead-{}.jsonl", std::process::id()));
        b.iter(|| {
            let rec = Arc::new(InMemoryRecorder::new());
            let sink = Arc::new(JsonlFileSink::create(&path).expect("temp trace file"));
            let tee = Arc::new(
                TeeRecorder::new(rec.clone()).with_sink(sink.clone() as Arc<dyn StreamingSink>),
            );
            let handle = RecorderHandle::new(tee.clone());
            let mut rng = StdRng::seed_from_u64(7);
            let trace = simulate_with_recorder(
                black_box(&dataset),
                black_box(&priors),
                SchedulerKind::EaseMl,
                &cfg,
                &mut rng,
                &handle,
            );
            tee.flush();
            black_box(rec.num_events());
            trace
        });
        let _ = std::fs::remove_file(&path);
    });
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
