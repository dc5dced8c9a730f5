//! Multi-device invariants of the execution engine (`easeml-exec`), the
//! workspace's one multi-device simulator (§4.5 / §5.3.2).

use easeml::prelude::*;
use easeml_data::{Dataset, SynConfig};
use easeml_exec::simulate_multi_device;
use easeml_gp::ArmPrior;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(users: usize, models: usize, seed: u64) -> Dataset {
    SynConfig {
        num_users: users,
        num_models: models,
        ..SynConfig::paper(0.5, 0.5)
    }
    .generate(seed)
}

fn priors(users: usize, models: usize) -> Vec<ArmPrior> {
    (0..users)
        .map(|_| ArmPrior::independent(models, 0.05))
        .collect()
}

proptest! {
    #[test]
    fn multi_device_simulation_invariants(
        (devices, seed) in (1usize..5, 0u64..100)
    ) {
        let d = dataset(5, 3, seed);
        let p = priors(5, 3);
        let cfg = SimConfig::new(6.0);
        let t = simulate_multi_device(&d, &p, SchedulerKind::RoundRobin, &cfg, devices, seed);
        // Completions are time-ordered with non-increasing losses.
        for w in t.sim.points.windows(2) {
            prop_assert!(w[1].0 >= w[0].0 - 1e-12);
            prop_assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        prop_assert_eq!(t.sim.points.len(), t.sim.rounds);
        prop_assert_eq!(t.dispatches, t.sim.rounds + t.censored);
        // No run finishes after the makespan.
        prop_assert!(t.sim.points.last().is_none_or(|&(at, _)| at <= t.makespan));
    }
}

#[test]
fn pooled_single_device_reaches_low_loss_sooner_in_wall_clock() {
    // §5.3.2: same GPU-time, but the pooled single device (costs / d)
    // returns models faster, so its loss curve leads early on.
    let d = dataset(5, 4, 3);
    let p = priors(5, 4);
    let devices = 4usize;
    let wallclock = 4.0;
    let pooled_dataset = Dataset::new(
        d.name().to_string(),
        d.quality_matrix().clone(),
        d.cost_matrix().scaled(1.0 / devices as f64),
    );
    let pooled = simulate(
        &pooled_dataset,
        &p,
        SchedulerKind::RoundRobin,
        &SimConfig::new(wallclock),
        &mut StdRng::seed_from_u64(11),
    );
    // The engine's budget is committed GPU time: d devices for the same
    // wall-clock horizon.
    let parallel = simulate_multi_device(
        &d,
        &p,
        SchedulerKind::RoundRobin,
        &SimConfig::new(wallclock * devices as f64),
        devices,
        11,
    );
    let early = 0.25 * wallclock;
    assert!(
        pooled.loss_at(early) <= parallel.sim.loss_at(early) + 1e-9,
        "pooled {:.4} vs parallel {:.4}",
        pooled.loss_at(early),
        parallel.sim.loss_at(early)
    );
}
