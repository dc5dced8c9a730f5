//! Golden-file tests pinning both on-disk checkpoint formats byte for byte.
//!
//! `tests/golden/easeml_checkpoint_v3.json` is the serial server's document
//! (a 3-tenant `EaseMl` under fault injection with a quarantined arm);
//! `tests/golden/exec_checkpoint_v4.json` is a mid-flight execution-engine
//! document (two devices, HYBRID, chaos, open-loop with pending arrivals).
//! A change that alters any byte of either fails here — the prompt to bump
//! `CHECKPOINT_VERSION` / `EXEC_CHECKPOINT_VERSION` and regenerate the
//! golden files by running the tests with `UPDATE_GOLDEN=1`.

use easeml::checkpoint::{CheckpointDoc, CHECKPOINT_VERSION};
use easeml::fault::{FaultConfig, FaultInjector, FaultRates};
use easeml::prelude::*;
use easeml::server::{EaseMl, QualityOracle, TrainingOutcome};
use easeml_data::SynConfig;
use easeml_exec::{ExecCheckpoint, ExecEngine, Fleet, EXEC_CHECKPOINT_VERSION};
use easeml_gp::ArmPrior;
use easeml_obs::RecorderHandle;

const VISION_PROG: &str = "{input: {[Tensor[64, 64, 3]], []}, output: {[Tensor[5]], []}}";
const METEO_PROG: &str = "{input: {[Tensor[16]], [next]}, output: {[Tensor[3]], []}}";

/// Compares `rendered` against `tests/golden/{name}` (rewriting it first
/// under `UPDATE_GOLDEN=1`) and returns the golden text.
fn check_golden(name: &str, rendered: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{name} missing; regenerate with UPDATE_GOLDEN=1"));
    assert!(
        rendered == golden,
        "checkpoint serialization drifted from tests/golden/{name}; if intentional, \
         bump the checkpoint version and regenerate with UPDATE_GOLDEN=1"
    );
    golden
}

fn serial_checkpoint() -> String {
    let oracle: QualityOracle = Box::new(|user, model| {
        let info = model.info();
        Ok(TrainingOutcome {
            accuracy: ([0.66, 0.48, 0.57][user % 3] + 0.02 * (info.year as f64 - 2010.0)).min(0.99),
            cost: info.relative_cost,
        })
    });
    let mut config = FaultConfig::new(u64::MAX - 40)
        .with_crash_rate(0.15)
        .with_timeout_rate(0.05)
        .with_stragglers(0.2, 2.5);
    // Arm 0 always crashes, so the retry policy quarantines it.
    let brittle = FaultRates {
        crash: 1.0,
        ..FaultRates::NONE
    };
    config.arm_overrides.insert(0, brittle);
    config.user_overrides.insert(2, FaultRates::NONE);
    let mut server = EaseMl::new(oracle, 23);
    server.set_fault_injector(Some(FaultInjector::new(config)));
    server.set_retry_policy(RetryPolicy {
        quarantine_threshold: 2,
        probation_rounds: 40,
        ..RetryPolicy::default()
    });
    server.register_user("vision-lab", VISION_PROG).unwrap();
    server.register_user("meteo-lab", METEO_PROG).unwrap();
    server.register_user("vision-two", VISION_PROG).unwrap();
    for _ in 0..18 {
        server.run_round();
    }
    assert!((0..3).any(|u| !server.quarantined_arms(u).is_empty()));
    server.checkpoint()
}

fn exec_checkpoint() -> String {
    let dataset = SynConfig {
        num_users: 4,
        num_models: 5,
        ..SynConfig::paper(0.5, 0.5)
    }
    .generate(11);
    let priors: Vec<ArmPrior> = (0..4).map(|_| ArmPrior::independent(5, 0.05)).collect();
    let mut cfg = SimConfig::new(40.0);
    cfg.fault = Some(
        FaultConfig::new(13)
            .with_crash_rate(0.2)
            .with_timeout_rate(0.1),
    );
    let mut engine = ExecEngine::new(
        &dataset,
        &priors,
        SchedulerKind::Hybrid,
        &cfg,
        Fleet::uniform(2),
        7,
        RecorderHandle::noop(),
    );
    engine.set_open_loop(true);
    for i in 0..24 {
        engine.push_arrival(i % 4, 0.25 * i as f64);
    }
    for _ in 0..6 {
        assert!(engine.tick());
    }
    assert!(engine.in_flight_len() > 0 && engine.pending_arrivals() > 0);
    let ck = engine.checkpoint();
    assert!(ck.fault.is_some() && ck.hybrid.is_some());
    ck.to_json()
}

#[test]
fn serial_checkpoint_matches_the_golden_file() {
    let golden = check_golden("easeml_checkpoint_v3.json", &serial_checkpoint());
    let doc = CheckpointDoc::from_json(&golden).unwrap();
    assert_eq!(doc.version, CHECKPOINT_VERSION);
    assert_eq!(
        doc.to_json(),
        golden,
        "from_json -> to_json must be lossless"
    );
}

#[test]
fn exec_checkpoint_matches_the_golden_file() {
    let golden = check_golden("exec_checkpoint_v4.json", &exec_checkpoint());
    let ck = ExecCheckpoint::from_json(&golden).unwrap();
    assert_eq!(ck.version, EXEC_CHECKPOINT_VERSION);
    assert_eq!(
        ck.to_json(),
        golden,
        "from_json -> to_json must be lossless"
    );
}
