//! Smoke test of the benchmark at tiny sizes: every workload runs end to
//! end and traced with every check passing, every metric named in
//! `BENCHMARK.json` prints with its unit, and a second seed changes
//! `regret` but not the metric set.

use easeml_obs::json::{self, Json};
use easeml_perfbench::{
    closed_wide, open_deep, render, service, Args, Outcome, END_TO_END, PER_LAYER, WORKLOADS,
};

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace,
        session: None,
    }
}

fn run_tiny(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "closed-wide" => closed_wide::run(&closed_wide::Sizes::tiny(), args),
        "open-deep" => open_deep::run(&open_deep::Sizes::tiny(), args),
        "service" => service::run(&service::Sizes::tiny(), args),
        other => panic!("unknown workload {other}"),
    }
}

fn object<'a>(doc: &'a Json, key: &str) -> &'a Json {
    let Json::Object(pairs) = doc else {
        panic!("expected an object holding {key:?}");
    };
    &pairs
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
        .1
}

fn string(doc: &Json, key: &str) -> String {
    match object(doc, key) {
        Json::String(s) => s.clone(),
        other => panic!("{key:?} is not a string: {other:?}"),
    }
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match object(doc, key) {
        Json::Array(items) => items,
        other => panic!("{key:?} is not an array: {other:?}"),
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    array(spec, list)
        .iter()
        .map(|m| (string(m, "name"), string(m, "unit")))
        .collect()
}

/// Runs one workload, renders its result and returns the metrics as
/// `(name, unit, value)`, asserting the result line's shape and checks.
fn result(args: &Args) -> Vec<(String, String, f64)> {
    let outcome = run_tiny(args);
    assert_eq!(
        outcome.checks.failed, 0,
        "{} failed checks: {:?}",
        args.workload, outcome.checks.messages
    );
    assert!(outcome.checks.attempted > 0);
    let text = render(args, &outcome, args.trace.then_some(1.0));
    let last = text.lines().last().expect("a result line");
    let doc = json::parse(last).expect("the result line is JSON");
    assert_eq!(object(&doc, "correct"), &Json::Bool(true));
    assert_eq!(object(&doc, "failed"), &Json::Number(0.0));
    let Json::Object(metrics) = object(&doc, "metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let Json::Number(value) = object(m, "value") else {
                panic!("{name} has no numeric value");
            };
            (name.clone(), string(m, "unit"), *value)
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_and_passes_its_checks() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");
    let names: Vec<String> = array(&spec, "workloads")
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    let e2e = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(e2e, own(&END_TO_END));
    assert_eq!(per_layer, own(&PER_LAYER));

    for workload in WORKLOADS {
        let first = result(&args(workload, 1, false));
        let printed: Vec<(String, String)> = first
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(printed, e2e, "{workload}: end-to-end metric set");
        for (name, _, value) in &first {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload}: {name} = {value}"
            );
        }

        let second = result(&args(workload, 2, false));
        let regret =
            |m: &[(String, String, f64)]| m.iter().find(|(n, _, _)| n == "regret").map(|m| m.2);
        assert_ne!(
            regret(&first),
            regret(&second),
            "{workload}: regret ignores the seed"
        );
        let again: Vec<(String, String)> = second
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(again, printed, "{workload}: metric set depends on the seed");
        let repeat = result(&args(workload, 1, false));
        assert_eq!(
            regret(&repeat),
            regret(&first),
            "{workload}: regret is not exact"
        );

        let traced = result(&args(workload, 1, true));
        let printed: Vec<(String, String)> = traced
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(printed, per_layer, "{workload}: per-layer metric set");
    }
}
