//! `--tiny` smoke runs (16³, 2 steps, one child): every workload runs
//! with verification, untraced and traced, and emits exactly the
//! metrics `BENCHMARK.json` declares.

use std::process::Command;

use probe::Json;

const EXE: &str = env!("CARGO_BIN_EXE_sensei-benchmark");

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    json.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|row| {
            let field = |k| row.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(EXE)
            .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
            .args(["--trace", trace, "--tiny", "--force"])
            .output()
            .unwrap();
        assert!(output.status.success(), "{workload} --trace {trace}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
        let Json::Obj(members) = &result else {
            panic!("result is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("metrics is an object")
        };
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(emitted, declared(section), "{workload} --trace {trace}");
    }
}

#[test]
fn sim_baseline() {
    smoke("sim-baseline");
}

#[test]
fn stats_insitu() {
    smoke("stats-insitu");
}

#[test]
fn render_insitu() {
    smoke("render-insitu");
}

#[test]
fn intransit_staging() {
    smoke("intransit-staging");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec!["--workload", "posthoc-io"],
        vec!["--seed", "2016"],
        vec!["frobnicate"],
    ] {
        let output = Command::new(EXE).args(&args).output().unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
