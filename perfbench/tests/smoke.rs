//! Smoke-size run of every workload, untraced and traced: each must
//! exit 0, report correct detections, and print exactly the metrics
//! `BENCHMARK.json` lists, with the units it lists.
//!
//! Build with `--release`: the paper-geometry workload is far too slow
//! unoptimized.

use stap_util::Json;
use std::collections::BTreeMap;
use std::process::Command;

fn declared(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let j = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(list)) = j.get(section) else {
        panic!("{section} missing from BENCHMARK.json");
    };
    list.iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(Json::Str(v)) => v.clone(),
                _ => panic!("{section} entry without {k}"),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "6"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace {trace}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let j = Json::parse(last).expect("result line is JSON");
    assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(j.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(j.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = j.get("metrics") else {
        panic!("metrics object missing: {last}");
    };
    let got: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64);
            assert!(
                v.is_some_and(f64::is_finite),
                "{name} is not a finite number"
            );
            let Some(Json::Str(unit)) = m.get("unit") else {
                panic!("{name} has no unit");
            };
            (name.clone(), unit.clone())
        })
        .collect();
    let want = declared(if trace == 0 {
        "end_to_end"
    } else {
        "per_layer"
    });
    assert_eq!(
        got, want,
        "{workload} trace {trace}: metric names and units"
    );
}

/// One test, so the runs never overlap: concurrent runs would starve
/// each other's generator and trip the open-loop validity check.
#[test]
fn every_workload_untraced_and_traced() {
    for workload in ["paper-radar", "service-mix", "cluster-shm"] {
        run(workload, 0);
        run(workload, 1);
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
