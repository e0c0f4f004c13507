//! Short runs of every workload, untraced and traced: each run reports
//! exactly the metrics `BENCHMARK.json` names for its mode, each with
//! the unit named there, no operation fails, and the traced run's layer
//! self times add up to each pass (a violation counts as a failed
//! operation).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! a debug build simulates too slowly for a short run.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use serde::json::Value;

const WORKLOADS: [&str; 4] = ["simulate", "suite", "dse-arch", "serve"];

/// Metric name -> unit, for one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = serde::json::parse(&text).expect("BENCHMARK.json parses");
    spec.field(section)
        .and_then(Value::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.field(k)
                    .ok()
                    .and_then(Value::as_str)
                    .expect(k)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload for a second; returns its final JSON line.
fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_isos-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde::json::parse(last).expect("the result line is JSON")
}

fn check_section(section: &str, trace: bool) {
    let declared = declared(section);
    for workload in WORKLOADS {
        let result = run(workload, trace);
        let count = |k| result.field(k).and_then(Value::as_u64).expect(k);
        assert!(count("attempted") >= 1, "{workload}: nothing attempted");
        assert_eq!(
            count("failed"),
            0,
            "{workload} (trace {trace}) failed operations"
        );
        assert_eq!(
            result.field("correct").and_then(Value::as_bool).ok(),
            Some(true)
        );
        let Ok(Value::Obj(metrics)) = result.field("metrics") else {
            panic!("{workload}: no metrics object")
        };
        for (name, m) in metrics {
            let unit = m.field("unit").ok().and_then(Value::as_str);
            assert_eq!(
                unit,
                declared.get(name).map(String::as_str),
                "{workload}: {name}"
            );
            assert!(
                m.field("value").and_then(Value::as_f64).is_ok(),
                "{workload}: {name}"
            );
        }
        let names: BTreeSet<&String> = metrics.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            declared.keys().collect(),
            "{workload} (trace {trace}) reports exactly the {section} metrics"
        );
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    check_section("end_to_end", false);
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_conserve() {
    check_section("per_layer", true);
}
