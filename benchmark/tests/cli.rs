//! The benchmark binary end to end: `--list` agrees with
//! `BENCHMARK.json`, and a `--smoke` run of every workload reports every
//! metric the file names, with its unit and a finite value.

use hhc_benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hhc-benchmark"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing '{key}'")),
        other => panic!("expected an object holding '{key}', got {other:?}"),
    }
}

#[test]
fn benchmark_json_is_the_spec_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let file: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let want = spec::benchmark_json();
    assert!(
        file == want,
        "BENCHMARK.json drifted from src/spec.rs; it should read:\n{}",
        serde_json::to_string_pretty(&want).expect("spec renders")
    );

    let out = bin().arg("--list").output().expect("run --list");
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf-8");
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(listed.contains(name), "--list omits {name}");
    }
}

/// Run one smoke run and check its result line against the spec.
fn smoke(workload: &str, trace: bool) {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = bin()
        .args(["--workload", workload, "--seed", "3", "--smoke"])
        .args(["--seconds", if trace { "2" } else { "1" }])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(field(&result, "correct"), &Value::Bool(true));
    assert_eq!(field(&result, "failed"), &Value::UInt(0));
    assert!(matches!(field(&result, "attempted"), Value::UInt(n) if *n >= 1));
    let expected: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let Value::Map(metrics) = field(&result, "metrics") else {
        panic!("metrics is not an object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, wanted, "{workload}: metric set");
    for ((name, metric), (_, unit)) in metrics.iter().zip(&expected) {
        assert_eq!(
            field(metric, "unit"),
            &Value::Str(unit.to_string()),
            "{name}"
        );
        let Value::F64(x) = field(metric, "value") else {
            panic!("{workload}: {name} is not a number");
        };
        assert!(x.is_finite(), "{workload}: {name} = {x}");
        // End-to-end metrics are never 0; a layer a workload does not
        // touch reads 0 in the ledger.
        assert!(trace || *x > 0.0, "{workload}: {name} = {x}");
    }
}

#[test]
fn select_smoke() {
    smoke("select", false);
    smoke("select", true);
}

#[test]
fn reproduce_smoke() {
    smoke("reproduce", false);
    smoke("reproduce", true);
}

#[test]
fn serve_lookup_smoke() {
    smoke("serve-lookup", false);
    smoke("serve-lookup", true);
}

#[test]
fn serve_mixed_smoke() {
    smoke("serve-mixed", false);
    smoke("serve-mixed", true);
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "select", "--trace", "2"],
        vec!["--seconds", "1"],
    ] {
        let out = bin().args(&args).output().expect("run the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
