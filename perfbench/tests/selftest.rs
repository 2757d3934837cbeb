//! The benchmark's own tests: quick mode prints every metric that
//! `BENCHMARK.json` names, with its unit, and a planted wrong
//! expectation makes the run count failures. They run the optimized
//! binary, so use
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

use p_core::telemetry::json::JsonValue;

const WORKLOADS: [&str; 4] = ["verify_seq", "verify_par", "delay_bounded", "runtime_mix"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Runs one quick benchmark run and parses its last line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).expect("the result line is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn count(result: &JsonValue, key: &str) -> u64 {
    result.get(key).and_then(JsonValue::as_u64).expect(key)
}

#[test]
fn quick_mode_emits_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let result = run(workload, trace, &[]);
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{workload}"
            );
            assert_eq!(count(&result, "failed"), 0, "{workload}");
            assert!(count(&result, "attempted") >= 1, "{workload}");
            let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let section = if trace { "per_layer" } else { "end_to_end" };
            let want = catalogue(section);
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                    (name.clone(), unit.to_owned())
                })
                .collect();
            assert_eq!(got, want, "{workload} trace={trace}");
            if !trace {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
                    assert!(value > 0.0, "{workload}: {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn planted_wrong_expectation_is_counted_as_failed() {
    for workload in WORKLOADS {
        let result = run(workload, false, &["--plant-failure"]);
        assert_eq!(
            result.get("correct"),
            Some(&JsonValue::Bool(false)),
            "{workload}"
        );
        assert!(count(&result, "failed") > 0, "{workload}");
    }
}
