//! Smoke test: all four workloads at 1/100 scale, untraced and traced,
//! through the real binary — every metric `BENCHMARK.json` names is
//! printed exactly once, finite, with its unit, and nothing else is.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::path::Path;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_owned(),
                m.get("unit").and_then(Value::as_str).unwrap().to_owned(),
            )
        })
        .collect()
}

fn check_run(workload: &str, trace: bool, expected: &[(String, String)], out: &Path) {
    let output = Command::new(env!("CARGO_BIN_EXE_rdx-benchmark"))
        .args(["--workload", workload, "--seed", "12", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--shrink", "100"])
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, table) = lines.split_last().unwrap();

    // The result line: exactly the four contract keys.
    let doc = json::parse(last).unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
    assert!(doc.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));

    // Its metrics: the declared names in order, each finite, with its unit.
    let metrics = doc.get("metrics").and_then(Value::as_obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want, "{workload} trace={trace}");
    for ((name, unit), (_, metric)) in expected.iter().zip(metrics) {
        let value = metric.get("value").and_then(Value::as_f64).unwrap();
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str())
        );
    }

    // The human-readable table: one line per declared metric (workload,
    // name, value, unit) plus the sample-count line, and no other name.
    for (name, unit) in expected {
        let rows: Vec<&&str> = table
            .iter()
            .filter(|l| l.split_whitespace().nth(1) == Some(name.as_str()))
            .collect();
        assert_eq!(
            rows.len(),
            1,
            "{workload}: {name} printed {} times",
            rows.len()
        );
        let fields: Vec<&str> = rows[0].split_whitespace().collect();
        assert_eq!(fields[0], workload);
        assert!(fields[2].parse::<f64>().unwrap().is_finite());
        assert_eq!(fields[3], unit);
    }
    assert_eq!(table.len(), expected.len() + 1, "stray lines:\n{stdout}");
    assert_eq!(
        table[table.len() - 1].split_whitespace().nth(1),
        Some("samples")
    );

    if trace {
        let file = out.join(format!("trace-{workload}.json"));
        let spans = json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        assert!(!spans
            .get("spans")
            .and_then(Value::as_arr)
            .unwrap()
            .is_empty());
    }
}

#[test]
fn every_declared_metric_is_printed_exactly_once() {
    let doc = json::parse(BENCHMARK_JSON).unwrap();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(
        workloads,
        ["scan_cold", "scan_warm", "point_wire", "mix_budget_wire"]
    );
    for workload in workloads {
        check_run(workload, false, &declared(&doc, "end_to_end"), &out);
        check_run(workload, true, &declared(&doc, "per_layer"), &out);
    }
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_rdx-benchmark"))
            .args(args)
            .output()
            .unwrap()
    };
    let bad = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!bad.status.success() && bad.stdout.is_empty());
    assert!(!run(&["--seconds", "0"]).status.success());
    assert!(!run(&[]).status.success());
}
