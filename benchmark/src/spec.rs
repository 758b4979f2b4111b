//! The benchmark's contract, read from the root `BENCHMARK.json` at compile
//! time: workload names, metric names with unit, direction and bound.

use crate::json::{self, Value};

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn metrics(doc: &Value, key: &str) -> Vec<MetricSpec> {
    let field = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks \"{k}\""))
            .to_owned()
    };
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks \"{key}\""))
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`; a malformed contract is a
    /// build-time mistake, so this panics rather than returning an error.
    pub fn load() -> Spec {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json has run_seconds"),
            workloads: doc
                .get("workloads")
                .and_then(Value::as_arr)
                .expect("BENCHMARK.json has workloads")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .expect("workload has a name")
                        .to_owned()
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }

    /// The metric list a run with the given tracing mode must print.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
