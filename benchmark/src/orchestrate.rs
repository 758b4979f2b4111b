//! `run`, `trace` and `repeat`: every workload in a fresh child process
//! (so `peak_rss_mb` is per workload), tables for humans, env-stamped
//! result files, and the repeatability check the bounds are judged by.

use crate::common::Args;
use crate::json::{self, obj, Value};
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles, relative_spread};
use std::process::{Command, ExitCode, Stdio};

/// `setup_s` differences below this many seconds are never a regression.
const SETUP_NOISE_FLOOR_S: f64 = 0.25;

/// Per-layer metrics that are counts of deterministic work and therefore
/// must repeat bit for bit between sets of the same code and seed.  The
/// `net.frames_*`/`net.bytes_*` counts are exact too wherever every query
/// is done at its first poll, but on `mix_budget_wire` the number of
/// non-terminal polls depends on timing, so they are not asserted.
const EXACT_PREFIXES: [&str; 3] = ["cache.sim_", "serve.cache_", "serve.chunks_per_query"];

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Where and how a result was produced — stamped on every file written.
pub fn env_stamp(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("nproc", Value::Num(nproc as f64)),
        ("rustc", Value::Str(tool_version("rustc", &["--version"]))),
        (
            "git_commit",
            Value::Str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("cache_params", Value::Str("paper_pentium4".to_owned())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("shrink", Value::Num(args.shrink as f64)),
    ])
}

/// One workload's parsed child output.
struct WorkloadResult {
    workload: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// One pass over all workloads.
struct Set {
    nproc: f64,
    results: Vec<WorkloadResult>,
}

impl Set {
    fn to_json(&self, env: &Value, trace: bool) -> Value {
        obj([
            ("env", env.clone()),
            ("trace", Value::Bool(trace)),
            (
                "workloads",
                Value::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            obj([
                                ("name", Value::Str(r.workload.clone())),
                                ("correct", Value::Bool(r.correct)),
                                // The frozen count this run executed.
                                ("attempted", Value::Num(r.attempted as f64)),
                                ("failed", Value::Num(r.failed as f64)),
                                (
                                    "metrics",
                                    obj(r.metrics.iter().map(|(k, v)| (k.clone(), Value::Num(*v)))),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn run_child(args: &Args, workload: &str, trace: bool) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--shrink", &args.shrink.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} child exited with {}", output.status));
    }
    let doc = json::parse(last).map_err(|e| format!("{workload} child's result line: {e}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload} child's result lacks \"{key}\""))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{workload} child's result lacks \"metrics\""))?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: metric {name} has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WorkloadResult {
        workload: workload.to_owned(),
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        metrics,
    })
}

fn run_set(spec: &Spec, args: &Args, trace: bool) -> Result<Set, String> {
    let results = spec
        .workloads
        .iter()
        .map(|w| run_child(args, w, trace))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Set {
        nproc: std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
        results,
    })
}

fn write_results(args: &Args, name: &str, doc: &Value) -> Result<(), String> {
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join(name), doc.render() + "\n"))
        .map_err(|e| format!("writing {name}: {e}"))
}

fn all_correct(set: &Set) -> bool {
    set.results.iter().all(|r| r.correct && r.failed == 0)
}

/// `run` (tracing off, end-to-end metrics) or `trace` (per-layer metrics
/// and one span file per workload).
pub fn run(spec: &Spec, args: &Args, trace: bool) -> ExitCode {
    let set = match run_set(spec, args, trace) {
        Ok(set) => set,
        Err(why) => {
            eprintln!("rdx-benchmark: {why}");
            return ExitCode::FAILURE;
        }
    };
    let name = format!(
        "results-{}-seed{}.json",
        if trace { "trace" } else { "run" },
        args.seed
    );
    if let Err(why) = write_results(args, &name, &set.to_json(&env_stamp(args), trace)) {
        eprintln!("rdx-benchmark: {why}");
        return ExitCode::FAILURE;
    }
    if all_correct(&set) {
        ExitCode::SUCCESS
    } else {
        eprintln!("rdx-benchmark: at least one result did not match the oracle");
        ExitCode::FAILURE
    }
}

/// Refuses to compare sets measured on different core counts or with
/// different frozen counts (ROADMAP's "measure on real cores" guard).
fn comparable(sets: &[Set]) -> Result<(), String> {
    let first = &sets[0];
    for (k, set) in sets.iter().enumerate().skip(1) {
        if set.nproc != first.nproc {
            return Err(format!(
                "set {k} ran on {} cores, set 0 on {}: not comparable",
                set.nproc, first.nproc
            ));
        }
        for (a, b) in first.results.iter().zip(&set.results) {
            if a.workload != b.workload || a.attempted != b.attempted {
                return Err(format!(
                    "set {k} ran {} × {}, set 0 ran {} × {}: not comparable",
                    b.workload, b.attempted, a.workload, a.attempted
                ));
            }
        }
    }
    Ok(())
}

fn values_of(sets: &[Set], workload: usize, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|s| {
            s.results[workload]
                .metrics
                .iter()
                .find(|(k, _)| k == metric)
                .map(|(_, v)| *v)
        })
        .collect()
}

fn within_bound(metric: &MetricSpec, values: &[f64]) -> bool {
    let bound = metric.bound.unwrap_or(0.0);
    let (q1, q3) = quartiles(values);
    relative_spread(values) <= bound || (metric.name == "setup_s" && q3 - q1 < SETUP_NOISE_FLOOR_S)
}

/// `repeat K`: K untraced and K traced sets back to back; per workload ×
/// end-to-end metric the median, quartiles and relative spread against the
/// metric's bound, and an exactness check of the deterministic counters.
pub fn repeat(spec: &Spec, args: &Args, k: usize) -> ExitCode {
    let mut plain = Vec::with_capacity(k);
    let mut traced = Vec::with_capacity(k);
    for i in 0..k {
        eprintln!("== set {} of {k} ==", i + 1);
        for (trace, into) in [(false, &mut plain), (true, &mut traced)] {
            match run_set(spec, args, trace) {
                Ok(set) => into.push(set),
                Err(why) => {
                    eprintln!("rdx-benchmark: {why}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Err(why) = comparable(&plain).and_then(|()| comparable(&traced)) {
        eprintln!("rdx-benchmark: {why}");
        return ExitCode::FAILURE;
    }

    let mut ok = plain.iter().chain(&traced).all(all_correct);
    println!(
        "\n{:<18} {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (w, workload) in spec.workloads.iter().enumerate() {
        for metric in &spec.end_to_end {
            let values = values_of(&plain, w, &metric.name);
            if values.len() < 2 {
                println!(
                    "{workload:<18} {:<18} {:>12.4}  (one set: nothing to compare)",
                    metric.name,
                    median(&values)
                );
                continue;
            }
            let (q1, q3) = quartiles(&values);
            let pass = within_bound(metric, &values);
            ok &= pass;
            println!(
                "{workload:<18} {:<18} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>5.0}%  {}",
                metric.name,
                median(&values),
                q1,
                q3,
                100.0 * relative_spread(&values),
                100.0 * metric.bound.unwrap_or(0.0),
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    for (w, workload) in spec.workloads.iter().enumerate() {
        for metric in &spec.per_layer {
            if !EXACT_PREFIXES.iter().any(|p| metric.name.starts_with(p)) {
                continue;
            }
            let values = values_of(&traced, w, &metric.name);
            if values.windows(2).any(|p| p[0].to_bits() != p[1].to_bits()) {
                ok = false;
                println!(
                    "{workload:<18} {:<42} differs between sets: {values:?}  FAIL",
                    metric.name
                );
            }
        }
    }
    let env = env_stamp(args);
    let doc = obj([
        ("sets", Value::Num(k as f64)),
        (
            "untraced",
            Value::Arr(plain.iter().map(|s| s.to_json(&env, false)).collect()),
        ),
        (
            "traced",
            Value::Arr(traced.iter().map(|s| s.to_json(&env, true)).collect()),
        ),
    ]);
    if let Err(why) = write_results(
        args,
        &format!("results-repeat-seed{}.json", args.seed),
        &doc,
    ) {
        eprintln!("rdx-benchmark: {why}");
        return ExitCode::FAILURE;
    }
    if ok {
        println!("\nrepeat: every metric within its bound, deterministic counters identical");
        ExitCode::SUCCESS
    } else {
        println!("\nrepeat: FAILED (see the FAIL rows above)");
        ExitCode::FAILURE
    }
}
