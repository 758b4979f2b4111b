//! `rdx-benchmark` — the benchmark every later performance claim about
//! this repository is measured with.  See `README.md` next to this
//! package for workloads, metrics and how to read a run.
//!
//! Two ways in:
//!
//! * `--workload W --seed S --seconds T --trace 0|1` runs **one** workload
//!   in this process and prints one JSON object as its last line — the
//!   form `BENCHMARK.json`'s `command` is invoked in.
//! * `run` / `trace` / `repeat K` run all four workloads, each in a fresh
//!   child process of the first form, and print tables.

mod common;
mod json;
mod layers;
mod oracle;
mod orchestrate;
mod scan;
mod span;
mod spec;
mod stats;
mod wire;

use common::{Args, Layers, Measured, SETUP_REPS};
use json::{obj, Value};
use span::Spans;
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;

/// A set-up workload of either family.
enum Env {
    Scan(Box<scan::Env>),
    Wire(wire::Env),
}

fn setup(args: &Args, traced: bool, spans: &mut Spans) -> Result<Env, String> {
    match args.workload.as_str() {
        "scan_cold" => scan::setup(args, true, traced, spans).map(|e| Env::Scan(Box::new(e))),
        "scan_warm" => scan::setup(args, false, traced, spans).map(|e| Env::Scan(Box::new(e))),
        "point_wire" => wire::setup(args, false, traced, spans).map(Env::Wire),
        "mix_budget_wire" => wire::setup(args, true, traced, spans).map(Env::Wire),
        other => Err(format!("unknown workload \"{other}\"")),
    }
}

impl Env {
    fn measure(self, spans: &mut Spans) -> Result<Measured, String> {
        match self {
            Env::Scan(env) => env.measure(spans),
            Env::Wire(env) => env.measure(spans),
        }
    }

    fn teardown(self) -> Result<(), String> {
        match self {
            Env::Scan(_) => Ok(()),
            Env::Wire(env) => env.teardown(),
        }
    }
}

/// Sets up and returns the environment with the seconds it took.
fn timed_setup(args: &Args, traced: bool, spans: &mut Spans) -> Result<(Env, f64), String> {
    let start = std::time::Instant::now();
    let env = setup(args, traced, spans)?;
    Ok((env, start.elapsed().as_secs_f64()))
}

/// One set-up followed by its timed phase.
fn pass(args: &Args, traced: bool, spans: &mut Spans) -> Result<Measured, String> {
    setup(args, traced, spans)?.measure(spans)
}

/// What one workload run reports: the result line's counts and the metric
/// values by `BENCHMARK.json` name.
struct Report {
    attempted: u64,
    failed: u64,
    values: Layers,
    /// The span log of a traced run, written out once the metrics are final.
    spans: Option<Spans>,
}

/// Runs one workload in this process.
fn run_workload(args: &Args) -> Result<Report, String> {
    if !args.trace {
        // Tracing off: nothing is recorded, end-to-end numbers only.
        let mut spans = Spans::new(false);
        let mut setups = Vec::with_capacity(SETUP_REPS);
        for _ in 1..SETUP_REPS {
            let (env, seconds) = timed_setup(args, false, &mut spans)?;
            setups.push(seconds);
            env.teardown()?;
        }
        let (env, seconds) = timed_setup(args, false, &mut spans)?;
        setups.push(seconds);
        let timed = env.measure(&mut spans)?.timed;
        return Ok(Report {
            attempted: timed.attempted,
            failed: timed.failed,
            values: common::end_to_end(&timed, stats::median(&setups)),
            spans: None,
        });
    }

    // Tracing on: the traced pass, whose spans and stats give the
    // per-layer numbers, between two untraced passes — the overhead
    // baseline is their mean, so a steady drift of the machine's speed
    // over the run cancels instead of reading as (negative) overhead.  One
    // discarded set-up first, because the first pass in a fresh process
    // runs up to 20 % slower than later ones.
    let mut off = Spans::new(false);
    setup(args, false, &mut off)?.teardown()?;
    let before = pass(args, false, &mut off)?.timed;
    let mut spans = Spans::new(true);
    let traced = pass(args, true, &mut spans)?;
    let after = pass(args, false, &mut off)?.timed;
    let base_qps = (before.throughput_qps() + after.throughput_qps()) / 2.0;
    let mut values = traced.layers;
    values.insert(
        "trace.overhead_share",
        1.0 - traced.timed.throughput_qps() / base_qps,
    );
    let passes = [&before, &traced.timed, &after];
    Ok(Report {
        attempted: passes.iter().map(|t| t.attempted).sum(),
        failed: passes.iter().map(|t| t.failed).sum(),
        values,
        spans: Some(spans),
    })
}

/// Child mode: prints every declared metric by name with its unit, then
/// the result object as the last line.
fn child(spec: &Spec, args: &Args) -> ExitCode {
    let fail = |why: String| {
        eprintln!("rdx-benchmark: {}: {why}", args.workload);
        ExitCode::from(2)
    };
    let report = match run_workload(args) {
        Ok(report) => report,
        Err(why) => return fail(why),
    };
    let declared = spec.metrics(args.trace);
    if let Some(stray) = report
        .values
        .keys()
        .find(|k| !declared.iter().any(|m| m.name == **k))
    {
        return fail(format!("metric \"{stray}\" is not in BENCHMARK.json"));
    }
    // Per-layer metrics that do not apply to this workload print as 0.
    let metrics: Vec<(String, f64)> = declared
        .iter()
        .map(|m| {
            let value = report.values.get(m.name.as_str()).copied();
            (m.name.clone(), value.unwrap_or(0.0))
        })
        .collect();
    if let Some(spans) = &report.spans {
        let env = orchestrate::env_stamp(args);
        if let Err(e) = spans.write(&args.out, &args.workload, env, &metrics) {
            return fail(format!("writing the trace file: {e}"));
        }
    }
    let mut fields = Vec::with_capacity(metrics.len());
    for (m, (name, value)) in declared.iter().zip(&metrics) {
        println!("{:<18} {name:<42} {value:>16.6} {}", args.workload, m.unit);
        fields.push((
            name.clone(),
            obj([
                ("value", Value::Num(*value)),
                ("unit", Value::Str(m.unit.clone())),
            ]),
        ));
    }
    println!(
        "{:<18} {:<42} {:>16} queries ({} failed)",
        args.workload, "samples", report.attempted, report.failed
    );
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    println!(
        "{}",
        obj([
            ("correct", Value::Bool(report.failed == 0 && finite)),
            ("attempted", Value::Num(report.attempted as f64)),
            ("failed", Value::Num(report.failed as f64)),
            ("metrics", Value::Obj(fields)),
        ])
        .render()
    );
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rdx-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      rdx-benchmark run|trace [--seed <n>]\n\
         \x20      rdx-benchmark repeat <k> [--seed <n>]\n\
         test-only: --shrink <d> divides relation sizes and counts, --out <dir> moves result files"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let command = match argv.peek() {
        Some(first) if !first.starts_with("--") => argv.next(),
        _ => None,
    };
    let repeats = if command.as_deref() == Some("repeat") {
        match argv.next().and_then(|k| k.parse::<usize>().ok()) {
            Some(k) if k >= 1 => k,
            _ => return usage(),
        }
    } else {
        1
    };
    let spec = Spec::load();
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: spec.run_seconds,
        trace: false,
        shrink: 1,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                args.workload = value;
                true
            }
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v: f64| args.seconds = v)
                .is_ok_and(|_| args.seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    args.trace = true;
                    true
                }
                _ => false,
            },
            "--shrink" => value
                .parse()
                .map(|v: usize| args.shrink = v)
                .is_ok_and(|_| args.shrink >= 1),
            "--out" => {
                args.out = PathBuf::from(value);
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    match command.as_deref() {
        None if !args.workload.is_empty() => child(&spec, &args),
        Some("run") => orchestrate::run(&spec, &args, false),
        Some("trace") => orchestrate::run(&spec, &args, true),
        Some("repeat") => orchestrate::repeat(&spec, &args, repeats),
        _ => usage(),
    }
}
