//! # perf_proxy — the deterministic cache-truth perf gate
//!
//! Wall-clock perf gates flap in CI because containers are noisy neighbours.
//! This gate instead measures what the paper actually optimises — cache and
//! TLB miss counts — through the workspace's cache simulator, which makes
//! every number a pure function of the code: two consecutive runs are
//! byte-identical, so any delta against the committed baseline is a real
//! behavioural change, not scheduler weather.
//!
//! ```text
//! cargo run -p rdx-bench --bin perf_proxy                    # gate vs BASELINE_perf_proxy.json
//! cargo run -p rdx-bench --bin perf_proxy -- --write-baseline  # (re)record the baseline
//! cargo run -p rdx-bench --bin perf_proxy -- --detune          # negative test: must report regressed
//! ```
//!
//! Exit codes: `0` pass, `1` at least one metric regressed, `2` usage or
//! baseline-file errors.  Classification goes through the same CI-overlap
//! comparator as the wall-clock harness ([`rdx_bench::stats::classify`]);
//! deterministic counts carry zero-width intervals, so the gate is exact.

use rdx_bench::baseline::{Baseline, BaselineMetric, EnvMeta, BASELINE_SCHEMA};
use rdx_bench::measure::miss_count_proxies;
use rdx_bench::stats::{classify, Comparison};
use rdx_cache::CacheParams;
use std::path::Path;
use std::process::ExitCode;

/// The committed baseline, at the workspace root.
const BASELINE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BASELINE_perf_proxy.json"
);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write_baseline = false;
    let mut detune = false;
    for arg in &args {
        match arg.as_str() {
            "--write-baseline" => write_baseline = true,
            "--detune" => detune = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_proxy [--write-baseline] [--detune]");
                return ExitCode::from(2);
            }
        }
    }

    let params = CacheParams::paper_pentium4();
    let cells = miss_count_proxies(&params, detune);
    let metrics: Vec<BaselineMetric> = cells
        .iter()
        .map(|c| BaselineMetric::exact(c.name.clone(), c.unit, c.value))
        .collect();

    if write_baseline {
        if detune {
            eprintln!("refusing to write a baseline from a detuned run");
            return ExitCode::from(2);
        }
        let baseline = Baseline {
            schema: BASELINE_SCHEMA,
            bench: "perf_proxy".into(),
            env: EnvMeta::capture(&params, 0),
            metrics,
        };
        let path = Path::new(BASELINE_PATH);
        if let Err(e) = baseline.store(path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} ({} metrics)",
            path.display(),
            baseline.metrics.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match Baseline::load(Path::new(BASELINE_PATH)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("run `cargo run -p rdx-bench --bin perf_proxy -- --write-baseline` first");
            return ExitCode::from(2);
        }
    };

    println!(
        "perf_proxy gate vs baseline @ {} (l1 {} B, l2 {} B, tlb {} entries)",
        baseline.env.commit, baseline.env.l1_bytes, baseline.env.l2_bytes, baseline.env.tlb_entries,
    );
    println!(
        "{:<36} {:>16} {:>16} {:>9}  verdict",
        "metric", "baseline", "candidate", "delta %"
    );

    let mut regressed = 0usize;
    let mut improved = 0usize;
    let mut new = 0usize;
    for (m, cell) in metrics.iter().zip(&cells) {
        match baseline.metric(&m.name) {
            Some(base) => {
                // `classify` reads lower as better; swap the sides for the
                // cells where higher is.
                let verdict = if cell.higher_is_better {
                    classify(&m.ci(), &base.ci())
                } else {
                    classify(&base.ci(), &m.ci())
                };
                let delta = if base.point != 0.0 {
                    (m.point - base.point) / base.point * 100.0
                } else if m.point == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                };
                println!(
                    "{:<36} {:>16} {:>16} {:>8.2}%  {}",
                    m.name,
                    base.point,
                    m.point,
                    delta,
                    verdict.label()
                );
                match verdict {
                    Comparison::Regressed => regressed += 1,
                    Comparison::Improved => improved += 1,
                    Comparison::Inconclusive => {}
                }
            }
            None => {
                println!(
                    "{:<36} {:>16} {:>16} {:>9}  new (no baseline)",
                    m.name, "-", m.point, "-"
                );
                new += 1;
            }
        }
    }
    for base in &baseline.metrics {
        if !metrics.iter().any(|m| m.name == base.name) {
            eprintln!(
                "metric \"{}\" is in the baseline but was not measured",
                base.name
            );
            regressed += 1;
        }
    }

    println!(
        "{} metrics: {improved} improved, {regressed} regressed, {new} new",
        metrics.len()
    );
    if regressed > 0 {
        eprintln!("FAIL: miss-count regression vs committed baseline");
        if improved > 0 || new > 0 {
            eprintln!("(if intentional, refresh with --write-baseline and commit the file)");
        }
        ExitCode::from(1)
    } else {
        println!("PASS");
        ExitCode::SUCCESS
    }
}
