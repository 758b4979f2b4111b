//! Parallel DSM post-projection on a 10M-tuple workload: the one-chunk
//! materialise (`ProjectionPipeline::materialize`) on `threads` workers
//! against the same run on one worker, wall-clock and per-phase.
//!
//! Run with `cargo run --release --example parallel_projection [threads]`
//! (default: one worker per hardware thread).

use radix_decluster::core::strategy::planner::plan_by_cost_with_threads;
use radix_decluster::prelude::*;
use std::time::Instant;

fn main() {
    let threads = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| ExecPolicy::available().threads)
        .max(1);
    let n = 10_000_000;
    let pi = 2;

    println!("generating 2 × {n} tuples, {pi} projection columns per side…");
    let workload = JoinWorkloadBuilder::equal(n, pi).seed(1).build();
    let spec = QuerySpec::symmetric(pi);
    let params = CacheParams::paper_pentium4();

    // Plan against each core's cache share, then run on one and on
    // `threads` workers.
    let plan =
        plan_by_cost_with_threads(&workload.larger, &workload.smaller, &spec, &params, threads);
    println!("planned codes: {} ({threads} threads)", plan.label());

    let pipeline = ProjectionPipeline::new(plan);
    let materialize = |threads| {
        let t = Instant::now();
        let (out, _) = pipeline
            .materialize(
                &workload.larger,
                &workload.smaller,
                &spec,
                &params,
                &ExecPolicy::with_threads(threads),
            )
            .expect("π fits the workload");
        (out, t.elapsed())
    };
    let (sequential, sequential_wall) = materialize(1);
    let (parallel, parallel_wall) = materialize(threads);

    // The runs must agree byte for byte before timings mean anything.
    assert_eq!(
        sequential.result.cardinality(),
        parallel.result.cardinality()
    );
    for (s, p) in sequential
        .result
        .columns()
        .iter()
        .zip(parallel.result.columns())
    {
        assert_eq!(s.as_slice(), p.as_slice(), "parallel result diverged");
    }

    println!("\n{:<18} {:>12} {:>12}", "phase", "sequential", "parallel");
    let rows = [
        ("join", sequential.timings.join, parallel.timings.join),
        (
            "reorder",
            sequential.timings.reorder,
            parallel.timings.reorder,
        ),
        (
            "project larger",
            sequential.timings.project_larger,
            parallel.timings.project_larger,
        ),
        (
            "project smaller",
            sequential.timings.project_smaller,
            parallel.timings.project_smaller,
        ),
        (
            "decluster",
            sequential.timings.decluster,
            parallel.timings.decluster,
        ),
    ];
    for (name, seq, par) in rows {
        println!(
            "{:<18} {:>10.1}ms {:>10.1}ms",
            name,
            seq.as_secs_f64() * 1e3,
            par.as_secs_f64() * 1e3
        );
    }
    println!(
        "{:<18} {:>10.1}ms {:>10.1}ms   ({:.2}× at {threads} threads)",
        "wall clock",
        sequential_wall.as_secs_f64() * 1e3,
        parallel_wall.as_secs_f64() * 1e3,
        sequential_wall.as_secs_f64() / parallel_wall.as_secs_f64()
    );
    println!(
        "result: {} rows × {} columns, identical on 1 and {threads} workers",
        parallel.result.cardinality(),
        parallel.result.num_columns()
    );
}
