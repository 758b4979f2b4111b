//! Quickstart through the **one front door**: open a [`QueryEngine`],
//! register the relations, and run one projected join with the
//! cost-planned strategy — then print the phase breakdown the engine
//! measured.
//!
//! ```text
//! cargo run --release --example quickstart [cardinality] [projected_columns]
//! ```

use radix_decluster::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let cardinality: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(500_000);
    let pi: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    println!(
        "Generating two relations of {cardinality} tuples with {pi} projection columns each …"
    );
    let workload = JoinWorkloadBuilder::equal(cardinality, pi).seed(7).build();

    // One front door: the engine owns the catalog, the cache params every
    // plan is priced against (here the whole cache, `plan_shares = 1`),
    // and the planner entry every mode resolves through.  `run()` submits
    // one ticket, then polls it and steps the engine until the poll is
    // terminal (`QueryEngine::poll` of a submitted ticket reports the same
    // states).
    let mut engine = QueryEngine::new(ServeConfig {
        params: CacheParams::paper_pentium4(),
        plan_shares: Some(1),
        ..ServeConfig::default()
    });
    let larger = engine.register(workload.larger);
    let smaller = engine.register(workload.smaller);

    let report = engine
        .query(larger, smaller)
        .project(QuerySpec::symmetric(pi))
        .run()
        .expect("projection query");

    println!(
        "Planned DSM post-projection codes (larger/smaller): {}",
        report.stats.plan.label()
    );

    let t = &report.stats.timings;
    println!();
    println!(
        "result: {} tuples × {} columns (expected {} matches)",
        report.result.cardinality(),
        report.result.num_columns(),
        workload.expected_matches
    );
    println!("phase breakdown:");
    println!(
        "  join index (partitioned hash-join) : {:>9.3} ms",
        t.join.as_secs_f64() * 1e3
    );
    println!(
        "  join-index reorder (radix-cluster)  : {:>9.3} ms",
        t.reorder.as_secs_f64() * 1e3
    );
    println!(
        "  projections, larger side            : {:>9.3} ms",
        t.project_larger.as_secs_f64() * 1e3
    );
    println!(
        "  projections, smaller side           : {:>9.3} ms",
        t.project_smaller.as_secs_f64() * 1e3
    );
    println!(
        "  radix-decluster, smaller side       : {:>9.3} ms",
        t.decluster.as_secs_f64() * 1e3
    );
    println!(
        "  total                               : {:>9.3} ms",
        t.total_millis()
    );

    let projection_share = 1.0 - t.join.as_secs_f64() / t.total().as_secs_f64();
    println!();
    println!(
        "projection phases account for {:.0}% of the query — the paper's point that \
         projection handling must be part of any cache-conscious join.",
        projection_share * 100.0
    );
    assert_eq!(report.result.cardinality(), workload.expected_matches);
    assert_eq!(report.stats.rows, workload.expected_matches);
}
