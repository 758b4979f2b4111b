//! Calibrate-then-plan: measure the host's memory latency curve, derive cache
//! parameters from it, and show how the cost-based planner's choice of
//! projection codes depends on the machine it runs on.
//!
//! This mirrors how MonetDB uses the Calibrator (paper §1.1): the cost models
//! are hardware-independent formulas, and the machine-specific numbers are
//! measured at run time.
//!
//! ```text
//! cargo run --release --example calibrate [cardinality]
//! ```

use radix_decluster::cache::Calibrator;
use radix_decluster::core::strategy::plan_by_cost;
use radix_decluster::prelude::*;

fn main() {
    let cardinality: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2_000_000);

    println!("Measuring the host's dependent-load latency curve (pointer chase) …");
    let calibrator = Calibrator::default();
    let curve = calibrator.run();
    println!();
    println!("{:>14}  {:>12}", "working set", "latency [ns]");
    for p in &curve {
        println!("{:>12} KB  {:>12.2}", p.working_set / 1024, p.latency_ns);
    }

    let host_params = Calibrator::params_from_curve(&curve, 3.0e9);
    let paper_params = CacheParams::paper_pentium4();
    println!();
    println!(
        "derived miss latencies (cycles): L1 = {}, L2 = {}  (paper platform: 28, 350)",
        host_params.levels[0].miss_latency_cycles, host_params.levels[1].miss_latency_cycles
    );

    let workload = JoinWorkloadBuilder::equal(cardinality, 4).seed(17).build();
    let spec = QuerySpec::symmetric(4);
    let host_plan = plan_by_cost(&workload.larger, &workload.smaller, &spec, &host_params);
    let paper_plan = plan_by_cost(&workload.larger, &workload.smaller, &spec, &paper_params);
    println!();
    println!(
        "cost-based plan for N = {cardinality}: host-calibrated parameters → {}, paper Pentium 4 → {}",
        host_plan.label(),
        paper_plan.label()
    );

    let (outcome, _) = ProjectionPipeline::new(host_plan)
        .materialize(
            &workload.larger,
            &workload.smaller,
            &spec,
            &host_params,
            &ExecPolicy::with_threads(1),
        )
        .expect("π = 4 fits the workload");
    println!(
        "executed host-calibrated plan: {} result tuples in {:.2} ms",
        outcome.result.cardinality(),
        outcome.timings.total_millis()
    );
}
