//! OLAP-style scenario: wide tables, few projected columns.
//!
//! This is the workload the paper's introduction motivates DSM with — queries
//! that "touch many tuples but few columns".  We run the same projected join
//! with every strategy the paper compares (Fig. 10a) and print a small table
//! of total times, so the DSM-vs-NSM and pre-vs-post orderings can be seen on
//! this host.
//!
//! ```text
//! cargo run --release --example olap_projection [cardinality]
//! ```

use radix_decluster::prelude::*;
use rdx_bench::paper::{
    dsm_pre_projection, nsm_post_projection_decluster, nsm_post_projection_jive,
    nsm_pre_projection_hash, nsm_pre_projection_phash,
};

fn main() {
    let cardinality: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200_000);
    // ω = 16 stored columns, π = 2 projected from each side: low projectivity.
    let omega = 16;
    let pi = 2;

    println!("OLAP projection: N = {cardinality}, ω = {omega} stored columns, π = {pi} projected per side");
    let workload = JoinWorkloadBuilder::equal(cardinality, omega)
        .seed(11)
        .build();
    let params = CacheParams::paper_pentium4();
    let spec = QuerySpec::symmetric(pi);

    let mut rows: Vec<(String, f64, usize)> = Vec::new();

    let plan = DsmPostProjection::plan(&workload.larger, &workload.smaller, &params);
    let (out, _) = ProjectionPipeline::new(plan)
        .materialize(
            &workload.larger,
            &workload.smaller,
            &spec,
            &params,
            &ExecPolicy::with_threads(1),
        )
        .expect("π fits the workload");
    rows.push((
        format!("DSM-post-decluster ({})", plan.label()),
        out.timings.total_millis(),
        out.result.cardinality(),
    ));

    let out = dsm_pre_projection(&workload.larger, &workload.smaller, &spec, &params)
        .expect("π fits the workload");
    rows.push((
        "DSM-pre-phash".into(),
        out.timings.total_millis(),
        out.result.cardinality(),
    ));

    let out = nsm_pre_projection_phash(&workload.larger_nsm, &workload.smaller_nsm, &spec, &params)
        .expect("π fits the workload");
    rows.push((
        "NSM-pre-phash".into(),
        out.timings.total_millis(),
        out.result.cardinality(),
    ));

    let out = nsm_pre_projection_hash(&workload.larger_nsm, &workload.smaller_nsm, &spec)
        .expect("π fits the workload");
    rows.push((
        "NSM-pre-hash".into(),
        out.timings.total_millis(),
        out.result.cardinality(),
    ));

    let out =
        nsm_post_projection_decluster(&workload.larger_nsm, &workload.smaller_nsm, &spec, &params)
            .expect("π fits the workload");
    rows.push((
        "NSM-post-decluster".into(),
        out.timings.total_millis(),
        out.result.cardinality(),
    ));

    let out = nsm_post_projection_jive(&workload.larger_nsm, &workload.smaller_nsm, &spec, &params)
        .expect("π fits the workload");
    rows.push((
        "NSM-post-jive".into(),
        out.timings.total_millis(),
        out.result.cardinality(),
    ));

    println!();
    println!(
        "{:<32} {:>12} {:>12}",
        "strategy", "total [ms]", "result rows"
    );
    for (name, ms, n) in &rows {
        println!("{name:<32} {ms:>12.2} {n:>12}");
    }

    let all_equal = rows.iter().all(|(_, _, n)| *n == rows[0].2);
    println!();
    println!(
        "all strategies produced {} result tuples: {}",
        rows[0].2,
        if all_equal {
            "agreed ✓"
        } else {
            "MISMATCH ✗"
        }
    );
}
