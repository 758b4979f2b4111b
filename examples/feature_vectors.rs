//! Feature-vector propagation: the high-projectivity extreme.
//!
//! The paper's introduction imagines "a join with thousands of projection
//! columns to propagate feature vectors in a multimedia application" and
//! reports that queries may spend more than 90% of their time in projection.
//! This example joins a table of media objects against a table of extracted
//! feature vectors (π = 64 columns) and compares the smaller-side projection
//! codes `u` (unsorted positional joins) and `d` (partial cluster +
//! Radix-Decluster), showing the decluster pipeline winning once the vectors
//! no longer fit the cache.
//!
//! ```text
//! cargo run --release --example feature_vectors [cardinality]
//! ```

use radix_decluster::prelude::*;

fn main() {
    let cardinality: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300_000);
    let features = 64;

    println!("Feature-vector propagation: N = {cardinality}, {features}-dimensional vectors");
    let workload = JoinWorkloadBuilder::equal(cardinality, features)
        .seed(3)
        .build();
    let params = CacheParams::paper_pentium4();
    // Project nothing from the probing side, the whole vector from the other.
    let spec = QuerySpec {
        project_larger: 0,
        project_smaller: features,
    };

    let materialize = |second_side| {
        let plan = DsmPostProjection::with_codes(ProjectionCode::Unsorted, second_side);
        let (out, _) = ProjectionPipeline::new(plan)
            .materialize(
                &workload.larger,
                &workload.smaller,
                &spec,
                &params,
                &ExecPolicy::with_threads(1),
            )
            .expect("the spec fits the workload");
        out
    };
    let unsorted = materialize(SecondSideCode::Unsorted);
    let declustered = materialize(SecondSideCode::Decluster);

    let u_ms = unsorted.timings.total_millis();
    let d_ms = declustered.timings.total_millis();
    println!();
    println!("smaller-side code u (unsorted positional joins) : {u_ms:>9.2} ms");
    println!("smaller-side code d (radix-decluster pipeline)  : {d_ms:>9.2} ms");
    println!(
        "projection share of total (code d): {:.0}%",
        100.0
            * (1.0
                - declustered.timings.join.as_secs_f64()
                    / declustered.timings.total().as_secs_f64())
    );
    println!();
    if cardinality * 4 > params.cache_capacity() {
        println!(
            "columns exceed the {} KB cache: the clustered/declustered access pattern is the one \
             that scales (speed-up over unsorted here: {:.2}×).",
            params.cache_capacity() / 1024,
            u_ms / d_ms
        );
    } else {
        println!("columns fit the cache: unsorted processing is expected to win at this size.");
    }

    assert_eq!(
        unsorted.result.cardinality(),
        declustered.result.cardinality()
    );
}
