//! Cross-crate integration tests: every projection strategy of the paper must
//! produce the same projected join result on the same workload, across hit
//! rates, projectivities and cardinalities.

use radix_decluster::core::strategy::reference::{reference_rows, result_rows};
use radix_decluster::prelude::*;
use radix_decluster::workload::{HitRate, JoinWorkloadBuilder};
use rdx_bench::paper::{
    dsm_pre_projection, nsm_post_projection_decluster, nsm_post_projection_jive,
    nsm_pre_projection_hash, nsm_pre_projection_phash,
};

/// The DSM post-projection's one materialise entry, on one worker.
fn dsm_post(
    plan: DsmPostProjection,
    larger: &DsmRelation,
    smaller: &DsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
) -> ResultRelation {
    let policy = ExecPolicy::with_threads(1);
    let (out, _) = ProjectionPipeline::new(plan)
        .materialize(larger, smaller, spec, params, &policy)
        .unwrap();
    out.result
}

fn check_all_strategies(n: usize, omega: usize, pi: usize, hit_rate: f64, seed: u64) {
    let workload = JoinWorkloadBuilder::equal(n, omega)
        .hit_rate(HitRate(hit_rate))
        .seed(seed)
        .build();
    let spec = QuerySpec::symmetric(pi);
    // The tiny hierarchy forces the cache-conscious code paths (clustering,
    // decluster windows, multi-pass partitioning) even at test sizes.
    let params = CacheParams::tiny_for_tests();
    let expected = reference_rows(&workload.larger, &workload.smaller, &spec);

    let (larger, smaller) = (&workload.larger, &workload.smaller);
    let planned = dsm_post(
        DsmPostProjection::plan(larger, smaller, &params),
        larger,
        smaller,
        &spec,
        &params,
    );
    assert_eq!(result_rows(&planned), expected, "DSM-post (planned)");

    for first in [
        ProjectionCode::Unsorted,
        ProjectionCode::Sorted,
        ProjectionCode::PartialCluster,
    ] {
        for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
            let plan = DsmPostProjection::with_codes(first, second);
            let out = dsm_post(plan, larger, smaller, &spec, &params);
            assert_eq!(
                result_rows(&out),
                expected,
                "DSM-post {}/{}",
                first.letter(),
                second.letter()
            );
        }
    }

    let out = dsm_pre_projection(larger, smaller, &spec, &params).unwrap();
    assert_eq!(result_rows(&out.result), expected, "DSM-pre-phash");

    let (larger_nsm, smaller_nsm) = (&workload.larger_nsm, &workload.smaller_nsm);
    let out = nsm_pre_projection_hash(larger_nsm, smaller_nsm, &spec).unwrap();
    assert_eq!(result_rows(&out.result), expected, "NSM-pre-hash");

    let out = nsm_pre_projection_phash(larger_nsm, smaller_nsm, &spec, &params).unwrap();
    assert_eq!(result_rows(&out.result), expected, "NSM-pre-phash");

    let out = nsm_post_projection_decluster(larger_nsm, smaller_nsm, &spec, &params).unwrap();
    assert_eq!(result_rows(&out.result), expected, "NSM-post-decluster");

    let out = nsm_post_projection_jive(larger_nsm, smaller_nsm, &spec, &params).unwrap();
    assert_eq!(result_rows(&out.result), expected, "NSM-post-jive");
}

#[test]
fn all_strategies_agree_hit_rate_one() {
    check_all_strategies(3_000, 4, 2, 1.0, 101);
}

#[test]
fn all_strategies_agree_hit_rate_three() {
    check_all_strategies(2_400, 2, 2, 3.0, 102);
}

#[test]
fn all_strategies_agree_hit_rate_one_third() {
    check_all_strategies(3_000, 2, 1, 1.0 / 3.0, 103);
}

#[test]
fn all_strategies_agree_high_projectivity() {
    check_all_strategies(1_200, 16, 16, 1.0, 104);
}

#[test]
fn all_strategies_agree_tiny_relation() {
    // Everything fits every cache level: the planner's u/u path.
    check_all_strategies(64, 2, 2, 1.0, 105);
}

#[test]
fn all_strategies_agree_larger_workload() {
    // Big enough that the paper-platform planner also chooses c/d.
    let workload = JoinWorkloadBuilder::equal(300_000, 1).seed(106).build();
    let spec = QuerySpec::symmetric(1);
    let params = CacheParams::paper_pentium4();
    let plan = DsmPostProjection::plan(&workload.larger, &workload.smaller, &params);
    assert_eq!(plan.label(), "c/d");
    let out = dsm_post(plan, &workload.larger, &workload.smaller, &spec, &params);
    assert_eq!(out.cardinality(), workload.expected_matches);
    let pre = dsm_pre_projection(&workload.larger, &workload.smaller, &spec, &params).unwrap();
    assert_eq!(result_rows(&out), result_rows(&pre.result));
}
