//! NSM post-projection (§4.2 "NSM Post-Projection Alternatives").
//!
//! Both variants first create the join index from the key attribute alone —
//! which already costs a full scan of the wide NSM records — and then go back
//! to the base tables to fetch the projected attributes:
//!
//! * `NSM-post-decluster` reuses the DSM post-projection machinery
//!   (partial cluster for the larger side, Radix-Decluster for the smaller
//!   side), but every fetch reads from a wide NSM record, so each cache line
//!   loaded carries mostly unneeded attributes — the `O(C²/T²)` scalability
//!   penalty the paper derives.
//! * `NSM-post-jive` uses Jive-Join \[LR99\] for the projection phase.

use crate::error::{check_projection_widths, RdxError};
use crate::jive::{jive_bits, jive_join_projection};
use crate::join::{join_cluster_spec, partitioned_hash_join};
use crate::strategy::common::{
    order_join_index, project_first_side, project_second_side_decluster, ProjectionCode,
};
use crate::strategy::{PhaseTimings, QuerySpec, StrategyOutcome};
use rdx_cache::CacheParams;
use rdx_dsm::{Column, ResultRelation};
use rdx_nsm::NsmRelation;
use std::time::Instant;

/// Scans the key attribute out of the NSM records (the unavoidable first step
/// of any NSM post-projection) and builds the join index with Partitioned
/// Hash-Join.
fn nsm_join_index(
    larger: &NsmRelation,
    smaller: &NsmRelation,
    params: &CacheParams,
) -> rdx_dsm::JoinIndex {
    let larger_keys: Vec<u64> = (0..larger.cardinality()).map(|r| larger.key(r)).collect();
    let smaller_keys: Vec<u64> = (0..smaller.cardinality()).map(|r| smaller.key(r)).collect();
    let spec = join_cluster_spec(smaller.cardinality(), params.cache_capacity());
    partitioned_hash_join(&larger_keys, &smaller_keys, spec)
}

/// NSM post-projection using partial clustering + Radix-Decluster.
///
/// Validation failures are reported as typed [`RdxError`]s (the join-key
/// attribute is not projectable, so an NSM relation of width `ω` offers
/// `ω − 1` columns).
pub fn nsm_post_projection_decluster(
    larger: &NsmRelation,
    smaller: &NsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
) -> Result<StrategyOutcome, RdxError> {
    check_projection_widths(
        spec.project_larger,
        larger.width().saturating_sub(1),
        spec.project_smaller,
        smaller.width().saturating_sub(1),
    )?;
    let mut timings = PhaseTimings::default();

    let t = Instant::now();
    let join_index = nsm_join_index(larger, smaller, params);
    timings.join = t.elapsed();

    // First side: partial cluster on the larger oids, then fetch attributes
    // from the wide records.  The "effective" value width for the clustering
    // formula is the full record width — that is what a cache line fetch
    // actually drags in, and what limits NSM scalability (§4.2).
    let t = Instant::now();
    let (first_oids, second_oids) = order_join_index(
        &join_index,
        ProjectionCode::PartialCluster,
        larger.cardinality(),
        larger.tuple_bytes(),
        params,
    );
    timings.reorder = t.elapsed();

    let t = Instant::now();
    let first_columns = project_first_side(&first_oids, spec.project_larger, larger);
    timings.project_larger = t.elapsed();

    let t = Instant::now();
    let (second_columns, _clusters) = project_second_side_decluster(
        &second_oids,
        spec.project_smaller,
        smaller,
        smaller.cardinality(),
        smaller.tuple_bytes(),
        params,
    );
    timings.decluster = t.elapsed();

    let mut result = ResultRelation::new();
    for col in first_columns.into_iter().chain(second_columns) {
        result.push_column(Column::from_vec(col));
    }
    Ok(StrategyOutcome { result, timings })
}

/// NSM post-projection using Jive-Join for the projection phase.
///
/// Validation failures are reported as typed [`RdxError`]s.
pub fn nsm_post_projection_jive(
    larger: &NsmRelation,
    smaller: &NsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
) -> Result<StrategyOutcome, RdxError> {
    check_projection_widths(
        spec.project_larger,
        larger.width().saturating_sub(1),
        spec.project_smaller,
        smaller.width().saturating_sub(1),
    )?;
    let mut timings = PhaseTimings::default();

    let t = Instant::now();
    let join_index = nsm_join_index(larger, smaller, params);
    timings.join = t.elapsed();

    let t = Instant::now();
    let bits = jive_bits(
        smaller.cardinality(),
        smaller.tuple_bytes(),
        params.cache_capacity(),
    );
    let jive = jive_join_projection(
        &join_index,
        spec.project_larger,
        |oid, a| larger.value(oid as usize, a + 1),
        spec.project_smaller,
        |oid, b| smaller.value(oid as usize, b + 1),
        smaller.cardinality(),
        bits,
    );
    timings.project_larger = t.elapsed();

    let mut result = ResultRelation::new();
    for col in jive.larger_columns.into_iter().chain(jive.smaller_columns) {
        result.push_column(Column::from_vec(col));
    }
    Ok(StrategyOutcome { result, timings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::reference::{reference_rows, result_rows};
    use rdx_workload::{HitRate, JoinWorkloadBuilder};

    #[test]
    fn decluster_variant_matches_reference() {
        let w = JoinWorkloadBuilder::equal(2_000, 3).seed(21).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let out =
            nsm_post_projection_decluster(&w.larger_nsm, &w.smaller_nsm, &spec, &params).unwrap();
        assert_eq!(
            result_rows(&out.result),
            reference_rows(&w.larger, &w.smaller, &spec)
        );
    }

    #[test]
    fn jive_variant_matches_reference() {
        let w = JoinWorkloadBuilder::equal(2_000, 3).seed(22).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let out = nsm_post_projection_jive(&w.larger_nsm, &w.smaller_nsm, &spec, &params).unwrap();
        assert_eq!(
            result_rows(&out.result),
            reference_rows(&w.larger, &w.smaller, &spec)
        );
    }

    #[test]
    fn both_variants_agree_under_low_hit_rate() {
        let w = JoinWorkloadBuilder::equal(1_200, 2)
            .hit_rate(HitRate(1.0 / 3.0))
            .seed(23)
            .build();
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();
        let a =
            nsm_post_projection_decluster(&w.larger_nsm, &w.smaller_nsm, &spec, &params).unwrap();
        let b = nsm_post_projection_jive(&w.larger_nsm, &w.smaller_nsm, &spec, &params).unwrap();
        assert_eq!(result_rows(&a.result), result_rows(&b.result));
        assert_eq!(a.result.cardinality(), w.expected_matches);
    }

    #[test]
    fn the_key_exclusive_width_is_a_typed_error() {
        use crate::error::{RdxError, Side};
        // ω = 2 record: one key + one projectable attribute.
        let w = JoinWorkloadBuilder::equal(300, 1).seed(24).build();
        let params = CacheParams::tiny_for_tests();
        let spec = QuerySpec {
            project_larger: 1,
            project_smaller: 2,
        };
        for err in [
            nsm_post_projection_decluster(&w.larger_nsm, &w.smaller_nsm, &spec, &params)
                .unwrap_err(),
            nsm_post_projection_jive(&w.larger_nsm, &w.smaller_nsm, &spec, &params).unwrap_err(),
        ] {
            assert_eq!(
                err,
                RdxError::TooManyColumns {
                    side: Side::Smaller,
                    requested: 2,
                    available: 1
                }
            );
        }
    }
}
