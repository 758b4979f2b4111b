//! NSM post-projection (§4.2 "NSM Post-Projection Alternatives").
//!
//! Both variants first create the join index from the key attribute alone —
//! which already costs a full scan of the wide NSM records — and then go back
//! to the base tables to fetch the projected attributes:
//!
//! * `NSM-post-decluster` reuses the DSM post-projection machinery
//!   (partial cluster for the larger side, Radix-Decluster for the smaller
//!   side), but every fetch reads from a wide NSM record, one block of one
//!   attribute at a time through [`NsmRelation::gather_attr_into`], so each
//!   cache line loaded carries mostly unneeded attributes — the `O(C²/T²)`
//!   scalability penalty the paper derives.
//! * `NSM-post-jive` uses Jive-Join \[LR99\] for the projection phase.

use crate::paper::jive::{jive_bits, jive_join_projection};
use rdx_cache::CacheParams;
use rdx_core::cluster::{plan_partial_cluster, radix_cluster_oids};
use rdx_core::decluster::{choose_window_bytes, radix_decluster};
use rdx_core::error::{check_projection_widths, RdxError};
use rdx_core::join::{join_cluster_spec, partitioned_hash_join};
use rdx_core::strategy::{PhaseTimings, QuerySpec, StrategyOutcome};
use rdx_dsm::{Column, Oid, ResultRelation};
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
    let (first_oids, second_oids, _) = radix_cluster_oids(
        join_index.larger(),
        join_index.smaller(),
        plan_partial_cluster(larger.cardinality(), larger.tuple_bytes(), params),
    )
    .into_parts();
    timings.reorder = t.elapsed();

    let t = Instant::now();
    let first_columns = project_columns(&first_oids, spec.project_larger, larger);
    timings.project_larger = t.elapsed();

    let t = Instant::now();
    let second_columns =
        project_second_side_decluster(&second_oids, spec.project_smaller, smaller, params);
    timings.decluster = t.elapsed();

    let mut result = ResultRelation::new();
    for col in first_columns.into_iter().chain(second_columns) {
        result.push_column(Column::from_vec(col));
    }
    Ok(StrategyOutcome { result, timings })
}

/// Projects `n_attrs` columns of `source`: for every result row `r`, fetch
/// attribute `a` of `oids[r]`.  The access pattern is whatever the ordering
/// step made of `oids`.
fn project_columns(oids: &[Oid], n_attrs: usize, source: &NsmRelation) -> Vec<Vec<i32>> {
    (0..n_attrs)
        .map(|a| {
            let mut column = vec![0; oids.len()];
            // Attribute 0 of the record is the join key.
            source.gather_attr_into(a + 1, oids, &mut column);
            column
        })
        .collect()
}

/// Projects the second side with the Radix-Decluster pipeline of Fig. 4:
///
/// 1. partially Radix-Cluster `(second_oid, result_position)` on the second
///    oid (`CLUST_SMALLER` / `CLUST_RESULT`);
/// 2. per projected column, a clustered positional join produces
///    `CLUST_VALUES`;
/// 3. Radix-Decluster puts the values into final result order.
///
/// The clustering and the insertion window are sized by the full record
/// width, as for the first side.
fn project_second_side_decluster(
    second_oids_in_result_order: &[Oid],
    n_attrs: usize,
    source: &NsmRelation,
    params: &CacheParams,
) -> Vec<Vec<i32>> {
    let (n, value_width) = (second_oids_in_result_order.len(), source.tuple_bytes());
    let result_positions: Vec<Oid> = (0..n as Oid).collect();
    let clustered = radix_cluster_oids(
        second_oids_in_result_order,
        &result_positions,
        plan_partial_cluster(source.cardinality(), value_width, params),
    );
    let window = choose_window_bytes(value_width, clustered.num_clusters(), params);

    // One CLUST_VALUES staging column, refilled per projected attribute.
    let mut clust_values = vec![0; n];
    (0..n_attrs)
        .map(|a| {
            // CLUST_VALUES: clustered positional join into the source column.
            source.gather_attr_into(a + 1, clustered.keys(), &mut clust_values);
            // Radix-Decluster into final result order.
            radix_decluster(
                &clust_values,
                clustered.payloads(),
                clustered.bounds(),
                window,
            )
        })
        .collect()
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
        params,
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
    use rdx_core::strategy::reference::{reference_rows, result_rows};
    use rdx_dsm::JoinIndex;
    use rdx_workload::{HitRate, JoinWorkloadBuilder};

    #[test]
    fn order_partial_cluster_keeps_pairs() {
        let ji = JoinIndex::from_pairs([(5, 1), (0, 3), (3, 3), (1, 0), (4, 2), (2, 1)]);
        let params = CacheParams::paper_pentium4();
        // The first-side reorder of `nsm_post_projection_decluster`.
        let (l, s, _) = radix_cluster_oids(
            ji.larger(),
            ji.smaller(),
            plan_partial_cluster(6, 4, &params),
        )
        .into_parts();
        let mut pairs: Vec<_> = l.iter().zip(&s).map(|(&a, &b)| (a, b)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, ji.canonical_pairs());
    }

    #[test]
    fn dsm_and_nsm_sources_serve_the_same_blocks() {
        use rdx_cache::NoProbe;
        use rdx_core::positional::{AttrSource, OidBlock};
        let mut nsm = NsmRelation::new(3);
        for row in 0..50 {
            nsm.push_tuple(&[row, row * 10, -row]);
        }
        let dsm = nsm.to_dsm();
        let oids = [49, 0, 7, 7, 31];
        // The NSM fetch of the post-projection, against the DSM source the
        // served pipeline fetches through.
        let from_nsm = project_columns(&oids, 2, &nsm);
        for (attr, nsm_column) in from_nsm.iter().enumerate() {
            let mut from_dsm = [0; 5];
            dsm.gather_into(attr, OidBlock::Wide(&oids), &mut from_dsm, &mut NoProbe);
            assert_eq!(from_dsm.as_slice(), nsm_column, "attr {attr}");
            assert_eq!(from_dsm[0], dsm.attr(attr).value(49));
        }
    }

    #[test]
    fn second_side_decluster_matches_unsorted() {
        let mut rel = NsmRelation::new(3);
        for i in 0..1000 {
            rel.push_tuple(&[i, i * 10, i * 10 + 1]);
        }
        // Second-side oids in some arbitrary result order, with duplicates.
        let oids: Vec<Oid> = (0..3000).map(|r| ((r * 37 + 11) % 1000) as Oid).collect();
        let params = CacheParams::tiny_for_tests();
        let unsorted = project_columns(&oids, 2, &rel);
        let declustered = project_second_side_decluster(&oids, 2, &rel, &params);
        assert_eq!(unsorted, declustered);
    }

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
        use rdx_core::error::{RdxError, Side};
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
