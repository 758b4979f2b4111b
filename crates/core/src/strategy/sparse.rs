//! DSM post-projection with a *sparse* smaller side (paper §4.1 "Sparse
//! Projections", the error bars of Fig. 10).
//!
//! When the smaller join input is a selection over a larger base table, the
//! join runs over the selected keys, but the projection columns still live in
//! the base table.  The post-projection pipeline is unchanged except that the
//! smaller-side positional joins go through the selection's oid mapping, so
//! every cache line they load from the base column is only fractionally
//! useful — the effect Fig. 11 quantifies in isolation.

use crate::cluster::{radix_cluster_oids, RadixClusterSpec};
use crate::decluster::{choose_window_bytes, radix_decluster};
use crate::error::{check_projection_widths, RdxError};
use crate::join::{join_cluster_spec, partitioned_hash_join};
use crate::positional::positional_join;
use crate::strategy::common::{order_join_index, project_first_side, ProjectionCode};
use crate::strategy::{PhaseTimings, QuerySpec, StrategyOutcome};
use rdx_cache::CacheParams;
use rdx_dsm::{Column, DsmRelation, Oid, ResultRelation, Selection};
// (Selection is used for the public signature; the sparse fetches themselves
// go through the rebased base-table oids.)
use std::time::Instant;

/// Executes DSM post-projection where the smaller relation is `selection` over
/// `smaller_base` (the larger relation is a plain table, as in Fig. 10).
///
/// The join key column of the selection is materialised from the base table
/// (that is what a selection operator produces); the projection columns are
/// *not* materialised — they are fetched sparsely from the base table during
/// the projection phase, which is the whole point of the experiment.
///
/// **Legacy surface**: thin panicking wrapper over
/// [`try_dsm_post_projection_sparse`].
pub fn dsm_post_projection_sparse(
    larger: &DsmRelation,
    smaller_base: &DsmRelation,
    selection: &Selection,
    spec: &QuerySpec,
    params: &CacheParams,
) -> StrategyOutcome {
    try_dsm_post_projection_sparse(larger, smaller_base, selection, spec, params)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`dsm_post_projection_sparse`] with validation failures — over-wide
/// specs, and a selection that does not belong to the supplied base table —
/// reported as typed [`RdxError`]s instead of panics.
pub fn try_dsm_post_projection_sparse(
    larger: &DsmRelation,
    smaller_base: &DsmRelation,
    selection: &Selection,
    spec: &QuerySpec,
    params: &CacheParams,
) -> Result<StrategyOutcome, RdxError> {
    check_projection_widths(
        spec.project_larger,
        larger.width(),
        spec.project_smaller,
        smaller_base.width(),
    )?;
    if selection.base_cardinality() != smaller_base.cardinality() {
        return Err(RdxError::SelectionMismatch {
            selection_base: selection.base_cardinality(),
            base_cardinality: smaller_base.cardinality(),
        });
    }
    let mut timings = PhaseTimings::default();

    // Join phase: the smaller side's key column is the selected keys.
    let t = Instant::now();
    let selected_keys = selection.project_key(smaller_base.key());
    let join_spec = join_cluster_spec(selection.len(), params.cache_capacity());
    let join_index =
        partitioned_hash_join(larger.key().as_slice(), selected_keys.as_slice(), join_spec);
    timings.join = t.elapsed();

    // First side: partial cluster + positional joins, exactly as the dense
    // strategy does.
    let t = Instant::now();
    let code = if larger.cardinality() * 4 <= params.cache_capacity() {
        ProjectionCode::Unsorted
    } else {
        ProjectionCode::PartialCluster
    };
    let (first_oids, second_oids) =
        order_join_index(&join_index, code, larger.cardinality(), 4, params);
    timings.reorder = t.elapsed();

    let t = Instant::now();
    let first_columns = project_first_side(&first_oids, spec.project_larger, larger);
    timings.project_larger = t.elapsed();

    // Second side: cluster on the *base-table* oids (that is the region the
    // sparse positional joins will touch), then decluster each column.
    let t = Instant::now();
    let base_oids: Vec<Oid> = selection.rebase(&second_oids);
    let cluster_spec =
        RadixClusterSpec::optimal_partial(smaller_base.cardinality(), 4, params.cache_capacity());
    let result_positions: Vec<Oid> = (0..base_oids.len() as Oid).collect();
    let clustered = radix_cluster_oids(&base_oids, &result_positions, cluster_spec);
    let window = choose_window_bytes(4, clustered.num_clusters(), params);
    let mut second_columns = Vec::with_capacity(spec.project_smaller);
    for b in 0..spec.project_smaller {
        // The clustered oids are already base-table oids (rebased above), so
        // this positional join touches the base column sparsely: only the
        // selected fraction of each loaded cache line is useful.
        let clust_values = positional_join(clustered.keys(), smaller_base.attr(b));
        second_columns.push(radix_decluster(
            clust_values.as_slice(),
            clustered.payloads(),
            clustered.bounds(),
            window,
        ));
    }
    timings.decluster = t.elapsed();

    let mut result = ResultRelation::new();
    for col in first_columns.into_iter().chain(second_columns) {
        result.push_column(Column::from_vec(col));
    }
    Ok(StrategyOutcome { result, timings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::reference::{reference_rows, result_rows};
    use rdx_workload::{RelationBuilder, SparseWorkload};

    /// Builds the dense "view" of a sparse workload (the relation a selection
    /// would materialise) so the reference executor can be reused.
    fn materialise_selection(base: &DsmRelation, selection: &Selection) -> DsmRelation {
        let keys = selection.project_key(base.key());
        let mut rel = DsmRelation::from_key(keys);
        for a in 0..base.width() {
            rel.push_attr(base.attr(a).gather(selection.oids()));
        }
        rel
    }

    #[test]
    fn sparse_strategy_matches_dense_reference() {
        for selectivity in [1.0, 0.1, 0.01] {
            let sparse = SparseWorkload::generate(2_000, selectivity, 2, 31);
            let larger = RelationBuilder::new(3_000)
                .columns(2)
                .seed(32)
                .key_domain(2_000)
                .build_dsm();
            let spec = QuerySpec::symmetric(2);
            let params = CacheParams::tiny_for_tests();

            let out = dsm_post_projection_sparse(
                &larger,
                &sparse.base,
                &sparse.selection,
                &spec,
                &params,
            );

            let dense_smaller = materialise_selection(&sparse.base, &sparse.selection);
            let expected = reference_rows(&larger, &dense_smaller, &spec);
            assert_eq!(
                result_rows(&out.result),
                expected,
                "selectivity {selectivity}"
            );
        }
    }

    #[test]
    fn full_selection_equals_dense_strategy() {
        let sparse = SparseWorkload::generate(1_500, 1.0, 1, 40);
        let larger = RelationBuilder::new(1_500)
            .columns(1)
            .seed(41)
            .key_domain(1_500)
            .build_dsm();
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();
        let sparse_out =
            dsm_post_projection_sparse(&larger, &sparse.base, &sparse.selection, &spec, &params);
        let dense = crate::strategy::DsmPostProjection::plan(&larger, &sparse.base, &params)
            .execute(&larger, &sparse.base, &spec, &params);
        assert_eq!(result_rows(&sparse_out.result), result_rows(&dense.result));
    }

    #[test]
    #[should_panic]
    fn mismatched_selection_rejected() {
        let sparse = SparseWorkload::generate(100, 0.5, 1, 1);
        let other_base = RelationBuilder::new(50).columns(1).build_dsm();
        let larger = RelationBuilder::new(100).columns(1).build_dsm();
        dsm_post_projection_sparse(
            &larger,
            &other_base,
            &sparse.selection,
            &QuerySpec::symmetric(1),
            &CacheParams::tiny_for_tests(),
        );
    }

    #[test]
    fn try_variant_reports_mismatch_and_over_projection_as_typed_errors() {
        use crate::error::{RdxError, Side};
        let sparse = SparseWorkload::generate(100, 0.5, 1, 1);
        let other_base = RelationBuilder::new(50).columns(1).build_dsm();
        let larger = RelationBuilder::new(100).columns(1).build_dsm();
        let params = CacheParams::tiny_for_tests();
        let err = try_dsm_post_projection_sparse(
            &larger,
            &other_base,
            &sparse.selection,
            &QuerySpec::symmetric(1),
            &params,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RdxError::SelectionMismatch {
                selection_base: sparse.selection.base_cardinality(),
                base_cardinality: 50
            }
        );
        let err = try_dsm_post_projection_sparse(
            &larger,
            &sparse.base,
            &sparse.selection,
            &QuerySpec {
                project_larger: 1,
                project_smaller: 3,
            },
            &params,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RdxError::TooManyColumns {
                side: Side::Smaller,
                requested: 3,
                ..
            }
        ));
    }
}
