//! DSM post-projection of variable-size (string) columns.
//!
//! Fixed-width columns go through the plain Radix-Decluster; string columns
//! (footnote 3 of §3: an offsets array into a separate heap) go through the
//! three-phase variable-size decluster of §5, producing an ordinary
//! [`VarColumn`](rdx_dsm::VarColumn) result.  This is the end-to-end path a MonetDB-style engine
//! would use for `SELECT larger.a…, smaller.name… FROM … WHERE key = key`.

use crate::cluster::{radix_cluster_oids, RadixClusterSpec};
use crate::decluster::choose_window_bytes;
use crate::decluster::varsize::radix_decluster_varsize;
use crate::error::{check_projection_widths, RdxError};
use crate::join::{join_cluster_spec, partitioned_hash_join};
use crate::strategy::common::{order_join_index, project_first_side, ProjectionCode};
use crate::strategy::{PhaseTimings, QuerySpec, StrategyOutcome};
use rdx_cache::CacheParams;
use rdx_dsm::{Column, DsmRelation, Oid, ResultRelation};
use std::time::Instant;

/// Executes a DSM post-projection that projects `spec` fixed-width columns
/// plus **all** variable-size columns of the smaller relation.
///
/// The fixed-width part follows the planner's usual `c/d`-style pipeline; each
/// string column is fetched with a clustered positional gather and put into
/// final order with the variable-size Radix-Decluster.
///
/// **Legacy surface**: thin panicking wrapper over
/// [`try_dsm_post_projection_with_strings`].
pub fn dsm_post_projection_with_strings(
    larger: &DsmRelation,
    smaller: &DsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
) -> StrategyOutcome {
    try_dsm_post_projection_with_strings(larger, smaller, spec, params)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`dsm_post_projection_with_strings`] with validation failures reported as
/// typed [`RdxError`]s instead of panics.
pub fn try_dsm_post_projection_with_strings(
    larger: &DsmRelation,
    smaller: &DsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
) -> Result<StrategyOutcome, RdxError> {
    check_projection_widths(
        spec.project_larger,
        larger.width(),
        spec.project_smaller,
        smaller.width(),
    )?;
    let mut timings = PhaseTimings::default();

    // Join index over the keys.
    let t = Instant::now();
    let join_spec = join_cluster_spec(smaller.cardinality(), params.cache_capacity());
    let join_index =
        partitioned_hash_join(larger.key().as_slice(), smaller.key().as_slice(), join_spec);
    timings.join = t.elapsed();

    // Larger side: partial cluster (or unsorted when resident) + gathers.
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

    // Smaller side: one partial clustering reused by every column (fixed and
    // variable width alike), then a decluster per column.
    let t = Instant::now();
    let cluster_spec =
        RadixClusterSpec::optimal_partial(smaller.cardinality(), 4, params.cache_capacity());
    let result_positions: Vec<Oid> = (0..second_oids.len() as Oid).collect();
    let clustered = radix_cluster_oids(&second_oids, &result_positions, cluster_spec);
    let window = choose_window_bytes(4, clustered.num_clusters(), params);

    let mut result = ResultRelation::new();
    for col in first_columns {
        result.push_column(Column::from_vec(col));
    }
    for b in 0..spec.project_smaller {
        let clust_values = smaller.attr(b).gather(clustered.keys());
        result.push_column(Column::from_vec(crate::decluster::radix_decluster(
            clust_values.as_slice(),
            clustered.payloads(),
            clustered.bounds(),
            window,
        )));
    }
    for var in smaller.var_attrs() {
        let clust_values = var.gather(clustered.keys());
        result.push_var_column(radix_decluster_varsize(
            &clust_values,
            clustered.payloads(),
            clustered.bounds(),
            window,
        ));
    }
    timings.decluster = t.elapsed();

    Ok(StrategyOutcome { result, timings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_dsm::VarColumn;
    use rdx_workload::RelationBuilder;
    use std::collections::HashMap;

    fn smaller_with_strings(n: usize) -> (DsmRelation, Vec<String>) {
        let mut rel = RelationBuilder::new(n).columns(1).seed(61).build_dsm();
        let strings: Vec<String> = (0..n).map(|i| format!("name-{}", i * 3)).collect();
        rel.push_var_attr(VarColumn::from_strs(strings.iter().map(String::as_str)));
        (rel, strings)
    }

    #[test]
    fn string_columns_come_out_in_result_order() {
        let n = 3_000;
        let larger = RelationBuilder::new(n).columns(1).seed(60).build_dsm();
        let (smaller, strings) = smaller_with_strings(n);
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();

        let out = dsm_post_projection_with_strings(&larger, &smaller, &spec, &params);
        assert_eq!(out.result.num_columns(), 3); // 1 int from each side + 1 string
        assert_eq!(out.result.var_columns().len(), 1);
        assert_eq!(out.result.cardinality(), n);

        // Key -> expected string (keys are unique permutations here).
        let by_key: HashMap<u64, &str> = smaller
            .key()
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, strings[i].as_str()))
            .collect();
        // Key -> larger attr value, to identify which larger row a result row came from.
        let larger_attr_by_key: HashMap<i32, u64> = larger
            .key()
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &k)| (larger.attr(0)[i], k))
            .collect();

        let int_col = &out.result.columns()[0];
        let str_col = &out.result.var_columns()[0];
        for r in 0..n {
            let key = larger_attr_by_key[&int_col[r]];
            assert_eq!(str_col.get_str(r), by_key[&key], "row {r}");
        }
    }

    #[test]
    fn works_without_any_string_columns() {
        let larger = RelationBuilder::new(500).columns(1).seed(62).build_dsm();
        let smaller = RelationBuilder::new(500).columns(1).seed(63).build_dsm();
        let out = dsm_post_projection_with_strings(
            &larger,
            &smaller,
            &QuerySpec::symmetric(1),
            &CacheParams::tiny_for_tests(),
        );
        assert_eq!(out.result.var_columns().len(), 0);
        assert_eq!(out.result.cardinality(), 500);
    }

    #[test]
    fn try_variant_reports_over_projection_as_typed_error() {
        use crate::error::{RdxError, Side};
        let larger = RelationBuilder::new(100).columns(1).seed(64).build_dsm();
        let smaller = RelationBuilder::new(100).columns(1).seed(65).build_dsm();
        let err = try_dsm_post_projection_with_strings(
            &larger,
            &smaller,
            &QuerySpec::symmetric(2),
            &CacheParams::tiny_for_tests(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            RdxError::TooManyColumns {
                side: Side::Larger,
                requested: 2,
                available: 1
            }
        );
    }
}
