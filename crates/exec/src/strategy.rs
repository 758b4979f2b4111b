//! Parallel end-to-end projected-join strategies.
//!
//! These executors mirror the sequential phase structure of
//! [`rdx_core::strategy`] — join → reorder → project first side → project /
//! decluster second side — and report the same [`PhaseTimings`] fields, so
//! the figure harness can compare sequential and parallel runs phase by
//! phase.  Every phase runs on the morsel pool:
//!
//! * the **join** uses [`par_partitioned_hash_join`];
//! * the **reorder** uses the parallel cluster/sort kernels;
//! * the **positional joins** are morsel-parallel gathers into disjoint
//!   output chunks;
//! * the **decluster** runs one insertion-window range per worker, with the
//!   window sized to each core's *share* of the cache
//!   ([`CacheParams::per_core_share`]) — narrower than the sequential
//!   window, because `threads` workers now compete for the same last-level
//!   cache.
//!
//! Results are byte-identical to the sequential executors: each parallel
//! phase reproduces its sequential counterpart's output exactly (window size
//! affects only the access pattern, never the values).

use crate::cluster::{par_radix_cluster_oids_with_scratch, ParClusterScratch};
use crate::decluster::par_radix_decluster;
use crate::join::par_partitioned_hash_join;
use crate::pool::{for_each_output_morsel, ExecPolicy};
use rdx_cache::CacheParams;
use rdx_core::cluster::{
    plan_cluster_passes, plan_partial_cluster, Clustered, RadixClusterSpec, OID_PAIR_BYTES,
};
use rdx_core::decluster::choose_window_bytes;
use rdx_core::hash::significant_bits;
use rdx_core::join::join_cluster_spec;
use rdx_core::positional::{AttrSource, OidBlock};
use rdx_core::strategy::{
    DsmPostProjection, PhaseTimings, ProjectionCode, QuerySpec, SecondSideCode, StrategyOutcome,
};
use rdx_dsm::{Column, DsmRelation, JoinIndex, Oid, ResultRelation};
use rdx_nsm::NsmRelation;
use std::time::Instant;

/// Width of the fixed-size attribute values (the paper's integer columns).
const VALUE_WIDTH: usize = 4;

/// Parallel [`rdx_core::strategy::common::order_join_index`]: reorders the
/// join index per the first-side code using the parallel cluster kernels.
pub fn par_order_join_index(
    join_index: &JoinIndex,
    code: ProjectionCode,
    first_cardinality: usize,
    value_width: usize,
    params: &CacheParams,
    policy: &ExecPolicy,
) -> (Vec<Oid>, Vec<Oid>) {
    match code {
        ProjectionCode::Unsorted => (join_index.larger().to_vec(), join_index.smaller().to_vec()),
        ProjectionCode::Sorted => {
            // Radix-Sort with passes and scatter mode from the same
            // `plan_cluster_passes` rule the cost planner prices.
            let bits = significant_bits(first_cardinality);
            let (passes, mode) = plan_cluster_passes(bits, OID_PAIR_BYTES, params);
            let sorted = par_radix_cluster_oids_with_scratch(
                join_index.larger(),
                join_index.smaller(),
                RadixClusterSpec::partial(bits, passes, 0),
                mode,
                policy,
                &mut ParClusterScratch::new(),
            );
            let (keys, payloads, _) = sorted.into_parts();
            (keys, payloads)
        }
        ProjectionCode::PartialCluster => {
            let (keys, payloads, _) = par_partial_cluster_join_index(
                join_index,
                first_cardinality,
                value_width,
                params,
                policy,
            )
            .into_parts();
            (keys, payloads)
        }
    }
}

/// The `c` reorder of [`par_order_join_index`], returned as the clustering
/// itself — keys are the first side's oids, payloads the second side's — so
/// a caller that keeps the index can pack it under its cluster bounds.
pub fn par_partial_cluster_join_index(
    join_index: &JoinIndex,
    first_cardinality: usize,
    value_width: usize,
    params: &CacheParams,
    policy: &ExecPolicy,
) -> Clustered<Oid, Oid> {
    let (spec, mode) = plan_partial_cluster(first_cardinality, value_width, OID_PAIR_BYTES, params);
    par_radix_cluster_oids_with_scratch(
        join_index.larger(),
        join_index.smaller(),
        spec,
        mode,
        policy,
        &mut ParClusterScratch::new(),
    )
}

/// Morsel-parallel block fetch of one column: `out[r]` = attribute `attr` of
/// tuple `oids[r]`, with the source asked once per **morsel** — never per
/// value (the contract of [`AttrSource`]) — whether the oids are plain or
/// packed.  The form is matched once per column, so each morsel loop is
/// the plain one of its form.
pub fn par_gather_into<S: AttrSource + Sync + ?Sized>(
    source: &S,
    attr: usize,
    oids: OidBlock<'_>,
    policy: &ExecPolicy,
    out: &mut [i32],
) {
    match oids {
        OidBlock::Wide(oids) => for_each_output_morsel(out, policy, |offset, block| {
            source.gather_into(attr, &oids[offset..offset + block.len()], block);
        }),
        OidBlock::Packed(oids) => for_each_output_morsel(out, policy, |offset, block| {
            source.gather_packed_into(attr, oids.slice(offset..offset + block.len()), block);
        }),
    }
}

/// Morsel-parallel positional joins: projects the first `n_attrs` attributes
/// of `source` through `oids`, one [`par_gather_into`] per column.
pub fn par_project_columns<S: AttrSource + Sync + ?Sized>(
    oids: &[Oid],
    n_attrs: usize,
    source: &S,
    policy: &ExecPolicy,
) -> Vec<Vec<i32>> {
    let mut columns: Vec<Vec<i32>> = (0..n_attrs).map(|_| Vec::new()).collect();
    par_project_columns_into(OidBlock::Wide(oids), source, policy, &mut columns);
    columns
}

/// [`par_project_columns`] into reused column buffers: each of `columns` is
/// resized to `oids.len()` (keeping its capacity) and filled in place, so a
/// caller projecting chunk after chunk allocates nothing once the buffers
/// have grown — the streaming pipeline's steady state.  Column `b` is
/// filled with attribute `b`.
pub fn par_project_columns_into<S: AttrSource + Sync + ?Sized>(
    oids: OidBlock<'_>,
    source: &S,
    policy: &ExecPolicy,
    columns: &mut [Vec<i32>],
) {
    for (attr, column) in columns.iter_mut().enumerate() {
        column.resize(oids.len(), 0);
        par_gather_into(source, attr, oids, policy, column);
    }
}

/// Parallel second-side Radix-Decluster pipeline (Fig. 4): parallel partial
/// cluster, morsel-parallel clustered positional join, parallel decluster.
/// The insertion window is sized to each worker's cache share.
pub fn par_project_second_side_decluster<S: AttrSource + Sync + ?Sized>(
    second_oids_in_result_order: &[Oid],
    n_attrs: usize,
    source: &S,
    second_cardinality: usize,
    value_width: usize,
    params: &CacheParams,
    policy: &ExecPolicy,
) -> (Vec<Vec<i32>>, usize) {
    let n = second_oids_in_result_order.len();
    let (spec, mode) =
        plan_partial_cluster(second_cardinality, value_width, OID_PAIR_BYTES, params);
    let result_positions: Vec<Oid> = (0..n as Oid).collect();
    let clustered = par_radix_cluster_oids_with_scratch(
        second_oids_in_result_order,
        &result_positions,
        spec,
        mode,
        policy,
        &mut ParClusterScratch::new(),
    );
    let window = choose_window_bytes(
        value_width,
        clustered.num_clusters(),
        &params.per_core_share(policy.worker_threads()),
    );

    // One CLUST_VALUES staging column, refilled per projected attribute.
    let mut clust_values = vec![0i32; n];
    let columns = (0..n_attrs)
        .map(|attr| {
            par_gather_into(
                source,
                attr,
                OidBlock::Wide(clustered.keys()),
                policy,
                &mut clust_values,
            );
            par_radix_decluster(
                &clust_values,
                clustered.payloads(),
                clustered.bounds(),
                window,
                policy,
            )
        })
        .collect();
    (columns, clustered.num_clusters())
}

/// Parallel DSM post-projection: the morsel-parallel counterpart of
/// [`DsmPostProjection::execute`], byte-identical results, same
/// [`PhaseTimings`] semantics.
///
/// # Panics
/// Panics if the query asks for more projection columns than a relation has.
pub fn par_dsm_post_projection(
    plan: &DsmPostProjection,
    larger: &DsmRelation,
    smaller: &DsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
    policy: &ExecPolicy,
) -> StrategyOutcome {
    assert!(
        spec.project_larger <= larger.width(),
        "larger side has too few columns"
    );
    assert!(
        spec.project_smaller <= smaller.width(),
        "smaller side has too few columns"
    );
    let mut timings = PhaseTimings::default();

    // Phase 1: join index over the key columns only.
    let t = Instant::now();
    let join_spec = join_cluster_spec(smaller.cardinality(), params.cache_capacity());
    let join_index = par_partitioned_hash_join(
        larger.key().as_slice(),
        smaller.key().as_slice(),
        join_spec,
        policy,
    );
    timings.join = t.elapsed();

    // Phase 2a: reorder for the first side.
    let t = Instant::now();
    let (first_oids, second_oids) = par_order_join_index(
        &join_index,
        plan.first_side,
        larger.cardinality(),
        VALUE_WIDTH,
        params,
        policy,
    );
    timings.reorder = t.elapsed();

    // Phase 2b: project the first side.
    let t = Instant::now();
    let first_columns = par_project_columns(&first_oids, spec.project_larger, larger, policy);
    timings.project_larger = t.elapsed();

    // Phase 3: project the second side.
    let t = Instant::now();
    let second_columns = match plan.second_side {
        SecondSideCode::Unsorted => {
            let cols = par_project_columns(&second_oids, spec.project_smaller, smaller, policy);
            timings.project_smaller = t.elapsed();
            cols
        }
        SecondSideCode::Decluster => {
            let (cols, _clusters) = par_project_second_side_decluster(
                &second_oids,
                spec.project_smaller,
                smaller,
                smaller.cardinality(),
                VALUE_WIDTH,
                params,
                policy,
            );
            timings.decluster = t.elapsed();
            cols
        }
    };

    let mut result = ResultRelation::new();
    for col in first_columns.into_iter().chain(second_columns) {
        result.push_column(Column::from_vec(col));
    }
    StrategyOutcome { result, timings }
}

/// Parallel NSM post-projection with Radix-Decluster: the morsel-parallel
/// counterpart of [`rdx_core::strategy::nsm_post_projection_decluster`].
///
/// # Panics
/// Panics if the query asks for more projection columns than a relation has
/// beyond its key attribute.
pub fn par_nsm_post_projection_decluster(
    larger: &NsmRelation,
    smaller: &NsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
    policy: &ExecPolicy,
) -> StrategyOutcome {
    assert!(spec.project_larger < larger.width());
    assert!(spec.project_smaller < smaller.width());
    let mut timings = PhaseTimings::default();

    // Phase 1: scan the key attribute out of the wide records (morsel
    // parallel — the scan is the unavoidable NSM entry fee) and join.
    let t = Instant::now();
    let mut larger_keys = vec![0u64; larger.cardinality()];
    for_each_output_morsel(&mut larger_keys, policy, |offset, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = larger.key(offset + i);
        }
    });
    let mut smaller_keys = vec![0u64; smaller.cardinality()];
    for_each_output_morsel(&mut smaller_keys, policy, |offset, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = smaller.key(offset + i);
        }
    });
    let join_spec = join_cluster_spec(smaller.cardinality(), params.cache_capacity());
    let join_index = par_partitioned_hash_join(&larger_keys, &smaller_keys, join_spec, policy);
    timings.join = t.elapsed();

    // Phase 2: partial cluster on the larger oids; the effective value width
    // is the full record width, which is what a cache-line fetch drags in.
    let t = Instant::now();
    let (first_oids, second_oids) = par_order_join_index(
        &join_index,
        ProjectionCode::PartialCluster,
        larger.cardinality(),
        larger.tuple_bytes(),
        params,
        policy,
    );
    timings.reorder = t.elapsed();

    let t = Instant::now();
    let first_columns = par_project_columns(&first_oids, spec.project_larger, larger, policy);
    timings.project_larger = t.elapsed();

    let t = Instant::now();
    let (second_columns, _clusters) = par_project_second_side_decluster(
        &second_oids,
        spec.project_smaller,
        smaller,
        smaller.cardinality(),
        smaller.tuple_bytes(),
        params,
        policy,
    );
    timings.decluster = t.elapsed();

    let mut result = ResultRelation::new();
    for col in first_columns.into_iter().chain(second_columns) {
        result.push_column(Column::from_vec(col));
    }
    StrategyOutcome { result, timings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_core::strategy::nsm_post_projection_decluster;
    use rdx_core::strategy::reference::{reference_rows, result_rows};
    use rdx_workload::JoinWorkloadBuilder;

    #[test]
    fn par_dsm_post_matches_sequential_for_all_codes() {
        let w = JoinWorkloadBuilder::equal(3_000, 2).seed(5).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        for first in [
            ProjectionCode::Unsorted,
            ProjectionCode::Sorted,
            ProjectionCode::PartialCluster,
        ] {
            for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
                let plan = DsmPostProjection::with_codes(first, second);
                let seq = plan.execute(&w.larger, &w.smaller, &spec, &params);
                for threads in [1usize, 4] {
                    let par = par_dsm_post_projection(
                        &plan,
                        &w.larger,
                        &w.smaller,
                        &spec,
                        &params,
                        &ExecPolicy::with_threads(threads),
                    );
                    assert_eq!(
                        result_rows(&par.result),
                        result_rows(&seq.result),
                        "codes {} threads {threads}",
                        plan.label()
                    );
                }
            }
        }
        let expected = reference_rows(&w.larger, &w.smaller, &spec);
        let plan = DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        );
        let par = par_dsm_post_projection(
            &plan,
            &w.larger,
            &w.smaller,
            &spec,
            &params,
            &ExecPolicy::with_threads(8),
        );
        assert_eq!(result_rows(&par.result), expected);
    }

    #[test]
    fn par_nsm_post_matches_sequential() {
        let w = JoinWorkloadBuilder::equal(2_000, 3).seed(21).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let seq = nsm_post_projection_decluster(&w.larger_nsm, &w.smaller_nsm, &spec, &params);
        for threads in [2usize, 8] {
            let par = par_nsm_post_projection_decluster(
                &w.larger_nsm,
                &w.smaller_nsm,
                &spec,
                &params,
                &ExecPolicy::with_threads(threads),
            );
            assert_eq!(
                result_rows(&par.result),
                result_rows(&seq.result),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn timings_are_populated() {
        let w = JoinWorkloadBuilder::equal(2_000, 1).build();
        let params = CacheParams::tiny_for_tests();
        let plan = DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        );
        let out = par_dsm_post_projection(
            &plan,
            &w.larger,
            &w.smaller,
            &QuerySpec::symmetric(1),
            &params,
            &ExecPolicy::with_threads(2),
        );
        assert!(out.timings.total().as_nanos() > 0);
        assert!(out.timings.join.as_nanos() > 0);
    }
}
