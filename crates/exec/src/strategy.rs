//! The morsel-parallel reorder and fetch phases of the DSM post-projection
//! (§3, §4.1) that [`crate::pipeline`] runs: the first-side `u`/`s`/`c`
//! reorder of the join index on the parallel cluster kernels, and the
//! positional joins as morsel-parallel block fetches into disjoint output
//! slices.  Each is byte-identical to the same clustering or gather on the
//! sequential kernels of `rdx-core`.

use crate::cluster::par_radix_cluster_oids;
use crate::pool::{for_each_output_morsel, ExecPolicy};
use rdx_cache::{CacheParams, NoProbe, Probe};
use rdx_core::cluster::{plan_partial_cluster, radix_sort_spec_for, Clustered};
use rdx_core::positional::{AttrSource, OidBlock};
use rdx_core::strategy::ProjectionCode;
use rdx_dsm::{FromValue, JoinIndex, Oid};

/// Width of the fixed-size attribute values (the paper's integer columns).
const VALUE_WIDTH: usize = 4;

/// Reorders the join index per the first-side code using the parallel
/// cluster kernels: `u` keeps it, `s` Radix-Sorts it on the first side's
/// oids and `c` partially Radix-Clusters it (§3.1).  Returns
/// `(first_side_oids, second_side_oids)`, aligned row by row.
pub fn par_order_join_index(
    join_index: &JoinIndex,
    code: ProjectionCode,
    first_cardinality: usize,
    params: &CacheParams,
    policy: &ExecPolicy,
) -> (Vec<Oid>, Vec<Oid>) {
    match code {
        ProjectionCode::Unsorted => (join_index.larger().to_vec(), join_index.smaller().to_vec()),
        ProjectionCode::Sorted => {
            // Radix-Sort with the pass count the cost planner prices.
            let sorted = par_radix_cluster_oids(
                join_index.larger(),
                join_index.smaller(),
                radix_sort_spec_for(first_cardinality, params),
                policy,
            );
            let (keys, payloads, _) = sorted.into_parts();
            (keys, payloads)
        }
        ProjectionCode::PartialCluster => {
            let (keys, payloads, _) =
                par_partial_cluster_join_index(join_index, first_cardinality, params, policy)
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
    params: &CacheParams,
    policy: &ExecPolicy,
) -> Clustered<Oid, Oid> {
    par_radix_cluster_oids(
        join_index.larger(),
        join_index.smaller(),
        plan_partial_cluster(first_cardinality, VALUE_WIDTH, params),
        policy,
    )
}

/// Morsel-parallel block fetch of one column: `out[r]` = attribute `attr` of
/// tuple `oids[r]`, stored as its cell type (the value or its wire bytes),
/// with the source asked once per **morsel** — never per value (the
/// contract of [`AttrSource`]) — whether the oids are plain or packed.  An
/// active `probe` sees the whole block fetched in one call on one worker,
/// so its reference sequence is the same at every thread count and morsel
/// size; an inactive one is never called.
pub fn par_gather_into<S: AttrSource + Sync, C: FromValue<i32> + Send, P: Probe>(
    source: &S,
    attr: usize,
    oids: OidBlock<'_>,
    policy: &ExecPolicy,
    out: &mut [C],
    probe: &mut P,
) {
    if P::ACTIVE {
        return source.gather_into(attr, oids, out, probe);
    }
    for_each_output_morsel(out, policy, |offset, block| {
        let morsel = oids.slice(offset..offset + block.len());
        source.gather_into(attr, morsel, block, &mut NoProbe);
    });
}
