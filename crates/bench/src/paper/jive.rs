//! Jive-Join \[LR99\] — the NSM post-projection baseline of §4.2.
//!
//! Jive-Join assumes a join index sorted on the RowIds of the left (larger)
//! projection table.  The **Left** phase merges that index with the left table
//! sequentially, producing (a) the left half of the result in final order and
//! (b) a re-ordered join index partitioned so that each partition covers a
//! consecutive range of right-table RowIds.  The **Right** phase processes the
//! partitions one by one: sorts each, merges it with the right table, and
//! writes the fetched values back to their final result positions.
//!
//! The implementation is generic over *how* a projected value is fetched
//! (`fetch(oid, attr)`), so the same code serves the DSM columns and the NSM
//! records the strategy layer feeds it.

use rdx_cache::CacheParams;
use rdx_core::cluster::{radix_cluster_oids, radix_sort_spec_for};
use rdx_core::hash::significant_bits;
use rdx_dsm::{JoinIndex, Oid};

/// The projected result of a Jive-Join: `larger_columns[a][r]` /
/// `smaller_columns[b][r]` hold attribute `a`/`b` of result row `r`, where the
/// result order is the join index sorted by larger-oid (Jive-Join's natural
/// output order).
#[derive(Debug, Clone, PartialEq)]
pub struct JiveResult {
    /// Projected columns from the larger (left) relation.
    pub larger_columns: Vec<Vec<i32>>,
    /// Projected columns from the smaller (right) relation.
    pub smaller_columns: Vec<Vec<i32>>,
}

/// Runs a full Jive-Join projection.
///
/// * `join_index` — matching pairs in any order (it is sorted on the larger
///   oids first, since \[LR99\] assumes a pre-sorted join index);
/// * `n_larger_attrs` / `fetch_larger` — how many columns to project from the
///   larger relation and how to fetch one value;
/// * `n_smaller_attrs` / `fetch_smaller` — likewise for the smaller relation;
/// * `smaller_cardinality` — domain of the smaller oids (for range
///   partitioning);
/// * `bits` — number of right-phase partitions is `2^bits`;
/// * `params` — the cache the initial Radix-Sort sizes its passes to.
#[allow(clippy::too_many_arguments)]
pub fn jive_join_projection(
    join_index: &JoinIndex,
    n_larger_attrs: usize,
    fetch_larger: impl Fn(Oid, usize) -> i32,
    n_smaller_attrs: usize,
    fetch_smaller: impl Fn(Oid, usize) -> i32,
    smaller_cardinality: usize,
    bits: u32,
    params: &CacheParams,
) -> JiveResult {
    let n = join_index.len();

    // [LR99] assumes the join index is sorted on the left RowIds; establish
    // that order (Radix-Sort on the dense larger-oid domain).
    let domain = join_index
        .larger()
        .iter()
        .map(|&o| o as usize + 1)
        .max()
        .unwrap_or(0);
    let sorted = radix_cluster_oids(
        join_index.larger(),
        join_index.smaller(),
        radix_sort_spec_for(domain, params),
    );
    let larger_in_order = sorted.keys();
    let smaller_in_order = sorted.payloads();

    // ---- Left Jive-Join ----------------------------------------------------
    // Sequential merge with the left table: emit the left half of the result
    // in final order, and scatter (smaller_oid, result_position) into range
    // partitions of the smaller oid domain.
    let mut larger_columns = vec![Vec::with_capacity(n); n_larger_attrs];
    let partitions = 1usize << bits;
    let shift = significant_bits(smaller_cardinality).saturating_sub(bits);
    let mut partitioned: Vec<Vec<(Oid, Oid)>> = vec![Vec::new(); partitions];

    for (r, (&l_oid, &s_oid)) in larger_in_order.iter().zip(smaller_in_order).enumerate() {
        for (a, col) in larger_columns.iter_mut().enumerate() {
            col.push(fetch_larger(l_oid, a));
        }
        let p = ((s_oid as usize) >> shift).min(partitions - 1);
        partitioned[p].push((s_oid, r as Oid));
    }

    // ---- Right Jive-Join ---------------------------------------------------
    // Per partition: sort on the smaller oid ("first sorted for better
    // access"), merge with the right table, write back in result order.
    let mut smaller_columns = vec![vec![0i32; n]; n_smaller_attrs];
    for cluster in &mut partitioned {
        cluster.sort_unstable_by_key(|&(s_oid, _)| s_oid);
        for &(s_oid, result_pos) in cluster.iter() {
            for (b, col) in smaller_columns.iter_mut().enumerate() {
                col[result_pos as usize] = fetch_smaller(s_oid, b);
            }
        }
    }

    JiveResult {
        larger_columns,
        smaller_columns,
    }
}

/// Chooses the right-phase partition count so that one partition's slice of
/// the smaller projection columns fits the cache — the same sizing rule as
/// partial clustering, and the trade-off Figs. 9e/9f explore.
pub fn jive_bits(smaller_cardinality: usize, projected_width: usize, cache_bytes: usize) -> u32 {
    let bytes = smaller_cardinality.saturating_mul(projected_width.max(4));
    let mut bits = 0u32;
    while (bytes >> bits) > cache_bytes && bits < 24 {
        bits += 1;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_dsm::Column;

    fn columns(n: usize, mult: i32) -> Vec<Column<i32>> {
        (0..3)
            .map(|a| Column::from_vec((0..n).map(|i| mult * (i as i32) + a).collect()))
            .collect()
    }

    #[test]
    fn jive_matches_direct_projection() {
        let n_larger = 200;
        let n_smaller = 100;
        let larger_cols = columns(n_larger, 10);
        let smaller_cols = columns(n_smaller, 1000);
        // A join index with duplicates and arbitrary order.
        let ji = JoinIndex::from_pairs(
            (0..n_larger as Oid).map(|l| (l, (l * 13 + 5) % n_smaller as Oid)),
        );

        let out = jive_join_projection(
            &ji,
            2,
            |oid, a| larger_cols[a].value(oid as usize),
            2,
            |oid, b| smaller_cols[b].value(oid as usize),
            n_smaller,
            3,
            &CacheParams::paper_pentium4(),
        );

        // Expected: result ordered by larger oid.
        let mut pairs: Vec<(Oid, Oid)> = ji.iter().collect();
        pairs.sort_unstable();
        for (r, &(l, s)) in pairs.iter().enumerate() {
            for (col, vals) in larger_cols.iter().zip(&out.larger_columns) {
                assert_eq!(vals[r], col.value(l as usize));
            }
            for (col, vals) in smaller_cols.iter().zip(&out.smaller_columns) {
                assert_eq!(vals[r], col.value(s as usize));
            }
        }
    }

    #[test]
    fn works_with_zero_bits_single_partition() {
        let larger_cols = columns(50, 2);
        let smaller_cols = columns(50, 3);
        let ji = JoinIndex::from_pairs((0..50).map(|i| (i as Oid, i as Oid)));
        let out = jive_join_projection(
            &ji,
            1,
            |oid, a| larger_cols[a].value(oid as usize),
            1,
            |oid, b| smaller_cols[b].value(oid as usize),
            50,
            0,
            &CacheParams::paper_pentium4(),
        );
        assert_eq!(out.larger_columns[0].len(), 50);
        assert_eq!(out.smaller_columns[0][7], smaller_cols[0].value(7));
    }

    #[test]
    fn empty_join_index() {
        let params = CacheParams::paper_pentium4();
        let out = jive_join_projection(&JoinIndex::new(), 1, |_, _| 0, 1, |_, _| 0, 10, 2, &params);
        assert!(out.larger_columns[0].is_empty());
        assert!(out.smaller_columns[0].is_empty());
    }

    #[test]
    fn jive_bits_sizes_partitions_to_cache() {
        assert_eq!(jive_bits(1000, 4, 512 * 1024), 0);
        let bits = jive_bits(8_000_000, 16, 512 * 1024);
        assert!((8_000_000usize * 16) >> bits <= 512 * 1024);
    }
}
