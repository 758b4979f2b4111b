//! Shared building blocks of the post-projection strategies.
//!
//! DSM and NSM post-projection share the same structure — create a join index,
//! reorder it for the first side, project the first side, re-cluster for the
//! second side, project + decluster the second side — and differ only in how a
//! block of one projected column is fetched.  The helpers here are therefore
//! generic over an [`AttrSource`], asked once per column — never per value.
//! (`jive.rs` keeps its own per-tuple fetch closures: Jive-Join interleaves
//! both sides tuple by tuple and is a different algorithm, not this contract.)

use crate::cluster::{plan_partial_cluster, radix_cluster_oids, radix_sort_spec_for};
use crate::decluster::{choose_window_bytes, radix_decluster};
use crate::positional::AttrSource;
use rdx_cache::CacheParams;
use rdx_dsm::{JoinIndex, Oid};

/// Projection code for the *first* (larger) side of a DSM/NSM post-projection,
/// the one-letter codes of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProjectionCode {
    /// `u` — process the join index as-is (random access into the column).
    Unsorted,
    /// `s` — Radix-Sort the join index on this side's oids first.
    Sorted,
    /// `c` — partial Radix-Cluster (§3.1): clusters sized to the cache.
    PartialCluster,
}

impl ProjectionCode {
    /// The one-letter code used in the paper's figures.
    pub fn letter(&self) -> char {
        match self {
            ProjectionCode::Unsorted => 'u',
            ProjectionCode::Sorted => 's',
            ProjectionCode::PartialCluster => 'c',
        }
    }
}

/// Projection code for the *second* (smaller) side: unsorted positional joins
/// or the full Radix-Decluster pipeline of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecondSideCode {
    /// `u` — unsorted positional joins straight from the (reordered) index.
    Unsorted,
    /// `d` — partial Radix-Cluster + clustered positional join +
    /// Radix-Decluster per projected column.
    Decluster,
}

impl SecondSideCode {
    /// The one-letter code used in the paper's figures.
    pub fn letter(&self) -> char {
        match self {
            SecondSideCode::Unsorted => 'u',
            SecondSideCode::Decluster => 'd',
        }
    }
}

/// Reorders the join index according to the first-side projection code and
/// returns `(first_side_oids, second_side_oids)` in the chosen final result
/// order (the two vectors stay aligned row-by-row).
pub fn order_join_index(
    join_index: &JoinIndex,
    code: ProjectionCode,
    first_cardinality: usize,
    value_width: usize,
    params: &CacheParams,
) -> (Vec<Oid>, Vec<Oid>) {
    match code {
        ProjectionCode::Unsorted => (join_index.larger().to_vec(), join_index.smaller().to_vec()),
        ProjectionCode::Sorted => {
            // Radix-Sort on all significant bits, with the pass count the
            // cost planner prices — priced and executed pass structures
            // match.
            let sorted = radix_cluster_oids(
                join_index.larger(),
                join_index.smaller(),
                radix_sort_spec_for(first_cardinality, params),
            );
            let (keys, payloads, _) = sorted.into_parts();
            (keys, payloads)
        }
        ProjectionCode::PartialCluster => {
            let clustered = radix_cluster_oids(
                join_index.larger(),
                join_index.smaller(),
                plan_partial_cluster(first_cardinality, value_width, params),
            );
            let (keys, payloads, _) = clustered.into_parts();
            (keys, payloads)
        }
    }
}

/// Projects `n_attrs` columns of the first side: for every result row `r`,
/// fetch attribute `a` of `oids[r]`.  The access pattern is whatever the
/// ordering step made of `oids` — that is the whole point of the codes.
pub fn project_first_side(oids: &[Oid], n_attrs: usize, source: &impl AttrSource) -> Vec<Vec<i32>> {
    (0..n_attrs)
        .map(|a| {
            let mut column = vec![0; oids.len()];
            source.gather_into(a, oids, &mut column);
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
/// Returns the projected columns plus the number of clusters used (for
/// instrumentation).
pub fn project_second_side_decluster(
    second_oids_in_result_order: &[Oid],
    n_attrs: usize,
    source: &impl AttrSource,
    second_cardinality: usize,
    value_width: usize,
    params: &CacheParams,
) -> (Vec<Vec<i32>>, usize) {
    let n = second_oids_in_result_order.len();
    let result_positions: Vec<Oid> = (0..n as Oid).collect();
    let clustered = radix_cluster_oids(
        second_oids_in_result_order,
        &result_positions,
        plan_partial_cluster(second_cardinality, value_width, params),
    );
    let window = choose_window_bytes(value_width, clustered.num_clusters(), params);

    // One CLUST_VALUES staging column, refilled per projected attribute.
    let mut clust_values = vec![0; n];
    let columns = (0..n_attrs)
        .map(|a| {
            // CLUST_VALUES: clustered positional join into the source column.
            source.gather_into(a, clustered.keys(), &mut clust_values);
            // Radix-Decluster into final result order.
            radix_decluster(
                &clust_values,
                clustered.payloads(),
                clustered.bounds(),
                window,
            )
        })
        .collect();
    (columns, clustered.num_clusters())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_dsm::{Column, DsmRelation};

    fn sample_index() -> JoinIndex {
        JoinIndex::from_pairs([(5, 1), (0, 3), (3, 3), (1, 0), (4, 2), (2, 1)])
    }

    #[test]
    fn order_unsorted_keeps_input_order() {
        let ji = sample_index();
        let params = CacheParams::paper_pentium4();
        let (l, s) = order_join_index(&ji, ProjectionCode::Unsorted, 6, 4, &params);
        assert_eq!(l, ji.larger());
        assert_eq!(s, ji.smaller());
    }

    #[test]
    fn order_sorted_sorts_first_side_and_keeps_pairs() {
        let ji = sample_index();
        let params = CacheParams::paper_pentium4();
        let (l, s) = order_join_index(&ji, ProjectionCode::Sorted, 6, 4, &params);
        assert!(l.windows(2).all(|w| w[0] <= w[1]));
        let mut pairs: Vec<_> = l.iter().zip(&s).map(|(&a, &b)| (a, b)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, ji.canonical_pairs());
    }

    #[test]
    fn order_partial_cluster_keeps_pairs() {
        let ji = sample_index();
        let params = CacheParams::paper_pentium4();
        let (l, s) = order_join_index(&ji, ProjectionCode::PartialCluster, 6, 4, &params);
        let mut pairs: Vec<_> = l.iter().zip(&s).map(|(&a, &b)| (a, b)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, ji.canonical_pairs());
    }

    #[test]
    fn second_side_decluster_matches_unsorted() {
        let cols: Vec<Column<i32>> = (0..2)
            .map(|a| Column::from_vec((0..1000).map(|i| i * 10 + a).collect()))
            .collect();
        let rel = DsmRelation::new(Column::from_vec((0..1000).collect()), cols);
        // Second-side oids in some arbitrary result order, with duplicates.
        let oids: Vec<Oid> = (0..3000).map(|r| ((r * 37 + 11) % 1000) as Oid).collect();
        let params = CacheParams::tiny_for_tests();
        let unsorted = project_first_side(&oids, 2, &rel);
        let (declustered, clusters) =
            project_second_side_decluster(&oids, 2, &rel, 1000, 4, &params);
        assert_eq!(unsorted, declustered);
        assert!(clusters >= 1);
    }

    #[test]
    fn projection_codes_have_paper_letters() {
        assert_eq!(ProjectionCode::Unsorted.letter(), 'u');
        assert_eq!(ProjectionCode::Sorted.letter(), 's');
        assert_eq!(ProjectionCode::PartialCluster.letter(), 'c');
        assert_eq!(SecondSideCode::Unsorted.letter(), 'u');
        assert_eq!(SecondSideCode::Decluster.letter(), 'd');
    }
}
