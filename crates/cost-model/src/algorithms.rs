//! Per-algorithm cost functions (paper Appendix A).
//!
//! Each function translates the access-pattern description given in the
//! appendix into a [`PatternCost`] under a given [`CacheParams`].  These are
//! the "modeled (lines)" series plotted against measurements in Figs. 7 and 9.

use crate::patterns::{self, PatternCost, CPU_CYCLES_PER_ITEM};
use crate::{concurrent, sequential, CacheParams, DataRegion};

/// Width of one join-index entry (two 4-byte oids).
pub const JOIN_INDEX_PAIR_BYTES: usize = 8;

/// Width of one bucket of the join's hash table — four inline 8-byte keys
/// and 4-byte build positions, a fill count and an overflow link — mirroring
/// `rdx_core::join::HashTable` (`rdx-cost` cannot depend on `rdx-core`
/// without a cycle; `rdx-core`'s join tests assert the two agree).
pub const HASH_BUCKET_BYTES: usize = 56;

/// Cost of `radix_cluster(X, B, P)`:
/// `⊕_{p=1..P} ( s_trav(X) ⊙ nest({X_j}, 2^{B_p}, s_trav, ran) )`.
///
/// `pass_bits` are the `B_p`, leftmost pass first, as
/// `rdx_core::cluster::RadixClusterSpec::pass_bits` plans them (no passes,
/// no cost).  Every pass reads the whole input sequentially and appends to
/// `2^{B_p}` output cursors; once the cursor count exceeds the cache-line
/// or TLB budget the nest term degrades to per-tuple random misses (the
/// thrashing that motivates multi-pass clustering, §2.1/§2.2).  This plain
/// scatter is the only one the kernels run: a fan-out past the pass rule's
/// (`rdx_core::cluster::pass_fanout`) is priced, and run, as more passes.
pub fn radix_cluster(
    input: DataRegion,
    pass_bits: impl IntoIterator<Item = u32>,
    params: &CacheParams,
) -> PatternCost {
    let mut total = PatternCost::zero();
    for bp in pass_bits {
        let partitions = 1usize << bp;
        let read = patterns::s_trav(&input, params);
        let write = patterns::nest(&input, partitions, params);
        total.accumulate(&concurrent(&[read, write]));
    }
    total
}

/// Cost of a non-partitioned Hash-Join
/// (`build_hash(Y,Y') ⊕ probe_hash(X,Y',Z)`).
///
/// The table has `next_power_of_two(|Y|) / 2` buckets of
/// [`HASH_BUCKET_BYTES`]; a probe reads one bucket and compares its slots
/// in a fixed trip, so it is priced as one random access.
pub fn hash_join(
    outer: DataRegion,
    inner: DataRegion,
    result_tuples: usize,
    params: &CacheParams,
) -> PatternCost {
    let buckets = (inner.tuples.next_power_of_two() / 2).max(2);
    let hash_table = DataRegion::new(buckets, HASH_BUCKET_BYTES);
    let build = concurrent(&[
        patterns::s_trav(&inner, params),
        patterns::r_trav(&hash_table, params),
    ]);
    let output = DataRegion::new(result_tuples, JOIN_INDEX_PAIR_BYTES);
    let probe = concurrent(&[
        patterns::s_trav(&outer, params),
        patterns::r_acc(outer.tuples, &hash_table, params),
        patterns::s_trav(&output, params),
    ]);
    sequential(&[build, probe])
}

/// Cost of `part_hash_join(X, Y, B)` as it runs: one plain Radix-Cluster
/// pass per input on the `first` pass's bits, the remaining bits split per
/// first-pass partition in the `split` passes while it is cache-resident,
/// then a simple Hash-Join per pair of matching clusters.  Both come from
/// `rdx_core::join::join_passes`, the passes the join runs; no passes at
/// all is the plain [`hash_join`].
pub fn partitioned_hash_join(
    outer: DataRegion,
    inner: DataRegion,
    first: impl IntoIterator<Item = u32> + Clone,
    split: impl IntoIterator<Item = u32> + Clone,
    result_tuples: usize,
    params: &CacheParams,
) -> PatternCost {
    let first_bits: u32 = first.clone().into_iter().sum();
    let bits = first_bits + split.clone().into_iter().sum::<u32>();
    let (partitions, clusters) = (1usize << first_bits, 1usize << bits);
    let mut cost = radix_cluster(outer, first.clone(), params);
    cost.accumulate(&radix_cluster(inner, first, params));
    for side in [outer, inner] {
        cost.accumulate(
            &radix_cluster(side.split(partitions), split.clone(), params).scaled(partitions as f64),
        );
    }
    let per_cluster = hash_join(
        outer.split(clusters),
        inner.split(clusters),
        result_tuples.div_ceil(clusters),
        params,
    );
    cost.accumulate(&per_cluster.scaled(clusters as f64));
    cost
}

/// Cost of `unsort_pos_join(X, Y, Z)`: sequential scan of the join index and
/// the output, random access into the projection column.
pub fn positional_join_unsorted(
    index_tuples: usize,
    column: DataRegion,
    value_width: usize,
    params: &CacheParams,
) -> PatternCost {
    let index = DataRegion::new(index_tuples, crate::algorithms::JOIN_INDEX_PAIR_BYTES / 2);
    let output = DataRegion::new(index_tuples, value_width);
    concurrent(&[
        patterns::s_trav(&index, params),
        patterns::r_acc(index_tuples, &column, params),
        patterns::s_trav(&output, params),
    ])
}

/// Cost of `sort_pos_join(X, Y, Z)`: all three regions traversed sequentially
/// (the join index is ordered on the projection side's oids).
pub fn positional_join_sorted(
    index_tuples: usize,
    column: DataRegion,
    value_width: usize,
    params: &CacheParams,
) -> PatternCost {
    let index = DataRegion::new(index_tuples, crate::algorithms::JOIN_INDEX_PAIR_BYTES / 2);
    let output = DataRegion::new(index_tuples, value_width);
    concurrent(&[
        patterns::s_trav(&index, params),
        patterns::s_trav(&column, params),
        patterns::s_trav(&output, params),
    ])
}

/// Cost of `clust_pos_join({X_p}, {Y_p}, B)`: an unsorted positional join per
/// cluster, each restricted to a `1/2^B` slice of the projection column
/// (Fig. 9c).  With enough radix bits the per-cluster slice fits the cache and
/// the random accesses become cheap.
pub fn positional_join_clustered(
    index_tuples: usize,
    column: DataRegion,
    value_width: usize,
    bits: u32,
    params: &CacheParams,
) -> PatternCost {
    if bits == 0 {
        return positional_join_unsorted(index_tuples, column, value_width, params);
    }
    let clusters = 1usize << bits;
    let per_cluster = positional_join_unsorted(
        index_tuples.div_ceil(clusters),
        column.split(clusters),
        value_width,
        params,
    );
    per_cluster.scaled(clusters as f64)
}

/// Cost of `radix_decluster({X_j}, {Y_j}, Z, #w)` (Fig. 6 / Appendix A).
///
/// * `n` — number of result tuples (`|CLUST_VALUES| = |CLUST_RESULT|`).
/// * `value_width` — width of the projected values.
/// * `bits` — radix bits of the input clustering (`2^bits` clusters).
/// * `window_bytes` — insertion-window size `‖W‖`.
///
/// The three cost drivers the paper identifies (Fig. 7a) are all represented:
/// per-(window × cluster) chunk start-up misses in `CLUST_VALUES` and
/// `CLUST_RESULT` (dominant for small windows), random insertions into the
/// window (cheap while `‖W‖ ≤ C`, explosive beyond), and the repeated scan of
/// the cluster-border array.
pub fn radix_decluster(
    n: usize,
    value_width: usize,
    bits: u32,
    window_bytes: usize,
    params: &CacheParams,
) -> PatternCost {
    if n == 0 {
        return PatternCost::zero();
    }
    let clusters = 1usize << bits;
    let output_bytes = n * value_width;
    let windows = output_bytes.div_ceil(window_bytes.max(1)).max(1);
    // Average tuples drained from one cluster while filling one window.
    let w = (n as f64 / (windows * clusters) as f64).max(1.0);

    let mut cost = PatternCost::zero();

    // Sequential reads of CLUST_VALUES and CLUST_RESULT (4-byte ids), chunked
    // per (window, cluster): every chunk start costs at least one line / one
    // page.
    for idx_width in [value_width, 4] {
        let chunk_bytes = w * idx_width as f64;
        let mut chunk = PatternCost::zero();
        for i in 0..params.levels.len().min(2) {
            let lines = (chunk_bytes / params.levels[i].line_size as f64)
                .ceil()
                .max(1.0);
            chunk.seq_misses[i] = lines;
        }
        chunk.tlb_misses = if clusters > params.tlb.entries {
            // One new page touched per chunk start once the cursors exceed the TLB.
            (chunk_bytes / params.tlb.page_size as f64).ceil().max(1.0)
        } else {
            chunk_bytes / params.tlb.page_size as f64
        };
        chunk.cpu_cycles = w * CPU_CYCLES_PER_ITEM;
        cost.accumulate(&chunk.scaled((windows * clusters) as f64));
    }

    // Random insertions into the window: per window, |W| tuples inserted into
    // a ‖W‖-byte region; beyond the cache capacity (or TLB reach) they miss.
    let window_region = DataRegion::new(window_bytes / value_width.max(1), value_width);
    let tuples_per_window = n.div_ceil(windows);
    let inserts = patterns::r_acc(tuples_per_window, &window_region, params).scaled(windows as f64);
    cost.accumulate(&inserts);

    // Repeated sequential scan of the cluster start/end array.
    let borders = DataRegion::new(clusters, 8);
    cost.accumulate(&patterns::rs_trav(windows, &borders, params));

    cost
}

/// Cost of the *streaming* (chunked) Radix-Decluster used by the
/// memory-budgeted pipeline: the result is produced in `chunks` contiguous
/// chunks of ≈ `n / chunks` rows, each a self-contained decluster problem.
///
/// Two terms on top of the monolithic [`radix_decluster`] cost:
///
/// 1. the per-chunk kernel cost, scaled by the chunk count — slightly more
///    than the monolithic run because every chunk pays its own window ramp-up;
/// 2. a chunk-restart term: at every chunk boundary each of the `2^bits`
///    cluster cursors is re-positioned with a binary search whose final probe
///    is a random access into `CLUST_RESULT` — this is the price of shrinking
///    the working set from `O(N)` to `O(N / chunks)` values, and it grows
///    linearly in `chunks · 2^bits` (why the planner never chunks finer than
///    the budget demands).
pub fn streaming_radix_decluster(
    n: usize,
    value_width: usize,
    bits: u32,
    window_bytes: usize,
    chunks: usize,
    params: &CacheParams,
) -> PatternCost {
    if n == 0 {
        return PatternCost::zero();
    }
    let chunks = chunks.clamp(1, n);
    let chunk_rows = n.div_ceil(chunks);
    let mut cost =
        radix_decluster(chunk_rows, value_width, bits, window_bytes, params).scaled(chunks as f64);
    let clusters = 1usize << bits;
    let positions = DataRegion::new(n, 4);
    cost.accumulate(&patterns::r_acc(
        chunks.saturating_mul(clusters),
        &positions,
        params,
    ));
    cost
}

/// Cost of the first (Left) Jive-Join phase: merge the sorted join index with
/// the left table sequentially, writing two cluster-partitioned outputs
/// (access pattern analogous to single-pass Radix-Cluster).
pub fn jive_join_left(
    index_tuples: usize,
    left_table: DataRegion,
    projected_width: usize,
    bits: u32,
    params: &CacheParams,
) -> PatternCost {
    let clusters = 1usize << bits;
    let index = DataRegion::new(index_tuples, JOIN_INDEX_PAIR_BYTES);
    let result_left = DataRegion::new(index_tuples, projected_width);
    let reordered_index = DataRegion::new(index_tuples, 4);
    concurrent(&[
        patterns::s_trav(&index, params),
        patterns::s_trav(&left_table, params),
        patterns::nest(&result_left, clusters, params),
        patterns::nest(&reordered_index, clusters, params),
    ])
}

/// Cost of the second (Right) Jive-Join phase: per cluster, merge with the
/// right table sequentially and write the right half of the result back in
/// final order (random within the cluster's output range).
pub fn jive_join_right(
    index_tuples: usize,
    right_table: DataRegion,
    projected_width: usize,
    bits: u32,
    params: &CacheParams,
) -> PatternCost {
    let clusters = 1usize << bits;
    let per_cluster_index = DataRegion::new(index_tuples.div_ceil(clusters), 4);
    let per_cluster_table = right_table.split(clusters);
    let per_cluster_output = DataRegion::new(index_tuples.div_ceil(clusters), projected_width);
    let per_cluster = concurrent(&[
        patterns::s_trav(&per_cluster_index, params),
        patterns::s_trav(&per_cluster_table, params),
        // Appendix A: `r_trav(Z_p)` — the writes land in random order within
        // the cluster's slice of the result, so too-few (= too-big) clusters
        // make this slice exceed the cache and the writes latency-bound.
        patterns::r_trav(&per_cluster_output, params),
    ]);
    per_cluster.scaled(clusters as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CacheParams {
        CacheParams::paper_pentium4()
    }

    const MB8: usize = 8_000_000;

    #[test]
    fn radix_cluster_has_sweet_spot_in_bits() {
        let p = params();
        let input = DataRegion::new(MB8, 8);
        let cheap = radix_cluster(input, [8], &p).millis(&p);
        let thrash = radix_cluster(input, [16], &p).millis(&p);
        // 2^16 single-pass cursors thrash the TLB/caches; 2^8 do not.
        assert!(thrash > 2.0 * cheap, "thrash {thrash} vs cheap {cheap}");
        // Two passes tame the 16-bit clustering.
        let two_pass = radix_cluster(input, [8, 8], &p).millis(&p);
        assert!(two_pass < thrash);
    }

    #[test]
    fn clustered_positional_join_beats_unsorted_on_large_columns() {
        let p = params();
        let column = DataRegion::new(MB8, 4);
        let unsorted = positional_join_unsorted(MB8, column, 4, &p).millis(&p);
        let clustered = positional_join_clustered(MB8, column, 4, 8, &p).millis(&p);
        let sorted = positional_join_sorted(MB8, column, 4, &p).millis(&p);
        assert!(clustered < unsorted / 2.0);
        assert!(sorted < unsorted);
    }

    #[test]
    fn decluster_window_sweep_matches_fig7a_shape() {
        let p = params();
        let n = MB8;
        let at = |window: usize| radix_decluster(n, 4, 8, window, &p).millis(&p);
        let tiny = at(1 << 10); // 1 KB
        let good = at(256 << 10); // 256 KB (≤ C, ≥ TLB reach boundary)
        let too_big = at(32 << 20); // 32 MB (≫ C)
                                    // Cost falls from tiny windows to the sweet spot…
        assert!(good < tiny, "good {good} vs tiny {tiny}");
        // …and rises sharply once the window exceeds the L2 capacity.
        assert!(too_big > 2.0 * good, "too_big {too_big} vs good {good}");
    }

    #[test]
    fn decluster_cost_grows_with_bits() {
        let p = params();
        let low = radix_decluster(MB8, 4, 6, 256 << 10, &p).millis(&p);
        let high = radix_decluster(MB8, 4, 16, 256 << 10, &p).millis(&p);
        assert!(high > low);
    }

    #[test]
    fn streaming_decluster_approaches_monolithic_as_chunks_shrink() {
        let p = params();
        let at =
            |chunks: usize| streaming_radix_decluster(MB8, 4, 8, 256 << 10, chunks, &p).millis(&p);
        let monolithic = radix_decluster(MB8, 4, 8, 256 << 10, &p).millis(&p);
        // One chunk is the monolithic run plus a negligible restart term.
        assert!(at(1) >= monolithic);
        assert!(at(1) < monolithic * 1.05, "{} vs {monolithic}", at(1));
        // Finer chunking costs strictly more (restart term grows with chunks).
        assert!(at(16) < at(256));
        assert!(at(256) < at(16_384));
    }

    #[test]
    fn streaming_decluster_restart_term_scales_with_clusters() {
        let p = params();
        let few = streaming_radix_decluster(MB8, 4, 6, 256 << 10, 1_024, &p).millis(&p);
        let many = streaming_radix_decluster(MB8, 4, 14, 256 << 10, 1_024, &p).millis(&p);
        assert!(many > few);
        assert_eq!(
            streaming_radix_decluster(0, 4, 8, 1024, 7, &p),
            PatternCost::zero()
        );
    }

    #[test]
    fn concurrent_share_raises_predicted_cost_monotonically() {
        let p = params();
        // Window sized to the *whole* cache: any co-runner pushes it past the
        // per-query share, which is exactly the thrash the term must price.
        let window = p.cache_capacity();
        let at = |q: usize| {
            let share = p.per_query_share(q);
            streaming_radix_decluster(MB8, 4, 8, window, 16, &share).millis(&p)
        };
        // One active query is priced exactly as the solo streaming run, and
        // a zero count degrades to one instead of dividing by zero.
        let solo = streaming_radix_decluster(MB8, 4, 8, window, 16, &p).millis(&p);
        assert_eq!(at(1), solo);
        assert_eq!(at(0), solo);
        // Each co-runner shrinks the effective cache share, so the predicted
        // cost can only grow with the number of admitted queries.
        assert!(at(2) > at(1), "{} vs {}", at(2), at(1));
        assert!(at(4) > at(2));
        assert!(at(16) > at(4));
    }

    #[test]
    fn jive_left_suffers_from_high_fanout() {
        let p = params();
        let table = DataRegion::new(MB8, 16);
        let few = jive_join_left(MB8, table, 16, 6, &p).millis(&p);
        let many = jive_join_left(MB8, table, 16, 14, &p).millis(&p);
        assert!(many > few);
    }

    #[test]
    fn jive_right_suffers_from_too_few_clusters() {
        let p = params();
        let table = DataRegion::new(MB8, 16);
        let few = jive_join_right(MB8, table, 16, 2, &p).millis(&p);
        let enough = jive_join_right(MB8, table, 16, 10, &p).millis(&p);
        assert!(few > enough);
    }

    #[test]
    fn zero_sized_inputs_cost_nothing() {
        let p = params();
        assert_eq!(
            radix_cluster(DataRegion::new(0, 8), [], &p),
            PatternCost::zero()
        );
        assert_eq!(radix_decluster(0, 4, 8, 1024, &p), PatternCost::zero());
    }
}
