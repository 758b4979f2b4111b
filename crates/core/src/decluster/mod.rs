//! Radix-Decluster (paper §3.2, Figs. 5 and 6) — the paper's contribution.
//!
//! Input: projected values in *clustered* order (`CLUST_VALUES`), the final
//! result position of each of them (`CLUST_RESULT`), and the cluster borders
//! (`CLUST_BORDERS`, from `radix_count`).  Output: the values in final result
//! order.
//!
//! The algorithm restricts its random writes to an *insertion window* of
//! `‖W‖` bytes: per window it advances a cursor in every cluster, draining the
//! tuples whose destination falls inside the window, then shifts the window.
//! Sequential bandwidth is used on `CLUST_VALUES`/`CLUST_RESULT`, random
//! access is confined to a cache-resident window — the best of merging
//! (`O(N log H)` CPU) and direct scattering (uncacheable random writes).

pub mod chunks;
pub mod paged;
pub mod traced;
pub mod varsize;

use rdx_cache::CacheParams;
use rdx_dsm::Oid;

/// Picks an insertion-window size: half the (outermost) cache by default,
/// shrunk never below one cache line and never above the cache capacity, and
/// large enough that on average at least [`MIN_TUPLES_PER_CLUSTER_PER_WINDOW`]
/// tuples of every cluster fall into one window (the `w ≥ 32` rule of §4.1).
pub fn choose_window_bytes(value_width: usize, num_clusters: usize, params: &CacheParams) -> usize {
    let cache = params.cache_capacity();
    let line = params.last_level().line_size;
    let preferred = cache / 2;
    let min_for_bandwidth = MIN_TUPLES_PER_CLUSTER_PER_WINDOW * num_clusters * value_width;
    preferred.max(min_for_bandwidth).clamp(line, cache)
}

/// The `w = 32` of §4.1: the average number of tuples that should be drained
/// from each cluster per window to amortise the per-cluster start-up misses.
pub const MIN_TUPLES_PER_CLUSTER_PER_WINDOW: usize = 32;

/// The scalability bound of §4.1/§6: the largest relation (in tuples) that
/// Radix-Decluster can handle while keeping both `w ≥ 32` and `‖W‖ ≤ C`:
/// `|R| ≤ C² / (32 · W̄²)`.
pub fn scalability_limit(value_width: usize, params: &CacheParams) -> usize {
    let c = params.cache_capacity();
    c * c / (MIN_TUPLES_PER_CLUSTER_PER_WINDOW * value_width * value_width)
}

/// Radix-Decluster (Fig. 6): reorders `values` into final result order.
///
/// * `values[i]` — the projected value of clustered tuple `i` (`CLUST_VALUES`);
/// * `result_positions[i]` — where that value belongs in the output
///   (`CLUST_RESULT`); must be a permutation of `0..N` that is ascending
///   within each cluster (the two properties §3.2 proves Radix-Cluster
///   guarantees);
/// * `bounds` — cluster borders, `H + 1` offsets (from clustering or
///   [`crate::cluster::radix_count`]);
/// * `window_bytes` — insertion-window size `‖W‖`.
///
/// # Panics
/// Panics if the slices disagree in length or the borders do not cover the
/// input.  Violations of the two ordering properties are caught by debug
/// assertions (they indicate a bug in the caller's clustering, not bad data).
pub fn radix_decluster<T: Copy + Default>(
    values: &[T],
    result_positions: &[Oid],
    bounds: &[usize],
    window_bytes: usize,
) -> Vec<T> {
    debug_assert!(validate_inputs(result_positions, bounds));
    let mut result = vec![T::default(); values.len()];
    radix_decluster_into(
        values,
        result_positions,
        bounds,
        window_bytes,
        &mut DeclusterScratch::new(),
        &mut result,
    );
    result
}

/// The reusable working memory of a Radix-Decluster sweep: the live-cluster
/// cursor array.  One scratch serves any number of
/// [`radix_decluster_into`] / [`radix_decluster_windows_with_scratch`] calls
/// of any size, so a caller declustering per chunk or per query allocates
/// nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct DeclusterScratch {
    clusters: Vec<(usize, usize)>,
}

impl DeclusterScratch {
    /// An empty scratch; the cursor array grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Radix-Decluster into a caller-provided output slice: no allocation, no
/// zero-fill.  `out` must hold exactly `values.len()` elements; every slot
/// is overwritten (the result positions are a permutation), so its prior
/// contents are irrelevant — which is exactly why the per-call
/// `vec![T::default(); n]` of [`radix_decluster`] is pure waste for callers
/// that hold a reusable buffer.
///
/// Unlike the allocating wrapper, this hot-path entry point does **not**
/// re-validate the two §3.2 ordering properties per call (beyond the length
/// assertions); they are established by the clustering that produced the
/// input and checked by the allocating wrappers' debug assertions.
///
/// # Panics
/// Panics if the slices disagree in length, `out` has the wrong length, or
/// the borders do not cover the input.
pub fn radix_decluster_into<T: Copy>(
    values: &[T],
    result_positions: &[Oid],
    bounds: &[usize],
    window_bytes: usize,
    scratch: &mut DeclusterScratch,
    out: &mut [T],
) {
    let n = values.len();
    assert_eq!(
        result_positions.len(),
        n,
        "values/positions length mismatch"
    );
    assert_eq!(out.len(), n, "output length mismatch");
    assert_eq!(
        *bounds.last().unwrap_or(&0),
        n,
        "cluster borders do not cover the input"
    );
    if n == 0 {
        return;
    }
    let elems = window_elems(window_bytes, std::mem::size_of::<T>());
    let windows = n.div_ceil(elems);
    radix_decluster_windows_with_scratch(
        values,
        result_positions,
        bounds,
        elems,
        0..windows,
        scratch,
        out,
    );
}

/// Number of tuples one insertion window of `window_bytes` holds for values of
/// `value_width` bytes (never zero, even for degenerate window sizes).
#[inline]
pub fn window_elems(window_bytes: usize, value_width: usize) -> usize {
    (window_bytes / value_width.max(1)).max(1)
}

/// The windowed Radix-Decluster kernel: processes only the insertion windows
/// in `window_range` (window `w` covers result positions
/// `[w · window_elems, (w + 1) · window_elems)`), writing into the disjoint
/// output slice `out`, whose first element corresponds to result position
/// `window_range.start · window_elems`.
///
/// Because every write of window `w` lands inside that window's result range,
/// distinct window ranges touch disjoint output regions — this is the entry
/// point the parallel executor (`rdx-exec`) hands one `&mut` output shard per
/// worker.  Calling it with the full `0..ceil(N / window_elems)` range is
/// exactly the sequential [`radix_decluster`].
///
/// # Panics
/// Panics (possibly via slice indexing) if `out` is shorter than the result
/// positions covered by `window_range`, or if the inputs violate the
/// [`radix_decluster`] contract.
#[inline]
pub fn radix_decluster_windows<T: Copy>(
    values: &[T],
    result_positions: &[Oid],
    bounds: &[usize],
    window_elems: usize,
    window_range: std::ops::Range<usize>,
    out: &mut [T],
) {
    radix_decluster_windows_with_scratch(
        values,
        result_positions,
        bounds,
        window_elems,
        window_range,
        &mut DeclusterScratch::new(),
        out,
    );
}

/// [`radix_decluster_windows`] with a caller-provided [`DeclusterScratch`]
/// holding the live-cluster cursor array, so repeated sweeps (per chunk, per
/// query) allocate nothing.  Same contract and byte-identical output.
///
/// **Cluster visiting order is part of the contract.**  Within a window the
/// live clusters are visited in array order, a drained cluster is replaced by
/// the last live one (which is visited next), and each visit drains the
/// cluster's tuples in cursor order up to the window limit.
/// [`traced::radix_decluster_traced`] mirrors exactly this sequence, and every
/// `cache.sim_*` / `perf_proxy` count is a function of it — a rewrite may
/// change how the loop is expressed, never the order of its accesses.
#[inline]
pub fn radix_decluster_windows_with_scratch<T: Copy>(
    values: &[T],
    result_positions: &[Oid],
    bounds: &[usize],
    window_elems: usize,
    window_range: std::ops::Range<usize>,
    scratch: &mut DeclusterScratch,
    out: &mut [T],
) {
    let base = window_range.start * window_elems;

    // Live clusters as (cursor, end) pairs: cursors pre-advanced (binary
    // search — positions are ascending within a cluster) past every tuple
    // that belongs to an earlier window range; drained clusters are dropped.
    let clusters = &mut scratch.clusters;
    clusters.clear();
    clusters.extend(bounds.windows(2).filter_map(|w| {
        let (s, e) = (w[0], w[1]);
        if s >= e {
            return None;
        }
        let skip = result_positions[s..e].partition_point(|&p| (p as usize) < base);
        if s + skip >= e {
            None
        } else {
            Some((s + skip, e))
        }
    }));
    let mut nclusters = clusters.len();

    let mut window_limit = base + window_elems;
    for _ in window_range {
        if nclusters == 0 {
            break;
        }
        let mut i = 0;
        while i < nclusters {
            // The live cluster's cursor stays in registers for its whole run
            // through this window; `clusters[i]` is written back once.
            let (cursor, end) = clusters[i];
            let run = result_positions[cursor..end]
                .iter()
                .zip(&values[cursor..end]);
            let mut drained = 0;
            for (&pos, &value) in run {
                let pos = pos as usize;
                if pos >= window_limit {
                    break;
                }
                out[pos - base] = value;
                drained += 1;
            }
            if cursor + drained < end {
                clusters[i].0 = cursor + drained;
                i += 1;
            } else {
                // Delete the drained cluster by swapping in the last live one;
                // the swapped-in cluster is processed next without advancing `i`.
                nclusters -= 1;
                clusters[i] = clusters[nclusters];
            }
        }
        window_limit += window_elems;
    }
}

/// Checks the two §3.2 properties Radix-Decluster relies on:
/// (1) `result_positions` is a permutation of `0..N`;
/// (2) positions are ascending within every cluster.
///
/// Malformed `bounds` (non-ascending, or not covering the positions) are
/// reported as `false` rather than panicking, so callers can use this in
/// assertions that fire with their own message.
pub fn validate_inputs(result_positions: &[Oid], bounds: &[usize]) -> bool {
    let n = result_positions.len();
    let mut seen = vec![false; n];
    for &p in result_positions {
        let p = p as usize;
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    for w in bounds.windows(2) {
        if w[0] > w[1] || w[1] > n {
            return false;
        }
        let cluster = &result_positions[w[0]..w[1]];
        if !cluster.windows(2).all(|x| x[0] < x[1]) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{radix_cluster_oids, RadixClusterSpec};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Builds a (values, positions, bounds) triple the way the §3.2 pipeline
    /// does: take a join-result permutation, radix-cluster it, and attach a
    /// value to each clustered tuple.
    fn clustered_input(n: usize, bits: u32, seed: u64) -> (Vec<i64>, Vec<Oid>, Vec<usize>) {
        // `smaller_oids[r]` = which smaller-relation tuple result row r uses.
        let mut smaller_oids: Vec<Oid> = (0..n as Oid).collect();
        smaller_oids.shuffle(&mut StdRng::seed_from_u64(seed));
        // Cluster (smaller_oid, result_position) on the smaller oid — this is
        // the CLUST_SMALLER / CLUST_RESULT construction of Fig. 4.
        let result_positions: Vec<Oid> = (0..n as Oid).collect();
        let clustered = radix_cluster_oids(
            &smaller_oids,
            &result_positions,
            RadixClusterSpec::single_pass(bits),
        );
        // The projected value of a clustered tuple derives from its smaller oid.
        let values: Vec<i64> = clustered.keys().iter().map(|&o| o as i64 * 7).collect();
        let positions = clustered.payloads().to_vec();
        let bounds = clustered.bounds().to_vec();
        (values, positions, bounds)
    }

    #[test]
    fn paper_figure_5_example() {
        // CLUST_RESULT = [3,5,1,4,6,2,0? ] — Fig. 5 uses 6 tuples with result
        // positions [3,5,1,4,6,2] minus… we reproduce the shown 6-tuple case:
        // positions {0..5}, two clusters, ascending within each.
        let values = ['e', 'f', 'g', 'f', 'h', 'e'];
        let positions: Vec<Oid> = vec![1, 2, 3, 0, 4, 5];
        let bounds = vec![0, 3, 6];
        // window of 2 elements
        let out = radix_decluster(
            &values,
            &positions,
            &bounds,
            2 * std::mem::size_of::<char>(),
        );
        assert_eq!(out, vec!['f', 'e', 'f', 'g', 'h', 'e']);
    }

    #[test]
    fn decluster_inverts_clustering_for_any_window() {
        for &n in &[1usize, 2, 17, 1000, 4096] {
            let (values, positions, bounds) = clustered_input(n, 4, n as u64);
            let expected: Vec<i64> = {
                let mut out = vec![0i64; n];
                for (i, &p) in positions.iter().enumerate() {
                    out[p as usize] = values[i];
                }
                out
            };
            for window_bytes in [8usize, 64, 1024, 1 << 20] {
                let got = radix_decluster(&values, &positions, &bounds, window_bytes);
                assert_eq!(got, expected, "n={n} window={window_bytes}");
            }
        }
    }

    #[test]
    fn single_cluster_degenerates_to_scatter() {
        let values = vec![10, 20, 30, 40];
        let positions = vec![2, 0, 3, 1];
        let bounds = vec![0, 4];
        // Positions ascending within the single cluster? They are not — so
        // cluster on 2 bits first like the pipeline would.  Here we instead
        // use a genuinely sorted-within-cluster input.
        let positions_sorted = vec![0, 1, 2, 3];
        let out = radix_decluster(&values, &positions_sorted, &bounds, 4);
        assert_eq!(out, values);
        let _ = positions;
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = radix_decluster(&[], &[], &[0], 1024);
        assert!(out.is_empty());
    }

    #[test]
    fn validate_inputs_detects_violations() {
        // Not a permutation.
        assert!(!validate_inputs(&[0, 0, 2], &[0, 3]));
        // Out of range.
        assert!(!validate_inputs(&[0, 5], &[0, 2]));
        // Not ascending within a cluster.
        assert!(!validate_inputs(&[1, 0, 2, 3], &[0, 2, 4]));
        // A valid clustered permutation.
        assert!(validate_inputs(&[1, 3, 0, 2], &[0, 2, 4]));
        // Malformed borders are reported, not panicked on.
        assert!(!validate_inputs(&[0, 1], &[0, 5]));
        assert!(!validate_inputs(&[0, 1], &[2, 1, 2]));
    }

    #[test]
    fn window_choice_respects_cache_and_bandwidth_bounds() {
        let params = CacheParams::paper_pentium4();
        let w = choose_window_bytes(4, 256, &params);
        assert!(w <= params.cache_capacity());
        assert!(w >= 256 * MIN_TUPLES_PER_CLUSTER_PER_WINDOW * 4 || w == params.cache_capacity());
        assert_eq!(
            choose_window_bytes(4, 8, &params),
            params.cache_capacity() / 2
        );
    }

    #[test]
    fn scalability_limit_matches_paper_examples() {
        let params = CacheParams::paper_pentium4();
        // "the 512KB cache of a Pentium4 Xeon allows to project relations of
        // up to half a billion tuples" (§6), for 4-byte values.
        let limit = scalability_limit(4, &params);
        assert!(limit > 400_000_000 && limit < 600_000_000, "limit {limit}");
    }

    #[test]
    fn decluster_into_reuses_scratch_and_needs_no_default() {
        // A Copy type without Default: `_into` never zero-fills, so the
        // bound is genuinely weaker than the allocating wrapper's.
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct NoDefault(i64);

        let mut scratch = DeclusterScratch::new();
        for &n in &[1usize, 17, 1_000, 4096] {
            let (values, positions, bounds) = clustered_input(n, 4, n as u64);
            let wrapped: Vec<NoDefault> = values.iter().map(|&v| NoDefault(v)).collect();
            let expected = radix_decluster(&values, &positions, &bounds, 256);
            // Deliberately garbage-initialised output: every slot must be
            // overwritten.
            let mut out = vec![NoDefault(i64::MIN); n];
            radix_decluster_into(&wrapped, &positions, &bounds, 256, &mut scratch, &mut out);
            let got: Vec<i64> = out.iter().map(|v| v.0).collect();
            assert_eq!(got, expected, "n={n}");
        }
        // Empty input is a no-op.
        let mut out: [i32; 0] = [];
        radix_decluster_into(&[], &[], &[0], 64, &mut scratch, &mut out);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn decluster_into_rejects_wrong_output_length() {
        let mut out = vec![0i32; 3];
        radix_decluster_into(
            &[1, 2],
            &[0, 1],
            &[0, 2],
            64,
            &mut DeclusterScratch::new(),
            &mut out,
        );
    }

    #[test]
    fn works_with_wide_value_types() {
        let (values, positions, bounds) = clustered_input(500, 3, 9);
        let wide: Vec<[i64; 4]> = values.iter().map(|&v| [v, v + 1, v + 2, v + 3]).collect();
        let out = radix_decluster(&wide, &positions, &bounds, 1024);
        for (i, &p) in positions.iter().enumerate() {
            assert_eq!(out[p as usize], wide[i]);
        }
    }
}
