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

use crate::cluster::{PackedPositions, POSITION_BLOCK_ROWS};
use chunks::ChunkRuns;
use rdx_cache::{
    AddressSpace, CacheParams, EventCounts, MemorySystem, NoProbe, Probe, Region, SimProbe,
};
use rdx_dsm::{FromValue, Oid};
use std::ops::Range;

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
    let n = values.len();
    assert_eq!(
        result_positions.len(),
        n,
        "values/positions length mismatch"
    );
    assert_eq!(
        *bounds.last().unwrap_or(&0),
        n,
        "cluster borders do not cover the input"
    );
    debug_assert!(validate_inputs(result_positions, bounds));
    let mut result = vec![T::default(); n];
    radix_decluster_windows_with_scratch(
        values,
        result_positions,
        &ChunkRuns::whole(bounds),
        0,
        window_elems(window_bytes, std::mem::size_of::<T>()),
        &mut DeclusterScratch::new(),
        &mut result,
        &mut NoProbe,
    );
    result
}

/// The reusable working memory of a Radix-Decluster sweep: the live-cluster
/// cursor array.  One scratch serves any number of
/// [`radix_decluster_windows_with_scratch`] calls of any size, so a caller
/// declustering per chunk or per query allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct DeclusterScratch {
    clusters: Vec<Live>,
}

/// A live cluster of the windowed kernel: its run's next and past-the-end
/// tuple indices, the staged index of the value under the cursor, its
/// cluster, and the base row and end of the segment holding the cursor
/// ([`ResultPositions::segment`]).
#[derive(Debug, Clone, Copy)]
struct Live {
    cursor: usize,
    end: usize,
    at: usize,
    cluster: usize,
    base: usize,
    segment_end: usize,
}

/// How a `CLUST_RESULT` array stores the result position of each clustered
/// tuple: as is (`[Oid]`), or as its low bits under its result block
/// ([`PackedPositions`]).  The windowed kernel and the chunk cursors read
/// either in place.  A *segment* is a stretch of one cluster's tuples
/// whose stored positions are offsets from one base row: a (cluster, block)
/// sub-run of packed positions, a whole run of wide ones.
pub trait ResultPositions {
    /// One stored position.
    type Stored: Copy;

    /// The stored positions, one per clustered tuple.
    fn stored(&self) -> &[Self::Stored];

    /// Entries of the block-start array the kernel's probe charges.
    fn starts_len(&self) -> usize;

    /// A stored position's offset from its segment's base row.
    fn offset(stored: Self::Stored) -> usize;

    /// The first tuple of `run`, inside cluster `cluster`, destined for
    /// row `row` or later (`run.end` if none is).
    fn seek<P: Probe>(&self, cluster: usize, run: Range<usize>, row: usize, probe: &mut P)
        -> usize;

    /// The base row and past-the-end tuple index (`usize::MAX` when only
    /// the run's own end bounds it) of the segment holding tuple `cursor`
    /// of cluster `cluster`, whose run holds only tuples destined for
    /// `rows`.
    fn segment<P: Probe>(
        &self,
        cluster: usize,
        cursor: usize,
        rows: Range<usize>,
        probe: &mut P,
    ) -> (usize, usize);
}

/// The first index of `range` whose stored position is not `below`, by
/// binary search: positions ascend inside a segment.
fn search<S: Copy, P: Probe>(
    stored: &[S],
    range: Range<usize>,
    below: impl Fn(S) -> bool,
    probe: &mut P,
) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probe.read(POSITIONS, mid);
        if below(stored[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl ResultPositions for [Oid] {
    type Stored = Oid;

    fn stored(&self) -> &[Oid] {
        self
    }

    fn starts_len(&self) -> usize {
        0
    }

    #[inline(always)]
    fn offset(stored: Oid) -> usize {
        stored as usize
    }

    fn seek<P: Probe>(&self, _: usize, run: Range<usize>, row: usize, probe: &mut P) -> usize {
        search(self, run, |p| (p as usize) < row, probe)
    }

    fn segment<P: Probe>(&self, _: usize, _: usize, _: Range<usize>, _: &mut P) -> (usize, usize) {
        (0, usize::MAX)
    }
}

impl ResultPositions for PackedPositions {
    type Stored = u16;

    fn stored(&self) -> &[u16] {
        &self.low
    }

    fn starts_len(&self) -> usize {
        self.starts.len()
    }

    #[inline(always)]
    fn offset(stored: u16) -> usize {
        usize::from(stored)
    }

    /// One block-start pair bounds the sub-run holding `row`; a binary
    /// search inside it finds the tuple.
    fn seek<P: Probe>(
        &self,
        cluster: usize,
        run: Range<usize>,
        row: usize,
        probe: &mut P,
    ) -> usize {
        let block = row / POSITION_BLOCK_ROWS;
        if block >= self.blocks {
            return run.end;
        }
        let k = cluster * self.blocks + block;
        probe.read(STARTS, k);
        probe.read(STARTS, k + 1);
        let lo = (self.starts[k] as usize).clamp(run.start, run.end);
        let hi = (self.starts[k + 1] as usize).clamp(lo, run.end);
        let low = (row % POSITION_BLOCK_ROWS) as u16;
        search(&self.low, lo..hi, |l| l < low, probe)
    }

    /// Rows inside one block need no lookup: the run lies in that block's
    /// sub-run.  Otherwise the sub-run ends are read from the first block
    /// of `rows` on until one lies past the cursor.
    fn segment<P: Probe>(
        &self,
        cluster: usize,
        cursor: usize,
        rows: Range<usize>,
        probe: &mut P,
    ) -> (usize, usize) {
        let mut block = rows.start / POSITION_BLOCK_ROWS;
        if rows.end <= (block + 1) * POSITION_BLOCK_ROWS {
            return (block * POSITION_BLOCK_ROWS, usize::MAX);
        }
        loop {
            let k = cluster * self.blocks + block;
            probe.read(STARTS, k + 1);
            if self.starts[k + 1] as usize > cursor {
                return (block * POSITION_BLOCK_ROWS, self.starts[k + 1] as usize);
            }
            block += 1;
        }
    }
}

impl DeclusterScratch {
    /// An empty scratch; the cursor array grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the cursor array to hold `clusters` live clusters, so sweeps
    /// of at most that many allocate nothing.
    pub fn reserve(&mut self, clusters: usize) {
        self.clusters
            .reserve(clusters.saturating_sub(self.clusters.len()));
    }

    /// Resident heap bytes of the cursor array (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        self.clusters.capacity() * std::mem::size_of::<Live>()
    }
}

/// Number of tuples one insertion window of `window_bytes` holds for values of
/// `value_width` bytes (never zero, even for degenerate window sizes).
#[inline]
pub fn window_elems(window_bytes: usize, value_width: usize) -> usize {
    (window_bytes / value_width.max(1)).max(1)
}

/// The windowed Radix-Decluster kernel over a chunk's per-cluster runs of a
/// `CLUST_RESULT` array.  Each of `chunk.runs` is a range of `positions`
/// inside one cluster (`chunk.clusters`), holding only tuples destined for
/// `chunk.result_range`; `values` holds the runs' values run after run, in
/// the runs' order; `out` receives result rows `base..base + out.len()`,
/// one insertion window of `window_elems` rows at a time, each value as its
/// [`FromValue`] cell.  A `base` past the chunk's first row skips each
/// run's tuples destined before it ([`ResultPositions::seek`]), and the
/// runs must hold every tuple destined for `out`'s rows.
///
/// The whole result is the case where the runs are the clusters and `base`
/// is 0 ([`radix_decluster`]); a streamed chunk passes its
/// [`chunks::ChunkRuns`] and first row, reading the prefix's positions in
/// place, wide or packed.  Because every write of a window lands inside
/// that window's rows, disjoint stretches of windows touch disjoint output
/// — the parallel executor (`rdx-exec`) hands each worker one `&mut` shard,
/// with the shard's first row as `base`.
///
/// **Cluster visiting order is part of the contract.**  Within a window the
/// live clusters are visited in array order, a drained cluster is replaced by
/// the last live one (which is visited next), and each visit drains the
/// cluster's tuples in cursor order up to the window limit.  `probe` sees
/// exactly this sequence: per visit the cursor entry's read, then per tuple
/// its position's read and, when it falls inside the window, its value's
/// read and its row's write, and a block start's read wherever a packed
/// run's segment is looked up or ends — the arrays [`probe_regions`] lays
/// out.  Every `cache.sim_*` / `perf_proxy` count is a function of it;
/// production passes [`NoProbe`], which compiles the calls away.
///
/// # Panics
/// Panics (possibly via slice indexing) if a run holds a tuple destined past
/// `out`, or if the inputs violate the [`radix_decluster`] contract.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn radix_decluster_windows_with_scratch<T, C, R, P>(
    values: &[T],
    positions: &R,
    chunk: &ChunkRuns,
    base: usize,
    window_elems: usize,
    scratch: &mut DeclusterScratch,
    out: &mut [C],
    probe: &mut P,
) where
    T: Copy,
    C: FromValue<T>,
    R: ResultPositions + ?Sized,
    P: Probe,
{
    // Live clusters: cursors advanced past every tuple destined before
    // `base`; drained runs are dropped.
    let clusters = &mut scratch.clusters;
    clusters.clear();
    let rows = base.max(chunk.result_range.start)..chunk.result_range.end;
    let mut staged = 0;
    for (run, &cluster) in chunk.runs.iter().zip(&chunk.clusters) {
        let cursor = if base > chunk.result_range.start {
            positions.seek(cluster, run.clone(), base, probe)
        } else {
            run.start
        };
        if cursor < run.end {
            let (base, segment_end) = positions.segment(cluster, cursor, rows.clone(), probe);
            clusters.push(Live {
                cursor,
                end: run.end,
                at: staged + cursor - run.start,
                cluster,
                base,
                segment_end,
            });
        }
        staged += run.len();
    }
    let mut nclusters = clusters.len();
    let stored = positions.stored();

    let rows_end = base + out.len();
    let mut window_limit = base;
    while nclusters > 0 && window_limit < rows_end {
        window_limit += window_elems;
        let mut i = 0;
        while i < nclusters {
            // The live cluster's cursors stay in registers for its whole run
            // through this window; `clusters[i]` is written back once.
            probe.read(CURSORS, i);
            let mut live = clusters[i];
            let Live { end, cluster, .. } = live;
            let (mut cursor, mut at) = (live.cursor, live.at);
            loop {
                let stop = end.min(live.segment_end);
                let run = stored[cursor..stop].iter().zip(&values[at..]);
                // Offsets from the segment's base: below `limit` inside the
                // window, `to_out` past the segment's base into `out`.
                let limit = window_limit.saturating_sub(live.base);
                let to_out = live.base.wrapping_sub(base);
                let mut drained = 0;
                for (&pos, &value) in run {
                    probe.read(POSITIONS, cursor + drained);
                    let offset = R::offset(pos);
                    if offset >= limit {
                        break;
                    }
                    let row = offset.wrapping_add(to_out);
                    probe.read(VALUES, at + drained);
                    probe.write(OUT, row);
                    out[row] = C::from_value(value);
                    drained += 1;
                }
                cursor += drained;
                at += drained;
                // Stopped inside the segment by the window, or drained.
                if cursor < stop || cursor == end {
                    break;
                }
                let rest = live.base..rows.end;
                (live.base, live.segment_end) = positions.segment(cluster, cursor, rest, probe);
            }
            if cursor < end {
                clusters[i] = Live { cursor, at, ..live };
                i += 1;
            } else {
                // Delete the drained cluster by swapping in the last live one;
                // the swapped-in cluster is processed next without advancing `i`.
                nclusters -= 1;
                clusters[i] = clusters[nclusters];
            }
        }
    }
}

/// Probe array ids of [`radix_decluster_windows_with_scratch`], in
/// [`probe_regions`] order.
const VALUES: usize = 0;
const POSITIONS: usize = 1;
const OUT: usize = 2;
const CURSORS: usize = 3;
const STARTS: usize = 4;

/// Lays out, in `space`, the five arrays the windowed kernel charges its
/// probe with, in array-id order: `rows` staged values and `rows` output
/// rows of `value_width` bytes, the `CLUST_RESULT` array of `positions` at
/// the width it stores, the cursor array as `runs + 1` 8-byte borders, and
/// the block starts of packed positions as 4-byte entries.
pub fn probe_regions<R: ResultPositions + ?Sized>(
    space: &mut AddressSpace,
    rows: usize,
    positions: &R,
    runs: usize,
    value_width: usize,
) -> [Region; 5] {
    let values = space.alloc(rows.max(1), value_width);
    let stored = space.alloc(
        positions.stored().len().max(1),
        std::mem::size_of::<R::Stored>(),
    );
    let out = space.alloc(rows.max(1), value_width);
    let cursors = space.alloc(runs + 1, 8);
    let starts = space.alloc(positions.starts_len().max(1), 4);
    [values, stored, out, cursors, starts]
}

/// The windowed kernel over `chunk`'s runs of `positions` (`values` staged
/// run after run, the chunk's first row as the base) under a [`SimProbe`]
/// charging `mem`, its arrays laid out by [`probe_regions`] in a fresh
/// address space.  Returns the chunk's rows and the simulated events — the
/// Fig. 7a miss counts of the shipped loop.  The whole result is
/// [`ChunkRuns::whole`] over the cluster bounds.
///
/// # Panics
/// Panics if `values` is not as long as the chunk.
pub fn simulate_decluster<T: Copy + Default, R: ResultPositions + ?Sized>(
    values: &[T],
    positions: &R,
    chunk: &ChunkRuns,
    window_bytes: usize,
    mem: &mut MemorySystem,
) -> (Vec<T>, EventCounts) {
    assert_eq!(chunk.len(), values.len(), "values/chunk length mismatch");
    let width = std::mem::size_of::<T>();
    let regions = probe_regions(
        &mut AddressSpace::new(),
        chunk.len(),
        positions,
        chunk.runs.len(),
        width.max(1),
    );
    let mut probe = SimProbe::new(mem, &regions);
    let mut out = vec![T::default(); chunk.len()];
    radix_decluster_windows_with_scratch(
        values,
        positions,
        chunk,
        chunk.result_range.start,
        window_elems(window_bytes, width),
        &mut DeclusterScratch::new(),
        &mut out,
        &mut probe,
    );
    (out, probe.counts())
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
    fn windowed_kernel_reuses_scratch_and_needs_no_default() {
        // A Copy type without Default: the kernel never zero-fills, so the
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
            let window = window_elems(256, std::mem::size_of::<NoDefault>());
            radix_decluster_windows_with_scratch(
                &wrapped,
                positions.as_slice(),
                &ChunkRuns::whole(&bounds),
                0,
                window,
                &mut scratch,
                &mut out,
                &mut NoProbe,
            );
            let got: Vec<i64> = out.iter().map(|v| v.0).collect();
            assert_eq!(got, expected, "n={n}");
        }
        // Empty input is a no-op.
        let mut out: [i32; 0] = [];
        radix_decluster_windows_with_scratch(
            &[],
            &[] as &[Oid],
            &ChunkRuns::whole(&[0]),
            0,
            1,
            &mut scratch,
            &mut out,
            &mut NoProbe,
        );
    }

    #[test]
    #[should_panic(expected = "values/positions length mismatch")]
    fn decluster_rejects_mismatched_lengths() {
        radix_decluster(&[1i32, 2], &[0], &[0, 2], 64);
    }

    /// [`clustered_input`] with 4-byte values, the paper's integer columns.
    fn clustered_i32_input(n: usize, bits: u32) -> (Vec<i32>, Vec<Oid>, Vec<usize>) {
        let (values, positions, bounds) = clustered_input(n, bits, n as u64);
        (
            values.iter().map(|&v| v as i32).collect(),
            positions,
            bounds,
        )
    }

    #[test]
    fn simulated_result_matches_unsimulated() {
        let (values, positions, bounds) = clustered_i32_input(5_000, 5);
        let plain = radix_decluster(&values, &positions, &bounds, 4096);
        let mut mem = MemorySystem::new(&CacheParams::paper_pentium4());
        let (simulated, counts) = simulate_decluster(
            &values,
            positions.as_slice(),
            &ChunkRuns::whole(&bounds),
            4096,
            &mut mem,
        );
        assert_eq!(plain, simulated);
        assert!(counts.accesses > 0);
        assert!(counts.l1_misses > 0);
    }

    #[test]
    fn oversized_window_causes_more_l2_misses_fig7a() {
        // The Fig. 7a knee: once ‖W‖ exceeds the L2 capacity the random writes
        // into the window stop being cache-resident and L2 misses jump.
        let params = CacheParams::tiny_for_tests(); // 8 KB "L2"
        let n = 16_384; // 64 KB of i32 output
        let (values, positions, bounds) = clustered_i32_input(n, 4);
        let whole = ChunkRuns::whole(&bounds);

        let mut mem_small = MemorySystem::new(&params);
        let (_, small) = simulate_decluster(
            &values,
            positions.as_slice(),
            &whole,
            4 * 1024,
            &mut mem_small,
        );
        let mut mem_big = MemorySystem::new(&params);
        let (_, big) = simulate_decluster(
            &values,
            positions.as_slice(),
            &whole,
            64 * 1024,
            &mut mem_big,
        );

        assert!(
            big.l2_misses > small.l2_misses * 2,
            "window > cache should thrash L2: {} vs {}",
            big.l2_misses,
            small.l2_misses
        );
    }

    #[test]
    fn tiny_windows_cost_more_tlb_misses_than_tuned_ones() {
        // The other Fig. 7a effect: very small windows re-start every cluster
        // per window, paying per-cluster TLB/line misses over and over.
        let params = CacheParams::tiny_for_tests();
        let n = 16_384;
        let (values, positions, bounds) = clustered_i32_input(n, 6); // 64 clusters > 8 TLB entries
        let whole = ChunkRuns::whole(&bounds);

        let mut mem_tiny = MemorySystem::new(&params);
        let (_, tiny) =
            simulate_decluster(&values, positions.as_slice(), &whole, 256, &mut mem_tiny);
        let mut mem_good = MemorySystem::new(&params);
        let (_, good) = simulate_decluster(
            &values,
            positions.as_slice(),
            &whole,
            4 * 1024,
            &mut mem_good,
        );

        assert!(
            tiny.tlb_misses > good.tlb_misses,
            "tiny windows should pay more TLB misses: {} vs {}",
            tiny.tlb_misses,
            good.tlb_misses
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
