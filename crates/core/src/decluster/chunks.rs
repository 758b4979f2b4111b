//! Chunk iteration over a clustered join index — the core of the streaming
//! (memory-budgeted) projection pipeline.
//!
//! Radix-Decluster's input obeys the two §3.2 properties: result positions
//! are a permutation of `0..N` and ascend *within* every cluster.  A direct
//! consequence is that any prefix `[0, end)` of the result is produced by a
//! *prefix of every cluster* — so the result can be emitted in contiguous
//! chunks by keeping one cursor per cluster and advancing each cursor past
//! the tuples whose destination falls inside the current chunk.  A chunk is
//! then its per-cluster runs of the clustered index plus its first result
//! row, which is all the windowed kernel
//! ([`super::radix_decluster_windows_with_scratch`]) needs: it reads the
//! runs' positions in place, so the peak working set shrinks from `O(N)`
//! values to `O(chunk)` values without copying any index array.  Over
//! packed positions a cursor finds its chunk end through the block starts
//! ([`super::ResultPositions::seek`]): only the one block's sub-run holding
//! the end is searched.

use super::ResultPositions;
use rdx_cache::NoProbe;
use std::ops::Range;

/// The per-cluster runs making up one contiguous chunk of the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRuns {
    /// The result rows this chunk covers.
    pub result_range: Range<usize>,
    /// Non-empty ranges of clustered-tuple indices contributing to this
    /// chunk, in cluster order.  Their total length equals
    /// `result_range.len()`.
    pub runs: Vec<Range<usize>>,
    /// The cluster each run lies in.
    pub clusters: Vec<usize>,
}

impl Default for ChunkRuns {
    fn default() -> Self {
        Self::empty()
    }
}

impl ChunkRuns {
    /// An empty chunk, for use as the reusable target of
    /// [`ChunkCursorState::next_chunk_into`].
    pub fn empty() -> Self {
        ChunkRuns {
            result_range: 0..0,
            runs: Vec::new(),
            clusters: Vec::new(),
        }
    }

    /// The whole clustered index as one chunk: every non-empty cluster of
    /// `bounds` (`H + 1` offsets) is a run — the chunk a sweep's first
    /// [`ChunkCursorState::next_chunk`] returns when it covers the result.
    pub fn whole(bounds: &[usize]) -> Self {
        let (clusters, runs) = bounds
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(j, w)| (j, w[0]..w[1]))
            .unzip();
        ChunkRuns {
            result_range: 0..bounds.last().copied().unwrap_or(0),
            runs,
            clusters,
        }
    }

    /// Number of result rows (= clustered tuples) in this chunk.
    pub fn len(&self) -> usize {
        self.result_range.len()
    }

    /// `true` if the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.result_range.is_empty()
    }
}

/// The *owned* cursor state of a chunked sweep: per-cluster `(cursor, end)`
/// pairs plus the consumed-row count, with the `positions` array supplied at
/// every call instead of being borrowed at construction.
///
/// This is what a **resumable** pipeline stores between chunks: because the
/// state does not borrow the clustered index, a paused query (the serving
/// layer parks many of these while other queries run their chunk) is a plain
/// struct with no self-referential lifetime — the positions live in a shared
/// clustered prefix (possibly behind an `Arc` in a cross-query cache) and are
/// passed back in on resume.
#[derive(Debug, Clone, Default)]
pub struct ChunkCursorState {
    /// `(cursor, end)` per original cluster; drained clusters keep
    /// `cursor == end` (order is preserved so chunk-local staging is
    /// deterministic).
    cursors: Vec<(usize, usize)>,
    consumed: usize,
}

impl ChunkCursorState {
    /// Fresh cursors for a clustered index with the given cluster `bounds`
    /// (`H + 1` offsets, as produced by
    /// [`crate::cluster::Clustered::bounds`]).
    pub fn new(bounds: &[usize]) -> Self {
        let mut state = ChunkCursorState::default();
        state.reset(bounds);
        state
    }

    /// Rewinds every cursor to the start of its cluster of `bounds`, in
    /// place: a sweep over the same clustered index starts over without
    /// allocating (a column-major run restarts the sweep per column).
    pub fn reset(&mut self, bounds: &[usize]) {
        self.cursors.clear();
        self.cursors.extend(bounds.windows(2).map(|w| (w[0], w[1])));
        self.consumed = 0;
    }

    /// Number of result rows already handed out.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// `true` once all `total` tuples have been handed out.
    pub fn is_done(&self, total: usize) -> bool {
        self.consumed == total
    }

    /// Advances every cluster past the tuples destined for result rows
    /// `< result_end` of `positions` and returns their runs as one chunk.
    /// `result_end` is clamped to `N`; calls must use non-decreasing
    /// `result_end` and the same `positions` throughout the sweep.
    pub fn next_chunk<R: ResultPositions + ?Sized>(
        &mut self,
        positions: &R,
        result_end: usize,
    ) -> ChunkRuns {
        let mut chunk = ChunkRuns::empty();
        self.next_chunk_into(positions, result_end, &mut chunk);
        chunk
    }

    /// [`ChunkCursorState::next_chunk`] into a reused [`ChunkRuns`] (its run
    /// list is cleared first): allocation-free once the run list has grown
    /// to the live-cluster count — what the streaming pipeline's
    /// zero-allocation steady state uses.
    pub fn next_chunk_into<R: ResultPositions + ?Sized>(
        &mut self,
        positions: &R,
        result_end: usize,
        chunk: &mut ChunkRuns,
    ) {
        let result_end = result_end.min(positions.stored().len());
        let start = self.consumed;
        let (runs, clusters) = (&mut chunk.runs, &mut chunk.clusters);
        runs.clear();
        clusters.clear();
        for (j, c) in self.cursors.iter_mut().enumerate() {
            let (cursor, end) = *c;
            if cursor >= end {
                continue;
            }
            let stop = positions.seek(j, cursor..end, result_end, &mut NoProbe);
            if stop > cursor {
                runs.push(cursor..stop);
                clusters.push(j);
                c.0 = stop;
            }
        }
        let produced: usize = runs.iter().map(|r| r.len()).sum();
        self.consumed += produced;
        debug_assert_eq!(self.consumed, result_end.max(start));
        chunk.result_range = start..self.consumed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{radix_cluster_oids, RadixClusterSpec};
    use crate::decluster::{
        radix_decluster, radix_decluster_windows_with_scratch, window_elems, DeclusterScratch,
    };
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rdx_dsm::Oid;

    fn clustered_input(n: usize, bits: u32, seed: u64) -> (Vec<i64>, Vec<Oid>, Vec<usize>) {
        let mut smaller: Vec<Oid> = (0..n as Oid).collect();
        smaller.shuffle(&mut StdRng::seed_from_u64(seed));
        let result_positions: Vec<Oid> = (0..n as Oid).collect();
        let clustered = radix_cluster_oids(
            &smaller,
            &result_positions,
            RadixClusterSpec::single_pass(bits),
        );
        let values: Vec<i64> = clustered.keys().iter().map(|&o| o as i64 * 7).collect();
        (
            values,
            clustered.payloads().to_vec(),
            clustered.bounds().to_vec(),
        )
    }

    /// Declusters one chunk with the runs kernel: its values staged run
    /// after run, its positions read in place, into its stretch of `out`.
    fn decluster_chunk(
        chunk: &ChunkRuns,
        values: &[i64],
        positions: &[Oid],
        scratch: &mut DeclusterScratch,
        out: &mut [i64],
    ) {
        let staged: Vec<i64> = chunk
            .runs
            .iter()
            .flat_map(|r| values[r.clone()].iter().copied())
            .collect();
        radix_decluster_windows_with_scratch(
            &staged,
            positions,
            chunk,
            chunk.result_range.start,
            window_elems(64, std::mem::size_of::<i64>()),
            scratch,
            &mut out[chunk.result_range.clone()],
            &mut rdx_cache::NoProbe,
        );
    }

    #[test]
    fn chunks_partition_the_clustered_index() {
        let (_, positions, bounds) = clustered_input(1_000, 4, 1);
        let mut cursors = ChunkCursorState::new(&bounds);
        let mut covered = vec![false; 1_000];
        let mut end = 0;
        while !cursors.is_done(positions.len()) {
            end += 170;
            let chunk = cursors.next_chunk(positions.as_slice(), end);
            for r in &chunk.runs {
                for i in r.clone() {
                    assert!(!covered[i], "clustered tuple {i} in two chunks");
                    covered[i] = true;
                    let p = positions[i] as usize;
                    assert!(chunk.result_range.contains(&p));
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn chunked_decluster_equals_monolithic() {
        for &(n, bits, chunk_rows) in &[(1usize, 0u32, 1usize), (37, 2, 5), (2_000, 4, 333)] {
            let (values, positions, bounds) = clustered_input(n, bits, n as u64);
            let expected = radix_decluster(&values, &positions, &bounds, 64);
            let mut cursors = ChunkCursorState::new(&bounds);
            let mut scratch = DeclusterScratch::new();
            let mut out = vec![i64::MIN; n];
            while !cursors.is_done(n) {
                let chunk =
                    cursors.next_chunk(positions.as_slice(), cursors.consumed() + chunk_rows);
                decluster_chunk(&chunk, &values, &positions, &mut scratch, &mut out);
            }
            assert_eq!(out, expected, "n={n} bits={bits} chunk={chunk_rows}");
        }
    }

    #[test]
    fn oversized_chunk_is_the_whole_input() {
        let (_, positions, bounds) = clustered_input(100, 3, 9);
        let mut cursors = ChunkCursorState::new(&bounds);
        let chunk = cursors.next_chunk(positions.as_slice(), usize::MAX);
        assert_eq!(chunk.result_range, 0..100);
        assert_eq!(chunk.len(), 100);
        assert_eq!(chunk, ChunkRuns::whole(&bounds));
        assert!(cursors.is_done(positions.len()));
    }

    #[test]
    fn empty_input_yields_empty_chunks() {
        let positions: Vec<Oid> = vec![];
        let bounds = vec![0];
        let mut cursors = ChunkCursorState::new(&bounds);
        assert!(cursors.is_done(positions.len()));
        let chunk = cursors.next_chunk(positions.as_slice(), 10);
        assert!(chunk.is_empty());
        assert!(chunk.runs.is_empty());
        assert_eq!(chunk, ChunkRuns::whole(&bounds));
    }

    #[test]
    fn into_variants_match_allocating_ones_across_reuse() {
        let (values, positions, bounds) = clustered_input(2_048, 5, 23);
        let mut state = ChunkCursorState::new(&bounds);
        let mut reused = ChunkRuns::empty();
        let mut reused_state = ChunkCursorState::new(&bounds);
        let mut reused_scratch = DeclusterScratch::new();
        let (mut fresh_out, mut reused_out) = (vec![0; 2_048], vec![i64::MIN; 2_048]);
        let mut end = 0;
        while !state.is_done(positions.len()) {
            end += 300;
            let fresh = state.next_chunk(positions.as_slice(), end);
            reused_state.next_chunk_into(positions.as_slice(), end, &mut reused);
            assert_eq!(reused, fresh);
            // A scratch reused across chunks declusters what a fresh one does.
            let mut scratch = DeclusterScratch::new();
            decluster_chunk(&fresh, &values, &positions, &mut scratch, &mut fresh_out);
            decluster_chunk(
                &reused,
                &values,
                &positions,
                &mut reused_scratch,
                &mut reused_out,
            );
            let rows = fresh.result_range.clone();
            assert_eq!(reused_out[rows.clone()], fresh_out[rows]);
        }
        assert!(ChunkRuns::empty().is_empty());
    }
}
