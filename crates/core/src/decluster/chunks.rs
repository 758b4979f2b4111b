//! Chunk iteration over a clustered join index — the core of the streaming
//! (memory-budgeted) projection pipeline.
//!
//! Radix-Decluster's input obeys the two §3.2 properties: result positions
//! are a permutation of `0..N` and ascend *within* every cluster.  A direct
//! consequence is that any prefix `[0, end)` of the result is produced by a
//! *prefix of every cluster* — so the result can be emitted in contiguous
//! chunks by keeping one cursor per cluster and advancing each cursor past
//! the tuples whose destination falls inside the current chunk.  Each chunk
//! is then a self-contained miniature Radix-Decluster problem: its per-cluster
//! runs concatenate into a chunk-local clustered input whose rebased result
//! positions are again a permutation (of `0..chunk_len`) that ascends within
//! each run.  The standard kernels ([`super::radix_decluster`],
//! `rdx_exec::par_radix_decluster`) therefore apply unchanged per chunk,
//! and the peak working set shrinks from `O(N)` values to `O(chunk)` values.

use crate::cluster::PackedOids;
use rdx_dsm::Oid;
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

    /// Chunk-local cluster borders: prefix sums of the run lengths
    /// (`runs.len() + 1` offsets), in the shape [`super::radix_decluster`]
    /// expects for `bounds`.
    pub fn local_bounds(&self) -> Vec<usize> {
        let mut bounds = Vec::new();
        self.local_bounds_into(&mut bounds);
        bounds
    }

    /// [`ChunkRuns::local_bounds`] into a reused buffer (cleared first):
    /// allocation-free once the buffer has grown to the run count.
    pub fn local_bounds_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.reserve(self.runs.len() + 1);
        let mut acc = 0;
        out.push(0);
        for r in &self.runs {
            acc += r.len();
            out.push(acc);
        }
    }

    /// The chunk-local result positions: `positions` restricted to the runs
    /// and rebased by `result_range.start`, a permutation of
    /// `0..self.len()` ascending within every run.
    pub fn rebased_positions(&self, positions: &[Oid]) -> Vec<Oid> {
        let mut out = Vec::new();
        self.rebased_positions_into(positions, &mut out);
        out
    }

    /// [`ChunkRuns::rebased_positions`] into a reused buffer (cleared
    /// first): allocation-free once the buffer has grown to the chunk size.
    pub fn rebased_positions_into(&self, positions: &[Oid], out: &mut Vec<Oid>) {
        let base = self.result_range.start as Oid;
        out.clear();
        out.reserve(self.len());
        for r in &self.runs {
            out.extend(positions[r.clone()].iter().map(|&p| p - base));
        }
    }

    /// Gathers `src` over the runs into a chunk-local contiguous vector
    /// (e.g. the clustered smaller-side oids feeding a positional join).
    pub fn gather<T: Copy>(&self, src: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        self.gather_into(src, &mut out);
        out
    }

    /// [`ChunkRuns::gather`] into a reused buffer (cleared first):
    /// allocation-free once the buffer has grown to the chunk size.
    pub fn gather_into<T: Copy>(&self, src: &[T], out: &mut Vec<T>) {
        out.clear();
        out.reserve(self.len());
        for r in &self.runs {
            out.extend_from_slice(&src[r.clone()]);
        }
    }

    /// [`ChunkRuns::gather_into`] from a packed clustered oid array: the
    /// runs' oids, widened to [`Oid`] (each run lies inside one cluster, so
    /// it widens under one base).
    pub fn expand_into(&self, src: &PackedOids, out: &mut Vec<Oid>) {
        out.clear();
        out.reserve(self.len());
        for r in &self.runs {
            src.slice(r.clone()).extend_into(out);
        }
    }

    /// Calls `f(clustered_index)` for every clustered tuple of the chunk, in
    /// run order — the on-demand fetch loop of the streaming pipeline.
    pub fn for_each_index(&self, mut f: impl FnMut(usize)) {
        for r in &self.runs {
            for i in r.clone() {
                f(i);
            }
        }
    }
}

/// The *owned* cursor state of a chunked sweep: per-cluster `(cursor, end)`
/// pairs plus the consumed-row count, with the `positions` slice supplied at
/// every call instead of being borrowed at construction.
///
/// This is what a **resumable** pipeline stores between chunks: because the
/// state does not borrow the clustered index, a paused query (the serving
/// layer parks many of these while other queries run their chunk) is a plain
/// struct with no self-referential lifetime — the positions live in a shared
/// clustered prefix (possibly behind an `Arc` in a cross-query cache) and are
/// passed back in on resume.
#[derive(Debug, Clone)]
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
        let cursors = bounds.windows(2).map(|w| (w[0], w[1])).collect();
        ChunkCursorState {
            cursors,
            consumed: 0,
        }
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
    /// `result_end` and the same `positions` slice throughout the sweep.
    pub fn next_chunk(&mut self, positions: &[Oid], result_end: usize) -> ChunkRuns {
        let mut chunk = ChunkRuns::empty();
        self.next_chunk_into(positions, result_end, &mut chunk);
        chunk
    }

    /// [`ChunkCursorState::next_chunk`] into a reused [`ChunkRuns`] (its run
    /// list is cleared first): allocation-free once the run list has grown
    /// to the live-cluster count — what the streaming pipeline's
    /// zero-allocation steady state uses.
    pub fn next_chunk_into(&mut self, positions: &[Oid], result_end: usize, chunk: &mut ChunkRuns) {
        let result_end = result_end.min(positions.len());
        let start = self.consumed;
        let runs = &mut chunk.runs;
        runs.clear();
        for c in &mut self.cursors {
            let (cursor, end) = *c;
            if cursor >= end {
                continue;
            }
            let advance = positions[cursor..end].partition_point(|&p| (p as usize) < result_end);
            if advance > 0 {
                runs.push(cursor..cursor + advance);
                c.0 = cursor + advance;
            }
        }
        let produced: usize = runs.iter().map(|r| r.len()).sum();
        self.consumed += produced;
        debug_assert_eq!(self.consumed, result_end.max(start));
        chunk.result_range = start..self.consumed;
    }
}

/// Per-cluster cursors over a clustered `(…, result_position)` index,
/// yielding [`ChunkRuns`] for successive contiguous chunks of the result —
/// the borrowing convenience wrapper around [`ChunkCursorState`].
///
/// Construction is `O(H)`; each [`ChunkCursors::next_chunk`] advances every
/// live cluster's cursor by binary search (positions ascend within a
/// cluster), so a full sweep costs `O(N + chunks · H · log N)` — the
/// `chunks · H` term is the streaming overhead the cost model prices.
#[derive(Debug)]
pub struct ChunkCursors<'a> {
    positions: &'a [Oid],
    state: ChunkCursorState,
}

impl<'a> ChunkCursors<'a> {
    /// Cursors over a clustered index with the given result `positions` and
    /// cluster `bounds` (`H + 1` offsets, as produced by
    /// [`crate::cluster::Clustered::bounds`]).
    ///
    /// # Panics
    /// Panics if the bounds do not cover `positions`.
    pub fn new(positions: &'a [Oid], bounds: &[usize]) -> Self {
        assert_eq!(
            *bounds.last().unwrap_or(&0),
            positions.len(),
            "cluster borders do not cover the positions"
        );
        ChunkCursors {
            positions,
            state: ChunkCursorState::new(bounds),
        }
    }

    /// Number of result rows already handed out.
    pub fn consumed(&self) -> usize {
        self.state.consumed()
    }

    /// `true` once every tuple has been handed out.
    pub fn is_done(&self) -> bool {
        self.state.is_done(self.positions.len())
    }

    /// Advances every cluster past the tuples destined for result rows
    /// `< result_end` and returns their runs as one chunk.  `result_end` is
    /// clamped to `N`; calls must use non-decreasing `result_end`.
    pub fn next_chunk(&mut self, result_end: usize) -> ChunkRuns {
        self.state.next_chunk(self.positions, result_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{radix_cluster_oids, RadixClusterSpec};
    use crate::decluster::{radix_decluster, validate_inputs};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

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

    #[test]
    fn chunks_partition_the_clustered_index() {
        let (_, positions, bounds) = clustered_input(1_000, 4, 1);
        let mut cursors = ChunkCursors::new(&positions, &bounds);
        let mut covered = vec![false; 1_000];
        let mut end = 0;
        while !cursors.is_done() {
            end += 170;
            let chunk = cursors.next_chunk(end);
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
    fn chunk_local_input_is_a_valid_decluster_problem() {
        let (_, positions, bounds) = clustered_input(2_048, 5, 2);
        let mut cursors = ChunkCursors::new(&positions, &bounds);
        while !cursors.is_done() {
            let chunk = cursors.next_chunk(cursors.consumed() + 300);
            let local = chunk.rebased_positions(&positions);
            assert!(validate_inputs(&local, &chunk.local_bounds()));
        }
    }

    #[test]
    fn chunked_decluster_equals_monolithic() {
        for &(n, bits, chunk_rows) in &[(1usize, 0u32, 1usize), (37, 2, 5), (2_000, 4, 333)] {
            let (values, positions, bounds) = clustered_input(n, bits, n as u64);
            let expected = radix_decluster(&values, &positions, &bounds, 64);
            let mut cursors = ChunkCursors::new(&positions, &bounds);
            let mut out = Vec::with_capacity(n);
            while !cursors.is_done() {
                let chunk = cursors.next_chunk(cursors.consumed() + chunk_rows);
                let local_values = chunk.gather(&values);
                let local_positions = chunk.rebased_positions(&positions);
                out.extend(radix_decluster(
                    &local_values,
                    &local_positions,
                    &chunk.local_bounds(),
                    64,
                ));
            }
            assert_eq!(out, expected, "n={n} bits={bits} chunk={chunk_rows}");
        }
    }

    #[test]
    fn oversized_chunk_is_the_whole_input() {
        let (_, positions, bounds) = clustered_input(100, 3, 9);
        let mut cursors = ChunkCursors::new(&positions, &bounds);
        let chunk = cursors.next_chunk(usize::MAX);
        assert_eq!(chunk.result_range, 0..100);
        assert_eq!(chunk.len(), 100);
        assert!(cursors.is_done());
    }

    #[test]
    fn empty_input_yields_empty_chunks() {
        let positions: Vec<Oid> = vec![];
        let bounds = vec![0];
        let mut cursors = ChunkCursors::new(&positions, &bounds);
        assert!(cursors.is_done());
        let chunk = cursors.next_chunk(10);
        assert!(chunk.is_empty());
        assert!(chunk.runs.is_empty());
    }

    #[test]
    fn owned_cursor_state_matches_borrowing_wrapper() {
        let (_, positions, bounds) = clustered_input(1_024, 4, 17);
        let mut wrapper = ChunkCursors::new(&positions, &bounds);
        let mut state = ChunkCursorState::new(&bounds);
        let mut end = 0;
        while !state.is_done(positions.len()) {
            end += 111;
            // The owned state can be parked and resumed (cloned here to model
            // a pause) and still produces the wrapper's exact chunks.
            let parked = state.clone();
            drop(state);
            state = parked;
            assert_eq!(state.next_chunk(&positions, end), wrapper.next_chunk(end));
            assert_eq!(state.consumed(), wrapper.consumed());
        }
        assert!(wrapper.is_done());
    }

    #[test]
    fn into_variants_match_allocating_ones_across_reuse() {
        let (values, positions, bounds) = clustered_input(2_048, 5, 23);
        let mut state = ChunkCursorState::new(&bounds);
        let mut reused = ChunkRuns::empty();
        let mut reused_state = ChunkCursorState::new(&bounds);
        let (mut oids_buf, mut pos_buf, mut bounds_buf) = (Vec::new(), Vec::new(), Vec::new());
        let mut end = 0;
        while !state.is_done(positions.len()) {
            end += 300;
            let fresh = state.next_chunk(&positions, end);
            reused_state.next_chunk_into(&positions, end, &mut reused);
            assert_eq!(reused, fresh);
            fresh.gather_into(&values, &mut oids_buf);
            assert_eq!(oids_buf, fresh.gather(&values));
            fresh.rebased_positions_into(&positions, &mut pos_buf);
            assert_eq!(pos_buf, fresh.rebased_positions(&positions));
            fresh.local_bounds_into(&mut bounds_buf);
            assert_eq!(bounds_buf, fresh.local_bounds());
        }
        assert!(ChunkRuns::empty().is_empty());
    }

    #[test]
    fn expand_into_widens_what_gather_into_copies() {
        let mut smaller: Vec<Oid> = (0..2_048).collect();
        smaller.shuffle(&mut StdRng::seed_from_u64(29));
        let positions: Vec<Oid> = (0..2_048).collect();
        let clustered =
            radix_cluster_oids(&smaller, &positions, RadixClusterSpec::partial(4, 1, 7));
        let (keys, bounds) = (clustered.keys().to_vec(), clustered.bounds().to_vec());
        let (packed, positions) = PackedOids::pack(clustered);
        let mut state = ChunkCursorState::new(&bounds);
        let (mut wide, mut expanded) = (Vec::new(), Vec::new());
        let mut end = 0;
        while !state.is_done(positions.len()) {
            end += 300;
            let chunk = state.next_chunk(&positions, end);
            chunk.gather_into(&keys, &mut wide);
            chunk.expand_into(&packed, &mut expanded);
            assert_eq!(expanded, wide, "chunk ending at {end}");
        }
    }

    #[test]
    fn for_each_index_visits_runs_in_order() {
        let chunk = ChunkRuns {
            result_range: 0..5,
            runs: vec![2..4, 7..10],
        };
        let mut seen = Vec::new();
        chunk.for_each_index(|i| seen.push(i));
        assert_eq!(seen, vec![2, 3, 7, 8, 9]);
    }
}
