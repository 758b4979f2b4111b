//! Parallel Radix-Decluster: independent insertion-window ranges per worker.
//!
//! Radix-Decluster's writes are confined to the current insertion window, and
//! the windows tile the result without overlap — so the window sequence can
//! be cut into contiguous *window ranges* and each range handed to a worker
//! together with the matching disjoint `&mut` result shard.  A worker finds
//! its per-cluster start cursors by binary search (positions are ascending
//! within every cluster — §3.2 property 2; over packed positions, inside the
//! one block sub-run the block starts name) and then runs the unchanged
//! sequential window loop
//! ([`rdx_core::decluster::radix_decluster_windows_with_scratch`]) over its
//! shard.  No synchronisation happens inside the loop, and the output is
//! **byte-identical** to the sequential kernel: every tuple's destination is
//! data-determined, workers merely split who writes it.

use crate::pool::{run_workers, Claims, ExecPolicy};
use rdx_cache::{NoProbe, Probe};
use rdx_core::decluster::chunks::ChunkRuns;
use rdx_core::decluster::{
    radix_decluster_windows_with_scratch, window_elems, DeclusterScratch, ResultPositions,
};
use rdx_dsm::FromValue;

/// Parallel Radix-Decluster of one chunk into a caller-provided output
/// slice: `chunk`'s runs of `result_positions`, wide or packed, are read in
/// place, `values` holds their values run after run, and `out` receives
/// the chunk's rows as [`FromValue`] cells (the whole result is
/// [`ChunkRuns::whole`]).  Every slot of `out` is overwritten, so no
/// allocation or zero-fill is paid for the result; with one worker the
/// whole sweep runs inline through `scratch` and is allocation-free in
/// steady state (multi-worker sweeps still allocate their per-worker
/// cursor arrays alongside the thread spawns they already require).  An active `probe` sees the sweep on one worker, so its
/// reference sequence is the sequential kernel's at every thread count.
///
/// # Panics
/// Panics if `values` or `out` is not as long as the chunk, or the runs
/// violate the kernel's contract.
#[allow(clippy::too_many_arguments)]
pub fn par_radix_decluster_into<T, C, R, P>(
    values: &[T],
    result_positions: &R,
    chunk: &ChunkRuns,
    window_bytes: usize,
    policy: &ExecPolicy,
    scratch: &mut DeclusterScratch,
    out: &mut [C],
    probe: &mut P,
) where
    T: Copy + Send + Sync,
    C: FromValue<T> + Send,
    R: ResultPositions + Sync + ?Sized,
    P: Probe,
{
    let n = chunk.len();
    assert_eq!(values.len(), n, "values/chunk length mismatch");
    assert_eq!(out.len(), n, "output length mismatch");
    if n == 0 {
        return;
    }
    let elems = window_elems(window_bytes, std::mem::size_of::<T>());
    let windows = n.div_ceil(elems);
    let threads = policy.threads.min(windows);
    let base = chunk.result_range.start;
    if threads <= 1 || P::ACTIVE {
        radix_decluster_windows_with_scratch(
            values,
            result_positions,
            chunk,
            base,
            elems,
            scratch,
            out,
            probe,
        );
        return;
    }

    // Cut the window sequence into one contiguous group per worker and the
    // chunk's rows at the same offsets: group `g` owns rows
    // [g·rows, (g + 1)·rows) of the chunk, `rows` a whole number of windows.
    let rows = windows.div_ceil(threads) * elems;
    let queue = Claims::new(out.chunks_mut(rows).enumerate());
    run_workers(threads, |_| {
        let mut scratch = DeclusterScratch::new();
        while let Some((g, shard)) = queue.claim() {
            radix_decluster_windows_with_scratch(
                values,
                result_positions,
                chunk,
                base + g * rows,
                elems,
                &mut scratch,
                shard,
                &mut NoProbe,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rdx_core::cluster::{radix_cluster_oids, RadixClusterSpec};
    use rdx_core::decluster::radix_decluster;
    use rdx_dsm::Oid;

    /// The §3.2 pipeline input: cluster a permutation, attach values.
    fn clustered_input(n: usize, bits: u32, seed: u64) -> (Vec<i64>, Vec<Oid>, Vec<usize>) {
        let mut smaller: Vec<Oid> = (0..n as Oid).collect();
        smaller.shuffle(&mut StdRng::seed_from_u64(seed));
        let positions: Vec<Oid> = (0..n as Oid).collect();
        let clustered =
            radix_cluster_oids(&smaller, &positions, RadixClusterSpec::single_pass(bits));
        let values: Vec<i64> = clustered.keys().iter().map(|&o| o as i64 * 7).collect();
        (
            values,
            clustered.payloads().to_vec(),
            clustered.bounds().to_vec(),
        )
    }

    /// The whole result of the parallel kernel on `threads` workers, in a
    /// fresh buffer.
    fn decluster<T: Copy + Default + Send + Sync>(
        values: &[T],
        positions: &[Oid],
        bounds: &[usize],
        window_bytes: usize,
        threads: usize,
    ) -> Vec<T> {
        let mut out = vec![T::default(); values.len()];
        par_radix_decluster_into(
            values,
            positions,
            &ChunkRuns::whole(bounds),
            window_bytes,
            &ExecPolicy::with_threads(threads),
            &mut DeclusterScratch::new(),
            &mut out,
            &mut NoProbe,
        );
        out
    }

    #[test]
    fn parallel_equals_sequential_across_thread_counts_and_windows() {
        for &n in &[1usize, 17, 1_000, 20_000] {
            let (values, positions, bounds) = clustered_input(n, 5, n as u64);
            for window_bytes in [8usize, 256, 4 * 1024, 1 << 20] {
                let expected = radix_decluster(&values, &positions, &bounds, window_bytes);
                for threads in [1usize, 2, 3, 8] {
                    let got = decluster(&values, &positions, &bounds, window_bytes, threads);
                    assert_eq!(
                        got, expected,
                        "n={n} window={window_bytes} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_threads_than_windows_degrades_gracefully() {
        let (values, positions, bounds) = clustered_input(100, 3, 4);
        // One giant window: only one window exists, so only one worker runs.
        let expected = radix_decluster(&values, &positions, &bounds, 1 << 20);
        let got = decluster(&values, &positions, &bounds, 1 << 20, 8);
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = decluster(&[], &[], &[0], 1024, 4);
        assert!(out.is_empty());
    }

    #[test]
    fn into_variant_overwrites_reused_buffers_byte_identically() {
        let mut scratch = DeclusterScratch::new();
        let mut buf: Vec<i64> = Vec::new();
        for &(n, threads) in &[(1_000usize, 1usize), (1_000, 3), (257, 2), (4_096, 1)] {
            let (values, positions, bounds) = clustered_input(n, 4, n as u64);
            let expected = radix_decluster(&values, &positions, &bounds, 512);
            // Garbage-filled reused buffer: every slot must be overwritten.
            buf.clear();
            buf.resize(n, i64::MIN);
            par_radix_decluster_into(
                &values,
                positions.as_slice(),
                &ChunkRuns::whole(&bounds),
                512,
                &ExecPolicy::with_threads(threads),
                &mut scratch,
                &mut buf,
                &mut NoProbe,
            );
            assert_eq!(buf, expected, "n={n} threads={threads}");
        }
    }

    #[test]
    fn a_probed_sweep_charges_the_sequential_kernel_at_every_thread_count() {
        use rdx_cache::{AddressSpace, CacheParams, MemorySystem, SimProbe};
        use rdx_core::decluster::{probe_regions, simulate_decluster};

        let (values, positions, bounds) = clustered_input(20_000, 5, 3);
        let chunk = ChunkRuns::whole(&bounds);
        let params = CacheParams::tiny_for_tests();
        let (expected, counts) = simulate_decluster(
            &values,
            positions.as_slice(),
            &chunk,
            512,
            &mut MemorySystem::new(&params),
        );
        for threads in [1usize, 2, 8] {
            let regions = probe_regions(
                &mut AddressSpace::new(),
                chunk.len(),
                positions.as_slice(),
                chunk.runs.len(),
                std::mem::size_of::<i64>(),
            );
            let mut mem = MemorySystem::new(&params);
            let mut probe = SimProbe::new(&mut mem, &regions);
            let mut out = vec![0i64; values.len()];
            par_radix_decluster_into(
                &values,
                positions.as_slice(),
                &chunk,
                512,
                &ExecPolicy::with_threads(threads),
                &mut DeclusterScratch::new(),
                &mut out,
                &mut probe,
            );
            assert_eq!(out, expected, "threads={threads}");
            assert_eq!(probe.counts(), counts, "threads={threads}");
        }
    }

    /// Packed ≡ wide around the 2^16-row blocks: results of 2^16 − 1, 2^16,
    /// 2^16 + 1 and 3·2^16 + 5 rows and a cluster with an empty block,
    /// declustered whole and in 40 000-row chunks (boundaries inside a
    /// block), at 1 and 3 threads (3 000-row windows cut shards mid-block)
    /// and with windows wider than a block, equal the `&[Oid]` kernel.
    #[test]
    fn packed_positions_decluster_like_wide_ones_around_the_blocks() {
        use rdx_core::cluster::{PackedPositions, POSITION_BLOCK_ROWS as BLOCK};
        use rdx_core::decluster::chunks::ChunkCursorState;

        let mut cases: Vec<_> = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
            .into_iter()
            .map(|n| clustered_input(n, 5, n as u64))
            .collect();
        // Block 1's rows all in cluster 1: cluster 0 skips a block.
        let rows = 3 * BLOCK + 5;
        let (ones, zeros): (Vec<Oid>, Vec<Oid>) =
            (0..rows as Oid).partition(|&r| r as usize / BLOCK == 1 || r % 2 == 1);
        let bounds = vec![0, zeros.len(), rows];
        let positions: Vec<Oid> = zeros.into_iter().chain(ones).collect();
        let values = positions.iter().map(|&p| p as i64 * 5).collect();
        cases.push((values, positions, bounds));

        for (values, wide, bounds) in cases {
            let n = values.len();
            let packed = PackedPositions::pack(&wide, &bounds);
            for window_bytes in [3_000 * 8, 1 << 20] {
                let expected = radix_decluster(&values, &wide, &bounds, window_bytes);
                for threads in [1, 3] {
                    let label = format!("n={n} window={window_bytes} threads={threads}");
                    let policy = ExecPolicy::with_threads(threads);
                    let mut scratch = DeclusterScratch::new();
                    let mut whole = vec![i64::MIN; n];
                    par_radix_decluster_into(
                        &values,
                        &packed,
                        &ChunkRuns::whole(&bounds),
                        window_bytes,
                        &policy,
                        &mut scratch,
                        &mut whole,
                        &mut NoProbe,
                    );
                    assert!(whole == expected, "{label}: whole result");

                    let mut cursors = ChunkCursorState::new(&bounds);
                    let mut wide_cursors = ChunkCursorState::new(&bounds);
                    let mut streamed = vec![i64::MIN; n];
                    while !cursors.is_done(n) {
                        let end = cursors.consumed() + 40_000;
                        let chunk = cursors.next_chunk(&packed, end);
                        assert_eq!(chunk, wide_cursors.next_chunk(wide.as_slice(), end));
                        let staged: Vec<i64> = chunk
                            .runs
                            .iter()
                            .flat_map(|r| values[r.clone()].iter().copied())
                            .collect();
                        par_radix_decluster_into(
                            &staged,
                            &packed,
                            &chunk,
                            window_bytes,
                            &policy,
                            &mut scratch,
                            &mut streamed[chunk.result_range.clone()],
                            &mut NoProbe,
                        );
                    }
                    assert!(streamed == expected, "{label}: chunked");
                }
            }
        }
    }

    #[test]
    fn wide_values_survive_parallel_decluster() {
        let (values, positions, bounds) = clustered_input(2_000, 4, 11);
        let wide: Vec<[i64; 4]> = values.iter().map(|&v| [v, v + 1, v + 2, v + 3]).collect();
        let expected = radix_decluster(&wide, &positions, &bounds, 2048);
        let got = decluster(&wide, &positions, &bounds, 2048, 4);
        assert_eq!(got, expected);
    }
}
