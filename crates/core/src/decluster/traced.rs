//! Traced Radix-Decluster: replays the algorithm's exact memory access
//! pattern through the `rdx-cache` simulator.
//!
//! This is the substitute for the hardware performance counters the paper uses
//! in Fig. 7a: the same code path as [`super::radix_decluster`], but every
//! array reference is also issued to a [`MemorySystem`], so we obtain L1, L2
//! and TLB miss counts for any insertion-window size and cluster count.
//!
//! The twin mirrors the production kernel's **cluster visiting order**
//! (array order within a window, swap-delete of drained clusters, tuples in
//! cursor order) — that order is part of
//! [`super::radix_decluster_windows_with_scratch`]'s contract, so the
//! simulated counts stay those of the shipped loop however it is written.

use super::chunks::ChunkRuns;
use rdx_cache::{AddressSpace, EventCounts, MemorySystem};
use rdx_dsm::Oid;

/// Runs Radix-Decluster over one chunk while simulating its memory
/// accesses, returning the chunk's values in result order and the
/// simulator's event counts: [`super::radix_decluster_windows_with_scratch`]
/// over `chunk`'s runs of `result_positions`, with `values` staged run after
/// run and the chunk's first row as the base.  The whole result is
/// [`ChunkRuns::whole`] over the cluster bounds.
///
/// `value_width` is the byte width of one projected value (4 for the paper's
/// integer columns); the value array, position array, result array and
/// cluster-border array are laid out in a fresh simulated address space.
pub fn radix_decluster_traced<T: Copy + Default>(
    values: &[T],
    result_positions: &[Oid],
    chunk: &ChunkRuns,
    window_bytes: usize,
    mem: &mut MemorySystem,
) -> (Vec<T>, EventCounts) {
    let n = values.len();
    assert_eq!(chunk.len(), n, "values/chunk length mismatch");

    let value_width = std::mem::size_of::<T>().max(1);
    let mut space = AddressSpace::new();
    let values_region = space.alloc(n.max(1), value_width);
    let positions_region = space.alloc(result_positions.len().max(1), 4);
    let result_region = space.alloc(n.max(1), value_width);
    let borders_region = space.alloc(chunk.runs.len() + 1, 8);

    let mut result = vec![T::default(); n];
    if n == 0 {
        return (result, mem.counts());
    }

    // `(cursor, end, at)` per non-empty run, as the production kernel
    // keeps them.
    let mut staged = 0;
    let mut clusters: Vec<(usize, usize, usize)> = chunk
        .runs
        .iter()
        .map(|run| {
            let value = staged;
            staged += run.len();
            (run.start, run.end, value)
        })
        .filter(|(s, e, _)| s < e)
        .collect();
    let mut nclusters = clusters.len();

    let base = chunk.result_range.start;
    let window_elems = (window_bytes / value_width).max(1);
    let mut window_limit = base + window_elems;

    let before = mem.counts();
    while nclusters > 0 {
        let mut i = 0;
        while i < nclusters {
            // Reading this cluster's border entry (the repeated sequential
            // scan over the start/end array of Fig. 5).
            mem.read(borders_region.addr(i.min(borders_region.elems() - 1)), 8);
            loop {
                let (cursor, end, at) = clusters[i];
                // Read the destination oid for the tuple under the cursor.
                mem.read(positions_region.addr(cursor), 4);
                let dest = result_positions[cursor] as usize;
                if dest >= window_limit {
                    i += 1;
                    break;
                }
                // Read the value and write it to its final position.
                mem.read(values_region.addr(at), value_width);
                mem.write(result_region.addr(dest - base), value_width);
                result[dest - base] = values[at];
                if cursor + 1 >= end {
                    nclusters -= 1;
                    clusters[i] = clusters[nclusters];
                    if i >= nclusters {
                        i += 1;
                    }
                    break;
                }
                clusters[i] = (cursor + 1, end, at + 1);
            }
        }
        window_limit += window_elems;
    }

    let after = mem.counts();
    let delta = EventCounts {
        accesses: after.accesses - before.accesses,
        l1_misses: after.l1_misses - before.l1_misses,
        l2_misses: after.l2_misses - before.l2_misses,
        tlb_misses: after.tlb_misses - before.tlb_misses,
    };
    (result, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{radix_cluster_oids, RadixClusterSpec};
    use crate::decluster::radix_decluster;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rdx_cache::CacheParams;

    fn clustered_input(n: usize, bits: u32) -> (Vec<i32>, Vec<Oid>, Vec<usize>) {
        let mut smaller: Vec<Oid> = (0..n as Oid).collect();
        smaller.shuffle(&mut StdRng::seed_from_u64(n as u64));
        let result_pos: Vec<Oid> = (0..n as Oid).collect();
        let c = radix_cluster_oids(&smaller, &result_pos, RadixClusterSpec::single_pass(bits));
        let values: Vec<i32> = c.keys().iter().map(|&o| o as i32).collect();
        (values, c.payloads().to_vec(), c.bounds().to_vec())
    }

    #[test]
    fn traced_result_matches_untraced() {
        let (values, positions, bounds) = clustered_input(5_000, 5);
        let plain = radix_decluster(&values, &positions, &bounds, 4096);
        let mut mem = MemorySystem::new(&CacheParams::paper_pentium4());
        let (traced, counts) = radix_decluster_traced(
            &values,
            &positions,
            &ChunkRuns::whole(&bounds),
            4096,
            &mut mem,
        );
        assert_eq!(plain, traced);
        assert!(counts.accesses > 0);
        assert!(counts.l1_misses > 0);
    }

    #[test]
    fn oversized_window_causes_more_l2_misses_fig7a() {
        // The Fig. 7a knee: once ‖W‖ exceeds the L2 capacity the random writes
        // into the window stop being cache-resident and L2 misses jump.
        let params = CacheParams::tiny_for_tests(); // 8 KB "L2"
        let n = 16_384; // 64 KB of i32 output
        let (values, positions, bounds) = clustered_input(n, 4);

        let mut mem_small = MemorySystem::new(&params);
        let (_, small) = radix_decluster_traced(
            &values,
            &positions,
            &ChunkRuns::whole(&bounds),
            4 * 1024,
            &mut mem_small,
        );
        let mut mem_big = MemorySystem::new(&params);
        let (_, big) = radix_decluster_traced(
            &values,
            &positions,
            &ChunkRuns::whole(&bounds),
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
        let (values, positions, bounds) = clustered_input(n, 6); // 64 clusters > 8 TLB entries

        let mut mem_tiny = MemorySystem::new(&params);
        let (_, tiny) = radix_decluster_traced(
            &values,
            &positions,
            &ChunkRuns::whole(&bounds),
            256,
            &mut mem_tiny,
        );
        let mut mem_good = MemorySystem::new(&params);
        let (_, good) = radix_decluster_traced(
            &values,
            &positions,
            &ChunkRuns::whole(&bounds),
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
}
