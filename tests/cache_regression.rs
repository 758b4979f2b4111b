//! Cache-behavior regression tests: the (streaming) Radix-Decluster access
//! pattern, replayed through the `rdx-cache` simulator, must stay within the
//! Appendix-A cost-model prediction — so a cache-efficiency regression fails
//! CI instead of only showing up in benches.
//!
//! ## Slack factors (documented contract)
//!
//! The cost model is an *analytical upper envelope*: it charges every
//! (window × cluster) chunk start and never credits cross-chunk residency,
//! so at high chunk counts (chunk ≈ cache) it over-predicts heavily while
//! the simulator sees near-zero misses.  The assertions are therefore
//! one-sided — simulated misses must not *exceed* prediction × slack:
//!
//! * L2 misses: slack **2.5** (measured headroom on this grid: sim/pred
//!   ≤ 1.7);
//! * L1 misses: slack **3** (the model under-counts L1 re-touches of the
//!   cursor state; measured ≤ 2.2);
//! * TLB misses: slack **3** (measured ≤ 2.4).
//!
//! Tightening the kernels can only lower the simulated side; a regression
//! that pushes any miss class past the envelope fails here.

use radix_decluster::cache::{CacheParams, EventCounts, MemorySystem};
use radix_decluster::core::cluster::{radix_cluster_oids, RadixClusterSpec};
use radix_decluster::core::decluster::chunks::{ChunkCursorState, ChunkRuns};
use radix_decluster::core::decluster::simulate_decluster;
use radix_decluster::cost::algorithms as cost;
use radix_decluster::dsm::Oid;

const L2_SLACK: f64 = 2.5;
const L1_SLACK: f64 = 3.0;
const TLB_SLACK: f64 = 3.0;

fn clustered_input(n: usize, bits: u32) -> (Vec<i32>, Vec<Oid>, Vec<usize>) {
    let smaller: Vec<Oid> = (0..n as Oid)
        .map(|r| (r.wrapping_mul(2_654_435_761)) % n as Oid)
        .collect();
    let positions: Vec<Oid> = (0..n as Oid).collect();
    let c = radix_cluster_oids(&smaller, &positions, RadixClusterSpec::single_pass(bits));
    let values: Vec<i32> = c.keys().iter().map(|&o| o as i32).collect();
    (values, c.payloads().to_vec(), c.bounds().to_vec())
}

/// Runs the *streaming* decluster — `chunks` kernel runs over the runs of
/// [`ChunkCursorState`] chunks, positions read in place — under one
/// continuous [`MemorySystem`], returning the reassembled result and the
/// summed event counts.
fn simulated_streaming_decluster(
    values: &[i32],
    positions: &[Oid],
    bounds: &[usize],
    window_bytes: usize,
    chunks: usize,
    mem: &mut MemorySystem,
) -> (Vec<i32>, EventCounts) {
    let n = values.len();
    let chunk_rows = n.div_ceil(chunks.max(1)).max(1);
    let mut cursors = ChunkCursorState::new(bounds);
    let mut out = Vec::with_capacity(n);
    let mut acc = EventCounts::default();
    while !cursors.is_done(n) {
        let chunk = cursors.next_chunk(positions, cursors.consumed() + chunk_rows);
        let staged: Vec<i32> = chunk
            .runs
            .iter()
            .flat_map(|r| values[r.clone()].iter().copied())
            .collect();
        let (chunk_out, delta) = simulate_decluster(&staged, positions, &chunk, window_bytes, mem);
        out.extend(chunk_out);
        acc.accesses += delta.accesses;
        acc.l1_misses += delta.l1_misses;
        acc.l2_misses += delta.l2_misses;
        acc.tlb_misses += delta.tlb_misses;
    }
    (out, acc)
}

fn assert_within(kind: &str, simulated: u64, predicted: f64, slack: f64, ctx: &str) {
    assert!(
        (simulated as f64) <= predicted * slack,
        "{ctx}: simulated {kind} misses {simulated} exceed prediction {predicted:.0} × slack {slack}"
    );
}

#[test]
fn monolithic_decluster_misses_stay_within_the_model() {
    let params = CacheParams::tiny_for_tests();
    let n = 16_384; // 64 KB of i32 output on an 8 KB L2.
    for bits in [4u32, 6] {
        for window in [2_048usize, 4_096] {
            let (values, positions, bounds) = clustered_input(n, bits);
            let mut mem = MemorySystem::new(&params);
            let whole = ChunkRuns::whole(&bounds);
            let (_, sim) =
                simulate_decluster(&values, positions.as_slice(), &whole, window, &mut mem);
            let pred = cost::radix_decluster(n, 4, bits, window, &params);
            let ctx = format!("monolithic bits={bits} window={window}");
            assert!(sim.accesses > 0 && sim.l2_misses > 0, "{ctx}: trace empty");
            assert_within("L2", sim.l2_misses, pred.l2_misses(), L2_SLACK, &ctx);
            assert_within("L1", sim.l1_misses, pred.l1_misses(), L1_SLACK, &ctx);
            assert_within("TLB", sim.tlb_misses, pred.tlb_misses, TLB_SLACK, &ctx);
        }
    }
}

#[test]
fn streaming_decluster_misses_stay_within_the_model() {
    let params = CacheParams::tiny_for_tests();
    let n = 16_384;
    for bits in [4u32, 6] {
        for chunks in [8usize, 64] {
            let window = 2_048;
            let (values, positions, bounds) = clustered_input(n, bits);
            let mut mem = MemorySystem::new(&params);
            let (out, sim) = simulated_streaming_decluster(
                &values, &positions, &bounds, window, chunks, &mut mem,
            );
            // The simulated streaming path is still the exact permutation.
            let mut expected = vec![0i32; n];
            for (i, &p) in positions.iter().enumerate() {
                expected[p as usize] = values[i];
            }
            assert_eq!(out, expected, "bits={bits} chunks={chunks}");
            let pred = cost::streaming_radix_decluster(n, 4, bits, window, chunks, &params);
            let ctx = format!("streaming bits={bits} chunks={chunks}");
            assert_within("L2", sim.l2_misses, pred.l2_misses(), L2_SLACK, &ctx);
            assert_within("L1", sim.l1_misses, pred.l1_misses(), L1_SLACK, &ctx);
            assert_within("TLB", sim.tlb_misses, pred.tlb_misses, TLB_SLACK, &ctx);
        }
    }
}

#[test]
fn streaming_never_costs_more_l2_misses_than_monolithic() {
    // The whole point of budget-sized chunks: chunk-locality may only *help*
    // the cache.  A streaming implementation that thrashes worse than the
    // monolithic kernel is a regression, caught here.
    let params = CacheParams::tiny_for_tests();
    let n = 16_384;
    for bits in [4u32, 6] {
        let (values, positions, bounds) = clustered_input(n, bits);
        let mut mem = MemorySystem::new(&params);
        let whole = ChunkRuns::whole(&bounds);
        let (_, mono) = simulate_decluster(&values, positions.as_slice(), &whole, 2_048, &mut mem);
        for chunks in [8usize, 64] {
            let mut mem = MemorySystem::new(&params);
            let (_, stream) = simulated_streaming_decluster(
                &values, &positions, &bounds, 2_048, chunks, &mut mem,
            );
            assert!(
                (stream.l2_misses as f64) <= (mono.l2_misses as f64) * 1.5,
                "bits={bits} chunks={chunks}: streaming L2 {} vs monolithic {}",
                stream.l2_misses,
                mono.l2_misses
            );
        }
    }
}
