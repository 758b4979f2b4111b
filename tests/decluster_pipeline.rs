//! Integration tests of the Fig. 3 / Fig. 4 post-projection pipeline and of
//! the shipped Radix-Decluster kernel under the cache simulator (the Fig. 7a
//! effects).

use radix_decluster::cache::MemorySystem;
use radix_decluster::core::cluster::{
    is_clustered, radix_cluster_oids, radix_count, RadixClusterSpec,
};
use radix_decluster::core::decluster::chunks::ChunkRuns;
use radix_decluster::core::decluster::{
    choose_window_bytes, radix_decluster, simulate_decluster, validate_inputs,
};
use radix_decluster::core::join::{join_cluster_spec, partitioned_hash_join};
use radix_decluster::core::positional::{clustered_positional_join, positional_join};
use radix_decluster::prelude::*;
use radix_decluster::workload::JoinWorkloadBuilder;

/// Runs the full §3.1 + §3.2 pipeline by hand (the way Figs. 3 and 4 draw it)
/// and checks every intermediate invariant.
#[test]
fn figure_3_and_4_pipeline_invariants() {
    let n = 50_000;
    let workload = JoinWorkloadBuilder::equal(n, 1).seed(13).build();
    let params = CacheParams::tiny_for_tests();

    // Join index via partitioned hash-join.
    let ji = partitioned_hash_join(
        workload.larger.key().as_slice(),
        workload.smaller.key().as_slice(),
        join_cluster_spec(n, params.cache_capacity()),
    );
    assert_eq!(ji.len(), workload.expected_matches);
    assert!(ji.is_valid_for(n, n));

    // Fig. 3: partial Radix-Cluster of the join index on the larger oids.
    let spec = RadixClusterSpec::optimal_partial(n, 4, params.cache_capacity());
    let clustered_larger = radix_cluster_oids(ji.larger(), ji.smaller(), spec);
    assert!(is_clustered(
        clustered_larger.keys(),
        spec.bits,
        spec.ignore
    ));
    assert_eq!(
        radix_count(clustered_larger.keys(), spec.bits, spec.ignore),
        clustered_larger.bounds()
    );
    // The per-cluster slice of the projection column fits the cache.
    assert!(n * 4 / clustered_larger.num_clusters() <= params.cache_capacity());

    // Positional joins into the larger projection column, clustered access.
    let larger_col = positional_join(clustered_larger.keys(), workload.larger.attr(0));
    let larger_col_clustered = clustered_positional_join(
        clustered_larger.keys(),
        clustered_larger.bounds(),
        workload.larger.attr(0),
    );
    assert_eq!(larger_col, larger_col_clustered);

    // Fig. 4: re-cluster the smaller oids with fresh result positions.
    let smaller_in_result_order = clustered_larger.payloads();
    let result_positions: Vec<Oid> = (0..smaller_in_result_order.len() as Oid).collect();
    let spec2 = RadixClusterSpec::optimal_partial(n, 4, params.cache_capacity());
    let clust_smaller = radix_cluster_oids(smaller_in_result_order, &result_positions, spec2);

    // The two §3.2 properties Radix-Decluster relies on.
    assert!(validate_inputs(
        clust_smaller.payloads(),
        clust_smaller.bounds()
    ));

    // CLUST_VALUES via clustered positional join, then Radix-Decluster.
    let clust_values = positional_join(clust_smaller.keys(), workload.smaller.attr(0));
    let window = choose_window_bytes(4, clust_smaller.num_clusters(), &params);
    let declustered = radix_decluster(
        clust_values.as_slice(),
        clust_smaller.payloads(),
        clust_smaller.bounds(),
        window,
    );

    // Must equal the straightforward unsorted projection.
    let direct = positional_join(smaller_in_result_order, workload.smaller.attr(0));
    assert_eq!(declustered, direct.as_slice());
}

/// The Fig. 7a window-size sweep, measured in simulated cache misses: the
/// miss counts must show the documented knees (rising L2 misses beyond the
/// cache capacity, extra TLB misses for tiny windows with many clusters).
#[test]
fn traced_decluster_reproduces_fig7a_knees() {
    let params = CacheParams::tiny_for_tests(); // 8 KB L2, 8-entry TLB, 1 KB pages
    let n = 32_768; // 128 KB of i32 output, 16× the simulated cache
    let bits = 6; // 64 clusters ≫ 8 TLB entries

    let mut smaller: Vec<Oid> = (0..n as Oid).collect();
    // Deterministic shuffle.
    for i in (1..n).rev() {
        let j = ((i as u64).wrapping_mul(6364136223846793005) % (i as u64 + 1)) as usize;
        smaller.swap(i, j);
    }
    let result_positions: Vec<Oid> = (0..n as Oid).collect();
    let clustered = radix_cluster_oids(
        &smaller,
        &result_positions,
        RadixClusterSpec::single_pass(bits),
    );
    let values: Vec<i32> = clustered.keys().iter().map(|&o| o as i32).collect();

    let run = |window: usize| {
        let mut mem = MemorySystem::new(&params);
        let (out, counts) = simulate_decluster(
            &values,
            clustered.payloads(),
            &ChunkRuns::whole(clustered.bounds()),
            window,
            &mut mem,
        );
        (out, counts)
    };

    let (out_tiny, tiny) = run(256);
    let (out_good, good) = run(4 * 1024);
    let (out_huge, huge) = run(256 * 1024);

    // All window sizes produce the identical result.
    assert_eq!(out_tiny, out_good);
    assert_eq!(out_good, out_huge);

    // Knee 1: window larger than the cache explodes L2 misses.
    assert!(
        huge.l2_misses > 2 * good.l2_misses,
        "L2 misses should jump once ‖W‖ > C: {} vs {}",
        huge.l2_misses,
        good.l2_misses
    );
    // Knee 2: tiny windows pay per-cluster start-up misses over and over.
    assert!(
        tiny.tlb_misses > good.tlb_misses,
        "tiny windows should cost more TLB misses: {} vs {}",
        tiny.tlb_misses,
        good.tlb_misses
    );
    assert!(tiny.l1_misses >= good.l1_misses);
}

/// Sparse positional joins (Fig. 11): lower selectivity means more cache lines
/// touched per useful value, which the simulator must show.
#[test]
fn sparse_positional_join_costs_grow_with_lower_selectivity() {
    use radix_decluster::cache::AddressSpace;
    use radix_decluster::workload::SparseWorkload;

    let params = CacheParams::tiny_for_tests();
    let selected = 20_000;

    let misses_for = |selectivity: f64| {
        let w = SparseWorkload::generate(selected, selectivity, 1, 17);
        // Clustered oids into the selection, then rebased to the base table.
        let sel_positions: Vec<Oid> = (0..selected as Oid).collect();
        let base_oids = w.selection.rebase(&sel_positions);
        // Replay the gather's access pattern over the base column.
        let mut mem = MemorySystem::new(&params);
        let mut space = AddressSpace::new();
        let col = space.alloc(w.base.cardinality(), 4);
        for &oid in &base_oids {
            mem.read(col.addr(oid as usize), 4);
        }
        mem.counts().l2_misses
    };

    let full = misses_for(1.0);
    let ten_percent = misses_for(0.1);
    let one_percent = misses_for(0.01);
    assert!(ten_percent > full, "10% selection must miss more than 100%");
    assert!(
        one_percent >= ten_percent,
        "1% selection must miss at least as much as 10%"
    );
}
