//! Edge-case conformance for the morsel pool and the parallel kernels:
//! empty inputs, one-tuple morsels, more workers than morsels, and the
//! `threads = 0` (auto-detect) policy must all run panic-free and agree with
//! the sequential kernels.

use rdx_cache::CacheParams;
use rdx_core::cluster::{radix_cluster_oids, RadixClusterSpec};
use rdx_core::decluster::radix_decluster;
use rdx_core::join::partitioned_hash_join;
use rdx_core::strategy::reference::{reference_rows, result_rows};
use rdx_core::strategy::{DsmPostProjection, QuerySpec};
use rdx_dsm::Oid;
use rdx_exec::pool::{detected_parallelism, for_each_output_morsel, MorselQueue};
use rdx_exec::{
    par_partitioned_hash_join, par_radix_cluster_oids, par_radix_decluster, ExecPolicy,
    ProjectionPipeline,
};
use rdx_workload::JoinWorkloadBuilder;

fn decluster_input(n: usize, bits: u32) -> (Vec<i32>, Vec<Oid>, Vec<usize>) {
    let smaller: Vec<Oid> = (0..n as Oid)
        .map(|r| (r.wrapping_mul(2_654_435_761)) % n.max(1) as Oid)
        .collect();
    let positions: Vec<Oid> = (0..n as Oid).collect();
    let c = radix_cluster_oids(&smaller, &positions, RadixClusterSpec::single_pass(bits));
    let values: Vec<i32> = c.keys().iter().map(|&o| o as i32 + 1).collect();
    (values, c.payloads().to_vec(), c.bounds().to_vec())
}

#[test]
fn empty_inputs_run_panic_free_everywhere() {
    for threads in [0usize, 1, 7] {
        let policy = ExecPolicy::with_threads(threads);
        // Morsel fill over an empty output.
        let mut out: Vec<u32> = Vec::new();
        for_each_output_morsel(&mut out, &policy, |_, _| panic!("no morsels expected"));
        // Empty cluster / decluster / join.
        let clustered =
            par_radix_cluster_oids::<u32>(&[], &[], RadixClusterSpec::single_pass(3), &policy);
        assert_eq!(clustered.len(), 0);
        assert_eq!(clustered.num_clusters(), 8);
        let declustered: Vec<i32> = par_radix_decluster(&[], &[], &[0], 64, &policy);
        assert!(declustered.is_empty());
        let ji = par_partitioned_hash_join(&[], &[], RadixClusterSpec::single_pass(2), &policy);
        assert!(ji.is_empty());
    }
    // An empty morsel queue hands out nothing.
    let q = MorselQueue::new(0, 16);
    assert!(q.claim().is_none());
}

#[test]
fn one_tuple_morsels_agree_with_sequential() {
    let (values, positions, bounds) = decluster_input(500, 3);
    let expected = radix_decluster(&values, &positions, &bounds, 128);
    for threads in [0usize, 2, 5] {
        let policy = ExecPolicy::with_threads(threads).morsel_tuples(1);
        assert_eq!(
            par_radix_decluster(&values, &positions, &bounds, 128, &policy),
            expected,
            "threads {threads}"
        );
        let mut out = vec![0usize; 97];
        for_each_output_morsel(&mut out, &policy, |off, chunk| {
            assert_eq!(chunk.len(), 1);
            chunk[0] = off + 1;
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }
}

#[test]
fn more_threads_than_morsels_agree_with_sequential() {
    // 10 tuples, morsels of 4 → 3 morsels, 8 workers: most workers find the
    // queue dry immediately.
    let policy = ExecPolicy::with_threads(8).morsel_tuples(4);
    let mut out = vec![0u32; 10];
    for_each_output_morsel(&mut out, &policy, |off, chunk| {
        for (i, v) in chunk.iter_mut().enumerate() {
            *v = (off + i) as u32;
        }
    });
    assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));

    let larger: Vec<u64> = (0..10).collect();
    let smaller: Vec<u64> = (0..10).rev().collect();
    let spec = RadixClusterSpec::single_pass(2);
    let seq = partitioned_hash_join(&larger, &smaller, spec);
    let par = par_partitioned_hash_join(&larger, &smaller, spec, &policy);
    assert_eq!(par.larger(), seq.larger());
    assert_eq!(par.smaller(), seq.smaller());
}

#[test]
fn zero_threads_policy_agrees_with_sequential_end_to_end() {
    let w = JoinWorkloadBuilder::equal(1_200, 2).seed(13).build();
    let spec = QuerySpec::symmetric(2);
    let params = CacheParams::tiny_for_tests();
    let pipeline = ProjectionPipeline::new(DsmPostProjection::plan(&w.larger, &w.smaller, &params));
    let materialize = |threads| {
        let policy = ExecPolicy::with_threads(threads);
        let (out, _) = pipeline
            .materialize(&w.larger, &w.smaller, &spec, &params, &policy)
            .unwrap();
        out.result
    };
    let seq = materialize(1);
    assert_eq!(
        result_rows(&seq),
        reference_rows(&w.larger, &w.smaller, &spec)
    );
    assert_eq!(materialize(0), seq);
}

#[test]
fn auto_detect_clamps_to_at_least_one_worker() {
    // On a 1-CPU host (this container) available_parallelism() is 1; the
    // clamp guarantees ≥ 1 everywhere regardless.
    let detected = detected_parallelism();
    assert!(detected >= 1);
    assert_eq!(ExecPolicy::available().threads, detected);
    assert_eq!(ExecPolicy::with_threads(0).worker_threads(), detected);
    assert_eq!(ExecPolicy::default().worker_threads(), detected);
    // An explicit count is never overridden by detection.
    assert_eq!(ExecPolicy::with_threads(5).worker_threads(), 5);
}
