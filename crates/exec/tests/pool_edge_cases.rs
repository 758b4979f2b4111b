//! Edge-case conformance for the worker runtime and the parallel kernels:
//! empty inputs, one-tuple morsels, more workers than morsels, and the
//! `threads = 0` (auto-detect) policy must all run panic-free and agree with
//! the sequential kernels.

use rdx_cache::{CacheParams, NoProbe};
use rdx_core::cluster::{radix_cluster_oids, RadixClusterSpec};
use rdx_core::decluster::chunks::ChunkRuns;
use rdx_core::decluster::{radix_decluster, DeclusterScratch};
use rdx_core::join::partitioned_hash_join;
use rdx_core::strategy::reference::{reference_rows, result_rows};
use rdx_core::strategy::{DsmPostProjection, QuerySpec};
use rdx_dsm::Oid;
use rdx_exec::pool::{run_workers, Claims};
use rdx_exec::{
    par_partitioned_hash_join, par_radix_cluster_oids, par_radix_decluster_into, ExecPolicy,
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

/// The whole result of the parallel decluster under `policy`.
fn decluster(values: &[i32], positions: &[Oid], bounds: &[usize], policy: &ExecPolicy) -> Vec<i32> {
    let mut out = vec![0; values.len()];
    par_radix_decluster_into(
        values,
        positions,
        &ChunkRuns::whole(bounds),
        128,
        policy,
        &mut DeclusterScratch::new(),
        &mut out,
        &mut NoProbe,
    );
    out
}

/// Fills `out[i] = f(i)` on `threads` workers claiming `morsel`-slot shards.
fn fill_claimed(
    out: &mut [usize],
    morsel: usize,
    threads: usize,
    f: impl Fn(usize) -> usize + Sync,
) {
    let queue = Claims::new(out.chunks_mut(morsel).enumerate());
    run_workers(threads, |_| {
        while let Some((i, chunk)) = queue.claim() {
            assert!(chunk.len() <= morsel);
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = f(i * morsel + j);
            }
        }
    });
}

#[test]
fn empty_inputs_run_panic_free_everywhere() {
    for threads in [0usize, 1, 7] {
        let policy = ExecPolicy::with_threads(threads);
        // Claims over an empty output hand out nothing.
        fill_claimed(&mut [], 16, policy.threads, |_| {
            panic!("no morsels expected")
        });
        // Empty cluster / decluster / join.
        let clustered =
            par_radix_cluster_oids::<u32>(&[], &[], RadixClusterSpec::single_pass(3), &policy);
        assert_eq!(clustered.len(), 0);
        assert_eq!(clustered.num_clusters(), 8);
        assert!(decluster(&[], &[], &[0], &policy).is_empty());
        let ji = par_partitioned_hash_join(&[], &[], RadixClusterSpec::single_pass(2), &policy);
        assert!(ji.is_empty());
    }
}

#[test]
fn one_tuple_morsels_agree_with_sequential() {
    let (values, positions, bounds) = decluster_input(500, 3);
    let expected = radix_decluster(&values, &positions, &bounds, 128);
    for threads in [0usize, 2, 5] {
        let policy = ExecPolicy::with_threads(threads);
        assert_eq!(
            decluster(&values, &positions, &bounds, &policy),
            expected,
            "threads {threads}"
        );
        let mut out = vec![0usize; 97];
        fill_claimed(&mut out, 1, policy.threads, |i| i + 1);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }
}

#[test]
fn more_threads_than_morsels_agree_with_sequential() {
    // 10 tuples, morsels of 4 → 3 morsels, 8 workers: most workers find the
    // queue dry immediately.
    let policy = ExecPolicy::with_threads(8);
    let mut out = vec![0usize; 10];
    fill_claimed(&mut out, 4, policy.threads, |i| i);
    assert!(out.iter().enumerate().all(|(i, &v)| v == i));

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
    // Where available_parallelism() cannot be queried the policy falls back
    // to one worker, so the count is ≥ 1 everywhere.
    let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(detected >= 1);
    assert_eq!(ExecPolicy::available().threads, detected);
    assert_eq!(ExecPolicy::with_threads(0).threads, detected);
    assert_eq!(ExecPolicy::default().threads, detected);
    // An explicit count is never overridden by detection.
    assert_eq!(ExecPolicy::with_threads(5).threads, 5);
}
