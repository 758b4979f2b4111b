//! Parallel Radix-Cluster: per-thread local clustering + prefix-sum merge.
//!
//! Each worker radix-clusters the contiguous input shards it claims with
//! [`ClusterScratch::cluster_into`], in its own arena and into each shard's
//! own output (so every per-pass cursor set stays cache-contained *per core*),
//! then the per-shard cluster sizes are prefix-summed into global cluster
//! borders and the shards are merged — in shard order, so the result is
//! **byte-identical** to the sequential
//! [`rdx_core::cluster::radix_cluster`]: the sequential kernel is a stable
//! counting sort, worker shards are contiguous input ranges, and
//! concatenating each cluster's per-shard segments in shard order reproduces
//! exactly the stable global order.
//!
//! The merge appends into capacity-reserved outputs, so every output byte
//! is written once.

use crate::pool::{run_workers, Claims, ExecPolicy};
use rdx_cache::NoProbe;
use rdx_core::cluster::{ClusterScratch, Clustered, RadixClusterSpec};
use rdx_dsm::Oid;

/// Parallel `radix_cluster(B, P)` over hashed keys; byte-identical to the
/// sequential [`rdx_core::cluster::radix_cluster`] for every
/// `(spec, policy)`.
pub fn par_radix_cluster<P: Copy + Send + Sync>(
    keys: &[u64],
    payloads: &[P],
    spec: RadixClusterSpec,
    policy: &ExecPolicy,
) -> Clustered<u64, P> {
    par_cluster_impl(keys, payloads, spec, policy, |&k| {
        rdx_core::hash::hash_key(k)
    })
}

/// Parallel clustering of unhashed oids (the join-index case of §3.1);
/// byte-identical to the sequential
/// [`rdx_core::cluster::radix_cluster_oids`].  A Radix-Sort is this on
/// [`rdx_core::cluster::radix_sort_spec_for`].
pub fn par_radix_cluster_oids<P: Copy + Send + Sync>(
    oids: &[Oid],
    payloads: &[P],
    spec: RadixClusterSpec,
    policy: &ExecPolicy,
) -> Clustered<Oid, P> {
    par_cluster_impl(oids, payloads, spec, policy, |&o| o as u64)
}

fn par_cluster_impl<K, P, F>(
    keys: &[K],
    payloads: &[P],
    spec: RadixClusterSpec,
    policy: &ExecPolicy,
    bucket_of: F,
) -> Clustered<K, P>
where
    K: Copy + Send + Sync,
    P: Copy + Send + Sync,
    F: Fn(&K) -> u64 + Sync,
{
    assert_eq!(keys.len(), payloads.len(), "keys/payloads length mismatch");
    let n = keys.len();
    let threads = policy.threads;
    if threads == 1 || n == 0 || spec.bits == 0 {
        let mut out = Clustered::default();
        ClusterScratch::new().cluster_into(keys, payloads, spec, bucket_of, &mut out, &mut NoProbe);
        return out;
    }

    // Phase 1 — per-shard local clustering: each worker runs the full
    // (multi-pass, stable) scatter engine on the contiguous shards it
    // claims, in its own arena, into each shard's own output.
    let shard = n.div_ceil(threads);
    let mut locals: Vec<Clustered<K, P>> = (0..n.div_ceil(shard))
        .map(|_| Clustered::default())
        .collect();
    let queue = Claims::new(
        locals
            .iter_mut()
            .zip(keys.chunks(shard).zip(payloads.chunks(shard))),
    );
    run_workers(threads, |_| {
        let mut scratch = ClusterScratch::new();
        while let Some((local, (keys, payloads))) = queue.claim() {
            scratch.cluster_into(keys, payloads, spec, &bucket_of, local, &mut NoProbe);
        }
    });

    // Phase 2 — prefix sum of the per-shard cluster sizes into global borders.
    let clusters = spec.num_clusters();
    let mut bounds = Vec::with_capacity(clusters + 1);
    bounds.push(0usize);
    let mut acc = 0usize;
    for c in 0..clusters {
        acc += locals
            .iter()
            .map(|l| l.cluster_range(c).len())
            .sum::<usize>();
        bounds.push(acc);
    }
    debug_assert_eq!(acc, n);

    // Phase 3 — merge: concatenate each cluster's per-shard segments in
    // shard order, appending into capacity-reserved outputs so every output
    // byte is written exactly once.
    let mut out_keys: Vec<K> = Vec::with_capacity(n);
    let mut out_payloads: Vec<P> = Vec::with_capacity(n);
    for c in 0..clusters {
        for local in &locals {
            out_keys.extend_from_slice(local.cluster_keys(c));
            out_payloads.extend_from_slice(local.cluster_payloads(c));
        }
    }

    Clustered::from_parts(out_keys, out_payloads, bounds, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rdx_cache::CacheParams;
    use rdx_core::cluster::{radix_cluster, radix_cluster_oids, radix_sort_spec_for};

    fn shuffled_oids(n: usize, seed: u64) -> Vec<Oid> {
        let mut v: Vec<Oid> = (0..n as Oid).collect();
        v.shuffle(&mut StdRng::seed_from_u64(seed));
        v
    }

    #[test]
    fn parallel_equals_sequential_for_every_thread_count() {
        let oids = shuffled_oids(10_000, 3);
        let payloads: Vec<u32> = (0..10_000).collect();
        for bits in [0u32, 1, 4, 9] {
            for passes in [1u32, 2, 3] {
                let spec = RadixClusterSpec::partial(bits, passes, 2);
                let expected = radix_cluster_oids(&oids, &payloads, spec);
                for threads in [1usize, 2, 3, 8] {
                    let policy = ExecPolicy::with_threads(threads);
                    let got = par_radix_cluster_oids(&oids, &payloads, spec, &policy);
                    assert_eq!(
                        got, expected,
                        "bits={bits} passes={passes} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn hashed_parallel_equals_sequential() {
        let keys: Vec<u64> = (0..8_192).map(|i| i * 2654435761 % 10_000).collect();
        let payloads: Vec<u32> = (0..8_192).collect();
        let spec = RadixClusterSpec::new(6, 2);
        let expected = radix_cluster(&keys, &payloads, spec);
        for threads in [2usize, 5, 8] {
            let got = par_radix_cluster(&keys, &payloads, spec, &ExecPolicy::with_threads(threads));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sort_equals_sequential_sort() {
        let oids = shuffled_oids(20_000, 9);
        let payloads: Vec<u32> = (0..20_000).collect();
        let spec = radix_sort_spec_for(20_000, &CacheParams::paper_pentium4());
        let expected = radix_cluster_oids(&oids, &payloads, spec);
        let got = par_radix_cluster_oids(&oids, &payloads, spec, &ExecPolicy::with_threads(4));
        assert_eq!(got, expected);
    }

    #[test]
    fn skewed_clusters_still_merge_correctly() {
        // Every key lands in cluster 0 except a handful: exercises the merge
        // with pathological skew.
        let mut oids = vec![0 as Oid; 5_000];
        oids.extend([7, 9, 15, 31].iter().map(|&x| x as Oid));
        let payloads: Vec<u32> = (0..oids.len() as u32).collect();
        let spec = RadixClusterSpec::single_pass(5);
        let expected = radix_cluster_oids(&oids, &payloads, spec);
        for threads in [2usize, 8] {
            let got =
                par_radix_cluster_oids(&oids, &payloads, spec, &ExecPolicy::with_threads(threads));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let policy = ExecPolicy::with_threads(8);
        let empty =
            par_radix_cluster_oids::<u32>(&[], &[], RadixClusterSpec::single_pass(4), &policy);
        assert_eq!(empty.num_clusters(), 16);
        assert!(empty.is_empty());
        let one = par_radix_cluster_oids(&[3], &[99u32], RadixClusterSpec::single_pass(4), &policy);
        assert_eq!(one.keys(), &[3]);
        assert_eq!(one.payloads(), &[99]);
    }
}
