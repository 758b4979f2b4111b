//! Parallel Partitioned Hash-Join: the §2.1 algorithm with both the
//! clustering and the per-partition joins spread over workers.
//!
//! After the (parallel) out-of-cache first pass over both inputs, the
//! partitions are independent: partition `p` of the larger side only ever
//! joins partition `p` of the smaller side.  Workers claim partitions
//! one at a time, each runs the sequential join's own per-partition kernel
//! ([`PartitionJoiner`]: in-cache split, then one table per sub-partition)
//! into the partition's own output slot, and the slots are concatenated in
//! partition order — which is exactly the order the sequential loop emits,
//! so the resulting [`JoinIndex`] is byte-identical to
//! [`rdx_core::join::partitioned_hash_join`].

use crate::cluster::par_radix_cluster;
use crate::pool::{run_workers, Claims, ExecPolicy};
use rdx_core::cluster::RadixClusterSpec;
use rdx_core::join::{join_passes, partitioned_hash_join, JoinColumns, PartitionJoiner};
use rdx_dsm::{JoinIndex, Oid};

/// Parallel Partitioned Hash-Join; byte-identical to the sequential
/// [`partitioned_hash_join`].
pub fn par_partitioned_hash_join(
    larger_keys: &[u64],
    smaller_keys: &[u64],
    spec: RadixClusterSpec,
    policy: &ExecPolicy,
) -> JoinIndex {
    if spec.bits == 0 || policy.threads == 1 {
        return partitioned_hash_join(larger_keys, smaller_keys, spec);
    }
    let (n_l, n_s) = (larger_keys.len(), smaller_keys.len());
    let oids: Vec<Oid> = (0..n_l.max(n_s) as Oid).collect();
    let [first, _] = join_passes(spec);
    let larger = par_radix_cluster(larger_keys, &oids[..n_l], first, policy);
    let smaller = par_radix_cluster(smaller_keys, &oids[..n_s], first, policy);

    // Workers claim partitions dynamically (join cost is highly skew
    // sensitive), each writing into its partition's own output slot.
    let mut slots: Vec<JoinColumns> = vec![Default::default(); first.num_clusters()];
    let queue = Claims::new(slots.iter_mut().enumerate());
    run_workers(policy.threads, |_| {
        let mut joiner = PartitionJoiner::new(spec);
        while let Some((p, slot)) = queue.claim() {
            joiner.join(larger.cluster(p), smaller.cluster(p), slot);
        }
    });

    // Concatenate in partition order — the sequential emission order.
    let total = slots.iter().map(|(l, _)| l.len()).sum();
    let (mut out_larger, mut out_smaller) = (Vec::with_capacity(total), Vec::with_capacity(total));
    for (l, s) in &slots {
        out_larger.extend_from_slice(l);
        out_smaller.extend_from_slice(s);
    }
    JoinIndex::from_columns(out_larger, out_smaller)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, domain: u64, seed: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| {
                i.wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    .rotate_left(17)
                    % domain
            })
            .collect()
    }

    #[test]
    fn parallel_join_is_byte_identical_to_sequential() {
        let larger = keys(5_000, 2_000, 1);
        let smaller = keys(2_000, 2_000, 2);
        for bits in [1u32, 4, 7, 9, 13] {
            let spec = RadixClusterSpec::new(bits, 1);
            let expected = partitioned_hash_join(&larger, &smaller, spec);
            for threads in [2usize, 4, 8] {
                let got = par_partitioned_hash_join(
                    &larger,
                    &smaller,
                    spec,
                    &ExecPolicy::with_threads(threads),
                );
                assert_eq!(
                    got.larger(),
                    expected.larger(),
                    "bits={bits} threads={threads}"
                );
                assert_eq!(
                    got.smaller(),
                    expected.smaller(),
                    "bits={bits} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn zero_bits_falls_back_to_sequential() {
        let larger = keys(100, 40, 3);
        let smaller = keys(90, 40, 4);
        let spec = RadixClusterSpec::single_pass(0);
        let seq = partitioned_hash_join(&larger, &smaller, spec);
        let par = par_partitioned_hash_join(&larger, &smaller, spec, &ExecPolicy::with_threads(4));
        assert_eq!(par.larger(), seq.larger());
        assert_eq!(par.smaller(), seq.smaller());
    }
}
