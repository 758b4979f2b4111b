//! Hash-Join and cache-conscious Partitioned Hash-Join (paper §2).
//!
//! "All bits of the join attribute play a role in the lower B bits used for
//! clustering" (§2.2), so inside a partition those bits say nothing: cluster
//! on the low `B` bits of the hash, bucket on bits the cluster never looked
//! at — [`HashTable`] indexes by the top hash bits.

mod hash_table;

pub use hash_table::HashTable;

use crate::cluster::{radix_cluster_with_scratch, ClusterScratch, RadixClusterSpec, ScatterMode};
use rdx_dsm::{JoinIndex, Oid};

/// Naive (non-partitioned) Hash-Join between two key columns.
///
/// Builds a hash table over the *smaller* (inner) key column and probes it
/// with the *larger* (outer) one, emitting a [`JoinIndex`] of matching
/// `(larger_oid, smaller_oid)` pairs.  Because the probes are random over a
/// hash table that may far exceed the CPU cache, this is the baseline the
/// cache-conscious variant improves on ("NSM-pre-hash" in Fig. 10a).
pub fn hash_join(larger_keys: &[u64], smaller_keys: &[u64]) -> JoinIndex {
    let table = HashTable::build(smaller_keys);
    let mut out = JoinIndex::with_capacity(larger_keys.len());
    for (l_oid, &key) in larger_keys.iter().enumerate() {
        for s_oid in table.probe_matches(key, smaller_keys) {
            out.push(l_oid as Oid, s_oid);
        }
    }
    out
}

/// The per-partition kernel of Partitioned Hash-Join, shared by the
/// sequential and the parallel executor: rebuilds `table` over the build
/// partition `s_keys`, probes it with `l_keys` in order and appends the
/// original oids of every match to the two output columns.
pub fn join_partition(
    table: &mut HashTable,
    l_keys: &[u64],
    l_oids: &[Oid],
    s_keys: &[u64],
    s_oids: &[Oid],
    out_larger: &mut Vec<Oid>,
    out_smaller: &mut Vec<Oid>,
) {
    if l_keys.is_empty() || s_keys.is_empty() {
        return;
    }
    table.rebuild(s_keys);
    for (&key, &l_oid) in l_keys.iter().zip(l_oids) {
        for pos in table.probe_matches(key, s_keys) {
            out_larger.push(l_oid);
            out_smaller.push(s_oids[pos as usize]);
        }
    }
}

/// Partitioned Hash-Join (§2.1): both inputs are Radix-Clustered on `B` bits
/// of the hashed key, then a simple Hash-Join is run per pair of matching
/// partitions, keeping every build partition (plus its hash table) inside the
/// CPU cache.
///
/// The produced [`JoinIndex`] refers to the *original* oids of both inputs;
/// as §3.1 notes, neither side comes out in ascending order, which is exactly
/// why the post-projection machinery of this paper exists.
pub fn partitioned_hash_join(
    larger_keys: &[u64],
    smaller_keys: &[u64],
    spec: RadixClusterSpec,
) -> JoinIndex {
    if spec.bits == 0 {
        return hash_join(larger_keys, smaller_keys);
    }
    // Identity oids are the payload of both sides; one scratch serves both.
    let (n_l, n_s) = (larger_keys.len(), smaller_keys.len());
    let oids: Vec<Oid> = (0..n_l.max(n_s) as Oid).collect();
    let (mut scratch, auto) = (ClusterScratch::new(), ScatterMode::Auto);
    let larger = radix_cluster_with_scratch(larger_keys, &oids[..n_l], spec, auto, &mut scratch);
    let smaller = radix_cluster_with_scratch(smaller_keys, &oids[..n_s], spec, auto, &mut scratch);
    drop(scratch);

    let mut table = HashTable::build(&[]);
    let (mut out_l, mut out_s) = (Vec::with_capacity(n_l), Vec::with_capacity(n_l));
    for p in 0..spec.num_clusters() {
        let ((l_keys, l_oids), (s_keys, s_oids)) = (larger.cluster(p), smaller.cluster(p));
        join_partition(
            &mut table, l_keys, l_oids, s_keys, s_oids, &mut out_l, &mut out_s,
        );
    }
    JoinIndex::from_columns(out_l, out_s)
}

/// Chooses the number of radix bits for Partitioned Hash-Join so that one
/// build partition fits the cache at 12 bytes per tuple — 8 key + 4 oid; the
/// table's 4 `next` + ≥ 4 bucket bytes come on top — and caps single-pass
/// fanout by using two passes beyond 2^11 clusters — the §2 recipe.  B is
/// left there: with O(1) probes a 1M × 1M join costs the same 59–80 ms for
/// every B in 3…14, and the planner prices its plans with this B.
pub fn join_cluster_spec(smaller_tuples: usize, cache_bytes: usize) -> RadixClusterSpec {
    const BYTES_PER_BUILD_TUPLE: usize = 12;
    let build_bytes = smaller_tuples.saturating_mul(BYTES_PER_BUILD_TUPLE);
    let mut bits = 0u32;
    while (build_bytes >> bits) > cache_bytes && bits < 24 {
        bits += 1;
    }
    let passes = if bits > 11 { 2 } else { 1 };
    RadixClusterSpec::new(bits, passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Reference nested-loop join for verification.
    fn reference(larger: &[u64], smaller: &[u64]) -> HashSet<(Oid, Oid)> {
        let mut set = HashSet::new();
        for (l, &lk) in larger.iter().enumerate() {
            for (s, &sk) in smaller.iter().enumerate() {
                if lk == sk {
                    set.insert((l as Oid, s as Oid));
                }
            }
        }
        set
    }

    fn keys(n: usize, domain: u64, seed: u64) -> Vec<u64> {
        // Simple deterministic pseudo-random keys.
        (0..n as u64)
            .map(|i| {
                let x = i
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    .rotate_left(17);
                x % domain
            })
            .collect()
    }

    #[test]
    fn hash_join_matches_reference() {
        let larger = keys(500, 300, 1);
        let smaller = keys(400, 300, 2);
        let ji = hash_join(&larger, &smaller);
        let expected = reference(&larger, &smaller);
        let got: HashSet<_> = ji.iter().collect();
        assert_eq!(got, expected);
        assert_eq!(ji.len(), expected.len());
    }

    #[test]
    fn partitioned_join_matches_hash_join() {
        let larger = keys(2000, 1500, 3);
        let smaller = keys(1500, 1500, 4);
        let naive = hash_join(&larger, &smaller);
        for bits in [1, 3, 6, 9] {
            for passes in [1, 2] {
                let part =
                    partitioned_hash_join(&larger, &smaller, RadixClusterSpec::new(bits, passes));
                assert_eq!(
                    part.canonical_pairs(),
                    naive.canonical_pairs(),
                    "bits={bits} passes={passes}"
                );
            }
        }
    }

    #[test]
    fn zero_bits_falls_back_to_hash_join() {
        let larger = keys(100, 50, 5);
        let smaller = keys(80, 50, 6);
        let a = partitioned_hash_join(&larger, &smaller, RadixClusterSpec::single_pass(0));
        let b = hash_join(&larger, &smaller);
        assert_eq!(a.canonical_pairs(), b.canonical_pairs());
    }

    #[test]
    fn no_matches_yields_empty_index() {
        let larger = vec![1u64, 2, 3];
        let smaller = vec![10u64, 20];
        assert!(hash_join(&larger, &smaller).is_empty());
        assert!(
            partitioned_hash_join(&larger, &smaller, RadixClusterSpec::single_pass(2)).is_empty()
        );
    }

    #[test]
    fn duplicate_keys_produce_cross_products() {
        let larger = vec![5u64, 5];
        let smaller = vec![5u64, 5, 5];
        let ji = partitioned_hash_join(&larger, &smaller, RadixClusterSpec::single_pass(2));
        assert_eq!(ji.len(), 6);
    }

    #[test]
    fn join_cluster_spec_keeps_partitions_cache_sized() {
        let spec = join_cluster_spec(8_000_000, 512 * 1024);
        assert!(8_000_000 * 12 / spec.num_clusters() <= 512 * 1024);
        assert!(spec.bits >= 8);
        let tiny = join_cluster_spec(10_000, 512 * 1024);
        assert_eq!(tiny.bits, 0);
    }

    #[test]
    fn join_index_is_valid_for_inputs() {
        let larger = keys(300, 100, 7);
        let smaller = keys(200, 100, 8);
        let ji = partitioned_hash_join(&larger, &smaller, RadixClusterSpec::single_pass(3));
        assert!(ji.is_valid_for(300, 200));
    }
}
