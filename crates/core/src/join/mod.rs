//! Hash-Join and cache-conscious Partitioned Hash-Join (paper §2).
//!
//! "All bits of the join attribute play a role in the lower B bits used for
//! clustering" (§2.2), so inside a partition those bits say nothing: cluster
//! on the low `B` bits of the hash, bucket on bits the cluster never looked
//! at — [`HashTable`] indexes by the top hash bits.
//!
//! Each input makes one pass over memory, on the high bits of the `B`-bit
//! field at no more than [`TLB_BOUNDED_FANOUT`] clusters; [`PartitionJoiner`]
//! splits the remaining bits of each partition while it is cache-resident.
//! Every pass is stable, so the output is the same for every pass structure.

mod hash_table;

pub use hash_table::HashTable;

use crate::cluster::{
    passes_for_budget, radix_cluster_with_scratch, ClusterScratch, RadixClusterSpec, ScatterMode,
    DEFAULT_SCATTER_CURSOR_BUDGET, TLB_BOUNDED_FANOUT,
};
use rdx_dsm::{JoinIndex, Oid};

/// One side of a join: its keys and their oids.
pub type JoinSide<'a> = (&'a [u64], &'a [Oid]);

/// The two oid columns a join appends to: `(larger, smaller)`.
pub type JoinColumns = (Vec<Oid>, Vec<Oid>);

/// Naive (non-partitioned) Hash-Join between two key columns.
///
/// Builds a hash table over the *smaller* (inner) key column and probes it
/// with the *larger* (outer) one, emitting a [`JoinIndex`] of matching
/// `(larger_oid, smaller_oid)` pairs.  Because the probes are random over a
/// hash table that may far exceed the CPU cache, this is the baseline the
/// cache-conscious variant improves on ("NSM-pre-hash" in Fig. 10a).
pub fn hash_join(larger_keys: &[u64], smaller_keys: &[u64]) -> JoinIndex {
    partitioned_hash_join(larger_keys, smaller_keys, RadixClusterSpec::single_pass(0))
}

/// The one out-of-cache Radix-Cluster pass of a Partitioned Hash-Join on
/// `spec`: the high `min(B, log2 TLB_BOUNDED_FANOUT)` bits of the `B`-bit
/// field, in one plain pass.
pub fn join_first_pass(spec: RadixClusterSpec) -> RadixClusterSpec {
    let bits = spec.bits.min(TLB_BOUNDED_FANOUT.trailing_zeros());
    RadixClusterSpec::partial(bits, 1, spec.ignore + spec.bits - bits)
}

/// The per-partition kernel of Partitioned Hash-Join, shared by the
/// sequential and the parallel executor: splits both sides of one
/// [`join_first_pass`] partition on the remaining bits and joins the
/// sub-partitions in order, reusing one table and two split arenas.
#[derive(Debug)]
pub struct PartitionJoiner {
    split: RadixClusterSpec,
    table: HashTable,
    larger: ClusterScratch<u64, Oid>,
    smaller: ClusterScratch<u64, Oid>,
}

impl PartitionJoiner {
    /// A joiner for the first-pass partitions of a join on `spec`.
    pub fn new(spec: RadixClusterSpec) -> Self {
        let bits = spec.bits - join_first_pass(spec).bits;
        let passes = passes_for_budget(bits, DEFAULT_SCATTER_CURSOR_BUDGET);
        PartitionJoiner {
            split: RadixClusterSpec::partial(bits, passes, spec.ignore),
            table: HashTable::default(),
            larger: ClusterScratch::new(),
            smaller: ClusterScratch::new(),
        }
    }

    /// Joins one first-pass partition, given as `(keys, oids)` per side.
    pub fn join(&mut self, larger: JoinSide, smaller: JoinSide, out: &mut JoinColumns) {
        let (split, table) = (self.split, &mut self.table);
        if split.bits == 0 || larger.0.is_empty() || smaller.0.is_empty() {
            return table.join_into(larger, smaller, out);
        }
        let auto = ScatterMode::Auto;
        let l = (self.larger).cluster_hashed_in_scratch(larger.0, larger.1, split, auto);
        let s = (self.smaller).cluster_hashed_in_scratch(smaller.0, smaller.1, split, auto);
        for q in 0..split.num_clusters() {
            table.join_into(l.cluster(q), s.cluster(q), out);
        }
    }
}

/// Partitioned Hash-Join (§2.1): both inputs are Radix-Clustered on `B` bits
/// of the hashed key, then a simple Hash-Join is run per pair of matching
/// partitions, keeping every build partition (plus its hash table) inside the
/// CPU cache.  The clustering is one [`join_first_pass`] per input plus
/// [`PartitionJoiner`]'s split, whatever `spec.passes` says.
///
/// The produced [`JoinIndex`] refers to the *original* oids of both inputs;
/// as §3.1 notes, neither side comes out in ascending order, which is exactly
/// why the post-projection machinery of this paper exists.
pub fn partitioned_hash_join(
    larger_keys: &[u64],
    smaller_keys: &[u64],
    spec: RadixClusterSpec,
) -> JoinIndex {
    let (n_l, n_s) = (larger_keys.len(), smaller_keys.len());
    // Identity oids are the payload of both sides.
    let oids: Vec<Oid> = (0..n_l.max(n_s) as Oid).collect();
    let (larger, smaller) = ((larger_keys, &oids[..n_l]), (smaller_keys, &oids[..n_s]));
    let mut joiner = PartitionJoiner::new(spec);
    let cap = n_l + hash_table::SLOTS;
    let mut out = (Vec::with_capacity(cap), Vec::with_capacity(cap));
    if spec.bits == 0 {
        joiner.join(larger, smaller, &mut out);
    } else {
        let (first, plain) = (join_first_pass(spec), ScatterMode::Plain);
        let mut scratch = ClusterScratch::new();
        let larger = radix_cluster_with_scratch(larger.0, larger.1, first, plain, &mut scratch);
        let smaller = radix_cluster_with_scratch(smaller.0, smaller.1, first, plain, &mut scratch);
        drop((scratch, oids));
        for p in 0..first.num_clusters() {
            joiner.join(larger.cluster(p), smaller.cluster(p), &mut out);
        }
    }
    JoinIndex::from_columns(out.0, out.1)
}

/// Chooses the number of radix bits for Partitioned Hash-Join so that one
/// build partition fits the cache at 12 bytes per tuple — 8 key + 4 oid; the
/// table's 28–56 bytes come on top — and caps single-pass fanout by using
/// two passes beyond 2^11 clusters — the §2 recipe.  On a 1M × 1M join one
/// plain pass to all `2^B` clusters took 42–43 ms at B = 5 and 54–56 at B =
/// 7; bounded by [`TLB_BOUNDED_FANOUT`], 34–36 and 38–39 ms (fastest of 7,
/// 2-vCPU Xeon, 2 MB L2).  The planner prices its plans with this B.
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
    fn the_first_pass_takes_the_high_bits_at_tlb_bounded_fanout() {
        assert_eq!(
            TLB_BOUNDED_FANOUT,
            1 << rdx_cost::algorithms::JOIN_FIRST_PASS_BITS
        );
        let first = |bits, passes| join_first_pass(RadixClusterSpec::new(bits, passes));
        assert_eq!(first(3, 1), RadixClusterSpec::partial(3, 1, 0));
        assert_eq!(first(5, 1), RadixClusterSpec::partial(5, 1, 0));
        assert_eq!(first(7, 1), RadixClusterSpec::partial(5, 1, 2));
        assert_eq!(first(14, 2), RadixClusterSpec::partial(5, 1, 9));
        assert_eq!(
            join_first_pass(RadixClusterSpec::partial(9, 2, 3)),
            RadixClusterSpec::partial(5, 1, 7)
        );
    }

    #[test]
    fn join_index_is_valid_for_inputs() {
        let larger = keys(300, 100, 7);
        let smaller = keys(200, 100, 8);
        let ji = partitioned_hash_join(&larger, &smaller, RadixClusterSpec::single_pass(3));
        assert!(ji.is_valid_for(300, 200));
    }
}
