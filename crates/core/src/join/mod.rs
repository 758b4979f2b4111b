//! Hash-Join and cache-conscious Partitioned Hash-Join (paper §2).
//!
//! "All bits of the join attribute play a role in the lower B bits used for
//! clustering" (§2.2), so inside a partition those bits say nothing: cluster
//! on the low `B` bits of the hash, bucket on bits the cluster never looked
//! at — [`HashTable`] indexes by the top hash bits.
//!
//! Each input makes one pass over memory, on the high bits of the `B`-bit
//! field at no more than [`pass_fanout`](crate::cluster::pass_fanout)
//! clusters; [`PartitionJoiner`] splits the remaining bits of each
//! partition in passes the same rule sizes.  The entry points take no
//! [`rdx_cache::CacheParams`], so every join pass reads the rule at the
//! paper's Pentium 4 (32 clusters), the platform the benchmark fixes.
//! A split wider than 5 bits (no benchmark shape's) gets a second pass,
//! which the simulator does not find cheaper for these hashed pairs.
//! Every pass is stable, so the output is the same for every pass structure.

mod hash_table;

pub use hash_table::HashTable;

use crate::cluster::{bits_to_fit, paper_pass_fanout, ClusterScratch, Clustered, RadixClusterSpec};
use crate::hash::hash_key;
use rdx_cache::NoProbe;
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
/// cache-conscious variant improves on (the naive join of Fig. 10a).
pub fn hash_join(larger_keys: &[u64], smaller_keys: &[u64]) -> JoinIndex {
    partitioned_hash_join(larger_keys, smaller_keys, RadixClusterSpec::single_pass(0))
}

/// The two clusterings of a Partitioned Hash-Join on `spec`: the one
/// out-of-cache pass per input, on the high `min(B, log2 pass_fanout)` bits
/// of the `B`-bit field in one plain pass, then [`PartitionJoiner`]'s split
/// of each partition on the remaining bits, in passes the pass rule sizes.
/// Both join kernels run these, and `rdx_cost`'s price reads their
/// [`pass_bits`](RadixClusterSpec::pass_bits).
pub fn join_passes(spec: RadixClusterSpec) -> [RadixClusterSpec; 2] {
    let bits = spec.bits.min(paper_pass_fanout().ilog2());
    let split = spec.bits - bits;
    [
        RadixClusterSpec::partial(bits, 1, spec.ignore + split),
        RadixClusterSpec::planned(split, spec.ignore, paper_pass_fanout()),
    ]
}

/// The per-partition kernel of Partitioned Hash-Join, shared by the
/// sequential and the parallel executor: splits both sides of one
/// first-pass partition on the remaining bits and joins the
/// sub-partitions in order, reusing one table and, per side, one split
/// arena and output.
#[derive(Debug)]
pub struct PartitionJoiner {
    split: RadixClusterSpec,
    table: HashTable,
    larger: (ClusterScratch<u64, Oid>, Clustered<u64, Oid>),
    smaller: (ClusterScratch<u64, Oid>, Clustered<u64, Oid>),
}

impl PartitionJoiner {
    /// A joiner for the first-pass partitions of a join on `spec`.
    pub fn new(spec: RadixClusterSpec) -> Self {
        PartitionJoiner {
            split: join_passes(spec)[1],
            table: HashTable::default(),
            larger: Default::default(),
            smaller: Default::default(),
        }
    }

    /// Joins one first-pass partition, given as `(keys, oids)` per side.
    pub fn join(&mut self, larger: JoinSide, smaller: JoinSide, out: &mut JoinColumns) {
        let (split, table) = (self.split, &mut self.table);
        if split.bits == 0 || larger.0.is_empty() || smaller.0.is_empty() {
            return table.join_into(larger, smaller, out);
        }
        let ((ls, l), (ss, s)) = (&mut self.larger, &mut self.smaller);
        let hash = |&k: &u64| hash_key(k);
        ls.cluster_into(larger.0, larger.1, split, hash, l, &mut NoProbe);
        ss.cluster_into(smaller.0, smaller.1, split, hash, s, &mut NoProbe);
        for q in 0..split.num_clusters() {
            table.join_into(l.cluster(q), s.cluster(q), out);
        }
    }
}

/// Partitioned Hash-Join (§2.1): both inputs are Radix-Clustered on `B` bits
/// of the hashed key, then a simple Hash-Join is run per pair of matching
/// partitions, keeping every build partition (plus its hash table) inside the
/// CPU cache.  The clustering is [`join_passes`]: one first pass per input
/// plus [`PartitionJoiner`]'s split, whatever `spec.passes` says.
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
        let [first, _] = join_passes(spec);
        let (mut scratch, hash) = (ClusterScratch::new(), |&k: &u64| hash_key(k));
        let (mut l, mut s) = (Clustered::default(), Clustered::default());
        scratch.cluster_into(larger.0, larger.1, first, hash, &mut l, &mut NoProbe);
        scratch.cluster_into(smaller.0, smaller.1, first, hash, &mut s, &mut NoProbe);
        drop((scratch, oids));
        for p in 0..first.num_clusters() {
            joiner.join(l.cluster(p), s.cluster(p), &mut out);
        }
    }
    JoinIndex::from_columns(out.0, out.1)
}

/// Chooses the number of radix bits for Partitioned Hash-Join so that one
/// build partition fits the cache at 12 bytes per tuple — 8 key + 4 oid; the
/// table's 28–56 bytes come on top.  On a 1M × 1M join one plain pass to all
/// `2^B` clusters took 42–43 ms at B = 5 and 54–56 at B = 7; bounded by
/// [`pass_fanout`](crate::cluster::pass_fanout), 34–36 and 38–39 ms (fastest of 7, 2-vCPU Xeon,
/// 2 MB L2).  The planner prices its plans with this B.
///
/// Its passes follow the pass rule at the paper's platform, as every join
/// pass does.  Only the pre-projection baselines of `rdx_bench::paper` read
/// `passes`: the served join ([`partitioned_hash_join`] and `rdx-exec`'s
/// `par_partitioned_hash_join`) runs [`join_passes`].
pub fn join_cluster_spec(smaller_tuples: usize, cache_bytes: usize) -> RadixClusterSpec {
    const BYTES_PER_BUILD_TUPLE: usize = 12;
    let build_bytes = smaller_tuples.saturating_mul(BYTES_PER_BUILD_TUPLE);
    let bits = bits_to_fit(build_bytes, cache_bytes, 24);
    RadixClusterSpec::planned(bits, 0, paper_pass_fanout())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::pass_fanout;
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
        use RadixClusterSpec as S;
        let passes = |bits, passes| join_passes(S::new(bits, passes));
        assert_eq!(passes(3, 1), [S::partial(3, 1, 0), S::partial(0, 1, 0)]);
        assert_eq!(passes(5, 1), [S::partial(5, 1, 0), S::partial(0, 1, 0)]);
        assert_eq!(passes(7, 1), [S::partial(5, 1, 2), S::partial(2, 1, 0)]);
        assert_eq!(passes(14, 2), [S::partial(5, 1, 9), S::partial(9, 2, 0)]);
        assert_eq!(
            join_passes(S::partial(9, 2, 3)),
            [S::partial(5, 1, 7), S::partial(4, 1, 3)]
        );
    }

    /// Fig. 9b's model, priced at the passes the join runs: the clustering
    /// is part of the price (Fig. 9b's measurement always did include it).
    #[test]
    fn partitioned_hash_join_improves_with_bits_then_flattens() {
        use rdx_cache::CacheParams;
        use rdx_cost::{algorithms as cost, DataRegion};
        const MB8: usize = 8_000_000;
        let p = CacheParams::paper_pentium4();
        let r = DataRegion::new(MB8, 8);
        let at = |bits| {
            let [first, split] = join_passes(RadixClusterSpec::single_pass(bits));
            let price =
                cost::partitioned_hash_join(r, r, first.pass_bits(), split.pass_bits(), MB8, &p);
            price.millis(&p)
        };
        let unpartitioned = cost::hash_join(r, r, MB8, &p).millis(&p);
        assert_eq!(at(0), unpartitioned);
        // At 8M its two passes per input are a third of the naive join, so
        // partitioning saves a third of it, not half.
        assert!(
            at(10) < unpartitioned * 0.7,
            "partitioned {} vs naive {unpartitioned}",
            at(10)
        );
        assert!(at(10) < at(5));
        // Flat after the knee: every B from 9 to 16 within 1.5× of the best.
        let tail: Vec<f64> = (9..=16).map(at).collect();
        let best = tail.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(tail.iter().all(|&c| c < best * 1.5), "{tail:?}");
    }

    /// The one pass rule as a property: every pass of every clustering the
    /// planners plan under a query's cache is at most `pass_fanout` of it
    /// wide, and every pass of the entry points that take a cache size
    /// only (the join's spec, first pass and split, and `optimal_partial`)
    /// is at most `pass_fanout` of the paper's platform, where they read it.
    #[test]
    fn every_planned_pass_stays_within_the_pass_fanout() {
        use crate::cluster::{plan_partial_cluster, radix_sort_spec_for};
        use rdx_cache::CacheParams;
        let widest = |spec: RadixClusterSpec| spec.pass_bits().map(|b| 1 << b).max().unwrap_or(1);
        let paper = paper_pass_fanout();
        let p4 = CacheParams::paper_pentium4();
        for params in [
            p4.clone(),
            p4.per_query_share(4),
            CacheParams::tiny_for_tests(),
        ] {
            let fanout = pass_fanout(&params);
            for n in (10..=26).flat_map(|k| [(1usize << k) - 1, 1 << k, 3 << (k - 1)]) {
                for spec in [
                    plan_partial_cluster(n, 4, &params),
                    radix_sort_spec_for(n, &params),
                ] {
                    assert!(widest(spec) <= fanout, "{spec:?}, n = {n}, {params:?}");
                }
                let join = join_cluster_spec(n, params.cache_capacity());
                let [first, split] = join_passes(join);
                for spec in [
                    join,
                    first,
                    split,
                    RadixClusterSpec::optimal_partial(n, 4, params.cache_capacity()),
                ] {
                    assert!(widest(spec) <= paper, "{spec:?}, n = {n}, {params:?}");
                }
            }
        }
        // The benchmark's platform and its quarter share read the same rule.
        assert_eq!(pass_fanout(&p4), paper);
        assert_eq!(pass_fanout(&p4.per_query_share(4)), paper);
    }

    #[test]
    fn join_index_is_valid_for_inputs() {
        let larger = keys(300, 100, 7);
        let smaller = keys(200, 100, 8);
        let ji = partitioned_hash_join(&larger, &smaller, RadixClusterSpec::single_pass(3));
        assert!(ji.is_valid_for(300, 200));
    }
}
