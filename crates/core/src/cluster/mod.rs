//! Radix-Cluster: multi-pass, finely tunable partitioning (paper §2.2, §3.1).
//!
//! `radix_cluster(B, P)` partitions its input into `H = 2^B` clusters on the
//! lower `B` radix bits of the (hashed) key, using `P` sequential passes so
//! that no single pass creates more output cursors than the caches and TLB can
//! sustain.  One rule sizes every planned pass: [`pass_fanout`], and
//! [`RadixClusterSpec::planned`] splits the bits under it.  The *partial*
//! variant additionally ignores the lowermost `I` bits
//! — stopping early — which is what turns Radix-Sort of a join index into the
//! much cheaper partial clustering that Positional-Join needs (§3.1).  A
//! partial clustering's oids can then be stored as their low bits under
//! their cluster ([`PackedOids`]).
//!
//! Keys from dense oid domains are clustered without hashing; arbitrary join
//! keys are hashed first (see [`crate::hash`]).

mod packed;
mod scratch;
mod spec;

pub use packed::{PackedOids, PackedPositions, PackedSlice, PACKED_LOW_BITS, POSITION_BLOCK_ROWS};
pub use scratch::{plan_partial_cluster, simulate_cluster, ClusterScratch};
pub(crate) use spec::bits_to_fit;
pub use spec::RadixClusterSpec;

use crate::hash::{hash_key, radix_field, significant_bits};
use rdx_cache::{CacheParams, NoProbe};
use rdx_dsm::Oid;

/// The result of radix-clustering a `(key, payload)` sequence: both arrays
/// reordered so that cluster 0 comes first, plus the cluster boundaries.
/// [`ClusterScratch::cluster_into`] fills one in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustered<K, P> {
    keys: Vec<K>,
    payloads: Vec<P>,
    /// `bounds[j]..bounds[j+1]` is the range of cluster `j`; `len = H + 1`.
    bounds: Vec<usize>,
    spec: RadixClusterSpec,
}

impl<K, P> Default for Clustered<K, P> {
    /// An empty output: no tuples, one empty cluster.
    fn default() -> Self {
        Clustered {
            keys: Vec::new(),
            payloads: Vec::new(),
            bounds: vec![0, 0],
            spec: RadixClusterSpec::single_pass(0),
        }
    }
}

impl<K, P> Clustered<K, P> {
    /// Number of clusters `H = 2^B`.
    pub fn num_clusters(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the input was empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The clustering specification that produced this result.
    pub fn spec(&self) -> &RadixClusterSpec {
        &self.spec
    }

    /// The reordered keys.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The reordered payloads.
    pub fn payloads(&self) -> &[P] {
        &self.payloads
    }

    /// The cluster boundary offsets (`H + 1` entries).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The tuple range of cluster `j`.
    pub fn cluster_range(&self, j: usize) -> std::ops::Range<usize> {
        self.bounds[j]..self.bounds[j + 1]
    }

    /// Keys of cluster `j`.
    pub fn cluster_keys(&self, j: usize) -> &[K] {
        &self.keys[self.cluster_range(j)]
    }

    /// Payloads of cluster `j`.
    pub fn cluster_payloads(&self, j: usize) -> &[P] {
        &self.payloads[self.cluster_range(j)]
    }

    /// `(keys, payloads)` of cluster `j`.
    pub fn cluster(&self, j: usize) -> (&[K], &[P]) {
        (self.cluster_keys(j), self.cluster_payloads(j))
    }

    /// Consumes the clustering, returning `(keys, payloads, bounds)`.
    pub fn into_parts(self) -> (Vec<K>, Vec<P>, Vec<usize>) {
        (self.keys, self.payloads, self.bounds)
    }

    /// Assembles a `Clustered` from already-clustered parts: the parallel
    /// kernel in `rdx-exec` merges its per-worker shard clusterings into
    /// one.
    ///
    /// The caller guarantees the semantic invariant that `keys` really is
    /// clustered on `spec` with the given `bounds`; only the structural
    /// invariants are checked here.
    ///
    /// # Panics
    /// Panics if the bounds do not cover the keys or have the wrong cluster
    /// count for `spec`.
    pub fn from_parts(
        keys: Vec<K>,
        payloads: Vec<P>,
        bounds: Vec<usize>,
        spec: RadixClusterSpec,
    ) -> Self {
        assert_eq!(keys.len(), payloads.len());
        assert_eq!(bounds.len(), spec.num_clusters() + 1);
        assert_eq!(*bounds.last().unwrap(), keys.len());
        Clustered {
            keys,
            payloads,
            bounds,
            spec,
        }
    }
}

/// Radix-clusters `(key, payload)` pairs on the hashed key (the join-input
/// case): `radix_cluster(B, P)` of §2.2.  A one-shot scratch and output;
/// hot paths hold their own and call [`ClusterScratch::cluster_into`].
pub fn radix_cluster<P: Copy>(
    keys: &[u64],
    payloads: &[P],
    spec: RadixClusterSpec,
) -> Clustered<u64, P> {
    cluster_fresh(keys, payloads, spec, |&k| hash_key(k))
}

/// Radix-clusters `(oid, payload)` pairs on the *unhashed* oid value (the
/// join-index case of §3.1): oids come from a dense domain, so the radix bits
/// of the value itself are already uniform and order-preserving.  A one-shot
/// scratch and output, like [`radix_cluster`].
pub fn radix_cluster_oids<P: Copy>(
    oids: &[Oid],
    payloads: &[P],
    spec: RadixClusterSpec,
) -> Clustered<Oid, P> {
    cluster_fresh(oids, payloads, spec, |&o| o as u64)
}

/// [`ClusterScratch::cluster_into`] with a fresh scratch and output.
fn cluster_fresh<K: Copy, P: Copy>(
    keys: &[K],
    payloads: &[P],
    spec: RadixClusterSpec,
    bucket_of: impl Fn(&K) -> u64,
) -> Clustered<K, P> {
    let mut out = Clustered::default();
    ClusterScratch::new().cluster_into(keys, payloads, spec, bucket_of, &mut out, &mut NoProbe);
    out
}

/// The one pass rule (§2.1): the widest fan-out one Radix-Cluster pass may
/// run under `params`.  A pass over `(key, payload)` pairs writes two
/// streams per cluster, so it gets half the TLB entries or half the
/// outermost cache's lines, whichever is less: 32 clusters on the paper's
/// Pentium 4, where one 64-way pass over 2^20 shuffled oid pairs stalls
/// 494 M simulated cycles and the rule's two 225 M.  Every planned pass
/// count comes from it through [`RadixClusterSpec::planned`].
pub fn pass_fanout(params: &CacheParams) -> usize {
    let (tlb, lines) = (params.tlb.entries, params.last_level().lines());
    (tlb.min(lines) / 2).max(2)
}

/// The pass rule read once at the paper's Pentium 4, the platform the
/// benchmark fixes (32 clusters a pass): where the entry points that take
/// a cache size but no [`CacheParams`] (`optimal_partial` and the join's)
/// read it.
pub(crate) fn paper_pass_fanout() -> usize {
    static FANOUT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *FANOUT.get_or_init(|| pass_fanout(&CacheParams::paper_pentium4()))
}

/// The Radix-Sort of a dense oid `domain`: a Radix-Cluster on *all*
/// significant bits with no ignore bits, "equivalent to Radix-Sort" (§3.1),
/// in as many passes as [`pass_fanout`] asks for.
pub fn radix_sort_spec_for(domain: usize, params: &CacheParams) -> RadixClusterSpec {
    RadixClusterSpec::planned(significant_bits(domain), 0, pass_fanout(params))
}

/// Smallest pass count splitting `bits` so no pass exceeds `fanout`
/// clusters.
fn passes_for_budget(bits: u32, fanout: usize) -> u32 {
    bits.div_ceil(fanout.max(2).ilog2()).max(1)
}

/// `radix_count`: recomputes the cluster sizes (as boundary offsets) of an
/// already-clustered oid column, as used in Fig. 4 to initialise the
/// Radix-Decluster cluster-border structure.
///
/// The column must already be clustered on `(bits, ignore)`; the returned
/// boundaries equal the ones `radix_cluster_oids` produced.
pub fn radix_count(oids: &[Oid], bits: u32, ignore: u32) -> Vec<usize> {
    let clusters = 1usize << bits;
    let mut counts = vec![0usize; clusters];
    for &o in oids {
        counts[radix_field(o as u64, bits, ignore) as usize] += 1;
    }
    let mut bounds = Vec::with_capacity(clusters + 1);
    let mut acc = 0;
    bounds.push(0);
    for c in counts {
        acc += c;
        bounds.push(acc);
    }
    bounds
}

/// Checks that `oids` is clustered on `(bits, ignore)`: the radix field must
/// be non-decreasing over the column.  Used by tests and debug assertions.
pub fn is_clustered(oids: &[Oid], bits: u32, ignore: u32) -> bool {
    oids.windows(2)
        .all(|w| radix_field(w[0] as u64, bits, ignore) <= radix_field(w[1] as u64, bits, ignore))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn shuffled_oids(n: usize, seed: u64) -> Vec<Oid> {
        let mut v: Vec<Oid> = (0..n as Oid).collect();
        v.shuffle(&mut StdRng::seed_from_u64(seed));
        v
    }

    #[test]
    fn zero_bits_is_identity() {
        let keys = vec![5u64, 3, 9];
        let pay = vec![0u32, 1, 2];
        let c = radix_cluster(&keys, &pay, RadixClusterSpec::single_pass(0));
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.keys(), &keys[..]);
        assert_eq!(c.payloads(), &pay[..]);
    }

    #[test]
    fn clusters_cover_input_and_preserve_pairs() {
        let oids = shuffled_oids(1000, 1);
        let pay: Vec<u32> = (0..1000).collect();
        let c = radix_cluster_oids(&oids, &pay, RadixClusterSpec::single_pass(4));
        assert_eq!(c.len(), 1000);
        assert_eq!(c.num_clusters(), 16);
        assert_eq!(*c.bounds().last().unwrap(), 1000);
        // Pairs stay together: payload i still rides with oid oids[i].
        for (k, p) in c.keys().iter().zip(c.payloads()) {
            assert_eq!(oids[*p as usize], *k);
        }
    }

    #[test]
    fn oid_clustering_groups_by_radix_field() {
        let oids = shuffled_oids(256, 2);
        let pay = vec![0u8; 256];
        let c = radix_cluster_oids(&oids, &pay, RadixClusterSpec::single_pass(4));
        for j in 0..c.num_clusters() {
            for &o in c.cluster_keys(j) {
                assert_eq!(radix_field(o as u64, 4, 0) as usize, j);
            }
        }
        assert!(is_clustered(c.keys(), 4, 0));
    }

    #[test]
    fn multi_pass_equals_single_pass() {
        let oids = shuffled_oids(5000, 3);
        let pay: Vec<u32> = (0..5000).collect();
        let one = radix_cluster_oids(&oids, &pay, RadixClusterSpec::partial(8, 1, 0));
        let two = radix_cluster_oids(&oids, &pay, RadixClusterSpec::partial(8, 2, 0));
        let three = radix_cluster_oids(&oids, &pay, RadixClusterSpec::partial(8, 3, 0));
        assert_eq!(one.bounds(), two.bounds());
        // Within a cluster the relative input order is preserved by every
        // per-pass counting sort, so the outputs are identical, not merely
        // equivalent.
        assert_eq!(one.keys(), two.keys());
        assert_eq!(one.payloads(), three.payloads());
    }

    #[test]
    fn clustering_is_stable_within_clusters() {
        // Property (2) of §3.2: "within each cluster, the oids are still
        // sorted" — when the payload order follows an already-sorted key.
        let oids: Vec<Oid> = (0..1024).collect();
        let pay: Vec<u32> = (0..1024).collect();
        let c = radix_cluster_oids(&oids, &pay, RadixClusterSpec::partial(3, 1, 2));
        for j in 0..c.num_clusters() {
            let keys = c.cluster_keys(j);
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "cluster {j} not sorted"
            );
        }
    }

    #[test]
    fn ignore_bits_stop_early() {
        let oids = shuffled_oids(4096, 4);
        let pay = vec![(); 4096];
        let c = radix_cluster_oids(&oids, &pay, RadixClusterSpec::partial(4, 1, 8));
        // Clustered on bits 8..12 but NOT on the lowermost 8 bits.
        assert!(is_clustered(c.keys(), 4, 8));
        assert!(!is_clustered(c.keys(), 12, 0));
    }

    #[test]
    fn radix_sort_sorts_oids() {
        let oids = shuffled_oids(10_000, 5);
        let pay: Vec<u32> = (0..10_000).collect();
        let spec = radix_sort_spec_for(10_000, &CacheParams::paper_pentium4());
        let c = radix_cluster_oids(&oids, &pay, spec);
        for w in c.keys().windows(2) {
            assert!(w[0] <= w[1]);
        }
        // All values still present.
        let mut sorted = c.keys().to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), 10_000);
    }

    #[test]
    fn radix_count_matches_cluster_bounds() {
        let oids = shuffled_oids(3000, 6);
        let pay = vec![(); 3000];
        let spec = RadixClusterSpec::partial(5, 1, 3);
        let c = radix_cluster_oids(&oids, &pay, spec);
        assert_eq!(radix_count(c.keys(), 5, 3), c.bounds());
    }

    #[test]
    fn hashed_clustering_spreads_sequential_keys() {
        let keys: Vec<u64> = (0..10_000).collect();
        let pay = vec![(); 10_000];
        let c = radix_cluster(&keys, &pay, RadixClusterSpec::single_pass(6));
        let expected = 10_000 / 64;
        for j in 0..c.num_clusters() {
            let size = c.cluster_range(j).len();
            assert!(
                size > expected / 2 && size < expected * 2,
                "cluster {j} holds {size}"
            );
        }
    }

    #[test]
    fn empty_input_keeps_full_cluster_structure() {
        // An empty input must still expose 2^B (empty) clusters, so that
        // per-cluster consumers like Partitioned Hash-Join can iterate them.
        let c = radix_cluster::<u32>(&[], &[], RadixClusterSpec::single_pass(4));
        assert_eq!(c.len(), 0);
        assert_eq!(c.num_clusters(), 16);
        for j in 0..16 {
            assert!(c.cluster_range(j).is_empty());
        }
        // Zero bits on a non-empty input is a single all-covering cluster.
        let single = radix_cluster(&[7u64, 8], &[0u32, 1], RadixClusterSpec::single_pass(0));
        assert_eq!(single.num_clusters(), 1);
        assert_eq!(single.cluster_range(0), 0..2);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        radix_cluster(&[1u64], &[1u32, 2], RadixClusterSpec::single_pass(1));
    }

    #[test]
    fn cluster_into_single_pass_and_zero_bits_match_the_wrapper() {
        // The degenerate (`bits == 0`) and 1-pass paths are where the seed
        // kernel wasted its flip-buffer copies; one reused scratch and
        // output must agree with the wrappers bit for bit on both.
        let oids = shuffled_oids(2_000, 11);
        let payloads: Vec<u32> = (0..2_000).collect();
        let (mut scratch, mut got) = (ClusterScratch::new(), Clustered::default());
        for spec in [
            RadixClusterSpec::single_pass(0),
            RadixClusterSpec::single_pass(5),
            RadixClusterSpec::partial(6, 1, 3),
        ] {
            let expected = radix_cluster_oids(&oids, &payloads, spec);
            scratch.cluster_into(
                &oids,
                &payloads,
                spec,
                |&o| o as u64,
                &mut got,
                &mut NoProbe,
            );
            assert_eq!(got, expected, "spec {spec:?}");
        }
        // Hashed-key variant too, 1-pass.
        let keys: Vec<u64> = (0..1_000).collect();
        let pay = vec![(); 1_000];
        let spec = RadixClusterSpec::single_pass(4);
        let mut hashed = Clustered::default();
        ClusterScratch::new().cluster_into(
            &keys,
            &pay,
            spec,
            |&k| hash_key(k),
            &mut hashed,
            &mut NoProbe,
        );
        assert_eq!(hashed, radix_cluster(&keys, &pay, spec));
    }

    #[test]
    fn radix_sort_spec_for_splits_passes_at_the_cursor_budget() {
        // The paper platform's pass fan-out is 32 clusters, 5 bits: one
        // pass up to 5 bits, two from 6, three from 11.
        let p = CacheParams::paper_pentium4();
        assert_eq!(pass_fanout(&p), 32);
        assert_eq!(
            radix_sort_spec_for(10_000, &p)
                .pass_bits()
                .collect::<Vec<_>>(),
            [5, 5, 4]
        );
        assert_eq!(radix_sort_spec_for(2_048, &p).passes, 3);
        assert_eq!(radix_sort_spec_for(33, &p).passes, 2);
        assert_eq!(radix_sort_spec_for(32, &p).passes, 1);
        // A smaller TLB tightens it: the tiny hierarchy's 8 entries allow
        // 4 clusters, 2 bits a pass.
        let tiny = CacheParams::tiny_for_tests();
        assert_eq!(pass_fanout(&tiny), 4);
        assert_eq!(radix_sort_spec_for(1 << 10, &tiny).passes, 5);
        assert_eq!(radix_sort_spec_for(1 << 5, &tiny).passes, 3);
        assert_eq!(radix_sort_spec_for(1 << 2, &tiny).passes, 1);
        // The helper floors sanely.
        assert_eq!(passes_for_budget(0, 32), 1);
        assert_eq!(passes_for_budget(5, 32), 1);
        assert_eq!(passes_for_budget(6, 32), 2);
        assert_eq!(passes_for_budget(33, 2048), 3);
        assert_eq!(passes_for_budget(4, 1), 4);
    }
}
