//! Radix-Cluster: multi-pass, finely tunable partitioning (paper §2.2, §3.1).
//!
//! `radix_cluster(B, P)` partitions its input into `H = 2^B` clusters on the
//! lower `B` radix bits of the (hashed) key, using `P` sequential passes so
//! that no single pass creates more output cursors than the caches and TLB can
//! sustain.  The *partial* variant additionally ignores the lowermost `I` bits
//! — stopping early — which is what turns Radix-Sort of a join index into the
//! much cheaper partial clustering that Positional-Join needs (§3.1).
//!
//! Keys from dense oid domains are clustered without hashing; arbitrary join
//! keys are hashed first (see [`crate::hash`]).

mod scratch;
mod spec;

pub use scratch::{
    buffered_cursor_budget, plan_cluster_passes, plan_partial_cluster, scatter_cursor_budget,
    ClusterScratch, ScatterMode, ScratchClustered, DEFAULT_SCATTER_CURSOR_BUDGET, OID_PAIR_BYTES,
    SWWC_SLOT_ELEMS, TLB_BOUNDED_FANOUT,
};
pub use spec::RadixClusterSpec;

use crate::hash::{hash_key, radix_field, significant_bits};
use rdx_cache::CacheParams;
use rdx_dsm::Oid;

/// The result of radix-clustering a `(key, payload)` sequence: both arrays
/// reordered so that cluster 0 comes first, plus the cluster boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustered<K, P> {
    keys: Vec<K>,
    payloads: Vec<P>,
    /// `bounds[j]..bounds[j+1]` is the range of cluster `j`; `len = H + 1`.
    bounds: Vec<usize>,
    spec: RadixClusterSpec,
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

    /// Assembles a `Clustered` from already-clustered parts.  Used by the
    /// traced variants in [`crate::trace`] and by the parallel kernels in
    /// `rdx-exec`, which run the same algorithm but own their scatter loops
    /// (per-thread histograms + prefix-sum merge into disjoint output slices).
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
/// case): `radix_cluster(B, P)` of §2.2.
///
/// Allocates a one-shot [`ClusterScratch`]; callers on a hot path should
/// hold their own and use [`radix_cluster_with_scratch`] instead.
pub fn radix_cluster<P: Copy>(
    keys: &[u64],
    payloads: &[P],
    spec: RadixClusterSpec,
) -> Clustered<u64, P> {
    radix_cluster_with_scratch(
        keys,
        payloads,
        spec,
        ScatterMode::Auto,
        &mut ClusterScratch::new(),
    )
}

/// [`radix_cluster`] with caller-provided working memory and an explicit
/// scatter mode: the returned [`Clustered`] is the only per-call allocation
/// once the scratch has warmed up, and each key is hashed exactly once per
/// pass.  Output is byte-identical to [`radix_cluster`] for every mode.
pub fn radix_cluster_with_scratch<P: Copy>(
    keys: &[u64],
    payloads: &[P],
    spec: RadixClusterSpec,
    mode: ScatterMode,
    scratch: &mut ClusterScratch<u64, P>,
) -> Clustered<u64, P> {
    scratch.cluster_by(keys, payloads, spec, mode, |&k| hash_key(k))
}

/// Radix-clusters `(oid, payload)` pairs on the *unhashed* oid value (the
/// join-index case of §3.1): oids come from a dense domain, so the radix bits
/// of the value itself are already uniform and order-preserving.
///
/// Allocates a one-shot [`ClusterScratch`]; callers on a hot path should
/// hold their own and use [`radix_cluster_oids_with_scratch`] instead.
pub fn radix_cluster_oids<P: Copy>(
    oids: &[Oid],
    payloads: &[P],
    spec: RadixClusterSpec,
) -> Clustered<Oid, P> {
    radix_cluster_oids_with_scratch(
        oids,
        payloads,
        spec,
        ScatterMode::Auto,
        &mut ClusterScratch::new(),
    )
}

/// [`radix_cluster_oids`] with caller-provided working memory and an
/// explicit scatter mode (see [`radix_cluster_with_scratch`]).
pub fn radix_cluster_oids_with_scratch<P: Copy>(
    oids: &[Oid],
    payloads: &[P],
    spec: RadixClusterSpec,
    mode: ScatterMode,
    scratch: &mut ClusterScratch<Oid, P>,
) -> Clustered<Oid, P> {
    scratch.cluster_by(oids, payloads, spec, mode, |&o| o as u64)
}

/// Radix-Sort of an oid column: a Radix-Cluster on *all* significant bits with
/// no ignore bits, "equivalent to Radix-Sort" (§3.1).  Uses two passes once
/// more than 2048 clusters would be needed, mirroring the paper's observation
/// that one pass stops scaling at a few thousand output cursors.
pub fn radix_sort_oids<P: Copy>(oids: &[Oid], payloads: &[P], domain: usize) -> Clustered<Oid, P> {
    radix_cluster_oids(oids, payloads, radix_sort_spec(domain))
}

/// The clustering configuration [`radix_sort_oids`] uses for a dense oid
/// `domain`: all significant bits, no ignore bits, and a pass count that
/// keeps every pass's cursor set within the
/// [`DEFAULT_SCATTER_CURSOR_BUDGET`] of 2048 — the documented fallback for
/// when no measured [`CacheParams`] is at hand (it reproduces the seed
/// kernel's `bits > 11 → 2 passes` rule exactly).  Shared with the parallel
/// sort in `rdx-exec` so the two can never drift apart; callers that *do*
/// know their hardware should use [`radix_sort_spec_for`].
pub fn radix_sort_spec(domain: usize) -> RadixClusterSpec {
    let bits = significant_bits(domain);
    RadixClusterSpec::partial(
        bits,
        passes_for_budget(bits, DEFAULT_SCATTER_CURSOR_BUDGET),
        0,
    )
}

/// [`radix_sort_spec`] with the pass threshold derived from the hardware
/// model instead of the 2048-cursor default: a pass never creates more
/// cursors than [`scatter_cursor_budget`] allows, so the pass rule and the
/// cost-model planner can never disagree about where single-pass clustering
/// stops scaling.  (For [`CacheParams::paper_pentium4`] the derived budget
/// *is* 2048, so the two functions agree there.)
pub fn radix_sort_spec_for(domain: usize, params: &CacheParams) -> RadixClusterSpec {
    let bits = significant_bits(domain);
    RadixClusterSpec::partial(
        bits,
        passes_for_budget(bits, scatter_cursor_budget(params)),
        0,
    )
}

/// Smallest pass count splitting `bits` so no pass exceeds `cursor_budget`
/// output cursors.
pub fn passes_for_budget(bits: u32, cursor_budget: usize) -> u32 {
    if bits == 0 {
        return 1;
    }
    let bits_per_pass = (usize::BITS - 1 - cursor_budget.max(2).leading_zeros()).max(1);
    bits.div_ceil(bits_per_pass).max(1)
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
        let c = radix_sort_oids(&oids, &pay, 10_000);
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
    fn with_scratch_single_pass_and_zero_bits_match_the_wrapper() {
        // The degenerate (`bits == 0`) and 1-pass paths are where the seed
        // kernel wasted its flip-buffer copies; the arena paths must agree
        // with the wrappers bit for bit on both, across scratch reuse.
        let oids = shuffled_oids(2_000, 11);
        let payloads: Vec<u32> = (0..2_000).collect();
        let mut scratch = ClusterScratch::new();
        for spec in [
            RadixClusterSpec::single_pass(0),
            RadixClusterSpec::single_pass(5),
            RadixClusterSpec::partial(6, 1, 3),
        ] {
            let expected = radix_cluster_oids(&oids, &payloads, spec);
            for mode in [ScatterMode::Plain, ScatterMode::Buffered, ScatterMode::Auto] {
                let got =
                    radix_cluster_oids_with_scratch(&oids, &payloads, spec, mode, &mut scratch);
                assert_eq!(got, expected, "spec {spec:?} mode {mode:?}");
            }
        }
        // Hashed-key variant too, 1-pass.
        let keys: Vec<u64> = (0..1_000).collect();
        let pay = vec![(); 1_000];
        let spec = RadixClusterSpec::single_pass(4);
        let mut hscratch = ClusterScratch::new();
        assert_eq!(
            radix_cluster_with_scratch(&keys, &pay, spec, ScatterMode::Buffered, &mut hscratch),
            radix_cluster(&keys, &pay, spec),
        );
    }

    #[test]
    fn radix_sort_spec_for_derives_the_documented_default_on_the_paper_platform() {
        let p = CacheParams::paper_pentium4();
        // The derived budget is exactly 2048, so the two rules agree for
        // every domain the 2048-fallback handles with ≤ 2 passes.
        for domain in [100usize, 2_048, 10_000, 1 << 20, 1 << 22] {
            assert_eq!(radix_sort_spec_for(domain, &p), radix_sort_spec(domain));
        }
        assert_eq!(radix_sort_spec(10_000).passes, 2);
        assert_eq!(radix_sort_spec(2_048).passes, 1);
        // A smaller cache tightens the threshold: the tiny hierarchy's
        // budget is 64 cursors, so 10 bits already need two passes.
        let tiny = CacheParams::tiny_for_tests();
        assert_eq!(scatter_cursor_budget(&tiny), 64);
        assert_eq!(radix_sort_spec_for(1 << 10, &tiny).passes, 2);
        assert_eq!(radix_sort_spec_for(1 << 5, &tiny).passes, 1);
        // The helper floors sanely.
        assert_eq!(passes_for_budget(0, 2048), 1);
        assert_eq!(passes_for_budget(11, 2048), 1);
        assert_eq!(passes_for_budget(12, 2048), 2);
        assert_eq!(passes_for_budget(33, 2048), 3);
        assert_eq!(passes_for_budget(4, 1), 4);
    }
}
