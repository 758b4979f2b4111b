//! Clustering specifications and the §3.1 parameter formulas.

use super::{paper_pass_fanout, passes_for_budget};
use crate::hash::significant_bits;

/// A Radix-Cluster configuration: `B` radix bits split over `P` passes,
/// ignoring the lowermost `I` bits (the *partial* Radix-Cluster of §3.1).
///
/// `Hash` is derived so a spec can key cross-query caches of clustered
/// products (the serving layer's clustered-join-index cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RadixClusterSpec {
    /// Total radix bits `B`; the input is split into `2^B` clusters.
    pub bits: u32,
    /// Number of passes `P` (each pass handles `≈ B/P` bits, leftmost first).
    pub passes: u32,
    /// Ignore bits `I`: the clustering field is `[I, I+B)`, leaving the input
    /// unsorted on the lowermost `I` bits.
    pub ignore: u32,
}

impl RadixClusterSpec {
    /// A single-pass clustering on `bits` bits, no ignore bits.
    pub fn single_pass(bits: u32) -> Self {
        Self::partial(bits, 1, 0)
    }

    /// A `passes`-pass clustering on `bits` bits, no ignore bits.
    pub fn new(bits: u32, passes: u32) -> Self {
        Self::partial(bits, passes, 0)
    }

    /// A partial clustering: `bits` bits over `passes` passes, ignoring the
    /// lowermost `ignore` bits.
    ///
    /// # Panics
    /// Panics if `bits + ignore > 40` (2^40 clusters is far past any sensible
    /// configuration and would overflow allocation sizes) or `passes == 0`.
    pub fn partial(bits: u32, passes: u32, ignore: u32) -> Self {
        assert!(passes >= 1, "at least one pass is required");
        assert!(bits + ignore <= 40, "unreasonable radix configuration");
        RadixClusterSpec {
            bits,
            passes,
            ignore,
        }
    }

    /// Number of clusters `H = 2^B`.
    pub fn num_clusters(&self) -> usize {
        1usize << self.bits
    }

    /// A clustering on `bits` bits ignoring the lowermost `ignore`, over
    /// the fewest passes that keep every pass at or under `fanout`
    /// clusters: the one source of a planned pass count.  Planners pass
    /// [`super::pass_fanout`] of their cache.
    pub fn planned(bits: u32, ignore: u32, fanout: usize) -> Self {
        Self::partial(bits, passes_for_budget(bits, fanout), ignore)
    }

    /// The per-pass bit counts, leftmost (most significant) pass first,
    /// without allocating.  Passes never exceed `bits`, so asking for more
    /// passes than bits simply collapses to `bits` one-bit passes.
    pub fn pass_bits(&self) -> impl ExactSizeIterator<Item = u32> + Clone {
        let (bits, passes) = (self.bits, self.passes.clamp(1, self.bits.max(1)));
        (0..passes.min(bits)).map(move |p| bits / passes + u32::from(p < bits % passes))
    }

    /// The §3.1 formula for projecting from a column of `column_tuples` values
    /// of `value_width` bytes through a join index over an oid domain of
    /// `column_tuples`:
    ///
    /// * `B` is chosen so that one cluster's worth of the projection column
    ///   (`‖COLUMN‖ / 2^B`) just fits in a cache of `cache_bytes`;
    /// * `I` is whatever remains of the oid's significant bits, i.e. the bits
    ///   Radix-Sort may ignore ("stop early").
    ///
    /// It takes a cache size but no `CacheParams`, so its passes follow
    /// the pass rule at the paper's platform; [`super::plan_partial_cluster`]
    /// plans the same bits under a query's own cache.
    pub fn optimal_partial(column_tuples: usize, value_width: usize, cache_bytes: usize) -> Self {
        let bits = bits_to_fit(column_tuples.saturating_mul(value_width), cache_bytes, 30);
        let ignore = significant_bits(column_tuples).saturating_sub(bits);
        Self::planned(bits, ignore, paper_pass_fanout())
    }
}

/// The fewest radix bits, at most `max_bits`, that cut `bytes` into
/// clusters of at most `cache_bytes` each: the fits-in-cache rule of the
/// projection clusterings (§3.1) and the join's build partitions (§2.1).
pub(crate) fn bits_to_fit(bytes: usize, cache_bytes: usize, max_bits: u32) -> u32 {
    let mut bits = 0u32;
    while (bytes >> bits) > cache_bytes && bits < max_bits {
        bits += 1;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_bits_split_evenly_leftmost_heavy() {
        let split = |bits, passes| {
            RadixClusterSpec::new(bits, passes)
                .pass_bits()
                .collect::<Vec<_>>()
        };
        assert_eq!(split(8, 1), [8]);
        assert_eq!(split(8, 2), [4, 4]);
        assert_eq!(split(7, 2), [4, 3]);
        assert_eq!(split(3, 5), [1, 1, 1]);
        assert_eq!(split(0, 2), []);
        assert_eq!(RadixClusterSpec::new(7, 2).pass_bits().len(), 2);
    }

    #[test]
    fn paper_example_of_section_3_1() {
        // "if we have a CPU cache of 64KB and values that are 4 bytes wide …
        // if the source table has 10M tuples, we would create 2^10 = 1024
        // clusters … allowing Radix-Sort to ignore the lowermost 14 bits."
        let spec = RadixClusterSpec::optimal_partial(10_000_000, 4, 64 * 1024);
        assert_eq!(spec.bits, 10);
        assert_eq!(spec.ignore, 14);
        // Mean cluster fits the cache.
        assert!(10_000_000usize * 4 / spec.num_clusters() <= 64 * 1024);
    }

    #[test]
    fn optimal_partial_small_column_needs_no_clustering() {
        let spec = RadixClusterSpec::optimal_partial(1000, 4, 512 * 1024);
        assert_eq!(spec.bits, 0);
        assert_eq!(spec.num_clusters(), 1);
    }

    #[test]
    fn optimal_partial_splits_many_clusters_at_the_pass_fanout() {
        // 17 bits at the paper platform's 32-cluster passes: 5 + 4 + 4 + 4.
        let spec = RadixClusterSpec::optimal_partial(500_000_000, 4, 16 * 1024);
        assert_eq!(spec.bits, 17);
        assert_eq!(spec.pass_bits().collect::<Vec<_>>(), [5, 4, 4, 4]);
    }

    #[test]
    #[should_panic]
    fn zero_passes_rejected() {
        RadixClusterSpec::partial(4, 0, 0);
    }

    #[test]
    #[should_panic]
    fn absurd_bit_count_rejected() {
        RadixClusterSpec::partial(41, 1, 0);
    }
}
