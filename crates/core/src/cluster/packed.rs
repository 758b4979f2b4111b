//! Radix-clustered oids stored as their low bits under their cluster.
//!
//! A partial Radix-Cluster on `B` bits that ignores the lowermost `I` bits
//! (§3.1) leaves, inside cluster `j`, only oids of the form
//! `(j << I) | low` with `low < 2^I`: the cluster number *is* the oid's high
//! part.  Once `I ≤ 16` — which [`super::plan_partial_cluster`] guarantees —
//! the clustered oid array needs no more than a `u16` per oid beside the
//! `H + 1` cluster bounds it already carries.  [`PackedOids`] is that form:
//! half the bytes of the `u32` array, which is what lets a byte-budgeted
//! prefix cache hold more prefixes.
//!
//! Nothing downstream ever widens the whole array back: a gather asks its
//! source for one [`PackedSlice`] per block, and the source walks the slice
//! run by run ([`PackedSlice::runs`]), one cluster base per run.

use super::{Clustered, RadixClusterSpec};
use rdx_dsm::Oid;
use std::ops::Range;

/// The widest ignore-bit count a packed clustering can hold: the low part of
/// each oid is stored as a `u16`.
pub const PACKED_LOW_BITS: u32 = u16::BITS;

/// A radix-clustered oid array stored as each oid's low `I` bits under its
/// cluster (`I` = the spec's ignore bits): oid `i` of cluster `j` is
/// `(j << I) + low[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedOids {
    low: Vec<u16>,
    /// `bounds[j]..bounds[j+1]` is the range of cluster `j`; `len = H + 1`.
    bounds: Vec<usize>,
    spec: RadixClusterSpec,
}

impl PackedOids {
    /// Packs the oid keys of `clustered`, returning its payloads beside the
    /// packed keys.  The clustering's spec is kept: its ignore-bit count is
    /// the shift.
    ///
    /// # Panics
    /// Panics if the spec ignores more than [`PACKED_LOW_BITS`] bits, or an
    /// oid's high part differs from its cluster number (the oids exceed the
    /// domain the clustering was planned for).
    pub fn pack<P>(clustered: Clustered<Oid, P>) -> (Self, Vec<P>) {
        let spec = *clustered.spec();
        let shift = spec.ignore;
        assert!(
            shift <= PACKED_LOW_BITS,
            "a cluster spanning 2^{shift} oids does not pack into u16"
        );
        let (oids, payloads, bounds) = clustered.into_parts();
        let mask = ((1u64 << shift) - 1) as Oid;
        let mut low = Vec::with_capacity(oids.len());
        // OR of every oid's high part XOR its cluster number: zero iff each
        // oid really is `(j << shift) | low`.
        let mut stray = 0;
        for (j, cluster) in bounds.windows(2).enumerate() {
            low.extend(oids[cluster[0]..cluster[1]].iter().map(|&oid| {
                stray |= (oid >> shift) ^ j as Oid;
                (oid & mask) as u16
            }));
        }
        assert_eq!(stray, 0, "an oid lies outside its cluster's range");
        (PackedOids { low, bounds, spec }, payloads)
    }

    /// Number of oids.
    pub fn len(&self) -> usize {
        self.low.len()
    }

    /// `true` if no oid is stored.
    pub fn is_empty(&self) -> bool {
        self.low.is_empty()
    }

    /// Number of clusters `H`.
    pub fn num_clusters(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The cluster boundary offsets (`H + 1` entries).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The clustering specification that produced the packed array; its
    /// `ignore` is how many low bits each stored oid keeps.
    pub fn spec(&self) -> &RadixClusterSpec {
        &self.spec
    }

    /// Heap bytes held: 2 B per oid plus the cluster bounds.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.low.as_slice()) + std::mem::size_of_val(self.bounds.as_slice())
    }

    /// The whole array as a [`PackedSlice`].
    pub fn as_slice(&self) -> PackedSlice<'_> {
        PackedSlice {
            low: &self.low,
            bounds: &self.bounds,
            start: 0,
            shift: self.spec.ignore,
        }
    }

    /// The oids at positions `range`.
    pub fn slice(&self, range: Range<usize>) -> PackedSlice<'_> {
        self.as_slice().slice(range)
    }

    /// Every oid widened to [`Oid`], in order.
    pub fn to_oids(&self) -> Vec<Oid> {
        let mut out = Vec::new();
        self.as_slice().extend_into(&mut out);
        out
    }
}

/// A contiguous run of a [`PackedOids`] array — what one block of a gather
/// reads.  It may span several clusters.
#[derive(Debug, Clone, Copy)]
pub struct PackedSlice<'a> {
    low: &'a [u16],
    bounds: &'a [usize],
    /// Position of `low[0]` in the whole array.
    start: usize,
    shift: u32,
}

impl<'a> PackedSlice<'a> {
    /// Number of oids.
    pub fn len(&self) -> usize {
        self.low.len()
    }

    /// `true` if the slice holds no oid.
    pub fn is_empty(&self) -> bool {
        self.low.is_empty()
    }

    /// The oids at positions `range` of this slice.
    pub fn slice(&self, range: Range<usize>) -> PackedSlice<'a> {
        PackedSlice {
            low: &self.low[range.clone()],
            start: self.start + range.start,
            ..*self
        }
    }

    /// The slice cut at its cluster borders, in order: `(base, low)` pairs
    /// whose oids are `base + low[i]`.  Empty runs are skipped.
    pub fn runs(&self) -> impl Iterator<Item = (Oid, &'a [u16])> + 'a {
        let (low, start, shift) = (self.low, self.start, self.shift);
        let end = start + low.len();
        // The cluster holding `start`: the last one beginning at or before it.
        let first = self.bounds.partition_point(|&b| b <= start).max(1) - 1;
        self.bounds[first..]
            .windows(2)
            .zip(first..)
            .take_while(move |(cluster, _)| cluster[0] < end)
            .filter_map(move |(cluster, j)| {
                let (s, e) = (cluster[0].max(start), cluster[1].min(end));
                (s < e).then(|| ((j as Oid) << shift, &low[s - start..e - start]))
            })
    }

    /// Calls `f(base, low, block)` once per run of [`Self::runs`], with
    /// `block` the matching stretch of `out` — the loop a block fetch over a
    /// packed slice runs.
    ///
    /// # Panics
    /// Panics if `out` is not as long as the slice.
    pub fn for_each_run<T>(&self, out: &mut [T], mut f: impl FnMut(Oid, &[u16], &mut [T])) {
        assert_eq!(self.len(), out.len(), "oid/output block length mismatch");
        let mut rest = out;
        for (base, low) in self.runs() {
            let (block, tail) = std::mem::take(&mut rest).split_at_mut(low.len());
            f(base, low, block);
            rest = tail;
        }
    }

    /// Appends the slice's oids, widened to [`Oid`], to `out`.
    pub fn extend_into(&self, out: &mut Vec<Oid>) {
        out.reserve(self.len());
        for (base, low) in self.runs() {
            out.extend(low.iter().map(|&l| base + Oid::from(l)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{radix_cluster_oids, RadixClusterSpec};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn clustered(n: usize, bits: u32, ignore: u32) -> Clustered<Oid, u32> {
        let mut oids: Vec<Oid> = (0..n as Oid).collect();
        oids.shuffle(&mut StdRng::seed_from_u64(n as u64));
        let positions: Vec<u32> = (0..n as u32).collect();
        radix_cluster_oids(
            &oids,
            &positions,
            RadixClusterSpec::partial(bits, 1, ignore),
        )
    }

    #[test]
    fn packing_round_trips_and_keeps_the_payloads() {
        for (n, bits, ignore) in [(0, 3, 2), (1, 0, 0), (5_000, 3, 10), (70_000, 1, 16)] {
            let c = clustered(n, bits, ignore);
            let (keys, payloads) = (c.keys().to_vec(), c.payloads().to_vec());
            let bounds = c.bounds().to_vec();
            let (packed, kept) = PackedOids::pack(c);
            assert_eq!(packed.to_oids(), keys, "n={n} bits={bits} ignore={ignore}");
            assert_eq!(kept, payloads);
            assert_eq!(packed.bounds(), bounds.as_slice());
            assert_eq!(packed.len(), n);
            assert_eq!(*packed.spec(), RadixClusterSpec::partial(bits, 1, ignore));
            assert_eq!(packed.resident_bytes(), 2 * n + 8 * bounds.len());
        }
    }

    #[test]
    fn every_slice_widens_to_the_same_oids() {
        let c = clustered(3_000, 4, 8);
        let keys = c.keys().to_vec();
        let (packed, _) = PackedOids::pack(c);
        for range in [0..0, 0..3_000, 17..18, 100..2_900, 2_999..3_000] {
            let mut widened = Vec::new();
            packed.slice(range.clone()).extend_into(&mut widened);
            assert_eq!(widened, keys[range.clone()], "{range:?}");
            // A slice of a slice addresses the same oids.
            let outer = packed.slice(range.start..3_000);
            let inner = outer.slice(0..range.len());
            let mut again = Vec::new();
            inner.extend_into(&mut again);
            assert_eq!(again, widened);
        }
    }

    #[test]
    fn runs_skip_empty_clusters_and_cover_the_slice() {
        // Oids 0..4 and 12..16 under 4 clusters of 4: clusters 1 and 2 empty.
        let oids: Vec<Oid> = (0..4).chain(12..16).collect();
        let c = radix_cluster_oids(&oids, &oids, RadixClusterSpec::partial(2, 1, 2));
        let (packed, _) = PackedOids::pack(c);
        let runs: Vec<_> = packed.slice(2..7).runs().collect();
        assert_eq!(runs, [(0, &[2u16, 3][..]), (12, &[0, 1, 2][..])]);
        let mut out = [0u32; 5];
        packed
            .slice(2..7)
            .for_each_run(&mut out, |base, low, block| {
                for (slot, &l) in block.iter_mut().zip(low) {
                    *slot = base + u32::from(l);
                }
            });
        assert_eq!(out, [2, 3, 12, 13, 14]);
    }

    #[test]
    #[should_panic(expected = "does not pack")]
    fn more_than_sixteen_ignore_bits_are_refused() {
        PackedOids::pack(clustered(10, 0, 17));
    }

    #[test]
    #[should_panic(expected = "outside its cluster")]
    fn an_oid_beyond_the_planned_domain_is_refused() {
        // 2 bits over ignore 2 cover oids 0..16; oid 16 lands in cluster 0.
        let oids: Vec<Oid> = vec![1, 16];
        PackedOids::pack(radix_cluster_oids(
            &oids,
            &oids,
            RadixClusterSpec::partial(2, 1, 2),
        ));
    }
}
