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
//! run by run ([`PackedSlice::runs`]), one cluster base per run.  A slice is
//! a contiguous stretch ([`PackedOids::slice`]) or a streamed chunk's
//! per-cluster runs read in place ([`PackedOids::select`]).
//!
//! The result positions clustered beside those oids (`CLUST_RESULT`) pack
//! the same way under a different base.  Radix-Cluster is stable over
//! result-ordered input, so a cluster's positions ascend (§3.2), and the
//! entries of each [`POSITION_BLOCK_ROWS`]-row result block form one
//! contiguous sub-run of the cluster.  [`PackedPositions`] stores each
//! position's 16 low bits plus where every (cluster, block) sub-run starts:
//! a position's high bits are its block.

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
        self.view((0, self.len()), &[], self.len())
    }

    /// The oids at positions `range`.
    pub fn slice(&self, range: Range<usize>) -> PackedSlice<'_> {
        self.as_slice().slice(range)
    }

    /// The oids at the positions `runs` name, run after run — how a
    /// streamed chunk reads its per-cluster runs in place.
    pub fn select<'a>(&'a self, runs: &'a [Range<usize>]) -> PackedSlice<'a> {
        let len = runs.iter().map(|r| r.len()).sum();
        match runs.split_first() {
            Some((head, tail)) => self.view((head.start, head.end), tail, len),
            None => self.view((0, 0), &[], len),
        }
    }

    fn view<'a>(
        &'a self,
        head: (usize, usize),
        tail: &'a [Range<usize>],
        len: usize,
    ) -> PackedSlice<'a> {
        PackedSlice {
            low: &self.low,
            bounds: &self.bounds,
            shift: self.spec.ignore,
            head,
            tail,
            len,
        }
    }

    /// Every oid widened to [`Oid`], in order.
    pub fn to_oids(&self) -> Vec<Oid> {
        let mut out = Vec::new();
        self.as_slice().extend_into(&mut out);
        out
    }
}

/// A view of a [`PackedOids`] array — what one block of a gather reads: the
/// positions `head`, then those of the `tail` runs, cut to `len` oids.  A
/// contiguous stretch is a `head` that may span several clusters; a chunk's
/// runs each lie inside one cluster.
#[derive(Debug, Clone, Copy)]
pub struct PackedSlice<'a> {
    // The whole array's low bits, cluster bounds and shift.
    low: &'a [u16],
    bounds: &'a [usize],
    shift: u32,
    head: (usize, usize),
    tail: &'a [Range<usize>],
    len: usize,
}

impl<'a> PackedSlice<'a> {
    /// Number of oids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the slice holds no oid.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oids at positions `range` of this slice.
    ///
    /// # Panics
    /// Panics if `range` reaches past the slice.
    pub fn slice(&self, range: Range<usize>) -> PackedSlice<'a> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} of {} oids",
            self.len
        );
        let (mut head, mut tail, mut skip) = (self.head, self.tail, range.start);
        while skip >= head.1 - head.0 {
            let Some((next, rest)) = tail.split_first() else {
                break;
            };
            skip -= head.1 - head.0;
            (head, tail) = ((next.start, next.end), rest);
        }
        PackedSlice {
            head: (head.0 + skip, head.1),
            tail,
            len: range.len(),
            ..*self
        }
    }

    /// The slice cut at its cluster borders, in order: `(at, base, low)`
    /// triples, a run's first position in the packed array and its oids
    /// `base + low[i]`.  Empty runs are skipped.
    pub fn runs(&self) -> impl Iterator<Item = (usize, Oid, &'a [u16])> + 'a {
        let (low, bounds, shift) = (self.low, self.bounds, self.shift);
        let mut left = self.len;
        let spans = std::iter::once(self.head).chain(self.tail.iter().map(|r| (r.start, r.end)));
        spans
            .map_while(move |(start, end)| {
                (left > 0).then(|| {
                    let end = end.min(start + left);
                    left -= end - start;
                    (start, end)
                })
            })
            .flat_map(move |(start, end)| {
                // The cluster holding `start`: the last one beginning at or
                // before it.
                let first = bounds.partition_point(|&b| b <= start).max(1) - 1;
                bounds[first..]
                    .windows(2)
                    .zip(first..)
                    .take_while(move |(cluster, _)| cluster[0] < end)
                    .filter_map(move |(cluster, j)| {
                        let (s, e) = (cluster[0].max(start), cluster[1].min(end));
                        (s < e).then(|| (s, (j as Oid) << shift, &low[s..e]))
                    })
            })
    }

    /// Appends the slice's oids, widened to [`Oid`], to `out`.
    pub fn extend_into(&self, out: &mut Vec<Oid>) {
        out.reserve(self.len());
        for (_, base, low) in self.runs() {
            out.extend(low.iter().map(|&l| base + Oid::from(l)));
        }
    }
}

/// Rows per result block of a [`PackedPositions`] array: a position is
/// stored as its offset in its block.
pub const POSITION_BLOCK_ROWS: usize = 1 << PACKED_LOW_BITS;

/// A clustered `CLUST_RESULT` array stored as each position's low 16 bits
/// under its [`POSITION_BLOCK_ROWS`]-row result block: inside a cluster the
/// positions ascend, so the entries of one block are one contiguous
/// sub-run, and a position's block is the sub-run it lies in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPositions {
    /// `position & 0xFFFF`, one per clustered tuple.
    pub(crate) low: Vec<u16>,
    /// Where each (cluster, block) sub-run starts, cluster-major: sub-run
    /// `k = j · blocks + b` holds the tuples of cluster `j` in block `b`
    /// and spans `starts[k]..starts[k + 1]`.  `H · blocks + 1` entries, so
    /// `starts[j · blocks]` is cluster `j`'s border.
    pub(crate) starts: Vec<u32>,
    /// Result blocks covered (at least 1).
    pub(crate) blocks: usize,
}

impl PackedPositions {
    /// Packs the clustered `positions` whose clusters are `bounds`
    /// (`H + 1` offsets).
    ///
    /// # Panics
    /// Panics if the borders do not cover the positions, or a cluster's
    /// positions do not ascend or reach past the result's last block — the
    /// two §3.2 properties a clustering of result positions guarantees.
    pub fn pack(positions: &[Oid], bounds: &[usize]) -> Self {
        let n = positions.len();
        let end = u32::try_from(n).expect("a result of at most u32::MAX rows");
        assert_eq!(
            bounds.last(),
            Some(&n),
            "cluster borders do not cover the positions"
        );
        let blocks = n.div_ceil(POSITION_BLOCK_ROWS).max(1);
        let mut starts = Vec::with_capacity((bounds.len() - 1) * blocks + 1);
        let mut low = Vec::with_capacity(n);
        let mut ascending = true;
        for cluster in bounds.windows(2) {
            // Block `b`'s sub-run starts at the cluster's first tuple in
            // block `b` or later.
            let (mut next, mut last) = (0, None);
            for (i, &pos) in positions[cluster[0]..cluster[1]].iter().enumerate() {
                ascending &= last < Some(pos);
                last = Some(pos);
                while next <= pos as usize / POSITION_BLOCK_ROWS {
                    starts.push((cluster[0] + i) as u32);
                    next += 1;
                }
                low.push(pos as u16);
            }
            starts.extend((next..blocks).map(|_| cluster[1] as u32));
        }
        assert!(
            ascending && starts.len() == (bounds.len() - 1) * blocks,
            "clustered positions must ascend inside their result blocks"
        );
        starts.push(end);
        PackedPositions {
            low,
            starts,
            blocks,
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.low.len()
    }

    /// `true` if no position is stored.
    pub fn is_empty(&self) -> bool {
        self.low.is_empty()
    }

    /// Heap bytes held: 2 B per position plus a 4 B start per (cluster,
    /// block) sub-run.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.low.as_slice()) + std::mem::size_of_val(self.starts.as_slice())
    }

    /// Every position widened to [`Oid`], in clustered order.
    pub fn to_positions(&self) -> Vec<Oid> {
        let mut out = Vec::with_capacity(self.len());
        for (k, run) in self.starts.windows(2).enumerate() {
            let base = (k % self.blocks * POSITION_BLOCK_ROWS) as Oid;
            let run = &self.low[run[0] as usize..run[1] as usize];
            out.extend(run.iter().map(|&l| base + Oid::from(l)));
        }
        out
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
    fn a_selection_of_runs_reads_the_oids_they_name() {
        let c = clustered(3_000, 4, 8);
        let keys = c.keys().to_vec();
        let (packed, _) = PackedOids::pack(c);
        // The middle third of every cluster, as a chunk's runs are cut.
        let runs: Vec<Range<usize>> = packed
            .bounds()
            .windows(2)
            .map(|w| (w[0] + (w[1] - w[0]) / 3)..(w[1] - (w[1] - w[0]) / 3))
            .filter(|r| !r.is_empty())
            .collect();
        let expected: Vec<Oid> = runs.iter().flat_map(|r| keys[r.clone()].to_vec()).collect();
        let n = expected.len();
        let view = packed.select(&runs);
        assert_eq!(view.len(), n);
        // One (base, low) piece per run, widening to the oids the runs name.
        assert_eq!(view.runs().count(), runs.len());
        let mut widened = Vec::new();
        view.extend_into(&mut widened);
        assert_eq!(widened, expected);
        for range in [0..0, 0..n, 5..6, 17..n - 3, n..n] {
            let mut got = Vec::new();
            view.slice(range.clone()).extend_into(&mut got);
            assert_eq!(got, expected[range.clone()], "{range:?}");
        }
        let mut again = Vec::new();
        view.slice(3..n).slice(2..40).extend_into(&mut again);
        assert_eq!(again, expected[5..43]);
        // Morsels of any size tile the view.
        for morsel in [1, 7, 64, n] {
            let mut tiled = Vec::new();
            for start in (0..n).step_by(morsel) {
                view.slice(start..(start + morsel).min(n))
                    .extend_into(&mut tiled);
            }
            assert_eq!(tiled, expected, "morsel {morsel}");
        }
        assert!(packed.select(&[]).is_empty());
    }

    #[test]
    fn runs_skip_empty_clusters_and_cover_the_slice() {
        // Oids 0..4 and 12..16 under 4 clusters of 4: clusters 1 and 2 empty.
        let oids: Vec<Oid> = (0..4).chain(12..16).collect();
        let c = radix_cluster_oids(&oids, &oids, RadixClusterSpec::partial(2, 1, 2));
        let (packed, _) = PackedOids::pack(c);
        let runs: Vec<_> = packed.slice(2..7).runs().collect();
        assert_eq!(runs, [(2, 0, &[2u16, 3][..]), (4, 12, &[0, 1, 2][..])]);
        let mut out = Vec::new();
        packed.slice(2..7).extend_into(&mut out);
        assert_eq!(out, [2, 3, 12, 13, 14]);
    }

    #[test]
    fn packed_positions_round_trip_around_the_block_boundaries() {
        const BLOCK: usize = POSITION_BLOCK_ROWS;
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5] {
            let c = clustered(n, 3, 14);
            let packed = PackedPositions::pack(c.payloads(), c.bounds());
            assert_eq!(packed.to_positions(), c.payloads(), "n={n}");
            assert_eq!(packed.len(), n);
            let blocks = n.div_ceil(BLOCK).max(1);
            assert_eq!(packed.resident_bytes(), 2 * n + 4 * (8 * blocks + 1));
            // Every eighth start is a cluster border.
            let borders: Vec<usize> = packed
                .starts
                .iter()
                .step_by(blocks)
                .map(|&s| s as usize)
                .collect();
            assert_eq!(borders, c.bounds(), "n={n}");
        }
    }

    #[test]
    fn a_cluster_with_an_empty_block_starts_its_next_block_where_it_ends() {
        const BLOCK: usize = POSITION_BLOCK_ROWS;
        // Cluster 0 holds rows 0 and 2·2^16 (nothing of block 1); cluster 1
        // the rows between.
        let n = 2 * BLOCK + 1;
        let positions: Vec<Oid> = [0, 2 * BLOCK as Oid]
            .into_iter()
            .chain(1..2 * BLOCK as Oid)
            .collect();
        let packed = PackedPositions::pack(&positions, &[0, 2, n]);
        let n32 = n as u32;
        assert_eq!(packed.starts, [0, 1, 1, 2, BLOCK as u32 + 1, n32, n32]);
        assert_eq!(packed.to_positions(), positions);
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn positions_that_do_not_ascend_in_their_cluster_are_refused() {
        PackedPositions::pack(&[1, 0, 2], &[0, 2, 3]);
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
