//! Positional-Joins: projecting column values through an oid list (paper §3).
//!
//! A Positional-Join is "array lookup" — fetching `column[oid]` for every oid
//! of the join index.  All variants below compute exactly the same values;
//! they differ only in the order (and therefore the memory access pattern) in
//! which the oids arrive:
//!
//! * **unsorted** — oids in join-output order: random access over the column;
//! * **sorted** — oids ascending (after Radix-Sort): sequential access;
//! * **clustered** — oids partially clustered (§3.1): each cluster touches
//!   only a cache-sized slice of the column;
//! * **sparse** — oids refer to a base table through a [`Selection`], so only
//!   a fraction of each loaded cache line is useful (§4.1, Fig. 11).
//!
//! §3 calls these "pointer-based joins … with negligible CPU cost", which
//! holds only while the loop is a tight array loop.  Hence the one rule every
//! executor in the workspace fetches by: **a source is asked for a block of
//! one column, never for a value** ([`AttrSource::gather_into`]).  The column
//! lookup, the seqbase / record stride and the dynamic call are paid once per
//! block; what remains per value is one safe-indexed load and one store.  All
//! variants end in the single loop [`Column::gather_into`].  A block of
//! radix-clustered oids stored packed ([`PackedSlice`]) is fetched the same
//! way, one loop per cluster run ([`AttrSource::gather_packed_into`]).

use crate::cluster::PackedSlice;
use rdx_dsm::{Column, DsmRelation, Oid, Selection};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A relation the projection phase can fetch attribute values from, one block
/// of one column at a time: `out[i] = attribute attr of tuple oids[i]`.
///
/// `attr` counts *projectable* attributes, not the join key.  Callers hand
/// over cache-sized blocks (a morsel, a chunk, a cluster); there is
/// deliberately no per-value entry point.
pub trait AttrSource {
    /// Fills `out` (same length as `oids`) with attribute `attr` of the
    /// tuples `oids` name, in that order.
    ///
    /// # Panics
    /// Panics if the block lengths differ, or `attr` / an oid does not exist
    /// in the relation.
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]);

    /// [`AttrSource::gather_into`] over a block of packed clustered oids:
    /// the same values, read through 2-byte offsets under each cluster's
    /// base.
    ///
    /// # Panics
    /// As [`AttrSource::gather_into`].
    fn gather_packed_into(&self, attr: usize, oids: PackedSlice<'_>, out: &mut [i32]);
}

impl AttrSource for DsmRelation {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        self.attr(attr).gather_into(oids, out);
    }

    fn gather_packed_into(&self, attr: usize, oids: PackedSlice<'_>, out: &mut [i32]) {
        let column = self.attr(attr);
        oids.for_each_run(out, |base, offsets, block| {
            column.gather_offsets_into(base, offsets, block);
        });
    }
}

impl<S: AttrSource + ?Sized> AttrSource for &S {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        (**self).gather_into(attr, oids, out);
    }

    fn gather_packed_into(&self, attr: usize, oids: PackedSlice<'_>, out: &mut [i32]) {
        (**self).gather_packed_into(attr, oids, out);
    }
}

impl<S: AttrSource + ?Sized> AttrSource for Box<S> {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        (**self).gather_into(attr, oids, out);
    }

    fn gather_packed_into(&self, attr: usize, oids: PackedSlice<'_>, out: &mut [i32]) {
        (**self).gather_packed_into(attr, oids, out);
    }
}

impl<S: AttrSource + ?Sized> AttrSource for Arc<S> {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        (**self).gather_into(attr, oids, out);
    }

    fn gather_packed_into(&self, attr: usize, oids: PackedSlice<'_>, out: &mut [i32]) {
        (**self).gather_packed_into(attr, oids, out);
    }
}

/// A block of oids as a fetch reads it: a plain `u32` slice, or a slice of
/// packed clustered oids.  Either way it names the same tuples in the same
/// order; only the bytes per oid differ.
#[derive(Debug, Clone, Copy)]
pub enum OidBlock<'a> {
    /// One [`Oid`] per row.
    Wide(&'a [Oid]),
    /// Low bits under cluster bases (see [`crate::cluster::PackedOids`]).
    Packed(PackedSlice<'a>),
}

impl<'a> OidBlock<'a> {
    /// Number of oids.
    pub fn len(&self) -> usize {
        match self {
            OidBlock::Wide(oids) => oids.len(),
            OidBlock::Packed(oids) => oids.len(),
        }
    }

    /// `true` if the block names no tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes each oid occupies in the array the block reads.
    pub fn index_width(&self) -> usize {
        match self {
            OidBlock::Wide(_) => std::mem::size_of::<Oid>(),
            OidBlock::Packed(_) => std::mem::size_of::<u16>(),
        }
    }

    /// The block's oids widened to [`Oid`].
    pub fn to_vec(&self) -> Vec<Oid> {
        match self {
            OidBlock::Wide(oids) => oids.to_vec(),
            OidBlock::Packed(oids) => {
                let mut out = Vec::new();
                oids.extend_into(&mut out);
                out
            }
        }
    }
}

/// An [`AttrSource`] that counts what it is asked for and forwards to `S` —
/// the instrument that pins the block contract by a count instead of a clock:
/// a caller that slipped back to one request per value shows up as
/// `calls == values`.
#[derive(Debug)]
pub struct CountingSource<S> {
    inner: S,
    calls: AtomicUsize,
    values: AtomicUsize,
    largest_block: AtomicUsize,
}

impl<S> CountingSource<S> {
    /// Wraps `inner` with all counters at zero.
    pub fn new(inner: S) -> Self {
        CountingSource {
            inner,
            calls: AtomicUsize::new(0),
            values: AtomicUsize::new(0),
            largest_block: AtomicUsize::new(0),
        }
    }

    /// Number of [`AttrSource::gather_into`] calls so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total values requested so far.
    pub fn values(&self) -> usize {
        self.values.load(Ordering::Relaxed)
    }

    /// Largest single block requested so far.
    pub fn largest_block(&self) -> usize {
        self.largest_block.load(Ordering::Relaxed)
    }

    fn count(&self, block: usize) {
        // Statistics only: nothing is published through these counters.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.values.fetch_add(block, Ordering::Relaxed);
        self.largest_block.fetch_max(block, Ordering::Relaxed);
    }
}

impl<S: AttrSource> AttrSource for CountingSource<S> {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        self.count(oids.len());
        self.inner.gather_into(attr, oids, out);
    }

    fn gather_packed_into(&self, attr: usize, oids: PackedSlice<'_>, out: &mut [i32]) {
        self.count(oids.len());
        self.inner.gather_packed_into(attr, oids, out);
    }
}

/// Positional-Join: `out[i] = column[oids[i]]`.
///
/// This single implementation serves the unsorted, sorted and clustered
/// strategies — the access pattern is dictated entirely by the order of
/// `oids`, which is what the different clustering strategies manipulate.
pub fn positional_join<T: Copy + Default>(oids: &[Oid], column: &Column<T>) -> Column<T> {
    column.gather(oids)
}

/// Clustered Positional-Join: processes the oid list cluster by cluster.
///
/// Functionally identical to [`positional_join`]; it exists so that the
/// benchmark harness can measure the per-cluster loop the paper describes
/// (Fig. 9c) rather than one flat gather.  Each cluster runs the one DSM
/// gather loop, whose simulated misses are read off that loop itself
/// ([`Column::gather_into_probed`]).
pub fn clustered_positional_join<T: Copy + Default>(
    oids: &[Oid],
    bounds: &[usize],
    column: &Column<T>,
) -> Column<T> {
    debug_assert_eq!(*bounds.last().unwrap_or(&0), oids.len());
    let mut out = vec![T::default(); oids.len()];
    for cluster in bounds.windows(2) {
        let range = cluster[0]..cluster[1];
        column.gather_into(&oids[range.clone()], &mut out[range]);
    }
    Column::from_vec(out)
}

/// Sparse Positional-Join: the oids address positions *within a selection*;
/// they are first rebased to base-table oids and then fetched from the base
/// column.  The lower the selectivity, the fewer values per loaded cache line
/// are useful — the effect Fig. 11 quantifies.
pub fn sparse_positional_join<T: Copy + Default>(
    selection_oids: &[Oid],
    selection: &Selection,
    base_column: &Column<T>,
) -> Column<T> {
    let base_oids = selection.rebase(selection_oids);
    base_column.gather(&base_oids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column() -> Column<i32> {
        Column::from_vec((0..100).map(|i| i * 10).collect())
    }

    #[test]
    fn unsorted_and_clustered_agree() {
        let col = column();
        let oids = vec![17, 3, 99, 3, 42, 0];
        let bounds = vec![0, 2, 5, 6];
        let flat = positional_join(&oids, &col);
        let clustered = clustered_positional_join(&oids, &bounds, &col);
        assert_eq!(flat, clustered);
        assert_eq!(flat.as_slice(), &[170, 30, 990, 30, 420, 0]);
    }

    #[test]
    fn packed_blocks_fetch_what_wide_blocks_fetch() {
        use crate::cluster::{radix_cluster_oids, PackedOids, RadixClusterSpec};
        let cols: Vec<Column<i32>> = [10, -1]
            .map(|m| Column::from_vec((0..300).map(|row| row * m).collect()))
            .into();
        let dsm = DsmRelation::new(Column::from_vec((0..300).collect()), cols);
        let oids: Vec<Oid> = (0..300).map(|i| (i * 7 + 3) % 300).collect();
        let clustered = radix_cluster_oids(&oids, &oids, RadixClusterSpec::partial(3, 1, 6));
        let wide = clustered.keys().to_vec();
        let (packed, _) = PackedOids::pack(clustered);
        let sources: [&dyn AttrSource; 2] = [&dsm, &CountingSource::new(&dsm)];
        for source in sources {
            for (attr, range) in [(0, 0..300), (1, 41..250)] {
                let (mut expected, mut got) = (vec![0; range.len()], vec![0; range.len()]);
                source.gather_into(attr, &wide[range.clone()], &mut expected);
                source.gather_packed_into(attr, packed.slice(range.clone()), &mut got);
                assert_eq!(got, expected, "attr {attr} {range:?}");
            }
        }
        let counted = CountingSource::new(&dsm);
        counted.gather_packed_into(0, packed.slice(5..105), &mut [0; 100]);
        assert_eq!((counted.calls(), counted.values()), (1, 100));
    }

    #[test]
    fn counting_source_counts_blocks_not_values() {
        let rel = DsmRelation::new(Column::from_vec(vec![0; 100]), vec![column()]);
        let source = CountingSource::new(&rel);
        let mut out = [0; 4];
        source.gather_into(0, &[3, 1, 4, 1], &mut out);
        source.gather_into(0, &[5, 9], &mut out[..2]);
        assert_eq!(out, [50, 90, 40, 10]);
        assert_eq!(
            (source.calls(), source.values(), source.largest_block()),
            (2, 6, 4)
        );
    }

    #[test]
    fn sparse_join_rebases_through_selection() {
        let base = Column::from_vec((0..1000).collect());
        let sel = Selection::new(vec![10, 200, 999], 1000);
        // selection positions 2,0 -> base oids 999,10
        let out = sparse_positional_join(&[2, 0], &sel, &base);
        assert_eq!(out.as_slice(), &[999, 10]);
    }

    #[test]
    fn empty_oid_list() {
        let col = column();
        assert!(positional_join(&[], &col).is_empty());
        assert!(clustered_positional_join(&[], &[0], &col).is_empty());
    }
}
