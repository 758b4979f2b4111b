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
//! lookup and the seqbase / record stride are paid once per block; what
//! remains per value is one safe-indexed load and one store.  All variants
//! end in the single loop [`Column::gather_into_probed`]: a block of plain
//! oids in one call, a block of radix-clustered oids stored packed
//! ([`PackedSlice`]) once per cluster run, over its 2-byte offsets under the
//! run's base.  The loop reports its references to a [`Probe`], so a
//! profiled run charges the cache simulator from the loop that ships.

use crate::cluster::PackedSlice;
use rdx_cache::{Probe, Remap};
use rdx_dsm::{Column, DsmRelation, FromValue, Oid, Selection};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A relation the projection phase can fetch attribute values from, one block
/// of one column at a time: `out[i] = attribute attr of tuple oids[i]`.
///
/// `attr` counts *projectable* attributes, not the join key.  Callers hand
/// over cache-sized blocks (a morsel, a chunk, a cluster); there is
/// deliberately no per-value entry point.
pub trait AttrSource {
    /// Number of projectable attributes.
    fn width(&self) -> usize;

    /// Fills `out` (same length as `oids`) with attribute `attr` of the
    /// tuples `oids` name, in that order, as [`FromValue`] cells.  `probe`
    /// sees, per oid, the oid's read (array id 0, at its index in the
    /// stored oid array the block views: within the slice of a wide block,
    /// within the whole packed array of a packed one), the value's read
    /// (id 1, by position in the column) and the write (id 2, `out`).
    ///
    /// # Panics
    /// Panics if the block lengths differ, or `attr` / an oid does not exist
    /// in the relation.
    fn gather_into<C: FromValue<i32>, P: Probe>(
        &self,
        attr: usize,
        oids: OidBlock<'_>,
        out: &mut [C],
        probe: &mut P,
    );
}

impl AttrSource for DsmRelation {
    fn width(&self) -> usize {
        DsmRelation::width(self)
    }

    fn gather_into<C: FromValue<i32>, P: Probe>(
        &self,
        attr: usize,
        oids: OidBlock<'_>,
        out: &mut [C],
        probe: &mut P,
    ) {
        let column = self.attr(attr);
        match oids {
            OidBlock::Wide(oids) => column.gather_into_probed(0, oids, out, probe),
            OidBlock::Packed(oids) => {
                assert_eq!(oids.len(), out.len(), "oid/output block length mismatch");
                let mut done = 0;
                for (at, base, offsets) in oids.runs() {
                    let block = &mut out[done..done + offsets.len()];
                    let mut run = Remap::new(&mut *probe, [(0, at), (1, 0), (2, done)]);
                    column.gather_into_probed(base, offsets, block, &mut run);
                    done += offsets.len();
                }
            }
        }
    }
}

impl<S: AttrSource> AttrSource for &S {
    fn width(&self) -> usize {
        (**self).width()
    }

    fn gather_into<C: FromValue<i32>, P: Probe>(
        &self,
        attr: usize,
        oids: OidBlock<'_>,
        out: &mut [C],
        probe: &mut P,
    ) {
        (**self).gather_into(attr, oids, out, probe);
    }
}

impl<S: AttrSource> AttrSource for Arc<S> {
    fn width(&self) -> usize {
        (**self).width()
    }

    fn gather_into<C: FromValue<i32>, P: Probe>(
        &self,
        attr: usize,
        oids: OidBlock<'_>,
        out: &mut [C],
        probe: &mut P,
    ) {
        (**self).gather_into(attr, oids, out, probe);
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

    /// The oids at positions `range` of this block.
    ///
    /// # Panics
    /// Panics if `range` reaches past the block.
    pub fn slice(&self, range: Range<usize>) -> OidBlock<'a> {
        match self {
            OidBlock::Wide(oids) => OidBlock::Wide(&oids[range]),
            OidBlock::Packed(oids) => OidBlock::Packed(oids.slice(range)),
        }
    }

    /// Bytes each oid occupies in the array the block reads.
    pub fn index_width(&self) -> usize {
        match self {
            OidBlock::Wide(_) => std::mem::size_of::<Oid>(),
            OidBlock::Packed(_) => std::mem::size_of::<u16>(),
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
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn gather_into<C: FromValue<i32>, P: Probe>(
        &self,
        attr: usize,
        oids: OidBlock<'_>,
        out: &mut [C],
        probe: &mut P,
    ) {
        self.count(oids.len());
        self.inner.gather_into(attr, oids, out, probe);
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
    use rdx_cache::NoProbe;

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
        fn check<S: AttrSource>(source: &S, wide: &[Oid], packed: &PackedOids) {
            for (attr, range) in [(0, 0..300), (1, 41..250)] {
                let (mut expected, mut got) = (vec![0; range.len()], vec![0; range.len()]);
                let oids = OidBlock::Wide(&wide[range.clone()]);
                source.gather_into(attr, oids, &mut expected, &mut NoProbe);
                let oids = OidBlock::Packed(packed.slice(range.clone()));
                source.gather_into(attr, oids, &mut got, &mut NoProbe);
                assert_eq!(got, expected, "attr {attr} {range:?}");
            }
        }
        check(&dsm, &wide, &packed);
        check(&CountingSource::new(&dsm), &wide, &packed);
        let counted = CountingSource::new(&dsm);
        let oids = OidBlock::Packed(packed.slice(5..105));
        counted.gather_into(0, oids, &mut [0; 100], &mut NoProbe);
        assert_eq!((counted.calls(), counted.values()), (1, 100));
    }

    /// A probed block fetch reports each oid at its position in the stored
    /// array: within the slice of a wide block, within the whole packed
    /// array of a packed one, whose runs need not be contiguous.
    #[test]
    fn a_probed_fetch_reports_each_oid_where_it_is_stored() {
        use crate::cluster::{radix_cluster_oids, PackedOids, RadixClusterSpec};
        #[derive(Default)]
        struct Recorder(Vec<(usize, usize)>);
        impl Probe for Recorder {
            const ACTIVE: bool = true;
            fn read(&mut self, array: usize, index: usize) {
                self.0.push((array, index));
            }
            fn write(&mut self, array: usize, index: usize) {
                self.0.push((array + 10, index));
            }
        }
        let dsm = DsmRelation::new(
            Column::from_vec((0..64).collect()),
            vec![Column::with_seqbase(0, (0..64).map(|v| v * 3).collect())],
        );
        let oids: Vec<Oid> = (0..64).map(|i| (i * 37 + 5) % 64).collect();
        let clustered = radix_cluster_oids(&oids, &oids, RadixClusterSpec::partial(2, 1, 4));
        let wide = clustered.keys().to_vec();
        let (packed, _) = PackedOids::pack(clustered);
        let runs = [2..5, 20..22, 40..43];
        let positions: Vec<usize> = runs.iter().flat_map(|r| r.clone()).collect();
        // Per oid: its read where it is stored, its value's read, the write.
        let expected = |stored: &[usize]| -> Vec<(usize, usize)> {
            stored
                .iter()
                .zip(&positions)
                .enumerate()
                .flat_map(|(i, (&s, &at))| [(0, s), (1, wide[at] as usize), (12, i)])
                .collect()
        };
        let mut probe = Recorder::default();
        let mut out = [0; 8];
        dsm.gather_into(
            0,
            OidBlock::Packed(packed.select(&runs)),
            &mut out,
            &mut probe,
        );
        assert_eq!(probe.0, expected(&positions));
        let values: Vec<i32> = positions.iter().map(|&at| wide[at] as i32 * 3).collect();
        assert_eq!(out.as_slice(), values);
        let block: Vec<Oid> = positions.iter().map(|&at| wide[at]).collect();
        let mut probe = Recorder::default();
        dsm.gather_into(0, OidBlock::Wide(&block), &mut out, &mut probe);
        assert_eq!(probe.0, expected(&(0..8).collect::<Vec<_>>()));
    }

    #[test]
    fn counting_source_counts_blocks_not_values() {
        let rel = DsmRelation::new(Column::from_vec(vec![0; 100]), vec![column()]);
        let source = CountingSource::new(&rel);
        let mut out = [0; 4];
        source.gather_into(0, OidBlock::Wide(&[3, 1, 4, 1]), &mut out, &mut NoProbe);
        source.gather_into(0, OidBlock::Wide(&[5, 9]), &mut out[..2], &mut NoProbe);
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
