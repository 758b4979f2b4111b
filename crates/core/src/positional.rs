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
//! DSM variants end in the single loop [`Column::gather_into`]; the NSM
//! layout has its one counterpart, `NsmRelation::gather_attr_into`.

use rdx_dsm::{Column, DsmRelation, Oid, Selection};
use rdx_nsm::NsmRelation;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A relation the projection phase can fetch attribute values from, one block
/// of one column at a time: `out[i] = attribute attr of tuple oids[i]`.
///
/// `attr` counts *projectable* attributes — for NSM, attribute 0 is the first
/// one after the join key.  Callers hand over cache-sized blocks (a morsel, a
/// chunk, a cluster); there is deliberately no per-value entry point.
pub trait AttrSource {
    /// Fills `out` (same length as `oids`) with attribute `attr` of the
    /// tuples `oids` name, in that order.
    ///
    /// # Panics
    /// Panics if the block lengths differ, or `attr` / an oid does not exist
    /// in the relation.
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]);
}

impl AttrSource for DsmRelation {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        self.attr(attr).gather_into(oids, out);
    }
}

impl AttrSource for NsmRelation {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        // Attribute 0 of the record is the join key.
        self.gather_attr_into(attr + 1, oids, out);
    }
}

impl<S: AttrSource + ?Sized> AttrSource for &S {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        (**self).gather_into(attr, oids, out);
    }
}

impl<S: AttrSource + ?Sized> AttrSource for Box<S> {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        (**self).gather_into(attr, oids, out);
    }
}

impl<S: AttrSource + ?Sized> AttrSource for Arc<S> {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        (**self).gather_into(attr, oids, out);
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
}

impl<S: AttrSource> AttrSource for CountingSource<S> {
    fn gather_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        // Statistics only: nothing is published through these counters.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.values.fetch_add(oids.len(), Ordering::Relaxed);
        self.largest_block.fetch_max(oids.len(), Ordering::Relaxed);
        self.inner.gather_into(attr, oids, out);
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

/// Positional-Join appending into an existing buffer (used by operators that
/// project several columns back-to-back without reallocating).
pub fn positional_join_into<T: Copy + Default>(oids: &[Oid], column: &Column<T>, out: &mut Vec<T>) {
    let filled = out.len();
    out.resize(filled + oids.len(), T::default());
    column.gather_into(oids, &mut out[filled..]);
}

/// Clustered Positional-Join: processes the oid list cluster by cluster.
///
/// Functionally identical to [`positional_join`]; it exists so that the
/// benchmark harness can measure the per-cluster loop the paper describes
/// (Fig. 9c) rather than one flat gather, and so the traced variants can
/// attribute accesses to clusters.
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
    fn join_into_appends() {
        let col = column();
        let mut out = vec![-1];
        positional_join_into(&[1, 2], &col, &mut out);
        assert_eq!(out, vec![-1, 10, 20]);
    }

    #[test]
    fn dsm_and_nsm_sources_serve_the_same_blocks() {
        let mut nsm = NsmRelation::new(3);
        for row in 0..50 {
            nsm.push_tuple(&[row, row * 10, -row]);
        }
        let dsm = nsm.to_dsm();
        let oids = [49, 0, 7, 7, 31];
        for attr in 0..2 {
            let (mut from_dsm, mut from_nsm) = ([0; 5], [0; 5]);
            dsm.gather_into(attr, &oids, &mut from_dsm);
            // Through the forwarding impls, as the executors hold them.
            let boxed: Box<dyn AttrSource> = Box::new(&nsm);
            boxed.gather_into(attr, &oids, &mut from_nsm);
            assert_eq!(from_dsm, from_nsm, "attr {attr}");
            assert_eq!(from_dsm[0], dsm.attr(attr).value(49));
        }
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
