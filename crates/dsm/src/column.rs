//! Fixed-width DSM columns (`[void, value]` tables).

use crate::Oid;
use rdx_cache::{NoProbe, Probe};

/// A `[void, value]` table: a dense array of fixed-width values whose head is
/// an implicit, densely ascending oid sequence starting at [`Column::seqbase`].
///
/// This is the MonetDB BAT with a void head.  All positional operators in
/// `rdx-core` (positional join, Radix-Decluster) address a `Column` purely by
/// position, which is what makes them "pointer-based joins … with negligible
/// CPU cost" (paper §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column<T> {
    seqbase: Oid,
    data: Vec<T>,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Column<T> {
    /// Creates an empty column with seqbase 0.
    pub fn new() -> Self {
        Column {
            seqbase: 0,
            data: Vec::new(),
        }
    }

    /// Creates an empty column with room for `capacity` values.
    pub fn with_capacity(capacity: usize) -> Self {
        Column {
            seqbase: 0,
            data: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing vector of values (seqbase 0).
    pub fn from_vec(data: Vec<T>) -> Self {
        Column { seqbase: 0, data }
    }

    /// Wraps an existing vector with an explicit void seqbase.
    pub fn with_seqbase(seqbase: Oid, data: Vec<T>) -> Self {
        Column { seqbase, data }
    }

    /// First oid of the void head.
    pub fn seqbase(&self) -> Oid {
        self.seqbase
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the value payload in bytes (`‖R‖` in the cost models).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Width of a single value in bytes (`R̄` in the cost models).
    pub fn value_width(&self) -> usize {
        std::mem::size_of::<T>()
    }

    /// Value stored at *position* `pos` (not oid-adjusted).
    pub fn get(&self, pos: usize) -> Option<&T> {
        self.data.get(pos)
    }

    /// Value addressed by oid, honouring the void seqbase.
    ///
    /// Returns `None` if the oid lies outside `[seqbase, seqbase + len)`.
    pub fn lookup(&self, oid: Oid) -> Option<&T> {
        let pos = oid.checked_sub(self.seqbase)? as usize;
        self.data.get(pos)
    }

    /// Borrow the values as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Appends a value, returning the oid it received.
    pub fn push(&mut self, value: T) -> Oid {
        let oid = self.seqbase + self.data.len() as Oid;
        self.data.push(value);
        oid
    }

    /// Iterate over `(oid, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &T)> {
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (self.seqbase + i as Oid, v))
    }

    /// Consumes the column, returning the raw value vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Copy> Column<T> {
    /// Positional gather into a caller-provided block:
    /// `out[i] = self[oids[i]]`, honouring the void seqbase.
    ///
    /// It runs the one DSM gather loop of the workspace,
    /// [`Column::gather_into_probed`] — [`Column::gather`], `rdx-core`'s
    /// positional joins and the streaming pipeline's per-morsel fetch over
    /// wide and packed oids all run it — so an oid means the same thing on
    /// every path.  The value slice and the seqbase are hoisted out of the
    /// loop; each element is safe-indexed.
    ///
    /// # Panics
    /// Panics if `oids` and `out` differ in length or any oid is out of range
    /// — a join index referring to oids that do not exist in the projection
    /// column is a logic error, never data.
    pub fn gather_into(&self, oids: &[Oid], out: &mut [T]) {
        self.gather_into_probed(0, oids, out, &mut NoProbe);
    }

    /// [`Column::gather_into`] over the oids `base + index[i]`, into cells
    /// of any [`FromValue`] type — the values themselves, or their wire
    /// bytes — reporting its references to `probe`.  `index` holds either
    /// plain [`Oid`]s (under base 0) or the 2-byte offsets of one run of a
    /// clustered oid array stored as low bits under its cluster's base.
    /// Per element, `probe` sees the index entry's read (array id 0,
    /// `index`), the value's read (id 1, this column, by position) and the
    /// output write (id 2, `out`).  Under a [`rdx_cache::SimProbe`] this is
    /// the Fig. 9c positional join's miss count.
    ///
    /// # Panics
    /// As [`Column::gather_into`].
    #[inline]
    pub fn gather_into_probed<I: GatherIndex, C: FromValue<T>, P: Probe>(
        &self,
        base: Oid,
        index: &[I],
        out: &mut [C],
        probe: &mut P,
    ) {
        assert_eq!(index.len(), out.len(), "oid/output block length mismatch");
        // `base` may lie below the seqbase while every oid it offsets does
        // not, so positions are taken modulo 2^32: an oid below the seqbase
        // wraps past the column's end and fails the bounds check.
        let (origin, data) = (base.wrapping_sub(self.seqbase), self.data.as_slice());
        for (i, (slot, &entry)) in out.iter_mut().zip(index).enumerate() {
            let pos = origin.wrapping_add(entry.widen()) as usize;
            probe.read(0, i);
            probe.read(1, pos);
            probe.write(2, i);
            *slot = C::from_value(data[pos]);
        }
    }

    /// Copies `self[pos]`, panicking on out-of-range positions.
    #[inline]
    pub fn value(&self, pos: usize) -> T {
        self.data[pos]
    }
}

impl<T: Copy + Default> Column<T> {
    /// Positional gather: `out[i] = self[oids[i]]` for every oid in `oids`.
    ///
    /// This is the DSM *Positional-Join* of paper §3 in its simplest (unsorted)
    /// form; the cache-conscious variants in `rdx-core::positional` produce the
    /// same values but with different access patterns.
    ///
    /// # Panics
    /// Panics if any oid is out of range (see [`Column::gather_into`]).
    pub fn gather(&self, oids: &[Oid]) -> Column<T> {
        let mut out = vec![T::default(); oids.len()];
        self.gather_into(oids, &mut out);
        Column::from_vec(out)
    }
}

impl<T> std::ops::Index<usize> for Column<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.data[index]
    }
}

impl<T> FromIterator<T> for Column<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Column::from_vec(iter.into_iter().collect())
    }
}

/// An entry of the index a gather reads ([`Column::gather_into_probed`]):
/// a plain [`Oid`], or a `u16` offset under its run's base.
pub trait GatherIndex: Copy {
    /// The entry as an offset from the gather's base.
    fn widen(self) -> Oid;
}

impl GatherIndex for Oid {
    #[inline]
    fn widen(self) -> Oid {
        self
    }
}

impl GatherIndex for u16 {
    #[inline]
    fn widen(self) -> Oid {
        Oid::from(self)
    }
}

/// What a kernel stores in an output cell for a value of type `T`: the value
/// itself (every `T`), or an `i32`'s little-endian bytes — a `Done` frame's
/// column body, which starts at no 4-byte boundary.  The gathers and the
/// decluster write through it, so a result value is written once, straight
/// into whichever memory its consumer lends.
pub trait FromValue<T>: Copy {
    /// The cell holding `value`.
    fn from_value(value: T) -> Self;
}

impl<T: Copy> FromValue<T> for T {
    #[inline]
    fn from_value(value: T) -> T {
        value
    }
}

impl FromValue<i32> for [u8; 4] {
    #[inline]
    fn from_value(value: i32) -> [u8; 4] {
        value.to_le_bytes()
    }
}

/// MonetDB's `mark()` operator: attach a fresh densely ascending void head
/// (starting at `seqbase`) to a tail of values.
///
/// In the paper this is how the `JOIN_LARGER` / `JOIN_SMALLER` /
/// `CLUST_RESULT` / `CLUST_SMALLER` views are created from the (partially
/// clustered) join index (§3.1, §3.2, Figs. 3–4): the clustered oid column
/// becomes the tail, and the new void head numbers the join-result tuples.
pub fn mark<T>(tail: Vec<T>, seqbase: Oid) -> Column<T> {
    Column::with_seqbase(seqbase, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_dense_oids() {
        let mut col = Column::new();
        assert_eq!(col.push(10), 0);
        assert_eq!(col.push(20), 1);
        assert_eq!(col.push(30), 2);
        assert_eq!(col.len(), 3);
        assert_eq!(col.as_slice(), &[10, 20, 30]);
    }

    #[test]
    fn lookup_respects_seqbase() {
        let col = Column::with_seqbase(100, vec![7_i32, 8, 9]);
        assert_eq!(col.lookup(100), Some(&7));
        assert_eq!(col.lookup(102), Some(&9));
        assert_eq!(col.lookup(99), None);
        assert_eq!(col.lookup(103), None);
    }

    #[test]
    fn gather_fetches_by_oid() {
        let col = Column::from_vec(vec![0_i32, 10, 20, 30, 40]);
        let out = col.gather(&[4, 0, 2, 2]);
        assert_eq!(out.as_slice(), &[40, 0, 20, 20]);
    }

    #[test]
    fn gather_respects_seqbase() {
        let col = Column::with_seqbase(10, vec![5_i32, 6, 7]);
        let out = col.gather(&[12, 10]);
        assert_eq!(out.as_slice(), &[7, 5]);
    }

    #[test]
    fn gather_into_fills_a_block_and_respects_seqbase() {
        let col = Column::with_seqbase(10, vec![5_i32, 6, 7]);
        let mut out = [0; 3];
        col.gather_into(&[12, 10, 11], &mut out);
        assert_eq!(out, [7, 5, 6]);
        assert_eq!(col.gather(&[12, 10, 11]).as_slice(), &out);
    }

    /// Every reference a probed gather reports, in order: `(write, array,
    /// index)`.
    #[derive(Default)]
    struct Recorder(Vec<(bool, usize, usize)>);

    impl Probe for Recorder {
        const ACTIVE: bool = true;

        fn read(&mut self, array: usize, index: usize) {
            self.0.push((false, array, index));
        }

        fn write(&mut self, array: usize, index: usize) {
            self.0.push((true, array, index));
        }
    }

    #[test]
    fn gather_offsets_into_matches_gather_on_either_side_of_the_seqbase() {
        fn probed<I: GatherIndex>(
            col: &Column<i32>,
            base: Oid,
            index: &[I],
        ) -> ([i32; 3], Vec<(bool, usize, usize)>) {
            let (mut out, mut probe) = ([0; 3], Recorder::default());
            col.gather_into_probed(base, index, &mut out, &mut probe);
            (out, probe.0)
        }
        let col = Column::with_seqbase(10, (0..20).map(|v| v * 3).collect::<Vec<i32>>());
        for (base, offsets) in [(12, vec![0u16, 5, 1]), (8, vec![2, 9, 21])] {
            let oids: Vec<Oid> = offsets.iter().map(|&o| base + Oid::from(o)).collect();
            let wide: Vec<Oid> = offsets.iter().map(|&o| Oid::from(o)).collect();
            // Per element: the index entry, the value by its position in
            // the column, the output.
            let references: Vec<_> = oids
                .iter()
                .enumerate()
                .flat_map(|(i, &oid)| [(false, 0, i), (false, 1, oid as usize - 10), (true, 2, i)])
                .collect();
            let expected = (col.gather(&oids).into_vec(), references);
            // One loop over 2-byte offsets under the base, 4-byte offsets
            // under it, and plain oids.
            for (label, (out, seen)) in [
                ("u16 offsets", probed(&col, base, &offsets)),
                ("u32 offsets", probed(&col, base, &wide)),
                ("u32 oids", probed(&col, 0, &oids)),
            ] {
                assert_eq!((out.to_vec(), seen), expected, "base {base}, {label}");
            }
        }
    }

    #[test]
    fn probed_gather_matches_and_shows_the_fig9c_contrast() {
        use rdx_cache::{AddressSpace, CacheParams, EventCounts, MemorySystem, Remap, SimProbe};
        // Oids as runs of `(base, offsets)`, each gathered by the one loop
        // with its references shifted to where the run sits in the block.
        fn gather<I: GatherIndex>(
            runs: &[(Oid, Vec<I>)],
            column: &Column<i32>,
        ) -> (Vec<i32>, EventCounts) {
            let len = runs.iter().map(|(_, run)| run.len()).sum::<usize>();
            let mut space = AddressSpace::new();
            let regions = [
                space.alloc(len.max(1), 4),
                space.alloc(column.len().max(1), 4),
                space.alloc(len.max(1), 4),
            ];
            let mut mem = MemorySystem::new(&CacheParams::tiny_for_tests()); // 8 KB L2
            let mut probe = SimProbe::new(&mut mem, &regions);
            let mut out = vec![0; len];
            let mut done = 0;
            for (base, run) in runs {
                let mut shifted = Remap::new(&mut probe, [(0, done), (1, 0), (2, done)]);
                let block = &mut out[done..done + run.len()];
                column.gather_into_probed(*base, run, block, &mut shifted);
                done += run.len();
            }
            (out, probe.counts())
        }
        let n: usize = 16_384; // 64 KB column, 8× the cache
        let column: Column<i32> = (0..n as i32).collect();

        // Unsorted oids: a bit-reversal permutation (maximally non-local).
        let bits = 14;
        let unsorted: Vec<Oid> = (0..n as Oid)
            .map(|i| (i.reverse_bits() >> (32 - bits)) as Oid)
            .collect();
        // Clustered oids: the same multiset, partially clustered on the 6
        // *uppermost* significant bits (ignore the lowermost 8) by a stable
        // sort — the one-pass §3.1 partial Radix-Cluster — so each cluster
        // covers a contiguous 1 KB slice of the column.
        let mut clustered = unsorted.clone();
        clustered.sort_by_key(|&oid| oid >> 8);

        let (out_u, misses_u) = gather(&[(0, unsorted.clone())], &column);
        let (out_c, misses_c) = gather(&[(0, clustered.clone())], &column);
        assert_eq!(out_u, column.gather(&unsorted).into_vec());

        // The clustered oids as a packed array stores them — 2-byte offsets
        // under each cluster's base — fetch the same values at the same
        // counts, run by run.
        let packed: Vec<(Oid, Vec<u16>)> = clustered
            .chunk_by(|a, b| a >> 8 == b >> 8)
            .map(|run| {
                (
                    run[0] >> 8 << 8,
                    run.iter().map(|&oid| oid as u16 & 0xFF).collect(),
                )
            })
            .collect();
        assert_eq!(gather(&packed, &column), (out_c.clone(), misses_c));

        // Same values fetched (as multisets).
        let mut a = out_u;
        let mut b = out_c;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Clustered access misses far less in L2.
        assert!(
            misses_u.l2_misses > 2 * misses_c.l2_misses,
            "unsorted {} vs clustered {}",
            misses_u.l2_misses,
            misses_c.l2_misses
        );
        // An empty block charges nothing.
        assert_eq!(gather::<Oid>(&[(0, vec![])], &column).1.accesses, 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn gather_into_rejects_mismatched_blocks() {
        Column::from_vec(vec![1_i32, 2]).gather_into(&[0, 1], &mut [0]);
    }

    #[test]
    #[should_panic]
    fn gather_panics_on_out_of_range_oid() {
        let col = Column::from_vec(vec![1_i32, 2]);
        let _ = col.gather(&[5]);
    }

    #[test]
    fn mark_attaches_fresh_void_head() {
        let view = mark(vec![3_u32, 1, 2], 0);
        assert_eq!(view.seqbase(), 0);
        assert_eq!(
            view.iter().collect::<Vec<_>>(),
            vec![(0, &3), (1, &1), (2, &2)]
        );
    }

    #[test]
    fn byte_size_and_width() {
        let col = Column::from_vec(vec![1_i32; 100]);
        assert_eq!(col.value_width(), 4);
        assert_eq!(col.byte_size(), 400);
    }

    #[test]
    fn iter_yields_oid_value_pairs() {
        let col = Column::with_seqbase(5, vec!['a', 'b']);
        let pairs: Vec<_> = col.iter().collect();
        assert_eq!(pairs, vec![(5, &'a'), (6, &'b')]);
    }

    #[test]
    fn from_iterator_collects() {
        let col: Column<u64> = (0..4).collect();
        assert_eq!(col.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn index_operator_addresses_by_position() {
        let col = Column::with_seqbase(50, vec![9_i32, 8]);
        assert_eq!(col[0], 9);
        assert_eq!(col[1], 8);
    }
}
