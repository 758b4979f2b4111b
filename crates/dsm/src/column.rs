//! Fixed-width DSM columns (`[void, value]` tables).

use crate::Oid;

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

    /// Borrow the values as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
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
    /// This is the one DSM gather loop of the workspace — [`Column::gather`],
    /// `rdx-core`'s positional joins and the streaming pipeline's per-morsel
    /// fetch all run it — so an oid means the same thing on every path.  The
    /// value slice and the seqbase are hoisted out of the loop; each element
    /// is safe-indexed.
    ///
    /// # Panics
    /// Panics if `oids` and `out` differ in length or any oid is out of range
    /// — a join index referring to oids that do not exist in the projection
    /// column is a logic error, never data.
    pub fn gather_into(&self, oids: &[Oid], out: &mut [T]) {
        assert_eq!(oids.len(), out.len(), "oid/output block length mismatch");
        let (seqbase, data) = (self.seqbase, self.data.as_slice());
        for (slot, &oid) in out.iter_mut().zip(oids) {
            *slot = data[(oid - seqbase) as usize];
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
