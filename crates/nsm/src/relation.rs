//! Row-major (NSM) relations and the record projection routine.

use rdx_dsm::{Column, DsmRelation, Oid};

/// A row-major relation: `N` tuples of `ω` 4-byte integer attributes stored
/// contiguously per tuple, the classic NSM ("slotted records") layout reduced
/// to fixed-width records exactly as the paper's NSM simulation does.
///
/// Attribute `0` is the join key.  The record projection routine
/// [`NsmRelation::project_record`] "iterates over such a record and copies
/// selected values out of it", which is the per-tuple work all NSM strategies
/// pay and the DSM column-at-a-time operators avoid (§4.2, "Pre-Projection
/// Alternatives").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsmRelation {
    width: usize,
    data: Vec<i32>,
}

impl NsmRelation {
    /// Creates an empty relation of `width` attributes per tuple.
    ///
    /// # Panics
    /// Panics if `width == 0`; a relation needs at least the key attribute.
    pub fn new(width: usize) -> Self {
        assert!(
            width >= 1,
            "an NSM relation needs at least the key attribute"
        );
        NsmRelation {
            width,
            data: Vec::new(),
        }
    }

    /// Creates an empty relation with room for `tuples` tuples.
    pub fn with_capacity(width: usize, tuples: usize) -> Self {
        let mut r = Self::new(width);
        r.data.reserve(tuples * width);
        r
    }

    /// Number of tuples `N`.
    pub fn cardinality(&self) -> usize {
        self.data.len() / self.width
    }

    /// Number of attributes per tuple `ω` (including the key).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Width of one record in bytes (`T`, the tuple width of the scalability
    /// bound `O(C²/T²)` in §4.2).
    pub fn tuple_bytes(&self) -> usize {
        self.width * std::mem::size_of::<i32>()
    }

    /// Total size of the relation in bytes.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<i32>()
    }

    /// Appends one tuple.
    ///
    /// # Panics
    /// Panics if the slice length differs from the relation width.
    pub fn push_tuple(&mut self, tuple: &[i32]) -> Oid {
        assert_eq!(tuple.len(), self.width, "tuple width mismatch");
        let oid = self.cardinality() as Oid;
        self.data.extend_from_slice(tuple);
        oid
    }

    /// Borrow tuple `row` as a slice of its attributes.
    #[inline]
    pub fn tuple(&self, row: usize) -> &[i32] {
        let start = row * self.width;
        &self.data[start..start + self.width]
    }

    /// The join key of tuple `row` (attribute 0), widened for hashing.
    #[inline]
    pub fn key(&self, row: usize) -> u64 {
        self.data[row * self.width] as u32 as u64
    }

    /// Attribute `attr` of tuple `row`.
    #[inline]
    pub fn value(&self, row: usize, attr: usize) -> i32 {
        self.data[row * self.width + attr]
    }

    /// Block-wise positional fetch of one attribute:
    /// `out[i] = value(oids[i], attr)`, with the record stride and the
    /// attribute offset hoisted out of the loop — the NSM counterpart of
    /// [`Column::gather_into`].  Every loaded cache line still drags the
    /// whole record in, which is the §4.2 cost this layout cannot avoid.
    ///
    /// # Panics
    /// Panics if `oids` and `out` differ in length, `attr` is not an
    /// attribute of the relation, or an oid is out of range.
    pub fn gather_attr_into(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        assert_eq!(oids.len(), out.len(), "oid/output block length mismatch");
        assert!(attr < self.width, "attribute {attr} out of range");
        let (width, data) = (self.width, self.data.as_slice());
        for (slot, &oid) in out.iter_mut().zip(oids) {
            *slot = data[oid as usize * width + attr];
        }
    }

    /// The NSM record projection routine: copies the attributes listed in
    /// `projection` out of record `row` and appends them to `out`.
    ///
    /// This is deliberately written with a run-time attribute list (a "degree
    /// of freedom" in the paper's words) — the per-tuple interpretation
    /// overhead it causes relative to DSM's hard-coded column loops is part of
    /// what Fig. 10a measures.
    #[inline]
    pub fn project_record(&self, row: usize, projection: &[usize], out: &mut Vec<i32>) {
        let tuple = self.tuple(row);
        for &attr in projection {
            out.push(tuple[attr]);
        }
    }

    /// Iterate over all tuples.
    pub fn iter(&self) -> impl Iterator<Item = &[i32]> {
        self.data.chunks_exact(self.width)
    }

    /// Vertically fragments the relation into DSM columns ("projection
    /// indices" in the §5 terminology): the key attribute becomes the DSM key
    /// column, every other attribute becomes one value column.
    pub fn to_dsm(&self) -> DsmRelation {
        let n = self.cardinality();
        let mut key = Vec::with_capacity(n);
        for row in 0..n {
            key.push(self.key(row));
        }
        let mut rel = DsmRelation::from_key(Column::from_vec(key));
        for attr in 1..self.width {
            let mut col = Vec::with_capacity(n);
            for row in 0..n {
                col.push(self.value(row, attr));
            }
            rel.push_attr(Column::from_vec(col));
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NsmRelation {
        let mut r = NsmRelation::new(4);
        r.push_tuple(&[10, 1, 2, 3]);
        r.push_tuple(&[20, 4, 5, 6]);
        r.push_tuple(&[30, 7, 8, 9]);
        r
    }

    #[test]
    fn geometry() {
        let r = sample();
        assert_eq!(r.cardinality(), 3);
        assert_eq!(r.width(), 4);
        assert_eq!(r.tuple_bytes(), 16);
        assert_eq!(r.byte_size(), 48);
    }

    #[test]
    fn tuple_and_value_access() {
        let r = sample();
        assert_eq!(r.tuple(1), &[20, 4, 5, 6]);
        assert_eq!(r.key(2), 30);
        assert_eq!(r.value(0, 3), 3);
    }

    #[test]
    fn gather_attr_into_matches_value() {
        let r = sample();
        let oids = [2, 0, 2, 1];
        for attr in 0..r.width() {
            let mut out = [0; 4];
            r.gather_attr_into(attr, &oids, &mut out);
            let expected = oids.map(|oid| r.value(oid as usize, attr));
            assert_eq!(out, expected, "attr {attr}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_attr_into_rejects_a_foreign_attribute() {
        sample().gather_attr_into(4, &[0], &mut [0]);
    }

    #[test]
    #[should_panic]
    fn push_rejects_wrong_width() {
        let mut r = NsmRelation::new(3);
        r.push_tuple(&[1, 2]);
    }

    #[test]
    fn record_projection_copies_selected_attributes() {
        let r = sample();
        let mut out = Vec::new();
        r.project_record(1, &[3, 1], &mut out);
        r.project_record(2, &[3, 1], &mut out);
        assert_eq!(out, vec![6, 4, 9, 7]);
    }

    #[test]
    fn to_dsm_fragments_vertically() {
        let r = sample();
        let dsm = r.to_dsm();
        assert_eq!(dsm.cardinality(), 3);
        assert_eq!(dsm.width(), 3);
        assert_eq!(dsm.key().as_slice(), &[10, 20, 30]);
        assert_eq!(dsm.attr(0).as_slice(), &[1, 4, 7]);
        assert_eq!(dsm.attr(2).as_slice(), &[3, 6, 9]);
    }

    #[test]
    fn negative_key_widens_without_sign_extension_surprises() {
        let mut r = NsmRelation::new(1);
        r.push_tuple(&[-1]);
        // -1 as u32 as u64 keeps the bit pattern 0xFFFF_FFFF; what matters is
        // that equal i32 keys map to equal u64 keys, which this guarantees.
        assert_eq!(r.key(0), u32::MAX as u64);
    }

    #[test]
    fn iter_visits_all_tuples() {
        let r = sample();
        assert_eq!(r.iter().count(), 3);
        assert_eq!(r.iter().next().unwrap(), &[10, 1, 2, 3]);
    }
}
