//! Vertically fragmented relations: a key column plus ω attribute columns.

use crate::{Column, Oid};

/// A DSM relation: one join-key column plus `ω` fixed-width attribute
/// columns, all of the same cardinality and all addressed by the same
/// implicit oid sequence `0..N`.
///
/// This is what the paper's example query joins:
/// `SELECT larger.a1,…, smaller.b1,… FROM larger, smaller WHERE larger.key = smaller.key`.
/// Only the key column participates in the join phase; attribute columns are
/// touched exclusively by the projection phase ("the unused columns stay
/// untouched", §4.1).
#[derive(Debug, Clone, Default)]
pub struct DsmRelation {
    key: Column<u64>,
    attrs: Vec<Column<i32>>,
}

impl DsmRelation {
    /// Creates a relation from its key column alone (ω = 0).
    pub fn from_key(key: Column<u64>) -> Self {
        DsmRelation {
            key,
            attrs: Vec::new(),
        }
    }

    /// Creates a relation from a key column and attribute columns.
    ///
    /// # Panics
    /// Panics if any attribute column's length differs from the key column's.
    pub fn new(key: Column<u64>, attrs: Vec<Column<i32>>) -> Self {
        for (i, a) in attrs.iter().enumerate() {
            assert_eq!(
                a.len(),
                key.len(),
                "attribute column {i} has {} tuples, key column has {}",
                a.len(),
                key.len()
            );
        }
        DsmRelation { key, attrs }
    }

    /// Adds a fixed-width attribute column.
    ///
    /// # Panics
    /// Panics on cardinality mismatch.
    pub fn push_attr(&mut self, col: Column<i32>) {
        assert_eq!(col.len(), self.key.len(), "attribute cardinality mismatch");
        self.attrs.push(col);
    }

    /// Number of tuples `N`.
    pub fn cardinality(&self) -> usize {
        self.key.len()
    }

    /// Number of fixed-width attribute columns `ω` (excluding the key).
    pub fn width(&self) -> usize {
        self.attrs.len()
    }

    /// The join-key column.
    pub fn key(&self) -> &Column<u64> {
        &self.key
    }

    /// The fixed-width attribute columns.
    pub fn attrs(&self) -> &[Column<i32>] {
        &self.attrs
    }

    /// Attribute column `i`.
    pub fn attr(&self, i: usize) -> &Column<i32> {
        &self.attrs[i]
    }

    /// Key value of tuple `oid`.
    #[inline]
    pub fn key_at(&self, oid: Oid) -> u64 {
        self.key[oid as usize]
    }
}

/// The materialized result of a projected join: one column per projected
/// attribute, in query order (larger-side columns first, then smaller-side),
/// each of length `|join result|`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultRelation {
    columns: Vec<Column<i32>>,
}

impl ResultRelation {
    /// Creates an empty result.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a materialized fixed-width result column.
    pub fn push_column(&mut self, col: Column<i32>) {
        self.columns.push(col);
    }

    /// The fixed-width result columns.
    pub fn columns(&self) -> &[Column<i32>] {
        &self.columns
    }

    /// Number of result tuples (0 if no column has been produced yet).
    pub fn cardinality(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Total number of result columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> DsmRelation {
        DsmRelation::new(
            Column::from_vec(vec![10, 20, 30]),
            vec![
                Column::from_vec(vec![1, 2, 3]),
                Column::from_vec(vec![-1, -2, -3]),
            ],
        )
    }

    #[test]
    fn cardinality_and_width() {
        let r = rel();
        assert_eq!(r.cardinality(), 3);
        assert_eq!(r.width(), 2);
        assert_eq!(r.key_at(1), 20);
        assert_eq!(r.attr(1)[2], -3);
    }

    #[test]
    #[should_panic]
    fn mismatched_attribute_rejected() {
        DsmRelation::new(
            Column::from_vec(vec![1, 2]),
            vec![Column::from_vec(vec![1])],
        );
    }

    #[test]
    fn push_attr_extends_width() {
        let mut r = DsmRelation::from_key(Column::from_vec(vec![5, 6]));
        assert_eq!(r.width(), 0);
        r.push_attr(Column::from_vec(vec![7, 8]));
        assert_eq!(r.width(), 1);
    }

    #[test]
    fn result_relation_cardinality() {
        let mut res = ResultRelation::new();
        assert_eq!(res.cardinality(), 0);
        res.push_column(Column::from_vec(vec![1, 2, 3, 4]));
        res.push_column(Column::from_vec(vec![5, 6, 7, 8]));
        assert_eq!(res.cardinality(), 4);
        assert_eq!(res.num_columns(), 2);
    }
}
