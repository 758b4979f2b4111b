//! Selections over base tables, for the sparse-projection experiments.

use crate::Oid;

/// The result of a selection on a base table: the list of qualifying oids, in
/// ascending order, pointing into a base table of `base_cardinality` tuples.
///
/// When one join input is such a selection, the projection columns live in the
/// (larger) base table and the positional joins become *sparse*: only a
/// fraction `selectivity()` of each cache line holding base-table values is
/// actually used (paper §4.1 "Sparse Projections", Fig. 11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    oids: Vec<Oid>,
    base_cardinality: usize,
}

impl Selection {
    /// Creates a selection from qualifying oids (must be ascending and within
    /// `[0, base_cardinality)`).
    ///
    /// # Panics
    /// Panics if the oids are not strictly ascending or out of range.
    pub fn new(oids: Vec<Oid>, base_cardinality: usize) -> Self {
        for w in oids.windows(2) {
            assert!(w[0] < w[1], "selection oids must be strictly ascending");
        }
        if let Some(&last) = oids.last() {
            assert!(
                (last as usize) < base_cardinality,
                "selection oid {last} outside base table of {base_cardinality} tuples"
            );
        }
        Selection {
            oids,
            base_cardinality,
        }
    }

    /// A selection that keeps every tuple of the base table (selectivity 1).
    pub fn all(base_cardinality: usize) -> Self {
        Selection {
            oids: (0..base_cardinality as Oid).collect(),
            base_cardinality,
        }
    }

    /// Number of selected tuples.
    pub fn len(&self) -> usize {
        self.oids.len()
    }

    /// `true` if nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }

    /// Cardinality of the underlying base table.
    pub fn base_cardinality(&self) -> usize {
        self.base_cardinality
    }

    /// Fraction of the base table that qualified, `|selection| / |base|`.
    pub fn selectivity(&self) -> f64 {
        if self.base_cardinality == 0 {
            0.0
        } else {
            self.len() as f64 / self.base_cardinality as f64
        }
    }

    /// The qualifying oids (ascending).
    pub fn oids(&self) -> &[Oid] {
        &self.oids
    }

    /// Translates *positions within the selection* to *base-table oids*.
    ///
    /// A join computed against the selection produces oids in `[0, len())`;
    /// before projecting from the base table those must be mapped back to base
    /// oids, which is what makes the subsequent positional join sparse.
    pub fn rebase(&self, selection_oids: &[Oid]) -> Vec<Oid> {
        selection_oids
            .iter()
            .map(|&o| self.oids[o as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_selects_everything() {
        let s = Selection::all(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.selectivity(), 1.0);
        assert_eq!(s.oids(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn selectivity_fraction() {
        let s = Selection::new(vec![3, 17, 42], 100);
        assert_eq!(s.len(), 3);
        assert!((s.selectivity() - 0.03).abs() < 1e-12);
        assert_eq!(s.base_cardinality(), 100);
    }

    #[test]
    #[should_panic]
    fn rejects_non_ascending() {
        Selection::new(vec![5, 5], 10);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        Selection::new(vec![5, 12], 10);
    }

    #[test]
    fn rebase_maps_to_base_oids() {
        let s = Selection::new(vec![10, 20, 30, 40], 50);
        assert_eq!(s.rebase(&[0, 3, 1]), vec![10, 40, 20]);
    }

    #[test]
    fn empty_selection() {
        let s = Selection::new(vec![], 10);
        assert!(s.is_empty());
        assert_eq!(s.selectivity(), 0.0);
    }
}
