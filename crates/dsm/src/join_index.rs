//! Join indices: `[oid, oid]` tables produced by the join phase.

use crate::Oid;

/// A join index \[Val87\]: the list of matching `(larger_oid, smaller_oid)`
/// pairs produced by joining the key columns of two relations.
///
/// All post-projection strategies of the paper start from this structure
/// ("1. Make a join-index … 2. Do column projections", §3).  The two sides are
/// stored as separate dense arrays rather than an array of pairs so that the
/// clustering operators can treat either side as a plain oid column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinIndex {
    larger: Vec<Oid>,
    smaller: Vec<Oid>,
}

impl JoinIndex {
    /// Creates an empty join index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty join index with room for `capacity` pairs.
    pub fn with_capacity(capacity: usize) -> Self {
        JoinIndex {
            larger: Vec::with_capacity(capacity),
            smaller: Vec::with_capacity(capacity),
        }
    }

    /// Builds a join index from parallel oid vectors.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn from_columns(larger: Vec<Oid>, smaller: Vec<Oid>) -> Self {
        assert_eq!(
            larger.len(),
            smaller.len(),
            "join index sides must have equal length"
        );
        JoinIndex { larger, smaller }
    }

    /// Builds a join index from `(larger, smaller)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Oid, Oid)>) -> Self {
        let mut ji = JoinIndex::new();
        for (l, s) in pairs {
            ji.push(l, s);
        }
        ji
    }

    /// Appends one matching pair.
    #[inline]
    pub fn push(&mut self, larger_oid: Oid, smaller_oid: Oid) {
        self.larger.push(larger_oid);
        self.smaller.push(smaller_oid);
    }

    /// Number of result tuples.
    pub fn len(&self) -> usize {
        self.larger.len()
    }

    /// `true` if the join produced no matches.
    pub fn is_empty(&self) -> bool {
        self.larger.is_empty()
    }

    /// The oids pointing into the *larger* relation.
    pub fn larger(&self) -> &[Oid] {
        &self.larger
    }

    /// The oids pointing into the *smaller* relation.
    pub fn smaller(&self) -> &[Oid] {
        &self.smaller
    }

    /// Iterate over `(larger_oid, smaller_oid)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        self.larger
            .iter()
            .copied()
            .zip(self.smaller.iter().copied())
    }

    /// Checks that every oid lies inside its relation's domain.
    ///
    /// Used by tests and by the strategy planner as a debug assertion; a join
    /// index violating this would make every positional join read garbage.
    pub fn is_valid_for(&self, larger_card: usize, smaller_card: usize) -> bool {
        self.larger.iter().all(|&o| (o as usize) < larger_card)
            && self.smaller.iter().all(|&o| (o as usize) < smaller_card)
    }

    /// Returns the multiset of pairs in a canonical (sorted) order, for
    /// order-insensitive equality in tests.
    pub fn canonical_pairs(&self) -> Vec<(Oid, Oid)> {
        let mut pairs: Vec<_> = self.iter().collect();
        pairs.sort_unstable();
        pairs
    }
}

impl FromIterator<(Oid, Oid)> for JoinIndex {
    fn from_iter<I: IntoIterator<Item = (Oid, Oid)>>(iter: I) -> Self {
        JoinIndex::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JoinIndex {
        JoinIndex::from_pairs([(5, 1), (2, 0), (5, 3), (0, 2)])
    }

    #[test]
    fn push_and_len() {
        let mut ji = JoinIndex::new();
        assert!(ji.is_empty());
        ji.push(3, 7);
        ji.push(1, 2);
        assert_eq!(ji.len(), 2);
        assert_eq!(ji.larger(), &[3, 1]);
        assert_eq!(ji.smaller(), &[7, 2]);
    }

    #[test]
    #[should_panic]
    fn from_columns_rejects_length_mismatch() {
        let _ = JoinIndex::from_columns(vec![1, 2], vec![3]);
    }

    #[test]
    fn validity_check() {
        let ji = sample();
        assert!(ji.is_valid_for(6, 4));
        assert!(!ji.is_valid_for(5, 4)); // larger oid 5 out of range
        assert!(!ji.is_valid_for(6, 3)); // smaller oid 3 out of range
    }

    #[test]
    fn iter_and_collect_roundtrip() {
        let ji = sample();
        let rebuilt: JoinIndex = ji.iter().collect();
        assert_eq!(rebuilt, ji);
    }
}
