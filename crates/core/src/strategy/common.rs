//! The one-letter projection codes of §4.1: how a DSM post-projection
//! handles each side's projection columns.

/// Projection code for the *first* (larger) side of a post-projection,
/// the one-letter codes of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProjectionCode {
    /// `u` — process the join index as-is (random access into the column).
    Unsorted,
    /// `s` — Radix-Sort the join index on this side's oids first.
    Sorted,
    /// `c` — partial Radix-Cluster (§3.1): clusters sized to the cache.
    PartialCluster,
}

impl ProjectionCode {
    /// The one-letter code used in the paper's figures.
    pub fn letter(&self) -> char {
        match self {
            ProjectionCode::Unsorted => 'u',
            ProjectionCode::Sorted => 's',
            ProjectionCode::PartialCluster => 'c',
        }
    }
}

/// Projection code for the *second* (smaller) side: unsorted positional joins
/// or the full Radix-Decluster pipeline of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecondSideCode {
    /// `u` — unsorted positional joins straight from the (reordered) index.
    Unsorted,
    /// `d` — partial Radix-Cluster + clustered positional join +
    /// Radix-Decluster per projected column.
    Decluster,
}

impl SecondSideCode {
    /// The one-letter code used in the paper's figures.
    pub fn letter(&self) -> char {
        match self {
            SecondSideCode::Unsorted => 'u',
            SecondSideCode::Decluster => 'd',
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_codes_have_paper_letters() {
        assert_eq!(ProjectionCode::Unsorted.letter(), 'u');
        assert_eq!(ProjectionCode::Sorted.letter(), 's');
        assert_eq!(ProjectionCode::PartialCluster.letter(), 'c');
        assert_eq!(SecondSideCode::Unsorted.letter(), 'u');
        assert_eq!(SecondSideCode::Decluster.letter(), 'd');
    }
}
