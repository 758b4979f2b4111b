//! DSM post-projection (paper §3, §4.1) — the strategy the paper advocates.
//!
//! 1. Join only the key columns with Partitioned Hash-Join → join index.
//! 2. First (larger) side: reorder the join index with one of the `u`/`s`/`c`
//!    codes, then project each column with a Positional-Join.
//! 3. Second (smaller) side: `u` (unsorted Positional-Joins) or `d`
//!    (partial Radix-Cluster + clustered Positional-Join + Radix-Decluster per
//!    column, Fig. 4).
//!
//! This module holds the plan: which code runs on each side.  The plan runs
//! through the streaming pipeline in `rdx-exec`; its whole-result entry is
//! `ProjectionPipeline::materialize`.

use crate::strategy::common::{ProjectionCode, SecondSideCode};
use rdx_cache::CacheParams;
use rdx_dsm::{DsmRelation, VALUE_WIDTH};

/// A planned DSM post-projection: which one-letter code to use on each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DsmPostProjection {
    /// Code for the first (larger) projection side: `u`, `s` or `c`.
    pub first_side: ProjectionCode,
    /// Code for the second (smaller) projection side: `u` or `d`.
    pub second_side: SecondSideCode,
}

impl DsmPostProjection {
    /// The paper's planning rule (§4.1 / Fig. 10c legend): reordering only
    /// pays off when the projection columns of a side exceed the CPU cache;
    /// below that, unsorted processing wins because the columns stay cached.
    pub fn plan(larger: &DsmRelation, smaller: &DsmRelation, params: &CacheParams) -> Self {
        let cache = params.cache_capacity();
        let first_side = if larger.cardinality() * VALUE_WIDTH <= cache {
            ProjectionCode::Unsorted
        } else {
            ProjectionCode::PartialCluster
        };
        let second_side = if smaller.cardinality() * VALUE_WIDTH <= cache {
            SecondSideCode::Unsorted
        } else {
            SecondSideCode::Decluster
        };
        DsmPostProjection {
            first_side,
            second_side,
        }
    }

    /// An explicit code combination (used by the Fig. 8 strategy sweep).
    pub fn with_codes(first_side: ProjectionCode, second_side: SecondSideCode) -> Self {
        DsmPostProjection {
            first_side,
            second_side,
        }
    }

    /// The `left/right` label of the Fig. 10c legend, e.g. `"c/d"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.first_side.letter(), self.second_side.letter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_workload::JoinWorkloadBuilder;

    #[test]
    fn planner_picks_unsorted_for_cache_resident_columns() {
        let w = JoinWorkloadBuilder::equal(500, 1).build();
        let params = CacheParams::paper_pentium4();
        let plan = DsmPostProjection::plan(&w.larger, &w.smaller, &params);
        assert_eq!(plan.first_side, ProjectionCode::Unsorted);
        assert_eq!(plan.second_side, SecondSideCode::Unsorted);
        assert_eq!(plan.label(), "u/u");
    }

    #[test]
    fn planner_picks_cluster_and_decluster_for_large_relations() {
        let w = JoinWorkloadBuilder::equal(4_000, 1).build();
        // Tiny cache (8 KB) makes 4K × 4 B columns "hard".
        let params = CacheParams::tiny_for_tests();
        let plan = DsmPostProjection::plan(&w.larger, &w.smaller, &params);
        assert_eq!(plan.first_side, ProjectionCode::PartialCluster);
        assert_eq!(plan.second_side, SecondSideCode::Decluster);
        assert_eq!(plan.label(), "c/d");
    }
}
