//! DSM post-projection (paper §3, §4.1) — the strategy the paper advocates.
//!
//! 1. Join only the key columns with Partitioned Hash-Join → join index.
//! 2. First (larger) side: reorder the join index with one of the `u`/`s`/`c`
//!    codes, then project each column with a Positional-Join.
//! 3. Second (smaller) side: `u` (unsorted Positional-Joins) or `d`
//!    (partial Radix-Cluster + clustered Positional-Join + Radix-Decluster per
//!    column, Fig. 4).

use crate::error::{check_projection_widths, RdxError};
use crate::join::{join_cluster_spec, partitioned_hash_join};
use crate::strategy::common::{
    order_join_index, project_first_side, project_second_side_decluster,
    project_second_side_unsorted, ProjectionCode, SecondSideCode,
};
use crate::strategy::{PhaseTimings, QuerySpec, StrategyOutcome};
use rdx_cache::CacheParams;
use rdx_dsm::{Column, DsmRelation, ResultRelation};
use std::time::Instant;

/// Width of the fixed-size attribute values (the paper's all-integer columns).
const VALUE_WIDTH: usize = 4;

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

    /// Executes the strategy.
    ///
    /// **Legacy surface**: a documented thin wrapper over
    /// [`DsmPostProjection::try_execute`] that panics instead of returning
    /// the typed [`RdxError`].  New code — and everything behind the
    /// `rdx-api` `Session` front door — goes through the fallible path.
    ///
    /// # Panics
    /// Panics if the query asks for more projection columns than a relation
    /// has (`RdxError::TooManyColumns`).
    pub fn execute(
        &self,
        larger: &DsmRelation,
        smaller: &DsmRelation,
        spec: &QuerySpec,
        params: &CacheParams,
    ) -> StrategyOutcome {
        self.try_execute(larger, smaller, spec, params)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes the strategy, reporting validation failures as typed
    /// [`RdxError`]s instead of panicking.  Degenerate inputs that *can*
    /// run — empty relations, zero-width specs — produce an empty (or
    /// column-less) result rather than an error.
    pub fn try_execute(
        &self,
        larger: &DsmRelation,
        smaller: &DsmRelation,
        spec: &QuerySpec,
        params: &CacheParams,
    ) -> Result<StrategyOutcome, RdxError> {
        check_projection_widths(
            spec.project_larger,
            larger.width(),
            spec.project_smaller,
            smaller.width(),
        )?;
        let mut timings = PhaseTimings::default();

        // Phase 1: join index over the key columns only.
        let t = Instant::now();
        let join_spec = join_cluster_spec(smaller.cardinality(), params.cache_capacity());
        let join_index =
            partitioned_hash_join(larger.key().as_slice(), smaller.key().as_slice(), join_spec);
        timings.join = t.elapsed();

        // Phase 2a: reorder for the first side.
        let t = Instant::now();
        let (first_oids, second_oids) = order_join_index(
            &join_index,
            self.first_side,
            larger.cardinality(),
            VALUE_WIDTH,
            params,
        );
        timings.reorder = t.elapsed();

        // Phase 2b: project the first side.
        let t = Instant::now();
        let first_columns = project_first_side(&first_oids, spec.project_larger, larger);
        timings.project_larger = t.elapsed();

        // Phase 3: project the second side.
        let t = Instant::now();
        let second_columns = match self.second_side {
            SecondSideCode::Unsorted => {
                let cols =
                    project_second_side_unsorted(&second_oids, spec.project_smaller, smaller);
                timings.project_smaller = t.elapsed();
                cols
            }
            SecondSideCode::Decluster => {
                let (cols, _clusters) = project_second_side_decluster(
                    &second_oids,
                    spec.project_smaller,
                    smaller,
                    smaller.cardinality(),
                    VALUE_WIDTH,
                    params,
                );
                timings.decluster = t.elapsed();
                cols
            }
        };

        let mut result = ResultRelation::new();
        for col in first_columns {
            result.push_column(Column::from_vec(col));
        }
        for col in second_columns {
            result.push_column(Column::from_vec(col));
        }
        Ok(StrategyOutcome { result, timings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::reference::{reference_rows, result_rows};
    use rdx_workload::JoinWorkloadBuilder;

    fn check_all_codes(n: usize, pi: usize) {
        let w = JoinWorkloadBuilder::equal(n, pi).seed(5).build();
        let spec = QuerySpec::symmetric(pi);
        let params = CacheParams::tiny_for_tests();
        let expected = reference_rows(&w.larger, &w.smaller, &spec);
        for first in [
            ProjectionCode::Unsorted,
            ProjectionCode::Sorted,
            ProjectionCode::PartialCluster,
        ] {
            for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
                let strat = DsmPostProjection::with_codes(first, second);
                let out = strat.execute(&w.larger, &w.smaller, &spec, &params);
                assert_eq!(
                    result_rows(&out.result),
                    expected,
                    "codes {} produced a wrong result",
                    strat.label()
                );
                assert_eq!(out.result.cardinality(), w.expected_matches);
            }
        }
    }

    #[test]
    fn every_code_combination_is_correct() {
        check_all_codes(3_000, 2);
    }

    #[test]
    fn works_with_asymmetric_projection() {
        let w = JoinWorkloadBuilder::equal(1_000, 3).seed(8).build();
        let spec = QuerySpec {
            project_larger: 3,
            project_smaller: 1,
        };
        let params = CacheParams::tiny_for_tests();
        let out = DsmPostProjection::plan(&w.larger, &w.smaller, &params)
            .execute(&w.larger, &w.smaller, &spec, &params);
        assert_eq!(
            result_rows(&out.result),
            reference_rows(&w.larger, &w.smaller, &spec)
        );
        assert_eq!(out.result.num_columns(), 4);
    }

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

    #[test]
    fn timings_are_populated() {
        let w = JoinWorkloadBuilder::equal(2_000, 1).build();
        let params = CacheParams::tiny_for_tests();
        let out = DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        )
        .execute(&w.larger, &w.smaller, &QuerySpec::symmetric(1), &params);
        assert!(out.timings.total().as_nanos() > 0);
        assert!(out.timings.join.as_nanos() > 0);
    }

    #[test]
    #[should_panic]
    fn over_projection_is_rejected() {
        let w = JoinWorkloadBuilder::equal(100, 1).build();
        let params = CacheParams::tiny_for_tests();
        DsmPostProjection::plan(&w.larger, &w.smaller, &params).execute(
            &w.larger,
            &w.smaller,
            &QuerySpec::symmetric(5),
            &params,
        );
    }

    #[test]
    fn try_execute_reports_over_projection_as_typed_error() {
        use crate::error::{RdxError, Side};
        let w = JoinWorkloadBuilder::equal(100, 1).build();
        let params = CacheParams::tiny_for_tests();
        let plan = DsmPostProjection::plan(&w.larger, &w.smaller, &params);
        let err = plan
            .try_execute(&w.larger, &w.smaller, &QuerySpec::symmetric(5), &params)
            .unwrap_err();
        assert_eq!(
            err,
            RdxError::TooManyColumns {
                side: Side::Larger,
                requested: 5,
                available: 1
            }
        );
        // Asymmetric over-projection pins the smaller side.
        let err = plan
            .try_execute(
                &w.larger,
                &w.smaller,
                &QuerySpec {
                    project_larger: 1,
                    project_smaller: 5,
                },
                &params,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            RdxError::TooManyColumns {
                side: Side::Smaller,
                ..
            }
        ));
    }

    #[test]
    fn zero_width_spec_is_a_degenerate_success_not_an_error() {
        let w = JoinWorkloadBuilder::equal(200, 1).seed(2).build();
        let params = CacheParams::tiny_for_tests();
        let out = DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        )
        .try_execute(&w.larger, &w.smaller, &QuerySpec::symmetric(0), &params)
        .expect("zero-width spec must run");
        assert_eq!(out.result.num_columns(), 0);
    }

    #[test]
    fn empty_relations_are_a_degenerate_success_not_an_error() {
        use rdx_dsm::Column;
        let empty = DsmRelation::new(Column::from_vec(vec![]), vec![Column::from_vec(vec![])]);
        let params = CacheParams::tiny_for_tests();
        for first in [
            ProjectionCode::Unsorted,
            ProjectionCode::Sorted,
            ProjectionCode::PartialCluster,
        ] {
            for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
                let out = DsmPostProjection::with_codes(first, second)
                    .try_execute(&empty, &empty, &QuerySpec::symmetric(1), &params)
                    .expect("empty relations must run");
                assert_eq!(out.result.cardinality(), 0);
                assert_eq!(out.result.num_columns(), 2);
            }
        }
    }
}
