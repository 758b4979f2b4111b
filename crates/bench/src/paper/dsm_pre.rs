//! DSM pre-projection ("DSM-pre-phash" in Fig. 10): the scans fetch the
//! projected DSM columns into wide tuples before the join, which runs the
//! one pre-projection Partitioned Hash-Join (the private `paper::wide`).

use super::wide::{self, WideTuples};
use rdx_cache::CacheParams;
use rdx_core::error::{check_projection_widths, RdxError};
use rdx_core::strategy::{QuerySpec, StrategyOutcome};
use rdx_dsm::DsmRelation;
use std::time::Instant;

/// The pre-join scan: fetch the first `projected` columns once,
/// sequentially, into row-major wide tuples.
fn scan(rel: &DsmRelation, projected: usize) -> WideTuples {
    let n = rel.cardinality();
    let mut values = Vec::with_capacity(n * projected);
    for row in 0..n {
        for a in 0..projected {
            values.push(rel.attr(a)[row]);
        }
    }
    WideTuples::new(rel.key().as_slice().to_vec(), values, projected)
}

/// Executes the DSM pre-projection strategy with Partitioned Hash-Join.
///
/// Validation failures are reported as typed [`RdxError`]s.
pub fn dsm_pre_projection(
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
    let t = Instant::now();
    let columns = wide::partitioned_hash_join(
        scan(larger, spec.project_larger),
        scan(smaller, spec.project_smaller),
        params,
    );
    Ok(wide::outcome(columns, t.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_core::strategy::reference::{reference_rows, result_rows};
    use rdx_workload::{HitRate, JoinWorkloadBuilder};

    #[test]
    fn matches_reference_result() {
        let w = JoinWorkloadBuilder::equal(2_500, 3).seed(2).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let out = dsm_pre_projection(&w.larger, &w.smaller, &spec, &params).unwrap();
        assert_eq!(
            result_rows(&out.result),
            reference_rows(&w.larger, &w.smaller, &spec)
        );
        assert_eq!(out.result.cardinality(), w.expected_matches);
    }

    #[test]
    fn handles_low_hit_rate() {
        let w = JoinWorkloadBuilder::equal(3_000, 1)
            .hit_rate(HitRate(1.0 / 3.0))
            .seed(4)
            .build();
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();
        let out = dsm_pre_projection(&w.larger, &w.smaller, &spec, &params).unwrap();
        assert_eq!(out.result.cardinality(), w.expected_matches);
        assert_eq!(
            result_rows(&out.result),
            reference_rows(&w.larger, &w.smaller, &spec)
        );
    }

    #[test]
    fn zero_projection_from_one_side() {
        let w = JoinWorkloadBuilder::equal(800, 2).seed(6).build();
        let spec = QuerySpec {
            project_larger: 0,
            project_smaller: 2,
        };
        let params = CacheParams::tiny_for_tests();
        let out = dsm_pre_projection(&w.larger, &w.smaller, &spec, &params).unwrap();
        assert_eq!(out.result.num_columns(), 2);
        assert_eq!(
            result_rows(&out.result),
            reference_rows(&w.larger, &w.smaller, &spec)
        );
    }

    #[test]
    fn over_projection_is_a_typed_error() {
        use rdx_core::error::Side;
        let w = JoinWorkloadBuilder::equal(100, 1).build();
        let params = CacheParams::tiny_for_tests();
        let err = dsm_pre_projection(&w.larger, &w.smaller, &QuerySpec::symmetric(7), &params)
            .unwrap_err();
        assert_eq!(
            err,
            RdxError::TooManyColumns {
                side: Side::Larger,
                requested: 7,
                available: 1
            }
        );
    }
}
