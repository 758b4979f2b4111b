//! NSM pre-projection — the conventional RDBMS plan ("NSM-pre-hash" and
//! "NSM-pre-phash" in Fig. 10).
//!
//! The table scans use the NSM record-projection routine to extract the key
//! plus the projected attributes from each ω-wide record into a pipeline
//! tuple; those tuples then flow through either a naive Hash-Join or the
//! cache-conscious Partitioned Hash-Join, both of the private `paper::wide`.
//! The big Fig. 10a gap between the two variants is the point the paper
//! makes about Partitioned Hash-Join "carrying generic merit" beyond MonetDB.

use super::wide::{self, WideTuples};
use rdx_cache::CacheParams;
use rdx_core::error::{check_projection_widths, RdxError};
use rdx_core::strategy::{QuerySpec, StrategyOutcome};
use rdx_nsm::NsmRelation;
use std::time::Instant;

/// The NSM scan: per record, run the record projection routine over the
/// run-time attribute list (attributes `1..=projected`, attribute 0 being
/// the key).
fn scan(rel: &NsmRelation, projected: usize) -> WideTuples {
    let n = rel.cardinality();
    let projection: Vec<usize> = (1..=projected).collect();
    let mut keys = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n * projected);
    for row in 0..n {
        keys.push(rel.key(row));
        rel.project_record(row, &projection, &mut values);
    }
    WideTuples::new(keys, values, projected)
}

/// Checks `spec` against both relations' non-key attributes.
fn check(larger: &NsmRelation, smaller: &NsmRelation, spec: &QuerySpec) -> Result<(), RdxError> {
    check_projection_widths(
        spec.project_larger,
        larger.width().saturating_sub(1),
        spec.project_smaller,
        smaller.width().saturating_sub(1),
    )
}

/// NSM pre-projection with a **naive** (non-partitioned) Hash-Join —
/// "NSM-pre-hash", the no-cache-optimisation baseline of Fig. 10a.
///
/// Validation failures are reported as typed [`RdxError`]s.
pub fn nsm_pre_projection_hash(
    larger: &NsmRelation,
    smaller: &NsmRelation,
    spec: &QuerySpec,
) -> Result<StrategyOutcome, RdxError> {
    check(larger, smaller, spec)?;
    let t = Instant::now();
    let columns = wide::hash_join(
        &scan(larger, spec.project_larger),
        &scan(smaller, spec.project_smaller),
    );
    Ok(wide::outcome(columns, t.elapsed()))
}

/// NSM pre-projection with **Partitioned Hash-Join** — "NSM-pre-phash", the
/// conventional plan upgraded with the paper's cache-conscious join.
///
/// Validation failures are reported as typed [`RdxError`]s.
pub fn nsm_pre_projection_phash(
    larger: &NsmRelation,
    smaller: &NsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
) -> Result<StrategyOutcome, RdxError> {
    check(larger, smaller, spec)?;
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
    fn hash_and_phash_agree_with_reference() {
        let w = JoinWorkloadBuilder::equal(2_000, 3).seed(12).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let expected = reference_rows(&w.larger, &w.smaller, &spec);
        let naive = nsm_pre_projection_hash(&w.larger_nsm, &w.smaller_nsm, &spec).unwrap();
        let phash =
            nsm_pre_projection_phash(&w.larger_nsm, &w.smaller_nsm, &spec, &params).unwrap();
        assert_eq!(result_rows(&naive.result), expected);
        assert_eq!(result_rows(&phash.result), expected);
    }

    #[test]
    fn respects_hit_rate_three() {
        let w = JoinWorkloadBuilder::equal(1_500, 1)
            .hit_rate(HitRate(3.0))
            .seed(3)
            .build();
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();
        let out = nsm_pre_projection_phash(&w.larger_nsm, &w.smaller_nsm, &spec, &params).unwrap();
        assert_eq!(out.result.cardinality(), w.expected_matches);
        assert_eq!(
            result_rows(&out.result),
            reference_rows(&w.larger, &w.smaller, &spec)
        );
    }

    #[test]
    fn over_projection_is_a_typed_error() {
        use rdx_core::error::{RdxError, Side};
        let w = JoinWorkloadBuilder::equal(100, 1).build();
        let params = CacheParams::tiny_for_tests();
        let spec = QuerySpec::symmetric(4);
        let want = RdxError::TooManyColumns {
            side: Side::Larger,
            requested: 4,
            available: 1,
        };
        assert_eq!(
            nsm_pre_projection_hash(&w.larger_nsm, &w.smaller_nsm, &spec).unwrap_err(),
            want
        );
        assert_eq!(
            nsm_pre_projection_phash(&w.larger_nsm, &w.smaller_nsm, &spec, &params).unwrap_err(),
            want
        );
    }
}
