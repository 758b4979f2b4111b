//! NSM pre-projection — the conventional RDBMS plan ("NSM-pre-hash" and
//! "NSM-pre-phash" in Fig. 10).
//!
//! The table scans use the NSM record-projection routine to extract the key
//! plus the projected attributes from each ω-wide record into a pipeline
//! tuple; those tuples then flow through either a naive Hash-Join or a
//! cache-conscious Partitioned Hash-Join.  The big Fig. 10a gap between the
//! two variants is the point the paper makes about Partitioned Hash-Join
//! "carrying generic merit" beyond MonetDB.

use rdx_cache::CacheParams;
use rdx_core::error::{check_projection_widths, RdxError};
use rdx_core::hash::hash_key;
use rdx_core::join::{join_cluster_spec, HashTable};
use rdx_core::strategy::{PhaseTimings, QuerySpec, StrategyOutcome};
use rdx_dsm::{Column, ResultRelation};
use rdx_nsm::NsmRelation;
use std::time::Instant;

/// Pipeline tuples extracted by the scan: key + projected values, row-major.
struct Pipeline {
    keys: Vec<u64>,
    values: Vec<i32>,
    stride: usize,
}

impl Pipeline {
    /// The NSM scan: per record, run the record projection routine over the
    /// run-time attribute list (attributes `1..=projected`, attribute 0 being
    /// the key).
    fn scan(rel: &NsmRelation, projected: usize) -> Self {
        let n = rel.cardinality();
        let projection: Vec<usize> = (1..=projected).collect();
        let mut keys = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n * projected);
        for row in 0..n {
            keys.push(rel.key(row));
            rel.project_record(row, &projection, &mut values);
        }
        Pipeline {
            keys,
            values,
            stride: projected,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn row(&self, i: usize) -> &[i32] {
        &self.values[i * self.stride..(i + 1) * self.stride]
    }

    /// Single- or multi-pass Radix-Cluster of the pipeline tuples on the
    /// hashed key, moving the projected payload along on every pass.
    fn radix_cluster(self, bits: u32, passes: u32) -> (Self, Vec<usize>) {
        let n = self.len();
        let mut cur = self;
        let mut segments = vec![0, n];
        if bits == 0 {
            return (cur, segments);
        }
        let passes = passes.min(bits).max(1);
        let base = bits / passes;
        let extra = bits % passes;
        let mut remaining = bits;
        for p in 0..passes {
            let bp = if p < extra { base + 1 } else { base };
            remaining -= bp;
            let hp = 1usize << bp;
            let mask = (hp - 1) as u64;
            let mut out_keys = vec![0u64; n];
            let mut out_values = vec![0i32; cur.values.len()];
            let mut new_segments = Vec::with_capacity((segments.len() - 1) * hp + 1);
            let mut counts = vec![0usize; hp];
            for seg in segments.windows(2) {
                let (s, e) = (seg[0], seg[1]);
                counts.iter_mut().for_each(|c| *c = 0);
                for &k in &cur.keys[s..e] {
                    counts[((hash_key(k) >> remaining) & mask) as usize] += 1;
                }
                let mut offsets = vec![0usize; hp];
                let mut cursor = s;
                for b in 0..hp {
                    offsets[b] = cursor;
                    new_segments.push(cursor);
                    cursor += counts[b];
                }
                for i in s..e {
                    let b = ((hash_key(cur.keys[i]) >> remaining) & mask) as usize;
                    let dst = offsets[b];
                    offsets[b] += 1;
                    out_keys[dst] = cur.keys[i];
                    out_values[dst * cur.stride..(dst + 1) * cur.stride]
                        .copy_from_slice(cur.row(i));
                }
            }
            new_segments.push(n);
            cur = Pipeline {
                keys: out_keys,
                values: out_values,
                stride: cur.stride,
            };
            segments = new_segments;
        }
        (cur, segments)
    }
}

fn join_partitions(
    larger: &Pipeline,
    larger_bounds: &[usize],
    smaller: &Pipeline,
    smaller_bounds: &[usize],
    spec: &QuerySpec,
) -> Vec<Vec<i32>> {
    let mut result_cols: Vec<Vec<i32>> = vec![Vec::new(); spec.total()];
    let mut table = HashTable::build(&[]);
    for p in 0..larger_bounds.len() - 1 {
        let (ls, le) = (larger_bounds[p], larger_bounds[p + 1]);
        let (ss, se) = (smaller_bounds[p], smaller_bounds[p + 1]);
        if ls == le || ss == se {
            continue;
        }
        let build_keys = &smaller.keys[ss..se];
        table.rebuild(build_keys);
        for l in ls..le {
            for pos in table.matches(larger.keys[l]) {
                let s = ss + pos as usize;
                for (a, &v) in larger.row(l).iter().enumerate() {
                    result_cols[a].push(v);
                }
                for (b, &v) in smaller.row(s).iter().enumerate() {
                    result_cols[spec.project_larger + b].push(v);
                }
            }
        }
    }
    result_cols
}

fn to_outcome(result_cols: Vec<Vec<i32>>, timings: PhaseTimings) -> StrategyOutcome {
    let mut result = ResultRelation::new();
    for col in result_cols {
        result.push_column(Column::from_vec(col));
    }
    StrategyOutcome { result, timings }
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
    check_projection_widths(
        spec.project_larger,
        larger.width().saturating_sub(1),
        spec.project_smaller,
        smaller.width().saturating_sub(1),
    )?;
    let mut timings = PhaseTimings::default();
    let t = Instant::now();
    let larger_pipe = Pipeline::scan(larger, spec.project_larger);
    let smaller_pipe = Pipeline::scan(smaller, spec.project_smaller);
    let cols = join_partitions(
        &larger_pipe,
        &[0, larger_pipe.len()],
        &smaller_pipe,
        &[0, smaller_pipe.len()],
        spec,
    );
    timings.join = t.elapsed();
    Ok(to_outcome(cols, timings))
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
    check_projection_widths(
        spec.project_larger,
        larger.width().saturating_sub(1),
        spec.project_smaller,
        smaller.width().saturating_sub(1),
    )?;
    let mut timings = PhaseTimings::default();
    let t = Instant::now();
    let larger_pipe = Pipeline::scan(larger, spec.project_larger);
    let smaller_pipe = Pipeline::scan(smaller, spec.project_smaller);
    // Wider pipeline tuples shrink the per-partition tuple budget.
    let build_tuple_bytes = 12 + 4 * spec.project_smaller;
    let join_spec = join_cluster_spec(
        smaller.cardinality() * build_tuple_bytes / 12,
        params.cache_capacity(),
    );
    let (larger_clustered, larger_bounds) =
        larger_pipe.radix_cluster(join_spec.bits, join_spec.passes);
    let (smaller_clustered, smaller_bounds) =
        smaller_pipe.radix_cluster(join_spec.bits, join_spec.passes);
    let cols = join_partitions(
        &larger_clustered,
        &larger_bounds,
        &smaller_clustered,
        &smaller_bounds,
        spec,
    );
    timings.join = t.elapsed();
    Ok(to_outcome(cols, timings))
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
