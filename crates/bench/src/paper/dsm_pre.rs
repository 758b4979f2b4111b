//! DSM pre-projection ("DSM-pre-phash" in Fig. 10).
//!
//! The projection columns are fetched by the scans *before* the join and
//! travel as "extra luggage" through every Radix-Cluster pass and through the
//! Partitioned Hash-Join itself.  Relative to post-projection this moves
//! `π · 4` extra bytes per tuple per pass — which is exactly the overhead the
//! paper's comparison quantifies.

use rdx_cache::CacheParams;
use rdx_core::error::{check_projection_widths, RdxError};
use rdx_core::hash::hash_key;
use rdx_core::join::{join_cluster_spec, HashTable};
use rdx_core::strategy::{PhaseTimings, QuerySpec, StrategyOutcome};
use rdx_dsm::{Column, DsmRelation, ResultRelation};
use std::time::Instant;

/// A relation materialised as "wide tuples": the key plus the projected
/// attribute values, stored row-major so that the whole tuple moves together
/// through clustering and joining (that is what pre-projection means).
struct WideBuffer {
    keys: Vec<u64>,
    /// Row-major projected values, `stride` per tuple.
    values: Vec<i32>,
    stride: usize,
}

impl WideBuffer {
    /// The pre-join scan: fetch the projected columns once, sequentially.
    fn scan(rel: &DsmRelation, projected: usize) -> Self {
        let n = rel.cardinality();
        let mut values = Vec::with_capacity(n * projected);
        for row in 0..n {
            for a in 0..projected {
                values.push(rel.attr(a)[row]);
            }
        }
        WideBuffer {
            keys: rel.key().as_slice().to_vec(),
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

    /// One counting-sort pass over the wide tuples: both the key and the whole
    /// projected payload are scattered to the output partitions.
    fn cluster_pass(
        &self,
        bits_this_pass: u32,
        shift: u32,
        segments: &[usize],
    ) -> (Self, Vec<usize>) {
        let hp = 1usize << bits_this_pass;
        let mask = (hp - 1) as u64;
        let mut out_keys = vec![0u64; self.keys.len()];
        let mut out_values = vec![0i32; self.values.len()];
        let mut new_segments = Vec::with_capacity((segments.len() - 1) * hp + 1);
        let mut counts = vec![0usize; hp];
        for seg in segments.windows(2) {
            let (s, e) = (seg[0], seg[1]);
            counts.iter_mut().for_each(|c| *c = 0);
            for &k in &self.keys[s..e] {
                counts[((hash_key(k) >> shift) & mask) as usize] += 1;
            }
            let mut offsets = vec![0usize; hp];
            let mut cursor = s;
            for b in 0..hp {
                offsets[b] = cursor;
                new_segments.push(cursor);
                cursor += counts[b];
            }
            for i in s..e {
                let b = ((hash_key(self.keys[i]) >> shift) & mask) as usize;
                let dst = offsets[b];
                offsets[b] += 1;
                out_keys[dst] = self.keys[i];
                out_values[dst * self.stride..(dst + 1) * self.stride].copy_from_slice(self.row(i));
            }
        }
        new_segments.push(self.keys.len());
        (
            WideBuffer {
                keys: out_keys,
                values: out_values,
                stride: self.stride,
            },
            new_segments,
        )
    }

    /// Full multi-pass Radix-Cluster of the wide tuples.
    fn radix_cluster(mut self, bits: u32, passes: u32) -> (Self, Vec<usize>) {
        let mut segments = vec![0, self.len()];
        if bits == 0 {
            return (self, segments);
        }
        let passes = passes.min(bits).max(1);
        let base = bits / passes;
        let extra = bits % passes;
        let mut remaining = bits;
        for p in 0..passes {
            let bp = if p < extra { base + 1 } else { base };
            remaining -= bp;
            let (next, next_segments) = self.cluster_pass(bp, remaining, &segments);
            self = next;
            segments = next_segments;
        }
        (self, segments)
    }
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
    let mut timings = PhaseTimings::default();
    let t = Instant::now();

    // Pre-projection scans: the wide tuples are built before the join.
    let larger_wide = WideBuffer::scan(larger, spec.project_larger);
    let smaller_wide = WideBuffer::scan(smaller, spec.project_smaller);

    // The wide tuples inflate the per-tuple footprint of the build side, so
    // the partition sizing must account for it (§4.2: "less tuples fit in the
    // clusters created by Radix-Cluster").
    let build_tuple_bytes = 12 + 4 * spec.project_smaller;
    let join_spec = join_cluster_spec(
        smaller.cardinality() * build_tuple_bytes / 12,
        params.cache_capacity(),
    );

    let (larger_clustered, larger_bounds) =
        larger_wide.radix_cluster(join_spec.bits, join_spec.passes);
    let (smaller_clustered, smaller_bounds) =
        smaller_wide.radix_cluster(join_spec.bits, join_spec.passes);

    // Per-partition hash join, emitting fully projected result rows directly.
    let mut result_cols: Vec<Vec<i32>> = vec![Vec::new(); spec.total()];
    let mut table = HashTable::build(&[]);
    for p in 0..larger_bounds.len() - 1 {
        let (ls, le) = (larger_bounds[p], larger_bounds[p + 1]);
        let (ss, se) = (smaller_bounds[p], smaller_bounds[p + 1]);
        if ls == le || ss == se {
            continue;
        }
        let build_keys = &smaller_clustered.keys[ss..se];
        table.rebuild(build_keys);
        for l in ls..le {
            let key = larger_clustered.keys[l];
            for pos in table.matches(key) {
                let s = ss + pos as usize;
                let lrow = larger_clustered.row(l);
                let srow = smaller_clustered.row(s);
                for (a, &v) in lrow.iter().enumerate() {
                    result_cols[a].push(v);
                }
                for (b, &v) in srow.iter().enumerate() {
                    result_cols[spec.project_larger + b].push(v);
                }
            }
        }
    }
    timings.join = t.elapsed();

    let mut result = ResultRelation::new();
    for col in result_cols {
        result.push_column(Column::from_vec(col));
    }
    Ok(StrategyOutcome { result, timings })
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
