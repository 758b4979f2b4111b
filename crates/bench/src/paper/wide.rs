//! The pre-projection join both "pre" baselines run (Fig. 10's
//! `DSM-pre-phash`, `NSM-pre-hash` and `NSM-pre-phash`): the projected
//! values are fetched by the scans *before* the join and travel as "extra
//! luggage" through every Radix-Cluster pass and through the Hash-Join
//! itself.  Relative to post-projection this moves `π · 4` extra bytes per
//! tuple per pass, which is exactly the overhead the paper's comparison
//! quantifies.  The two plans differ only in their scan (DSM columns or NSM
//! record projection), which builds the [`WideTuples`] joined here.

use rdx_cache::CacheParams;
use rdx_core::cluster::RadixClusterSpec;
use rdx_core::hash::hash_key;
use rdx_core::join::{join_cluster_spec, HashTable};
use rdx_core::strategy::{PhaseTimings, StrategyOutcome};
use rdx_dsm::{Column, ResultRelation, VALUE_WIDTH};
use std::time::Duration;

/// One side's "wide tuples": the key plus the projected attribute values,
/// stored row-major so that the whole tuple moves together through
/// clustering and joining (that is what pre-projection means), cut into
/// clusters by `borders`.
pub(super) struct WideTuples {
    keys: Vec<u64>,
    /// Row-major projected values, `stride` per tuple.
    values: Vec<i32>,
    stride: usize,
    /// Cluster `p` is tuples `borders[p]..borders[p + 1]`.
    borders: Vec<usize>,
}

impl WideTuples {
    /// A scan's output, `stride` values per key: one cluster.
    pub(super) fn new(keys: Vec<u64>, values: Vec<i32>, stride: usize) -> Self {
        debug_assert_eq!(values.len(), keys.len() * stride);
        let borders = vec![0, keys.len()];
        WideTuples {
            keys,
            values,
            stride,
            borders,
        }
    }

    fn row(&self, i: usize) -> &[i32] {
        &self.values[i * self.stride..(i + 1) * self.stride]
    }

    /// Radix-Cluster on the hashed key, in the passes of
    /// [`RadixClusterSpec::pass_bits`], leftmost first: each pass is a
    /// counting sort within every cluster of the one before that copies
    /// the key and the whole projected row.
    fn radix_cluster(mut self, spec: RadixClusterSpec) -> Self {
        let (n, stride) = (self.keys.len(), self.stride);
        let mut shift = spec.ignore + spec.bits;
        for bits in spec.pass_bits() {
            shift -= bits;
            let radix = |k: u64| ((hash_key(k) >> shift) & ((1 << bits) - 1)) as usize;
            let mut keys = vec![0u64; n];
            let mut values = vec![0i32; self.values.len()];
            let mut cursors = vec![0usize; 1 << bits];
            let mut borders = Vec::with_capacity((self.borders.len() - 1) * cursors.len() + 1);
            for cluster in self.borders.windows(2) {
                let (start, end) = (cluster[0], cluster[1]);
                cursors.fill(0);
                for &k in &self.keys[start..end] {
                    cursors[radix(k)] += 1;
                }
                let mut at = start;
                for cursor in &mut cursors {
                    borders.push(at);
                    (*cursor, at) = (at, at + *cursor);
                }
                for i in start..end {
                    let dst = &mut cursors[radix(self.keys[i])];
                    keys[*dst] = self.keys[i];
                    values[*dst * stride..(*dst + 1) * stride].copy_from_slice(self.row(i));
                    *dst += 1;
                }
            }
            borders.push(n);
            self = WideTuples {
                keys,
                values,
                stride,
                borders,
            };
        }
        self
    }
}

/// Partitioned Hash-Join of two scanned sides: both are Radix-Clustered at
/// the join's spec for the build side's wider tuples (§4.2: "less tuples fit
/// in the clusters created by Radix-Cluster"), then [`hash_join`]ed.
pub(super) fn partitioned_hash_join(
    larger: WideTuples,
    smaller: WideTuples,
    params: &CacheParams,
) -> Vec<Vec<i32>> {
    // 12 bytes are the key and oid `join_cluster_spec` sizes a tuple at.
    let build_tuple_bytes = 12 + VALUE_WIDTH * smaller.stride;
    let spec = join_cluster_spec(
        smaller.keys.len() * build_tuple_bytes / 12,
        params.cache_capacity(),
    );
    hash_join(&larger.radix_cluster(spec), &smaller.radix_cluster(spec))
}

/// Hash-Join of each pair of matching clusters — of the whole inputs when
/// neither is clustered — emitting the projected values directly: the
/// larger side's columns, then the smaller side's, in probe order.
pub(super) fn hash_join(larger: &WideTuples, smaller: &WideTuples) -> Vec<Vec<i32>> {
    let mut columns = vec![Vec::new(); larger.stride + smaller.stride];
    let (larger_columns, smaller_columns) = columns.split_at_mut(larger.stride);
    let mut table = HashTable::build(&[]);
    for (l, s) in larger.borders.windows(2).zip(smaller.borders.windows(2)) {
        let (ls, le, ss, se) = (l[0], l[1], s[0], s[1]);
        if ls == le || ss == se {
            continue;
        }
        table.rebuild(&smaller.keys[ss..se]);
        for row in ls..le {
            for pos in table.matches(larger.keys[row]) {
                for (column, &v) in larger_columns.iter_mut().zip(larger.row(row)) {
                    column.push(v);
                }
                let matched = smaller.row(ss + pos as usize);
                for (column, &v) in smaller_columns.iter_mut().zip(matched) {
                    column.push(v);
                }
            }
        }
    }
    columns
}

/// A pre-projection plan's outcome: its result columns, and the whole run
/// (scans included) charged to the join phase.
pub(super) fn outcome(columns: Vec<Vec<i32>>, join: Duration) -> StrategyOutcome {
    let mut result = ResultRelation::new();
    for column in columns {
        result.push_column(Column::from_vec(column));
    }
    let timings = PhaseTimings {
        join,
        ..PhaseTimings::default()
    };
    StrategyOutcome { result, timings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{dsm_pre_projection, nsm_pre_projection_phash};
    use proptest::prelude::*;
    use rdx_core::strategy::QuerySpec;
    use rdx_workload::{HitRate, JoinWorkloadBuilder};

    /// The two pre-projection plans differ only in their scan, so they
    /// return the same columns in the same row order, not only the same
    /// rows.
    #[test]
    fn dsm_and_nsm_pre_projection_return_identical_columns() {
        let w = JoinWorkloadBuilder::equal(3_000, 3)
            .hit_rate(HitRate(1.0 / 3.0))
            .seed(9)
            .build();
        let spec = QuerySpec {
            project_larger: 1,
            project_smaller: 3,
        };
        let params = CacheParams::tiny_for_tests();
        let dsm = dsm_pre_projection(&w.larger, &w.smaller, &spec, &params).unwrap();
        let nsm = nsm_pre_projection_phash(&w.larger_nsm, &w.smaller_nsm, &spec, &params).unwrap();
        assert_eq!(dsm.result.cardinality(), w.expected_matches);
        assert_eq!(dsm.result.num_columns(), 4);
        assert_eq!(dsm.result, nsm.result);
    }

    fn contents(t: &WideTuples) -> (&[u64], &[i32], &[usize]) {
        (&t.keys, &t.values, &t.borders)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every pass is a stable counting sort on the next bits of the
        /// field, so the wide cluster's keys, rows and borders are the same
        /// for every pass count from 1 to `B`.
        #[test]
        fn the_wide_cluster_is_the_same_for_every_pass_count(
            raw in proptest::collection::vec(0u64..u64::MAX, 0..600),
            modulus in 1u64..500,
            bits in 1u32..9,
            stride in 0usize..3,
        ) {
            let keys: Vec<u64> = raw.iter().map(|k| k % modulus).collect();
            let values: Vec<i32> = (0..keys.len() * stride).map(|v| v as i32).collect();
            let wide = || WideTuples::new(keys.clone(), values.clone(), stride);
            let one = wide().radix_cluster(RadixClusterSpec::single_pass(bits));
            prop_assert_eq!(one.borders.len(), (1 << bits) + 1);
            for passes in 2..=bits {
                let many = wide().radix_cluster(RadixClusterSpec::new(bits, passes));
                prop_assert_eq!(contents(&many), contents(&one), "passes = {}", passes);
            }
        }
    }
}
