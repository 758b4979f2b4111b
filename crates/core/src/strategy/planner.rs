//! A cost-model-driven planner for the DSM post-projection codes.
//!
//! §4.1 ends with the observation that which projection strategy is cheapest
//! "depends on the number of projection columns in both relations, the data
//! types in these projection columns, and the number of tuples in both input
//! relations", and §1.1 motivates the Appendix-A cost models precisely as the
//! tool to "draw conclusions on their optimal parameter settings".  This
//! module closes that loop: it prices every `u/s/c × u/d` code combination
//! with the `rdx-cost` formulas and picks the cheapest, giving a planner that
//! adapts to π, N and the cache parameters instead of using only the
//! fits-in-cache rule of [`DsmPostProjection::plan`].

use crate::budget::{BudgetError, MemoryBudget};
use crate::cluster::{
    plan_cluster_passes, plan_partial_cluster, RadixClusterSpec, ScatterMode, OID_PAIR_BYTES,
};
use crate::decluster::choose_window_bytes;
use crate::hash::significant_bits;
use crate::strategy::common::{ProjectionCode, SecondSideCode};
use crate::strategy::{DsmPostProjection, QuerySpec};
use rdx_cache::CacheParams;
use rdx_cost::algorithms as cost;
use rdx_cost::DataRegion;
use rdx_dsm::DsmRelation;

/// Value width of the paper's integer attribute columns.
const VALUE_WIDTH: usize = 4;

/// Predicted cost of radix-clustering `region` into `2^bits` clusters, with
/// the pass count and plain/buffered scatter chosen by
/// [`plan_cluster_passes`] — so the planner prices exactly the pass
/// structure the kernels will run, including the "one buffered pass instead
/// of two plain ones" move.
fn cluster_cost_millis(region: DataRegion, bits: u32, params: &CacheParams) -> f64 {
    let (passes, mode) = plan_cluster_passes(bits, OID_PAIR_BYTES, params);
    match mode {
        ScatterMode::Plain | ScatterMode::Auto => {
            cost::radix_cluster(region, bits, passes, params).millis(params)
        }
        ScatterMode::Buffered => {
            cost::radix_cluster_buffered(region, bits, passes, OID_PAIR_BYTES, params)
                .millis(params)
        }
    }
}

/// Predicted cost (milliseconds on the modeled platform) of the *projection
/// phase* of a DSM post-projection with the given codes.
///
/// The join phase is identical for every code combination, so it is omitted;
/// the comparison between code combinations is unaffected.
pub fn predict_projection_cost(
    first: ProjectionCode,
    second: SecondSideCode,
    larger_tuples: usize,
    smaller_tuples: usize,
    result_tuples: usize,
    spec: &QuerySpec,
    params: &CacheParams,
) -> f64 {
    let cache = params.cache_capacity();
    let larger_col = DataRegion::new(larger_tuples, VALUE_WIDTH);
    let smaller_col = DataRegion::new(smaller_tuples, VALUE_WIDTH);
    let join_index = DataRegion::new(result_tuples, 8);

    // --- first (larger) side -------------------------------------------------
    let first_bits = optimal_bits(larger_tuples, cache);
    let first_cost = match first {
        ProjectionCode::Unsorted => {
            spec.project_larger as f64
                * cost::positional_join_unsorted(result_tuples, larger_col, VALUE_WIDTH, params)
                    .millis(params)
        }
        ProjectionCode::Sorted => {
            let sort_bits = significant_bits(larger_tuples);
            cluster_cost_millis(join_index, sort_bits, params)
                + spec.project_larger as f64
                    * cost::positional_join_sorted(result_tuples, larger_col, VALUE_WIDTH, params)
                        .millis(params)
        }
        ProjectionCode::PartialCluster => {
            cluster_cost_millis(join_index, first_bits, params)
                + spec.project_larger as f64
                    * cost::positional_join_clustered(
                        result_tuples,
                        larger_col,
                        VALUE_WIDTH,
                        first_bits,
                        params,
                    )
                    .millis(params)
        }
    };

    // --- second (smaller) side -----------------------------------------------
    let second_bits = optimal_bits(smaller_tuples, cache);
    let window = cache / 2;
    let second_cost = match second {
        SecondSideCode::Unsorted => {
            spec.project_smaller as f64
                * cost::positional_join_unsorted(result_tuples, smaller_col, VALUE_WIDTH, params)
                    .millis(params)
        }
        SecondSideCode::Decluster => {
            cluster_cost_millis(join_index, second_bits, params)
                + spec.project_smaller as f64
                    * (cost::positional_join_clustered(
                        result_tuples,
                        smaller_col,
                        VALUE_WIDTH,
                        second_bits,
                        params,
                    )
                    .millis(params)
                        + cost::radix_decluster(
                            result_tuples,
                            VALUE_WIDTH,
                            second_bits,
                            window,
                            params,
                        )
                        .millis(params))
        }
    };

    first_cost + second_cost
}

/// Picks the cheapest `u/s/c × u/d` combination under the cost model.
pub fn plan_by_cost(
    larger: &DsmRelation,
    smaller: &DsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
) -> DsmPostProjection {
    plan_by_cost_with_threads(larger, smaller, spec, params, 1)
}

/// The `threads`-aware planner: prices every code combination against each
/// core's *share* of the cache ([`CacheParams::per_core_share`]) instead of
/// the whole of it.
///
/// With `threads` workers active, the per-core effective cache shrinks to
/// `C / threads`, which moves the knees of the Appendix-A cost curves: a
/// side whose projection columns fit a full cache may exceed a quarter of
/// one, flipping the optimal code from `u` to `c`/`d` — and the narrower
/// per-core cache also raises the radix-bit counts the reordering codes are
/// priced at.  The returned plan is what the parallel executors in
/// `rdx-exec` should run.
pub fn plan_by_cost_with_threads(
    larger: &DsmRelation,
    smaller: &DsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
    threads: usize,
) -> DsmPostProjection {
    let params = &params.per_core_share(threads);
    // With hit rate unknown at planning time, assume |result| ≈ |larger|, the
    // paper's h = 1 default.
    let result_tuples = larger.cardinality();
    let mut best = (
        f64::INFINITY,
        DsmPostProjection::plan(larger, smaller, params),
    );
    for first in [
        ProjectionCode::Unsorted,
        ProjectionCode::Sorted,
        ProjectionCode::PartialCluster,
    ] {
        for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
            let predicted = predict_projection_cost(
                first,
                second,
                larger.cardinality(),
                smaller.cardinality(),
                result_tuples,
                spec,
                params,
            );
            if predicted < best.0 {
                best = (predicted, DsmPostProjection::with_codes(first, second));
            }
        }
    }
    best.1
}

/// Resident bytes one result row costs the streaming pipeline while its
/// chunk is in flight: all `π` output column values held until the chunk is
/// emitted, plus the chunk-local rebased result positions, the chunk-local
/// clustered smaller oids (shared by all smaller-side columns), and the
/// staged clustered values of the column currently being declustered.
///
/// This is the `bytes_per_row` the chunk-count rule divides the
/// [`MemoryBudget`] by — the analogue of `per_core_share` dividing the cache.
pub fn streaming_bytes_per_row(spec: &QuerySpec) -> usize {
    (spec.total() + 3) * VALUE_WIDTH
}

/// The chunking a [`MemoryBudget`] imposes on a streaming projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingPlan {
    /// Result rows per chunk (`≥ 1`).
    pub chunk_rows: usize,
    /// Number of chunks the result splits into (`≥ 1`).
    pub num_chunks: usize,
    /// Insertion-window size `‖W‖` for the per-chunk declusters, clamped to
    /// never exceed one chunk's output.
    pub window_bytes: usize,
    /// Resident bytes charged per in-flight result row (see
    /// [`streaming_bytes_per_row`]).
    pub bytes_per_row: usize,
    /// The second-side partial clustering the chunks stream over — the
    /// single source of truth shared by the executor (which runs it) and
    /// [`predict_streaming_cost`] (which prices it), so the two can never
    /// drift apart.
    pub cluster_spec: RadixClusterSpec,
    /// How that clustering scatters: plain cursors, or software
    /// write-combining once the fan-out exceeds the plain cursor budget
    /// (see [`plan_cluster_passes`]).  Chosen together with
    /// `cluster_spec.passes` by [`crate::cluster::plan_partial_cluster`];
    /// has no effect on the produced bytes, only on how fast they appear.
    pub scatter: ScatterMode,
}

impl StreamingPlan {
    /// Upper bound on the chunk working set this plan admits, in bytes —
    /// what the acceptance tests compare against the pipeline's measured
    /// peak.
    pub fn max_working_set_bytes(&self) -> usize {
        self.chunk_rows * self.bytes_per_row
    }
}

/// Picks the chunk count and per-chunk window for a streaming projection of
/// `result_rows` rows over a smaller relation of `smaller_tuples` tuples of
/// `smaller_value_width` bytes (4 for DSM columns, the full record width for
/// NSM — a cache-line fetch drags the whole record in), declustered by
/// `threads` concurrent workers, under `budget`.
///
/// The rule mirrors [`choose_window_bytes`] one level up: the budget divided
/// by the per-row resident cost gives the chunk size (floored at one row, so
/// progress is always possible), and the insertion window of the per-chunk
/// declusters is the cache-derived window sized to each worker's *share* of
/// the cache ([`CacheParams::per_core_share`], as the parallel executors do)
/// and clamped to the chunk output so a tiny budget never asks for a window
/// larger than the data it covers.
///
/// **Documented clamp:** a bounded budget smaller than one resident row
/// ([`streaming_bytes_per_row`]) is clamped to a one-row chunk, so the
/// pipeline's actual peak working set exceeds the stated limit by up to
/// `bytes_per_row - 1` bytes.  Callers that must not exceed the limit —
/// the serving layer's admission controller — use
/// [`plan_streaming_checked`], which turns the clamp into a typed
/// [`BudgetError::BelowOneRow`] instead.
pub fn plan_streaming(
    result_rows: usize,
    smaller_tuples: usize,
    smaller_value_width: usize,
    spec: &QuerySpec,
    params: &CacheParams,
    budget: MemoryBudget,
    threads: usize,
) -> StreamingPlan {
    let bytes_per_row = streaming_bytes_per_row(spec);
    let chunk_rows = budget.chunk_rows(result_rows, bytes_per_row);
    let num_chunks = budget.num_chunks(result_rows, bytes_per_row);
    let (cluster_spec, scatter) = plan_partial_cluster(
        smaller_tuples,
        smaller_value_width.max(1),
        OID_PAIR_BYTES,
        params,
    );
    let window = choose_window_bytes(
        VALUE_WIDTH,
        cluster_spec.num_clusters(),
        &params.per_core_share(threads),
    );
    let window_bytes = window.min((chunk_rows * VALUE_WIDTH).max(VALUE_WIDTH));
    StreamingPlan {
        chunk_rows,
        num_chunks,
        window_bytes,
        bytes_per_row,
        cluster_spec,
        scatter,
    }
}

/// The non-clamping form of [`plan_streaming`]: a bounded budget that cannot
/// hold even one resident result row is rejected with
/// [`BudgetError::BelowOneRow`] at plan time, instead of the documented
/// clamp (or, in older code paths, a deep panic once the over-budget chunk
/// tried to allocate).  Everything admissible plans exactly as
/// [`plan_streaming`] does.
pub fn plan_streaming_checked(
    result_rows: usize,
    smaller_tuples: usize,
    smaller_value_width: usize,
    spec: &QuerySpec,
    params: &CacheParams,
    budget: MemoryBudget,
    threads: usize,
) -> Result<StreamingPlan, BudgetError> {
    budget.check_one_row(streaming_bytes_per_row(spec))?;
    Ok(plan_streaming(
        result_rows,
        smaller_tuples,
        smaller_value_width,
        spec,
        params,
        budget,
        threads,
    ))
}

/// Predicted cost (milliseconds on the modeled platform) of the second-side
/// projection phase run *streaming* under `plan`, per Appendix A plus the
/// chunk-restart term of [`cost::streaming_radix_decluster`].
///
/// Comparable with [`predict_projection_cost`]'s `Decluster` second-side
/// term: the difference between them is the price paid for the bounded
/// memory footprint.
pub fn predict_streaming_cost(
    plan: &StreamingPlan,
    smaller_tuples: usize,
    result_tuples: usize,
    spec: &QuerySpec,
    params: &CacheParams,
) -> f64 {
    let smaller_col = DataRegion::new(smaller_tuples, VALUE_WIDTH);
    let join_index = DataRegion::new(result_tuples, 8);
    let bits = plan.cluster_spec.bits;
    let cluster_millis = match plan.scatter {
        ScatterMode::Plain | ScatterMode::Auto => {
            cost::radix_cluster(join_index, bits, plan.cluster_spec.passes, params).millis(params)
        }
        ScatterMode::Buffered => cost::radix_cluster_buffered(
            join_index,
            bits,
            plan.cluster_spec.passes,
            OID_PAIR_BYTES,
            params,
        )
        .millis(params),
    };
    cluster_millis
        + spec.project_smaller as f64
            * (cost::positional_join_clustered(
                result_tuples,
                smaller_col,
                VALUE_WIDTH,
                bits,
                params,
            )
            .millis(params)
                + cost::streaming_radix_decluster(
                    result_tuples,
                    VALUE_WIDTH,
                    bits,
                    plan.window_bytes,
                    plan.num_chunks,
                    params,
                )
                .millis(params))
}

/// The §3.1 cluster-count rule, shared with `RadixClusterSpec::optimal_partial`.
fn optimal_bits(column_tuples: usize, cache_bytes: usize) -> u32 {
    let bytes = column_tuples.saturating_mul(VALUE_WIDTH);
    let mut bits = 0u32;
    while (bytes >> bits) > cache_bytes && bits < 30 {
        bits += 1;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_workload::JoinWorkloadBuilder;

    #[test]
    fn small_relations_plan_unsorted() {
        let w = JoinWorkloadBuilder::equal(5_000, 1).build();
        let params = CacheParams::paper_pentium4();
        let plan = plan_by_cost(&w.larger, &w.smaller, &QuerySpec::symmetric(1), &params);
        assert_eq!(plan.first_side, ProjectionCode::Unsorted);
        assert_eq!(plan.second_side, SecondSideCode::Unsorted);
    }

    #[test]
    fn large_relations_plan_reordering() {
        let w = JoinWorkloadBuilder::equal(4_000_000, 1).build();
        let params = CacheParams::paper_pentium4();
        let plan = plan_by_cost(&w.larger, &w.smaller, &QuerySpec::symmetric(4), &params);
        assert_ne!(plan.first_side, ProjectionCode::Unsorted);
        assert_eq!(plan.second_side, SecondSideCode::Decluster);
    }

    #[test]
    fn predicted_costs_reproduce_fig8_orderings() {
        let params = CacheParams::paper_pentium4();
        let n = 8_000_000;
        let spec_low = QuerySpec::symmetric(1);
        let spec_high = QuerySpec::symmetric(64);
        let price = |first, spec: &QuerySpec| {
            predict_projection_cost(first, SecondSideCode::Unsorted, n, n, n, spec, &params)
        };
        // Large N: unsorted loses to both reordering codes at high π (Fig. 8).
        assert!(
            price(ProjectionCode::Unsorted, &spec_high) > price(ProjectionCode::Sorted, &spec_high)
        );
        assert!(
            price(ProjectionCode::Unsorted, &spec_high)
                > price(ProjectionCode::PartialCluster, &spec_high)
        );
        // At small π, partial-cluster beats full sorting (Fig. 8).
        assert!(
            price(ProjectionCode::PartialCluster, &spec_low)
                < price(ProjectionCode::Sorted, &spec_low)
        );
    }

    #[test]
    fn thread_count_moves_the_planning_knee() {
        // A relation whose columns fit the whole cache but not a per-core
        // share: the single-threaded planner keeps the unsorted code while
        // some higher thread count must switch the second side to decluster.
        let params = CacheParams::paper_pentium4();
        let w = JoinWorkloadBuilder::equal(60_000, 1).build();
        let spec = QuerySpec::symmetric(4);
        let single = plan_by_cost_with_threads(&w.larger, &w.smaller, &spec, &params, 1);
        assert_eq!(single, plan_by_cost(&w.larger, &w.smaller, &spec, &params));
        let plans: Vec<_> = [1usize, 2, 4, 8, 16, 32]
            .iter()
            .map(|&t| plan_by_cost_with_threads(&w.larger, &w.smaller, &spec, &params, t))
            .collect();
        // Planning must stay well-defined at every thread count, and the
        // effective cache only shrinks — once a reordering code is chosen it
        // never reverts to unsorted at higher thread counts.
        let first_reorder = plans
            .iter()
            .position(|p| p.second_side == SecondSideCode::Decluster);
        if let Some(i) = first_reorder {
            for p in &plans[i..] {
                assert_eq!(p.second_side, SecondSideCode::Decluster);
            }
        }
    }

    #[test]
    fn shrinking_budget_raises_chunk_count() {
        let params = CacheParams::paper_pentium4();
        let spec = QuerySpec::symmetric(2);
        let n = 1_000_000;
        let data_bytes = n * streaming_bytes_per_row(&spec);
        let mut last_chunks = 0;
        for denom in [1usize, 4, 16, 64] {
            let plan = plan_streaming(
                n,
                n,
                4,
                &spec,
                &params,
                MemoryBudget::fraction_of(data_bytes, denom),
                1,
            );
            assert!(plan.num_chunks >= last_chunks, "denom {denom}");
            assert!(
                plan.num_chunks >= denom,
                "denom {denom}: {}",
                plan.num_chunks
            );
            assert!(
                plan.max_working_set_bytes() <= data_bytes.div_ceil(denom) + plan.bytes_per_row
            );
            last_chunks = plan.num_chunks;
        }
        // Unbounded budget degenerates to one chunk with the usual window.
        let unbounded = plan_streaming(n, n, 4, &spec, &params, MemoryBudget::unbounded(), 1);
        assert_eq!(unbounded.num_chunks, 1);
        assert_eq!(unbounded.chunk_rows, n);
    }

    #[test]
    fn streaming_window_never_exceeds_the_chunk() {
        let params = CacheParams::paper_pentium4();
        let spec = QuerySpec::symmetric(1);
        let plan = plan_streaming(
            100_000,
            100_000,
            4,
            &spec,
            &params,
            MemoryBudget::bytes(1024),
            1,
        );
        assert!(plan.window_bytes <= plan.chunk_rows * 4);
        assert!(plan.window_bytes >= 4);
        // One-row floor: even absurd budgets make progress.
        let tiny = plan_streaming(100, 100, 4, &spec, &params, MemoryBudget::bytes(1), 1);
        assert_eq!(tiny.chunk_rows, 1);
        assert_eq!(tiny.num_chunks, 100);
    }

    #[test]
    fn degenerate_budget_is_a_typed_error_when_checked_and_a_clamp_otherwise() {
        let params = CacheParams::paper_pentium4();
        let spec = QuerySpec::symmetric(2);
        let floor = streaming_bytes_per_row(&spec);
        assert_eq!(floor, (2 + 2 + 3) * 4);
        // Checked path: one byte below the one-row floor is rejected with the
        // offending numbers attached.
        let err = plan_streaming_checked(
            1_000,
            1_000,
            4,
            &spec,
            &params,
            MemoryBudget::bytes(floor - 1),
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            crate::budget::BudgetError::BelowOneRow {
                budget_bytes: floor - 1,
                bytes_per_row: floor
            }
        );
        // Unchecked path: the same budget clamps to a documented one-row
        // chunking instead of panicking anywhere downstream.
        let clamped = plan_streaming(
            1_000,
            1_000,
            4,
            &spec,
            &params,
            MemoryBudget::bytes(floor - 1),
            1,
        );
        assert_eq!(clamped.chunk_rows, 1);
        assert_eq!(clamped.num_chunks, 1_000);
        // At exactly the floor (and for unbounded budgets) checked == unchecked.
        let at_floor = plan_streaming_checked(
            1_000,
            1_000,
            4,
            &spec,
            &params,
            MemoryBudget::bytes(floor),
            1,
        )
        .unwrap();
        assert_eq!(
            at_floor,
            plan_streaming(
                1_000,
                1_000,
                4,
                &spec,
                &params,
                MemoryBudget::bytes(floor),
                1
            )
        );
        assert!(plan_streaming_checked(
            1_000,
            1_000,
            4,
            &spec,
            &params,
            MemoryBudget::unbounded(),
            1
        )
        .is_ok());
    }

    #[test]
    fn streaming_plan_switches_to_one_buffered_pass_beyond_the_cursor_budget() {
        let params = CacheParams::paper_pentium4();
        let spec = QuerySpec::symmetric(1);
        // Small smaller relation: few clusters, plain scatter, one pass.
        let plain = plan_streaming(
            1_000_000,
            1_000_000,
            4,
            &spec,
            &params,
            MemoryBudget::unbounded(),
            1,
        );
        assert_eq!(plain.scatter, ScatterMode::Plain);
        assert_eq!(plain.cluster_spec.passes, 1);
        // A smaller relation needing 2^12 clusters: beyond the 2048-cursor
        // plain budget, within the write-combining staging budget — the
        // planner now runs ONE buffered pass where the seed rule ran two
        // plain ones, and prices it with the buffered cost term.
        let buffered = plan_streaming(
            1_000_000,
            300_000_000,
            4,
            &spec,
            &params,
            MemoryBudget::unbounded(),
            1,
        );
        assert_eq!(buffered.cluster_spec.bits, 12);
        assert_eq!(buffered.scatter, ScatterMode::Buffered);
        assert_eq!(buffered.cluster_spec.passes, 1);
        // The buffered prediction undercuts the same plan priced as the
        // seed's two plain passes.
        let seed_style = StreamingPlan {
            cluster_spec: RadixClusterSpec {
                passes: 2,
                ..buffered.cluster_spec
            },
            scatter: ScatterMode::Plain,
            ..buffered
        };
        let n = 1_000_000;
        let fast = predict_streaming_cost(&buffered, 300_000_000, n, &spec, &params);
        let slow = predict_streaming_cost(&seed_style, 300_000_000, n, &spec, &params);
        assert!(fast < slow, "buffered {fast} vs seed-style {slow}");
    }

    #[test]
    fn streaming_plan_adapts_to_value_width_and_thread_count() {
        let params = CacheParams::paper_pentium4();
        let spec = QuerySpec::symmetric(1);
        let n = 1_000_000;
        // Wider records (the NSM case) need more radix bits to keep one
        // cluster's slice of the relation cache-resident.
        let narrow = plan_streaming(n, n, 4, &spec, &params, MemoryBudget::unbounded(), 1);
        let wide = plan_streaming(n, n, 64, &spec, &params, MemoryBudget::unbounded(), 1);
        assert!(wide.cluster_spec.bits > narrow.cluster_spec.bits);
        // More concurrent workers shrink the per-worker insertion window
        // (each worker owns only a share of the cache).
        let eight = plan_streaming(n, n, 4, &spec, &params, MemoryBudget::unbounded(), 8);
        assert!(eight.window_bytes < narrow.window_bytes);
    }

    #[test]
    fn streaming_cost_exceeds_monolithic_and_converges() {
        let params = CacheParams::paper_pentium4();
        let spec = QuerySpec::symmetric(1);
        let n = 4_000_000;
        let monolithic = predict_streaming_cost(
            &plan_streaming(n, n, 4, &spec, &params, MemoryBudget::unbounded(), 1),
            n,
            n,
            &spec,
            &params,
        );
        for denom in [4usize, 64] {
            let plan = plan_streaming(
                n,
                n,
                4,
                &spec,
                &params,
                MemoryBudget::fraction_of(n * 4, denom),
                1,
            );
            let streamed = predict_streaming_cost(&plan, n, n, &spec, &params);
            // At the *same* window, chunking never predicts cheaper than one
            // chunk (the restart term is pure overhead)…
            let one_chunk = StreamingPlan {
                chunk_rows: n,
                num_chunks: 1,
                ..plan
            };
            let reference = predict_streaming_cost(&one_chunk, n, n, &spec, &params);
            assert!(
                streamed >= reference,
                "denom {denom}: {streamed} vs {reference}"
            );
            // …and the streaming overhead stays moderate relative to the
            // monolithic run: bounded memory is not an order-of-magnitude
            // regression under the model.  (Cost is not monotone in the
            // budget: shrinking chunks also shrinks the clamped insertion
            // window, which can make the per-insert term cheaper.)
            assert!(
                streamed < monolithic * 10.0,
                "denom {denom}: {streamed} vs {monolithic}"
            );
        }
    }

    /// The engine plans every query at a quarter of the cache
    /// (`max_concurrent = 4`) with one thread.  The join is the same for
    /// every code, so how it is priced must not move the benchmark's plans:
    /// `c/d` for the 1M × 1M `scan_cold` pair at every π, and for every
    /// `mix_budget_wire` tenant whose columns outgrow that share.
    #[test]
    fn benchmark_shapes_keep_their_plans() {
        use ProjectionCode::{PartialCluster as C, Unsorted as U};
        use SecondSideCode::{Decluster as D, Unsorted as Uu};
        let params = CacheParams::paper_pentium4().per_query_share(4);
        let relation = |n: usize| DsmRelation::from_key(rdx_dsm::Column::from_vec(vec![0; n]));
        // (rows per side, width, plan at every π ≤ width): `scan_cold`, then
        // the twelve `mix_budget_wire` tenants.
        let shapes = [
            (1_000_000, 4, (C, D)),
            (200_000, 2, (C, D)),
            (150_000, 4, (C, D)),
            (100_000, 1, (C, D)),
            (80_000, 2, (C, D)),
            (60_000, 4, (C, D)),
            (40_000, 2, (C, Uu)),
            (30_000, 1, (U, Uu)),
            (20_000, 2, (U, Uu)),
            (15_000, 4, (U, Uu)),
            (10_000, 2, (U, Uu)),
            (8_000, 1, (U, Uu)),
            (6_000, 2, (U, Uu)),
        ];
        for (n, width, (first, second)) in shapes {
            let (larger, smaller) = (relation(n), relation(n));
            for pi in 1..=width {
                let spec = QuerySpec::symmetric(pi);
                let plan = plan_by_cost_with_threads(&larger, &smaller, &spec, &params, 1);
                assert_eq!(
                    plan,
                    DsmPostProjection::with_codes(first, second),
                    "n={n} π={pi}"
                );
            }
        }
    }

    #[test]
    fn cost_planner_agrees_with_heuristic_planner_at_the_extremes() {
        let params = CacheParams::paper_pentium4();
        let small = JoinWorkloadBuilder::equal(2_000, 1).build();
        let by_cost = plan_by_cost(
            &small.larger,
            &small.smaller,
            &QuerySpec::symmetric(1),
            &params,
        );
        let heuristic = DsmPostProjection::plan(&small.larger, &small.smaller, &params);
        assert_eq!(by_cost.second_side, heuristic.second_side);
    }

    #[test]
    fn planned_codes_still_produce_correct_results() {
        use crate::strategy::reference::{reference_rows, result_rows};
        let w = JoinWorkloadBuilder::equal(3_000, 2).seed(55).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let plan = plan_by_cost(&w.larger, &w.smaller, &spec, &params);
        let out = plan.execute(&w.larger, &w.smaller, &spec, &params);
        assert_eq!(
            result_rows(&out.result),
            reference_rows(&w.larger, &w.smaller, &spec)
        );
    }
}
