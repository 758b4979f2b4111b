//! A cost-model-driven planner for the DSM post-projection codes.
//!
//! §4.1 ends with the observation that which projection strategy is cheapest
//! "depends on the number of projection columns in both relations, the data
//! types in these projection columns, and the number of tuples in both input
//! relations", and §1.1 motivates the Appendix-A cost models precisely as the
//! tool to "draw conclusions on their optimal parameter settings".  This
//! module closes that loop.  [`predict_cost`] is the one Appendix-A price of
//! a plan: the `u/s/c × u/d` codes a run executes, streamed under its
//! [`StreamingPlan`].  The planner prices every code combination with it at
//! the one-chunk plan and picks the cheapest, adapting to π, N and the cache
//! parameters instead of using only the fits-in-cache rule of
//! [`DsmPostProjection::plan`]; the serving engine prices the chosen plan
//! with the same function for its deadline check and its work-left
//! dispatch key.

use crate::budget::MemoryBudget;
use crate::cluster::{plan_partial_cluster, radix_sort_spec_for, RadixClusterSpec};
use crate::decluster::choose_window_bytes;
use crate::strategy::common::{ProjectionCode, SecondSideCode};
use crate::strategy::{DsmPostProjection, QuerySpec};
use rdx_cache::CacheParams;
use rdx_cost::algorithms as cost;
use rdx_cost::{DataRegion, PatternCost};
use rdx_dsm::{DsmRelation, VALUE_WIDTH};

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
    // paper's h = 1 default.  A whole result is the one-chunk stream.
    let (larger_rows, smaller_rows) = (larger.cardinality(), smaller.cardinality());
    let whole = plan_streaming(
        larger_rows,
        smaller_rows,
        spec,
        params,
        MemoryBudget::unbounded(),
        1,
    );
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
            let codes = DsmPostProjection::with_codes(first, second);
            let predicted = predict_cost(
                codes,
                &whole,
                larger_rows,
                smaller_rows,
                larger_rows,
                params,
            )
            .total(spec);
            if predicted < best.0 {
                best = (predicted, codes);
            }
        }
    }
    best.1
}

/// The bytes a chunk budget is charged per result row: the row's cell in
/// each of the `π` output columns the chunk writes, plus its staged
/// clustered value.  The output cells are the sink's memory — whole-result
/// columns or a `Done` frame, lent per column — so the chunk itself holds
/// only the staged 4 B per row; every chunk, whole-result or partial, reads
/// the prefix's clustered oids and result positions in place, so they cost
/// it nothing.
///
/// This is the `bytes_per_row` the chunk-count rule divides the
/// [`MemoryBudget`] by — the analogue of `per_core_share` dividing the cache.
pub fn streaming_bytes_per_row(spec: &QuerySpec) -> usize {
    (spec.total() + 1) * VALUE_WIDTH
}

/// The chunking a [`MemoryBudget`] imposes on a streaming projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingPlan {
    /// Result rows per chunk (`≥ 1`).
    pub chunk_rows: usize,
    /// Number of row chunks the result splits into (`≥ 1`).
    pub num_chunks: usize,
    /// Insertion-window size `‖W‖` for the per-chunk declusters, clamped to
    /// never exceed one chunk's output.
    pub window_bytes: usize,
    /// Bytes charged per in-flight result row (see
    /// [`streaming_bytes_per_row`]).
    pub bytes_per_row: usize,
    /// The second-side partial clustering the chunks stream over — the
    /// single source of truth shared by the executor (which runs it) and
    /// [`predict_cost`] (which prices it), so the two can never drift
    /// apart.
    pub cluster_spec: RadixClusterSpec,
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
/// 4-byte integer columns, declustered by `threads` concurrent workers,
/// under `budget`.
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
/// the serving layer's admission controller — first call
/// [`MemoryBudget::check_one_row`], which turns the clamp into a typed
/// [`BudgetError::BelowOneRow`](crate::budget::BudgetError::BelowOneRow)
/// instead.
pub fn plan_streaming(
    result_rows: usize,
    smaller_tuples: usize,
    spec: &QuerySpec,
    params: &CacheParams,
    budget: MemoryBudget,
    threads: usize,
) -> StreamingPlan {
    let bytes_per_row = streaming_bytes_per_row(spec);
    let chunk_rows = budget.chunk_rows(result_rows, bytes_per_row);
    let num_chunks = budget.num_chunks(result_rows, bytes_per_row);
    let cluster_spec = plan_partial_cluster(smaller_tuples, VALUE_WIDTH, params);
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
    }
}

/// The predicted cost (milliseconds on the modeled platform) of a DSM
/// post-projection's projection phase, split the way a run spends it: each
/// side's reordering, paid once, and one projected column of each side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanPrice {
    /// The first side's reordering (`s`/`c`; 0 under `u`).
    pub first_reorder: f64,
    /// One first-side column: its positional join.
    pub first_column: f64,
    /// The second side's partial Radix-Cluster (`d`; 0 under `u`).
    pub second_reorder: f64,
    /// One second-side column: its positional join and, under `d`, its
    /// decluster.
    pub second_column: f64,
}

impl PlanPrice {
    /// The whole projection phase of `spec`.
    pub fn total(&self, spec: &QuerySpec) -> f64 {
        (self.first_reorder + spec.project_larger as f64 * self.first_column)
            + (self.second_reorder + spec.project_smaller as f64 * self.second_column)
    }
}

/// The [`PlanPrice`] of a DSM post-projection running `codes`, streamed
/// under `plan`: the one Appendix-A price of a plan.  The planner takes the
/// arg-min of its total at the one-chunk plan; the serving engine prices
/// the chosen codes with it for the deadline check, the dispatch key and
/// the observed-vs-predicted metric.
///
/// The first side is priced by its `u`/`s`/`c` code; the second by `u`, or
/// by `d` at the plan's cluster spec, window and chunk count
/// ([`cost::streaming_radix_decluster`]).  The join phase is identical for
/// every code combination, so it is omitted.
pub fn predict_cost(
    codes: DsmPostProjection,
    plan: &StreamingPlan,
    larger_rows: usize,
    smaller_rows: usize,
    result_rows: usize,
    params: &CacheParams,
) -> PlanPrice {
    let ms = |pattern: PatternCost| pattern.millis(params);
    let n = result_rows;
    let join_index = DataRegion::new(n, 8);
    let cluster =
        |spec: RadixClusterSpec| ms(cost::radix_cluster(join_index, spec.pass_bits(), params));
    let unsorted = |col| ms(cost::positional_join_unsorted(n, col, VALUE_WIDTH, params));
    let clustered = |col, b| {
        ms(cost::positional_join_clustered(
            n,
            col,
            VALUE_WIDTH,
            b,
            params,
        ))
    };

    // Each side: (reordering cost, cost per projected column).
    let larger = DataRegion::new(larger_rows, VALUE_WIDTH);
    let (first_reorder, first_column) = match codes.first_side {
        ProjectionCode::Unsorted => (0.0, unsorted(larger)),
        ProjectionCode::Sorted => {
            let s = radix_sort_spec_for(larger_rows, params);
            let sorted = cost::positional_join_sorted(n, larger, VALUE_WIDTH, params);
            (cluster(s), ms(sorted))
        }
        ProjectionCode::PartialCluster => {
            let c = plan_partial_cluster(larger_rows, VALUE_WIDTH, params);
            (cluster(c), clustered(larger, c.bits))
        }
    };
    let smaller = DataRegion::new(smaller_rows, VALUE_WIDTH);
    let (second_reorder, second_column) = match codes.second_side {
        SecondSideCode::Unsorted => (0.0, unsorted(smaller)),
        SecondSideCode::Decluster => {
            let c = plan.cluster_spec;
            let decluster = cost::streaming_radix_decluster(
                n,
                VALUE_WIDTH,
                c.bits,
                plan.window_bytes,
                plan.num_chunks,
                params,
            );
            (cluster(c), clustered(smaller, c.bits) + ms(decluster))
        }
    };
    PlanPrice {
        first_reorder,
        first_column,
        second_reorder,
        second_column,
    }
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
        let whole =
            |spec: &QuerySpec| plan_streaming(n, n, spec, &params, MemoryBudget::unbounded(), 1);
        let price = |first, spec: &QuerySpec| {
            let codes = DsmPostProjection::with_codes(first, SecondSideCode::Unsorted);
            predict_cost(codes, &whole(spec), n, n, n, &params).total(spec)
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
        let unbounded = plan_streaming(n, n, &spec, &params, MemoryBudget::unbounded(), 1);
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
            &spec,
            &params,
            MemoryBudget::bytes(1024),
            1,
        );
        assert!(plan.window_bytes <= plan.chunk_rows * 4);
        assert!(plan.window_bytes >= 4);
        // One-row floor: even absurd budgets make progress.
        let tiny = plan_streaming(100, 100, &spec, &params, MemoryBudget::bytes(1), 1);
        assert_eq!(tiny.chunk_rows, 1);
        assert_eq!(tiny.num_chunks, 100);
    }

    #[test]
    fn degenerate_budget_clamps_to_a_one_row_chunking() {
        let params = CacheParams::paper_pentium4();
        let spec = QuerySpec::symmetric(2);
        let floor = streaming_bytes_per_row(&spec);
        assert_eq!(floor, (2 + 2 + 1) * 4);
        // One byte below the one-row floor clamps to a documented one-row
        // chunking instead of panicking anywhere downstream.
        let clamped = plan_streaming(
            1_000,
            1_000,
            &spec,
            &params,
            MemoryBudget::bytes(floor - 1),
            1,
        );
        assert_eq!(clamped.chunk_rows, 1);
        assert_eq!(clamped.num_chunks, 1_000);
    }

    #[test]
    fn streaming_plan_adapts_to_thread_count() {
        let params = CacheParams::paper_pentium4();
        let spec = QuerySpec::symmetric(1);
        let n = 1_000_000;
        let one = plan_streaming(n, n, &spec, &params, MemoryBudget::unbounded(), 1);
        // More concurrent workers shrink the per-worker insertion window
        // (each worker owns only a share of the cache).
        let eight = plan_streaming(n, n, &spec, &params, MemoryBudget::unbounded(), 8);
        assert!(eight.window_bytes < one.window_bytes);
    }

    #[test]
    fn streaming_cost_exceeds_monolithic_and_converges() {
        let params = CacheParams::paper_pentium4();
        let spec = QuerySpec::symmetric(1);
        let n = 4_000_000;
        let codes =
            DsmPostProjection::with_codes(ProjectionCode::Unsorted, SecondSideCode::Decluster);
        let price = |plan: &StreamingPlan| predict_cost(codes, plan, n, n, n, &params).total(&spec);
        let monolithic = price(&plan_streaming(
            n,
            n,
            &spec,
            &params,
            MemoryBudget::unbounded(),
            1,
        ));
        for denom in [4usize, 64] {
            let plan = plan_streaming(
                n,
                n,
                &spec,
                &params,
                MemoryBudget::fraction_of(n * 4, denom),
                1,
            );
            let streamed = price(&plan);
            // At the *same* window, chunking never predicts cheaper than one
            // chunk (the restart term is pure overhead)…
            let one_chunk = StreamingPlan {
                chunk_rows: n,
                num_chunks: 1,
                ..plan
            };
            let reference = price(&one_chunk);
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
        use crate::join::{join_cluster_spec, join_passes};
        use ProjectionCode::{PartialCluster as C, Unsorted as U};
        use SecondSideCode::{Decluster as D, Unsorted as Uu};
        let params = CacheParams::paper_pentium4().per_query_share(4);
        let relation = |n: usize| DsmRelation::from_key(rdx_dsm::Column::from_vec(vec![0; n]));
        // (rows per side, width, plan at every π ≤ width, the one-pass
        // partial clustering of either side as (bits, ignore), the join's
        // one-pass first pass as (bits, ignore), its ignore bits being what
        // the in-cache split takes): `scan_cold`, then the twelve
        // `mix_budget_wire` tenants.
        let shapes = [
            (1_000_000, 4, (C, D), (5, 15), (5, 2)),
            (200_000, 2, (C, D), (3, 15), (5, 0)),
            (150_000, 4, (C, D), (3, 15), (4, 0)),
            (100_000, 1, (C, D), (2, 15), (4, 0)),
            (80_000, 2, (C, D), (2, 15), (3, 0)),
            (60_000, 4, (C, D), (1, 15), (3, 0)),
            (40_000, 2, (C, Uu), (1, 15), (2, 0)),
            (30_000, 1, (U, Uu), (0, 15), (2, 0)),
            (20_000, 2, (U, Uu), (0, 15), (1, 0)),
            (15_000, 4, (U, Uu), (0, 14), (1, 0)),
            (10_000, 2, (U, Uu), (0, 14), (0, 0)),
            (8_000, 1, (U, Uu), (0, 13), (0, 0)),
            (6_000, 2, (U, Uu), (0, 13), (0, 0)),
        ];
        for (n, width, (first, second), (bits, ignore), (join_bits, split_bits)) in shapes {
            let (larger, smaller) = (relation(n), relation(n));
            for pi in 1..=width {
                let spec = QuerySpec::symmetric(pi);
                let plan = plan_by_cost_with_threads(&larger, &smaller, &spec, &params, 1);
                assert_eq!(
                    plan,
                    DsmPostProjection::with_codes(first, second),
                    "n={n} π={pi}"
                );
                let cluster = RadixClusterSpec::partial(bits, 1, ignore);
                let unbounded = MemoryBudget::unbounded();
                let streaming = plan_streaming(n, n, &spec, &params, unbounded, 1);
                assert_eq!(streaming.cluster_spec, cluster, "`d` side, n={n} π={pi}");
                assert_eq!(
                    plan_partial_cluster(n, VALUE_WIDTH, &params),
                    cluster,
                    "`c` side"
                );
            }
            let [join, _] = join_passes(join_cluster_spec(n, params.cache_capacity()));
            assert_eq!(
                join,
                RadixClusterSpec::partial(join_bits, 1, split_bits),
                "n={n}"
            );
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
}
