//! The `rdx-exec` agreement suite: every parallel kernel must be
//! **byte-identical** to its sequential reference, and the one materialise
//! entry on `threads` workers to itself on one worker, for every thread
//! count.
//!
//! Parallelism here is pure work division — per-thread histograms merge with
//! a prefix sum, decluster windows tile the result disjointly, partitions
//! join independently — so there is no tolerance to grant: any divergence,
//! down to a single byte, is a scheduling bug (lost morsel, overlapping
//! shard, unstable merge order).

use radix_decluster::core::cluster::{radix_cluster_oids, RadixClusterSpec};
use radix_decluster::core::decluster::{choose_window_bytes, radix_decluster};
use radix_decluster::core::positional::OidBlock;
use radix_decluster::core::strategy::reference::{reference_rows, result_rows};
use radix_decluster::dsm::FromValue;
use radix_decluster::exec::{par_gather_into, par_radix_cluster_oids, WorkerPanic};
use radix_decluster::prelude::*;
use radix_decluster::workload::HitRate;
use rdx_bench::measure::par_decluster_whole;
use rdx_bench::paper::nsm_post_projection_decluster;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A deterministic skewed oid multiset: ~60% of the draws collapse onto a
/// handful of hot oids, the rest spread over the whole domain.
fn skewed_oids(n: usize, domain: usize, seed: u64) -> Vec<Oid> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n)
        .map(|_| {
            let r = next();
            if r % 5 < 3 {
                (r % 7) as Oid
            } else {
                (r % domain as u64) as Oid
            }
        })
        .collect()
}

#[test]
fn parallel_cluster_agrees_on_skewed_keys() {
    let oids = skewed_oids(30_000, 30_000, 11);
    let payloads: Vec<u32> = (0..oids.len() as u32).collect();
    for spec in [
        RadixClusterSpec::single_pass(0),
        RadixClusterSpec::single_pass(6),
        RadixClusterSpec::partial(8, 2, 3),
        RadixClusterSpec::partial(11, 3, 0),
    ] {
        let expected = radix_cluster_oids(&oids, &payloads, spec);
        for threads in THREAD_COUNTS {
            let got =
                par_radix_cluster_oids(&oids, &payloads, spec, &ExecPolicy::with_threads(threads));
            assert_eq!(
                got, expected,
                "cluster diverged: bits={} passes={} ignore={} threads={threads}",
                spec.bits, spec.passes, spec.ignore
            );
        }
    }
}

#[test]
fn parallel_decluster_agrees_for_every_window_and_thread_count() {
    let n = 50_000;
    let mut smaller: Vec<Oid> = (0..n as Oid).collect();
    // Deterministic permutation via multiplicative stepping.
    smaller.rotate_left(n / 3);
    smaller.reverse();
    let positions: Vec<Oid> = (0..n as Oid).collect();
    let clustered = radix_cluster_oids(&smaller, &positions, RadixClusterSpec::single_pass(7));
    let values: Vec<i32> = clustered.keys().iter().map(|&o| o as i32 * 3 + 1).collect();

    let params = CacheParams::tiny_for_tests();
    let windows = [
        64usize,
        choose_window_bytes(4, 128, &params),
        1 << 22, // one giant window: degenerates to a scatter
    ];
    for window in windows {
        let expected = radix_decluster(&values, clustered.payloads(), clustered.bounds(), window);
        for threads in THREAD_COUNTS {
            let got = par_decluster_whole(
                &values,
                clustered.payloads(),
                clustered.bounds(),
                window,
                &ExecPolicy::with_threads(threads),
            );
            assert_eq!(
                got, expected,
                "decluster diverged: window={window} threads={threads}"
            );
        }
    }
}

#[test]
fn parallel_dsm_strategy_agrees_across_workloads() {
    let params = CacheParams::tiny_for_tests();
    for (n, pi, hit_rate, seed) in [
        (4_000usize, 1usize, 1.0f64, 31u64),
        (3_000, 4, 1.0 / 3.0, 32),
        (2_000, 8, 3.0, 33),
    ] {
        let w = JoinWorkloadBuilder::equal(n, pi)
            .hit_rate(HitRate(hit_rate))
            .seed(seed)
            .build();
        let spec = QuerySpec::symmetric(pi);
        let expected = reference_rows(&w.larger, &w.smaller, &spec);
        for first in [
            ProjectionCode::Unsorted,
            ProjectionCode::Sorted,
            ProjectionCode::PartialCluster,
        ] {
            for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
                let pipeline =
                    ProjectionPipeline::new(DsmPostProjection::with_codes(first, second));
                let plan = pipeline.plan;
                let materialize = |threads| {
                    let policy = ExecPolicy::with_threads(threads);
                    let (out, _) = pipeline
                        .materialize(&w.larger, &w.smaller, &spec, &params, &policy)
                        .unwrap();
                    out
                };
                let seq = materialize(1);
                assert_eq!(
                    result_rows(&seq.result),
                    expected,
                    "sequential {} wrong",
                    plan.label()
                );
                for threads in THREAD_COUNTS {
                    let par = materialize(threads);
                    // Byte-identical: same columns in the same row order,
                    // not merely the same multiset of rows.
                    for (c, (seq_col, par_col)) in seq
                        .result
                        .columns()
                        .iter()
                        .zip(par.result.columns())
                        .enumerate()
                    {
                        assert_eq!(
                            seq_col.as_slice(),
                            par_col.as_slice(),
                            "codes {} column {c} threads {threads} n={n} pi={pi} h={hit_rate}",
                            plan.label()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_nsm_strategy_agrees() {
    let params = CacheParams::tiny_for_tests();
    for (pi, hit_rate) in [(1usize, 1.0f64), (2, 1.0 / 3.0)] {
        let w = JoinWorkloadBuilder::equal(1_500, 3)
            .hit_rate(HitRate(hit_rate))
            .seed(77)
            .build();
        let spec = QuerySpec::symmetric(pi);
        let expected = reference_rows(&w.larger, &w.smaller, &spec);
        let seq =
            nsm_post_projection_decluster(&w.larger_nsm, &w.smaller_nsm, &spec, &params).unwrap();
        assert_eq!(result_rows(&seq.result), expected, "NSM-post-decluster");
    }
}

#[test]
fn planned_parallel_execution_is_correct_end_to_end() {
    // The threads-aware planner + materialise path a caller would use.
    use radix_decluster::core::strategy::planner::plan_by_cost_with_threads;
    let params = CacheParams::tiny_for_tests();
    let w = JoinWorkloadBuilder::equal(5_000, 2).seed(99).build();
    let spec = QuerySpec::symmetric(2);
    let expected = reference_rows(&w.larger, &w.smaller, &spec);
    for threads in THREAD_COUNTS {
        let plan = plan_by_cost_with_threads(&w.larger, &w.smaller, &spec, &params, threads);
        let (out, _) = ProjectionPipeline::new(plan)
            .materialize(
                &w.larger,
                &w.smaller,
                &spec,
                &params,
                &ExecPolicy::with_threads(threads),
            )
            .unwrap();
        assert_eq!(result_rows(&out.result), expected, "threads {threads}");
        assert_eq!(out.result.cardinality(), w.expected_matches);
    }
}

/// A result cell that trips — panics — when built from [`TRIPWIRE`].
#[derive(Clone, Copy)]
struct Tripwire;

const TRIPWIRE: i32 = 40_000;

impl FromValue<i32> for Tripwire {
    fn from_value(value: i32) -> Self {
        assert_ne!(value, TRIPWIRE, "tripwire");
        Tripwire
    }
}

/// A worker that crashes inside a parallel kernel unwinds to the caller as
/// a `WorkerPanic` naming one of the kernel's workers — the payload the
/// serving engine turns into `RdxError::WorkerPanicked` for that query
/// alone — from the decluster's window groups and the gather's morsels
/// alike.
#[test]
fn a_crashed_worker_unwinds_as_worker_panic_from_every_kernel() {
    let n = 50_000;
    let policy = ExecPolicy::with_threads(2);
    let worker_of = |kernel: &dyn Fn(&mut [Tripwire])| {
        let mut out = vec![Tripwire; n];
        let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel(&mut out)))
            .expect_err("a worker built the tripwire cell");
        unwind.downcast_ref::<WorkerPanic>().map(|wp| wp.worker)
    };

    // Each row's value is its result position, so row 40 000 trips.
    let mut smaller: Vec<Oid> = (0..n as Oid).collect();
    smaller.reverse();
    let positions: Vec<Oid> = (0..n as Oid).collect();
    let clustered = radix_cluster_oids(&smaller, &positions, RadixClusterSpec::single_pass(5));
    let values: Vec<i32> = clustered.payloads().iter().map(|&p| p as i32).collect();
    let decluster = |out: &mut [Tripwire]| {
        par_radix_decluster_into(
            &values,
            clustered.payloads(),
            &ChunkRuns::whole(clustered.bounds()),
            256,
            &policy,
            &mut DeclusterScratch::new(),
            out,
            &mut NoProbe,
        )
    };
    assert!(
        matches!(worker_of(&decluster), Some(w) if w < 2),
        "decluster"
    );

    // A gather of one column over every oid, several morsels long.
    let relation = DsmRelation::new(
        Column::from_vec((0..n as u64).collect()),
        vec![Column::from_vec((0..n as i32).collect())],
    );
    let gather = |out: &mut [Tripwire]| {
        par_gather_into(
            &relation,
            0,
            OidBlock::Wide(&positions),
            &policy,
            out,
            &mut NoProbe,
        )
    };
    assert!(matches!(worker_of(&gather), Some(w) if w < 2), "gather");
}
