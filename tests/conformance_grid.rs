//! Workspace-wide conformance grid: every strategy — the DSM
//! post-projection's one-chunk and chunked streams on one and on several
//! workers, and the paper's baselines — checked against a brute-force
//! oracle built purely from `rdx_workload::attr_value`, over a sweep of
//! `(N, ω, h, π, cache params, memory budget)` cells, plus a kernel-level
//! `(N, B, window)` sweep of Radix-Decluster itself against a scatter
//! oracle.
//!
//! The oracle never reads the generated relations' attribute columns: since
//! the builders define attribute `a` of row `r` as `attr_value(r, a)`, the
//! expected projected join is computable from the key columns alone.  Any
//! divergence — in the generators or in any strategy — fails the grid.
//!
//! Result-order conventions differ legitimately between strategies, so
//! agreement with the oracle is checked as a sorted multiset of rows; the
//! order is checked separately: every chunked run and every thread count is
//! **byte-identical** (same columns, same row order) to the one-chunk
//! `ProjectionPipeline::materialize` of the same codes on one worker, for
//! budgets down to 1/64 of the data size, with the per-chunk working-set
//! bound asserted.

mod common;

use common::{columns, materialize};
use radix_decluster::core::budget::MemoryBudget;
use radix_decluster::core::cluster::{radix_cluster_oids, RadixClusterSpec};
use radix_decluster::core::decluster::chunks::ChunkCursorState;
use radix_decluster::core::decluster::{radix_decluster, window_elems};
use radix_decluster::core::strategy::reference::result_rows;
use radix_decluster::prelude::*;
use radix_decluster::workload::{attr_value, HitRate, JoinWorkloadBuilder};
use rdx_bench::paper::{
    dsm_pre_projection, nsm_post_projection_decluster, nsm_post_projection_jive,
    nsm_pre_projection_hash, nsm_pre_projection_phash,
};
use std::collections::HashMap;

/// Brute-force oracle: the projected equi-join computed from the key columns
/// and `attr_value` alone, as a sorted multiset of rows.
fn oracle_rows(larger_keys: &[u64], smaller_keys: &[u64], spec: &QuerySpec) -> Vec<Vec<i32>> {
    let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
    for (s, &k) in smaller_keys.iter().enumerate() {
        by_key.entry(k).or_default().push(s);
    }
    let mut rows = Vec::new();
    for (l, &k) in larger_keys.iter().enumerate() {
        if let Some(matches) = by_key.get(&k) {
            for &s in matches {
                let mut row = Vec::with_capacity(spec.total());
                for a in 0..spec.project_larger {
                    row.push(attr_value(l, a));
                }
                for b in 0..spec.project_smaller {
                    row.push(attr_value(s, b));
                }
                rows.push(row);
            }
        }
    }
    rows.sort_unstable();
    rows
}

/// The grid's workload cells: every combination of these axes.
const CARDINALITIES: [usize; 4] = [1, 13, 100, 640];
const HIT_RATES: [f64; 3] = [1.0 / 3.0, 1.0, 3.0];
/// `(ω, π_larger, π_smaller)` triples.
const SHAPES: [(usize, usize, usize); 3] = [(1, 1, 1), (2, 2, 1), (2, 2, 2)];

fn grid_params() -> [CacheParams; 2] {
    [CacheParams::tiny_for_tests(), CacheParams::paper_pentium4()]
}

#[test]
fn all_strategies_agree_with_the_attr_value_oracle() {
    let mut cells = 0usize;
    for n in CARDINALITIES {
        for h in HIT_RATES {
            for (omega, pi_l, pi_s) in SHAPES {
                let w = JoinWorkloadBuilder::equal(n, omega)
                    .hit_rate(HitRate(h))
                    .seed((n as u64) * 31 + (h * 10.0) as u64)
                    .build();
                let spec = QuerySpec {
                    project_larger: pi_l,
                    project_smaller: pi_s,
                };
                let expected =
                    oracle_rows(w.larger.key().as_slice(), w.smaller.key().as_slice(), &spec);
                assert_eq!(expected.len(), w.expected_matches, "N={n} h={h}");
                for params in grid_params() {
                    let cell = format!("N={n} h={h} ω={omega} π=({pi_l},{pi_s})");
                    // DSM post-projection: every u/s/c × u/d code combination,
                    // one chunk on one worker.
                    let sequential = ExecPolicy::with_threads(1);
                    for first in [
                        ProjectionCode::Unsorted,
                        ProjectionCode::Sorted,
                        ProjectionCode::PartialCluster,
                    ] {
                        for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
                            let plan = DsmPostProjection::with_codes(first, second);
                            let (out, _) = materialize(
                                plan,
                                &w.larger,
                                &w.smaller,
                                &spec,
                                &params,
                                &sequential,
                            );
                            assert_eq!(
                                result_rows(&out),
                                expected,
                                "{cell} dsm_post {}",
                                plan.label()
                            );
                        }
                    }
                    // DSM pre-projection.
                    let out = dsm_pre_projection(&w.larger, &w.smaller, &spec, &params).unwrap();
                    assert_eq!(result_rows(&out.result), expected, "{cell} dsm_pre");
                    // NSM post-projection (Radix-Decluster and Jive-Join).
                    let out = nsm_post_projection_decluster(
                        &w.larger_nsm,
                        &w.smaller_nsm,
                        &spec,
                        &params,
                    )
                    .unwrap();
                    assert_eq!(
                        result_rows(&out.result),
                        expected,
                        "{cell} nsm_post_decluster"
                    );
                    let out =
                        nsm_post_projection_jive(&w.larger_nsm, &w.smaller_nsm, &spec, &params)
                            .unwrap();
                    assert_eq!(result_rows(&out.result), expected, "{cell} nsm_post_jive");
                    // NSM pre-projection (naive and partitioned hash join).
                    let out =
                        nsm_pre_projection_hash(&w.larger_nsm, &w.smaller_nsm, &spec).unwrap();
                    assert_eq!(result_rows(&out.result), expected, "{cell} nsm_pre_hash");
                    let out =
                        nsm_pre_projection_phash(&w.larger_nsm, &w.smaller_nsm, &spec, &params)
                            .unwrap();
                    assert_eq!(result_rows(&out.result), expected, "{cell} nsm_pre_phash");
                    // The planned codes on several workers, including the
                    // threads = 0 (auto-detect) policy.
                    let plan = DsmPostProjection::plan(&w.larger, &w.smaller, &params);
                    for threads in [0usize, 3] {
                        let policy = ExecPolicy::with_threads(threads);
                        let (out, _) =
                            materialize(plan, &w.larger, &w.smaller, &spec, &params, &policy);
                        assert_eq!(
                            result_rows(&out),
                            expected,
                            "{cell} par_dsm threads={threads}"
                        );
                    }
                    // Streaming pipeline, tightest budget (byte-identity is
                    // covered exhaustively by the dedicated test below).
                    let c_d = DsmPostProjection::with_codes(
                        ProjectionCode::PartialCluster,
                        SecondSideCode::Decluster,
                    );
                    let data_bytes = 2 * n * omega * 4;
                    let policy = ExecPolicy::with_threads(2)
                        .budget(MemoryBudget::fraction_of(data_bytes, 64));
                    let (out, _) = materialize(c_d, &w.larger, &w.smaller, &spec, &params, &policy);
                    assert_eq!(result_rows(&out), expected, "{cell} streaming");
                    cells += 1;
                }
            }
        }
    }
    // The grid really swept every cell (axes silently shrinking would pass
    // vacuously otherwise).
    assert_eq!(
        cells,
        CARDINALITIES.len() * HIT_RATES.len() * SHAPES.len() * grid_params().len()
    );
}

/// The acceptance gate: every chunked run, on one and on two workers, is
/// byte-identical — same columns, same row order — to the one-chunk
/// `ProjectionPipeline::materialize` on one worker, which is itself the
/// oracle's multiset, for every code combination and budgets down to 1/64 of
/// the data size, with the per-chunk working-set bound asserted.
#[test]
fn streaming_pipeline_is_byte_identical_to_dsm_post_across_the_grid() {
    for n in [13usize, 257, 1_000] {
        for (omega, pi_l, pi_s) in SHAPES {
            let w = JoinWorkloadBuilder::equal(n, omega)
                .hit_rate(HitRate(1.0))
                .seed(n as u64)
                .build();
            let spec = QuerySpec {
                project_larger: pi_l,
                project_smaller: pi_s,
            };
            let params = CacheParams::tiny_for_tests();
            let data_bytes = 2 * n * omega * 4;
            for first in [
                ProjectionCode::Unsorted,
                ProjectionCode::Sorted,
                ProjectionCode::PartialCluster,
            ] {
                for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
                    let plan = DsmPostProjection::with_codes(first, second);
                    let sequential = ExecPolicy::with_threads(1);
                    let (one_chunk, stats) =
                        materialize(plan, &w.larger, &w.smaller, &spec, &params, &sequential);
                    assert_eq!(stats.chunks_emitted, 1, "N={n} {}", plan.label());
                    assert_eq!(
                        result_rows(&one_chunk),
                        oracle_rows(w.larger.key().as_slice(), w.smaller.key().as_slice(), &spec),
                        "N={n} ω={omega} codes {}",
                        plan.label()
                    );
                    let expected = columns(&one_chunk);
                    for denom in [1usize, 16, 64] {
                        for threads in [1usize, 2] {
                            let policy = ExecPolicy::with_threads(threads)
                                .budget(MemoryBudget::fraction_of(data_bytes, denom));
                            let (out, stats) =
                                materialize(plan, &w.larger, &w.smaller, &spec, &params, &policy);
                            assert_eq!(
                                columns(&out),
                                expected,
                                "N={n} ω={omega} codes {} denom {denom} threads {threads}",
                                plan.label()
                            );
                            // Per-chunk working-set bound: the measured peak
                            // never exceeds what the plan admits, and stays
                            // within the budget whenever the budget can hold
                            // at least one row.
                            assert!(
                                stats.peak_chunk_bytes <= stats.streaming.max_working_set_bytes(),
                                "N={n} denom {denom}: peak {} > bound {}",
                                stats.peak_chunk_bytes,
                                stats.streaming.max_working_set_bytes()
                            );
                            // The plan is what runs: the chunking fixed at
                            // `PipelineRun::new` is the chunking emitted.
                            assert_eq!(
                                stats.chunks_emitted, stats.streaming.num_chunks,
                                "N={n} denom {denom}: emitted chunks drifted from the plan"
                            );
                            let budget = data_bytes / denom;
                            if denom > 1 && budget >= stats.streaming.bytes_per_row {
                                assert!(
                                    stats.peak_chunk_bytes <= budget,
                                    "N={n} denom {denom}: peak {} > budget {budget}",
                                    stats.peak_chunk_bytes
                                );
                                assert!(
                                    stats.chunks_emitted > 1,
                                    "N={n} denom {denom} never chunked"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Kernel-level `(N, B, window)` conformance: Radix-Decluster — monolithic
/// and chunk-streamed — against the brute-force scatter oracle, including
/// windows smaller than one value and larger than the input.
#[test]
fn decluster_kernel_grid_matches_scatter_oracle() {
    for n in [1usize, 7, 64, 1_000] {
        for bits in [0u32, 2, 5, 8] {
            // A deterministic pseudo-shuffled smaller-oid assignment.
            let smaller: Vec<Oid> = (0..n as Oid)
                .map(|r| (r.wrapping_mul(2_654_435_761)) % n as Oid)
                .collect();
            let positions: Vec<Oid> = (0..n as Oid).collect();
            let clustered =
                radix_cluster_oids(&smaller, &positions, RadixClusterSpec::single_pass(bits));
            let values: Vec<i32> = clustered
                .keys()
                .iter()
                .map(|&o| o as i32 * 13 + 1)
                .collect();
            // Scatter oracle: out[positions[i]] = values[i].
            let mut expected = vec![0i32; n];
            for (i, &p) in clustered.payloads().iter().enumerate() {
                expected[p as usize] = values[i];
            }
            for window_bytes in [1usize, 4, 64, 1 << 20] {
                let got = radix_decluster(
                    &values,
                    clustered.payloads(),
                    clustered.bounds(),
                    window_bytes,
                );
                assert_eq!(got, expected, "n={n} B={bits} window={window_bytes}");
                // Chunk-streamed: same kernel over ChunkCursorState chunks,
                // each chunk's runs read in place.
                for chunk_rows in [1usize, 3, 50, n] {
                    let positions = clustered.payloads();
                    let mut cursors = ChunkCursorState::new(clustered.bounds());
                    let mut scratch = DeclusterScratch::new();
                    let mut streamed = vec![i32::MIN; n];
                    while !cursors.is_done(n) {
                        let chunk = cursors.next_chunk(positions, cursors.consumed() + chunk_rows);
                        let staged: Vec<i32> = chunk
                            .runs
                            .iter()
                            .flat_map(|r| values[r.clone()].iter().copied())
                            .collect();
                        radix_decluster_windows_with_scratch(
                            &staged,
                            positions,
                            &chunk,
                            chunk.result_range.start,
                            window_elems(window_bytes, 4),
                            &mut scratch,
                            &mut streamed[chunk.result_range.clone()],
                            &mut NoProbe,
                        );
                    }
                    assert_eq!(
                        streamed, expected,
                        "n={n} B={bits} window={window_bytes} chunk={chunk_rows}"
                    );
                }
            }
        }
    }
}
