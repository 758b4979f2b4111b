//! Serving-layer conformance: concurrency must be *invisible* in the bytes.
//!
//! The grid runs K-query mixes through the `rdx-serve` scheduler and checks,
//! for every query, that the interleaved execution produces output
//! byte-identical to serial execution — across thread counts (including the
//! auto-detect `threads = 0`), two scheduler interleavings (equal and
//! skewed priorities), and both the
//! cache-miss (cold) and cache-hit (warm) paths of the clustered-index
//! cache.  It also asserts the admission guarantee: the sum of concurrent
//! working-set bounds never exceeds the global `MemoryBudget`.

mod common;

use common::{register_mix, result_columns, serve_all};
use radix_decluster::prelude::*;

/// A small multi-tenant mix: one scan-ish tenant, three lookup-ish ones,
/// zipfian popularity, mixed π and budget hints.
fn mix() -> QueryMix {
    QueryMix::generate(&MixConfig {
        tenants: vec![(4_000, 2), (2_000, 1), (1_000, 2), (500, 1)],
        queries: 12,
        zipf_exponent: 1.0,
        seed: 23,
        ..MixConfig::default()
    })
}

fn config(
    budget: MemoryBudget,
    max_concurrent: usize,
    threads: usize,
    cache: usize,
) -> ServeConfig {
    ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: budget,
        max_concurrent,
        threads_per_query: threads,
        cache_bytes: cache,
        // Pin the planning share so serial and concurrent servers choose
        // identical plans/cluster specs — the grid then compares pure
        // scheduling, never plan drift.
        plan_shares: Some(4),
        observability: false,
        ..ServeConfig::default()
    }
}

#[test]
fn concurrent_equals_serial_across_threads_and_fairness() {
    let mix = mix();
    let budget = MemoryBudget::bytes(64 * 1024);
    for threads in [0usize, 1, 2] {
        // The serial oracle at this thread count: one query at a time,
        // cache disabled.  (Plans adapt to the worker count, so the oracle
        // must run on the same one; `plan_shares` is pinned by `config`.)
        let mut serial = QueryEngine::new(config(budget, 1, threads, 0));
        let serial_requests = register_mix(&mut serial, &mix, true);
        let expected = result_columns(&serve_all(&mut serial, &serial_requests));
        assert_eq!(serial.stats().peak_concurrency, 1);
        assert_eq!(serial.cache_stats().hits, 0);

        // Two interleavings of the same mix: equal priorities, then skewed
        // ones (1, 2, 4, 8 in submission order), which reorder the stride
        // scheduler's dispatches and must not move a result byte.
        let mut chunk_orders = Vec::new();
        for skewed in [false, true] {
            let mut cfg = config(budget, 4, threads, 1 << 20);
            cfg.observability = true;
            let mut engine = QueryEngine::new(cfg);
            let mut requests = register_mix(&mut engine, &mix, true);
            if skewed {
                for (i, request) in requests.iter_mut().enumerate() {
                    request.priority = 1 << (i % 4);
                }
            }
            let outcomes = serve_all(&mut engine, &requests);
            assert_eq!(
                result_columns(&outcomes),
                expected,
                "threads {threads} skewed priorities {skewed}"
            );
            let trace = engine.obs().trace_snapshot().expect("observability is on");
            chunk_orders.push(
                trace
                    .events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::ChunkStep { .. }))
                    .map(|e| e.query)
                    .collect::<Vec<_>>(),
            );
            // Genuinely concurrent, and interleaved at chunk granularity.
            let stats = engine.stats();
            assert!(stats.peak_concurrency > 1, "threads {threads}");
            assert!(stats.chunks_dispatched as usize > mix.queries.len());
            // The zipfian mix repeats joins: the cache must see hits.
            assert!(engine.cache_stats().hits > 0, "threads {threads}");
        }
        assert_ne!(
            chunk_orders[0], chunk_orders[1],
            "threads {threads}: the priorities must change the interleaving"
        );
    }
}

#[test]
fn warm_cache_path_is_byte_identical_to_cold() {
    let mix = mix();
    let mut engine = QueryEngine::new(config(MemoryBudget::bytes(48 * 1024), 3, 1, 1 << 20));
    let requests = register_mix(&mut engine, &mix, true);
    let cold = serve_all(&mut engine, &requests);
    let cold_misses = engine.cache_stats().misses;
    let warm = serve_all(&mut engine, &requests);
    assert_eq!(result_columns(&cold), result_columns(&warm));
    // Second pass: every prepared prefix is already resident.
    assert_eq!(engine.cache_stats().misses, cold_misses);
    let warm_hits: usize = warm
        .iter()
        .filter(|o| o.as_ref().unwrap().stats.cache_hit)
        .count();
    assert_eq!(warm_hits, mix.queries.len());
}

#[test]
fn admission_never_over_commits_the_global_budget() {
    let mix = mix();
    for budget_bytes in [16 * 1024usize, 64 * 1024, 256 * 1024] {
        let budget = MemoryBudget::bytes(budget_bytes);
        let mut engine = QueryEngine::new(config(budget, 4, 2, 1 << 20));
        let requests = register_mix(&mut engine, &mix, true);
        let outcomes = serve_all(&mut engine, &requests);
        let peak = engine.stats().peak_concurrent_bytes;
        assert!(peak <= budget_bytes, "budget {budget_bytes}: peak {peak}");
        for outcome in &outcomes {
            let q = outcome.as_ref().expect("query served");
            // Every query's measured peak stays inside its admitted share.
            assert!(
                q.stats.peak_chunk_bytes <= q.stats.share_bytes,
                "budget {budget_bytes}: peak {} share {}",
                q.stats.peak_chunk_bytes,
                q.stats.share_bytes
            );
        }
    }
}

#[test]
fn degenerate_budgets_surface_typed_errors_not_panics() {
    let w = JoinWorkloadBuilder::equal(300, 1).seed(77).build();
    // Plan-time: the planner documents a clamp to one-row chunks…
    let spec = QuerySpec::symmetric(1);
    let params = CacheParams::tiny_for_tests();
    let clamped = plan_streaming(300, 300, &spec, &params, MemoryBudget::bytes(2), 1);
    assert_eq!(clamped.chunk_rows, 1);
    // …while in the serving layer the same condition is a typed rejection
    // per request.
    let mut engine = QueryEngine::new(config(MemoryBudget::bytes(3), 2, 1, 0));
    let larger = engine.register(w.larger.clone());
    let smaller = engine.register(w.smaller.clone());
    let outcomes = serve_all(&mut engine, &[ServerRequest::new(larger, smaller, spec)]);
    assert!(matches!(
        outcomes[0].as_ref().unwrap_err(),
        RdxError::Budget(BudgetError::BelowOneRow { .. })
    ));
    // A global budget of exactly one row, split two ways: the fair share
    // is below one row, so admission re-plans the query at the one-row
    // floor instead of rejecting it, and the engine counts that re-plan
    // once, as the query records it.
    let Err(RdxError::Budget(BudgetError::BelowOneRow { bytes_per_row, .. })) = outcomes[0] else {
        unreachable!()
    };
    let mut engine = QueryEngine::new(config(MemoryBudget::bytes(bytes_per_row), 2, 1, 0));
    let larger = engine.register(w.larger.clone());
    let smaller = engine.register(w.smaller.clone());
    let outcomes = serve_all(&mut engine, &[ServerRequest::new(larger, smaller, spec)]);
    let q = outcomes[0].as_ref().expect("admitted at the one-row floor");
    assert!(q.stats.replanned);
    assert_eq!(q.stats.share_bytes, bytes_per_row);
    assert_eq!(engine.stats().replans, 1);
    // And zero-byte budget construction is a typed error, not a panic.
    assert!(matches!(
        MemoryBudget::try_bytes(0),
        Err(BudgetError::ZeroBytes)
    ));
}
