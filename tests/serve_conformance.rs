//! Serving-layer conformance: concurrency must be *invisible* in the bytes.
//!
//! The grid runs K-query mixes through the `rdx-serve` scheduler and checks,
//! for every query, that the interleaved execution produces output
//! byte-identical to serial execution — across thread counts (including the
//! auto-detect `threads = 0`), both fairness policies, and both the
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
        fairness: FairnessPolicy::CostWeighted,
        // Pin the planning share so serial and concurrent servers choose
        // identical plans/cluster specs — the grid then compares pure
        // scheduling, never plan drift.
        plan_shares: Some(4),
        observability: false,
        profiled: false,
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
        let mut serial = Session::new(config(budget, 1, threads, 0));
        let serial_requests = register_mix(&mut serial, &mix, true);
        let expected = result_columns(&serve_all(&mut serial, &serial_requests));
        assert_eq!(serial.engine_mut().stats().peak_concurrency, 1);
        assert_eq!(serial.cache_stats().hits, 0);

        for fairness in [FairnessPolicy::RoundRobin, FairnessPolicy::CostWeighted] {
            let mut cfg = config(budget, 4, threads, 1 << 20);
            cfg.fairness = fairness;
            let mut session = Session::new(cfg);
            let requests = register_mix(&mut session, &mix, true);
            let outcomes = serve_all(&mut session, &requests);
            assert_eq!(
                result_columns(&outcomes),
                expected,
                "threads {threads} fairness {fairness:?}"
            );
            // Genuinely concurrent, and interleaved at chunk granularity.
            let stats = session.engine_mut().stats();
            assert!(stats.peak_concurrency > 1, "threads {threads}");
            assert!(stats.chunks_dispatched as usize > mix.queries.len());
            // The zipfian mix repeats joins: the cache must see hits.
            assert!(session.cache_stats().hits > 0, "threads {threads}");
        }
    }
}

#[test]
fn warm_cache_path_is_byte_identical_to_cold() {
    let mix = mix();
    let mut session = Session::new(config(MemoryBudget::bytes(48 * 1024), 3, 1, 1 << 20));
    let requests = register_mix(&mut session, &mix, true);
    let cold = serve_all(&mut session, &requests);
    let cold_misses = session.cache_stats().misses;
    let warm = serve_all(&mut session, &requests);
    assert_eq!(result_columns(&cold), result_columns(&warm));
    // Second pass: every prepared prefix is already resident.
    assert_eq!(session.cache_stats().misses, cold_misses);
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
        let mut session = Session::new(config(budget, 4, 2, 1 << 20));
        let requests = register_mix(&mut session, &mix, true);
        let outcomes = serve_all(&mut session, &requests);
        let peak = session.engine_mut().stats().peak_concurrent_bytes;
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
    // Plan-time: checked planning rejects a below-one-row budget…
    let spec = QuerySpec::symmetric(1);
    let params = CacheParams::tiny_for_tests();
    let err =
        plan_streaming_checked(300, 300, 4, &spec, &params, MemoryBudget::bytes(2), 1).unwrap_err();
    assert!(matches!(err, BudgetError::BelowOneRow { .. }));
    // …while the unchecked planner documents a clamp to one-row chunks.
    let clamped = plan_streaming(300, 300, 4, &spec, &params, MemoryBudget::bytes(2), 1);
    assert_eq!(clamped.chunk_rows, 1);
    // Serving layer: the same condition is a typed rejection per request.
    let mut session = Session::new(config(MemoryBudget::bytes(3), 2, 1, 0));
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    let outcomes = serve_all(&mut session, &[ServerRequest::new(larger, smaller, spec)]);
    assert!(matches!(
        outcomes[0].as_ref().unwrap_err(),
        RdxError::Budget(BudgetError::BelowOneRow { .. })
    ));
    // And zero-byte budget construction is a typed error, not a panic.
    assert!(matches!(
        MemoryBudget::try_bytes(0),
        Err(BudgetError::ZeroBytes)
    ));
}
