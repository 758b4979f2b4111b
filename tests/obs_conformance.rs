//! Observability conformance: recording must be *invisible* in the bytes.
//!
//! The grid replays the same zipfian query mixes through the serving layer
//! with `ServeConfig::observability` off and on — across cardinalities,
//! projection widths, thread counts and global budgets — and checks every
//! query's output is byte-identical.  Companion tests pin the structural
//! guarantees the trace makes: every query's lifecycle is replayable in
//! order from one snapshot, the per-query `chunk_step` events sum to
//! exactly the scheduler's `chunks_dispatched`, and the engine-level
//! counters agree with the per-query reports they aggregate.

mod common;

use common::{columns, register_mix, result_columns, serve_all};
use radix_decluster::prelude::*;

/// A compact multi-tenant mix parameterised by the grid axes.
fn mix(rows: usize, width: usize) -> QueryMix {
    QueryMix::generate(&MixConfig {
        tenants: vec![(rows, width), (rows / 2, 1), (rows / 4, width)],
        queries: 9,
        zipf_exponent: 1.0,
        seed: 41,
        ..MixConfig::default()
    })
}

fn config(budget: MemoryBudget, threads: usize, observability: bool) -> ServeConfig {
    ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: budget,
        max_concurrent: 3,
        threads_per_query: threads,
        cache_bytes: 1 << 20,
        fairness: FairnessPolicy::CostWeighted,
        plan_shares: Some(3),
        observability,
        profiled: false,
        ..ServeConfig::default()
    }
}

/// The byte-identity grid: `(N, ω, threads, budget)` — recording on must
/// change nothing downstream of the sinks.
#[test]
fn observed_results_are_byte_identical_to_unobserved() {
    for &(rows, width) in &[(2_000usize, 2usize), (4_000, 1)] {
        let mix = mix(rows, width);
        for threads in [1usize, 2] {
            for budget_bytes in [32 * 1024usize, 128 * 1024] {
                let budget = MemoryBudget::bytes(budget_bytes);
                let mut plain = Session::new(config(budget, threads, false));
                let requests = register_mix(&mut plain, &mix, false);
                let expected = result_columns(&serve_all(&mut plain, &requests));

                let mut observed = Session::new(config(budget, threads, true));
                let requests = register_mix(&mut observed, &mix, false);
                let outcomes = serve_all(&mut observed, &requests);
                assert_eq!(
                    result_columns(&outcomes),
                    expected,
                    "rows {rows} width {width} threads {threads} budget {budget_bytes}"
                );
            }
        }
    }
}

/// Σ per-query `chunk_step` events == the scheduler's `chunks_dispatched`,
/// and each query's own event count matches the chunks its report claims —
/// nothing double-counted, nothing dropped (under a sufficient ring).
#[test]
fn chunk_step_events_sum_to_scheduler_steps() {
    let w = JoinWorkloadBuilder::equal(3_000, 2).seed(47).build();
    let mut session = Session::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(24 * 1024),
        plan_shares: Some(2),
        observability: true,
        ..ServeConfig::default()
    });
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());

    // Ticket-only workload: every chunk is stepped by the engine scheduler.
    let tickets: Vec<Ticket> = (0..4)
        .map(|_| {
            session
                .query(larger, smaller)
                .project(QuerySpec::symmetric(2))
                .submit()
        })
        .collect();
    while session.drive(64) > 0 {}

    let mut total_chunks = 0u64;
    let trace = session.trace_snapshot().expect("observability on");
    assert_eq!(trace.dropped, 0, "default ring must hold this workload");
    for ticket in &tickets {
        let report = match ticket.poll(&mut session) {
            QueryPoll::Done(report) => report,
            other => panic!("expected Done, got {other:?}"),
        };
        let life = trace.events_for(QueryId(report.stats.query_id));
        let steps = life
            .iter()
            .filter(|e| e.kind.label() == "chunk_step")
            .count();
        assert_eq!(steps, report.stats.chunks, "per-query chunk accounting");
        total_chunks += steps as u64;
    }

    let stats = session.engine_mut().stats();
    assert_eq!(total_chunks, stats.chunks_dispatched);
    let metrics = session.metrics().expect("observability on");
    assert_eq!(
        metrics.counter("engine.chunks_dispatched"),
        Some(stats.chunks_dispatched)
    );
    let h = metrics.histogram("pipeline.chunk_ns").expect("recorded");
    assert_eq!(h.count, total_chunks);
}

/// Each query's events replay in lifecycle order, and rejected queries get
/// a `reject` terminal instead of ever being admitted.
#[test]
fn trace_replays_each_lifecycle_in_order() {
    let w = JoinWorkloadBuilder::equal(1_200, 1).seed(53).build();
    let mut session = Session::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        observability: true,
        ..ServeConfig::default()
    });
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());

    let ok = session.query(larger, smaller).submit();
    // A below-one-row budget is a typed rejection — traced, never admitted.
    let bad = session
        .query(larger, smaller)
        .budget(MemoryBudget::bytes(2))
        .submit();
    while session.drive(64) > 0 {}

    let done = match ok.poll(&mut session) {
        QueryPoll::Done(report) => report,
        other => panic!("expected Done, got {other:?}"),
    };
    assert!(matches!(bad.poll(&mut session), QueryPoll::Rejected(_)));

    let trace = session.trace_snapshot().expect("observability on");
    let labels: Vec<&str> = trace
        .events_for(QueryId(done.stats.query_id))
        .iter()
        .map(|e| e.kind.label())
        .collect();
    assert_eq!(labels.first(), Some(&"submit"));
    assert_eq!(labels.get(1), Some(&"admit"));
    assert_eq!(labels.get(2), Some(&"cache_lookup"));
    assert_eq!(labels.last(), Some(&"done"));
    assert!(labels[3..labels.len() - 1]
        .iter()
        .all(|l| *l == "chunk_step"));

    // The rejected query: exactly submit → reject, nothing in between.
    let rejected: Vec<&TraceEvent> = trace
        .events
        .iter()
        .filter(|e| e.query.raw() != done.stats.query_id)
        .collect();
    let labels: Vec<&str> = rejected.iter().map(|e| e.kind.label()).collect();
    assert_eq!(labels, ["submit", "reject"]);

    let stats = session.engine_mut().stats();
    assert_eq!(stats.admissions, 1);
    assert_eq!(stats.rejections, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 0);
}

/// Adaptive re-splits change the chunk count mid-flight — the trace must
/// still account for every chunk: Σ `chunk_step` events equals the chunks
/// the report claims, each `replan` event sits in lifecycle order (after
/// the chunk that triggered it, before `done`), and the replan counters
/// agree across the pipeline, the engine and the trace.
#[test]
fn adaptive_replans_keep_chunk_accounting_and_lifecycle_order() {
    let w = JoinWorkloadBuilder::equal(3_000, 2).seed(59).build();
    let mut session = Session::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(2 * 1024),
        observability: true,
        ..ServeConfig::default()
    });
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(2))
        .with_adaptive(AdaptivePolicy::default());

    let engine = session.engine_mut();
    let mut rq = engine.resolve_direct(&request).expect("resolves");
    // Swap the wall-clock source for a deterministic 3x-slow script, so the
    // re-split is forced regardless of machine speed.
    rq.replace_feedback(Box::new(ScriptedFeedback::constant(3_000)));
    let mut sink = MaterializeSink::new();
    rq.run_to_completion(&mut sink);
    let report = engine.retire(rq);
    assert!(
        report.adaptive_replans >= 1,
        "scripted slow stream must fire"
    );

    let trace = session.trace_snapshot().expect("observability on");
    let labels: Vec<&str> = trace
        .events_for(QueryId(report.query_id))
        .iter()
        .map(|e| e.kind.label())
        .collect();

    // Full direct-run lifecycle, with the re-splits inside the chunk loop.
    assert_eq!(labels.first(), Some(&"submit"));
    assert_eq!(labels.get(1), Some(&"admit"));
    assert_eq!(labels.get(2), Some(&"cache_lookup"));
    assert_eq!(labels.last(), Some(&"done"));
    let inner = &labels[3..labels.len() - 1];
    assert!(inner.iter().all(|l| *l == "chunk_step" || *l == "replan"));
    for (i, label) in inner.iter().enumerate() {
        if *label == "replan" {
            assert!(i > 0, "a replan needs an observed chunk before it");
            assert_eq!(
                inner[i - 1],
                "chunk_step",
                "each replan trails the chunk that triggered it"
            );
        }
    }

    // Chunk accounting survives the mid-flight chunk-count changes.
    let steps = inner.iter().filter(|l| **l == "chunk_step").count();
    assert_eq!(steps, report.chunks, "every dispatched chunk is traced");
    let replans = inner.iter().filter(|l| **l == "replan").count();
    assert_eq!(replans, report.adaptive_replans);

    // Pipeline-, engine- and trace-level replan counts all agree.
    let metrics = session.metrics().expect("observability on");
    assert_eq!(
        metrics.counter("pipeline.adaptive_replans"),
        Some(replans as u64)
    );
    assert_eq!(
        metrics.counter("engine.adaptive_replans"),
        Some(replans as u64)
    );
    let delta = metrics
        .histogram("pipeline.resplit_chunk_delta")
        .expect("recorded");
    assert_eq!(delta.count, replans as u64);
}

/// Cache-truth profiling is a pure observer: a profiled session (engine-wide
/// `profiled` plus a miss-count-adaptive query) returns bytes identical to an
/// unprofiled one on both second-side codes, two profiled runs charge
/// identical simulated miss counts, and an unprofiled run charges none.
#[test]
fn profiled_execution_is_byte_identical_and_deterministic() {
    let w = JoinWorkloadBuilder::equal(2_000, 2).seed(61).build();
    let spec = QuerySpec::symmetric(2);
    for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
        let codes = DsmPostProjection::with_codes(ProjectionCode::PartialCluster, second);
        let run = |profiled: bool| {
            let mut session = Session::new(ServeConfig {
                params: CacheParams::tiny_for_tests(),
                global_budget: MemoryBudget::bytes(4 * 1024),
                plan_shares: Some(1),
                observability: true,
                profiled,
                ..ServeConfig::default()
            });
            let larger = session.register(w.larger.clone());
            let smaller = session.register(w.smaller.clone());
            let out = session
                .query(larger, smaller)
                .project(spec)
                .codes(codes)
                .adaptive(AdaptivePolicy::default())
                .run()
                .expect("serves");
            let cols = columns(&out.result);
            let metrics = session.metrics().expect("observability on");
            let counts = [
                "profile.accesses",
                "profile.l1_misses",
                "profile.l2_misses",
                "profile.tlb_misses",
                "profile.stall_cycles",
            ]
            .map(|m| metrics.counter(m));
            (cols, counts)
        };
        let (plain, unprofiled_counts) = run(false);
        assert!(
            unprofiled_counts.iter().all(|c| c.is_none()),
            "unprofiled run must charge nothing ({second:?})"
        );
        let (a, counts_a) = run(true);
        let (b, counts_b) = run(true);
        assert_eq!(a, plain, "profiled bytes drifted ({second:?})");
        assert_eq!(b, plain, "second profiled run drifted ({second:?})");
        assert!(counts_a[0].unwrap() > 0, "no accesses charged ({second:?})");
        assert!(
            counts_a[1].unwrap() > 0,
            "no L1 misses charged ({second:?})"
        );
        assert_eq!(
            counts_a, counts_b,
            "simulated counts must be deterministic ({second:?})"
        );
    }
}

/// The per-request `profiled` flag works through the `Query` front door —
/// one profiled query in an otherwise unprofiled session records
/// `ChunkProfile` trace events adjacent to its chunk steps, while its
/// unprofiled neighbour records none.
#[test]
fn per_query_profiled_flag_traces_only_that_query() {
    let w = JoinWorkloadBuilder::equal(1_500, 1).seed(67).build();
    let mut session = Session::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(4 * 1024),
        plan_shares: Some(1),
        observability: true,
        ..ServeConfig::default()
    });
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    let profiled = session
        .query(larger, smaller)
        .profiled()
        .run()
        .expect("serves");
    let plain = session.query(larger, smaller).run().expect("serves");

    let trace = session.trace_snapshot().expect("observability on");
    let profile_events = |query_id: u64| {
        trace
            .events_for(QueryId(query_id))
            .iter()
            .filter(|e| e.kind.label() == "chunk_profile")
            .count()
    };
    assert_eq!(
        profile_events(profiled.stats.query_id),
        profiled.stats.chunks,
        "one ChunkProfile per chunk"
    );
    assert_eq!(profile_events(plain.stats.query_id), 0);
    assert_eq!(
        columns(&profiled.result),
        columns(&plain.result),
        "profiling changed bytes"
    );
}

/// The cumulative engine counters aggregate what the per-query reports say
/// — warm reruns turn misses into hits, and both views agree.
#[test]
fn engine_counters_agree_with_per_query_reports() {
    let mix = mix(2_000, 2);
    let mut session = Session::new(config(MemoryBudget::bytes(48 * 1024), 1, true));
    let requests = register_mix(&mut session, &mix, false);
    let cold = serve_all(&mut session, &requests);
    let after_cold = session.engine_mut().stats();
    let warm = serve_all(&mut session, &requests);
    let warm_hits = session.engine_mut().stats().cache_hits - after_cold.cache_hits;

    let hits = |outcomes: &[Result<QueryResult, RdxError>]| {
        outcomes
            .iter()
            .filter(|o| o.as_ref().unwrap().stats.cache_hit)
            .count() as u64
    };
    assert_eq!(after_cold.cache_hits + after_cold.cache_misses, 9);
    assert_eq!(after_cold.cache_hits, hits(&cold));
    assert_eq!(after_cold.admissions, 9);
    assert_eq!(after_cold.rejections, 0);
    // Second pass: every prepared prefix is already resident.
    assert_eq!(warm_hits, hits(&warm));
    assert_eq!(hits(&warm), 9);
}
