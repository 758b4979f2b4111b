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
        plan_shares: Some(3),
        observability,
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
                let mut plain = QueryEngine::new(config(budget, threads, false));
                let requests = register_mix(&mut plain, &mix, false);
                let expected = result_columns(&serve_all(&mut plain, &requests));

                let mut observed = QueryEngine::new(config(budget, threads, true));
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
/// and each query's own event count matches the column chunks its report
/// claims (row chunks × projected columns) — nothing double-counted,
/// nothing dropped (under a sufficient ring).
#[test]
fn chunk_step_events_sum_to_scheduler_steps() {
    let w = JoinWorkloadBuilder::equal(3_000, 2).seed(47).build();
    let mut engine = QueryEngine::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(24 * 1024),
        plan_shares: Some(2),
        observability: true,
        ..ServeConfig::default()
    });
    let larger = engine.register(w.larger.clone());
    let smaller = engine.register(w.smaller.clone());

    // Ticket-only workload: every chunk is stepped by the engine scheduler.
    let tickets: Vec<TicketId> = (0..4)
        .map(|_| {
            engine
                .query(larger, smaller)
                .project(QuerySpec::symmetric(2))
                .submit()
        })
        .collect();
    while engine.step() != EngineStep::Idle {}

    let mut total_chunks = 0u64;
    let trace = engine.obs().trace_snapshot().expect("observability on");
    assert_eq!(trace.dropped, 0, "default ring must hold this workload");
    for &ticket in &tickets {
        let report = match engine.poll(ticket) {
            TicketPoll::Done(Served::Columns(report)) => report,
            other => panic!("expected Done, got {other:?}"),
        };
        let life = trace.events_for(QueryId(report.stats.query_id));
        let steps = life
            .iter()
            .filter(|e| e.kind.label() == "chunk_step")
            .count();
        assert_eq!(steps, 4 * report.stats.chunks, "per-query chunk accounting");
        total_chunks += steps as u64;
    }

    let stats = engine.stats();
    assert_eq!(total_chunks, stats.chunks_dispatched);
    let metrics = engine.obs().metrics_snapshot().expect("always kept");
    let h = metrics.histogram("pipeline.chunk_ns").expect("recorded");
    assert_eq!(h.count, total_chunks);
}

/// Each query's events replay in lifecycle order, and rejected queries get
/// a `reject` terminal instead of ever being admitted.
#[test]
fn trace_replays_each_lifecycle_in_order() {
    let w = JoinWorkloadBuilder::equal(1_200, 1).seed(53).build();
    let mut engine = QueryEngine::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        observability: true,
        ..ServeConfig::default()
    });
    let larger = engine.register(w.larger.clone());
    let smaller = engine.register(w.smaller.clone());

    let ok = engine.query(larger, smaller).submit();
    // A below-one-row budget is a typed rejection — traced, never admitted.
    let bad = engine
        .query(larger, smaller)
        .budget(MemoryBudget::bytes(2))
        .submit();
    while engine.step() != EngineStep::Idle {}

    let done = match engine.poll(ok) {
        TicketPoll::Done(Served::Columns(report)) => report,
        other => panic!("expected Done, got {other:?}"),
    };
    assert!(matches!(engine.poll(bad), TicketPoll::Rejected(_)));

    let trace = engine.obs().trace_snapshot().expect("observability on");
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

    let stats = engine.stats();
    assert_eq!(stats.admissions, 1);
    assert_eq!(stats.rejections, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 0);
}

/// Cache-truth profiling is a pure observer: a profiled query returns bytes
/// identical to an unprofiled one on both
/// second-side codes, two profiled runs charge identical simulated miss
/// counts, and an unprofiled run charges none.
#[test]
fn profiled_execution_is_byte_identical_and_deterministic() {
    let w = JoinWorkloadBuilder::equal(2_000, 2).seed(61).build();
    let spec = QuerySpec::symmetric(2);
    for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
        let codes = DsmPostProjection::with_codes(ProjectionCode::PartialCluster, second);
        let run = |profiled: bool| {
            let mut engine = QueryEngine::new(ServeConfig {
                params: CacheParams::tiny_for_tests(),
                global_budget: MemoryBudget::bytes(4 * 1024),
                plan_shares: Some(1),
                observability: true,
                ..ServeConfig::default()
            });
            let larger = engine.register(w.larger.clone());
            let smaller = engine.register(w.smaller.clone());
            let query = engine.query(larger, smaller).project(spec).codes(codes);
            let query = if profiled { query.profiled() } else { query };
            let out = query.run().expect("serves");
            let cols = columns(&out.result);
            let metrics = engine.obs().metrics_snapshot().expect("always kept");
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
/// one profiled query in an otherwise unprofiled engine records
/// `ChunkProfile` trace events adjacent to its chunk steps, while its
/// unprofiled neighbour records none.
#[test]
fn per_query_profiled_flag_traces_only_that_query() {
    let w = JoinWorkloadBuilder::equal(1_500, 1).seed(67).build();
    let mut engine = QueryEngine::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(4 * 1024),
        plan_shares: Some(1),
        observability: true,
        ..ServeConfig::default()
    });
    let larger = engine.register(w.larger.clone());
    let smaller = engine.register(w.smaller.clone());
    let profiled = engine
        .query(larger, smaller)
        .profiled()
        .run()
        .expect("serves");
    let plain = engine.query(larger, smaller).run().expect("serves");

    let trace = engine.obs().trace_snapshot().expect("observability on");
    let profile_events = |query_id: u64| {
        trace
            .events_for(QueryId(query_id))
            .iter()
            .filter(|e| e.kind.label() == "chunk_profile")
            .count()
    };
    // The default π = 1 + 1: two column chunks per row chunk.
    assert_eq!(
        profile_events(profiled.stats.query_id),
        2 * profiled.stats.chunks,
        "one ChunkProfile per column chunk"
    );
    assert_eq!(profile_events(plain.stats.query_id), 0);
    assert_eq!(
        columns(&profiled.result),
        columns(&plain.result),
        "profiling changed bytes"
    );
}

/// A profiled query under an unbounded budget streams one chunk that is the
/// whole result, so the sink takes the chunk's columns and the chunk reads
/// the prefix's clustered arrays in place.  Its profile must still be
/// charged (the declustering code probes the borrowed arrays as it emits)
/// with the pinned simulated counts, with each column's `chunk_step`
/// followed by its `chunk_profile`.
#[test]
fn a_whole_result_profiled_chunk_replays_the_same_counts() {
    let w = JoinWorkloadBuilder::equal(2_000, 2).seed(71).build();
    // (second-side code, profile.accesses, profile.l2_misses), the access
    // counts recorded from the chunk loop that copied the prefix into
    // chunk-local arrays.  The unsorted L2 count moved 2 072 → 2 782 when
    // the replay started charging each second-side fetch at the oid it
    // reads instead of at its row; the declustering one did not move when
    // its decluster began running under the simulator probe, and fell
    // 3 274 → 3 150 at the same accesses when `CLUST_RESULT` began to be
    // stored as 2-byte low bits under its result block.  Neither moved
    // (2 782 → 2 782, 3 150 → 3 150) when the fetch replay was retired for
    // the probed gather loops, although the second side's gather now
    // writes the staged `CLUST_VALUES`, each column writes its own output
    // region and each column's decluster runs on the state the previous
    // one left: 2 000 rows of 4-byte values fill the whole 8 KB simulated
    // L2, so each of those write streams misses it wherever it lands.
    for (second, accesses, l2_misses) in [
        (SecondSideCode::Unsorted, 24_000u64, 2_782u64),
        (SecondSideCode::Decluster, 36_006, 3_150),
    ] {
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            plan_shares: Some(1),
            observability: true,
            ..ServeConfig::default()
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let codes = DsmPostProjection::with_codes(ProjectionCode::PartialCluster, second);
        let query = |engine: &mut QueryEngine, profiled: bool| {
            let q = engine
                .query(larger, smaller)
                .project(QuerySpec::symmetric(2))
                .codes(codes);
            if profiled { q.profiled() } else { q }
                .run()
                .expect("serves")
        };
        let profiled = query(&mut engine, true);
        let plain = query(&mut engine, false);
        assert_eq!(
            profiled.stats.chunks, 1,
            "{second:?}: one whole-result chunk"
        );
        assert_eq!(profiled.stats.rows, w.expected_matches);
        assert_eq!(columns(&profiled.result), columns(&plain.result));

        let metrics = engine.obs().metrics_snapshot().expect("always kept");
        assert_eq!(
            (
                metrics.counter("profile.accesses"),
                metrics.counter("profile.l2_misses")
            ),
            (Some(accesses), Some(l2_misses)),
            "{second:?}: replay counts drifted"
        );
        let trace = engine.obs().trace_snapshot().expect("observability on");
        let labels: Vec<&str> = trace
            .events_for(QueryId(profiled.stats.query_id))
            .iter()
            .map(|e| e.kind.label())
            .filter(|l| l.starts_with("chunk_"))
            .collect();
        assert_eq!(
            labels,
            ["chunk_step", "chunk_profile"].repeat(4),
            "{second:?}"
        );
    }
}

/// The cumulative engine counters aggregate what the per-query reports say
/// — warm reruns turn misses into hits, and both views agree.
#[test]
fn engine_counters_agree_with_per_query_reports() {
    let mix = mix(2_000, 2);
    let mut engine = QueryEngine::new(config(MemoryBudget::bytes(48 * 1024), 1, true));
    let requests = register_mix(&mut engine, &mix, false);
    let cold = serve_all(&mut engine, &requests);
    let after_cold = engine.stats();
    let warm = serve_all(&mut engine, &requests);
    let warm_hits = engine.stats().cache_hits - after_cold.cache_hits;

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
