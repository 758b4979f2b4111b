//! Adaptive-execution conformance: re-planning must be *invisible* in the
//! bytes.
//!
//! The tentpole guarantee of runtime adaptation is that it moves only chunk
//! boundaries, never values or positions: an adaptive run is byte-identical
//! to the non-adaptive run for every workload, policy, thread count and
//! budget — including pathological injected feedback that forces a re-split
//! every hysteresis window.  The deterministic half of the harness replaces
//! the production wall-clock [`FeedbackSource`] with [`ScriptedFeedback`]
//! ratio scripts, so every re-plan point is a pure function of the script
//! and the assertions never depend on machine speed.

mod common;

use common::{columns, serve_all};
use proptest::prelude::*;
use radix_decluster::obs::Counter;
use radix_decluster::prelude::*;
use radix_decluster::workload::JoinWorkload;
use std::sync::Arc;

fn decluster_codes() -> DsmPostProjection {
    DsmPostProjection::with_codes(ProjectionCode::PartialCluster, SecondSideCode::Decluster)
}

/// A prepared pipeline + the plain (non-adaptive) reference bytes for it.
struct Fixture {
    workload: JoinWorkload,
    prepared: Arc<PreparedProjection>,
    spec: QuerySpec,
    params: CacheParams,
    policy: ExecPolicy,
    expected: Vec<Vec<i32>>,
}

impl Fixture {
    fn new(rows: usize, width: usize, seed: u64, threads: usize, budget_bytes: usize) -> Self {
        let workload = JoinWorkloadBuilder::equal(rows, width).seed(seed).build();
        let spec = QuerySpec::symmetric(width);
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(threads).budget(MemoryBudget::bytes(budget_bytes));
        let pipeline = ProjectionPipeline::new(decluster_codes());
        let prepared =
            Arc::new(pipeline.prepare(&workload.larger, &workload.smaller, &params, &policy));
        let expected = {
            let mut run = DsmPipelineRun::over_dsm(
                prepared.clone(),
                &workload.larger,
                &workload.smaller,
                &spec,
                &params,
                &policy,
            );
            let mut sink = MaterializeSink::new();
            run.run_to_completion(&mut sink);
            assert_eq!(
                run.run_stats().adaptive_replans,
                0,
                "plain run never adapts"
            );
            columns(&sink.into_result())
        };
        Fixture {
            workload,
            prepared,
            spec,
            params,
            policy,
            expected,
        }
    }

    fn run(&self) -> DsmPipelineRun<'_> {
        DsmPipelineRun::over_dsm(
            self.prepared.clone(),
            &self.workload.larger,
            &self.workload.smaller,
            &self.spec,
            &self.params,
            &self.policy,
        )
    }

    /// Runs to completion with `policy`/`script` armed, asserting byte
    /// identity, and returns the run's stats.
    fn run_adaptive(
        &self,
        policy: AdaptivePolicy,
        script: ScriptedFeedback,
    ) -> radix_decluster::exec::PipelineStats {
        let mut run = self.run();
        run.attach_adaptive(policy, Box::new(script), &self.params, Counter::default());
        let mut sink = MaterializeSink::new();
        run.run_to_completion(&mut sink);
        assert_eq!(
            columns(&sink.into_result()),
            self.expected,
            "adaptive run changed bytes"
        );
        assert_eq!(run.rows_emitted(), self.workload.expected_matches);
        run.run_stats()
    }
}

/// The acceptance scenario: a 3×-slower-than-predicted feedback stream must
/// force a re-split of the remaining chunks — tighter chunks, visible in the
/// `pipeline.resplit_chunk_delta` histogram and a `Replan{reason: "slow"}`
/// trace event — while the output stays byte-identical.
#[test]
fn three_x_slow_feedback_resplits_and_stays_byte_identical() {
    let fx = Fixture::new(6_000, 2, 7, 1, 2 * 1024);
    let original_chunk_rows = {
        let run = fx.run();
        let s = *run.streaming();
        assert!(s.num_chunks >= 8, "fixture must chunk enough to adapt");
        s.chunk_rows
    };

    let obs = Obs::enabled(ObsConfig::default());
    let query = QueryId::next();
    let mut run = fx.run();
    let predicted = run.predicted_chunk_ns(&fx.params);
    run.attach_obs(&obs, query, predicted);
    run.attach_adaptive(
        AdaptivePolicy::default(),
        Box::new(ScriptedFeedback::constant(3_000)),
        &fx.params,
        Counter::default(),
    );
    let mut sink = MaterializeSink::new();
    run.run_to_completion(&mut sink);
    assert_eq!(columns(&sink.into_result()), fx.expected);

    let stats = run.run_stats();
    assert!(stats.adaptive_replans >= 1, "3x-slow stream must re-split");
    assert!(
        stats.adaptive_replans <= AdaptivePolicy::default().replan_budget as usize,
        "re-plan budget exceeded"
    );
    // Slower than predicted: the live plan tightened, and the peak working
    // set still honours the original grant (the ceiling never grows).
    assert!(stats.streaming.chunk_rows < original_chunk_rows);
    assert!(stats.peak_chunk_bytes <= 2 * 1024);

    let metrics = obs.metrics_snapshot().expect("enabled");
    let delta = metrics
        .histogram("pipeline.resplit_chunk_delta")
        .expect("recorded");
    assert_eq!(delta.count, stats.adaptive_replans as u64);

    let trace = obs.trace_snapshot().expect("enabled");
    let life = trace.events_for(query);
    let replans: Vec<_> = life
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Replan {
                old_chunks,
                new_chunks,
                reason,
            } => Some((old_chunks, new_chunks, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(replans.len(), stats.adaptive_replans);
    for &(old_chunks, new_chunks, reason) in &replans {
        assert_eq!(reason, "slow");
        assert!(
            new_chunks > old_chunks,
            "a slow re-split must tighten chunks ({old_chunks} -> {new_chunks})"
        );
    }
}

/// Accurate feedback: the EWMA never leaves the hysteresis band, so zero
/// re-plans fire and the plan is exactly the one-shot plan.
#[test]
fn accurate_feedback_never_resplits() {
    let fx = Fixture::new(4_000, 2, 11, 1, 2 * 1024);
    let planned = *fx.run().streaming();
    let stats = fx.run_adaptive(AdaptivePolicy::default(), ScriptedFeedback::constant(1_000));
    assert_eq!(stats.adaptive_replans, 0, "hysteresis must hold");
    assert_eq!(stats.streaming, planned, "plan must be untouched");
}

/// The pathological stream: alternating extreme ratios under a hair-trigger
/// policy force a re-split at (nearly) every observation window until the
/// re-plan budget runs dry — and the bytes still never change.
#[test]
fn pathological_feedback_resplits_every_window_and_stays_byte_identical() {
    let fx = Fixture::new(6_000, 2, 13, 2, 2 * 1024);
    assert!(
        fx.run().streaming().num_chunks >= 8,
        "fixture must stream more chunks than the re-plan budget"
    );
    let policy = AdaptivePolicy::hair_trigger().replans(8);
    let script: Vec<u64> = (0..64)
        .map(|i| if i % 2 == 0 { 5_000 } else { 100 })
        .collect();
    let stats = fx.run_adaptive(policy, ScriptedFeedback::from_ratios(&script));
    // Every observation is far outside [0.9x, 1.1x]: with one observation
    // per decision the controller fires each window until its budget is
    // spent (the fixture streams far more chunks than the budget).
    assert_eq!(stats.adaptive_replans, 8);
    assert!(stats.peak_chunk_bytes <= 2 * 1024, "grant ceiling violated");
}

/// Adaptive-on ≡ adaptive-off across the serving-layer `(N, ω, threads,
/// budget)` grid, with the production wall-clock feedback source and both
/// the default and the hair-trigger policy: whatever the controller decides
/// on live timings, results are byte-identical and the re-plan budget
/// bounds how often it may decide.
#[test]
fn adaptive_grid_is_byte_identical_through_the_server() {
    for &(rows, width) in &[(2_000usize, 2usize), (4_000, 1)] {
        for threads in [1usize, 2] {
            for budget_bytes in [16 * 1024usize, 64 * 1024] {
                let config = ServeConfig {
                    params: CacheParams::tiny_for_tests(),
                    global_budget: MemoryBudget::bytes(budget_bytes),
                    max_concurrent: 3,
                    threads_per_query: threads,
                    cache_bytes: 1 << 20,
                    fairness: FairnessPolicy::CostWeighted,
                    plan_shares: Some(3),
                    observability: false,
                    profiled: false,
                    ..ServeConfig::default()
                };
                let w = JoinWorkloadBuilder::equal(rows, width)
                    .seed(rows as u64)
                    .build();
                let spec = QuerySpec::symmetric(width);

                let mut session = Session::new(config);
                let larger = session.register(w.larger.clone());
                let smaller = session.register(w.smaller.clone());
                let plain = ServerRequest::new(larger, smaller, spec);
                let requests = [
                    plain,
                    plain.with_adaptive(AdaptivePolicy::default()),
                    plain.with_adaptive(AdaptivePolicy::hair_trigger()),
                ];
                let outcomes = serve_all(&mut session, &requests);
                let reference = columns(&outcomes[0].as_ref().expect("served").result);
                for (i, outcome) in outcomes.iter().enumerate().skip(1) {
                    let q = outcome.as_ref().expect("served");
                    assert_eq!(
                        columns(&q.result),
                        reference,
                        "rows {rows} width {width} threads {threads} budget {budget_bytes} req {i}"
                    );
                    let policy = requests[i].adaptive.expect("adaptive request");
                    assert!(q.stats.adaptive_replans <= policy.replan_budget as usize);
                }
                assert_eq!(outcomes[0].as_ref().unwrap().stats.adaptive_replans, 0);
                assert_eq!(
                    session.engine_mut().stats().adaptive_replans,
                    outcomes
                        .iter()
                        .map(|o| o.as_ref().unwrap().stats.adaptive_replans as u64)
                        .sum::<u64>()
                );
            }
        }
    }
}

/// The engine counts mid-flight re-plans apart from admission re-plans: a
/// scripted 3×-slow adaptive query bumps `adaptive_replans` while classic
/// `replans` stays untouched, and its per-query stats carry the count.
#[test]
fn engine_counts_adaptive_replans_distinct_from_admission_replans() {
    let w = JoinWorkloadBuilder::equal(6_000, 1).seed(29).build();
    let mut engine = QueryEngine::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(2 * 1024),
        max_concurrent: 1,
        threads_per_query: 1,
        cache_bytes: 1 << 20,
        fairness: FairnessPolicy::CostWeighted,
        plan_shares: Some(1),
        observability: false,
        profiled: false,
        ..ServeConfig::default()
    });
    let larger = engine.register(w.larger.clone());
    let smaller = engine.register(w.smaller.clone());
    let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(1));

    // Reference: non-adaptive direct run.
    let mut rq = engine.resolve_direct(&request).expect("resolves");
    let mut sink = MaterializeSink::new();
    rq.run_to_completion(&mut sink);
    engine.retire(rq);
    let reference = columns(&sink.into_result());

    // Adaptive run with the wall-clock source swapped for a deterministic
    // 3x-slow script.
    let mut rq = engine
        .resolve_direct(&request.with_adaptive(AdaptivePolicy::default()))
        .expect("resolves");
    rq.replace_feedback(Box::new(ScriptedFeedback::constant(3_000)));
    let mut sink = MaterializeSink::new();
    rq.run_to_completion(&mut sink);
    let stats = engine.retire(rq);
    assert_eq!(columns(&sink.into_result()), reference);
    assert!(
        stats.adaptive_replans >= 1,
        "scripted slow stream must fire"
    );

    let engine_stats = engine.stats();
    assert_eq!(engine_stats.adaptive_replans, stats.adaptive_replans as u64);
    assert_eq!(engine_stats.replans, 0, "no admission re-plan happened");

    // replace_feedback on a non-adaptive query is a harmless no-op.
    let mut rq = engine.resolve_direct(&request).expect("resolves");
    rq.replace_feedback(Box::new(ScriptedFeedback::constant(3_000)));
    let mut sink = MaterializeSink::new();
    rq.run_to_completion(&mut sink);
    let stats = engine.retire(rq);
    assert_eq!(stats.adaptive_replans, 0);
}

/// The engine counts a re-split where it fires, not when the query
/// retires: a run torn down after re-splitting — here a direct run dropped
/// mid-stream, the teardown a cancelled ticket gets — still shows in
/// `EngineStats::adaptive_replans`.
#[test]
fn a_resplit_run_torn_down_before_retiring_still_counts() {
    let w = JoinWorkloadBuilder::equal(6_000, 1).seed(29).build();
    let mut engine = QueryEngine::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(2 * 1024),
        max_concurrent: 1,
        plan_shares: Some(1),
        ..ServeConfig::default()
    });
    let larger = engine.register(w.larger.clone());
    let smaller = engine.register(w.smaller.clone());
    let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(1))
        .with_adaptive(AdaptivePolicy::default().replans(1));
    let mut rq = engine.resolve_direct(&request).expect("resolves");
    rq.replace_feedback(Box::new(ScriptedFeedback::constant(3_000)));
    let mut sink = MaterializeSink::new();
    while engine.stats().adaptive_replans == 0 {
        assert!(rq.step(&mut sink).is_some(), "the slow script must fire");
    }
    assert!(!rq.is_done(), "torn down mid-stream");
    drop(rq);
    assert_eq!(engine.stats().adaptive_replans, 1);
}

/// The `rdx-api` builder: `.adaptive(policy)` flows through the front door,
/// defaults to off, and never changes bytes.
#[test]
fn api_adaptive_builder_flows_through_the_front_door() {
    let w = JoinWorkloadBuilder::equal(3_000, 2).seed(17).build();
    let mut session = Session::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(8 * 1024),
        ..ServeConfig::default()
    });
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    let spec = QuerySpec::symmetric(2);

    let plain = session
        .query(larger, smaller)
        .project(spec)
        .run()
        .expect("served");
    assert_eq!(plain.stats.adaptive_replans, 0, "default is off");

    let adaptive = session
        .query(larger, smaller)
        .project(spec)
        .adaptive(AdaptivePolicy::hair_trigger())
        .run()
        .expect("served");
    assert_eq!(columns(&adaptive.result), columns(&plain.result));
    assert!(
        adaptive.stats.adaptive_replans <= AdaptivePolicy::hair_trigger().replan_budget as usize
    );
}

/// Satellite 3: a budget that shrinks *mid-flight* (an engine share change)
/// re-splits the remaining rows without violating the one-row floor, and a
/// budget below the floor is a typed [`RdxError::Budget`] — never a clamp —
/// leaving the run intact.
#[test]
fn rebudget_mid_flight_resplits_and_pins_the_typed_error_path() {
    let fx = Fixture::new(6_000, 2, 19, 1, 8 * 1024);
    let mut run = fx.run();
    let mut sink = MaterializeSink::new();
    let wide_chunk_rows = run.streaming().chunk_rows;
    for _ in 0..3 {
        run.step(&mut sink).expect("rows remain");
    }

    // Shrink the share: the remaining rows re-split under tighter chunks.
    run.rebudget(MemoryBudget::bytes(1_024), &fx.params)
        .expect("1 KB holds a row");
    assert!(run.streaming().chunk_rows < wide_chunk_rows);
    assert!(run.streaming().chunk_rows >= 1, "one-row floor");
    for _ in 0..3 {
        run.step(&mut sink).expect("rows remain");
    }

    // A share below one resident row is a typed error, not a clamp…
    let bytes_per_row = run.streaming().bytes_per_row;
    let err = run
        .rebudget(MemoryBudget::bytes(1), &fx.params)
        .expect_err("below the one-row floor");
    match err {
        RdxError::Budget(BudgetError::BelowOneRow {
            budget_bytes,
            bytes_per_row: reported,
        }) => {
            assert_eq!(budget_bytes, 1);
            assert_eq!(reported, bytes_per_row);
        }
        other => panic!("expected BelowOneRow, got {other:?}"),
    }
    // …and the refused rebudget left the run fully usable.
    run.run_to_completion(&mut sink);
    assert_eq!(columns(&sink.into_result()), fx.expected);
}

/// Growing the share mid-flight is also a re-split — towards *wider*
/// chunks — and equally invisible in the bytes.
#[test]
fn rebudget_can_widen_as_well_as_tighten() {
    let fx = Fixture::new(4_000, 1, 23, 1, 512);
    let mut run = fx.run();
    let mut sink = MaterializeSink::new();
    let tight_chunk_rows = run.streaming().chunk_rows;
    run.step(&mut sink).expect("rows remain");
    run.rebudget(MemoryBudget::bytes(64 * 1024), &fx.params)
        .expect("larger share");
    assert!(run.streaming().chunk_rows > tight_chunk_rows);
    run.run_to_completion(&mut sink);
    assert_eq!(columns(&sink.into_result()), fx.expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `AdaptivePolicy` decisions are a pure function of the injected
    /// timing sequence: replaying the same script yields the same decision
    /// at every step, and the re-plan budget is never exceeded — for
    /// arbitrary scripts and policy knobs.
    #[test]
    fn controller_decisions_are_a_pure_function_of_the_script(
        ratios in proptest::collection::vec(1u64..6_000, 1..64),
        alpha in 100u64..1_001,
        budget in 0u32..6,
        min_obs in 1u32..4,
    ) {
        let policy = AdaptivePolicy::default()
            .alpha(alpha)
            .replans(budget)
            .observations(min_obs);
        let replay = || {
            let mut ctl = AdaptiveController::new(policy);
            ratios
                .iter()
                .map(|&r| ctl.observe(r.saturating_mul(1_000), 1_000_000))
                .collect::<Vec<_>>()
        };
        let (a, b) = (replay(), replay());
        prop_assert_eq!(&a, &b, "same script must give same decisions");
        let fired = a
            .iter()
            .filter(|d| matches!(d, AdaptiveDecision::Replan { .. }))
            .count();
        prop_assert!(fired as u32 <= budget, "re-plan budget exceeded");
    }

    /// A scripted adaptive run under arbitrary feedback: emitted rows grow
    /// strictly monotonically chunk by chunk until every remaining row is
    /// covered, re-plans stay within budget, and the bytes match the
    /// non-adaptive reference.
    #[test]
    fn scripted_runs_cover_all_rows_monotonically(
        ratios in proptest::collection::vec(50u64..5_000, 1..16),
        budget in 1u32..5,
        seed in 1u64..20,
    ) {
        let fx = Fixture::new(2_000, 1, seed, 1, 1_024);
        let policy = AdaptivePolicy::hair_trigger().replans(budget);
        let mut run = fx.run();
        run.attach_adaptive(
            policy,
            Box::new(ScriptedFeedback::from_ratios(&ratios)),
            &fx.params,
            Counter::default(),
        );
        let mut sink = MaterializeSink::new();
        let total = fx.workload.expected_matches;
        let mut covered = 0usize;
        while let Some(rows) = run.step(&mut sink) {
            prop_assert!(rows > 0, "every chunk must advance coverage");
            prop_assert!(run.streaming().chunk_rows >= 1, "one-row floor");
            covered += rows;
            prop_assert_eq!(covered, run.rows_emitted());
        }
        prop_assert_eq!(covered, total, "remaining rows must be fully covered");
        prop_assert!(run.run_stats().adaptive_replans <= budget as usize);
        prop_assert_eq!(columns(&sink.into_result()), fx.expected.clone());
    }
}

/// The peak working set honours the budget with adaptation enabled for
/// every direction the controller can move (slow shrinks, fast restores).
#[test]
fn adaptive_peak_working_set_never_exceeds_the_grant() {
    let budget_bytes = 2 * 1024;
    let fx = Fixture::new(6_000, 2, 31, 1, budget_bytes);
    for script in [
        ScriptedFeedback::constant(4_000),
        ScriptedFeedback::constant(200),
        ScriptedFeedback::from_ratios(&[4_000, 200, 4_000, 200]),
    ] {
        let stats = fx.run_adaptive(AdaptivePolicy::hair_trigger(), script);
        assert!(
            stats.peak_chunk_bytes <= budget_bytes,
            "peak {} exceeds grant {budget_bytes}",
            stats.peak_chunk_bytes
        );
        assert!(stats.streaming.max_working_set_bytes() <= budget_bytes);
    }
}
