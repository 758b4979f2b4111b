//! Fault-injection conformance: every degradation path of the serving
//! stack is a **pure function of the scripted
//! [`FaultPlan`]** — worker panics poison exactly one query, infeasible
//! deadlines never run a chunk, cancellation at *any* chunk boundary
//! reclaims the admission grant, retries recover deterministically, and
//! two runs of the same script produce identical traces.  Throughout,
//! surviving queries stay byte-identical to their serial runs: degradation
//! changes *which* queries finish, never the bytes of those that do.

mod common;

use common::columns;
use proptest::prelude::*;
use radix_decluster::prelude::*;

/// Engine knobs shared by every scenario.  `plan_shares` is pinned so the
/// serial oracle (one slot) and the concurrent engines (two slots) choose
/// identical plans — the suite then compares pure scheduling and fault
/// handling, never plan drift.
fn config(budget_bytes: usize, observability: bool) -> ServeConfig {
    ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(budget_bytes),
        max_concurrent: 2,
        threads_per_query: 1,
        cache_bytes: 1 << 20,
        fairness: FairnessPolicy::CostWeighted,
        plan_shares: Some(2),
        observability,
        profiled: false,
        ..ServeConfig::default()
    }
}

/// The serial oracle: the same request alone in a fresh one-slot engine.
fn serial_columns(
    w: &workload::JoinWorkload,
    spec: QuerySpec,
    budget_bytes: usize,
) -> Vec<Vec<i32>> {
    let mut cfg = config(budget_bytes, false);
    cfg.max_concurrent = 1;
    let mut session = Session::new(cfg);
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    let ticket = session.query(larger, smaller).project(spec).submit();
    while session.drive(64) > 0 {}
    match ticket.poll(&mut session) {
        QueryPoll::Done(q) => columns(&q.result),
        other => panic!("serial oracle must complete, got {other:?}"),
    }
}

#[test]
fn injected_worker_panic_poisons_exactly_one_query() {
    let w = JoinWorkloadBuilder::equal(1_500, 1).seed(41).build();
    let spec = QuerySpec::symmetric(1);
    let expected = serial_columns(&w, spec, 4 * 1024);

    let mut session = Session::new(config(4 * 1024, false));
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    // Submission ordinal 0 panics on worker 1 at its third chunk step;
    // ordinal 1 is untouched and runs concurrently with the failure.
    session.inject_faults(FaultPlan::new().panic_at(0, 2, 1));
    let victim = session.query(larger, smaller).project(spec).submit();
    let survivor = session.query(larger, smaller).project(spec).submit();
    while session.drive(64) > 0 {}

    match victim.poll(&mut session) {
        QueryPoll::Rejected(RdxError::WorkerPanicked { worker }) => assert_eq!(worker, 1),
        other => panic!("victim must report its panic, got {other:?}"),
    }
    // The terminal outcome is delivered to exactly one poll.
    assert!(matches!(
        victim.poll(&mut session),
        QueryPoll::Rejected(RdxError::UnknownTicket { .. })
    ));
    match survivor.poll(&mut session) {
        QueryPoll::Done(q) => assert_eq!(columns(&q.result), expected),
        other => panic!("survivor must finish clean, got {other:?}"),
    }
    let engine = session.engine_mut();
    assert_eq!(engine.stats().worker_panics, 1);
    assert_eq!(engine.committed_bytes(), 0, "panicked grant reclaimed");
}

#[test]
fn infeasible_deadline_never_runs_a_chunk() {
    let w = JoinWorkloadBuilder::equal(2_000, 1).seed(43).build();
    let spec = QuerySpec::symmetric(1);
    let mut session = Session::new(config(4 * 1024, false));
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    let doomed = session
        .query(larger, smaller)
        .project(spec)
        .deadline(1)
        .submit();
    while session.drive(64) > 0 {}
    match doomed.poll(&mut session) {
        QueryPoll::Rejected(RdxError::Deadline(DeadlineError::Infeasible {
            predicted_ns,
            deadline_ns,
        })) => {
            assert!(predicted_ns > deadline_ns);
            assert_eq!(deadline_ns, 1);
        }
        other => panic!("expected infeasible rejection, got {other:?}"),
    }
    let stats = session.engine_mut().stats();
    assert_eq!(stats.deadline_rejects, 1);
    assert_eq!(
        stats.chunks_dispatched, 0,
        "rejected at admission, not mid-run"
    );
}

#[test]
fn scripted_slowdown_exceeds_the_deadline_deterministically() {
    let w = JoinWorkloadBuilder::equal(1_500, 1).seed(47).build();
    let spec = QuerySpec::symmetric(1);
    let mut session = Session::new(config(2 * 1024, false));
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    // A second of real slack dwarfs actual wall time; only the scripted
    // 10¹² ns slowdown at chunk 1 can trip the deadline.
    session.inject_faults(FaultPlan::new().slow_at(0, 1, 1_000_000_000_000));
    let ticket = session
        .query(larger, smaller)
        .project(spec)
        .deadline(1_000_000_000)
        .submit();
    while session.drive(64) > 0 {}
    match ticket.poll(&mut session) {
        QueryPoll::Rejected(RdxError::Deadline(DeadlineError::Exceeded {
            consumed_ns,
            deadline_ns,
        })) => {
            assert!(consumed_ns > deadline_ns);
            assert_eq!(deadline_ns, 1_000_000_000);
        }
        other => panic!("expected deadline-exceeded teardown, got {other:?}"),
    }
    assert_eq!(session.engine_mut().committed_bytes(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cancellation at **every** chunk boundary: for each workload seed the
    /// inner loop cancels the victim after exactly `k` drive steps, for all
    /// `k` from "still queued" past "already finished".  At every boundary:
    /// the grant comes back (`Σ grants ≤ global` → committed bytes reach 0),
    /// the terminal outcome is observed exactly once, and the surviving
    /// query stays byte-identical to its serial run.
    #[test]
    fn cancellation_at_every_chunk_boundary(seed in 1u64..500) {
        let w = JoinWorkloadBuilder::equal(600, 1).seed(seed).build();
        let spec = QuerySpec::symmetric(1);
        let budget = 2 * 1024;
        let global = budget;
        let expected = serial_columns(&w, spec, budget);

        // How many drive steps a clean two-query mix takes end to end.
        let total_steps = {
            let mut session = Session::new(config(budget, false));
            let larger = session.register(w.larger.clone());
            let smaller = session.register(w.smaller.clone());
            session.query(larger, smaller).project(spec).submit();
            session.query(larger, smaller).project(spec).submit();
            let mut steps = 0usize;
            while session.drive(1) > 0 {
                steps += 1;
            }
            steps
        };
        prop_assert!(total_steps > 2);

        for k in 0..=total_steps {
            let mut session = Session::new(config(budget, false));
            let larger = session.register(w.larger.clone());
            let smaller = session.register(w.smaller.clone());
            let victim = session.query(larger, smaller).project(spec).submit();
            let survivor = session.query(larger, smaller).project(spec).submit();
            for _ in 0..k {
                session.drive(1);
                // The admission invariant holds at every boundary.
                prop_assert!(session.engine_mut().committed_bytes() <= global);
            }
            let was_live = victim.cancel(&mut session);
            if was_live {
                match victim.poll(&mut session) {
                    QueryPoll::Rejected(RdxError::Cancelled) => {}
                    other => panic!("k={k}: cancelled victim polled {other:?}"),
                }
            } else {
                // Cancel arrived after the finish line; the parked outcome
                // is still delivered exactly once.
                match victim.poll(&mut session) {
                    QueryPoll::Done(q) => prop_assert_eq!(&columns(&q.result), &expected),
                    other => panic!("k={k}: finished victim polled {other:?}"),
                }
            }
            // Exactly one terminal poll either way.
            let second_poll_is_unknown = matches!(
                victim.poll(&mut session),
                QueryPoll::Rejected(RdxError::UnknownTicket { .. })
            );
            prop_assert!(second_poll_is_unknown, "terminal outcome delivered twice");
            while session.drive(64) > 0 {}
            match survivor.poll(&mut session) {
                QueryPoll::Done(q) => prop_assert_eq!(&columns(&q.result), &expected),
                other => panic!("k={k}: survivor polled {other:?}"),
            }
            prop_assert_eq!(session.engine_mut().committed_bytes(), 0);
        }
    }
}

#[test]
fn retry_policy_recovers_scripted_grant_denials() {
    let w = JoinWorkloadBuilder::equal(800, 1).seed(53).build();
    let spec = QuerySpec::symmetric(1);
    let expected = serial_columns(&w, spec, 4 * 1024);
    let mut session = Session::new(config(4 * 1024, false));
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());

    // Two scripted denials against two allowed retries: the third attempt
    // is admitted and the result is indistinguishable from a clean run.
    session.inject_faults(FaultPlan::new().deny_grant(0).deny_grant(0));
    let ticket = session
        .query(larger, smaller)
        .project(spec)
        .retry(RetryPolicy::with_retries(2))
        .submit();
    while session.drive(64) > 0 {}
    match ticket.poll(&mut session) {
        QueryPoll::Done(q) => assert_eq!(columns(&q.result), expected),
        other => panic!("retried query must complete, got {other:?}"),
    }
    let stats = session.engine_mut().stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(
        stats.budget_rejects, 0,
        "every denial was retried, not rejected"
    );
}

#[test]
fn retry_exhaustion_surfaces_the_underlying_error() {
    let w = JoinWorkloadBuilder::equal(800, 1).seed(59).build();
    let spec = QuerySpec::symmetric(1);
    let mut session = Session::new(config(4 * 1024, false));
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    // Two denials against one allowed retry: the second rejection is final.
    session.inject_faults(FaultPlan::new().deny_grant(0).deny_grant(0));
    let ticket = session
        .query(larger, smaller)
        .project(spec)
        .retry(RetryPolicy::with_retries(1))
        .submit();
    while session.drive(64) > 0 {}
    assert!(matches!(
        ticket.poll(&mut session),
        QueryPoll::Rejected(RdxError::Budget(BudgetError::ZeroBytes))
    ));
    let stats = session.engine_mut().stats();
    assert_eq!((stats.retries, stats.budget_rejects), (1, 1));
}

#[test]
fn panicked_query_with_retry_completes_byte_identical() {
    let w = JoinWorkloadBuilder::equal(1_200, 1).seed(61).build();
    let spec = QuerySpec::symmetric(1);
    let expected = serial_columns(&w, spec, 4 * 1024);
    let mut session = Session::new(config(4 * 1024, false));
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    session.inject_faults(FaultPlan::new().panic_at(0, 1, 0));
    let ticket = session
        .query(larger, smaller)
        .project(spec)
        .retry(RetryPolicy::with_retries(1))
        .submit();
    while session.drive(64) > 0 {}
    match ticket.poll(&mut session) {
        QueryPoll::Done(q) => assert_eq!(columns(&q.result), expected),
        other => panic!("re-run after panic must complete, got {other:?}"),
    }
    let stats = session.engine_mut().stats();
    assert_eq!((stats.worker_panics, stats.retries), (1, 1));
}

#[test]
fn scripted_cache_eviction_forces_a_rebuild() {
    let w = JoinWorkloadBuilder::equal(1_000, 1).seed(67).build();
    let spec = QuerySpec::symmetric(1);
    let mut session = Session::new(config(4 * 1024, false));
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    // Ordinal 0 warms the clustered-prefix cache; the scripted eviction
    // fires as ordinal 1 resolves, so it must rebuild; ordinal 2 then hits
    // what 1 re-inserted.
    session.inject_faults(FaultPlan::new().evict_cache(1));
    let hits = [false, false, true].map(|expect_hit| {
        let ticket = session.query(larger, smaller).project(spec).submit();
        while session.drive(64) > 0 {}
        match ticket.poll(&mut session) {
            QueryPoll::Done(q) => {
                assert_eq!(q.stats.cache_hit, expect_hit);
                columns(&q.result)
            }
            other => panic!("evicted-cache query must still complete, got {other:?}"),
        }
    });
    // Eviction changes where the prefix came from, never the bytes.
    assert_eq!(hits[0], hits[1]);
    assert_eq!(hits[1], hits[2]);
    assert!(session.cache_stats().evictions >= 1);
}

/// Maps a trace to its replayable shape: event labels (plus the cancel
/// reason), with wall-clock fields deliberately excluded.
fn trace_labels(snapshot: &TraceSnapshot) -> Vec<String> {
    snapshot
        .events
        .iter()
        .map(|e| match e.kind {
            EventKind::Cancel { reason } => format!("cancel:{reason}"),
            kind => kind.label().to_string(),
        })
        .collect()
}

#[test]
fn identical_fault_scripts_produce_identical_traces() {
    let w = JoinWorkloadBuilder::equal(900, 1).seed(71).build();
    let spec = QuerySpec::symmetric(1);
    let run = || {
        let mut session = Session::new(config(4 * 1024, true));
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        // One of everything: a panic, a denial retried to success, a clean
        // survivor and a user cancellation.
        session.inject_faults(FaultPlan::new().panic_at(0, 1, 2).deny_grant(1));
        let panicked = session.query(larger, smaller).project(spec).submit();
        let retried = session
            .query(larger, smaller)
            .project(spec)
            .retry(RetryPolicy::with_retries(1))
            .submit();
        let cancelled = session.query(larger, smaller).project(spec).submit();
        session.drive(3);
        cancelled.cancel(&mut session);
        while session.drive(64) > 0 {}
        assert!(matches!(
            panicked.poll(&mut session),
            QueryPoll::Rejected(RdxError::WorkerPanicked { worker: 2 })
        ));
        assert!(matches!(retried.poll(&mut session), QueryPoll::Done(_)));
        assert!(matches!(
            cancelled.poll(&mut session),
            QueryPoll::Rejected(RdxError::Cancelled)
        ));
        trace_labels(&session.trace_snapshot().expect("observability on"))
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "degradation must be a pure function of the script"
    );
    assert!(first.iter().any(|l| l == "cancel:worker_panic"));
    assert!(first.iter().any(|l| l == "cancel:user"));
}
