//! # rdx-api — one front door
//!
//! Four PRs of growth left the workspace with four disjoint entry points —
//! `DsmPostProjection::plan/execute` in `rdx-core`, the parallel executors
//! in `rdx-exec`, the streaming `ProjectionPipeline`/`PipelineRun`, and a
//! synchronous batch call in `rdx-serve` (since removed) — each with its own
//! config plumbing and its own error conventions.  This crate is the single
//! public surface that replaces all of them:
//!
//! * a [`Session`] owns the catalog, the shared [`CacheParams`], the global
//!   [`MemoryBudget`], the clustered-join-index cache and the scratch pools;
//! * a fluent [`Query`] builder
//!   (`session.query(larger, smaller).project(spec).budget(b).threads(t)`)
//!   resolves through **one planner entry**
//!   ([`rdx_serve::QueryEngine::resolve`]) to any execution mode:
//!   [`Query::run`] (one-shot materialise), [`Query::stream`] (chunked into
//!   a caller sink), or [`Query::submit`] (enqueue into the serve
//!   scheduler);
//! * [`Query::submit`] returns a **non-blocking [`Ticket`]** whose
//!   [`Ticket::poll`] reports [`QueryPoll::Queued`],
//!   [`QueryPoll::Chunk`]`(progress)`, [`QueryPoll::Done`]`(report)` or
//!   [`QueryPoll::Rejected`]`(RdxError)`, and [`Session::drive`] pumps the
//!   stride scheduler a bounded number of chunk-steps per call.
//!
//! Every fallible path reports the workspace-wide [`RdxError`].
//!
//! ## The `Ticket` state machine
//!
//! ```text
//!              ┌─────────────────────────── Rejected(RdxError) ◄─┐
//!              ▼                                                 │ (validation /
//! submit() ─► Queued ──admit──► Chunk{..} ──last chunk──► Done(report)
//!              FIFO              progress                  taken exactly once
//! ```
//!
//! A ticket moves strictly left to right; polls never block and never run
//! chunks.  `Queued` tickets wait in FIFO admission order under the global
//! memory budget; `Chunk` carries live progress (chunks/rows emitted so
//! far); the terminal states are delivered **exactly once** — the first
//! poll that observes completion takes the parked report (or error) with
//! it, and any later poll of the same ticket reports
//! [`RdxError::UnknownTicket`].  Work only happens inside
//! [`Session::drive`] (or the blocking [`Query::run`]/[`Query::stream`]
//! modes): `submit` and `poll` are safe to call between chunk steps of any
//! in-flight query, which is exactly the surface an async network front
//! needs — accept and observe queries while a batch is in flight, without
//! touching the executors.
//!
//! ## Quickstart
//!
//! ```
//! use rdx_api::{QueryPoll, Session};
//! use rdx_core::strategy::QuerySpec;
//! use rdx_workload::JoinWorkloadBuilder;
//!
//! let mut session = Session::default();
//! let w = JoinWorkloadBuilder::equal(2_000, 2).seed(1).build();
//! let larger = session.register(w.larger.clone());
//! let smaller = session.register(w.smaller.clone());
//!
//! // One-shot: plan, execute, materialise.
//! let report = session
//!     .query(larger, smaller)
//!     .project(QuerySpec::symmetric(2))
//!     .run()
//!     .unwrap();
//! assert_eq!(report.result.cardinality(), w.expected_matches);
//!
//! // Non-blocking: submit, drive, poll.
//! let ticket = session
//!     .query(larger, smaller)
//!     .project(QuerySpec::symmetric(1))
//!     .submit();
//! while session.drive(8) > 0 {}
//! match ticket.poll(&mut session) {
//!     QueryPoll::Done(report) => assert_eq!(report.stats.rows, w.expected_matches),
//!     other => panic!("expected Done, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod query;
mod session;
mod ticket;

pub use query::Query;
pub use session::Session;
pub use ticket::{ChunkProgress, QueryPoll, Ticket};

// The session vocabulary, re-exported so `rdx_api` alone is a complete
// front door.
pub use rdx_cache::CacheParams;
pub use rdx_core::budget::{BudgetError, MemoryBudget};
pub use rdx_core::error::{DeadlineError, RdxError, Side};
pub use rdx_core::fault::{FaultAction, FaultInjector, FaultPlan, RetryPolicy};
pub use rdx_core::strategy::{PhaseTimings, QuerySpec, RowChunkSink};
pub use rdx_obs::{
    EventKind, HistogramSnapshot, MetricValue, MetricsSnapshot, QueryId, TraceEvent, TraceSnapshot,
};
pub use rdx_serve::{
    CacheStats, Catalog, FairnessPolicy, QueryResult, QueryStats, RelationId, ServeConfig, TicketId,
};

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_core::strategy::{
        CountingSink, DsmPostProjection, MaterializeSink, ProjectionCode, SecondSideCode,
    };
    use rdx_dsm::ResultRelation;
    use rdx_workload::JoinWorkloadBuilder;

    fn columns(result: &ResultRelation) -> Vec<Vec<i32>> {
        result
            .columns()
            .iter()
            .map(|c| c.as_slice().to_vec())
            .collect()
    }

    #[test]
    fn run_matches_the_legacy_executor_at_the_same_params() {
        let w = JoinWorkloadBuilder::equal(1_500, 2).seed(41).build();
        let params = CacheParams::tiny_for_tests();
        let mut session = Session::with_params(params.clone());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(2);
        let report = session
            .query(larger, smaller)
            .project(spec)
            .run()
            .expect("runs");
        // plan_shares = 1: the session planned at exactly `params`, so the
        // legacy executor with the session's chosen codes is byte-identical.
        let legacy = report
            .stats
            .plan
            .execute(&w.larger, &w.smaller, &spec, &params);
        assert_eq!(columns(&report.result), columns(&legacy.result));
        assert_eq!(report.stats.rows, w.expected_matches);
    }

    #[test]
    fn stream_honours_the_budget_and_the_sink_protocol() {
        let w = JoinWorkloadBuilder::equal(2_000, 1).seed(43).build();
        let mut session = Session::with_params(CacheParams::tiny_for_tests());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        let budget = MemoryBudget::bytes(512);
        let mut sink = CountingSink::new(MaterializeSink::new());
        let stats = session
            .query(larger, smaller)
            .project(QuerySpec::symmetric(1))
            .budget(budget)
            .threads(2)
            .stream(&mut sink)
            .expect("streams");
        assert_eq!(stats.rows, w.expected_matches);
        assert!(stats.chunks > 1, "512 B must chunk 2000 rows");
        assert_eq!(sink.chunks, stats.chunks);
        assert!(stats.peak_chunk_bytes <= 512);
        assert_eq!(stats.share_bytes, 512);
    }

    #[test]
    fn ticket_lifecycle_queued_chunk_done_then_unknown() {
        let w = JoinWorkloadBuilder::equal(1_200, 1).seed(47).build();
        let mut session = Session::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(256),
            plan_shares: Some(1),
            ..ServeConfig::default()
        });
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        let ticket = session.query(larger, smaller).submit();
        assert!(matches!(ticket.poll(&mut session), QueryPoll::Queued));
        assert_eq!(session.drive(1), 1);
        match ticket.poll(&mut session) {
            QueryPoll::Chunk(p) => {
                assert_eq!(p.chunks, 1);
                assert!(p.rows > 0);
            }
            other => panic!("expected Chunk, got {other:?}"),
        }
        while session.drive(16) > 0 {}
        assert!(session.is_idle());
        match ticket.poll(&mut session) {
            QueryPoll::Done(report) => assert_eq!(report.stats.rows, w.expected_matches),
            other => panic!("expected Done, got {other:?}"),
        }
        // The outcome was taken: the ticket is now unknown.
        match ticket.poll(&mut session) {
            QueryPoll::Rejected(RdxError::UnknownTicket { ticket: id }) => {
                assert_eq!(id, ticket.id().raw())
            }
            other => panic!("expected UnknownTicket, got {other:?}"),
        }
    }

    #[test]
    fn submission_between_drive_steps_joins_the_mix() {
        let w = JoinWorkloadBuilder::equal(2_500, 1).seed(53).build();
        let mut session = Session::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(8 * 1024),
            plan_shares: Some(1),
            ..ServeConfig::default()
        });
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        let a = session.query(larger, smaller).submit();
        session.drive(3);
        assert!(matches!(a.poll(&mut session), QueryPoll::Chunk(_)));
        // The async-front enabler: a new submission lands while A is
        // mid-flight, and both finish correctly.
        let b = session.query(larger, smaller).submit();
        while session.drive(32) > 0 {}
        let (ra, rb) = match (a.poll(&mut session), b.poll(&mut session)) {
            (QueryPoll::Done(ra), QueryPoll::Done(rb)) => (ra, rb),
            other => panic!("expected two Done, got {other:?}"),
        };
        assert_eq!(columns(&ra.result), columns(&rb.result));
        assert_eq!(ra.stats.rows, w.expected_matches);
    }

    #[test]
    fn invalid_queries_reject_with_typed_errors() {
        let w = JoinWorkloadBuilder::equal(400, 1).seed(59).build();
        let mut session = Session::with_params(CacheParams::tiny_for_tests());
        let smaller = session.register(w.smaller.clone());
        // An id minted by a *different* session: unknown to this catalog.
        let foreign = {
            let mut other = Session::with_params(CacheParams::tiny_for_tests());
            other.register(w.smaller.clone());
            other.register(w.larger.clone())
        };
        let ghost = session.query(foreign, smaller).submit();
        match ghost.poll(&mut session) {
            QueryPoll::Rejected(RdxError::UnknownRelation { id }) => {
                assert_eq!(id, foreign.raw())
            }
            other => panic!("expected UnknownRelation, got {other:?}"),
        }
        let larger = session.register(w.larger.clone());
        let err = session
            .query(larger, smaller)
            .project(QuerySpec::symmetric(9))
            .run()
            .unwrap_err();
        assert!(matches!(err, RdxError::TooManyColumns { .. }));
        let err = session
            .query(larger, smaller)
            .budget(MemoryBudget::bytes(2))
            .run()
            .unwrap_err();
        assert!(matches!(err, RdxError::Budget(_)));
    }

    #[test]
    fn a_ticket_polled_against_the_wrong_session_is_unknown_not_aliased() {
        let w = JoinWorkloadBuilder::equal(500, 1).seed(67).build();
        let mut a = Session::with_params(CacheParams::tiny_for_tests());
        let mut b = Session::with_params(CacheParams::tiny_for_tests());
        let (al, asm) = (a.register(w.larger.clone()), a.register(w.smaller.clone()));
        let (bl, bsm) = (b.register(w.larger.clone()), b.register(w.smaller.clone()));
        let ticket_a = a.query(al, asm).submit();
        let ticket_b = b.query(bl, bsm).submit();
        while a.drive(16) > 0 {}
        while b.drive(16) > 0 {}
        // Ticket ids are process-unique: A's ticket polled against B can
        // never take (and so consume) B's outcome.
        match ticket_a.poll(&mut b) {
            QueryPoll::Rejected(RdxError::UnknownTicket { ticket }) => {
                assert_eq!(ticket, ticket_a.id().raw())
            }
            other => panic!("expected UnknownTicket, got {other:?}"),
        }
        // B's rightful owner still gets its result.
        match ticket_b.poll(&mut b) {
            QueryPoll::Done(report) => assert_eq!(report.stats.rows, w.expected_matches),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn phase_timings_and_wall_clock_surface_through_the_front_door() {
        let w = JoinWorkloadBuilder::equal(1_500, 2).seed(71).build();
        let mut session = Session::with_params(CacheParams::tiny_for_tests());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());

        // Direct run: the phase breakdown of the work it actually did.
        let report = session
            .query(larger, smaller)
            .project(QuerySpec::symmetric(2))
            .run()
            .expect("runs");
        let t = report.stats.timings;
        assert!(t.join.as_nanos() > 0, "cold run paid the join");
        assert!(t.total() > std::time::Duration::ZERO);
        assert!(report.stats.service > std::time::Duration::ZERO);
        assert_eq!(
            report.stats.total_wall(),
            report.stats.wait + report.stats.service
        );

        // Ticket: queue wait + service + phase breakdown in the Done report.
        let ticket = session
            .query(larger, smaller)
            .project(QuerySpec::symmetric(2))
            .submit();
        while session.drive(16) > 0 {}
        match ticket.poll(&mut session) {
            QueryPoll::Done(done) => {
                assert!(done.stats.cache_hit, "prefix warmed by the direct run");
                // A cache hit never paid the join prefix…
                assert_eq!(done.stats.timings.join, std::time::Duration::ZERO);
                // …but the chunk-loop phases are still accounted.
                assert!(done.stats.timings.total() > std::time::Duration::ZERO);
                assert!(done.stats.total_wall() >= done.stats.service);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn observability_accessors_are_none_when_disabled_and_live_when_enabled() {
        let w = JoinWorkloadBuilder::equal(900, 1).seed(73).build();

        // Default session: no registry, no trace, no query events.
        let off = Session::with_params(CacheParams::tiny_for_tests());
        assert!(!off.observability());
        assert!(off.metrics().is_none());
        assert!(off.trace_snapshot().is_none());

        // Observability on: one ticket's full lifecycle is replayable.
        let mut session = Session::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(1024),
            plan_shares: Some(1),
            observability: true,
            ..ServeConfig::default()
        });
        assert!(session.observability());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        let ticket = session.query(larger, smaller).submit();
        while session.drive(16) > 0 {}
        let report = match ticket.poll(&mut session) {
            QueryPoll::Done(report) => report,
            other => panic!("expected Done, got {other:?}"),
        };

        let trace = session.trace_snapshot().expect("enabled");
        let life = trace.events_for(QueryId(report.stats.query_id));
        let labels: Vec<_> = life.iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels[0], "submit");
        assert_eq!(labels[1], "admit");
        assert_eq!(labels[2], "cache_lookup");
        assert_eq!(labels.last(), Some(&"done"));
        let chunk_events = labels.iter().filter(|l| **l == "chunk_step").count();
        assert_eq!(chunk_events, report.stats.chunks);

        let metrics = session.metrics().expect("enabled");
        assert_eq!(metrics.counter("engine.admissions"), Some(1));
        assert_eq!(metrics.counter("engine.cache_misses"), Some(1));
        assert_eq!(
            metrics.counter("engine.chunks_dispatched"),
            // step() returns Some for each chunk plus a final None step.
            Some(report.stats.chunks as u64)
        );
        let h = metrics.histogram("pipeline.chunk_ns").expect("recorded");
        assert_eq!(h.count, report.stats.chunks as u64);
    }

    #[test]
    fn pinned_codes_flow_through_every_mode() {
        let w = JoinWorkloadBuilder::equal(800, 1).seed(61).build();
        let params = CacheParams::tiny_for_tests();
        let mut session = Session::with_params(params.clone());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        let plan = DsmPostProjection::with_codes(ProjectionCode::Sorted, SecondSideCode::Unsorted);
        let run = session
            .query(larger, smaller)
            .codes(plan)
            .run()
            .expect("runs");
        assert_eq!(run.stats.plan, plan);
        let ticket = session.query(larger, smaller).codes(plan).submit();
        while session.drive(16) > 0 {}
        match ticket.poll(&mut session) {
            QueryPoll::Done(report) => {
                assert_eq!(report.stats.plan, plan);
                assert_eq!(columns(&report.result), columns(&run.result));
                // Same codes + same cluster spec: the second mode hit the
                // prefix cache the first one warmed.
                assert!(report.stats.cache_hit);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
}
