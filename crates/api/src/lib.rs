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
//!   ends in [`Query::submit`] (enqueue into the serve scheduler) or
//!   [`Query::run`] (one-shot materialise), which is that same ticket
//!   submitted and driven until it finishes — one query lifecycle either
//!   way;
//! * [`Query::submit`] returns a **non-blocking [`TicketId`]**,
//!   [`Session::poll`] reports where it is and [`Session::drive`] pumps
//!   the chunk scheduler a bounded number of chunk-steps per call.
//!
//! Every fallible path reports the workspace-wide [`RdxError`].
//!
//! A ticket's life is the engine's one state machine (drawn in
//! [`rdx_serve::engine`]): [`Session::poll`] hands on the engine's
//! [`TicketPoll`] as is — `Queued`, `Running` with live progress, then
//! `Done(Served)` or `Rejected(RdxError)` delivered to exactly one poll,
//! after which the ticket reports [`RdxError::UnknownTicket`].  Polls
//! never block and never run chunks; work only happens inside
//! [`Session::drive`] (which the blocking [`Query::run`] calls), so
//! `submit` and `poll` are safe between chunk steps of any in-flight
//! query — the surface an async network front needs.
//!
//! ## Quickstart
//!
//! ```
//! use rdx_api::{Served, Session, TicketPoll};
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
//! match session.poll(ticket) {
//!     TicketPoll::Done(Served::Columns(report)) => {
//!         assert_eq!(report.stats.rows, w.expected_matches)
//!     }
//!     other => panic!("expected Done, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod query;
mod session;

pub use query::Query;
pub use session::Session;

// The session vocabulary, re-exported so `rdx_api` alone is a complete
// front door.
pub use rdx_cache::CacheParams;
pub use rdx_core::budget::{BudgetError, MemoryBudget};
pub use rdx_core::error::{DeadlineError, RdxError, Side};
pub use rdx_core::fault::{FaultAction, FaultInjector, FaultPlan, RetryPolicy};
pub use rdx_core::strategy::{PhaseTimings, QuerySpec};
pub use rdx_obs::{
    EventKind, HistogramSnapshot, MetricValue, MetricsSnapshot, QueryId, TraceEvent, TraceSnapshot,
};
pub use rdx_serve::{
    CacheStats, Catalog, QueryResult, QueryStats, RelationId, ServeConfig, Served, TicketId,
    TicketPoll,
};

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_core::strategy::{DsmPostProjection, ProjectionCode, SecondSideCode};
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
    fn run_matches_the_one_chunk_materialize_at_the_same_params() {
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
        // one-chunk materialise with the session's chosen codes is
        // byte-identical.
        let (one_chunk, _) = rdx_exec::ProjectionPipeline::new(report.stats.plan)
            .materialize(
                &w.larger,
                &w.smaller,
                &spec,
                &params,
                &rdx_exec::ExecPolicy::with_threads(1),
            )
            .unwrap();
        assert_eq!(columns(&report.result), columns(&one_chunk.result));
        assert_eq!(report.stats.rows, w.expected_matches);
    }

    #[test]
    fn run_honours_its_budget_hint() {
        let w = JoinWorkloadBuilder::equal(2_000, 1).seed(43).build();
        let mut session = Session::with_params(CacheParams::tiny_for_tests());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        let stats = session
            .query(larger, smaller)
            .project(QuerySpec::symmetric(1))
            .budget(MemoryBudget::bytes(512))
            .threads(2)
            .run()
            .expect("runs")
            .stats;
        assert_eq!(stats.rows, w.expected_matches);
        assert!(stats.chunks > 1, "512 B must chunk 2000 rows");
        assert!(stats.peak_chunk_bytes <= 512);
        assert_eq!(stats.share_bytes, 512);
    }

    #[test]
    fn run_waits_in_fifo_behind_tickets_holding_the_budget() {
        let w = JoinWorkloadBuilder::equal(1_000, 1).seed(13).build();
        let mut session = Session::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(4_096),
            max_concurrent: 2,
            plan_shares: Some(1),
            ..ServeConfig::default()
        });
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        // Two tickets take both 2 KB fair shares: the whole budget.
        let a = session.query(larger, smaller).submit();
        let b = session.query(larger, smaller).submit();
        assert_eq!(session.drive(1), 1);
        assert_eq!(session.in_flight(), 2);
        assert_eq!(session.engine_mut().committed_bytes(), 4_096);
        // A run() is a ticket like any other: it queues behind them, runs
        // at its own fair share once one releases, and finishes after both.
        // Every step it drives checks `Σ grants = committed ≤ global` in
        // debug builds.
        let report = session.query(larger, smaller).run().expect("served");
        assert_eq!(report.stats.rows, w.expected_matches);
        assert_eq!(report.stats.share_bytes, 2_048);
        assert!(report.stats.wait > std::time::Duration::ZERO);
        for ticket in [a, b] {
            match session.poll(ticket) {
                TicketPoll::Done(Served::Columns(q)) => {
                    assert_eq!(columns(&q.result), columns(&report.result))
                }
                other => panic!("expected Done before the run returned, got {other:?}"),
            }
        }
        assert_eq!(session.engine_mut().committed_bytes(), 0);
        assert!(session.is_idle());
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
        assert!(matches!(session.poll(ticket), TicketPoll::Queued { .. }));
        // A step writes one column chunk; the default π = 1 + 1 takes two
        // to make one row chunk's worth of progress.
        assert_eq!(session.drive(1), 1);
        assert!(matches!(
            session.poll(ticket),
            TicketPoll::Running { chunks: 0, .. }
        ));
        assert_eq!(session.drive(1), 1);
        match session.poll(ticket) {
            TicketPoll::Running { chunks, rows } => {
                assert_eq!(chunks, 1);
                assert!(rows > 0);
            }
            other => panic!("expected Chunk, got {other:?}"),
        }
        while session.drive(16) > 0 {}
        assert!(session.is_idle());
        match session.poll(ticket) {
            TicketPoll::Done(Served::Columns(report)) => {
                assert_eq!(report.stats.rows, w.expected_matches)
            }
            other => panic!("expected Done, got {other:?}"),
        }
        // The outcome was taken: the ticket is now unknown.
        match session.poll(ticket) {
            TicketPoll::Rejected(RdxError::UnknownTicket { ticket: id }) => {
                assert_eq!(id, ticket.raw())
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
        assert!(matches!(session.poll(a), TicketPoll::Running { .. }));
        // The async-front enabler: a new submission lands while A is
        // mid-flight, and both finish correctly.
        let b = session.query(larger, smaller).submit();
        while session.drive(32) > 0 {}
        let (ra, rb) = match (session.poll(a), session.poll(b)) {
            (TicketPoll::Done(Served::Columns(ra)), TicketPoll::Done(Served::Columns(rb))) => {
                (ra, rb)
            }
            other => panic!("expected two Done, got {other:?}"),
        };
        assert_eq!(columns(&ra.result), columns(&rb.result));
        assert_eq!(ra.stats.rows, w.expected_matches);
    }

    #[test]
    fn invalid_queries_reject_with_typed_errors() {
        let w = JoinWorkloadBuilder::equal(400, 1).seed(59).build();
        let mut session = Session::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            plan_shares: Some(1),
            tenant_quotas: rdx_serve::TenantQuotas::unlimited()
                .with_tenant("solo", rdx_serve::TenantQuota::unlimited().in_flight(1)),
            ..ServeConfig::default()
        });
        let smaller = session.register(w.smaller.clone());
        // An id minted by a *different* session: unknown to this catalog.
        let foreign = {
            let mut other = Session::with_params(CacheParams::tiny_for_tests());
            other.register(w.smaller.clone());
            other.register(w.larger.clone())
        };
        let ghost = session.query(foreign, smaller).submit();
        match session.poll(ghost) {
            TicketPoll::Rejected(RdxError::UnknownRelation { id }) => {
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
        // A run() for a tenant already at its in-flight quota is shed at
        // admission like any ticket, and without a policy never retried.
        let solo = session.tenant_id("solo");
        let holder = session.query(larger, smaller).tenant(solo).submit();
        assert_eq!(session.drive(1), 1);
        let err = session
            .query(larger, smaller)
            .tenant(solo)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            RdxError::TenantQuota { tenant, kind: rdx_core::error::TenantQuotaKind::InFlight { limit: 1, .. } }
                if tenant == solo.raw()
        ));
        assert_eq!(session.engine_mut().stats().retries, 0);
        while session.drive(16) > 0 {}
        assert!(matches!(
            session.poll(holder),
            TicketPoll::Done(Served::Columns(_))
        ));
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
        match b.poll(ticket_a) {
            TicketPoll::Rejected(RdxError::UnknownTicket { ticket }) => {
                assert_eq!(ticket, ticket_a.raw())
            }
            other => panic!("expected UnknownTicket, got {other:?}"),
        }
        // B's rightful owner still gets its result.
        match b.poll(ticket_b) {
            TicketPoll::Done(Served::Columns(report)) => {
                assert_eq!(report.stats.rows, w.expected_matches)
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn phase_timings_and_wall_clock_surface_through_the_front_door() {
        let w = JoinWorkloadBuilder::equal(1_500, 2).seed(71).build();
        let mut session = Session::with_params(CacheParams::tiny_for_tests());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());

        // One-shot run: the phase breakdown of the work it actually did.
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
        match session.poll(ticket) {
            TicketPoll::Done(Served::Columns(done)) => {
                assert!(done.stats.cache_hit, "prefix warmed by the one-shot run");
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
    fn metrics_are_always_live_and_the_trace_only_when_enabled() {
        let w = JoinWorkloadBuilder::equal(900, 1).seed(73).build();

        // Default session: the registry counts, but there is no trace.
        let mut off = Session::with_params(CacheParams::tiny_for_tests());
        assert!(!off.observability());
        let (larger, smaller) = (
            off.register(w.larger.clone()),
            off.register(w.smaller.clone()),
        );
        off.query(larger, smaller).run().expect("served");
        let metrics = off.metrics().expect("always kept");
        assert_eq!(metrics.counter("engine.admissions"), Some(1));
        assert!(
            metrics.histogram("pipeline.chunk_ns").is_none(),
            "no per-chunk timing"
        );
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
        let report = match session.poll(ticket) {
            TicketPoll::Done(Served::Columns(report)) => report,
            other => panic!("expected Done, got {other:?}"),
        };

        let trace = session.trace_snapshot().expect("enabled");
        let life = trace.events_for(QueryId(report.stats.query_id));
        let labels: Vec<_> = life.iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels[0], "submit");
        assert_eq!(labels[1], "admit");
        assert_eq!(labels[2], "cache_lookup");
        assert_eq!(labels.last(), Some(&"done"));
        // One chunk step per column chunk: the default π = 1 + 1 writes two
        // per row chunk.
        let steps = 2 * report.stats.chunks;
        let chunk_events = labels.iter().filter(|l| **l == "chunk_step").count();
        assert_eq!(chunk_events, steps);

        let metrics = session.metrics().expect("enabled");
        assert_eq!(metrics.counter("engine.admissions"), Some(1));
        assert_eq!(metrics.counter("engine.cache_misses"), Some(1));
        assert_eq!(
            metrics.counter("engine.chunks_dispatched"),
            // step() returns Some for each column chunk plus a final None
            // step.
            Some(steps as u64)
        );
        let h = metrics.histogram("pipeline.chunk_ns").expect("recorded");
        assert_eq!(h.count, steps as u64);
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
        match session.poll(ticket) {
            TicketPoll::Done(Served::Columns(report)) => {
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
