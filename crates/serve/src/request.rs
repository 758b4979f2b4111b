//! What goes into the [`QueryEngine`] and what comes out: the
//! engine-wide [`ServeConfig`], one query's [`ServerRequest`] and the
//! [`Query`] that builds it, and the result a served ticket resolves to
//! ([`Served`]) in the [`ResultForm`] its submitter chose.

use crate::engine::{QueryEngine, TicketId, TicketPoll};
use crate::registry::RelationId;
use crate::tenant::TenantId;
use rdx_cache::CacheParams;
use rdx_core::budget::MemoryBudget;
use rdx_core::error::RdxError;
use rdx_core::fault::RetryPolicy;
use rdx_core::strategy::{DsmPostProjection, PhaseTimings, QuerySpec};
use rdx_dsm::ResultRelation;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The modeled memory hierarchy (planning input).
    pub params: CacheParams,
    /// Global memory budget split across admitted queries.
    pub global_budget: MemoryBudget,
    /// Maximum concurrently admitted queries.
    pub max_concurrent: usize,
    /// Worker threads each chunk runs on (`0` = auto-detect).
    pub threads_per_query: usize,
    /// Byte budget of the clustered-join-index cache (`0` disables it).
    pub cache_bytes: usize,
    /// How many ways the shared cache is assumed split when *planning*
    /// (codes, cluster specs, predicted costs).  `None` — the default —
    /// uses `max_concurrent`.  Pinning it explicitly keeps plans, cluster
    /// specs and hence cache keys identical across servers with different
    /// concurrency settings, which is also what lets the conformance grid
    /// compare a serial and a concurrent server byte for byte.
    pub plan_shares: Option<usize>,
    /// Whether the engine traces (`rdx-obs`).  The registry — every engine,
    /// cache, tenant and `net.*` count — is kept either way; this switches
    /// on the trace ring, recording per-chunk timing (`pipeline.chunk_ns`
    /// and the predicted-vs-observed histogram) and profiling's permission
    /// to arm.  Off by default.  Every column chunk reads one clock pair
    /// either way; observability adds only the recording.
    pub observability: bool,
    /// Per-tenant admission caps layered on top of [`Self::global_budget`]
    /// (see [`crate::tenant`]): max in-flight queries and max resident
    /// grant bytes per tenant, enforced *before* the global
    /// `per_query_share` and rejected with the typed
    /// [`rdx_core::error::RdxError::TenantQuota`].  The default is
    /// unlimited for every tenant, so untagged deployments pay nothing.
    pub tenant_quotas: crate::tenant::TenantQuotas,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            params: CacheParams::paper_pentium4(),
            global_budget: MemoryBudget::unbounded(),
            max_concurrent: 4,
            threads_per_query: 1,
            cache_bytes: 64 << 20,
            plan_shares: None,
            observability: false,
            tenant_quotas: crate::tenant::TenantQuotas::default(),
        }
    }
}

/// One projection query over registered relations: the serving-layer form
/// of the paper's `SELECT a₁.. b₁.. FROM larger, smaller WHERE key = key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerRequest {
    /// The larger (probing) relation.
    pub larger: RelationId,
    /// The smaller (build) relation.
    pub smaller: RelationId,
    /// Columns projected from each side.
    pub spec: QuerySpec,
    /// Optional cap on this query's resident working set: it tightens the
    /// admission grant (default: the fair share of the global budget) and
    /// can only shrink it, never grow it.  A hint below the one-row floor
    /// is refused at submit, for good, never retried.
    pub budget_hint: Option<MemoryBudget>,
    /// Optional per-query worker-thread count (`0` = auto-detect),
    /// overriding [`ServeConfig::threads_per_query`].  Threads change only
    /// scheduling, never bytes, so this cannot affect results.
    pub threads_hint: Option<usize>,
    /// Optional pinned projection codes, bypassing the cost-based planner
    /// (what the conformance grid uses to drive every `u/s/c × u/d` cell
    /// through the one planner entry).
    pub codes: Option<DsmPostProjection>,
    /// Runs this query in cache-truth **profiled** mode: each chunk's
    /// kernels — the gathers and declusters that ship — report every array
    /// reference to the simulated [`CacheParams`] hierarchy as they run,
    /// recording per-phase spans and per-chunk miss counts (`profile.*`
    /// metrics, `ChunkProfile` trace events).  Requires
    /// [`ServeConfig::observability`]; output is byte-identical to
    /// unprofiled runs by construction.  Off by default — a probed kernel
    /// runs on one worker and pays simulator time per reference, so it is a
    /// measurement mode, not a serving mode.
    pub profiled: bool,
    /// Optional completion deadline, nanoseconds of *service time* from
    /// admission.  `Some` arms two enforcement points, both deterministic
    /// in what they decide (only *when* wall clock trips the second
    /// varies):
    ///
    /// 1. **Admission** rejects the query before a single chunk runs
    ///    ([`rdx_core::error::DeadlineError::Infeasible`]) when the
    ///    Appendix-A price of the chosen plan's codes, at its granted share
    ///    and resolved thread count, already exceeds the deadline, so a
    ///    doomed query never holds a grant.
    /// 2. **Chunk boundaries**: the engine tears an admitted run down at
    ///    the first boundary after its consumed service time (its chunk
    ///    loop's `PhaseTimings` plus injected slowdowns) passes the
    ///    deadline ([`rdx_core::error::DeadlineError::Exceeded`]),
    ///    reclaiming its grant.
    ///
    /// Deadlines also feed the scheduler: slack scales the query's
    /// predicted work left (EDF-flavored), so a tight-deadline query runs
    /// ahead of equal work.  Deadline failures are never retried — the
    /// clock that rejected them keeps running.
    pub deadline_ns: Option<u64>,
    /// Scheduling priority, `1` (default) and up: the query's predicted
    /// work left is divided by the priority, so a priority-2 query runs
    /// ahead of a priority-1 peer with up to twice its work left.  `0` is
    /// treated as `1`.  Priorities change only chunk interleaving, never
    /// bytes, so they cannot affect results.
    pub priority: u32,
    /// Optional retry policy for *recoverable* failures — budget-rejected
    /// or over-quota admissions and worker panics.  A failed attempt
    /// re-enters the admission queue after an exponential backoff measured
    /// in engine steps (never wall clock), up to
    /// [`RetryPolicy::max_retries`] times, keeping recovery deterministic.
    /// Deadline failures and below-floor budget hints are never retried;
    /// without a policy the first error is the outcome.
    pub retry: Option<RetryPolicy>,
    /// The tenant this query is billed to, interned via
    /// [`QueryEngine::tenant_id`].  `None` — the default — bypasses tenant
    /// accounting entirely.  A tagged query is checked against the
    /// tenant's [`crate::TenantQuota`] at admission (in-flight cap,
    /// resident-byte cap tightening the grant), before the global budget,
    /// and attributed in its `engine.tenant.*` metrics and the trace; tags
    /// change admission and accounting only, never bytes.
    pub tenant: Option<TenantId>,
    /// The form the finished result is delivered in (default: columns).
    pub form: ResultForm,
}

/// The form a ticket's result is delivered in, chosen by its submitter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ResultForm {
    /// Materialised columns, for in-process callers.
    #[default]
    Columns,
    /// One encoded `Done` frame ([`rdx_core::strategy::FrameSink`]): the
    /// wire header's bytes, then the payload, which the run's kernels write
    /// chunk by chunk.  A result whose payload would exceed `max_payload`
    /// bytes is refused with [`rdx_core::error::RdxError::ResultTooLarge`]
    /// before its first chunk.
    Frame {
        /// The transport's cap on one frame's payload.
        max_payload: usize,
    },
}

impl ServerRequest {
    /// A request projecting `spec` from the pair `(larger, smaller)`.
    pub fn new(larger: RelationId, smaller: RelationId, spec: QuerySpec) -> Self {
        ServerRequest {
            larger,
            smaller,
            spec,
            budget_hint: None,
            threads_hint: None,
            codes: None,
            profiled: false,
            deadline_ns: None,
            priority: 1,
            retry: None,
            tenant: None,
            form: ResultForm::Columns,
        }
    }
}

/// A projection query under construction, and the one way to build a
/// [`ServerRequest`] in process:
/// `engine.query(larger, smaller).project(spec).budget(b).threads(t)`,
/// ended by [`Query::submit`] or [`Query::run`].  Each setter writes one
/// field of the request, whose doc states what the option does.
///
/// Both endings are one ticket of the engine, so admission, planning, the
/// prefix cache, deadlines, retries and panic isolation are the same
/// whichever ends the sentence, and so are the result bytes.
#[must_use = "a query does nothing until run() or submit()"]
pub struct Query<'e> {
    engine: &'e mut QueryEngine,
    request: ServerRequest,
}

impl<'e> Query<'e> {
    pub(crate) fn new(
        engine: &'e mut QueryEngine,
        larger: RelationId,
        smaller: RelationId,
    ) -> Self {
        let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(1));
        Query { engine, request }
    }

    /// Sets [`ServerRequest::spec`] (default: one column from each side).
    pub fn project(mut self, spec: QuerySpec) -> Self {
        self.request.spec = spec;
        self
    }

    /// Sets [`ServerRequest::budget_hint`].
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.request.budget_hint = Some(budget);
        self
    }

    /// Sets [`ServerRequest::threads_hint`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.request.threads_hint = Some(threads);
        self
    }

    /// Sets [`ServerRequest::codes`].
    pub fn codes(mut self, codes: DsmPostProjection) -> Self {
        self.request.codes = Some(codes);
        self
    }

    /// Sets [`ServerRequest::profiled`].
    pub fn profiled(mut self) -> Self {
        self.request.profiled = true;
        self
    }

    /// Sets [`ServerRequest::deadline_ns`].
    pub fn deadline(mut self, deadline_ns: u64) -> Self {
        self.request.deadline_ns = Some(deadline_ns);
        self
    }

    /// Sets [`ServerRequest::priority`].
    pub fn priority(mut self, priority: u32) -> Self {
        self.request.priority = priority;
        self
    }

    /// Sets [`ServerRequest::tenant`], a [`TenantId`] from
    /// [`QueryEngine::tenant_id`].
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.request.tenant = Some(tenant);
        self
    }

    /// Sets [`ServerRequest::retry`].
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.request.retry = Some(policy);
        self
    }

    /// **One-shot materialise**: submits this query, then polls its ticket
    /// and steps the engine until the poll is terminal, and returns the
    /// outcome — the materialised result with its statistics, or the typed
    /// error its ticket parked.  Tickets already in flight keep running:
    /// each step is the whole engine's, and this query waits its FIFO turn
    /// behind them.
    pub fn run(self) -> Result<QueryResult, RdxError> {
        let Query { engine, request } = self;
        let ticket = engine.submit(request);
        loop {
            match engine.poll(ticket) {
                TicketPoll::Queued { .. } | TicketPoll::Running { .. } => {
                    engine.step();
                }
                TicketPoll::Done(Served::Columns(report)) => return Ok(report),
                // A query is submitted in the columns form: a frame is no
                // outcome of this ticket's.
                TicketPoll::Done(Served::Frame { .. }) => {
                    return Err(RdxError::UnknownTicket {
                        ticket: ticket.raw(),
                    })
                }
                TicketPoll::Rejected(e) => return Err(e),
            }
        }
    }

    /// **Non-blocking submission**: [`QueryEngine::submit`] of the built
    /// request.  It never runs a chunk, so it is safe between chunk steps
    /// of in-flight queries; validation and admission failures surface as
    /// the ticket's [`TicketPoll::Rejected`].
    pub fn submit(self) -> TicketId {
        self.engine.submit(self.request)
    }
}

/// Per-query execution statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryStats {
    /// The process-unique observability query id this execution's trace
    /// events are keyed by — what lets a caller pull one query's lifecycle
    /// out of a `TraceSnapshot` (`events_for`).  It equals the ticket
    /// number ([`crate::TicketId::raw`]).  Minted at submit even when
    /// observability is disabled, so the field is always populated.
    pub query_id: u64,
    /// The projection codes the planner chose (or the request pinned).
    pub plan: DsmPostProjection,
    /// Whether the prepared prefix came from the clustered-index cache.
    pub cache_hit: bool,
    /// Whether this query's chunk loop started on warmed scratch buffers
    /// handed down from an earlier query (the engine's scratch pool),
    /// instead of growing its own.
    pub scratch_reused: bool,
    /// The admission grant the run planned under (`usize::MAX` if unbounded).
    pub share_bytes: usize,
    /// Whether admission granted less than the fair share (tighter chunks).
    pub replanned: bool,
    /// Row chunks this query's result was written in (its column chunks
    /// divided by its projected columns).
    pub chunks: usize,
    /// Result rows produced.
    pub rows: usize,
    /// Largest observed per-chunk working set, bytes.
    pub peak_chunk_bytes: usize,
    /// Predicted *per-chunk* cost of the plan this query runs, at its cache
    /// share, in modeled milliseconds (`predict_cost` of its codes over its
    /// streaming plan, divided by the row-chunk count).  It feeds only the
    /// deadline slack (`deadline_urgency`); the scheduler orders by work
    /// left priced per side and column chunk, not by this figure.
    pub predicted_chunk_cost_ms: f64,
    /// Wall-clock phase breakdown of the work this query actually paid:
    /// chunk-loop phases always, summing its column chunks' fetch and emit
    /// (what `pipeline.chunk_ns` records); the join/reorder/cluster prefix
    /// only when this query built it (a cache hit skips it).
    pub timings: PhaseTimings,
    /// Time from submission to admission.
    pub wait: Duration,
    /// Time from admission to completion (interleaved wall clock).
    pub service: Duration,
}

impl QueryStats {
    /// Total wall clock from submission to completion: queue wait plus
    /// interleaved service time.
    pub fn total_wall(&self) -> Duration {
        self.wait + self.service
    }
}

/// A completed request: the materialised result plus its statistics.
#[derive(Debug)]
pub struct QueryResult {
    /// The projected result relation.
    pub result: ResultRelation,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// A finished ticket's result, in the [`ResultForm`] it was submitted with.
#[derive(Debug)]
pub enum Served {
    /// [`ResultForm::Columns`]: the materialised result.
    Columns(QueryResult),
    /// [`ResultForm::Frame`]: the encoded `Done` frame, its head written
    /// and its first [`rdx_core::strategy::DoneHead::FRAME_HEADER_LEN`]
    /// bytes left for the wire header.
    Frame {
        /// The frame.
        frame: Vec<u8>,
        /// Execution statistics.
        stats: QueryStats,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineStep;
    use rdx_core::strategy::{ProjectionCode, SecondSideCode};
    use rdx_obs::QueryId;
    use rdx_workload::JoinWorkloadBuilder;

    fn columns(result: &ResultRelation) -> Vec<Vec<i32>> {
        result
            .columns()
            .iter()
            .map(|c| c.as_slice().to_vec())
            .collect()
    }

    /// An engine over `params` that plans against the *whole* cache
    /// (`plan_shares = 1`), as the cost planner does at the same `params`.
    fn whole_cache(params: CacheParams) -> QueryEngine {
        QueryEngine::new(ServeConfig {
            params,
            plan_shares: Some(1),
            ..ServeConfig::default()
        })
    }

    #[test]
    fn run_matches_the_one_chunk_materialize_at_the_same_params() {
        let w = JoinWorkloadBuilder::equal(1_500, 2).seed(41).build();
        let params = CacheParams::tiny_for_tests();
        let mut engine = whole_cache(params.clone());
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(2);
        let report = engine
            .query(larger, smaller)
            .project(spec)
            .run()
            .expect("runs");
        // plan_shares = 1: the engine planned at exactly `params`, so the
        // one-chunk materialise with the engine's chosen codes is
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
        let mut engine = whole_cache(CacheParams::tiny_for_tests());
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let stats = engine
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
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(4_096),
            max_concurrent: 2,
            plan_shares: Some(1),
            ..ServeConfig::default()
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        // Two tickets take both 2 KB fair shares: the whole budget.
        let a = engine.query(larger, smaller).submit();
        let b = engine.query(larger, smaller).submit();
        assert_ne!(engine.step(), EngineStep::Idle);
        assert_eq!(engine.in_flight(), 2);
        assert_eq!(engine.committed_bytes(), 4_096);
        // A run() is a ticket like any other: it queues behind them, runs
        // at its own fair share once one releases, and finishes after both.
        // Every step it drives checks `Σ grants = committed ≤ global` in
        // debug builds.
        let report = engine.query(larger, smaller).run().expect("served");
        assert_eq!(report.stats.rows, w.expected_matches);
        assert_eq!(report.stats.share_bytes, 2_048);
        assert!(report.stats.wait > Duration::ZERO);
        for ticket in [a, b] {
            match engine.poll(ticket) {
                TicketPoll::Done(Served::Columns(q)) => {
                    assert_eq!(columns(&q.result), columns(&report.result))
                }
                other => panic!("expected Done before the run returned, got {other:?}"),
            }
        }
        assert_eq!(engine.committed_bytes(), 0);
        assert!(engine.is_idle());
    }

    #[test]
    fn ticket_lifecycle_queued_chunk_done_then_unknown() {
        let w = JoinWorkloadBuilder::equal(1_200, 1).seed(47).build();
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(256),
            plan_shares: Some(1),
            ..ServeConfig::default()
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let ticket = engine.query(larger, smaller).submit();
        assert!(matches!(engine.poll(ticket), TicketPoll::Queued { .. }));
        // A step writes one column chunk; the default π = 1 + 1 takes two
        // to make one row chunk's worth of progress.
        assert_ne!(engine.step(), EngineStep::Idle);
        assert!(matches!(
            engine.poll(ticket),
            TicketPoll::Running { chunks: 0, .. }
        ));
        assert_ne!(engine.step(), EngineStep::Idle);
        match engine.poll(ticket) {
            TicketPoll::Running { chunks, rows } => {
                assert_eq!(chunks, 1);
                assert!(rows > 0);
            }
            other => panic!("expected Chunk, got {other:?}"),
        }
        while engine.step() != EngineStep::Idle {}
        assert!(engine.is_idle());
        match engine.poll(ticket) {
            TicketPoll::Done(Served::Columns(report)) => {
                assert_eq!(report.stats.rows, w.expected_matches)
            }
            other => panic!("expected Done, got {other:?}"),
        }
        // The outcome was taken: the ticket is now unknown.
        match engine.poll(ticket) {
            TicketPoll::Rejected(RdxError::UnknownTicket { ticket: id }) => {
                assert_eq!(id, ticket.raw())
            }
            other => panic!("expected UnknownTicket, got {other:?}"),
        }
    }

    #[test]
    fn submission_between_drive_steps_joins_the_mix() {
        let w = JoinWorkloadBuilder::equal(2_500, 1).seed(53).build();
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(8 * 1024),
            plan_shares: Some(1),
            ..ServeConfig::default()
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let a = engine.query(larger, smaller).submit();
        for _ in 0..3 {
            engine.step();
        }
        assert!(matches!(engine.poll(a), TicketPoll::Running { .. }));
        // The async-front enabler: a new submission lands while A is
        // mid-flight, and both finish correctly.
        let b = engine.query(larger, smaller).submit();
        while engine.step() != EngineStep::Idle {}
        let (ra, rb) = match (engine.poll(a), engine.poll(b)) {
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
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            plan_shares: Some(1),
            tenant_quotas: crate::TenantQuotas::unlimited()
                .with_tenant("solo", crate::TenantQuota::unlimited().in_flight(1)),
            ..ServeConfig::default()
        });
        let smaller = engine.register(w.smaller.clone());
        // An id minted by a *different* engine: unknown to this catalog.
        let foreign = {
            let mut other = whole_cache(CacheParams::tiny_for_tests());
            other.register(w.smaller.clone());
            other.register(w.larger.clone())
        };
        let ghost = engine.query(foreign, smaller).submit();
        match engine.poll(ghost) {
            TicketPoll::Rejected(RdxError::UnknownRelation { id }) => {
                assert_eq!(id, foreign.raw())
            }
            other => panic!("expected UnknownRelation, got {other:?}"),
        }
        let larger = engine.register(w.larger.clone());
        let err = engine
            .query(larger, smaller)
            .project(QuerySpec::symmetric(9))
            .run()
            .unwrap_err();
        assert!(matches!(err, RdxError::TooManyColumns { .. }));
        let err = engine
            .query(larger, smaller)
            .budget(MemoryBudget::bytes(2))
            .run()
            .unwrap_err();
        assert!(matches!(err, RdxError::Budget(_)));
        // A run() for a tenant already at its in-flight quota is shed at
        // admission like any ticket, and without a policy never retried.
        let solo = engine.tenant_id("solo");
        let holder = engine.query(larger, smaller).tenant(solo).submit();
        assert_ne!(engine.step(), EngineStep::Idle);
        let err = engine
            .query(larger, smaller)
            .tenant(solo)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            RdxError::TenantQuota { tenant, kind: rdx_core::error::TenantQuotaKind::InFlight { limit: 1, .. } }
                if tenant == solo.raw()
        ));
        assert_eq!(engine.stats().retries, 0);
        while engine.step() != EngineStep::Idle {}
        assert!(matches!(
            engine.poll(holder),
            TicketPoll::Done(Served::Columns(_))
        ));
    }

    #[test]
    fn a_ticket_polled_against_the_wrong_session_is_unknown_not_aliased() {
        let w = JoinWorkloadBuilder::equal(500, 1).seed(67).build();
        let mut a = whole_cache(CacheParams::tiny_for_tests());
        let mut b = whole_cache(CacheParams::tiny_for_tests());
        let (al, asm) = (a.register(w.larger.clone()), a.register(w.smaller.clone()));
        let (bl, bsm) = (b.register(w.larger.clone()), b.register(w.smaller.clone()));
        let ticket_a = a.query(al, asm).submit();
        let ticket_b = b.query(bl, bsm).submit();
        while a.step() != EngineStep::Idle {}
        while b.step() != EngineStep::Idle {}
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
        let mut engine = whole_cache(CacheParams::tiny_for_tests());
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());

        // One-shot run: the phase breakdown of the work it actually did.
        let report = engine
            .query(larger, smaller)
            .project(QuerySpec::symmetric(2))
            .run()
            .expect("runs");
        let t = report.stats.timings;
        assert!(t.join.as_nanos() > 0, "cold run paid the join");
        assert!(t.total() > Duration::ZERO);
        assert!(report.stats.service > Duration::ZERO);
        assert_eq!(
            report.stats.total_wall(),
            report.stats.wait + report.stats.service
        );

        // Ticket: queue wait + service + phase breakdown in the Done report.
        let ticket = engine
            .query(larger, smaller)
            .project(QuerySpec::symmetric(2))
            .submit();
        while engine.step() != EngineStep::Idle {}
        match engine.poll(ticket) {
            TicketPoll::Done(Served::Columns(done)) => {
                assert!(done.stats.cache_hit, "prefix warmed by the one-shot run");
                // A cache hit never paid the join prefix…
                assert_eq!(done.stats.timings.join, Duration::ZERO);
                // …but the chunk-loop phases are still accounted.
                assert!(done.stats.timings.total() > Duration::ZERO);
                assert!(done.stats.total_wall() >= done.stats.service);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn metrics_are_always_live_and_the_trace_only_when_enabled() {
        let w = JoinWorkloadBuilder::equal(900, 1).seed(73).build();

        // Default engine: the registry counts, but there is no trace.
        let mut off = whole_cache(CacheParams::tiny_for_tests());
        assert!(!off.obs().is_enabled());
        let (larger, smaller) = (
            off.register(w.larger.clone()),
            off.register(w.smaller.clone()),
        );
        off.query(larger, smaller).run().expect("served");
        let metrics = off.obs().metrics_snapshot().expect("always kept");
        assert_eq!(metrics.counter("engine.admissions"), Some(1));
        assert!(
            metrics.histogram("pipeline.chunk_ns").is_none(),
            "no per-chunk timing"
        );
        assert!(off.obs().trace_snapshot().is_none());

        // Observability on: one ticket's full lifecycle is replayable.
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(1024),
            plan_shares: Some(1),
            observability: true,
            ..ServeConfig::default()
        });
        assert!(engine.obs().is_enabled());
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let ticket = engine.query(larger, smaller).submit();
        while engine.step() != EngineStep::Idle {}
        let report = match engine.poll(ticket) {
            TicketPoll::Done(Served::Columns(report)) => report,
            other => panic!("expected Done, got {other:?}"),
        };

        let trace = engine.obs().trace_snapshot().expect("enabled");
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

        let metrics = engine.obs().metrics_snapshot().expect("enabled");
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
        let mut engine = whole_cache(CacheParams::tiny_for_tests());
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let plan = DsmPostProjection::with_codes(ProjectionCode::Sorted, SecondSideCode::Unsorted);
        let run = engine
            .query(larger, smaller)
            .codes(plan)
            .run()
            .expect("runs");
        assert_eq!(run.stats.plan, plan);
        let ticket = engine.query(larger, smaller).codes(plan).submit();
        while engine.step() != EngineStep::Idle {}
        match engine.poll(ticket) {
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
