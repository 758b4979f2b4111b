//! The **ticket-granular query engine**: the persistent core the whole
//! serving layer (and the `rdx-api` `Session` front door) runs on.
//!
//! Admission, scheduling and chunk execution live in a value with *open*
//! edges, so a query can be accepted or observed while others are in
//! flight:
//!
//! * [`QueryEngine::submit`] validates a request against the catalog and
//!   enqueues it, returning a non-blocking [`TicketId`] immediately — at any
//!   time, including between chunk steps of other in-flight queries (the
//!   async-front enabler the ROADMAP asks for);
//! * [`QueryEngine::step`] pumps exactly one scheduler decision: admit from
//!   the queue head while budget and slots allow, then run **one chunk of
//!   one query** under the stride-scheduling fairness policy, resumable
//!   from outside;
//! * [`QueryEngine::status`] / [`QueryEngine::take_outcome`] observe a
//!   ticket without blocking.
//!
//! ## The ticket state machine
//!
//! ```text
//! submit ──► Queued ──admit──► Running ──last chunk──► Finished ──take──► gone
//!    │                                                    ▲
//!    └── validation / admission failure ──────────────────┘  (outcome = Err)
//! ```
//!
//! A ticket moves strictly left to right.  `Queued` tickets wait in FIFO
//! order (admission never skips the queue head, so arrival order bounds
//! waiting); `Running` tickets are parked [`rdx_exec::PipelineRun`]s that
//! own `Arc` clones of their relations (never borrowing the catalog, which
//! is what lets the engine hold them across calls); `Finished` tickets park
//! their outcome — the materialised result or a typed
//! [`RdxError`] — until exactly one [`QueryEngine::take_outcome`] claims it.
//!
//! Everything fallible reports the workspace-wide [`RdxError`]; the engine
//! never panics on untrusted input.
//!
//! Serving a whole batch is these primitives in a row: submit all, step
//! until [`EngineStep::Idle`], take every outcome.

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::cache::{CacheStats, ClusterCache, ClusterKey};
use crate::registry::{Catalog, RelationId};
use crate::request::{QueryOutcome, QueryResult, QueryStats, ServeConfig, ServerRequest};
use crate::scheduler::ChunkScheduler;
use crate::tenant::{TenantId, TenantRegistry, TenantStats};
use rdx_cache::CacheParams;
use rdx_core::budget::{BudgetError, MemoryBudget};
use rdx_core::error::{DeadlineError, RdxError, Side};
use rdx_core::fault::{FaultInjector, FaultPlan, RetryPolicy};
use rdx_core::strategy::adapt::{FeedbackSource, MissCountFeedback, WallClockFeedback};
use rdx_core::strategy::planner::{
    plan_by_cost_with_threads, plan_streaming, predict_streaming_cost, streaming_bytes_per_row,
    StreamingPlan,
};
use rdx_core::strategy::{DsmPostProjection, MaterializeSink, PhaseTimings, RowChunkSink};
use rdx_dsm::DsmRelation;
use rdx_exec::{DsmPipelineRun, ExecPolicy, ProjectionPipeline};
use rdx_obs::{EventKind, Obs, ObsConfig, QueryId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-wide ticket counter: ids are unique across every engine in the
/// process, so a ticket accidentally polled against the wrong session can
/// never alias (and silently consume) another session's outcome — it
/// reports [`RdxError::UnknownTicket`] instead.
static NEXT_TICKET: AtomicU64 = AtomicU64::new(0);

/// Opaque handle to a submitted query: the engine's promise to eventually
/// park an outcome under this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TicketId(pub(crate) u64);

impl TicketId {
    /// The raw ticket number (what [`RdxError::UnknownTicket`] carries).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TicketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket#{}", self.0)
    }
}

/// Where a ticket currently is in its state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketStatus {
    /// Waiting for admission (FIFO; `position` 0 is the queue head).
    Queued {
        /// Tickets ahead of this one.
        position: usize,
    },
    /// Admitted and progressing chunk by chunk.
    Running {
        /// Chunks emitted so far.
        chunks: usize,
        /// Result rows emitted so far.
        rows: usize,
    },
    /// Complete; the outcome is parked until [`QueryEngine::take_outcome`].
    Finished,
}

/// What one [`QueryEngine::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStep {
    /// One chunk of `ticket` ran, emitting `rows` result rows.
    Chunk {
        /// The query that progressed.
        ticket: TicketId,
        /// Rows in the emitted chunk.
        rows: usize,
    },
    /// `ticket` completed; its outcome is parked for
    /// [`QueryEngine::take_outcome`].
    Finished {
        /// The query that completed.
        ticket: TicketId,
    },
    /// Nothing was dispatchable this step, but work is still pending —
    /// queries parked for retry backoff, or a queue head waiting for
    /// budget freed by a teardown this same step.  The engine is **not**
    /// idle: keep stepping (each step advances the retry clock).
    Waiting,
    /// Nothing queued and nothing running: the engine is drained.
    Idle,
}

/// Cumulative engine counters since the last [`QueryEngine::reset_stats`].
///
/// Callers that never call `reset_stats` see engine-lifetime totals; the
/// counters of one pass are the difference of two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Peak over time of `Σ` active queries' planned working-set bounds.
    pub peak_concurrent_bytes: usize,
    /// Most queries in flight at once.
    pub peak_concurrency: usize,
    /// Total chunks dispatched.
    pub chunks_dispatched: u64,
    /// Queries that started on pooled (already warmed) chunk scratch.
    pub scratch_reuses: u64,
    /// Resolved queries whose prepared prefix came from the
    /// clustered-index cache.
    pub cache_hits: u64,
    /// Resolved queries that had to build their prepared prefix.
    pub cache_misses: u64,
    /// Queries granted a budget share and resolved (ticket admissions plus
    /// direct `resolve` calls).
    pub admissions: u64,
    /// Queries refused with a typed error (validation, admission or budget
    /// failures, on any path).
    pub rejections: u64,
    /// Admissions granted less than the fair share (tighter chunking).
    pub replans: u64,
    /// Mid-flight re-splits fired by per-query adaptive controllers —
    /// counted apart from [`EngineStats::replans`], which is an *admission*
    /// decision: an adaptive query re-plans after it started running.
    pub adaptive_replans: u64,
    /// Of [`EngineStats::rejections`]: refused because the budget could
    /// not admit them (load shedding).
    pub budget_rejects: u64,
    /// Of [`EngineStats::rejections`]: refused at admission because their
    /// deadline was infeasible at the granted share — the query never ran
    /// a chunk.
    pub deadline_rejects: u64,
    /// Queries torn down before completion — caller cancellations plus
    /// mid-flight deadline enforcement — with their grants reclaimed.
    pub cancellations: u64,
    /// Queries whose chunk crashed a morsel worker (the unwind was caught;
    /// only the owning run was poisoned).
    pub worker_panics: u64,
    /// Retry attempts re-queued under a request's
    /// [`rdx_core::fault::RetryPolicy`].
    pub retries: u64,
    /// Of [`EngineStats::rejections`]: refused at admission because the
    /// requesting tenant was over its [`crate::TenantQuota`] — checked
    /// before the global budget, so tenant bursts shed at their own cap
    /// without consuming shared-pool decisions.
    pub tenant_quota_rejects: u64,
}

/// A validated, planned, cache-resolved query, ready to stream chunks —
/// what the single planner entry [`QueryEngine::resolve`] returns.
///
/// Every execution mode of the front door funnels through this value: a
/// one-shot `run()` steps it to completion into a
/// [`MaterializeSink`], a `stream(sink)` into the caller's sink, and a
/// submitted ticket is stepped by the engine's own scheduler — so all modes
/// exercise one code path and stay byte-identical by construction.
pub struct ResolvedQuery {
    run: DsmPipelineRun<'static>,
    stats: QueryStats,
    started: Instant,
}

impl ResolvedQuery {
    /// The projection codes the planner chose (or the request pinned).
    pub fn plan(&self) -> DsmPostProjection {
        self.stats.plan
    }

    /// The chunking this query streams under.
    pub fn streaming(&self) -> &StreamingPlan {
        self.run.streaming()
    }

    /// Whether the prepared prefix came from the clustered-index cache.
    pub fn cache_hit(&self) -> bool {
        self.stats.cache_hit
    }

    /// Emits the next chunk into `sink`; `None` once complete (see
    /// [`rdx_exec::PipelineRun::step`] for the begin/finish protocol).
    pub fn step(&mut self, sink: &mut dyn RowChunkSink) -> Option<usize> {
        self.run.step(sink)
    }

    /// Steps the query to completion.
    pub fn run_to_completion(&mut self, sink: &mut dyn RowChunkSink) {
        self.run.run_to_completion(sink)
    }

    /// `true` once the sink has been finished.
    pub fn is_done(&self) -> bool {
        self.run.is_done()
    }

    /// Swaps the feedback source of an adaptive query (no-op when the
    /// request did not enable adaptation) — how a deterministic harness
    /// replaces the production wall-clock source with a scripted timing
    /// sequence on an engine-resolved run.
    pub fn replace_feedback(
        &mut self,
        source: Box<dyn rdx_core::strategy::adapt::FeedbackSource + Send>,
    ) {
        self.run.replace_feedback(source)
    }
}

/// Mirror instruments the engine records into when observability is on —
/// handles resolved **once** at construction, so the per-decision cost is
/// a few relaxed atomics, never a registry lookup.
struct EngineObs {
    cache_hits: rdx_obs::Counter,
    cache_misses: rdx_obs::Counter,
    cache_bypassed: rdx_obs::Counter,
    admissions: rdx_obs::Counter,
    rejections: rdx_obs::Counter,
    replans: rdx_obs::Counter,
    adaptive_replans: rdx_obs::Counter,
    chunks_dispatched: rdx_obs::Counter,
    budget_rejects: rdx_obs::Counter,
    deadline_rejects: rdx_obs::Counter,
    cancellations: rdx_obs::Counter,
    worker_panics: rdx_obs::Counter,
    retries: rdx_obs::Counter,
    tenant_quota_rejects: rdx_obs::Counter,
    in_flight: rdx_obs::Gauge,
    queued: rdx_obs::Gauge,
    queue_wait_ns: rdx_obs::Histogram,
    service_ns: rdx_obs::Histogram,
}

impl EngineObs {
    fn new(obs: &Obs) -> Option<Box<EngineObs>> {
        let metrics = obs.metrics()?;
        Some(Box::new(EngineObs {
            cache_hits: metrics.counter("engine.cache_hits"),
            cache_misses: metrics.counter("engine.cache_misses"),
            cache_bypassed: metrics.counter("engine.cache_bypassed"),
            admissions: metrics.counter("engine.admissions"),
            rejections: metrics.counter("engine.rejections"),
            replans: metrics.counter("engine.replans"),
            adaptive_replans: metrics.counter("engine.adaptive_replans"),
            chunks_dispatched: metrics.counter("engine.chunks_dispatched"),
            budget_rejects: metrics.counter("engine.budget_rejects"),
            deadline_rejects: metrics.counter("engine.deadline_rejects"),
            cancellations: metrics.counter("engine.cancellations"),
            worker_panics: metrics.counter("engine.worker_panics"),
            retries: metrics.counter("engine.retries"),
            tenant_quota_rejects: metrics.counter("engine.tenant_quota_rejects"),
            in_flight: metrics.gauge("engine.in_flight"),
            queued: metrics.gauge("engine.queued"),
            queue_wait_ns: metrics.histogram("engine.queue_wait_ns"),
            service_ns: metrics.histogram("engine.service_ns"),
        }))
    }
}

/// The static label a `Reject` trace event carries for `e`.
fn reject_reason(e: &RdxError) -> &'static str {
    match e {
        RdxError::Budget(_) => "budget",
        RdxError::UnknownRelation { .. } => "unknown_relation",
        RdxError::TooManyColumns { .. } => "too_many_columns",
        RdxError::SelectionMismatch { .. } => "selection_mismatch",
        RdxError::UnknownTicket { .. } => "unknown_ticket",
        RdxError::Deadline(_) => "deadline",
        RdxError::Cancelled => "cancelled",
        RdxError::WorkerPanicked { .. } => "worker_panic",
        RdxError::TenantQuota { .. } => "tenant_quota",
    }
}

/// One queued (submitted, not yet admitted) ticket.
struct Pending {
    ticket: TicketId,
    query: QueryId,
    request: ServerRequest,
    submitted_at: Instant,
    /// 0-based submission ordinal — how the fault injector addresses this
    /// query.  Stable across retries.
    ordinal: usize,
    /// Retry attempts already consumed (0 on first submission).
    attempt: u32,
}

/// One admitted, in-flight ticket.
struct Running {
    ticket: TicketId,
    request: ServerRequest,
    rq: ResolvedQuery,
    sink: MaterializeSink,
    /// The admission grant (released on completion; may exceed the
    /// effective budget when a hint tightened it).
    share: MemoryBudget,
    /// Submission ordinal (see [`Pending::ordinal`]).
    ordinal: usize,
    /// Retry attempts already consumed.
    attempt: u32,
    /// Service time charged against the deadline so far: wall-clock of
    /// this query's chunk steps (measured only when a deadline is armed)
    /// plus any injected artificial slowdowns.
    consumed_ns: u64,
    /// The tenant this admission was charged to (with the byte charge),
    /// released at every teardown alongside the admission grant.
    tenant: Option<(TenantId, usize)>,
}

/// One query parked between retry attempts, waiting out its backoff in
/// engine drive steps.
struct RetryParked {
    ticket: TicketId,
    query: QueryId,
    request: ServerRequest,
    submitted_at: Instant,
    ordinal: usize,
    /// Retry attempts consumed *including* the one this parking pays for.
    attempt: u32,
    /// The engine step count at which this query re-enters the queue.
    ready_at_step: u64,
}

/// The persistent, ticket-granular serving core.
///
/// ```
/// use rdx_serve::{QueryEngine, EngineStep, ServeConfig, ServerRequest, TicketStatus};
/// use rdx_core::strategy::QuerySpec;
/// use rdx_workload::JoinWorkloadBuilder;
///
/// let mut engine = QueryEngine::new(ServeConfig::default());
/// let w = JoinWorkloadBuilder::equal(1_000, 1).build();
/// let larger = engine.register(w.larger.clone());
/// let smaller = engine.register(w.smaller.clone());
/// let ticket = engine.submit(ServerRequest::new(larger, smaller, QuerySpec::symmetric(1)));
/// while engine.step() != EngineStep::Idle {}
/// assert_eq!(engine.status(ticket), Some(TicketStatus::Finished));
/// let outcome = engine.take_outcome(ticket).unwrap();
/// assert_eq!(outcome.outcome.unwrap().stats.rows, w.expected_matches);
/// ```
pub struct QueryEngine {
    config: ServeConfig,
    shared_params: CacheParams,
    catalog: Catalog,
    cache: ClusterCache,
    scratch_pool: Vec<rdx_exec::ChunkScratch>,
    admission: AdmissionController,
    scheduler: ChunkScheduler,
    queue: VecDeque<Pending>,
    running: Vec<Running>,
    retry_parked: Vec<RetryParked>,
    finished: HashMap<u64, QueryOutcome>,
    stats: EngineStats,
    obs: Obs,
    engine_obs: Option<Box<EngineObs>>,
    /// Monotone count of [`QueryEngine::step`] calls — the deterministic
    /// clock retry backoffs are measured against.
    step_count: u64,
    /// Next submission ordinal (fault-injection addressing).
    next_ordinal: usize,
    faults: FaultInjector,
    /// Interned tenants and their quota accounting (see [`crate::tenant`]).
    tenants: TenantRegistry,
}

impl QueryEngine {
    /// An engine with an empty catalog and a cold cache.
    ///
    /// # Panics
    /// Panics if `config.max_concurrent == 0`.
    pub fn new(config: ServeConfig) -> Self {
        assert!(config.max_concurrent >= 1, "must serve at least one query");
        // Every per-query plan is priced and clustered against a 1/k share
        // of the cache — conservative when fewer queries are active, but it
        // keeps cluster specs (and so cache keys) stable across admission
        // states.
        let shares = config.plan_shares.unwrap_or(config.max_concurrent).max(1);
        let shared_params = config.params.per_query_share(shares);
        let obs = if config.observability {
            Obs::enabled(ObsConfig::default())
        } else {
            Obs::disabled()
        };
        let engine_obs = EngineObs::new(&obs);
        QueryEngine {
            shared_params,
            catalog: Catalog::new(),
            cache: ClusterCache::new(config.cache_bytes),
            scratch_pool: Vec::new(),
            admission: AdmissionController::new(config.global_budget, config.max_concurrent),
            scheduler: ChunkScheduler::new(config.fairness),
            queue: VecDeque::new(),
            running: Vec::new(),
            retry_parked: Vec::new(),
            finished: HashMap::new(),
            stats: EngineStats::default(),
            obs,
            engine_obs,
            step_count: 0,
            next_ordinal: 0,
            faults: FaultInjector::new(FaultPlan::new()),
            tenants: TenantRegistry::new(config.tenant_quotas.clone()),
            config,
        }
    }

    /// Interns `name` as a tenant of this engine, resolving its
    /// [`crate::TenantQuota`] from [`ServeConfig::tenant_quotas`] and
    /// registering its `engine.tenant.<name>.*` instruments on first
    /// sight.  Idempotent: the same name always returns the same id.
    /// Requests carrying the returned [`TenantId`] (see
    /// [`ServerRequest::with_tenant`]) are quota-checked at admission.
    pub fn tenant_id(&mut self, name: &str) -> TenantId {
        self.tenants.intern(name, &self.obs)
    }

    /// The tenant's quota accounting, or `None` for an id this engine
    /// never interned.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.tenants.stats(tenant)
    }

    /// Returns a torn-down admission's tenant charge, if any.
    fn release_tenant(&mut self, charge: Option<(TenantId, usize)>) {
        if let Some((t, bytes)) = charge {
            self.tenants.release(t, bytes);
        }
    }

    /// Arms a deterministic [`FaultPlan`]: scripted worker panics,
    /// slowdowns, grant denials and cache evictions will fire at their
    /// pinned points (query submission ordinals × chunk steps) as the
    /// engine reaches them.  Replaces any previously armed plan.  Intended
    /// for tests and chaos drills; the default plan is empty.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = FaultInjector::new(plan);
    }

    /// `Σ` bytes currently granted to admitted queries — the left side of
    /// the `Σ grants ≤ global` admission invariant, exposed so robustness
    /// tests can assert the invariant across cancellations and panics.
    pub fn committed_bytes(&self) -> usize {
        self.admission.committed_bytes()
    }

    /// The engine's observability handle (disabled unless
    /// [`ServeConfig::observability`] was set) — where the `rdx-api`
    /// `Session` takes metrics and trace snapshots from.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Registers a relation for querying.
    pub fn register(&mut self, relation: DsmRelation) -> RelationId {
        self.catalog.register(relation)
    }

    /// Registers an already-shared relation without copying it.
    pub fn register_arc(&mut self, relation: Arc<DsmRelation>) -> RelationId {
        self.catalog.register_arc(relation)
    }

    /// The catalog of registered relations.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The configuration this engine runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Clustered-index cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The per-query cache share plans are priced against.
    pub fn shared_params(&self) -> &CacheParams {
        &self.shared_params
    }

    /// Tickets waiting for admission.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Tickets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.running.len()
    }

    /// `true` when nothing is queued, running, or parked for retry
    /// (finished outcomes may still be parked).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.running.is_empty() && self.retry_parked.is_empty()
    }

    /// Cumulative counters since the last [`QueryEngine::reset_stats`].
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Resets the cumulative counters, peaks included.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Submits a query, returning its ticket **without blocking**: the call
    /// never runs a chunk, so it is safe between chunk steps of any
    /// in-flight query.  Validation failures park an `Err` outcome
    /// immediately (an invalid request never occupies a queue slot).
    pub fn submit(&mut self, request: ServerRequest) -> TicketId {
        let ticket = TicketId(NEXT_TICKET.fetch_add(1, Ordering::Relaxed));
        let query = QueryId::next();
        self.obs.record(query, EventKind::Submit);
        if let Some(t) = request.tenant {
            self.obs
                .record(query, EventKind::Tenant { tenant: t.raw() });
        }
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        match validate(&self.catalog, &request) {
            Ok(()) => {
                self.queue.push_back(Pending {
                    ticket,
                    query,
                    request,
                    submitted_at: Instant::now(),
                    ordinal,
                    attempt: 0,
                });
                if let Some(eo) = &self.engine_obs {
                    eo.queued.set(self.queue.len() as i64);
                }
            }
            Err(e) => {
                self.reject(query, &e);
                self.finished.insert(
                    ticket.0,
                    QueryOutcome {
                        request,
                        outcome: Err(e),
                    },
                );
            }
        }
        ticket
    }

    /// Counts a refusal (per-reason) and records its trace event.
    fn reject(&mut self, query: QueryId, e: &RdxError) {
        self.stats.rejections += 1;
        match e {
            RdxError::Budget(_) => {
                self.stats.budget_rejects += 1;
                if let Some(eo) = &self.engine_obs {
                    eo.budget_rejects.inc();
                }
            }
            RdxError::Deadline(_) => {
                self.stats.deadline_rejects += 1;
                if let Some(eo) = &self.engine_obs {
                    eo.deadline_rejects.inc();
                }
            }
            RdxError::TenantQuota { tenant, .. } => {
                self.stats.tenant_quota_rejects += 1;
                self.tenants.count_reject(TenantId(*tenant));
                if let Some(eo) = &self.engine_obs {
                    eo.tenant_quota_rejects.inc();
                }
            }
            _ => {}
        }
        self.obs.record(
            query,
            EventKind::Reject {
                reason: reject_reason(e),
            },
        );
        if let Some(eo) = &self.engine_obs {
            eo.rejections.inc();
        }
    }

    /// Counts a teardown (cancellation or deadline enforcement).
    fn count_cancellation(&mut self) {
        self.stats.cancellations += 1;
        if let Some(eo) = &self.engine_obs {
            eo.cancellations.inc();
        }
    }

    /// Where `ticket` is in its state machine, or `None` for a ticket this
    /// engine never issued (or whose outcome was already taken).
    pub fn status(&self, ticket: TicketId) -> Option<TicketStatus> {
        if let Some(position) = self.queue.iter().position(|p| p.ticket == ticket) {
            return Some(TicketStatus::Queued { position });
        }
        if let Some(r) = self.running.iter().find(|r| r.ticket == ticket) {
            let s = r.rq.run.run_stats();
            return Some(TicketStatus::Running {
                chunks: s.chunks_emitted,
                rows: s.rows_emitted,
            });
        }
        if let Some(idx) = self.retry_parked.iter().position(|p| p.ticket == ticket) {
            // Parked retries re-enter behind the live queue.
            return Some(TicketStatus::Queued {
                position: self.queue.len() + idx,
            });
        }
        if self.finished.contains_key(&ticket.0) {
            return Some(TicketStatus::Finished);
        }
        None
    }

    /// Claims a finished ticket's outcome.  Each outcome can be taken
    /// exactly once; `None` for unknown, already-taken, or still-unfinished
    /// tickets (check [`QueryEngine::status`] to tell these apart).
    pub fn take_outcome(&mut self, ticket: TicketId) -> Option<QueryOutcome> {
        self.finished.remove(&ticket.0)
    }

    /// Pumps the engine by one scheduler decision: re-queue retries whose
    /// backoff expired, admit from the queue head while budget and
    /// concurrency slots allow, enforce deadlines at the chunk boundary,
    /// then run **one chunk of one query** under the fairness policy.
    /// Returns what happened; [`EngineStep::Idle`] means the engine is
    /// drained, [`EngineStep::Waiting`] means pending work could not run
    /// *this* step (retry backoff, or budget freed mid-step) — keep
    /// stepping.
    pub fn step(&mut self) -> EngineStep {
        self.step_count += 1;
        self.requeue_ready_retries();
        self.admit_from_queue();
        if let Some(eo) = &self.engine_obs {
            eo.in_flight.set(self.running.len() as i64);
            eo.queued.set(self.queue.len() as i64);
        }

        self.stats.peak_concurrency = self.stats.peak_concurrency.max(self.running.len());
        let concurrent_bytes: usize = self
            .running
            .iter()
            .map(|r| r.rq.run.streaming().max_working_set_bytes())
            .sum();
        self.stats.peak_concurrent_bytes = self.stats.peak_concurrent_bytes.max(concurrent_bytes);
        if self.config.global_budget.is_bounded() {
            debug_assert!(concurrent_bytes <= self.config.global_budget.limit_bytes());
        }

        // Deadlines are enforced at chunk boundaries: any run whose
        // consumed service time passed its deadline is torn down (grant
        // reclaimed) before the next chunk is dispatched.
        self.enforce_deadlines();

        // One chunk of one query, per the fairness policy.
        let Some(id) = self.scheduler.dispatch() else {
            if !self.queue.is_empty() || !self.retry_parked.is_empty() {
                // A teardown this step freed budget the queue head will
                // claim next step, or retries are waiting out backoff.
                return EngineStep::Waiting;
            }
            return EngineStep::Idle;
        };
        let Some(pos) = self.running.iter().position(|r| r.ticket.0 as usize == id) else {
            // Unreachable by construction: every scheduled id has a
            // running slot.  Degrade to a lost turn instead of panicking.
            debug_assert!(false, "scheduled ticket vanished");
            self.scheduler.remove(id);
            return EngineStep::Waiting;
        };
        let ordinal = self.running[pos].ordinal;
        let chunk_index = self.running[pos].rq.run.run_stats().chunks_emitted;
        // Scripted worker panic?  Raised *inside* the catch below with the
        // exact payload a real crashed worker produces, so the injected
        // path and the real path are one recovery path.
        let injected_panic = self.faults.panic_at(ordinal, chunk_index);
        let chunk_started = self.running[pos]
            .request
            .deadline_ns
            .map(|_| Instant::now());
        let stepped = {
            let running = &mut self.running[pos];
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(worker) = injected_panic {
                    std::panic::panic_any(rdx_exec::WorkerPanic { worker });
                }
                running.rq.run.step(&mut running.sink)
            }))
        };
        match stepped {
            Ok(Some(rows)) => {
                let wall_ns = chunk_started
                    .map(|t| t.elapsed().as_nanos() as u64)
                    .unwrap_or(0);
                let slow_ns = self.faults.slowdown_ns(ordinal, chunk_index);
                let running = &mut self.running[pos];
                running.consumed_ns = running
                    .consumed_ns
                    .saturating_add(wall_ns)
                    .saturating_add(slow_ns);
                let ticket = running.ticket;
                self.stats.chunks_dispatched += 1;
                if let Some(eo) = &self.engine_obs {
                    eo.chunks_dispatched.inc();
                }
                EngineStep::Chunk { ticket, rows }
            }
            Ok(None) => {
                // Completed: release the grant, free the slot, park the
                // outcome.
                self.scheduler.remove(id);
                let r = self.running.swap_remove(pos);
                self.admission.release(r.share);
                self.release_tenant(r.tenant);
                let ticket = r.ticket;
                let (rq, sink) = (r.rq, r.sink);
                let stats = self.retire(rq);
                self.finished.insert(
                    ticket.0,
                    QueryOutcome {
                        request: r.request,
                        outcome: Ok(QueryResult {
                            result: sink.into_result(),
                            stats,
                        }),
                    },
                );
                EngineStep::Finished { ticket }
            }
            Err(payload) => {
                // A worker panicked mid-chunk.  Poison *only this run*:
                // reclaim its grant, drop its (possibly half-written) sink
                // and scratch, and surface a typed error — concurrent
                // queries keep their slots, grants and bytes untouched.
                let worker = payload
                    .downcast_ref::<rdx_exec::WorkerPanic>()
                    .map(|wp| wp.worker)
                    .unwrap_or(0);
                self.scheduler.remove(id);
                let r = self.running.swap_remove(pos);
                self.admission.release(r.share);
                self.release_tenant(r.tenant);
                self.stats.worker_panics += 1;
                if let Some(eo) = &self.engine_obs {
                    eo.worker_panics.inc();
                }
                let query = QueryId(r.rq.stats.query_id);
                self.obs.record(
                    query,
                    EventKind::Cancel {
                        reason: "worker_panic",
                    },
                );
                let ticket = r.ticket;
                match r.request.retry {
                    Some(policy) if r.attempt < policy.max_retries => {
                        self.park_retry(ticket, query, r.request, r.ordinal, r.attempt + 1, policy);
                        EngineStep::Waiting
                    }
                    _ => {
                        self.count_cancellation();
                        self.finished.insert(
                            ticket.0,
                            QueryOutcome {
                                request: r.request,
                                outcome: Err(RdxError::WorkerPanicked { worker }),
                            },
                        );
                        EngineStep::Finished { ticket }
                    }
                }
            }
        }
    }

    /// Cancels `ticket` wherever it is — queued, retry-parked, or running
    /// mid-flight — parking [`RdxError::Cancelled`] as its outcome and
    /// reclaiming its budget grant (the `Σ grants ≤ global` invariant
    /// holds through cancellation).  A running query is torn down at the
    /// current chunk boundary: parked runs are plain values between
    /// chunks, so teardown is just dropping the run (its warmed scratch is
    /// harvested back into the pool first).  Returns `false` for tickets
    /// that are already finished or were never issued — their outcome (if
    /// any) is untouched.
    pub fn cancel(&mut self, ticket: TicketId) -> bool {
        if let Some(idx) = self.queue.iter().position(|p| p.ticket == ticket) {
            let Some(p) = self.queue.remove(idx) else {
                return false;
            };
            self.obs
                .record(p.query, EventKind::Cancel { reason: "user" });
            self.count_cancellation();
            self.finished.insert(
                ticket.0,
                QueryOutcome {
                    request: p.request,
                    outcome: Err(RdxError::Cancelled),
                },
            );
            return true;
        }
        if let Some(idx) = self.retry_parked.iter().position(|p| p.ticket == ticket) {
            let p = self.retry_parked.remove(idx);
            self.obs
                .record(p.query, EventKind::Cancel { reason: "user" });
            self.count_cancellation();
            self.finished.insert(
                ticket.0,
                QueryOutcome {
                    request: p.request,
                    outcome: Err(RdxError::Cancelled),
                },
            );
            return true;
        }
        if let Some(pos) = self.running.iter().position(|r| r.ticket == ticket) {
            self.scheduler.remove(ticket.0 as usize);
            let mut r = self.running.swap_remove(pos);
            self.admission.release(r.share);
            self.release_tenant(r.tenant);
            // Between chunks the run's scratch is consistent — harvest it
            // for the next query before dropping the run.
            if self.scratch_pool.len() < self.config.max_concurrent {
                self.scratch_pool.push(r.rq.run.take_scratch());
            }
            let query = QueryId(r.rq.stats.query_id);
            self.obs.record(query, EventKind::Cancel { reason: "user" });
            self.count_cancellation();
            self.finished.insert(
                ticket.0,
                QueryOutcome {
                    request: r.request,
                    outcome: Err(RdxError::Cancelled),
                },
            );
            return true;
        }
        false
    }

    /// Tears down every running query whose consumed service time passed
    /// its deadline, parking [`DeadlineError::Exceeded`] and reclaiming
    /// the grant.  Runs at chunk boundaries only (the engine never
    /// preempts inside a chunk).  Deadline teardowns are never retried: an
    /// expired clock cannot be cured by waiting.
    fn enforce_deadlines(&mut self) {
        let mut pos = 0;
        while pos < self.running.len() {
            let r = &self.running[pos];
            let expired = match r.request.deadline_ns {
                Some(deadline_ns) => r.consumed_ns > deadline_ns,
                None => false,
            };
            if !expired {
                pos += 1;
                continue;
            }
            let ticket = r.ticket;
            let deadline_ns = r.request.deadline_ns.unwrap_or(0);
            let consumed_ns = r.consumed_ns;
            self.scheduler.remove(ticket.0 as usize);
            let mut r = self.running.swap_remove(pos);
            self.admission.release(r.share);
            self.release_tenant(r.tenant);
            if self.scratch_pool.len() < self.config.max_concurrent {
                self.scratch_pool.push(r.rq.run.take_scratch());
            }
            let query = QueryId(r.rq.stats.query_id);
            self.obs.record(
                query,
                EventKind::DeadlineMiss {
                    deadline_ns,
                    consumed_ns,
                },
            );
            self.obs
                .record(query, EventKind::Cancel { reason: "deadline" });
            self.count_cancellation();
            self.finished.insert(
                ticket.0,
                QueryOutcome {
                    request: r.request,
                    outcome: Err(RdxError::Deadline(DeadlineError::Exceeded {
                        consumed_ns,
                        deadline_ns,
                    })),
                },
            );
            // `swap_remove` moved another entry into `pos`: re-examine it.
        }
    }

    /// Parks a query for retry: charges one attempt, computes its
    /// ready-step from the policy's exponential backoff, and counts it.
    fn park_retry(
        &mut self,
        ticket: TicketId,
        query: QueryId,
        request: ServerRequest,
        ordinal: usize,
        attempt: u32,
        policy: RetryPolicy,
    ) {
        self.stats.retries += 1;
        if let Some(eo) = &self.engine_obs {
            eo.retries.inc();
        }
        let ready_at_step = self.step_count.saturating_add(policy.delay_before(attempt));
        self.retry_parked.push(RetryParked {
            ticket,
            query,
            request,
            submitted_at: Instant::now(),
            ordinal,
            attempt,
            ready_at_step,
        });
    }

    /// Moves retries whose backoff expired back to the admission queue, in
    /// park order (deterministic).
    fn requeue_ready_retries(&mut self) {
        let mut i = 0;
        while i < self.retry_parked.len() {
            if self.retry_parked[i].ready_at_step <= self.step_count {
                let rp = self.retry_parked.remove(i);
                self.queue.push_back(Pending {
                    ticket: rp.ticket,
                    query: rp.query,
                    request: rp.request,
                    submitted_at: rp.submitted_at,
                    ordinal: rp.ordinal,
                    attempt: rp.attempt,
                });
            } else {
                i += 1;
            }
        }
    }

    /// **The single planner entry** of the front door: validates `request`
    /// against the catalog, checks `budget` can hold one resident result
    /// row, chooses the projection codes (cost-based at the shared cache
    /// share unless the request pinned them), resolves the prepared prefix
    /// through the clustered-index cache, warms the run from the scratch
    /// pool, and prices its per-chunk cost for the stride scheduler.
    ///
    /// Every execution mode — one-shot `run`, `stream`, and submitted
    /// tickets — goes through this one function, which is what makes them
    /// byte-identical by construction.
    pub fn resolve(
        &mut self,
        request: &ServerRequest,
        budget: MemoryBudget,
    ) -> Result<ResolvedQuery, RdxError> {
        // Direct runs skip the queue: their lifecycle is submit → admit
        // (zero wait) → cache lookup → chunks → done, same shape as a
        // ticket's.  They consume a submission ordinal like any ticket, so
        // fault plans address both paths with one numbering.
        let query = QueryId::next();
        self.obs.record(query, EventKind::Submit);
        // Direct runs are attributed to their tenant in the trace, but
        // tenant quotas are an *admission* policy and the direct path is
        // the caller's own synchronous loop — only the ticket path sheds.
        if let Some(t) = request.tenant {
            self.obs
                .record(query, EventKind::Tenant { tenant: t.raw() });
        }
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        match self.resolve_with(request, budget, query, 0, ordinal) {
            Ok(rq) => Ok(rq),
            Err(e) => {
                self.reject(query, &e);
                Err(e)
            }
        }
    }

    /// [`QueryEngine::resolve`] under an already-minted query id and a
    /// known queue wait — the shared tail of the direct and ticket paths.
    fn resolve_with(
        &mut self,
        request: &ServerRequest,
        budget: MemoryBudget,
        query: QueryId,
        queue_wait_ns: u64,
        ordinal: usize,
    ) -> Result<ResolvedQuery, RdxError> {
        validate(&self.catalog, request)?;
        budget.check_one_row(streaming_bytes_per_row(&request.spec))?;
        let Some(larger) = self.catalog.get_arc(request.larger) else {
            return Err(RdxError::UnknownRelation {
                id: request.larger.raw(),
            });
        };
        let Some(smaller) = self.catalog.get_arc(request.smaller) else {
            return Err(RdxError::UnknownRelation {
                id: request.smaller.raw(),
            });
        };
        let threads = request
            .threads_hint
            .unwrap_or(self.config.threads_per_query);
        // Deadline-aware admission: price the *whole* streaming phase at
        // this query's granted share with the Appendix-A model before
        // spending anything on it.  An infeasible deadline is rejected
        // here — the query never runs a chunk, and its grant is released
        // by the caller like any admission failure.  The result
        // cardinality is not known pre-join, so the larger side's
        // cardinality bounds it from above (equi-join on a key): the check
        // is conservative, never optimistic.
        if let Some(deadline_ns) = request.deadline_ns {
            let predicted_ns = predicted_total_ns(
                &larger,
                &smaller,
                request,
                &self.shared_params,
                budget,
                threads,
            );
            if predicted_ns > deadline_ns {
                return Err(RdxError::Deadline(DeadlineError::Infeasible {
                    predicted_ns,
                    deadline_ns,
                }));
            }
        }
        self.stats.admissions += 1;
        self.obs.record(
            query,
            EventKind::Admit {
                share_bytes: budget.limit_bytes(),
                queue_wait_ns,
            },
        );
        if let Some(eo) = &self.engine_obs {
            eo.admissions.inc();
            eo.queue_wait_ns.record(queue_wait_ns);
        }
        let policy = ExecPolicy::with_threads(threads).budget(budget);
        let shared_params = &self.shared_params;
        let plan = request.codes.unwrap_or_else(|| {
            plan_by_cost_with_threads(
                &larger,
                &smaller,
                &request.spec,
                shared_params,
                policy.worker_threads(),
            )
        });
        // Derived by the same function the prepared prefix itself uses, so
        // the cache key can never drift from what it names.
        let cluster = rdx_exec::dsm_cluster_spec(smaller.cardinality(), shared_params);
        let key = ClusterKey {
            larger: request.larger,
            smaller: request.smaller,
            plan,
            cluster,
        };
        let pipeline = ProjectionPipeline::new(plan);
        // Scripted cache eviction fires just before the lookup, forcing
        // this query onto the rebuild path at an exact point.
        if self.faults.evict_cache(ordinal) {
            self.cache.clear();
        }
        let bypassed_before = self.cache.stats().bypassed;
        let (prepared, cache_hit) = self.cache.get_or_prepare(key, || {
            pipeline.prepare(&larger, &smaller, shared_params, &policy)
        });
        self.obs
            .record(query, EventKind::CacheLookup { hit: cache_hit });
        if cache_hit {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
        }
        if let Some(eo) = &self.engine_obs {
            if cache_hit {
                eo.cache_hits.inc();
            } else {
                eo.cache_misses.inc();
            }
            eo.cache_bypassed
                .add(self.cache.stats().bypassed - bypassed_before);
        }
        let mut run = DsmPipelineRun::over_dsm_arc(
            prepared,
            larger,
            smaller.clone(),
            &request.spec,
            shared_params,
            &policy,
        );
        // One pricing rule for everyone: the scheduler's stride weight, the
        // chunk loop's observed-vs-predicted recording, and the adaptive
        // controller all read the same per-chunk prediction.
        let predicted_chunk_ns = run.predicted_chunk_ns(shared_params);
        let predicted_chunk_cost_ms = predicted_chunk_ns as f64 / 1e6;
        run.attach_obs(&self.obs, query, predicted_chunk_ns);
        if request.profiled || self.config.profiled {
            run.attach_profile(&self.obs, query, shared_params);
        }
        if let Some(policy) = request.adaptive {
            // A profiled adaptive query reacts to simulated cache pressure —
            // deterministic stall time from the miss-count mailbox — instead
            // of wall-clock.  Falls back to wall-clock when profiling did
            // not arm (observability off).
            let source: Box<dyn FeedbackSource + Send> = match run.profile_shared() {
                Some(shared) => Box::new(MissCountFeedback::new(shared)),
                None => Box::new(WallClockFeedback),
            };
            run.attach_adaptive(policy, source, shared_params);
        }
        // Warm start: hand down scratch harvested from an earlier query.
        let mut scratch_reused = false;
        if let Some(scratch) = self.scratch_pool.pop() {
            run.attach_scratch(scratch);
            scratch_reused = true;
            self.stats.scratch_reuses += 1;
        }
        Ok(ResolvedQuery {
            run,
            stats: QueryStats {
                query_id: query.raw(),
                plan,
                cache_hit,
                scratch_reused,
                share_bytes: budget.limit_bytes(),
                replanned: false,
                chunks: 0,
                rows: 0,
                peak_chunk_bytes: 0,
                adaptive_replans: 0,
                predicted_chunk_cost_ms,
                timings: PhaseTimings::default(),
                wait: Duration::ZERO,
                service: Duration::ZERO,
            },
            started: Instant::now(),
        })
    }

    /// [`QueryEngine::resolve`] with the direct-execution budget rule: the
    /// *uncommitted residual* of the global budget, tightened by the
    /// request's own hint if any.  In-flight tickets keep their admission
    /// grants (their parked working buffers stay resident between chunk
    /// steps), so capping a direct run at the residual preserves the
    /// serving layer's load-bearing invariant — `Σ resident working sets ≤
    /// global` — even when `run`/`stream` calls interleave with tickets on
    /// one session.  When every byte is granted out, the direct run is
    /// refused with a typed [`RdxError::Budget`] instead of over-committing.
    pub fn resolve_direct(&mut self, request: &ServerRequest) -> Result<ResolvedQuery, RdxError> {
        let residual = self.admission.residual().map_err(RdxError::Budget)?;
        let budget = match request.budget_hint {
            Some(hint) if hint.limit_bytes() < residual.limit_bytes() => hint,
            _ => residual,
        };
        self.resolve(request, budget)
    }

    /// Retires a resolved query: harvests its warmed chunk scratch back
    /// into the pool and returns the finalised statistics.  The ticket path
    /// calls this on completion; direct `run`/`stream` callers call it
    /// after `run_to_completion`.
    pub fn retire(&mut self, mut rq: ResolvedQuery) -> QueryStats {
        if self.scratch_pool.len() < self.config.max_concurrent {
            self.scratch_pool.push(rq.run.take_scratch());
        }
        // A cache-hit run never paid the prefix build; fold those timings in
        // only when this query actually built it.
        let run_stats = if rq.stats.cache_hit {
            rq.run.run_stats()
        } else {
            rq.run.stats()
        };
        rq.stats.chunks = run_stats.chunks_emitted;
        rq.stats.rows = run_stats.rows_emitted;
        rq.stats.peak_chunk_bytes = run_stats.peak_chunk_bytes;
        rq.stats.adaptive_replans = run_stats.adaptive_replans;
        self.stats.adaptive_replans += run_stats.adaptive_replans as u64;
        if run_stats.adaptive_replans > 0 {
            if let Some(eo) = &self.engine_obs {
                eo.adaptive_replans.add(run_stats.adaptive_replans as u64);
            }
        }
        rq.stats.timings = run_stats.timings;
        rq.stats.service = rq.started.elapsed();
        let service_ns = rq.stats.service.as_nanos() as u64;
        self.obs.record(
            QueryId(rq.stats.query_id),
            EventKind::Done {
                rows: rq.stats.rows as u64,
                wall_ns: service_ns,
            },
        );
        if let Some(eo) = &self.engine_obs {
            eo.service_ns.record(service_ns);
        }
        rq.stats
    }

    /// Admits from the queue head while budget and slots allow (FIFO —
    /// admission never skips the head, so arrival order bounds waiting).
    fn admit_from_queue(&mut self) {
        while let Some(front) = self.queue.front() {
            let request = front.request;
            let front_ordinal = front.ordinal;
            let effective_row_bytes = streaming_bytes_per_row(&request.spec);
            // A hint below the one-row floor can never run — permanently,
            // so retry policies do not apply; reject before it holds up
            // the queue.
            if let Some(hint) = request.budget_hint {
                if let Err(e) = hint.check_one_row(effective_row_bytes) {
                    let Some(p) = self.queue.pop_front() else {
                        break;
                    };
                    let err = RdxError::Budget(e);
                    self.reject(p.query, &err);
                    self.finished.insert(
                        p.ticket.0,
                        QueryOutcome {
                            request,
                            outcome: Err(err),
                        },
                    );
                    continue;
                }
            }
            // Tenant quotas are checked *before* the global budget is even
            // consulted: an over-quota tenant sheds at its own cap without
            // consuming a shared-pool admission decision.  Over-quota is
            // transient (a release cures it), so retry policies apply like
            // budget rejections.
            if let Some(t) = request.tenant {
                if let Err(err) = self.tenants.check_admit(t, effective_row_bytes) {
                    let Some(p) = self.queue.pop_front() else {
                        break;
                    };
                    match p.request.retry {
                        Some(policy) if p.attempt < policy.max_retries => {
                            self.park_retry(
                                p.ticket,
                                p.query,
                                p.request,
                                p.ordinal,
                                p.attempt + 1,
                                policy,
                            );
                        }
                        _ => {
                            self.reject(p.query, &err);
                            self.finished.insert(
                                p.ticket.0,
                                QueryOutcome {
                                    request,
                                    outcome: Err(err),
                                },
                            );
                        }
                    }
                    continue;
                }
            }
            // A scripted grant denial rides the ordinary budget-rejection
            // path (and so also exercises retry policies).
            let decision = if self.faults.deny_grant(front_ordinal) {
                AdmissionDecision::Reject(BudgetError::ZeroBytes)
            } else {
                self.admission.try_admit(effective_row_bytes)
            };
            match decision {
                AdmissionDecision::Queue => break,
                AdmissionDecision::Reject(e) => {
                    let Some(p) = self.queue.pop_front() else {
                        break;
                    };
                    match p.request.retry {
                        Some(policy) if p.attempt < policy.max_retries => {
                            self.park_retry(
                                p.ticket,
                                p.query,
                                p.request,
                                p.ordinal,
                                p.attempt + 1,
                                policy,
                            );
                        }
                        _ => {
                            let err = RdxError::Budget(e);
                            self.reject(p.query, &err);
                            self.finished.insert(
                                p.ticket.0,
                                QueryOutcome {
                                    request,
                                    outcome: Err(err),
                                },
                            );
                        }
                    }
                }
                AdmissionDecision::Admit { share, replanned } => {
                    let Some(p) = self.queue.pop_front() else {
                        break;
                    };
                    // The effective budget: the admission grant, tightened
                    // by the request's own hint if any (a hint can only
                    // shrink the share, never grow it).
                    let effective = match request.budget_hint {
                        Some(hint) if hint.limit_bytes() < share.limit_bytes() => hint,
                        _ => share,
                    };
                    // A tenant byte cap tightens the grant further — the
                    // same mechanism as the hint — and the final limit is
                    // charged against the tenant, so `Σ` of a tenant's
                    // grants `≤` its cap holds by construction.  The
                    // check above guaranteed the headroom holds one row.
                    let tenant = match request.tenant {
                        Some(t) => match self.tenants.remaining_bytes(t) {
                            Some(remaining) => {
                                let capped = if !effective.is_bounded()
                                    || remaining < effective.limit_bytes()
                                {
                                    MemoryBudget::bytes(remaining)
                                } else {
                                    effective
                                };
                                Some((t, capped.limit_bytes()))
                            }
                            // No byte cap: track the in-flight slot only.
                            None => Some((t, 0)),
                        },
                        None => None,
                    };
                    let effective = match tenant {
                        Some((_, bytes)) if bytes > 0 => MemoryBudget::bytes(bytes),
                        _ => effective,
                    };
                    if let Some((t, bytes)) = tenant {
                        self.tenants.charge(t, bytes);
                    }
                    let wait = p.submitted_at.elapsed();
                    match self.resolve_with(
                        &request,
                        effective,
                        p.query,
                        wait.as_nanos() as u64,
                        p.ordinal,
                    ) {
                        Ok(mut rq) => {
                            rq.stats.replanned = replanned;
                            rq.stats.wait = wait;
                            if replanned {
                                self.stats.replans += 1;
                                if let Some(eo) = &self.engine_obs {
                                    eo.replans.inc();
                                }
                            }
                            let urgency = deadline_urgency(&request, &rq);
                            self.scheduler.add_weighted(
                                p.ticket.0 as usize,
                                rq.stats.predicted_chunk_cost_ms,
                                urgency,
                            );
                            self.running.push(Running {
                                ticket: p.ticket,
                                request,
                                rq,
                                sink: MaterializeSink::new(),
                                share,
                                ordinal: p.ordinal,
                                attempt: p.attempt,
                                consumed_ns: 0,
                                tenant,
                            });
                        }
                        Err(e) => {
                            self.admission.release(share);
                            self.release_tenant(tenant);
                            self.reject(p.query, &e);
                            self.finished.insert(
                                p.ticket.0,
                                QueryOutcome {
                                    request,
                                    outcome: Err(e),
                                },
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The EDF-flavored stride weight for an admitted query: deadline slack
/// scales the stride down (an urgent query's pass advances slower, so it
/// wins more dispatches) and priority divides it.  `1.0` — plain fair
/// stride — for the default request.
///
/// Slack is measured against the *resolved* plan: predicted per-chunk cost
/// × planned chunk count.  The urgency floor (1/16) keeps even a
/// zero-slack query from monopolising the loop — deadlines shift service
/// shares, they do not suspend fairness.
fn deadline_urgency(request: &ServerRequest, rq: &ResolvedQuery) -> f64 {
    let priority = f64::from(request.priority.max(1));
    let slack_factor = match request.deadline_ns {
        Some(deadline_ns) => {
            let chunk_ns = (rq.stats.predicted_chunk_cost_ms * 1e6).max(0.0) as u64;
            let total_ns = chunk_ns.saturating_mul(rq.run.streaming().num_chunks as u64);
            let slack = deadline_ns.saturating_sub(total_ns);
            ((slack as f64 + 1.0) / (deadline_ns as f64 + 1.0)).clamp(1.0 / 16.0, 1.0)
        }
        None => 1.0,
    };
    slack_factor / priority
}

/// The Appendix-A streaming prediction for the whole query at `budget`,
/// in nanoseconds — the number deadline-aware admission compares against
/// [`ServerRequest::deadline_ns`].  Result cardinality is bounded above by
/// the larger side (equi-join on a key); a non-finite prediction saturates
/// to `u64::MAX`, which can only ever *reject*, never admit optimistically.
fn predicted_total_ns(
    larger: &DsmRelation,
    smaller: &DsmRelation,
    request: &ServerRequest,
    params: &CacheParams,
    budget: MemoryBudget,
    threads: usize,
) -> u64 {
    let result_rows = larger.cardinality();
    let plan = plan_streaming(
        result_rows,
        smaller.cardinality(),
        4,
        &request.spec,
        params,
        budget,
        threads,
    );
    let ms = predict_streaming_cost(
        &plan,
        smaller.cardinality(),
        result_rows,
        &request.spec,
        params,
    );
    if ms.is_finite() {
        (ms * 1e6).max(0.0) as u64
    } else {
        u64::MAX
    }
}

/// Request validation against the catalog, in workspace-wide error terms.
fn validate(catalog: &Catalog, request: &ServerRequest) -> Result<(), RdxError> {
    let larger = catalog
        .get(request.larger)
        .ok_or(RdxError::UnknownRelation {
            id: request.larger.raw(),
        })?;
    let smaller = catalog
        .get(request.smaller)
        .ok_or(RdxError::UnknownRelation {
            id: request.smaller.raw(),
        })?;
    if request.spec.project_larger > larger.width() {
        return Err(RdxError::TooManyColumns {
            side: Side::Larger,
            requested: request.spec.project_larger,
            available: larger.width(),
        });
    }
    if request.spec.project_smaller > smaller.width() {
        return Err(RdxError::TooManyColumns {
            side: Side::Smaller,
            requested: request.spec.project_smaller,
            available: smaller.width(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_core::budget::BudgetError;
    use rdx_core::strategy::QuerySpec;
    use rdx_dsm::ResultRelation;
    use rdx_workload::JoinWorkloadBuilder;

    fn config(budget: MemoryBudget) -> ServeConfig {
        ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: budget,
            max_concurrent: 2,
            threads_per_query: 1,
            cache_bytes: 1 << 20,
            fairness: crate::FairnessPolicy::CostWeighted,
            plan_shares: None,
            observability: false,
            profiled: false,
            tenant_quotas: crate::tenant::TenantQuotas::default(),
        }
    }

    fn engine(budget: MemoryBudget) -> QueryEngine {
        QueryEngine::new(config(budget))
    }

    /// Submits every request, steps until idle, and takes the served
    /// results back in submission order.
    fn serve_all(engine: &mut QueryEngine, requests: &[ServerRequest]) -> Vec<QueryResult> {
        let tickets: Vec<TicketId> = requests.iter().map(|r| engine.submit(*r)).collect();
        while engine.step() != EngineStep::Idle {}
        tickets
            .into_iter()
            .map(|t| engine.take_outcome(t).unwrap().outcome.expect("served"))
            .collect()
    }

    fn columns(result: &ResultRelation) -> Vec<Vec<i32>> {
        result
            .columns()
            .iter()
            .map(|c| c.as_slice().to_vec())
            .collect()
    }

    #[test]
    fn ticket_walks_queued_running_finished() {
        let w = JoinWorkloadBuilder::equal(1_500, 1).seed(3).build();
        let mut engine = engine(MemoryBudget::bytes(64));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(1);
        let ticket = engine.submit(ServerRequest::new(larger, smaller, spec));
        assert_eq!(
            engine.status(ticket),
            Some(TicketStatus::Queued { position: 0 })
        );
        // First step admits and runs one chunk.
        assert!(matches!(
            engine.step(),
            EngineStep::Chunk { ticket: t, rows } if t == ticket && rows > 0
        ));
        assert!(matches!(
            engine.status(ticket),
            Some(TicketStatus::Running { chunks: 1, .. })
        ));
        while engine.step() != EngineStep::Idle {}
        assert_eq!(engine.status(ticket), Some(TicketStatus::Finished));
        let outcome = engine.take_outcome(ticket).expect("outcome parked");
        let q = outcome.outcome.expect("query served");
        assert_eq!(q.stats.rows, w.expected_matches);
        assert!(q.stats.chunks > 1);
        // Taken exactly once.
        assert!(engine.take_outcome(ticket).is_none());
        assert_eq!(engine.status(ticket), None);
    }

    #[test]
    fn submit_between_steps_joins_the_running_mix() {
        let w = JoinWorkloadBuilder::equal(2_000, 1).seed(5).build();
        let mut engine = engine(MemoryBudget::bytes(4 * 1024));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(1);
        let a = engine.submit(ServerRequest::new(larger, smaller, spec));
        // Step a few chunks of A alone…
        for _ in 0..3 {
            assert!(matches!(engine.step(), EngineStep::Chunk { .. }));
        }
        // …then submit B *between chunk steps of the in-flight A* — the
        // async-front enabler.
        let b = engine.submit(ServerRequest::new(larger, smaller, spec));
        assert!(matches!(
            engine.status(a),
            Some(TicketStatus::Running { .. })
        ));
        while engine.step() != EngineStep::Idle {}
        let ra = engine.take_outcome(a).unwrap().outcome.unwrap();
        let rb = engine.take_outcome(b).unwrap().outcome.unwrap();
        // Interleaving is invisible in the results.
        assert_eq!(columns(&ra.result), columns(&rb.result));
        assert_eq!(ra.stats.rows, w.expected_matches);
        assert!(engine.stats().peak_concurrency >= 2);
    }

    #[test]
    fn concurrent_tickets_match_the_solo_executor() {
        let w = JoinWorkloadBuilder::equal(1_500, 2).seed(31).build();
        let mut engine = QueryEngine::new(ServeConfig {
            max_concurrent: 3,
            ..config(MemoryBudget::bytes(8 * 1024))
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(2);
        let results = serve_all(&mut engine, &[ServerRequest::new(larger, smaller, spec); 5]);
        assert!(engine.stats().peak_concurrency >= 2);
        assert!(engine.stats().peak_concurrent_bytes <= 8 * 1024);
        for q in &results {
            // Byte-identical to running the engine-chosen plan alone.
            let solo = q
                .stats
                .plan
                .execute(&w.larger, &w.smaller, &spec, engine.shared_params());
            assert_eq!(columns(&q.result), columns(&solo.result));
            assert_eq!(q.stats.rows, w.expected_matches);
            assert!(q.stats.chunks >= 1);
            assert!(q.stats.share_bytes <= 8 * 1024);
        }
        // Five identical requests: one miss builds the prefix, four hits.
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 4);
        assert!(!results[0].stats.cache_hit);
        assert!(results[4].stats.cache_hit);
        // Only the cache-missing query paid the prefix build time.
        assert!(results[0].stats.timings.join.as_nanos() > 0);
        assert_eq!(results[4].stats.timings.join, Duration::ZERO);
    }

    #[test]
    fn scratch_pool_hands_warm_buffers_to_later_queries() {
        let w = JoinWorkloadBuilder::equal(1_200, 2).seed(61).build();
        let mut engine = QueryEngine::new(ServeConfig {
            max_concurrent: 1, // strictly sequential: reuse is deterministic
            ..config(MemoryBudget::bytes(4 * 1024))
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(2));
        let results = serve_all(&mut engine, &[request; 4]);
        // First query grows its scratch; the next three inherit it.
        assert_eq!(engine.stats().scratch_reuses, 3);
        assert!(!results[0].stats.scratch_reused);
        for q in &results[1..] {
            assert!(q.stats.scratch_reused);
            assert_eq!(q.stats.rows, w.expected_matches);
        }
        // Reuse is invisible in the results: all four are identical.
        let first = columns(&results[0].result);
        for q in &results[1..] {
            assert_eq!(columns(&q.result), first);
        }
        // The pool persists across drains too.
        serve_all(&mut engine, &[request]);
        assert_eq!(engine.stats().scratch_reuses, 4);
    }

    #[test]
    fn request_hints_flow_through_the_ticket_path() {
        let w = JoinWorkloadBuilder::equal(900, 1).seed(17).build();
        let mut engine = QueryEngine::new(ServeConfig {
            max_concurrent: 3,
            ..config(MemoryBudget::bytes(64 * 1024))
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(1);
        let pinned = DsmPostProjection::with_codes(
            rdx_core::strategy::ProjectionCode::Unsorted,
            rdx_core::strategy::SecondSideCode::Decluster,
        );
        let request = ServerRequest::new(larger, smaller, spec)
            .with_codes(pinned)
            .with_threads(2)
            .with_budget_hint(MemoryBudget::bytes(256));
        let q = serve_all(&mut engine, &[request]).remove(0);
        assert_eq!(q.stats.plan, pinned);
        // The hint tightened the share below the fair split.
        assert_eq!(q.stats.share_bytes, 256);
        assert!(q.stats.chunks > 1);
        let solo = pinned.execute(&w.larger, &w.smaller, &spec, engine.shared_params());
        assert_eq!(columns(&q.result), columns(&solo.result));
    }

    #[test]
    fn invalid_submissions_finish_immediately_with_typed_errors() {
        let w = JoinWorkloadBuilder::equal(300, 1).seed(7).build();
        let mut engine = engine(MemoryBudget::bytes(4 * 1024));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let ghost = engine.submit(ServerRequest::new(
            RelationId(99),
            smaller,
            QuerySpec::symmetric(1),
        ));
        assert_eq!(engine.status(ghost), Some(TicketStatus::Finished));
        assert_eq!(
            engine.take_outcome(ghost).unwrap().outcome.unwrap_err(),
            RdxError::UnknownRelation { id: 99 }
        );
        let wide = engine.submit(ServerRequest::new(larger, smaller, QuerySpec::symmetric(9)));
        assert!(matches!(
            engine.take_outcome(wide).unwrap().outcome.unwrap_err(),
            RdxError::TooManyColumns { .. }
        ));
        // A hint below the one-row floor fails at admission time, without
        // blocking the valid query queued behind it.
        let starved = engine.submit(
            ServerRequest::new(larger, smaller, QuerySpec::symmetric(1))
                .with_budget_hint(MemoryBudget::bytes(1)),
        );
        let valid = engine.submit(ServerRequest::new(larger, smaller, QuerySpec::symmetric(1)));
        while engine.step() != EngineStep::Idle {}
        assert!(matches!(
            engine.take_outcome(starved).unwrap().outcome.unwrap_err(),
            RdxError::Budget(BudgetError::BelowOneRow { .. })
        ));
        let served = engine.take_outcome(valid).unwrap().outcome.unwrap();
        assert_eq!(served.stats.rows, w.expected_matches);
        // Unknown tickets report None, not a panic.  (u64::MAX is never
        // issued: the process-wide counter counts up from zero.)
        assert_eq!(engine.status(TicketId(u64::MAX)), None);
        assert!(engine.take_outcome(TicketId(u64::MAX)).is_none());
    }

    #[test]
    fn resolve_is_one_entry_for_direct_and_ticket_paths() {
        let w = JoinWorkloadBuilder::equal(1_200, 2).seed(11).build();
        let mut engine = engine(MemoryBudget::bytes(8 * 1024));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(2));

        // Direct: resolve → run_to_completion → retire.
        let mut rq = engine.resolve_direct(&request).expect("resolves");
        assert!(!rq.cache_hit());
        let mut sink = MaterializeSink::new();
        rq.run_to_completion(&mut sink);
        assert!(rq.is_done());
        let stats = engine.retire(rq);
        assert_eq!(stats.rows, w.expected_matches);
        let direct = sink.into_result();

        // Ticket: same request through the scheduler; the prefix now comes
        // from the cache the direct run warmed.
        let ticket = engine.submit(request);
        while engine.step() != EngineStep::Idle {}
        let q = engine.take_outcome(ticket).unwrap().outcome.unwrap();
        assert!(q.stats.cache_hit);
        assert_eq!(columns(&direct), columns(&q.result));

        // Pinned codes override the planner through the same entry.
        let pinned = engine
            .resolve_direct(&request.with_codes(q.stats.plan))
            .unwrap();
        assert_eq!(pinned.plan(), q.stats.plan);
        engine.retire(pinned);
    }

    #[test]
    fn direct_runs_cannot_overcommit_past_in_flight_grants() {
        let w = JoinWorkloadBuilder::equal(1_000, 1).seed(13).build();
        let mut engine = engine(MemoryBudget::bytes(4_096)); // max_concurrent = 2
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(1));

        // One ticket in flight holds its 2 KB fair share…
        engine.submit(request);
        assert!(matches!(engine.step(), EngineStep::Chunk { .. }));
        // …so a direct run is capped at the 2 KB residual, keeping
        // Σ resident working sets ≤ the 4 KB global budget.
        let rq = engine.resolve_direct(&request).expect("residual fits");
        assert_eq!(rq.stats.share_bytes, 2_048);
        engine.retire(rq);

        // With the whole budget granted out, a direct run is refused with a
        // typed error instead of over-committing.
        engine.submit(request);
        assert!(matches!(engine.step(), EngineStep::Chunk { .. }));
        assert_eq!(engine.in_flight(), 2);
        let err = match engine.resolve_direct(&request) {
            Err(e) => e,
            Ok(_) => panic!("fully committed budget must refuse direct runs"),
        };
        assert_eq!(err, RdxError::Budget(BudgetError::ZeroBytes));

        // Draining the tickets frees the budget again.
        while engine.step() != EngineStep::Idle {}
        let rq = engine.resolve_direct(&request).expect("budget released");
        assert_eq!(rq.stats.share_bytes, 4_096);
        engine.retire(rq);
    }

    #[test]
    fn cancel_reclaims_grants_at_any_state() {
        let w = JoinWorkloadBuilder::equal(1_500, 1).seed(17).build();
        let mut engine = engine(MemoryBudget::bytes(64));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(1));

        // Cancel while still queued: no grant was ever held.
        let queued = engine.submit(request);
        assert!(engine.cancel(queued));
        assert_eq!(engine.status(queued), Some(TicketStatus::Finished));
        assert_eq!(
            engine.take_outcome(queued).unwrap().outcome.unwrap_err(),
            RdxError::Cancelled
        );
        assert_eq!(engine.committed_bytes(), 0);

        // Cancel mid-flight: the grant comes back at the chunk boundary.
        let running = engine.submit(request);
        for _ in 0..3 {
            assert!(matches!(engine.step(), EngineStep::Chunk { .. }));
        }
        assert!(engine.committed_bytes() > 0);
        assert!(engine.cancel(running));
        assert_eq!(engine.committed_bytes(), 0);
        assert_eq!(
            engine.take_outcome(running).unwrap().outcome.unwrap_err(),
            RdxError::Cancelled
        );
        // Exactly one terminal observation; cancelling again is a no-op.
        assert!(engine.take_outcome(running).is_none());
        assert!(!engine.cancel(running));
        assert_eq!(engine.stats().cancellations, 2);
        assert_eq!(engine.step(), EngineStep::Idle);

        // A survivor submitted afterwards is unaffected.
        let survivor = engine.submit(request);
        while engine.step() != EngineStep::Idle {}
        let q = engine.take_outcome(survivor).unwrap().outcome.unwrap();
        assert_eq!(q.stats.rows, w.expected_matches);
    }

    #[test]
    fn infeasible_deadline_is_rejected_before_any_chunk_runs() {
        let w = JoinWorkloadBuilder::equal(2_000, 1).seed(19).build();
        let mut engine = engine(MemoryBudget::bytes(4 * 1024));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(1);

        // 1 ns of service time can never cover a 2 000-row projection.
        let doomed = engine.submit(ServerRequest::new(larger, smaller, spec).with_deadline(1));
        while engine.step() != EngineStep::Idle {}
        match engine.take_outcome(doomed).unwrap().outcome.unwrap_err() {
            RdxError::Deadline(DeadlineError::Infeasible {
                predicted_ns,
                deadline_ns,
            }) => {
                assert!(predicted_ns > deadline_ns);
                assert_eq!(deadline_ns, 1);
            }
            other => panic!("expected infeasible-deadline rejection, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.deadline_rejects, 1);
        assert_eq!(stats.chunks_dispatched, 0, "rejected before any chunk ran");
        assert_eq!(engine.committed_bytes(), 0);

        // A generous deadline admits and completes normally.
        let fine = engine.submit(ServerRequest::new(larger, smaller, spec).with_deadline(u64::MAX));
        while engine.step() != EngineStep::Idle {}
        let q = engine.take_outcome(fine).unwrap().outcome.unwrap();
        assert_eq!(q.stats.rows, w.expected_matches);
    }

    #[test]
    fn scripted_slowdown_trips_the_deadline_mid_flight() {
        let w = JoinWorkloadBuilder::equal(1_500, 1).seed(23).build();
        let mut engine = engine(MemoryBudget::bytes(64));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        // 1 s of real slack dwarfs actual wall time; the scripted 10¹² ns
        // slowdown at chunk 2 is what trips it — deterministically.
        engine.inject_faults(FaultPlan::new().slow_at(0, 2, 1_000_000_000_000));
        let ticket = engine.submit(
            ServerRequest::new(larger, smaller, QuerySpec::symmetric(1))
                .with_deadline(1_000_000_000),
        );
        while engine.step() != EngineStep::Idle {}
        match engine.take_outcome(ticket).unwrap().outcome.unwrap_err() {
            RdxError::Deadline(DeadlineError::Exceeded {
                consumed_ns,
                deadline_ns,
            }) => {
                assert!(consumed_ns > deadline_ns);
                assert_eq!(deadline_ns, 1_000_000_000);
            }
            other => panic!("expected deadline-exceeded, got {other:?}"),
        }
        assert_eq!(engine.committed_bytes(), 0);
        assert_eq!(engine.stats().cancellations, 1);
    }

    #[test]
    fn injected_panic_poisons_one_run_and_retry_recovers_it() {
        let w = JoinWorkloadBuilder::equal(1_500, 1).seed(29).build();
        let mut engine = engine(MemoryBudget::bytes(64));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(1));

        // Without a retry policy the panic surfaces as a typed error.
        engine.inject_faults(FaultPlan::new().panic_at(0, 1, 3));
        let doomed = engine.submit(request);
        while engine.step() != EngineStep::Idle {}
        assert_eq!(
            engine.take_outcome(doomed).unwrap().outcome.unwrap_err(),
            RdxError::WorkerPanicked { worker: 3 }
        );
        assert_eq!(engine.committed_bytes(), 0);
        assert_eq!(engine.stats().worker_panics, 1);

        // With one, the re-run completes and matches a clean run exactly.
        engine.inject_faults(FaultPlan::new().panic_at(1, 1, 0));
        let retried = engine.submit(request.with_retry(RetryPolicy::with_retries(1)));
        let clean = engine.submit(request);
        while engine.step() != EngineStep::Idle {}
        let qr = engine.take_outcome(retried).unwrap().outcome.unwrap();
        let qc = engine.take_outcome(clean).unwrap().outcome.unwrap();
        assert_eq!(columns(&qr.result), columns(&qc.result));
        assert_eq!(qr.stats.rows, w.expected_matches);
        let stats = engine.stats();
        assert_eq!(stats.worker_panics, 2);
        assert_eq!(stats.retries, 1);
    }

    #[test]
    fn denied_grants_retry_through_waiting_steps() {
        let w = JoinWorkloadBuilder::equal(800, 1).seed(31).build();
        let mut engine = engine(MemoryBudget::bytes(4 * 1024));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(1));

        // Two scripted denials; two retries in the policy → eventually done.
        engine.inject_faults(FaultPlan::new().deny_grant(0).deny_grant(0));
        let ticket = engine.submit(request.with_retry(RetryPolicy::with_retries(2)));
        let mut saw_waiting = false;
        loop {
            match engine.step() {
                EngineStep::Idle => break,
                EngineStep::Waiting => saw_waiting = true,
                _ => {}
            }
        }
        assert!(saw_waiting, "backoff steps surface as Waiting, not Idle");
        let q = engine.take_outcome(ticket).unwrap().outcome.unwrap();
        assert_eq!(q.stats.rows, w.expected_matches);
        assert_eq!(engine.stats().retries, 2);
        assert_eq!(engine.stats().budget_rejects, 0, "retried, never rejected");

        // Exhausting the policy surfaces the budget error.
        engine.inject_faults(FaultPlan::new().deny_grant(1).deny_grant(1));
        let doomed = engine.submit(request.with_retry(RetryPolicy::with_retries(1)));
        while engine.step() != EngineStep::Idle {}
        assert!(matches!(
            engine.take_outcome(doomed).unwrap().outcome.unwrap_err(),
            RdxError::Budget(BudgetError::ZeroBytes)
        ));
        assert_eq!(engine.stats().budget_rejects, 1);
    }

    #[test]
    fn tight_deadlines_outrun_loose_ones_under_contention() {
        let w = JoinWorkloadBuilder::equal(2_000, 1).seed(37).build();
        let mut engine = engine(MemoryBudget::bytes(4 * 1024));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(1);
        // Same work, but one has almost no slack: the EDF weight should
        // finish it first even though it was submitted second.
        let loose =
            engine.submit(ServerRequest::new(larger, smaller, spec).with_deadline(u64::MAX));
        let tight = engine.submit(
            ServerRequest::new(larger, smaller, spec)
                .with_deadline(60_000_000_000)
                .with_priority(4),
        );
        let mut finish_order = Vec::new();
        loop {
            match engine.step() {
                EngineStep::Idle => break,
                EngineStep::Finished { ticket } => finish_order.push(ticket),
                _ => {}
            }
        }
        assert_eq!(finish_order, vec![tight, loose]);
        let qt = engine.take_outcome(tight).unwrap().outcome.unwrap();
        let ql = engine.take_outcome(loose).unwrap().outcome.unwrap();
        assert_eq!(columns(&qt.result), columns(&ql.result));
    }

    #[test]
    fn tenant_quotas_shed_at_admission_and_release_on_teardown() {
        use crate::tenant::{TenantQuota, TenantQuotas};
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(64 * 1024),
            max_concurrent: 4,
            threads_per_query: 1,
            cache_bytes: 1 << 20,
            fairness: crate::FairnessPolicy::CostWeighted,
            plan_shares: Some(1),
            observability: false,
            profiled: false,
            tenant_quotas: TenantQuotas::unlimited()
                .with_tenant("burst", TenantQuota::unlimited().in_flight(1)),
        });
        let w = JoinWorkloadBuilder::equal(400, 1).seed(11).build();
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(1);
        let burst = engine.tenant_id("burst");
        let free = engine.tenant_id("free");

        // Two tagged submissions from the capped tenant plus one from an
        // uncapped one: the first "burst" query is admitted, the second is
        // shed at its own cap, and the "free" tenant is untouched.
        let first = engine.submit(ServerRequest::new(larger, smaller, spec).with_tenant(burst));
        let second = engine.submit(ServerRequest::new(larger, smaller, spec).with_tenant(burst));
        let other = engine.submit(ServerRequest::new(larger, smaller, spec).with_tenant(free));
        while engine.step() != EngineStep::Idle {}

        let shed = engine.take_outcome(second).unwrap().outcome.unwrap_err();
        assert!(matches!(
            shed,
            RdxError::TenantQuota { tenant, kind: rdx_core::error::TenantQuotaKind::InFlight { limit: 1, .. } }
                if tenant == burst.raw()
        ));
        let ok_first = engine.take_outcome(first).unwrap().outcome.unwrap();
        let ok_other = engine.take_outcome(other).unwrap().outcome.unwrap();
        assert_eq!(columns(&ok_first.result), columns(&ok_other.result));
        assert_eq!(engine.stats().tenant_quota_rejects, 1);

        // Completion released the slot: the same tenant admits again.
        let bs = engine.tenant_stats(burst).unwrap();
        assert_eq!((bs.in_flight, bs.committed_bytes), (0, 0));
        assert_eq!((bs.admissions, bs.rejections), (1, 1));
        let third = engine.submit(ServerRequest::new(larger, smaller, spec).with_tenant(burst));
        while engine.step() != EngineStep::Idle {}
        assert!(engine.take_outcome(third).unwrap().outcome.is_ok());
    }

    #[test]
    fn tenant_byte_cap_tightens_the_grant_like_a_hint() {
        use crate::tenant::{TenantQuota, TenantQuotas};
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(64 * 1024),
            max_concurrent: 2,
            threads_per_query: 1,
            cache_bytes: 1 << 20,
            fairness: crate::FairnessPolicy::CostWeighted,
            plan_shares: Some(1),
            observability: false,
            profiled: false,
            tenant_quotas: TenantQuotas::unlimited()
                .with_default(TenantQuota::unlimited().resident_bytes(512)),
        });
        let w = JoinWorkloadBuilder::equal(600, 1).seed(13).build();
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(1);
        let capped = engine.tenant_id("capped");

        let t = engine.submit(ServerRequest::new(larger, smaller, spec).with_tenant(capped));
        // While running, the tenant's byte charge equals the tightened
        // grant — never the (much larger) global share.
        let mut seen_charge = 0;
        loop {
            match engine.step() {
                EngineStep::Idle => break,
                _ => {
                    let s = engine.tenant_stats(capped).unwrap();
                    seen_charge = seen_charge.max(s.committed_bytes);
                }
            }
        }
        assert_eq!(seen_charge, 512);
        let q = engine.take_outcome(t).unwrap().outcome.unwrap();
        assert_eq!(q.stats.share_bytes, 512);
        assert_eq!(q.result.cardinality(), w.expected_matches);
        // Untagged queries on the same engine bypass tenant accounting.
        let untagged = engine.submit(ServerRequest::new(larger, smaller, spec));
        while engine.step() != EngineStep::Idle {}
        let qu = engine.take_outcome(untagged).unwrap().outcome.unwrap();
        assert!(qu.stats.share_bytes > 512);
        assert_eq!(columns(&q.result), columns(&qu.result));
    }
}
