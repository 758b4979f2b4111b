//! The **ticket-granular query engine**: the persistent core the whole
//! serving layer runs on, and the one front door in process.
//!
//! Admission, scheduling and chunk execution live in a value with *open*
//! edges, so a query can be accepted or observed while others are in
//! flight:
//!
//! * [`QueryEngine::query`] builds a request ([`Query`]) and ends in
//!   [`Query::submit`] or the one-shot [`Query::run`];
//! * [`QueryEngine::submit`] validates a request against the catalog and
//!   enqueues it, returning a non-blocking [`TicketId`] immediately — at any
//!   time, including between chunk steps of other in-flight queries (the
//!   async-front enabler the ROADMAP asks for);
//! * [`QueryEngine::step`] pumps exactly one scheduler decision: admit from
//!   the queue head while budget and slots allow, then run **one column
//!   chunk of one query** (one projected column × one row chunk), the one
//!   with the least predicted work left (see
//!   [`crate::scheduler`]), resumable from outside;
//! * [`QueryEngine::poll`] observes a ticket without blocking; the poll
//!   that observes a terminal state takes it.
//!
//! ## The ticket state machine
//!
//! ```text
//! submit ──► Queued ──admit──► Running ──last chunk──► Done(Served) ─────────┐
//!    │         │ ▲                │                                          ├─ first poll ──► gone
//!    │         │ └──── retry ─────┤                                          │
//!    └─────────┴──────────────────┴─ refused / failed ─► Rejected(RdxError) ─┘
//! ```
//!
//! [`QueryEngine::poll`] reports exactly these four states as a
//! [`TicketPoll`], the one observer of a ticket: in-process callers poll
//! the engine, and the `rdx-net` wire hands the poll on as is — a live
//! state to the client's `Poll`, a terminal one pushed unasked to the
//! ticket's connection once [`QueryEngine::finished`] lists it.
//!
//! The engine stores the diagram as drawn: one table of tickets, each one
//! record holding one state — `Queued`, `Parked` (a retry waiting out its
//! backoff, polled as `Queued`), `Running` or `Finished` — so no ticket
//! can be in two states, and a poll or a cancel is one search and one
//! match.  One ordering rule keeps the table: a ticket moves to its back
//! whenever it enters `Queued` or `Parked`.  So queued tickets stand in
//! FIFO order (admission never skips the first, so arrival order bounds
//! waiting; a retry re-enters behind the live queue), parked ones in park
//! order and running ones in admission order.  `Running` tickets are
//! parked [`rdx_exec::PipelineRun`]s that own `Arc` clones of their
//! relations (never borrowing the catalog, which is what lets the engine
//! hold them across calls).  A finished ticket holds its outcome — the
//! served result or a typed [`RdxError`] — until the first poll that
//! observes it takes it, so each outcome is delivered exactly once by
//! construction; a later poll, like a poll of a ticket this engine never
//! issued, reports [`RdxError::UnknownTicket`].
//!
//! Everything fallible reports the workspace-wide [`RdxError`]; the engine
//! never panics on untrusted input.
//!
//! Every query is a ticket; there is no second lifecycle beside this one.
//! Serving a whole batch is these primitives in a row: submit all, step
//! until [`EngineStep::Idle`], poll every ticket once.  The one-shot
//! [`Query::run`] is the one-ticket case: submit, then poll and step
//! until the poll is terminal — so it is admitted, shed, retried,
//! deadline-checked and panic-isolated exactly like any other ticket.

use crate::admission::{self, Admission, Grant};
use crate::cache::{CacheStats, ClusterCache, ClusterKey};
use crate::registry::{Catalog, RelationId};
use crate::request::{
    Query, QueryResult, QueryStats, ResultForm, ServeConfig, Served, ServerRequest,
};
use crate::scheduler;
use crate::tenant::{Load, TenantId, TenantRegistry, TenantStats};
use rdx_cache::CacheParams;
use rdx_core::budget::{BudgetError, MemoryBudget};
use rdx_core::error::{check_projection_widths, DeadlineError, RdxError};
use rdx_core::fault::{FaultInjector, FaultPlan};
use rdx_core::strategy::planner::{
    plan_by_cost_with_threads, plan_streaming, predict_cost, streaming_bytes_per_row, StreamingPlan,
};
use rdx_core::strategy::{DoneHead, FrameSink, MaterializeSink, PhaseTimings};
use rdx_dsm::DsmRelation;
use rdx_exec::{ExecPolicy, PipelineRun, ProjectionPipeline};
use rdx_obs::{Counter, EventKind, Gauge, Histogram, MetricsRegistry, Obs, QueryId};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Opaque handle to a submitted query: the engine's promise to eventually
/// park an outcome under this id.  Its number is the process-wide
/// [`QueryId`] minted at submit, so it also keys the query's trace events
/// and is its [`QueryStats::query_id`].  Ids are unique across every
/// engine in the process, so a ticket polled against the wrong engine can
/// never alias (and silently consume) another engine's outcome — it
/// reports [`RdxError::UnknownTicket`] instead.
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

/// What one [`QueryEngine::poll`] observed: where a ticket is in its
/// state machine.  `Done` and `Rejected` are terminal and delivered to
/// exactly one poll.
#[derive(Debug)]
pub enum TicketPoll {
    /// Waiting for admission (FIFO; `position` 0 is the queue head, and a
    /// ticket parked for retry backoff counts behind the live queue).
    Queued {
        /// Tickets ahead of this one.
        position: usize,
    },
    /// Admitted and progressing column chunk by column chunk.
    Running {
        /// Row chunks' worth of column chunks emitted so far (monotone
        /// within one attempt, ending at the row-chunk count).
        chunks: usize,
        /// The rows of those row chunks (monotone within one attempt,
        /// ending at the result's cardinality).
        rows: usize,
    },
    /// Complete: the result in the request's [`ResultForm`].
    Done(Served),
    /// Refused, cancelled or failed with a typed error — or
    /// [`RdxError::UnknownTicket`] for a ticket this engine never issued
    /// or whose outcome an earlier poll took.
    Rejected(RdxError),
}

/// What one [`QueryEngine::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStep {
    /// One column chunk of `ticket` ran, emitting `rows` result rows of
    /// one column.
    Chunk {
        /// The query that progressed.
        ticket: TicketId,
        /// Rows in the emitted column chunk.
        rows: usize,
    },
    /// `ticket` completed; its outcome is parked for the next
    /// [`QueryEngine::poll`].
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

/// Cumulative engine counters over the engine's lifetime — a read of its
/// `engine.*` registry counters plus the two peaks, which are state, not
/// counts.  The counters of one pass are the difference of two snapshots;
/// the peaks cannot be windowed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Peak over time of `Σ` active queries' planned working-set bounds.
    pub peak_concurrent_bytes: usize,
    /// Most queries in flight at once.
    pub peak_concurrency: usize,
    /// Total column chunks dispatched.
    pub chunks_dispatched: u64,
    /// Queries that started on pooled (already warmed) chunk scratch.
    pub scratch_reuses: u64,
    /// Resolved queries whose prepared prefix came from the
    /// clustered-index cache.
    pub cache_hits: u64,
    /// Resolved queries that had to build their prepared prefix.
    pub cache_misses: u64,
    /// Tickets granted a budget share and started.
    pub admissions: u64,
    /// Tickets refused with a typed error before running a chunk
    /// (validation, tenant-quota, budget, infeasible-deadline or
    /// oversized-frame failures).
    pub rejections: u64,
    /// Admissions granted less than the fair share (tighter chunking).
    pub replans: u64,
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

/// The engine's registry handles, resolved once at construction: each
/// decision is counted here and nowhere else, and [`QueryEngine::stats`]
/// reads them back.
struct Counters {
    admissions: Counter,
    rejections: Counter,
    replans: Counter,
    chunks_dispatched: Counter,
    scratch_reuses: Counter,
    budget_rejects: Counter,
    deadline_rejects: Counter,
    cancellations: Counter,
    worker_panics: Counter,
    retries: Counter,
    tenant_quota_rejects: Counter,
    in_flight: Gauge,
    queued: Gauge,
    queue_wait_ns: Histogram,
    service_ns: Histogram,
    dispatch_wait: Histogram,
}

impl Counters {
    fn new(metrics: &MetricsRegistry) -> Counters {
        Counters {
            admissions: metrics.counter("engine.admissions"),
            rejections: metrics.counter("engine.rejections"),
            replans: metrics.counter("engine.replans"),
            chunks_dispatched: metrics.counter("engine.chunks_dispatched"),
            scratch_reuses: metrics.counter("engine.scratch_reuses"),
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
            dispatch_wait: metrics.histogram("engine.dispatch_wait"),
        }
    }
}

/// The static label a `Reject` trace event carries for `e`.
fn reject_reason(e: &RdxError) -> &'static str {
    match e {
        RdxError::Budget(_) => "budget",
        RdxError::UnknownRelation { .. } => "unknown_relation",
        RdxError::TooManyColumns { .. } => "too_many_columns",
        RdxError::UnknownTicket { .. } => "unknown_ticket",
        RdxError::Deadline(_) => "deadline",
        RdxError::Cancelled => "cancelled",
        RdxError::WorkerPanicked { .. } => "worker_panic",
        RdxError::TenantQuota { .. } => "tenant_quota",
        RdxError::ResultTooLarge { .. } => "result_too_large",
    }
}

/// One submitted query: its identity, carried unchanged through every
/// state, and the one state it is in.
struct Ticket {
    /// Minted at submit; its number is the ticket's.
    query: QueryId,
    request: ServerRequest,
    /// When this attempt entered the queue (the start of its queue wait).
    submitted_at: Instant,
    /// 0-based submission ordinal — how the fault injector addresses this
    /// query.  Stable across retries.
    ordinal: usize,
    /// Retry attempts already consumed (0 on first submission).
    attempt: u32,
    state: State,
}

/// The module doc's state machine, one arm per state.
enum State {
    Queued,
    /// Waiting out a retry backoff until engine step `until`.
    Parked {
        until: u64,
    },
    Running(Box<Running>),
    /// Done or Rejected, until a poll takes it.
    Finished(Result<Served, RdxError>),
}

impl Ticket {
    fn id(&self) -> TicketId {
        TicketId(self.query.raw())
    }

    fn running(&self) -> Option<&Running> {
        match &self.state {
            State::Running(r) => Some(r),
            _ => None,
        }
    }
}

/// The sink a running ticket fills, in its request's [`ResultForm`].
enum TicketSink {
    Columns(MaterializeSink),
    Frame(FrameSink),
}

/// A parked run: it owns its relations through the catalog's `Arc`s, so it
/// never borrows the catalog.
type Run = PipelineRun<Arc<DsmRelation>>;

/// What a `Running` ticket holds: a parked run, the sink it fills, its
/// grant and its dispatch key.  Each exists exactly while its ticket is
/// `Running`, so leaving that state returns them.
struct Running {
    run: Run,
    /// Plan-time statistics, finalised from the run at completion.
    stats: QueryStats,
    /// When the run was started (its service time counts from here).
    started: Instant,
    sink: TicketSink,
    /// The admission grant: the budget the run plans under, which is what
    /// the global budget and its tenant's byte cap are charged.
    grant: Grant,
    /// The slowdowns injected into its steps so far.  Its deadline is
    /// charged these plus its run's chunk-loop [`PhaseTimings`].
    slowed_ns: u64,
    /// Predicted column-chunk cost of a first-side and of a second-side
    /// column (their shares of the row-chunk price) × deadline urgency: its
    /// work left, the dispatch key, is each side's column chunks left times
    /// its price.
    step_work: [f64; 2],
    /// The engine step it has waited since: its admission step, then the
    /// step after each of its dispatches.
    waiting_since: u64,
    /// The most dispatches of other queries it waited between two of its
    /// own, recorded at retire.
    max_wait: u64,
}

impl Running {
    /// Predicted work left: each side's column chunks left × its weighted
    /// column-chunk price.  Before the first step this is row chunks × the
    /// weighted row-chunk price.
    fn work_left(&self) -> f64 {
        let [first, second] = self.run.column_chunks_left();
        first as f64 * self.step_work[0] + second as f64 * self.step_work[1]
    }

    /// Finalises a completed run's statistics, records its `Done` event and
    /// takes its result out of the sink: the materialised columns, or the
    /// frame with its head written.
    fn retire(&mut self, query: QueryId, obs: &Obs, counters: &Counters) -> Served {
        // A cache-hit run never paid the prefix build; fold those timings in
        // only when this query actually built it.
        let run_stats = if self.stats.cache_hit {
            self.run.run_stats()
        } else {
            self.run.stats()
        };
        let mut stats = self.stats;
        stats.chunks = run_stats.chunks_emitted;
        stats.rows = run_stats.rows_emitted;
        stats.peak_chunk_bytes = run_stats.peak_chunk_bytes;
        stats.timings = run_stats.timings;
        stats.service = self.started.elapsed();
        let service_ns = stats.service.as_nanos() as u64;
        obs.record(
            query,
            EventKind::Done {
                rows: stats.rows as u64,
                wall_ns: service_ns,
            },
        );
        counters.service_ns.record(service_ns);
        counters.dispatch_wait.record(self.max_wait);
        match &mut self.sink {
            TicketSink::Columns(sink) => Served::Columns(QueryResult {
                result: std::mem::take(sink).into_result(),
                stats,
            }),
            TicketSink::Frame(sink) => Served::Frame {
                frame: std::mem::take(sink).into_frame(&DoneHead {
                    ticket: query.raw(),
                    rows: stats.rows as u64,
                    chunks: stats.chunks as u64,
                    cache_hit: stats.cache_hit,
                    share_bytes: stats.share_bytes as u64,
                }),
                stats,
            },
        }
    }
}

/// The persistent, ticket-granular serving core.
///
/// ```
/// use rdx_serve::{QueryEngine, EngineStep, ServeConfig, Served, TicketPoll};
/// use rdx_workload::JoinWorkloadBuilder;
///
/// let mut engine = QueryEngine::new(ServeConfig::default());
/// let w = JoinWorkloadBuilder::equal(1_000, 1).build();
/// let larger = engine.register(w.larger.clone());
/// let smaller = engine.register(w.smaller.clone());
/// let ticket = engine.query(larger, smaller).submit();
/// while engine.step() != EngineStep::Idle {}
/// let TicketPoll::Done(Served::Columns(result)) = engine.poll(ticket) else {
///     panic!("not served")
/// };
/// assert_eq!(result.stats.rows, w.expected_matches);
/// assert!(matches!(engine.poll(ticket), TicketPoll::Rejected(_)), "taken once");
/// ```
pub struct QueryEngine {
    config: ServeConfig,
    shared_params: CacheParams,
    catalog: Catalog,
    cache: ClusterCache,
    scratch_pool: Vec<rdx_exec::ChunkScratch>,
    /// Every ticket a poll has not taken, in the module doc's order.
    tickets: VecDeque<Ticket>,
    obs: Obs,
    counters: Counters,
    peak_concurrency: usize,
    peak_concurrent_bytes: usize,
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
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        QueryEngine {
            shared_params,
            catalog: Catalog::new(),
            cache: ClusterCache::new(config.cache_bytes, obs.metrics()),
            scratch_pool: Vec::new(),
            tickets: VecDeque::new(),
            counters: Counters::new(obs.metrics()),
            obs,
            peak_concurrency: 0,
            peak_concurrent_bytes: 0,
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
    /// [`ServerRequest::tenant`]) are quota-checked at admission.
    pub fn tenant_id(&mut self, name: &str) -> TenantId {
        self.tenants.intern(name, self.obs.metrics())
    }

    /// The tenant's quota accounting, or `None` for an id this engine
    /// never interned.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.tenants.stats(tenant, self.tenant_load(tenant))
    }

    /// The tenant's load, read off the running tickets: how many it has
    /// and the bytes they hold against its byte cap.
    fn tenant_load(&self, tenant: TenantId) -> Load {
        let charges = self.running().filter_map(|r| r.grant.tenant);
        (charges.filter(|&(t, _)| t == tenant)).fold((0, 0), |(n, sum), (_, b)| (n + 1, sum + b))
    }

    /// Writes a charged tenant's load to its `engine.tenant.<name>.*`
    /// gauges.
    fn publish_tenant(&self, charge: Option<(TenantId, usize)>) {
        if let Some((t, _)) = charge {
            self.tenants.publish(t, self.tenant_load(t));
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
    /// the `Σ grants ≤ global` admission invariant, summed over the running
    /// tickets' bounded grants.  A grant is the budget its run plans under,
    /// after a budget hint or a tenant's byte headroom tightened it.
    /// Exposed so robustness tests can assert the invariant across
    /// cancellations and panics.
    pub fn committed_bytes(&self) -> usize {
        let bounded = self.running().filter(|r| r.grant.budget.is_bounded());
        bounded.map(|r| r.grant.budget.limit_bytes()).sum()
    }

    /// The running tickets, in admission order.
    fn running(&self) -> impl Iterator<Item = &Running> + Clone {
        self.tickets.iter().filter_map(Ticket::running)
    }

    /// The tickets ahead of `at` in the table that are in its state.
    fn ahead(&self, at: usize) -> usize {
        let arm = std::mem::discriminant(&self.tickets[at].state);
        let same = |t: &&Ticket| std::mem::discriminant(&t.state) == arm;
        self.tickets.range(..at).filter(same).count()
    }

    /// The engine's observability handle — where metrics and trace
    /// snapshots are taken from.  Its registry holds every
    /// count the engine keeps; its trace ring exists only when
    /// [`ServeConfig::observability`] was set.
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

    /// Resident heap bytes of the warmed chunk scratch pooled for later
    /// queries ([`rdx_exec::ChunkScratch::resident_bytes`], summed).
    pub fn pooled_scratch_bytes(&self) -> usize {
        self.scratch_pool
            .iter()
            .map(rdx_exec::ChunkScratch::resident_bytes)
            .sum()
    }

    /// Tickets waiting for admission in the live queue, counted off the
    /// ticket table.  A ticket parked for retry backoff is not counted
    /// here, though its [`poll`](Self::poll) reports `Queued` (behind the
    /// live queue).
    pub fn queued(&self) -> usize {
        let queued = self.tickets.iter();
        queued.filter(|t| matches!(t.state, State::Queued)).count()
    }

    /// Tickets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.running().count()
    }

    /// `true` when nothing is queued, running, or parked for retry
    /// (finished outcomes may still be parked).
    pub fn is_idle(&self) -> bool {
        (self.tickets.iter()).all(|t| matches!(t.state, State::Finished(_)))
    }

    /// The tickets whose outcome (`Done` or `Rejected`) waits for the
    /// [`poll`](Self::poll) that takes it, in table order.  Reading the
    /// list takes nothing; a front end that delivers outcomes unasked
    /// (the `rdx-net` server) polls each ticket it lists.
    pub fn finished(&self) -> impl Iterator<Item = TicketId> + '_ {
        let finished = self.tickets.iter();
        finished
            .filter(|t| matches!(t.state, State::Finished(_)))
            .map(Ticket::id)
    }

    /// Cumulative counters over the engine's lifetime, read from its
    /// registry.
    pub fn stats(&self) -> EngineStats {
        let (c, cache) = (&self.counters, self.cache.stats());
        EngineStats {
            peak_concurrent_bytes: self.peak_concurrent_bytes,
            peak_concurrency: self.peak_concurrency,
            chunks_dispatched: c.chunks_dispatched.get(),
            scratch_reuses: c.scratch_reuses.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            admissions: c.admissions.get(),
            rejections: c.rejections.get(),
            replans: c.replans.get(),
            budget_rejects: c.budget_rejects.get(),
            deadline_rejects: c.deadline_rejects.get(),
            cancellations: c.cancellations.get(),
            worker_panics: c.worker_panics.get(),
            retries: c.retries.get(),
            tenant_quota_rejects: c.tenant_quota_rejects.get(),
        }
    }

    /// Starts building a query over the registered pair
    /// `(larger, smaller)`, projecting one column from each side until
    /// [`Query::project`] says otherwise.
    pub fn query(&mut self, larger: RelationId, smaller: RelationId) -> Query<'_> {
        Query::new(self, larger, smaller)
    }

    /// Submits a query, returning its ticket **without blocking**: the call
    /// never runs a chunk, so it is safe between chunk steps of any
    /// in-flight query.  Validation failures park a `Rejected` outcome
    /// immediately (an invalid request never occupies a queue slot).
    pub fn submit(&mut self, request: ServerRequest) -> TicketId {
        let query = QueryId::next();
        self.obs.record(query, EventKind::Submit);
        if let Some(t) = request.tenant {
            self.obs
                .record(query, EventKind::Tenant { tenant: t.raw() });
        }
        self.tickets.push_back(Ticket {
            query,
            request,
            submitted_at: Instant::now(),
            ordinal: self.next_ordinal,
            attempt: 0,
            state: State::Queued,
        });
        self.next_ordinal += 1;
        if let Err(e) = validate(&self.catalog, &request) {
            self.reject(self.tickets.len() - 1, e);
        }
        self.settle();
        TicketId(query.raw())
    }

    /// Puts the ticket at `at` into `state`, moving it to the back of the
    /// table when it enters `Queued` or `Parked` — the one place a ticket
    /// changes state.  Hands back the run it left, if any, with its
    /// tenant's gauges republished: dropping the run drops its scratch,
    /// [`QueryEngine::harvest`] pools it.
    fn enter(&mut self, at: usize, state: State) -> Option<Box<Running>> {
        let queues = matches!(state, State::Queued | State::Parked { .. });
        let left = std::mem::replace(&mut self.tickets[at].state, state);
        if let Some(ticket) = queues.then(|| self.tickets.remove(at)).flatten() {
            self.tickets.push_back(ticket);
        }
        let State::Running(run) = left else {
            return None;
        };
        self.publish_tenant(run.grant.tenant);
        Some(run)
    }

    /// Pools a run's warmed chunk scratch, consistent between chunks, for
    /// a later query.  A panicked run is never harvested.
    fn harvest(&mut self, run: Option<Box<Running>>) {
        if let Some(mut r) = run.filter(|_| self.scratch_pool.len() < self.config.max_concurrent) {
            self.scratch_pool.push(r.run.take_scratch());
        }
    }

    /// Refuses the ticket at `at`, which never ran: counts the refusal (per
    /// reason), records its trace event and parks the typed error.
    fn reject(&mut self, at: usize, e: RdxError) {
        self.counters.rejections.inc();
        match &e {
            RdxError::Budget(_) => self.counters.budget_rejects.inc(),
            RdxError::Deadline(_) => self.counters.deadline_rejects.inc(),
            RdxError::TenantQuota { tenant, .. } => {
                self.counters.tenant_quota_rejects.inc();
                self.tenants.count_reject(TenantId(*tenant));
            }
            _ => {}
        }
        self.obs.record(
            self.tickets[at].query,
            EventKind::Reject {
                reason: reject_reason(&e),
            },
        );
        self.enter(at, State::Finished(Err(e)));
    }

    /// Tears the ticket at `at` off the engine before completion: records
    /// its `Cancel` event, counts the cancellation, parks `e` and hands
    /// back the run it left.
    fn cancelled(&mut self, at: usize, reason: &'static str, e: RdxError) -> Option<Box<Running>> {
        self.obs
            .record(self.tickets[at].query, EventKind::Cancel { reason });
        self.counters.cancellations.inc();
        self.enter(at, State::Finished(Err(e)))
    }

    /// Where `ticket` is in its state machine, without blocking.  The poll
    /// that observes `Done` or `Rejected` takes the parked outcome, so each
    /// outcome is delivered exactly once; a later poll, like a poll of a
    /// ticket this engine never issued, reports
    /// [`RdxError::UnknownTicket`].
    pub fn poll(&mut self, ticket: TicketId) -> TicketPoll {
        let unknown = RdxError::UnknownTicket { ticket: ticket.0 };
        let Some(at) = self.tickets.iter().position(|t| t.id() == ticket) else {
            return TicketPoll::Rejected(unknown);
        };
        let position = match &mut self.tickets[at].state {
            State::Queued => self.ahead(at),
            // Parked retries re-enter behind the live queue.
            State::Parked { .. } => self.queued() + self.ahead(at),
            State::Running(r) => {
                let s = r.run.run_stats();
                return TicketPoll::Running {
                    chunks: s.chunks_emitted,
                    rows: s.rows_emitted,
                };
            }
            State::Finished(outcome) => {
                let outcome = std::mem::replace(outcome, Err(unknown));
                self.tickets.remove(at);
                self.settle();
                return outcome.map_or_else(TicketPoll::Rejected, TicketPoll::Done);
            }
        };
        TicketPoll::Queued { position }
    }

    /// Pumps the engine by one scheduler decision: re-queue retries whose
    /// backoff expired, admit from the queue head while budget and
    /// concurrency slots allow, enforce deadlines at the chunk boundary,
    /// then run **one column chunk of one query**, the one with the least
    /// predicted work left unless another has waited out the starvation
    /// bound.
    /// Returns what happened; [`EngineStep::Idle`] means the engine is
    /// drained, [`EngineStep::Waiting`] means pending work could not run
    /// *this* step (retry backoff, or budget freed mid-step) — keep
    /// stepping.
    pub fn step(&mut self) -> EngineStep {
        let step = self.advance();
        self.settle();
        step
    }

    /// [`QueryEngine::step`]'s body.
    fn advance(&mut self) -> EngineStep {
        self.step_count += 1;
        self.requeue_ready_retries();
        self.admit_from_queue();
        self.peak_concurrency = self.peak_concurrency.max(self.in_flight());
        let concurrent_bytes: usize = self
            .running()
            .map(|r| r.run.streaming().max_working_set_bytes())
            .sum();
        self.peak_concurrent_bytes = self.peak_concurrent_bytes.max(concurrent_bytes);
        if self.config.global_budget.is_bounded() {
            debug_assert!(concurrent_bytes <= self.config.global_budget.limit_bytes());
        }

        // Deadlines are enforced at chunk boundaries: any run whose
        // consumed service time passed its deadline is torn down (grant
        // reclaimed) before the next chunk is dispatched.
        self.enforce_deadlines();

        // One column chunk of one query: every step with a running query
        // dispatches one, so steps count each run's wait.
        let now = self.step_count;
        let keys = self.running().map(|r| (r.work_left(), r.waiting_since));
        let picked = scheduler::dispatch(now, keys).and_then(|pos| {
            let running = self.tickets.iter_mut().enumerate();
            (running.filter_map(|(at, t)| match &mut t.state {
                State::Running(r) => Some((at, t.query, t.ordinal, r)),
                _ => None,
            }))
            .nth(pos)
        });
        let Some((at, query, ordinal, picked)) = picked else {
            // A teardown this step freed budget the queue head will claim
            // next step, or retries are waiting out backoff.
            return if self.is_idle() {
                EngineStep::Idle
            } else {
                EngineStep::Waiting
            };
        };
        picked.max_wait = picked.max_wait.max(now - picked.waiting_since);
        picked.waiting_since = now + 1;
        let ticket = TicketId(query.raw());
        // Faults are scripted per row chunk: they fire at the first column
        // chunk dispatched with that many row chunks' worth done.
        let chunk_index = picked.run.run_stats().chunks_emitted;
        // Scripted worker panic?  Raised *inside* the catch below with the
        // exact payload a real crashed worker produces, so the injected
        // path and the real path are one recovery path.
        let injected_panic = self.faults.panic_at(ordinal, chunk_index);
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(worker) = injected_panic {
                std::panic::panic_any(rdx_exec::WorkerPanic { worker });
            }
            match &mut picked.sink {
                TicketSink::Columns(sink) => picked.run.step(sink),
                TicketSink::Frame(sink) => picked.run.step(sink),
            }
        }));
        match stepped {
            Ok(Some(rows)) => {
                let slow_ns = self.faults.slowdown_ns(ordinal, chunk_index);
                picked.slowed_ns = picked.slowed_ns.saturating_add(slow_ns);
                self.counters.chunks_dispatched.inc();
                EngineStep::Chunk { ticket, rows }
            }
            Ok(None) => {
                let served = picked.retire(query, &self.obs, &self.counters);
                let run = self.enter(at, State::Finished(Ok(served)));
                self.harvest(run);
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
                self.counters.worker_panics.inc();
                if self.retry(at) {
                    let reason = "worker_panic";
                    self.obs.record(query, EventKind::Cancel { reason });
                    EngineStep::Waiting
                } else {
                    self.cancelled(at, "worker_panic", RdxError::WorkerPanicked { worker });
                    EngineStep::Finished { ticket }
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
    /// harvested back into the pool first).  Returns `true` when the
    /// ticket was live: its next [`QueryEngine::poll`] is
    /// `Rejected(Cancelled)`.  Returns `false` for tickets that are already
    /// finished or were never issued — their outcome (if any) is untouched.
    pub fn cancel(&mut self, ticket: TicketId) -> bool {
        let at = self.tickets.iter().position(|t| t.id() == ticket);
        let Some(at) = at.filter(|&at| !matches!(self.tickets[at].state, State::Finished(_)))
        else {
            return false;
        };
        let run = self.cancelled(at, "user", RdxError::Cancelled);
        self.harvest(run);
        self.settle();
        true
    }

    /// Tears down every running query whose consumed service time passed
    /// its deadline, parking [`DeadlineError::Exceeded`] and reclaiming
    /// the grant.  Runs at chunk boundaries only (the engine never
    /// preempts inside a chunk).  Deadline teardowns are never retried: an
    /// expired clock cannot be cured by waiting.
    fn enforce_deadlines(&mut self) {
        for at in 0..self.tickets.len() {
            let t = &self.tickets[at];
            let Some(r) = t.running() else {
                continue;
            };
            let chunk_loop = r.run.run_stats().timings.total().as_nanos() as u64;
            let consumed_ns = chunk_loop.saturating_add(r.slowed_ns);
            let deadline = t.request.deadline_ns;
            let Some(deadline_ns) = deadline.filter(|&d| consumed_ns > d) else {
                continue;
            };
            self.obs.record(
                t.query,
                EventKind::DeadlineMiss {
                    deadline_ns,
                    consumed_ns,
                },
            );
            let e = RdxError::Deadline(DeadlineError::Exceeded {
                consumed_ns,
                deadline_ns,
            });
            let run = self.cancelled(at, "deadline", e);
            self.harvest(run);
        }
    }

    /// Parks the refused or panicked ticket at `at` for a retry when its
    /// policy has attempts left: charges one attempt and parks it for the
    /// policy's exponential backoff, measured in engine steps (a panicked
    /// run is dropped).  `false` when the failure is final.
    fn retry(&mut self, at: usize) -> bool {
        let t = &mut self.tickets[at];
        let Some(policy) = t.request.retry.filter(|p| t.attempt < p.max_retries) else {
            return false;
        };
        self.counters.retries.inc();
        t.attempt += 1;
        t.submitted_at = Instant::now();
        let until = (self.step_count).saturating_add(policy.delay_before(t.attempt));
        self.enter(at, State::Parked { until });
        true
    }

    /// Moves retries whose backoff expired back to the live queue, in park
    /// order (deterministic).
    fn requeue_ready_retries(&mut self) {
        let mut at = 0;
        for _ in 0..self.tickets.len() {
            match self.tickets[at].state {
                State::Parked { until } if until <= self.step_count => {
                    self.enter(at, State::Queued);
                }
                _ => at += 1,
            }
        }
    }

    /// Starts an admitted query under `budget`: chooses the projection
    /// codes (cost-based at the shared cache share unless the request pinned
    /// them), rejects a deadline the price of those codes cannot meet,
    /// resolves the prepared prefix through the clustered-index cache,
    /// rejects a frame-form result its transport would refuse, warms the run
    /// from the scratch pool, and prices its per-chunk cost for the
    /// scheduler.
    fn resolve_with(
        &mut self,
        request: &ServerRequest,
        budget: MemoryBudget,
        query: QueryId,
        wait: Duration,
        ordinal: usize,
    ) -> Result<(Run, QueryStats, [f64; 2]), RdxError> {
        let (larger, smaller) = relations(&self.catalog, request)?;
        let threads = request
            .threads_hint
            .unwrap_or(self.config.threads_per_query);
        let policy = ExecPolicy::with_threads(threads).budget(budget);
        let workers = policy.threads;
        let shared_params = &self.shared_params;
        let plan = request.codes.unwrap_or_else(|| {
            plan_by_cost_with_threads(&larger, &smaller, &request.spec, shared_params, workers)
        });
        // One price for the plan the run executes: the deadline check, the
        // scheduler's work-left key and the chunk loop's observed-vs-predicted
        // recording all read `predict_cost` of these codes at this query's
        // granted share and resolved thread count.
        let (larger_rows, smaller_rows) = (larger.cardinality(), smaller.cardinality());
        let price = |streaming: &StreamingPlan, result_rows: usize| {
            let price = predict_cost(
                plan,
                streaming,
                larger_rows,
                smaller_rows,
                result_rows,
                shared_params,
            );
            let ms = price.total(&request.spec);
            let ns = if ms.is_finite() {
                (ms * 1e6).max(0.0) as u64
            } else {
                u64::MAX
            };
            (ns, price)
        };
        // Deadline-aware admission: price the whole run before spending
        // anything on it.  An infeasible deadline is rejected here — the
        // query never runs a chunk, and its grant is released by the caller
        // like any admission failure.  The result cardinality is not known
        // pre-join, so the larger side's cardinality bounds it from above
        // (equi-join on a key): the check is conservative, never
        // optimistic, and a non-finite price can only ever reject.
        if let Some(deadline_ns) = request.deadline_ns {
            let streaming = plan_streaming(
                larger_rows,
                smaller_rows,
                &request.spec,
                shared_params,
                budget,
                workers,
            );
            let (predicted_ns, _) = price(&streaming, larger_rows);
            if predicted_ns > deadline_ns {
                return Err(RdxError::Deadline(DeadlineError::Infeasible {
                    predicted_ns,
                    deadline_ns,
                }));
            }
        }
        // Derived by the same function the prepared prefix itself uses, so
        // the cache key can never drift from what it names.
        let cluster = rdx_exec::cluster_spec_for(smaller.cardinality(), shared_params);
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
        let (prepared, cache_hit) = self.cache.get_or_prepare(key, || {
            pipeline.prepare(&larger, &smaller, shared_params, &policy)
        });
        // The join fixed the result's size: a frame its reader would
        // refuse is refused here, before the ticket counts as admitted and
        // before a chunk runs.
        if let ResultForm::Frame { max_payload } = request.form {
            let bytes = DoneHead::payload_len(prepared.result_rows(), request.spec.total());
            if bytes > max_payload {
                return Err(RdxError::ResultTooLarge {
                    bytes,
                    max: max_payload,
                });
            }
        }
        let queue_wait_ns = wait.as_nanos() as u64;
        self.counters.admissions.inc();
        self.counters.queue_wait_ns.record(queue_wait_ns);
        self.obs.record(
            query,
            EventKind::Admit {
                share_bytes: budget.limit_bytes(),
                queue_wait_ns,
            },
        );
        self.obs
            .record(query, EventKind::CacheLookup { hit: cache_hit });
        let mut run = PipelineRun::new(
            prepared,
            larger,
            smaller.clone(),
            &request.spec,
            shared_params,
            &policy,
        );
        // The work-left key, its deadline urgency and the observed-vs-
        // predicted recording read the run's own price per row chunk.  A
        // step writes one column of it and is charged its side's share: a
        // first-side column chunk is a gather, a second-side one under `d`
        // also declusters.
        let streaming = run.streaming();
        let (run_ns, split) = price(streaming, run.prepared().result_rows());
        let predicted_chunk_ns = run_ns / streaming.num_chunks.max(1) as u64;
        let predicted_chunk_cost_ms = predicted_chunk_ns as f64 / 1e6;
        let spec = request.spec;
        let row_chunk = spec.project_larger as f64 * split.first_column
            + spec.project_smaller as f64 * split.second_column;
        let even = 1.0 / run.columns() as f64;
        let column_ns = [split.first_column, split.second_column].map(|column| {
            let share = Some(column / row_chunk).filter(|s| s.is_finite());
            (predicted_chunk_ns as f64 * share.unwrap_or(even)) as u64
        });
        run.attach_obs(&self.obs, query, column_ns);
        if request.profiled {
            run.attach_profile(&self.obs, query, shared_params);
        }
        // Warm start: hand down scratch harvested from an earlier query.
        let mut scratch_reused = false;
        if let Some(scratch) = self.scratch_pool.pop() {
            run.attach_scratch(scratch);
            scratch_reused = true;
            self.counters.scratch_reuses.inc();
        }
        let stats = QueryStats {
            query_id: query.raw(),
            plan,
            cache_hit,
            scratch_reused,
            share_bytes: budget.limit_bytes(),
            replanned: false,
            chunks: 0,
            rows: 0,
            peak_chunk_bytes: 0,
            predicted_chunk_cost_ms,
            timings: PhaseTimings::default(),
            wait,
            service: Duration::ZERO,
        };
        Ok((run, stats, column_ns.map(|ns| ns as f64 / 1e6)))
    }

    /// Admits from the queue head while budget and slots allow (FIFO —
    /// admission never skips the head, so arrival order bounds waiting),
    /// asking [`crate::admission`] once per queue head.
    fn admit_from_queue(&mut self) {
        let mut at = 0;
        while let Some(head) =
            (at..self.tickets.len()).find(|&i| matches!(self.tickets[i].state, State::Queued))
        {
            at = head;
            let (request, ordinal) = (self.tickets[at].request, self.tickets[at].ordinal);
            let tenant = (request.tenant).map(|t| (t, self.tenants.quota(t), self.tenant_load(t)));
            let admission = admission::admit(
                self.config.global_budget,
                self.config.max_concurrent,
                (self.in_flight(), self.committed_bytes()),
                streaming_bytes_per_row(&request.spec),
                request.budget_hint,
                tenant,
            );
            // A tenant refusal comes first, so an over-quota tenant sheds
            // at its own cap.  A scripted grant denial then rides the
            // ordinary budget-refusal path.  Both are transient (a release
            // cures them), so retry policies apply.
            let refusal = match admission {
                Admission::Refuse(e @ RdxError::TenantQuota { .. }) => e,
                _ if self.faults.deny_grant(ordinal) => RdxError::Budget(BudgetError::ZeroBytes),
                Admission::Queue => break,
                Admission::Refuse(e) => e,
                Admission::Grant(grant) => {
                    self.admit(at, grant);
                    continue;
                }
            };
            if !self.retry(at) {
                self.reject(at, refusal);
            }
        }
    }

    /// Starts the admitted ticket at `at` under its `grant`: entering
    /// `Running` is what charges the grant to the global budget and the
    /// tenant and keys its dispatch; a start failure parks the typed error
    /// and has held nothing.
    fn admit(&mut self, at: usize, grant: Grant) {
        let t = &self.tickets[at];
        let (request, query, ordinal) = (t.request, t.query, t.ordinal);
        let wait = t.submitted_at.elapsed();
        if let Some((t, _)) = grant.tenant {
            self.tenants.count_admit(t);
        }
        match self.resolve_with(&request, grant.budget, query, wait, ordinal) {
            Ok((run, mut stats, column_ms)) => {
                stats.replanned = grant.replanned;
                if grant.replanned {
                    self.counters.replans.inc();
                }
                let urgency = deadline_urgency(&request, &stats, &run);
                let step_work = column_ms.map(|ms| ms * urgency);
                let running = Running {
                    run,
                    stats,
                    started: Instant::now(),
                    sink: match request.form {
                        ResultForm::Columns => TicketSink::Columns(MaterializeSink::new()),
                        ResultForm::Frame { .. } => TicketSink::Frame(FrameSink::new()),
                    },
                    grant,
                    slowed_ns: 0,
                    step_work,
                    waiting_since: self.step_count,
                    max_wait: 0,
                };
                self.enter(at, State::Running(Box::new(running)));
                self.publish_tenant(grant.tenant);
            }
            Err(e) => self.reject(at, e),
        }
    }

    /// Ends every public transition: publishes the `engine.in_flight` and
    /// `engine.queued` gauges and, in debug builds, asserts the engine's
    /// invariants.  Grants, tenant charges and keys exist only on running
    /// tickets, and each ticket holds one state, so no second count can
    /// drift and no ticket can be in two states; what is left to check is
    /// what the running tickets must satisfy: under a bounded budget their
    /// grants sum to at most the global budget, and at most
    /// `max_concurrent` of them run.
    fn settle(&self) {
        let in_flight = self.in_flight();
        self.counters.in_flight.set(in_flight as i64);
        self.counters.queued.set(self.queued() as i64);
        let global = self.config.global_budget;
        debug_assert!(
            !global.is_bounded() || self.committed_bytes() <= global.limit_bytes(),
            "Σ grants above the global budget"
        );
        let slots = self.config.max_concurrent;
        debug_assert!(in_flight <= slots, "more than {slots} running");
    }
}

/// The EDF-flavored weight on an admitted query's work left: deadline
/// slack scales it down (an urgent query looks closer to done, so it wins
/// dispatches) and priority divides it.  `1.0` for the default request.
///
/// Slack is measured against the *resolved* plan: predicted per-chunk cost
/// × planned chunk count, floored at 1/16.  Urgency only reorders the
/// key: what bounds any run's wait is
/// [`scheduler::STARVATION_BOUND`].
fn deadline_urgency(request: &ServerRequest, stats: &QueryStats, run: &Run) -> f64 {
    let priority = f64::from(request.priority.max(1));
    let slack_factor = match request.deadline_ns {
        Some(deadline_ns) => {
            let chunk_ns = (stats.predicted_chunk_cost_ms * 1e6).max(0.0) as u64;
            let total_ns = chunk_ns.saturating_mul(run.streaming().num_chunks as u64);
            let slack = deadline_ns.saturating_sub(total_ns);
            ((slack as f64 + 1.0) / (deadline_ns as f64 + 1.0)).clamp(1.0 / 16.0, 1.0)
        }
        None => 1.0,
    };
    slack_factor / priority
}

/// The pair `request` names, or [`RdxError::UnknownRelation`] for the
/// first id the catalog does not hold.
fn relations(
    catalog: &Catalog,
    request: &ServerRequest,
) -> Result<(Arc<DsmRelation>, Arc<DsmRelation>), RdxError> {
    let get =
        |id: RelationId| (catalog.get_arc(id)).ok_or(RdxError::UnknownRelation { id: id.raw() });
    Ok((get(request.larger)?, get(request.smaller)?))
}

/// Request validation at submit, in workspace-wide error terms: the pair
/// is registered, each side has the columns projected, and a budget hint
/// holds one resident row (below that floor it can never run).
fn validate(catalog: &Catalog, request: &ServerRequest) -> Result<(), RdxError> {
    let (larger, smaller) = relations(catalog, request)?;
    check_projection_widths(
        request.spec.project_larger,
        larger.width(),
        request.spec.project_smaller,
        smaller.width(),
    )?;
    let hint = request.budget_hint.unwrap_or(MemoryBudget::unbounded());
    let floor = hint.check_one_row(streaming_bytes_per_row(&request.spec));
    floor.map_err(RdxError::Budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_core::budget::BudgetError;
    use rdx_core::fault::RetryPolicy;
    use rdx_core::strategy::{DsmPostProjection, QuerySpec};
    use rdx_dsm::ResultRelation;
    use rdx_workload::JoinWorkloadBuilder;

    fn config(budget: MemoryBudget) -> ServeConfig {
        ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: budget,
            max_concurrent: 2,
            threads_per_query: 1,
            cache_bytes: 1 << 20,
            plan_shares: None,
            observability: false,
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
            .map(|t| served(engine.poll(t)))
            .collect()
    }

    /// A columns ticket's served result.
    fn served(poll: TicketPoll) -> QueryResult {
        match poll {
            TicketPoll::Done(Served::Columns(result)) => result,
            other => panic!("expected served columns, got {other:?}"),
        }
    }

    /// A rejected ticket's error.
    fn rejected(poll: TicketPoll) -> RdxError {
        match poll {
            TicketPoll::Rejected(e) => e,
            other => panic!("expected a rejection, got {other:?}"),
        }
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
        assert!(matches!(
            engine.poll(ticket),
            TicketPoll::Queued { position: 0 }
        ));
        // First step admits and runs one column chunk; the second column's
        // makes one row chunk's worth of progress.
        for _ in 0..spec.total() {
            assert!(matches!(
                engine.step(),
                EngineStep::Chunk { ticket: t, rows } if t == ticket && rows > 0
            ));
        }
        assert!(matches!(
            engine.poll(ticket),
            TicketPoll::Running { chunks: 1, .. }
        ));
        while engine.step() != EngineStep::Idle {}
        let q = served(engine.poll(ticket));
        assert_eq!(q.stats.rows, w.expected_matches);
        assert!(q.stats.chunks > 1);
        // Taken exactly once.
        assert_eq!(
            rejected(engine.poll(ticket)),
            RdxError::UnknownTicket { ticket: ticket.0 }
        );
    }

    /// `Queued { position }` counts the live-queued tickets ahead; a
    /// ticket parked for retry backoff counts behind the live queue, in
    /// park order, and re-enters behind every ticket queued meanwhile.
    #[test]
    fn queued_positions_count_the_live_queue_ahead_and_a_retry_reenters_behind_it() {
        let w = JoinWorkloadBuilder::equal(1_500, 1).seed(3).build();
        let mut engine = QueryEngine::new(ServeConfig {
            max_concurrent: 1,
            ..config(MemoryBudget::bytes(64))
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(1));
        let position = |engine: &mut QueryEngine, ticket| match engine.poll(ticket) {
            TicketPoll::Queued { position } => position,
            other => panic!("{ticket} is not queued: {other:?}"),
        };
        // A long run holds the one slot throughout.
        engine.inject_faults(FaultPlan::new().deny_grant(1));
        let long = engine.submit(request);
        assert!(matches!(engine.step(), EngineStep::Chunk { ticket, .. } if ticket == long));
        let denied = engine.submit(ServerRequest {
            retry: Some(RetryPolicy::with_retries(1)),
            ..request
        });
        let (middle, last) = (engine.submit(request), engine.submit(request));
        let queued = [denied, middle, last].map(|t| position(&mut engine, t));
        assert_eq!(queued, [0, 1, 2]);
        assert!(engine.cancel(middle));
        assert_eq!(position(&mut engine, last), 1);
        // The denied queue head parks; the live queue moves up past it.
        assert!(matches!(engine.step(), EngineStep::Chunk { ticket, .. } if ticket == long));
        assert_eq!(engine.stats().retries, 1);
        assert_eq!(engine.queued(), 1);
        assert_eq!(position(&mut engine, last), 0);
        assert_eq!(position(&mut engine, denied), engine.queued());
        // Submitted while it was parked, so it stands ahead once it
        // re-enters the live queue.
        let newcomer = engine.submit(request);
        assert_eq!(position(&mut engine, newcomer), 1);
        assert_eq!(position(&mut engine, denied), engine.queued());
        assert!(matches!(engine.step(), EngineStep::Chunk { ticket, .. } if ticket == long));
        assert_eq!(engine.queued(), 3);
        let order = [last, newcomer, denied].map(|t| position(&mut engine, t));
        assert_eq!(order, [0, 1, 2]);
        while engine.step() != EngineStep::Idle {}
        for ticket in [long, denied, last, newcomer] {
            assert_eq!(served(engine.poll(ticket)).stats.rows, w.expected_matches);
        }
    }

    #[test]
    fn each_outcome_is_delivered_to_exactly_one_poll() {
        let w = JoinWorkloadBuilder::equal(600, 1).seed(9).build();
        let mut engine = engine(MemoryBudget::bytes(4 * 1024));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(1));
        let columns = engine.submit(request);
        let frame = engine.submit(ServerRequest {
            form: ResultForm::Frame {
                max_payload: 1 << 20,
            },
            ..request
        });
        let invalid = engine.submit(ServerRequest::new(larger, smaller, QuerySpec::symmetric(9)));
        while engine.step() != EngineStep::Idle {}
        assert_eq!(served(engine.poll(columns)).stats.rows, w.expected_matches);
        match engine.poll(frame) {
            TicketPoll::Done(Served::Frame {
                frame: bytes,
                stats,
            }) => {
                assert_eq!(stats.rows, w.expected_matches);
                let payload = &bytes[DoneHead::FRAME_HEADER_LEN..];
                let (head, _) = DoneHead::read(payload).expect("a Done head");
                assert_eq!((head.ticket, head.rows), (frame.0, stats.rows as u64));
            }
            other => panic!("expected a served frame, got {other:?}"),
        }
        assert!(matches!(
            rejected(engine.poll(invalid)),
            RdxError::TooManyColumns { .. }
        ));
        for ticket in [columns, frame, invalid] {
            assert_eq!(
                rejected(engine.poll(ticket)),
                RdxError::UnknownTicket { ticket: ticket.0 }
            );
        }
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
        assert!(matches!(engine.poll(a), TicketPoll::Running { .. }));
        while engine.step() != EngineStep::Idle {}
        let ra = served(engine.poll(a));
        let rb = served(engine.poll(b));
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
            let (solo, _) = ProjectionPipeline::new(q.stats.plan)
                .materialize(
                    &w.larger,
                    &w.smaller,
                    &spec,
                    engine.shared_params(),
                    &ExecPolicy::with_threads(1),
                )
                .unwrap();
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
        let request = ServerRequest {
            codes: Some(pinned),
            threads_hint: Some(2),
            budget_hint: Some(MemoryBudget::bytes(256)),
            ..ServerRequest::new(larger, smaller, spec)
        };
        let q = serve_all(&mut engine, &[request]).remove(0);
        assert_eq!(q.stats.plan, pinned);
        // The hint tightened the share below the fair split.
        assert_eq!(q.stats.share_bytes, 256);
        assert!(q.stats.chunks > 1);
        let (solo, _) = ProjectionPipeline::new(pinned)
            .materialize(
                &w.larger,
                &w.smaller,
                &spec,
                engine.shared_params(),
                &ExecPolicy::with_threads(1),
            )
            .unwrap();
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
        assert_eq!(
            rejected(engine.poll(ghost)),
            RdxError::UnknownRelation { id: 99 }
        );
        let wide = engine.submit(ServerRequest::new(larger, smaller, QuerySpec::symmetric(9)));
        assert!(matches!(
            rejected(engine.poll(wide)),
            RdxError::TooManyColumns { .. }
        ));
        // A hint below the one-row floor fails at admission time, without
        // blocking the valid query queued behind it.
        let starved = engine
            .query(larger, smaller)
            .budget(MemoryBudget::bytes(1))
            .submit();
        let valid = engine.submit(ServerRequest::new(larger, smaller, QuerySpec::symmetric(1)));
        while engine.step() != EngineStep::Idle {}
        assert!(matches!(
            rejected(engine.poll(starved)),
            RdxError::Budget(BudgetError::BelowOneRow { .. })
        ));
        let served = served(engine.poll(valid));
        assert_eq!(served.stats.rows, w.expected_matches);
        // Unknown tickets report a typed error, not a panic.  (u64::MAX is
        // never issued: the process-wide query ids count up from one.)
        assert_eq!(
            rejected(engine.poll(TicketId(u64::MAX))),
            RdxError::UnknownTicket { ticket: u64::MAX }
        );
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
        assert_eq!(rejected(engine.poll(queued)), RdxError::Cancelled);
        assert_eq!(engine.committed_bytes(), 0);

        // Cancel mid-flight: the grant comes back at the chunk boundary.
        let running = engine.submit(request);
        for _ in 0..3 {
            assert!(matches!(engine.step(), EngineStep::Chunk { .. }));
        }
        assert!(engine.committed_bytes() > 0);
        assert!(engine.cancel(running));
        assert_eq!(engine.committed_bytes(), 0);
        assert_eq!(rejected(engine.poll(running)), RdxError::Cancelled);
        // Exactly one terminal observation; cancelling again is a no-op.
        assert!(matches!(
            rejected(engine.poll(running)),
            RdxError::UnknownTicket { .. }
        ));
        assert!(!engine.cancel(running));
        assert_eq!(engine.stats().cancellations, 2);
        assert_eq!(engine.step(), EngineStep::Idle);

        // A survivor submitted afterwards is unaffected.
        let survivor = engine.submit(request);
        while engine.step() != EngineStep::Idle {}
        let q = served(engine.poll(survivor));
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
        let doomed = engine
            .query(larger, smaller)
            .project(spec)
            .deadline(1)
            .submit();
        while engine.step() != EngineStep::Idle {}
        match rejected(engine.poll(doomed)) {
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
        let fine = (engine.query(larger, smaller).project(spec))
            .deadline(u64::MAX)
            .submit();
        while engine.step() != EngineStep::Idle {}
        let q = served(engine.poll(fine));
        assert_eq!(q.stats.rows, w.expected_matches);
    }

    /// The one-price fixture: a 20 000-row pair of width 2 on the paper's
    /// platform at a quarter share of its cache (as the benchmark plans),
    /// and a request for it at π = 2 capped at `hint_bytes`.
    fn pricing_fixture(hint_bytes: usize) -> (QueryEngine, ServerRequest, usize) {
        let rows = 20_000;
        let w = JoinWorkloadBuilder::equal(rows, 2).seed(43).build();
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::paper_pentium4(),
            max_concurrent: 4,
            ..config(MemoryBudget::bytes(16 << 20))
        });
        let larger = engine.register(w.larger);
        let smaller = engine.register(w.smaller);
        let request = ServerRequest {
            budget_hint: Some(MemoryBudget::bytes(hint_bytes)),
            ..ServerRequest::new(larger, smaller, QuerySpec::symmetric(2))
        };
        (engine, request, rows)
    }

    /// `predict_cost` of `codes` for the fixture's pair, streamed over
    /// `result_rows` rows under `budget` on one worker, in nanoseconds,
    /// with the plan it priced.
    fn fixture_price(
        engine: &QueryEngine,
        codes: DsmPostProjection,
        rows: usize,
        result_rows: usize,
        budget: MemoryBudget,
    ) -> (u64, StreamingPlan) {
        let spec = QuerySpec::symmetric(2);
        let params = engine.shared_params();
        let plan = plan_streaming(result_rows, rows, &spec, params, budget, 1);
        let ms = predict_cost(codes, &plan, rows, rows, result_rows, params).total(&spec);
        ((ms * 1e6) as u64, plan)
    }

    #[test]
    fn a_run_is_priced_by_its_own_codes() {
        use rdx_core::strategy::{ProjectionCode as F, SecondSideCode as S};
        // Four chunks of 5 000 rows.
        let (mut engine, request, rows) = pricing_fixture(100_000);
        let pinned = [
            DsmPostProjection::with_codes(F::Unsorted, S::Unsorted),
            DsmPostProjection::with_codes(F::PartialCluster, S::Decluster),
            DsmPostProjection::with_codes(F::Sorted, S::Unsorted),
        ];
        let requests = pinned.map(|codes| ServerRequest {
            codes: Some(codes),
            ..request
        });
        let served = serve_all(&mut engine, &requests);
        let mut prices = Vec::new();
        for (codes, q) in pinned.into_iter().zip(&served) {
            assert_eq!(q.stats.plan, codes);
            let budget = MemoryBudget::bytes(q.stats.share_bytes);
            let (total_ns, plan) = fixture_price(&engine, codes, rows, q.stats.rows, budget);
            assert_eq!(plan.num_chunks, q.stats.chunks);
            assert!(q.stats.chunks > 1);
            let chunk_ms = (total_ns / plan.num_chunks as u64) as f64 / 1e6;
            assert_eq!(q.stats.predicted_chunk_cost_ms, chunk_ms, "{codes:?}");
            prices.push(q.stats.predicted_chunk_cost_ms);
        }
        // Three codes, three prices: the work-left dispatch key reads what
        // each run executes.
        assert!(prices[0] != prices[1] && prices[1] != prices[2] && prices[0] != prices[2]);
    }

    #[test]
    fn a_deadline_is_priced_by_the_pinned_codes() {
        use rdx_core::strategy::{ProjectionCode as F, SecondSideCode as S};
        let hint = 100_000;
        let (mut engine, request, rows) = pricing_fixture(hint);
        let pinned = [
            DsmPostProjection::with_codes(F::Unsorted, S::Unsorted),
            DsmPostProjection::with_codes(F::PartialCluster, S::Decluster),
        ];
        let mut verdicts = Vec::new();
        for codes in pinned {
            let ticket = engine.submit(ServerRequest {
                codes: Some(codes),
                deadline_ns: Some(1),
                ..request
            });
            while engine.step() != EngineStep::Idle {}
            let RdxError::Deadline(DeadlineError::Infeasible { predicted_ns, .. }) =
                rejected(engine.poll(ticket))
            else {
                panic!("{codes:?}: expected an infeasible deadline");
            };
            // Priced over the larger side's rows, the pre-join bound.
            let (expected, _) =
                fixture_price(&engine, codes, rows, rows, MemoryBudget::bytes(hint));
            assert_eq!(predicted_ns, expected, "{codes:?}");
            verdicts.push(predicted_ns);
        }
        assert_ne!(verdicts[0], verdicts[1]);
    }

    #[test]
    fn an_auto_thread_deadline_is_priced_at_the_resolved_count() {
        use rdx_core::strategy::{ProjectionCode as F, SecondSideCode as S};
        // One chunk, so the window is the thread share's, not the chunk's;
        // a `d` plan, so the window is priced.
        let (mut engine, request, _) = pricing_fixture(1 << 20);
        let request = ServerRequest {
            codes: Some(DsmPostProjection::with_codes(
                F::PartialCluster,
                S::Decluster,
            )),
            ..request
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut verdict = |threads: usize| {
            let ticket = engine.submit(ServerRequest {
                threads_hint: Some(threads),
                deadline_ns: Some(1),
                ..request
            });
            while engine.step() != EngineStep::Idle {}
            match rejected(engine.poll(ticket)) {
                RdxError::Deadline(e @ DeadlineError::Infeasible { .. }) => e,
                other => panic!("threads {threads}: expected infeasible, got {other:?}"),
            }
        };
        // 0 means auto: priced at the count the plan and the run use.
        assert_eq!(verdict(0), verdict(cores));
        if cores > 1 {
            assert_ne!(verdict(1), verdict(cores), "the count moves the price");
        }
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
        let ticket = engine
            .query(larger, smaller)
            .deadline(1_000_000_000)
            .submit();
        while engine.step() != EngineStep::Idle {}
        match rejected(engine.poll(ticket)) {
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

    /// A deadline is charged the clock the chunk loop already reads: a
    /// torn-down ticket's consumed time is exactly its observed column
    /// chunks plus the slowdown its fault plan injected.
    #[test]
    fn a_deadline_is_charged_the_observed_chunk_steps_and_the_injected_slowdowns() {
        let w = JoinWorkloadBuilder::equal(1_500, 1).seed(23).build();
        let mut engine = QueryEngine::new(ServeConfig {
            observability: true,
            ..config(MemoryBudget::bytes(64))
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let slow_ns = 1_000_000_000_000;
        engine.inject_faults(FaultPlan::new().slow_at(0, 2, slow_ns));
        let ticket = engine
            .query(larger, smaller)
            .deadline(1_000_000_000)
            .submit();
        while engine.step() != EngineStep::Idle {}
        let consumed_ns = match rejected(engine.poll(ticket)) {
            RdxError::Deadline(DeadlineError::Exceeded { consumed_ns, .. }) => consumed_ns,
            other => panic!("expected deadline-exceeded, got {other:?}"),
        };
        let trace = engine.obs().trace_snapshot().unwrap();
        let [query] = trace.queries()[..] else {
            panic!("one query traced");
        };
        let observed: Vec<u64> = trace
            .events_for(query)
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ChunkStep { observed_ns, .. } => Some(observed_ns),
                _ => None,
            })
            .collect();
        // Two columns per row chunk: the slowdown fired at row chunk 2's
        // first column chunk, and the run was torn down after it.
        assert_eq!(observed.len(), 5);
        assert_eq!(consumed_ns, observed.iter().sum::<u64>() + slow_ns);
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
            rejected(engine.poll(doomed)),
            RdxError::WorkerPanicked { worker: 3 }
        );
        assert_eq!(engine.committed_bytes(), 0);
        assert_eq!(engine.stats().worker_panics, 1);

        // With one, the re-run completes and matches a clean run exactly.
        engine.inject_faults(FaultPlan::new().panic_at(1, 1, 0));
        let retried = engine.submit(ServerRequest {
            retry: Some(RetryPolicy::with_retries(1)),
            ..request
        });
        let clean = engine.submit(request);
        while engine.step() != EngineStep::Idle {}
        let qr = served(engine.poll(retried));
        let qc = served(engine.poll(clean));
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
        let ticket = engine.submit(ServerRequest {
            retry: Some(RetryPolicy::with_retries(2)),
            ..request
        });
        let mut saw_waiting = false;
        loop {
            match engine.step() {
                EngineStep::Idle => break,
                EngineStep::Waiting => saw_waiting = true,
                _ => {}
            }
        }
        assert!(saw_waiting, "backoff steps surface as Waiting, not Idle");
        let q = served(engine.poll(ticket));
        assert_eq!(q.stats.rows, w.expected_matches);
        assert_eq!(engine.stats().retries, 2);
        assert_eq!(engine.stats().budget_rejects, 0, "retried, never rejected");

        // Exhausting the policy surfaces the budget error.
        engine.inject_faults(FaultPlan::new().deny_grant(1).deny_grant(1));
        let doomed = engine.submit(ServerRequest {
            retry: Some(RetryPolicy::with_retries(1)),
            ..request
        });
        while engine.step() != EngineStep::Idle {}
        assert!(matches!(
            rejected(engine.poll(doomed)),
            RdxError::Budget(BudgetError::ZeroBytes)
        ));
        assert_eq!(engine.stats().budget_rejects, 1);
    }

    /// A tenant refusal is decided before a scripted grant denial is
    /// probed: the over-cap ticket is shed by its quota, and the denial
    /// fires on its retry, once its tenant's slot is free.
    #[test]
    fn a_tenant_refusal_comes_before_a_denied_grant() {
        use crate::tenant::{TenantQuota, TenantQuotas};
        let w = JoinWorkloadBuilder::equal(800, 1).seed(53).build();
        let mut engine = QueryEngine::new(ServeConfig {
            tenant_quotas: TenantQuotas::unlimited()
                .with_tenant("solo", TenantQuota::unlimited().in_flight(1)),
            ..config(MemoryBudget::bytes(4 * 1024))
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let solo = engine.tenant_id("solo");
        let request = ServerRequest {
            tenant: Some(solo),
            ..ServerRequest::new(larger, smaller, QuerySpec::symmetric(1))
        };
        engine.inject_faults(FaultPlan::new().deny_grant(1));
        let first = engine.submit(request);
        let capped = engine.submit(ServerRequest {
            retry: Some(RetryPolicy::with_retries(1).backoff(10_000)),
            ..request
        });
        while engine.step() != EngineStep::Idle {}
        assert_eq!(served(engine.poll(first)).stats.rows, w.expected_matches);
        assert_eq!(
            rejected(engine.poll(capped)),
            RdxError::Budget(BudgetError::ZeroBytes)
        );
        let stats = engine.stats();
        assert_eq!((stats.retries, stats.budget_rejects), (1, 1));
        assert_eq!(stats.tenant_quota_rejects, 0, "retried, never shed");
    }

    /// A budget hint below the one-row floor can never run: it is refused
    /// at submit, before it holds a queue slot.
    #[test]
    fn a_hint_below_one_row_is_refused_at_submit() {
        let w = JoinWorkloadBuilder::equal(300, 1).seed(59).build();
        let mut engine = engine(MemoryBudget::bytes(4 * 1024));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(1);
        let ticket = (engine.query(larger, smaller).project(spec))
            .budget(MemoryBudget::bytes(1))
            .submit();
        assert!(matches!(
            rejected(engine.poll(ticket)),
            RdxError::Budget(BudgetError::BelowOneRow {
                budget_bytes: 1,
                ..
            })
        ));
        assert_eq!((engine.queued(), engine.stats().budget_rejects), (0, 1));
    }

    /// A running query holds one grant, the budget it plans under: a hint
    /// tightens what the global budget is charged, not only the plan.
    #[test]
    fn a_hinted_query_is_charged_its_hint() {
        let w = JoinWorkloadBuilder::equal(1_000, 1).seed(61).build();
        let mut engine = engine(MemoryBudget::bytes(4 * 1024));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(1);
        let ticket = (engine.query(larger, smaller).project(spec))
            .budget(MemoryBudget::bytes(64))
            .submit();
        assert!(matches!(engine.step(), EngineStep::Chunk { .. }));
        assert_eq!(engine.committed_bytes(), 64);
        while engine.step() != EngineStep::Idle {}
        assert_eq!(served(engine.poll(ticket)).stats.share_bytes, 64);
        assert_eq!(engine.committed_bytes(), 0);
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
        let loose = (engine.query(larger, smaller).project(spec))
            .deadline(u64::MAX)
            .submit();
        let tight = (engine.query(larger, smaller).project(spec))
            .deadline(60_000_000_000)
            .priority(4)
            .submit();
        let mut finish_order = Vec::new();
        loop {
            match engine.step() {
                EngineStep::Idle => break,
                EngineStep::Finished { ticket } => finish_order.push(ticket),
                _ => {}
            }
        }
        assert_eq!(finish_order, vec![tight, loose]);
        let qt = served(engine.poll(tight));
        let ql = served(engine.poll(loose));
        assert_eq!(columns(&qt.result), columns(&ql.result));
    }

    /// The dispatch key is each side's column chunks left × its weighted
    /// column-chunk price.  Under `c/d` a first-side column chunk (one
    /// gather) is priced below a second-side one (a gather and a
    /// decluster), one row chunk's columns sum to the row-chunk price, the
    /// key falls by each step's own price, and it is exactly 0 when the
    /// finishing step comes.
    #[test]
    fn the_work_left_key_falls_by_one_step_price_per_step_and_ends_at_zero() {
        use rdx_core::strategy::{ProjectionCode as F, SecondSideCode as S};
        let w = JoinWorkloadBuilder::equal(1_500, 2).seed(5).build();
        let mut engine = engine(MemoryBudget::bytes(2 * 1024));
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec {
            project_larger: 2,
            project_smaller: 1,
        };
        let codes = DsmPostProjection::with_codes(F::PartialCluster, S::Decluster);
        let ticket = engine
            .query(larger, smaller)
            .project(spec)
            .codes(codes)
            .submit();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-12);
        assert!(matches!(engine.step(), EngineStep::Chunk { .. }));
        let r = engine.running().next().unwrap();
        let chunks = r.run.streaming().num_chunks;
        let ([first, second], chunk_price) = (r.step_work, r.stats.predicted_chunk_cost_ms);
        assert!(chunks > 1 && 0.0 < first && first < second);
        // Column prices are whole nanoseconds: within 1 ns a column.
        assert!((2.0 * first + second - chunk_price).abs() <= 3e-6);
        // Both first-side columns run through their chunks first.
        let price = |step: usize| if step < 2 * chunks { first } else { second };
        let (mut steps, mut left) = (1, r.work_left());
        assert!(close(left + first, chunks as f64 * (2.0 * first + second)));
        loop {
            match engine.step() {
                EngineStep::Chunk { .. } => {
                    let now = engine.running().next().unwrap().work_left();
                    assert!(close(left - now, price(steps)), "step {steps}");
                    (steps, left) = (steps + 1, now);
                }
                EngineStep::Finished { ticket: t } if t == ticket => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(steps, chunks * 3);
        assert_eq!(left, 0.0, "no work left at the finishing step");
    }

    #[test]
    fn a_long_run_behind_endless_one_chunk_queries_waits_at_most_the_starvation_bound() {
        let long = JoinWorkloadBuilder::equal(2_000, 1).seed(41).build();
        let short = JoinWorkloadBuilder::equal(50, 1).seed(43).build();
        let mut engine = engine(MemoryBudget::bytes(4 * 1024));
        let spec = QuerySpec::symmetric(1);
        let (l, s) = (engine.register(long.larger), engine.register(long.smaller));
        let long_request = ServerRequest::new(l, s, spec);
        let (l, s) = (
            engine.register(short.larger),
            engine.register(short.smaller),
        );
        let short_request = ServerRequest::new(l, s, spec);
        // Two slots: the long run shares the engine with one short query
        // at a time, and another is always queued behind it.
        engine.submit(short_request);
        let ticket = engine.submit(long_request);
        let (mut admitted, mut own_steps) = (None, Vec::new());
        for step in 0..100_000 {
            if engine.queued() == 0 {
                engine.submit(short_request);
            }
            let (ran, finished) = match engine.step() {
                EngineStep::Chunk { ticket: t, .. } => (t, false),
                EngineStep::Finished { ticket: t } => (t, true),
                other => panic!("unexpected {other:?}"),
            };
            if admitted.is_none() && !matches!(engine.poll(ticket), TicketPoll::Queued { .. }) {
                admitted = Some(step);
            }
            if ran == ticket {
                own_steps.push(step);
                if finished {
                    break;
                }
            }
        }
        let q = served(engine.poll(ticket));
        assert_eq!(q.result.cardinality(), long.expected_matches);
        assert!(q.stats.chunks > 4, "the long run must span many chunks");
        // Held back by every short query, each of its column chunks waited
        // exactly the bound; with none left it is the least work and
        // finishes at once.  So the run, its column chunks plus the
        // finishing dispatch, ends within (steps + 1) × (K + 1) steps.
        let steps = q.stats.chunks * spec.total();
        let bound = scheduler::STARVATION_BOUND as usize;
        let admitted = admitted.unwrap();
        let mut since = admitted;
        let waits: Vec<usize> = (own_steps.iter())
            .map(|&step| step - std::mem::replace(&mut since, step + 1))
            .collect();
        let mut expected = vec![bound; steps];
        expected.push(0);
        assert_eq!(waits, expected);
        assert!(own_steps.last().unwrap() - admitted < (steps + 1) * (bound + 1));
        // The registry's count of the bound agrees: no query waited more.
        let metrics = engine.obs().metrics_snapshot().unwrap();
        let wait = metrics.histogram("engine.dispatch_wait").unwrap();
        assert!(wait.count > 2 * steps as u64);
        assert_eq!(wait.percentile(100.0), scheduler::STARVATION_BOUND);
    }

    #[test]
    fn equal_queries_finish_first_come_first_served() {
        let w = JoinWorkloadBuilder::equal(1_500, 1).seed(47).build();
        let mut engine = QueryEngine::new(ServeConfig {
            max_concurrent: 3,
            ..config(MemoryBudget::bytes(12 * 1024))
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(1));
        let tickets: Vec<TicketId> = (0..3).map(|_| engine.submit(request)).collect();
        // All three are admitted at the first step with equal shares and
        // prices; each then runs to completion before the next starts.
        let mut order = Vec::new();
        loop {
            match engine.step() {
                EngineStep::Chunk { ticket, .. } | EngineStep::Finished { ticket } => {
                    order.push(ticket)
                }
                EngineStep::Idle => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(engine.stats().peak_concurrency, 3);
        let runs: Vec<TicketId> = order.chunk_by(|a, b| a == b).map(|run| run[0]).collect();
        assert_eq!(runs, tickets);
        for t in tickets {
            let q = served(engine.poll(t));
            assert!(q.stats.chunks > 1);
            assert_eq!(q.stats.rows, w.expected_matches);
        }
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
            plan_shares: Some(1),
            observability: false,
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
        let first = engine
            .query(larger, smaller)
            .project(spec)
            .tenant(burst)
            .submit();
        let second = engine
            .query(larger, smaller)
            .project(spec)
            .tenant(burst)
            .submit();
        let other = engine
            .query(larger, smaller)
            .project(spec)
            .tenant(free)
            .submit();
        while engine.step() != EngineStep::Idle {}

        let shed = rejected(engine.poll(second));
        assert!(matches!(
            shed,
            RdxError::TenantQuota { tenant, kind: rdx_core::error::TenantQuotaKind::InFlight { limit: 1, .. } }
                if tenant == burst.raw()
        ));
        let ok_first = served(engine.poll(first));
        let ok_other = served(engine.poll(other));
        assert_eq!(columns(&ok_first.result), columns(&ok_other.result));
        assert_eq!(engine.stats().tenant_quota_rejects, 1);

        // Completion released the slot: the same tenant admits again.
        let bs = engine.tenant_stats(burst).unwrap();
        assert_eq!((bs.in_flight, bs.committed_bytes), (0, 0));
        assert_eq!((bs.admissions, bs.rejections), (1, 1));
        let third = engine
            .query(larger, smaller)
            .project(spec)
            .tenant(burst)
            .submit();
        while engine.step() != EngineStep::Idle {}
        assert!(matches!(engine.poll(third), TicketPoll::Done(_)));
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
            plan_shares: Some(1),
            observability: false,
            tenant_quotas: TenantQuotas::unlimited()
                .with_default(TenantQuota::unlimited().resident_bytes(512)),
        });
        let w = JoinWorkloadBuilder::equal(600, 1).seed(13).build();
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let spec = QuerySpec::symmetric(1);
        let capped = engine.tenant_id("capped");

        let t = engine
            .query(larger, smaller)
            .project(spec)
            .tenant(capped)
            .submit();
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
        let q = served(engine.poll(t));
        assert_eq!(q.stats.share_bytes, 512);
        assert_eq!(q.result.cardinality(), w.expected_matches);
        // Untagged queries on the same engine bypass tenant accounting.
        let untagged = engine.submit(ServerRequest::new(larger, smaller, spec));
        while engine.step() != EngineStep::Idle {}
        let qu = served(engine.poll(untagged));
        assert!(qu.stats.share_bytes > 512);
        assert_eq!(columns(&q.result), columns(&qu.result));
    }
}
