//! The [`Session`]: owner of everything a stream of queries shares.

use crate::ticket::{ChunkProgress, QueryPoll, Ticket};
use crate::Query;
use rdx_cache::CacheParams;
use rdx_core::error::RdxError;
use rdx_dsm::DsmRelation;
use rdx_net::{NetConfig, NetListener, NetServer, NetStats};
use rdx_obs::{MetricsSnapshot, TraceSnapshot};
use rdx_serve::{
    CacheStats, Catalog, EngineStep, QueryEngine, RelationId, ServeConfig, TenantId, TenantStats,
    TicketStatus,
};
use std::sync::Arc;

/// One front door to the whole workspace: a `Session` owns the relation
/// [`Catalog`], the shared [`CacheParams`] every plan is priced against,
/// the global [`rdx_core::budget::MemoryBudget`] admission splits, the
/// clustered-join-index cache, and the warmed scratch pools — the state the
/// four legacy entry points each plumbed separately.
///
/// Queries start at [`Session::query`] (a fluent builder) and resolve
/// through one planner entry to any execution mode; submitted queries are
/// pumped by [`Session::drive`] and observed with [`Ticket::poll`].
pub struct Session {
    engine: QueryEngine,
}

impl Default for Session {
    /// A session over [`ServeConfig::default`]: the paper's Pentium 4
    /// hierarchy, an unbounded global budget, four admission slots.
    fn default() -> Self {
        Session::new(ServeConfig::default())
    }
}

impl Session {
    /// A session running under `config` (the same knobs as the serving
    /// layer: hierarchy params, global budget, concurrency, fairness,
    /// cache bytes, plan shares).
    ///
    /// # Panics
    /// Panics if `config.max_concurrent == 0`.
    pub fn new(config: ServeConfig) -> Self {
        Session {
            engine: QueryEngine::new(config),
        }
    }

    /// A session over the given hierarchy with every other knob at its
    /// default — and plans priced against the *whole* cache
    /// (`plan_shares = 1`), so single-query sessions plan exactly as the
    /// legacy `DsmPostProjection::plan`-style entry points did at the same
    /// `params`.
    pub fn with_params(params: CacheParams) -> Self {
        Session::new(ServeConfig {
            params,
            plan_shares: Some(1),
            ..ServeConfig::default()
        })
    }

    /// Registers a relation for querying.
    pub fn register(&mut self, relation: DsmRelation) -> RelationId {
        self.engine.register(relation)
    }

    /// Registers an already-shared relation without copying it.
    pub fn register_arc(&mut self, relation: Arc<DsmRelation>) -> RelationId {
        self.engine.register_arc(relation)
    }

    /// Starts a fluent query over the registered pair `(larger, smaller)`,
    /// projecting one column from each side until [`Query::project`] says
    /// otherwise.
    pub fn query(&mut self, larger: RelationId, smaller: RelationId) -> Query<'_> {
        Query::new(self, larger, smaller)
    }

    /// Pumps the stride scheduler for at most `steps` chunk-steps and
    /// returns how many actually ran (0 = the session is drained).  Each
    /// step admits from the FIFO queue while budget and concurrency slots
    /// allow, then runs **one chunk of one query** under the fairness
    /// policy — so a caller alternating `drive` with [`Query::submit`] /
    /// [`Ticket::poll`] gets exactly the bounded-latency loop an async
    /// front needs.
    pub fn drive(&mut self, steps: usize) -> usize {
        let mut ran = 0;
        for _ in 0..steps {
            if self.engine.step() == EngineStep::Idle {
                break;
            }
            ran += 1;
        }
        ran
    }

    /// Where `ticket` is in its state machine (see the crate docs).  The
    /// first poll that observes completion takes the parked outcome with
    /// it; later polls report [`RdxError::UnknownTicket`].
    pub fn poll(&mut self, ticket: &Ticket) -> QueryPoll {
        match self.engine.status(ticket.id()) {
            None => QueryPoll::Rejected(RdxError::UnknownTicket {
                ticket: ticket.id().raw(),
            }),
            Some(TicketStatus::Queued { .. }) => QueryPoll::Queued,
            Some(TicketStatus::Running { chunks, rows }) => {
                QueryPoll::Chunk(ChunkProgress { chunks, rows })
            }
            Some(TicketStatus::Finished) => {
                // Finished status and a parked outcome are written together,
                // so the take always succeeds; report the typed unknown-
                // ticket error rather than trusting that with a panic.
                let Some(outcome) = self.engine.take_outcome(ticket.id()) else {
                    return QueryPoll::Rejected(RdxError::UnknownTicket {
                        ticket: ticket.id().raw(),
                    });
                };
                match outcome.outcome {
                    Ok(report) => QueryPoll::Done(report),
                    Err(e) => QueryPoll::Rejected(e),
                }
            }
        }
    }

    /// Cancels a submitted query wherever it is — queued, parked for
    /// retry, or mid-flight (torn down at the next chunk boundary, its
    /// grant reclaimed immediately).  Returns `true` if the ticket was
    /// live; the cancelled ticket's next poll observes
    /// [`QueryPoll::Rejected`] with [`RdxError::Cancelled`], exactly once.
    /// Already-finished or unknown tickets return `false` untouched.
    pub fn cancel(&mut self, ticket: &Ticket) -> bool {
        self.engine.cancel(ticket.id())
    }

    /// Replaces the session's **fault-injection script** (see
    /// [`rdx_core::fault::FaultPlan`]): scripted worker panics, slowdowns,
    /// grant denials and cache evictions fire at exact `(query ordinal,
    /// chunk step)` points, making every degradation path a pure function
    /// of the plan.  Queries are addressed by 0-based submission ordinal.
    /// The default plan is empty — production sessions never consult it
    /// beyond a per-probe bounds check.
    pub fn inject_faults(&mut self, plan: rdx_core::fault::FaultPlan) {
        self.engine.inject_faults(plan);
    }

    /// Queries waiting for admission.
    pub fn queued(&self) -> usize {
        self.engine.queued()
    }

    /// Queries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.engine.in_flight()
    }

    /// `true` when nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        self.engine.is_idle()
    }

    /// The catalog of registered relations.
    pub fn catalog(&self) -> &Catalog {
        self.engine.catalog()
    }

    /// The per-query cache share plans are priced against.
    pub fn params(&self) -> &CacheParams {
        self.engine.shared_params()
    }

    /// The configuration this session runs under.
    pub fn config(&self) -> &ServeConfig {
        self.engine.config()
    }

    /// Clustered-join-index cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Whether this session records metrics and trace events
    /// ([`ServeConfig::observability`]).
    pub fn observability(&self) -> bool {
        self.engine.obs().is_enabled()
    }

    /// A point-in-time copy of the session's metrics registry — engine
    /// counters and gauges, queue-wait / service-latency histograms, and
    /// the pipeline's `chunk_ns` / `predicted_vs_observed_permille`
    /// distributions.  `None` unless the session was built with
    /// [`ServeConfig::observability`] set.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.engine.obs().metrics_snapshot()
    }

    /// A point-in-time copy of the session's event trace: every query's
    /// lifecycle (submit → admit → cache lookup → chunk steps → done),
    /// keyed by the `query_id` its [`rdx_serve::QueryStats`] reports.
    /// `None` unless the session was built with
    /// [`ServeConfig::observability`] set.
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.engine.obs().trace_snapshot()
    }

    /// Pumps [`Session::drive`] until the session is fully drained
    /// (nothing queued, running, or parked for retry) and returns how many
    /// chunk-steps ran — the blocking tail for a caller that has finished
    /// submitting and just wants every ticket finished.
    pub fn drive_until_idle(&mut self) -> usize {
        let mut ran = 0;
        while self.engine.step() != EngineStep::Idle {
            ran += 1;
        }
        ran
    }

    /// Interns `name` as a [`TenantId`] for tagging submissions with
    /// [`Query::tenant`].  Idempotent: the same name always yields the
    /// same id, and first sight resolves the tenant's quota from
    /// [`ServeConfig::tenant_quotas`].
    pub fn tenant_id(&mut self, name: &str) -> TenantId {
        self.engine.tenant_id(name)
    }

    /// A point-in-time snapshot of one tenant's quota accounting
    /// (in-flight queries, committed bytes, admissions, rejections).
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.engine.tenant_stats(tenant)
    }

    /// Turns this session into a socket server on `listener` and runs it
    /// until every connected client has disconnected and the engine is
    /// drained — the front door to `rdx-net` (see `examples/net_server.rs`).
    /// Register relations *before* calling; the returned [`NetStats`]
    /// summarise the connection lifecycle and how the loop waited.
    ///
    /// The loop is [`NetServer::serve`]'s: it wakes on arrival, not on a
    /// timer — polling again at once after progress, yielding the CPU
    /// between polls for a short quiet window (milliseconds) after the
    /// last progress, and sleeping between polls only after that.  A
    /// session that receives a request in every such window therefore
    /// keeps this thread's core busy; a quiet one sleeps.  Callers that
    /// want a different wait take
    /// [`Session::into_server`] and drive [`NetServer::poll_cycle`]
    /// (which never blocks) in a loop of their own.
    pub fn serve(self, listener: NetListener) -> NetStats {
        self.serve_with(listener, NetConfig::default())
    }

    /// [`Session::serve`] with explicit poll-loop tuning (`NetConfig` sizes
    /// the cycle; the wait between cycles is not configurable).
    pub fn serve_with(self, listener: NetListener, config: NetConfig) -> NetStats {
        NetServer::new(listener, self.engine, config).serve()
    }

    /// Turns this session into a [`NetServer`] without running it — for
    /// callers that drive [`NetServer::poll_cycle`] themselves or need the
    /// engine back after serving.
    pub fn into_server(self, listener: NetListener, config: NetConfig) -> NetServer {
        NetServer::new(listener, self.engine, config)
    }

    /// The ticket-granular engine underneath, for callers that need the
    /// serve-layer surface directly.
    pub fn engine_mut(&mut self) -> &mut QueryEngine {
        &mut self.engine
    }

    pub(crate) fn engine(&mut self) -> &mut QueryEngine {
        &mut self.engine
    }
}
