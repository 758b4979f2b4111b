//! The fluent [`Query`] builder and its three execution modes.

use crate::ticket::Ticket;
use crate::Session;
use rdx_core::budget::MemoryBudget;
use rdx_core::error::RdxError;
use rdx_core::fault::RetryPolicy;
use rdx_core::strategy::{DsmPostProjection, MaterializeSink, QuerySpec, RowChunkSink};
use rdx_serve::{QueryResult, QueryStats, RelationId, ServerRequest, TenantId};

/// A projection query under construction:
/// `session.query(larger, smaller).project(spec).budget(b).threads(t)`
/// followed by exactly one execution mode.
///
/// All modes resolve through **one planner entry**
/// ([`rdx_serve::QueryEngine::resolve`]): validation, cost-based code
/// planning at the session's shared cache share, clustered-prefix cache
/// lookup and scratch warm-up are identical whichever mode finishes the
/// sentence — which is what makes their outputs byte-identical by
/// construction.
///
/// * [`Query::run`] — execute now, materialise the whole result.
/// * [`Query::stream`] — execute now, emit budget-sized chunks into a
///   caller-provided [`RowChunkSink`].
/// * [`Query::submit`] — enqueue into the serve scheduler and return a
///   non-blocking [`Ticket`] immediately.
#[must_use = "a query does nothing until run(), stream(..) or submit()"]
pub struct Query<'s> {
    session: &'s mut Session,
    request: ServerRequest,
}

impl<'s> Query<'s> {
    pub(crate) fn new(session: &'s mut Session, larger: RelationId, smaller: RelationId) -> Self {
        Query {
            session,
            request: ServerRequest::new(larger, smaller, QuerySpec::symmetric(1)),
        }
    }

    /// Sets how many columns to project from each side (defaults to one
    /// from each).
    pub fn project(mut self, spec: QuerySpec) -> Self {
        self.request.spec = spec;
        self
    }

    /// Caps this query's resident working set at `budget`.  For `run` /
    /// `stream` this is the execution budget (default: the global budget's
    /// *uncommitted residual*, so a direct run can never over-commit past
    /// the grants of tickets still in flight); for `submit` it tightens the
    /// admission grant (a hint can only shrink the share, never grow it).
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.request = self.request.with_budget_hint(budget);
        self
    }

    /// Runs this query's chunks on `threads` morsel workers (0 =
    /// auto-detect; default: the session's `threads_per_query`).  Threads
    /// change only scheduling, never bytes.
    pub fn threads(mut self, threads: usize) -> Self {
        self.request = self.request.with_threads(threads);
        self
    }

    /// Pins the projection codes instead of cost-based planning — how the
    /// conformance grid drives every `u/s/c × u/d` cell through the one
    /// planner entry.
    pub fn codes(mut self, codes: DsmPostProjection) -> Self {
        self.request = self.request.with_codes(codes);
        self
    }

    /// Arms **cache-truth profiling** (default off): every emitted chunk's
    /// memory-access pattern is replayed through the session's simulated
    /// cache hierarchy, recording per-phase spans, per-chunk miss counts
    /// (`profile.*` metrics) and `ChunkProfile` trace events — deterministic
    /// numbers that survive any container, unlike wall-clock.  Output stays
    /// byte-identical by construction; requires the session's observability
    /// to be on to take effect.
    pub fn profiled(mut self) -> Self {
        self.request = self.request.with_profiled();
        self
    }

    /// Gives this query a **deadline**: at most `deadline_ns` nanoseconds
    /// of service time from admission.  Two enforcement points, both
    /// deterministic in what they decide (only *when* wall-clock trips the
    /// second varies):
    ///
    /// 1. **Admission** — the Appendix-A cost model predicts the streaming
    ///    cost at this query's cache share; an infeasible deadline is
    ///    rejected with [`rdx_core::error::DeadlineError::Infeasible`]
    ///    *before a single chunk runs*, so a doomed query never holds a
    ///    grant.
    /// 2. **Chunk boundaries** — consumed service time (chunk wall-clock
    ///    plus any injected slowdowns) is checked between chunk steps; an
    ///    overrun tears the run down with
    ///    [`rdx_core::error::DeadlineError::Exceeded`] and reclaims its
    ///    grant.
    ///
    /// Admitted deadline queries also run *sooner*: remaining slack scales
    /// the stride-scheduler weight (EDF-flavored), so tight deadlines win
    /// more dispatches without starving the rest.  Deadline failures are
    /// never retried — the clock that rejected them keeps running.
    pub fn deadline(mut self, deadline_ns: u64) -> Self {
        self.request = self.request.with_deadline(deadline_ns);
        self
    }

    /// Sets scheduling **priority** (default 1; 0 is treated as 1).
    /// Priority divides the stride weight: priority 4 is dispatched four
    /// times as often as priority 1, on top of any deadline urgency.
    pub fn priority(mut self, priority: u32) -> Self {
        self.request = self.request.with_priority(priority);
        self
    }

    /// Bills this query to a tenant (interned via [`Session::tenant_id`]):
    /// submission is admitted against that tenant's
    /// [`rdx_serve::TenantQuota`] — in-flight cap and resident-byte cap —
    /// *before* the global budget, and its admissions/rejections show up
    /// in the tenant's `engine.tenant.*` metrics.  Tags change admission
    /// and accounting only, never result bytes.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.request = self.request.with_tenant(tenant);
        self
    }

    /// Arms a capped **retry policy** for submitted queries: a
    /// budget-rejected or worker-panicked attempt is re-queued after a
    /// deterministic backoff measured in [`Session::drive`] steps (doubling
    /// per attempt), up to [`RetryPolicy::max_retries`] times.  Deadline
    /// failures and below-floor budget hints are permanent and never
    /// retried.  Only [`Query::submit`] consults the policy — `run` /
    /// `stream` surface their first error.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.request = self.request.with_retry(policy);
        self
    }

    /// **One-shot materialise**: resolves, streams every chunk into a
    /// [`MaterializeSink`] and returns the full result with its
    /// statistics — the front-door counterpart of
    /// `rdx_exec::ProjectionPipeline::materialize`, under the session's
    /// budget share.
    pub fn run(self) -> Result<QueryResult, RdxError> {
        let engine = self.session.engine();
        let mut resolved = engine.resolve_direct(&self.request)?;
        let mut sink = MaterializeSink::new();
        resolved.run_to_completion(&mut sink);
        let stats = engine.retire(resolved);
        Ok(QueryResult {
            result: sink.into_result(),
            stats,
        })
    }

    /// **Chunked execution**: resolves and emits the result through `sink`
    /// in budget-sized chunks, returning the statistics — the front door to
    /// a `rdx_exec::PipelineRun` stepped to completion.  The sink sees the
    /// exact `begin`/`emit`/`finish` protocol of
    /// [`rdx_core::strategy::RowChunkSink`].
    pub fn stream(self, sink: &mut dyn RowChunkSink) -> Result<QueryStats, RdxError> {
        let engine = self.session.engine();
        let mut resolved = engine.resolve_direct(&self.request)?;
        resolved.run_to_completion(sink);
        Ok(engine.retire(resolved))
    }

    /// **Non-blocking submission**: enqueues into the serve scheduler and
    /// returns a [`Ticket`] immediately — never runs a chunk, so it is safe
    /// between chunk steps of in-flight queries.  Validation and admission
    /// failures surface through [`Ticket::poll`] as
    /// [`crate::QueryPoll::Rejected`]; progress requires
    /// [`Session::drive`].
    pub fn submit(self) -> Ticket {
        Ticket::new(self.session.engine().submit(self.request))
    }
}
