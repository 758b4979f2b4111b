//! The fluent [`Query`] builder and its two execution modes.

use crate::Session;
use rdx_core::budget::MemoryBudget;
use rdx_core::error::RdxError;
use rdx_core::fault::RetryPolicy;
use rdx_core::strategy::{DsmPostProjection, QuerySpec};
use rdx_serve::{QueryResult, RelationId, Served, ServerRequest, TenantId, TicketId, TicketPoll};

/// A projection query under construction:
/// `session.query(larger, smaller).project(spec).budget(b).threads(t)`
/// followed by exactly one execution mode.
///
/// Both modes are one ticket of the session's engine, with one lifecycle:
/// FIFO admission under the global budget and tenant quotas, cost-based
/// code planning at the session's shared cache share, clustered-prefix
/// cache lookup, scratch warm-up, deadline enforcement and panic isolation
/// are identical whichever mode finishes the sentence — which is what
/// makes their outputs byte-identical by construction.
///
/// * [`Query::submit`] — enqueue into the serve scheduler and return a
///   non-blocking [`TicketId`] immediately.
/// * [`Query::run`] — submit, then poll and drive the session until that
///   ticket's poll is terminal and return its outcome.
///
/// A chunked run into a caller's own `RowChunkSink` is
/// `rdx_exec::PipelineRun::step`.
#[must_use = "a query does nothing until run() or submit()"]
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

    /// Caps this query's resident working set at `budget`: it tightens the
    /// admission grant (default: the fair share of the global budget), and
    /// a hint can only shrink the share, never grow it.
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

    /// Arms **cache-truth profiling** (default off): every chunk's gathers
    /// and declusters report their array references to the session's
    /// simulated cache hierarchy as they run (on one worker), recording
    /// per-phase spans, per-chunk miss counts
    /// (`profile.*` metrics) and `ChunkProfile` trace events — deterministic
    /// numbers that survive any container, unlike wall-clock.  Output stays
    /// byte-identical by construction; requires the session's observability
    /// to be on to take effect.
    pub fn profiled(mut self) -> Self {
        self.request = self.request.with_profiled();
        self
    }

    /// Gives this query a **deadline**: at most `deadline_ns` nanoseconds
    /// of service time from admission, under `run` and `submit` alike.
    /// Two enforcement points, both deterministic in what they decide
    /// (only *when* wall-clock trips the second varies):
    ///
    /// 1. **Admission** — the Appendix-A cost model predicts the streaming
    ///    cost at this query's cache share; an infeasible deadline is
    ///    rejected with [`rdx_core::error::DeadlineError::Infeasible`]
    ///    *before a single chunk runs*, so a doomed query never holds a
    ///    grant.
    /// 2. **Chunk boundaries** — consumed service time (its chunk loop's
    ///    `PhaseTimings` plus injected slowdowns) is checked between chunk
    ///    steps; an overrun tears the run down with
    ///    [`rdx_core::error::DeadlineError::Exceeded`] and reclaims its
    ///    grant.
    ///
    /// Admitted deadline queries also run *sooner*: remaining slack scales
    /// the scheduler's predicted-work-left key (EDF-flavored), so a tight
    /// deadline runs ahead of equal work.  Deadline failures are
    /// never retried — the clock that rejected them keeps running.
    pub fn deadline(mut self, deadline_ns: u64) -> Self {
        self.request = self.request.with_deadline(deadline_ns);
        self
    }

    /// Sets scheduling **priority** (default 1; 0 is treated as 1).
    /// Priority divides the predicted work left the scheduler orders by, on
    /// top of any deadline urgency: priority 4 outranks priority-1 peers
    /// with more than a quarter of its work left.
    pub fn priority(mut self, priority: u32) -> Self {
        self.request = self.request.with_priority(priority);
        self
    }

    /// Bills this query to a tenant (interned via [`Session::tenant_id`]):
    /// it is admitted, under `run` and `submit` alike, against that tenant's
    /// [`rdx_serve::TenantQuota`] — in-flight cap and resident-byte cap —
    /// *before* the global budget, and its admissions/rejections show up
    /// in the tenant's `engine.tenant.*` metrics.  Tags change admission
    /// and accounting only, never result bytes.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.request = self.request.with_tenant(tenant);
        self
    }

    /// Arms a capped **retry policy**: a budget-rejected, over-quota or
    /// worker-panicked attempt is re-queued after a deterministic backoff
    /// measured in [`Session::drive`] steps (doubling per attempt), up to
    /// [`RetryPolicy::max_retries`] times.  Deadline failures and
    /// below-floor budget hints are permanent and never retried.  Without
    /// a policy the first error is the outcome, for `run` and `submit`
    /// alike.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.request = self.request.with_retry(policy);
        self
    }

    /// **One-shot materialise**: submits this query, then polls its ticket
    /// and drives the session one step at a time until the poll is
    /// terminal, and returns the outcome — the materialised result with its
    /// statistics, or the typed error its ticket parked.  Tickets already
    /// in flight keep running: each step is the whole engine's, and this
    /// query waits its FIFO turn behind them.
    pub fn run(self) -> Result<QueryResult, RdxError> {
        let Query { session, request } = self;
        let ticket = session.engine().submit(request);
        loop {
            match session.poll(ticket) {
                TicketPoll::Queued { .. } | TicketPoll::Running { .. } => session.drive(1),
                TicketPoll::Done(Served::Columns(report)) => return Ok(report),
                // A query is submitted in the columns form: a frame is no
                // outcome of this ticket's.
                TicketPoll::Done(Served::Frame { .. }) => {
                    return Err(RdxError::UnknownTicket {
                        ticket: ticket.raw(),
                    })
                }
                TicketPoll::Rejected(e) => return Err(e),
            };
        }
    }

    /// **Non-blocking submission**: enqueues into the serve scheduler and
    /// returns a [`TicketId`] immediately — never runs a chunk, so it is
    /// safe between chunk steps of in-flight queries.  Validation and
    /// admission failures surface through [`Session::poll`] as
    /// [`TicketPoll::Rejected`]; progress requires [`Session::drive`].
    pub fn submit(self) -> TicketId {
        self.session.engine().submit(self.request)
    }
}
