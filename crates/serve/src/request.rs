//! What goes into the [`crate::engine::QueryEngine`] and what comes out:
//! the engine-wide [`ServeConfig`], one query's [`ServerRequest`], and the
//! result a served ticket resolves to ([`Served`]) in the [`ResultForm`]
//! its submitter chose.

use crate::registry::RelationId;
use rdx_cache::CacheParams;
use rdx_core::budget::MemoryBudget;
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
    /// Optional per-query cap, applied on top of the admission grant.
    pub budget_hint: Option<MemoryBudget>,
    /// Optional per-query worker-thread count, overriding
    /// [`ServeConfig::threads_per_query`].  Threads change only scheduling,
    /// never bytes, so this cannot affect results.
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
    /// Set it with [`ServerRequest::with_profiled`].
    pub profiled: bool,
    /// Optional completion deadline, nanoseconds of *service time* from
    /// admission.  `Some` arms two enforcement points: admission rejects
    /// the query outright ([`rdx_core::error::DeadlineError::Infeasible`])
    /// when the Appendix-A price of the chosen plan's codes, at its granted
    /// share and resolved thread count, already exceeds the deadline, and the engine tears down an admitted run at
    /// the first chunk boundary after its consumed service time passes the
    /// deadline ([`rdx_core::error::DeadlineError::Exceeded`]), reclaiming
    /// its budget grant.  Deadlines also feed the scheduler: slack scales
    /// the query's predicted work left (EDF-flavored), so a tight-deadline
    /// query runs ahead of equal work.
    pub deadline_ns: Option<u64>,
    /// Scheduling priority, `1` (default) and up: the query's predicted
    /// work left is divided by the priority, so a priority-2 query runs
    /// ahead of a priority-1 peer with up to twice its work left.  `0` is
    /// treated as `1`.  Priorities
    /// change only chunk interleaving, never bytes, so they cannot affect
    /// results.
    pub priority: u32,
    /// Optional retry policy for *recoverable* failures — budget-rejected
    /// admissions and worker panics.  Retries re-enter the admission queue
    /// after an exponential backoff measured in engine drive steps (never
    /// wall-clock), keeping recovery deterministic.  Deadline failures are
    /// never retried.
    pub retry: Option<RetryPolicy>,
    /// The tenant this query is billed to, interned via
    /// [`QueryEngine::tenant_id`](crate::engine::QueryEngine::tenant_id).
    /// `None` — the default — bypasses tenant accounting entirely.  Tagged
    /// ticket submissions are checked against the tenant's
    /// [`crate::TenantQuota`] at admission (in-flight cap, resident-byte
    /// cap tightening the grant) and attributed in metrics and trace; tags
    /// change admission and accounting only, never bytes.
    pub tenant: Option<crate::tenant::TenantId>,
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

    /// Caps this query's share at `budget` even if admission offers more.
    pub fn with_budget_hint(mut self, budget: MemoryBudget) -> Self {
        self.budget_hint = Some(budget);
        self
    }

    /// Runs this query's chunks on `threads` workers (0 = auto-detect).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads_hint = Some(threads);
        self
    }

    /// Pins the projection codes instead of cost-based planning.
    pub fn with_codes(mut self, codes: DsmPostProjection) -> Self {
        self.codes = Some(codes);
        self
    }

    /// Arms cache-truth profiling for this query (default off): each chunk
    /// also reports the deterministic simulated miss counts of its access
    /// pattern.  Needs engine observability to take effect.
    pub fn with_profiled(mut self) -> Self {
        self.profiled = true;
        self
    }

    /// Sets a completion deadline in nanoseconds of service time (see
    /// [`ServerRequest::deadline_ns`] for the two enforcement points and
    /// the scheduler coupling).
    pub fn with_deadline(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Sets the scheduling priority (default 1; higher runs sooner; 0 is
    /// treated as 1).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Arms deterministic retry-with-backoff for budget rejections and
    /// worker panics (see [`ServerRequest::retry`]).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Bills this query to `tenant` (see [`ServerRequest::tenant`]).
    pub fn with_tenant(mut self, tenant: crate::tenant::TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Delivers this query's result in `form` (see [`ResultForm`]).
    pub fn with_form(mut self, form: ResultForm) -> Self {
        self.form = form;
        self
    }
}

/// Per-query execution statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryStats {
    /// The process-unique observability query id this execution's trace
    /// events are keyed by — what lets a caller pull one query's lifecycle
    /// out of a `TraceSnapshot` (`events_for`).  Minted even when
    /// observability is disabled (one relaxed atomic), so the field is
    /// always populated.
    pub query_id: u64,
    /// The projection codes the planner chose (or the request pinned).
    pub plan: DsmPostProjection,
    /// Whether the prepared prefix came from the clustered-index cache.
    pub cache_hit: bool,
    /// Whether this query's chunk loop started on warmed scratch buffers
    /// handed down from an earlier query (the engine's scratch pool),
    /// instead of growing its own.
    pub scratch_reused: bool,
    /// The admitted budget share (`usize::MAX` when unbounded).
    pub share_bytes: usize,
    /// Whether admission granted less than the fair share (tighter chunks).
    pub replanned: bool,
    /// Chunks the scheduler ran for this query.
    pub chunks: usize,
    /// Result rows produced.
    pub rows: usize,
    /// Largest observed per-chunk working set, bytes.
    pub peak_chunk_bytes: usize,
    /// Predicted *per-chunk* cost of the plan this query runs, at its cache
    /// share, in modeled milliseconds (`predict_cost` of its codes over its
    /// streaming plan, divided by the chunk count) — times the chunks left
    /// and the query's urgency, the work left the scheduler orders by.
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
