//! # rdx-serve — cache-aware multi-query serving layer
//!
//! Every executor below this crate answers **one** projection query.  This
//! layer makes *concurrency, fairness and cross-query reuse* first-class:
//! many projection queries over a catalog of registered relations run at
//! once, arbitrated by exactly the quantities the paper models — cache
//! shares, memory budgets and predicted cost.
//!
//! Five pieces, one per module:
//!
//! * [`registry`] — the relation [`Catalog`]: queries name data by
//!   [`RelationId`], which is what makes cached intermediates safely
//!   shareable.
//! * [`admission`] — the one decision of a query's grant: it checks the
//!   tenant's caps, splits a global [`rdx_core::budget::MemoryBudget`]
//!   (`per_query_share`, the RAM analogue of the
//!   paper's per-core cache share) and tightens the share by the hint and
//!   the tenant's headroom — queueing queries that do not fit, re-planning
//!   to tighter chunks when only a sliver is free, refusing with a typed
//!   error.  The one grant is charged to the global budget and the tenant
//!   alike, so `Σ grants ≤ global` holds; result memory is outside it.
//! * [`scheduler`] — the remaining-work-first rule
//!   ([`scheduler::dispatch`]) that picks whose budget-sized pipeline
//!   chunk runs next: the query with the least Appendix-A predicted work
//!   left at its cache share (first-come first-served at equal work), so
//!   the query closest to done finishes first, using the pipeline's chunk
//!   boundaries as preemption points; a run that has waited
//!   [`scheduler::STARVATION_BOUND`] dispatches goes next, so a big scan
//!   behind a stream of small lookups still progresses.
//! * [`cache`] — the [`ClusterCache`], a byte-budgeted, use-count-ranked
//!   cache of [`rdx_exec::PreparedProjection`] prefixes keyed by
//!   `(relation ids, codes, cluster spec)`: repeated queries over the same
//!   join reuse the radix-clustered product instead of re-clustering.
//! * [`engine`] — the **ticket-granular [`QueryEngine`]** tying them
//!   together as a persistent value with open edges, and the one front
//!   door in process: [`QueryEngine::query`] builds a request, non-blocking
//!   [`QueryEngine::submit`] returns a [`TicketId`] at any time (including
//!   between chunk steps of in-flight queries) and [`QueryEngine::step`]
//!   pumps one admission-plus-chunk decision.  Every query is a ticket, so
//!   every query is admitted under `Σ grants ≤ global` and planned by the
//!   same single start-a-run step.  The engine's one ticket table is the
//!   one record of what is in flight: each running ticket holds one grant
//!   (with its tenant charge) and its dispatch key, and admission and the
//!   scheduler read their load off it, so tearing a query down is moving
//!   its ticket out of `Running`.
//! * [`tenant`] — the **per-tenant quota layer**: [`TenantQuotas`] caps a
//!   tenant's in-flight queries and resident grant bytes, which admission
//!   enforces *before* the global `per_query_share` (typed
//!   [`rdx_core::error::RdxError::TenantQuota`] rejection), with per-tenant
//!   `engine.tenant.*` instruments — the paper's memory-budgeted execution
//!   model extended from queries to principals.  The registry keeps names,
//!   quotas, counts and gauges; a tenant's load is read off the running
//!   set.
//!
//! [`request`] holds what goes in and comes out: the engine-wide
//! [`ServeConfig`], one query's [`ServerRequest`] and the [`Query`] that
//! builds it, and the [`Served`] result a ticket's terminal [`TicketPoll`]
//! carries.  The load-bearing guarantee, exercised by the
//! workspace conformance grid: **any** interleaving of **any** admitted mix
//! produces, per query, output byte-identical to running that query alone —
//! scheduling changes *when* chunks run, never what they contain.
//!
//! ## Robustness
//!
//! The engine degrades *per query*, never per process.  A request may carry
//! a **deadline** ([`ServerRequest::deadline_ns`]): admission prices the
//! chosen plan at the query's cache share and rejects infeasible requests
//! with [`rdx_core::error::DeadlineError::Infeasible`] before a single chunk
//! runs, and admitted queries that overrun are torn down at the next chunk
//! boundary with [`rdx_core::error::DeadlineError::Exceeded`].  Any ticket
//! can be **cancelled** mid-flight ([`QueryEngine::cancel`]); its grant is
//! reclaimed at the chunk boundary, so `Σ grants ≤ global` holds through
//! every teardown.  A **worker panic** is caught per run and surfaces as
//! [`rdx_core::error::RdxError::WorkerPanicked`] on that query alone —
//! concurrent queries finish byte-identical to their serial runs.  A
//! [`rdx_core::fault::RetryPolicy`] re-queues budget-rejected or panicked
//! queries with deterministic drive-step backoff, and a scripted
//! [`rdx_core::fault::FaultPlan`] ([`QueryEngine::inject_faults`]) makes
//! every degradation path a pure function of the script.
//!
//! All fallible paths report the workspace-wide
//! [`rdx_core::error::RdxError`].
//!
//! ## Quickstart
//!
//! ```
//! use rdx_core::strategy::QuerySpec;
//! use rdx_serve::{EngineStep, QueryEngine, ServeConfig, Served, TicketPoll};
//! use rdx_workload::JoinWorkloadBuilder;
//!
//! let mut engine = QueryEngine::new(ServeConfig::default());
//! let w = JoinWorkloadBuilder::equal(2_000, 2).seed(1).build();
//! let larger = engine.register(w.larger.clone());
//! let smaller = engine.register(w.smaller.clone());
//!
//! // One-shot: plan, execute, materialise.
//! let report = engine
//!     .query(larger, smaller)
//!     .project(QuerySpec::symmetric(2))
//!     .run();
//! let rows = report.map(|r| r.result.cardinality());
//! assert_eq!(rows, Ok(w.expected_matches));
//!
//! // Non-blocking: submit, step, poll.
//! let ticket = engine
//!     .query(larger, smaller)
//!     .project(QuerySpec::symmetric(1))
//!     .submit();
//! while engine.step() != EngineStep::Idle {}
//! match engine.poll(ticket) {
//!     TicketPoll::Done(Served::Columns(report)) => {
//!         assert_eq!(report.stats.rows, w.expected_matches)
//!     }
//!     other => panic!("expected Done, got {other:?}"),
//! }
//! ```
//!
//! [`Catalog`]: registry::Catalog
//! [`RelationId`]: registry::RelationId
//! [`ClusterCache`]: cache::ClusterCache
//! [`QueryEngine`]: engine::QueryEngine
//! [`QueryEngine::query`]: engine::QueryEngine::query
//! [`QueryEngine::submit`]: engine::QueryEngine::submit
//! [`QueryEngine::step`]: engine::QueryEngine::step
//! [`TicketId`]: engine::TicketId

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod engine;
pub mod registry;
pub mod request;
pub mod scheduler;
pub mod tenant;

pub use cache::{CacheStats, ClusterCache, ClusterKey};
pub use engine::{EngineStats, EngineStep, QueryEngine, TicketId, TicketPoll};
pub use registry::{Catalog, RelationId};
pub use request::{Query, QueryResult, QueryStats, ResultForm, ServeConfig, Served, ServerRequest};
pub use tenant::{TenantId, TenantQuota, TenantQuotas, TenantStats};
