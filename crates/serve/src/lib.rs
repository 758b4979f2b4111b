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
//! * [`admission`] — the [`AdmissionController`] splits a global
//!   [`rdx_core::budget::MemoryBudget`] into per-query grants
//!   (`per_query_share`, the RAM analogue of the paper's per-core cache
//!   share), queueing queries that do not fit, re-planning queries to
//!   tighter chunks when only a sliver is free, and rejecting — with a
//!   typed error — queries that could never run.  `Σ grants ≤ global`
//!   holds at every instant, so over-commit is impossible by construction.
//! * [`scheduler`] — the [`ChunkScheduler`] interleaves budget-sized
//!   pipeline chunks from the active queries by stride scheduling
//!   (round-robin, or weighted by the Appendix-A predicted per-chunk cost
//!   at each query's cache share), using PR 2's chunk boundaries as
//!   preemption points so a big scan cannot starve small lookups.
//! * [`cache`] — the [`ClusterCache`], a byte-budgeted, use-count-ranked
//!   cache of [`rdx_exec::PreparedProjection`] prefixes keyed by
//!   `(relation ids, codes, cluster spec)`: repeated queries over the same
//!   join reuse the radix-clustered product instead of re-clustering.
//! * [`engine`] — the **ticket-granular [`QueryEngine`]** tying them
//!   together as a persistent value with open edges: non-blocking
//!   [`QueryEngine::submit`] returns a [`TicketId`] at any time (including
//!   between chunk steps of in-flight queries), [`QueryEngine::step`] pumps
//!   one admission-plus-chunk decision, and [`QueryEngine::resolve`] is the
//!   **single planner entry** every execution mode funnels through.
//! * [`tenant`] — the **per-tenant quota layer**: [`TenantQuotas`] caps a
//!   tenant's in-flight queries and resident grant bytes, checked at
//!   admission *before* the global `per_query_share` (typed
//!   [`rdx_core::error::RdxError::TenantQuota`] rejection) with per-tenant
//!   `engine.tenant.*` instruments — the paper's memory-budgeted execution
//!   model extended from queries to principals.
//!
//! [`request`] holds what goes in and comes out: the engine-wide
//! [`ServeConfig`], one query's [`ServerRequest`], and the [`QueryOutcome`]
//! each ticket resolves to.  The load-bearing guarantee, exercised by the
//! workspace conformance grid: **any** interleaving of **any** admitted mix
//! produces, per query, output byte-identical to running that query alone —
//! scheduling changes *when* chunks run, never what they contain.
//!
//! ## Robustness
//!
//! The engine degrades *per query*, never per process.  A request may carry
//! a **deadline** ([`ServerRequest::with_deadline`]): admission predicts the
//! streaming cost at the query's cache share and rejects infeasible requests
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
//! [`Catalog`]: registry::Catalog
//! [`RelationId`]: registry::RelationId
//! [`AdmissionController`]: admission::AdmissionController
//! [`ChunkScheduler`]: scheduler::ChunkScheduler
//! [`ClusterCache`]: cache::ClusterCache
//! [`QueryEngine`]: engine::QueryEngine
//! [`QueryEngine::submit`]: engine::QueryEngine::submit
//! [`QueryEngine::step`]: engine::QueryEngine::step
//! [`QueryEngine::resolve`]: engine::QueryEngine::resolve
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

pub use admission::{AdmissionController, AdmissionDecision};
pub use cache::{CacheStats, ClusterCache, ClusterKey};
pub use engine::{EngineStats, EngineStep, QueryEngine, ResolvedQuery, TicketId, TicketStatus};
pub use registry::{Catalog, RelationId};
pub use request::{QueryOutcome, QueryResult, QueryStats, ServeConfig, ServerRequest};
pub use scheduler::{ChunkScheduler, FairnessPolicy};
pub use tenant::{TenantId, TenantQuota, TenantQuotas, TenantStats};
