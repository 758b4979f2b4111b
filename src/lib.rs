//! # radix_decluster
//!
//! Facade crate for the reproduction of *"Cache-Conscious Radix-Decluster
//! Projections"* (Manegold, Boncz, Nes, Kersten — CWI / VLDB 2004).
//!
//! The workspace is split into focused crates; this facade re-exports the
//! public surface so downstream users can depend on a single crate:
//!
//! * [`dsm`] — Decomposition Storage Model substrate: dense columns with
//!   implicit (void) object-ids, join indices, `mark()`, variable-size columns.
//! * [`nsm`] — N-ary Storage Model substrate: row-major relations, record
//!   projection, slotted pages and a small buffer manager (paper §5).
//! * [`cache`] — cache hierarchy + TLB simulator and calibrator, standing in
//!   for the paper's hardware performance counters.
//! * [`cost`] — the Appendix-A hierarchical-memory cost models.
//! * [`workload`] — generators for the evaluation workloads (cardinality N,
//!   width ω, join hit rate h, selectivity s).
//! * [`core`] — the paper's algorithms: Radix-Cluster, Radix-Decluster,
//!   Partitioned Hash-Join, positional joins, Jive-Join, and the end-to-end
//!   projection strategies compared in §4.
//! * [`exec`] — the morsel-driven parallel execution engine: work-stealing
//!   morsel scheduling over scoped threads, parallel Radix-Cluster /
//!   Radix-Decluster / Partitioned Hash-Join kernels, parallel end-to-end
//!   strategy executors (all byte-identical to their sequential
//!   counterparts), and the memory-budgeted **streaming projection
//!   pipeline** (`exec::pipeline`) that emits the result in chunks sized by
//!   a `core::budget::MemoryBudget` through a `RowChunkSink` — resumable
//!   chunk by chunk (`exec::PipelineRun`).
//! * [`serve`] — the cache-aware **multi-query serving layer**: a relation
//!   catalog, an admission controller splitting one global memory budget
//!   into per-query shares, a fair (stride) chunk scheduler interleaving
//!   concurrent queries at chunk boundaries, a byte-budgeted cache of
//!   clustered join indexes, ranked by use count, for cross-query reuse —
//!   and the ticket-granular [`serve::QueryEngine`] underneath it all.
//! * [`api`] — **one front door**: the unified [`api::Session`] /
//!   [`api::Query`] surface with non-blocking submission tickets.  A
//!   `Session` owns the catalog, shared cache params, global budget,
//!   join-index cache and scratch pools; the fluent builder resolves
//!   through one planner entry to `run()` (one-shot materialise),
//!   `stream(sink)` (chunked) or `submit()` (a [`api::Ticket`] polled
//!   without blocking, pumped by [`api::Session::drive`]).  The per-crate
//!   entry points above remain as documented legacy wrappers.
//!   Requests may carry a **deadline** (checked against the cost model at
//!   admission, enforced at chunk boundaries), a **priority**, and a capped
//!   **retry policy**; tickets can be **cancelled** mid-flight, worker
//!   panics poison only their own query, and a scripted
//!   `core::fault::FaultPlan` drives every degradation path
//!   deterministically.
//! * [`net`] — the std-only **network serving layer**: a versioned,
//!   length-prefixed binary wire protocol (`net::wire`, a pure codec whose
//!   server frames mirror ticket statuses and carry typed `RdxError`s), a
//!   single-threaded non-blocking [`net::NetServer`] multiplexing TCP and
//!   unix-domain connections between [`serve::QueryEngine`] steps with
//!   per-connection backpressure, and a blocking [`net::NetClient`].
//!   Per-tenant [`serve::TenantQuota`]s (in-flight and resident-byte caps
//!   on top of the global budget) admit each connection's submissions
//!   under the tenant named in its `Hello`.
//! * [`obs`] — the zero-dependency **observability layer**: a lock-free
//!   metrics registry (counters, gauges, power-of-two latency histograms),
//!   a bounded ring of per-query trace events (submit → admit → cache
//!   lookup → chunk steps → done), and text / JSON / Prometheus
//!   exporters.  Enabled per session via `ServeConfig::observability`;
//!   disabled it costs one branch per record site and nothing else.
//!
//! ## Quickstart
//!
//! ```
//! use radix_decluster::prelude::*;
//!
//! // Two relations of equal size that join on `key`, two projection columns each.
//! let workload = workload::JoinWorkloadBuilder::equal(10_000, 2).seed(1).build();
//!
//! let mut session = Session::with_params(CacheParams::paper_pentium4());
//! let larger = session.register(workload.larger.clone());
//! let smaller = session.register(workload.smaller.clone());
//! let report = session
//!     .query(larger, smaller)
//!     .project(QuerySpec::symmetric(2))
//!     .run()
//!     .unwrap();
//! assert_eq!(report.result.num_columns(), 4);
//! assert_eq!(report.result.cardinality(), workload.expected_matches);
//! ```

pub use rdx_api as api;
pub use rdx_cache as cache;
pub use rdx_core as core;
pub use rdx_cost as cost;
pub use rdx_dsm as dsm;
pub use rdx_exec as exec;
pub use rdx_net as net;
pub use rdx_nsm as nsm;
pub use rdx_obs as obs;
pub use rdx_serve as serve;
pub use rdx_workload as workload;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use rdx_api::{ChunkProgress, Query, QueryPoll, Session, Ticket};
    pub use rdx_cache::{CacheParams, MemorySystem};
    pub use rdx_core::budget::{BudgetError, MemoryBudget};
    pub use rdx_core::cluster::{
        plan_cluster_passes, plan_partial_cluster, radix_cluster, radix_cluster_oids,
        radix_cluster_oids_with_scratch, radix_cluster_with_scratch, scatter_cursor_budget,
        ClusterScratch, RadixClusterSpec, ScatterMode, ScratchClustered,
    };
    pub use rdx_core::decluster::{
        radix_decluster, radix_decluster_into, radix_decluster_windows,
        radix_decluster_windows_with_scratch, DeclusterScratch,
    };
    pub use rdx_core::error::{DeadlineError, RdxError, Side, TenantQuotaKind};
    pub use rdx_core::fault::{FaultAction, FaultInjector, FaultPlan, RetryPolicy};
    pub use rdx_core::join::partitioned_hash_join;
    pub use rdx_core::strategy::{
        plan_streaming, plan_streaming_checked, resplit_budget, AdaptiveController,
        AdaptiveDecision, AdaptivePolicy, CountingSink, DsmPostProjection, FeedbackSource,
        MaterializeSink, MissCountFeedback, PagedSink, ProjectionCode, QuerySpec, RowChunkSink,
        ScriptedFeedback, SecondSideCode, SharedMissCounts, StreamingPlan, WallClockFeedback,
    };
    pub use rdx_dsm::{Column, DsmRelation, JoinIndex, Oid, ResultRelation};
    pub use rdx_exec::{
        par_dsm_post_projection, par_nsm_post_projection_decluster, par_partitioned_hash_join,
        par_radix_cluster, par_radix_cluster_oids, par_radix_cluster_oids_with_scratch,
        par_radix_cluster_with_scratch, par_radix_decluster, par_radix_decluster_into,
        ChunkScratch, DsmPipelineRun, ExecPolicy, ParClusterScratch, PipelineRun,
        PreparedProjection, ProjectionPipeline,
    };
    pub use rdx_net::{
        ClientError, Frame, NetClient, NetConfig, NetListener, NetServer, NetStats, NetStream,
        SubmitSpec, WireError, WireReport, WIRE_VERSION,
    };
    pub use rdx_nsm::NsmRelation;
    pub use rdx_obs::{
        EventKind, MetricsRegistry, MetricsSnapshot, MissCounts, Obs, ObsConfig, Phase, Profile,
        QueryId, TraceEvent, TraceSnapshot,
    };
    pub use rdx_serve::{
        CacheStats, Catalog, EngineStats, EngineStep, FairnessPolicy, QueryEngine, QueryOutcome,
        QueryResult, QueryStats, RelationId, ResolvedQuery, ServeConfig, ServerRequest, TenantId,
        TenantQuota, TenantQuotas, TenantStats, TicketId, TicketStatus,
    };
    pub use rdx_workload::{
        self as workload, BudgetedWorkload, JoinWorkloadBuilder, MixConfig, QueryMix,
        RelationBuilder,
    };
}
