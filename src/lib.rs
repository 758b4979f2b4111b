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
//! * [`core`] — the paper's one algorithm, DSM post-projection: Radix-Cluster,
//!   Radix-Decluster, Partitioned Hash-Join, positional joins, the
//!   `u/s/c × u/d` codes and their cost-model planner.  The §4 / §5
//!   baselines it is compared with (DSM and NSM pre-projection, NSM
//!   post-projection, Jive-Join, the buffer-manager decluster) live in
//!   `rdx_bench::paper`, beside the figure harness; the facade does not
//!   re-export them.
//! * [`exec`] — the parallel execution engine: one worker runtime
//!   (`exec::pool::run_workers` on one `std::thread::scope`, with work
//!   items handed out by `exec::pool::Claims`), parallel Radix-Cluster /
//!   Radix-Decluster / Partitioned Hash-Join kernels (all byte-identical to
//!   their sequential counterparts), and the memory-budgeted **streaming
//!   projection pipeline** (`exec::pipeline`), the one executor of the DSM
//!   post-projection: it emits the result in chunks sized by a
//!   `core::budget::MemoryBudget` through a `RowChunkSink`, resumable chunk
//!   by chunk (`exec::PipelineRun`), and a whole result is its one-chunk
//!   stream (`exec::ProjectionPipeline::materialize`).
//! * [`serve`] — the cache-aware **multi-query serving layer** and the one
//!   front door: a relation catalog, an admission controller splitting one
//!   global memory budget into per-query shares, a remaining-work-first
//!   chunk scheduler (with a starvation bound) interleaving concurrent
//!   queries at chunk boundaries, a byte-budgeted cache of clustered join
//!   indexes, ranked by use count, for cross-query reuse — all held by the
//!   ticket-granular [`serve::QueryEngine`].  A query starts at
//!   [`serve::QueryEngine::query`], a fluent [`serve::Query`] builder that
//!   ends in `submit()` (a [`serve::TicketId`] observed without blocking
//!   by [`serve::QueryEngine::poll`], which returns the one
//!   [`serve::TicketPoll`], and pumped by [`serve::QueryEngine::step`]) or
//!   `run()`, which is one such ticket polled and stepped until it
//!   finishes.
//!   Requests may carry a **deadline** (checked against the cost model at
//!   admission, enforced at chunk boundaries), a **priority**, and a capped
//!   **retry policy**; tickets can be **cancelled** mid-flight, worker
//!   panics poison only their own query, and a scripted
//!   `core::fault::FaultPlan` drives every degradation path
//!   deterministically.
//! * [`net`] — the std-only **network serving layer**: a versioned,
//!   length-prefixed binary wire protocol (`net::wire`, a pure codec whose
//!   server frames mirror the engine's one ticket poll and carry typed
//!   `RdxError`s), a
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
//!   exporters.  The registry is always on — every engine, cache, tenant
//!   and `net.*` count lives there, and the `*Stats` structs are reads of
//!   it; `ServeConfig::observability` switches on the trace ring,
//!   per-chunk timing and profiling.
//!
//! ## Quickstart
//!
//! ```
//! use radix_decluster::prelude::*;
//!
//! // Two relations of equal size that join on `key`, two projection columns each.
//! let workload = workload::JoinWorkloadBuilder::equal(10_000, 2).seed(1).build();
//!
//! let mut engine = QueryEngine::new(ServeConfig {
//!     params: CacheParams::paper_pentium4(),
//!     plan_shares: Some(1),
//!     ..ServeConfig::default()
//! });
//! let larger = engine.register(workload.larger.clone());
//! let smaller = engine.register(workload.smaller.clone());
//! let report = engine
//!     .query(larger, smaller)
//!     .project(QuerySpec::symmetric(2))
//!     .run()
//!     .unwrap();
//! assert_eq!(report.result.num_columns(), 4);
//! assert_eq!(report.result.cardinality(), workload.expected_matches);
//! ```

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
    pub use rdx_cache::{CacheParams, MemorySystem, NoProbe};
    pub use rdx_core::budget::{BudgetError, MemoryBudget};
    pub use rdx_core::cluster::{
        radix_cluster, radix_cluster_oids, ClusterScratch, Clustered, RadixClusterSpec,
    };
    pub use rdx_core::decluster::chunks::ChunkRuns;
    pub use rdx_core::decluster::{
        radix_decluster, radix_decluster_windows_with_scratch, DeclusterScratch,
    };
    pub use rdx_core::error::{DeadlineError, RdxError, Side, TenantQuotaKind};
    pub use rdx_core::fault::{FaultAction, FaultInjector, FaultPlan, RetryPolicy};
    pub use rdx_core::join::partitioned_hash_join;
    pub use rdx_core::strategy::{
        plan_streaming, CountingSink, DsmPostProjection, MaterializeSink, ProjectionCode,
        QuerySpec, RowChunkSink, SecondSideCode, StreamingPlan,
    };
    pub use rdx_dsm::{Column, DsmRelation, JoinIndex, Oid, ResultRelation};
    pub use rdx_exec::{
        par_partitioned_hash_join, par_radix_cluster, par_radix_cluster_oids,
        par_radix_decluster_into, ChunkScratch, ExecPolicy, PipelineRun, PreparedProjection,
        ProjectionPipeline,
    };
    pub use rdx_net::{
        ClientError, Frame, NetClient, NetConfig, NetListener, NetServer, NetStats, NetStream,
        SubmitSpec, WireError, WireReport, WIRE_VERSION,
    };
    pub use rdx_nsm::NsmRelation;
    pub use rdx_obs::{
        EventKind, MetricsRegistry, MetricsSnapshot, MissCounts, Obs, Phase, Profile, QueryId,
        TraceEvent, TraceSnapshot,
    };
    pub use rdx_serve::{
        CacheStats, Catalog, EngineStats, EngineStep, Query, QueryEngine, QueryResult, QueryStats,
        RelationId, ResultForm, ServeConfig, Served, ServerRequest, TenantId, TenantQuota,
        TenantQuotas, TenantStats, TicketId, TicketPoll,
    };
    pub use rdx_workload::{
        self as workload, BudgetedWorkload, JoinWorkloadBuilder, MixConfig, QueryMix,
        RelationBuilder,
    };

    /// [`rdx_core::cluster::plan_partial_cluster`] in the four-argument
    /// shape it had while a scatter mode rode along: `_pair_bytes` is
    /// ignored and the second result is `()`.  It keeps the `benchmark/`
    /// package, which calls `let (spec, _) = plan_partial_cluster(n, 4, 8,
    /// &params)`, compiling; it is the only place that shape survives, and
    /// new code calls the core function.
    pub fn plan_partial_cluster(
        column_tuples: usize,
        value_width: usize,
        _pair_bytes: usize,
        params: &CacheParams,
    ) -> (RadixClusterSpec, ()) {
        let spec = rdx_core::cluster::plan_partial_cluster(column_tuples, value_width, params);
        (spec, ())
    }

    /// The engine under the name the `benchmark/` package gives it: it
    /// calls `Session::new(config)`, `register_arc`, `query(..)` and
    /// `cache_stats()`, which the engine has, and the four calls of
    /// [`SessionShim`], which it does not.  Like `plan_partial_cluster`
    /// above, it keeps that frozen package compiling and is the only
    /// place the name survives; new code names [`QueryEngine`].
    pub type Session = QueryEngine;

    /// The four calls the `benchmark/` package makes on a [`Session`] that
    /// the engine lacks, each one line over the engine.  New code calls
    /// the engine, its [`Obs`] handle and [`NetServer::new`] directly.
    pub trait SessionShim {
        /// The engine itself.
        fn engine_mut(&mut self) -> &mut QueryEngine;
        /// [`Obs::metrics_snapshot`] of the engine's handle.
        fn metrics(&self) -> Option<MetricsSnapshot>;
        /// [`Obs::trace_snapshot`] of the engine's handle.
        fn trace_snapshot(&self) -> Option<TraceSnapshot>;
        /// [`NetServer::new`] over the engine.
        fn into_server(self, listener: NetListener, config: NetConfig) -> NetServer;
    }

    impl SessionShim for QueryEngine {
        fn engine_mut(&mut self) -> &mut QueryEngine {
            self
        }

        fn metrics(&self) -> Option<MetricsSnapshot> {
            self.obs().metrics_snapshot()
        }

        fn trace_snapshot(&self) -> Option<TraceSnapshot> {
            self.obs().trace_snapshot()
        }

        fn into_server(self, listener: NetListener, config: NetConfig) -> NetServer {
            NetServer::new(listener, self, config)
        }
    }
}
