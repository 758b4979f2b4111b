//! # rdx-exec — morsel-driven parallel execution engine
//!
//! The paper's kernels are embarrassingly partitionable: Radix-Cluster is a
//! stable counting sort (per-thread histograms merge with a prefix sum),
//! Radix-Decluster's insertion windows tile the result disjointly, and
//! Partitioned Hash-Join's partitions are independent by construction.  This
//! crate exploits that with a *morsel-driven* runtime in the style of
//! HyPer's morsel-driven parallelism: work is cut into contiguous tuple
//! ranges sized to each core's **share** of the cache, idle workers steal
//! the next morsel, and all mutation happens through disjoint `&mut` slices
//! (`split_at_mut` / `chunks_mut`) so the whole engine stays inside
//! `#![forbid(unsafe_code)]`.
//!
//! Layering:
//!
//! * [`pool`] — [`ExecPolicy`] (thread count + morsel size), scoped worker
//!   spawning, the work-stealing [`MorselQueue`], and safe disjoint-slice
//!   distribution helpers.
//! * [`cluster`] — parallel Radix-Cluster / Radix-Sort: per-thread local
//!   clustering, prefix-sum of per-thread histograms, parallel merge into
//!   cluster-border shards.  Byte-identical to the sequential kernels.
//! * [`decluster`] — parallel Radix-Decluster: independent insertion-window
//!   ranges per worker, cursors recovered by binary search.  Byte-identical
//!   to the sequential kernel.
//! * [`join`] — parallel Partitioned Hash-Join over independent partitions.
//! * [`pipeline`] — the memory-budgeted **streaming** projection pipeline:
//!   cluster → decluster → fetch in chunks sized by an explicit
//!   [`rdx_core::budget::MemoryBudget`], emitting through a
//!   [`rdx_core::strategy::RowChunkSink`] instead of materialising the
//!   result; byte-identical to the materialising executors.
//! * [`strategy`] — parallel end-to-end executors
//!   ([`par_dsm_post_projection`], [`par_nsm_post_projection_decluster`])
//!   that mirror the sequential phase structure and report the same
//!   [`rdx_core::strategy::PhaseTimings`].
//!
//! ## Thread count and the cost model
//!
//! `threads` workers share the last-level cache, so every per-core working
//! set — cluster sizes, insertion windows, hash-join build partitions — must
//! shrink to `C / threads`.  [`rdx_cache::CacheParams::per_core_share`]
//! encodes that, and `rdx_core::strategy::planner::plan_by_cost_with_threads`
//! feeds it to the Appendix-A cost model so the chosen codes adapt to the
//! core count, not just the cache size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod decluster;
pub mod join;
pub mod pipeline;
pub mod pool;
pub mod strategy;

pub use cluster::{
    par_radix_cluster, par_radix_cluster_oids, par_radix_cluster_oids_with_scratch,
    par_radix_cluster_with_scratch, par_radix_sort_oids, ParClusterScratch,
};
pub use decluster::{par_radix_decluster, par_radix_decluster_into};
pub use join::par_partitioned_hash_join;
pub use pipeline::{
    cluster_plan_for, cluster_spec_for, dsm_cluster_spec, BoxedSource, ChunkScratch,
    DsmPipelineRun, PipelineRun, PipelineStats, PreparedProjection, ProjectionPipeline,
};
pub use pool::{ExecPolicy, MorselQueue, WorkerPanic};
pub use strategy::{par_dsm_post_projection, par_nsm_post_projection_decluster};
