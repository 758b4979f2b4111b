//! # rdx-exec — parallel execution engine
//!
//! The paper's kernels are embarrassingly partitionable: Radix-Cluster is a
//! stable counting sort (per-thread histograms merge with a prefix sum),
//! Radix-Decluster's insertion windows tile the result disjointly, and
//! Partitioned Hash-Join's partitions are independent by construction.  This
//! crate exploits that with one worker runtime: every parallel kernel cuts
//! its work into disjoint items — input shards, window groups, gather
//! morsels, join partitions — that idle workers claim one at a time, and
//! all mutation happens through disjoint `&mut` slices (`chunks_mut`) so
//! the whole engine stays inside `#![forbid(unsafe_code)]`.  On one worker
//! every wrapper is one call of its sequential `rdx-core` kernel.
//!
//! Layering:
//!
//! * [`pool`] — [`ExecPolicy`] (thread count + memory budget), the one
//!   spawn site [`pool::run_workers`], which re-raises a crashed worker as
//!   a [`WorkerPanic`], and the one claim helper [`pool::Claims`].
//! * [`cluster`] — parallel Radix-Cluster (a Radix-Sort is one on
//!   `radix_sort_spec_for`): each worker fills its own `Clustered` from its
//!   shard, the per-shard cluster sizes prefix-sum into global borders and
//!   the shards merge in order.  Byte-identical to the sequential kernels.
//! * [`decluster`] — parallel Radix-Decluster: independent insertion-window
//!   ranges per worker, cursors recovered by binary search.  Byte-identical
//!   to the sequential kernel.
//! * [`join`] — parallel Partitioned Hash-Join over independent partitions.
//! * [`pipeline`] — the memory-budgeted **streaming** projection pipeline:
//!   cluster → decluster → fetch in chunks sized by an explicit
//!   [`rdx_core::budget::MemoryBudget`], emitting through a
//!   [`rdx_core::strategy::RowChunkSink`]; a whole result is the one-chunk
//!   stream, [`ProjectionPipeline::materialize`].  Its `u`/`s`/`c` reorder
//!   runs on the parallel cluster kernel and its positional joins on
//!   [`par_gather_into`].
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

pub use cluster::{par_radix_cluster, par_radix_cluster_oids};
pub use decluster::par_radix_decluster_into;
pub use join::par_partitioned_hash_join;
pub use pipeline::{
    cluster_spec_for, par_gather_into, ChunkScratch, PipelineRun, PipelineStats,
    PreparedProjection, ProjectionPipeline,
};
pub use pool::{ExecPolicy, WorkerPanic};
