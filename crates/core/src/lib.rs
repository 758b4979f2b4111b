//! # rdx-core — Cache-conscious Radix-Decluster projections
//!
//! The paper's one algorithm — DSM post-projection with Radix-Cluster and
//! Radix-Decluster — built on the `rdx-dsm` storage substrate.  The §4 / §5
//! baselines it is measured against live in `rdx_bench::paper`, beside the
//! harness that draws the figures:
//!
//! * [`hash`] — the integer hash used to derive radix bits from join keys
//!   (oids are clustered without hashing, as the paper prescribes).
//! * [`cluster`] — **Radix-Cluster**: multi-pass partitioning on `B` radix
//!   bits with `P` passes, the *partial* variant that ignores the lowermost
//!   `I` bits (§3.1), Radix-Sort as the all-bits special case, and
//!   `radix_count` for recovering cluster boundaries.
//! * [`join`] — bucket-chained Hash-Join and the cache-conscious
//!   **Partitioned Hash-Join** (§2.1), producing a [`rdx_dsm::JoinIndex`].
//! * [`positional`] — the Positional-Join variants (unsorted / sorted /
//!   clustered / sparse) used by every post-projection strategy (§3).
//! * [`decluster`] — **Radix-Decluster** (§3.2, Fig. 5/6), the paper's main
//!   contribution.  The windowed kernel, like the Radix-Cluster scatter
//!   and the DSM gather, takes an `rdx-cache` probe, so the simulator's
//!   Fig. 7a / 9 miss counts are those of the shipped loops.
//! * [`strategy`] — DSM post-projection (the u/s/c × u/d codes of §4.1), its
//!   cost-model planner, the result sinks and the brute-force reference.
//! * [`error`] — the workspace-wide [`RdxError`] hierarchy: every fallible
//!   path (budget checks, catalog lookups, projection-spec validation, the
//!   ticket front, deadlines, cancellation, worker panics) reports this one
//!   type.
//! * [`fault`] — the deterministic fault-injection harness
//!   ([`FaultPlan`] / [`FaultInjector`]) and the drive-step-measured
//!   [`RetryPolicy`]: scripted panics, slowdowns, grant denials and cache
//!   evictions, so every degradation path is a pure function of a script.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cluster;
pub mod decluster;
pub mod error;
pub mod fault;
pub mod hash;
pub mod join;
pub mod positional;
pub mod strategy;

pub use budget::{BudgetError, MemoryBudget};
pub use cluster::{
    radix_cluster, radix_cluster_oids, radix_count, ClusterScratch, Clustered, RadixClusterSpec,
};
pub use decluster::chunks::{ChunkCursorState, ChunkRuns};
pub use decluster::{
    choose_window_bytes, radix_decluster, radix_decluster_windows_with_scratch, window_elems,
    DeclusterScratch,
};
pub use error::{DeadlineError, RdxError, Side, TenantQuotaKind};
pub use fault::{FaultAction, FaultInjector, FaultPlan, RetryPolicy};
pub use join::{hash_join, partitioned_hash_join};
pub use strategy::{DsmPostProjection, ProjectionCode, QuerySpec};
