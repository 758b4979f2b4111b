//! # rdx-cost — hierarchical-memory cost models (paper Appendix A)
//!
//! The paper models every algorithm's cost by describing its *data access
//! pattern* in terms of a handful of basic patterns over data regions
//! ([MBK02, Man02]) and composing them sequentially (`⊕`) or concurrently
//! (`⊙`).  This crate implements:
//!
//! * [`DataRegion`] — a region `R` with `|R|` tuples of `R̄` bytes.
//! * [`patterns`] — the basic patterns: `s_trav`, `rs_trav`, `r_trav`,
//!   `r_acc`, `rr_trav` and `nest`, each yielding a per-level
//!   [`PatternCost`] (sequential misses, random misses, TLB misses, CPU work).
//! * [`compose`] — sequential and concurrent composition.
//! * [`algorithms`] — the per-algorithm cost functions of Appendix A:
//!   Radix-Cluster, Partitioned Hash-Join, the Positional-Join variants,
//!   Radix-Decluster and Left/Right Jive-Join.  These are the "modeled
//!   (lines)" of Figs. 7 and 9.
//!
//! A clustering is priced pass by pass: [`algorithms::radix_cluster`] and
//! [`algorithms::partitioned_hash_join`] take the bits of each pass, which
//! callers read from `rdx_core::cluster::RadixClusterSpec::pass_bits` of the
//! spec the kernels run (`rdx_core::join::join_passes` for the join), so
//! the model prices the passes the kernels plan.  This crate sits below
//! `rdx-core` and keeps no copy of either rule.
//!
//! ## Converting misses to time
//!
//! Random misses at level *i* are charged the full miss latency `l_i`.
//! Sequential misses benefit from hardware prefetching and open DRAM pages
//! (paper §1.1: 3.2 GB/s sequential vs. 360 MB/s "optimal" random), so they
//! are charged `min(l_i, line_size_i / sequential_bandwidth)`.  TLB misses are
//! always charged the TLB latency.  CPU work is charged directly in cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod compose;
pub mod patterns;
pub mod region;

pub use compose::{concurrent, sequential};
pub use patterns::PatternCost;
pub use region::DataRegion;

pub use rdx_cache::CacheParams;
