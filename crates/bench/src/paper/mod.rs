//! The baselines of the paper's evaluation (§4.2, §5): what DSM
//! post-projection with Radix-Decluster is measured against.
//!
//! The served library (`rdx-core` and the crates above it) runs one
//! algorithm, DSM post-projection.  The strategies it is compared with in
//! Figs. 9e/f, 10 and 12 are kept here, beside the `figures` harness that
//! draws them:
//!
//! | name (Fig. 10 legend)   | storage | projection timing | module |
//! |--------------------------|---------|-------------------|--------|
//! | `DSM-post-decluster`     | DSM     | post (u/s/c/d codes) | `rdx_core::strategy::dsm_post` |
//! | `DSM-pre-phash`          | DSM     | pre, Partitioned Hash-Join | [`dsm_pre`] |
//! | `NSM-pre-hash`           | NSM     | pre, naive Hash-Join | [`nsm_pre`] |
//! | `NSM-pre-phash`          | NSM     | pre, Partitioned Hash-Join | [`nsm_pre`] |
//! | `NSM-post-decluster`     | NSM     | post, Radix-Decluster | [`nsm_post`] |
//! | `NSM-post-jive`          | NSM     | post, Jive-Join | [`nsm_post`] |
//!
//! The three pre-projection plans differ only in their scan: each builds
//! row-major wide tuples, and one private module (`wide`) holds their
//! one multi-pass wide-tuple Radix-Cluster, planned by
//! `RadixClusterSpec::pass_bits`, and their one per-partition Hash-Join.
//!
//! [`jive`] is Jive-Join \[LR99\] itself (Figs. 9e/f), and [`paged`] the §5
//! Radix-Decluster into buffer-manager pages with variable-size values
//! (Fig. 12).  Every strategy returns a
//! [`StrategyOutcome`](rdx_core::strategy::StrategyOutcome): the result
//! columns (larger-side attributes first, then smaller-side) plus per-phase
//! wall-clock timings.

pub mod dsm_pre;
pub mod jive;
pub mod nsm_post;
pub mod nsm_pre;
pub mod paged;
mod wide;

pub use dsm_pre::dsm_pre_projection;
pub use nsm_post::{nsm_post_projection_decluster, nsm_post_projection_jive};
pub use nsm_pre::{nsm_pre_projection_hash, nsm_pre_projection_phash};
pub use paged::radix_decluster_paged;
