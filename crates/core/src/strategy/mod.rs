//! End-to-end projected-join strategies (paper §4).
//!
//! Every strategy answers the same query
//! (`SELECT larger.a1.., smaller.b1.. FROM larger, smaller WHERE larger.key =
//! smaller.key`) and differs only in *when* and *how* the projection columns
//! are handled:
//!
//! | name (Fig. 10 legend)   | storage | projection timing | module |
//! |--------------------------|---------|-------------------|--------|
//! | `DSM-post-decluster`     | DSM     | post (u/s/c/d codes) | [`dsm_post`] |
//! | `DSM-pre-phash`          | DSM     | pre, Partitioned Hash-Join | [`dsm_pre`] |
//! | `NSM-pre-hash`           | NSM     | pre, naive Hash-Join | [`nsm_pre`] |
//! | `NSM-pre-phash`          | NSM     | pre, Partitioned Hash-Join | [`nsm_pre`] |
//! | `NSM-post-decluster`     | NSM     | post, Radix-Decluster | [`nsm_post`] |
//! | `NSM-post-jive`          | NSM     | post, Jive-Join | [`nsm_post`] |
//!
//! All executors return a [`StrategyOutcome`]: the materialised result columns
//! (larger-side attributes first, then smaller-side) plus per-phase wall-clock
//! timings, which is what the figure harness plots.

pub mod common;
pub mod dsm_post;
pub mod dsm_pre;
pub mod nsm_post;
pub mod nsm_pre;
pub mod planner;
pub mod reference;
pub mod sink;

pub use common::{ProjectionCode, SecondSideCode};
pub use dsm_post::DsmPostProjection;
pub use dsm_pre::dsm_pre_projection;
pub use nsm_post::{nsm_post_projection_decluster, nsm_post_projection_jive};
pub use nsm_pre::{nsm_pre_projection_hash, nsm_pre_projection_phash};
pub use planner::{plan_by_cost, plan_streaming, StreamingPlan};
pub use sink::{CountingSink, DoneHead, FrameSink, MaterializeSink, RowChunkSink};

use rdx_dsm::ResultRelation;
use std::time::Duration;

/// How many columns the query projects from each side
/// (`π` in the paper, split per relation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySpec {
    /// Number of attribute columns projected from the larger relation.
    pub project_larger: usize,
    /// Number of attribute columns projected from the smaller relation.
    pub project_smaller: usize,
}

impl QuerySpec {
    /// Projects `pi` columns from each side (the symmetric setting used in
    /// most of the paper's plots).
    pub fn symmetric(pi: usize) -> Self {
        QuerySpec {
            project_larger: pi,
            project_smaller: pi,
        }
    }

    /// Total number of projected columns.
    pub fn total(&self) -> usize {
        self.project_larger + self.project_smaller
    }
}

/// Wall-clock phase breakdown of one strategy execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Creating the join index (scan/cluster/hash-join), or the full
    /// pre-projected join for pre-projection strategies.
    pub join: Duration,
    /// Re-ordering of the join index (Radix-Sort / partial Radix-Cluster).
    pub reorder: Duration,
    /// Positional joins / record projections for the first (larger) side.
    pub project_larger: Duration,
    /// Positional joins for the second (smaller) side, excluding decluster.
    pub project_smaller: Duration,
    /// Radix-Decluster passes (second side only).
    pub decluster: Duration,
}

impl PhaseTimings {
    /// Total wall-clock time across all phases.
    pub fn total(&self) -> Duration {
        self.join + self.reorder + self.project_larger + self.project_smaller + self.decluster
    }

    /// Total time in milliseconds (convenience for the figure harness).
    pub fn total_millis(&self) -> f64 {
        self.total().as_secs_f64() * 1e3
    }
}

/// The materialised result of one strategy plus its phase timings.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// Result columns: larger-side projections first, then smaller-side.
    pub result: ResultRelation,
    /// Wall-clock phase breakdown.
    pub timings: PhaseTimings,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_spec_helpers() {
        let q = QuerySpec::symmetric(4);
        assert_eq!(q.project_larger, 4);
        assert_eq!(q.project_smaller, 4);
        assert_eq!(q.total(), 8);
    }

    #[test]
    fn timings_total_sums_phases() {
        let t = PhaseTimings {
            join: Duration::from_millis(10),
            reorder: Duration::from_millis(5),
            project_larger: Duration::from_millis(3),
            project_smaller: Duration::from_millis(2),
            decluster: Duration::from_millis(1),
        };
        assert_eq!(t.total(), Duration::from_millis(21));
        assert!((t.total_millis() - 21.0).abs() < 1e-9);
    }
}
