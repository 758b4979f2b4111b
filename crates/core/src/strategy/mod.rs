//! DSM post-projection (paper §3, §4.1) — the projected-join strategy the
//! paper contributes and the one the served library runs.
//!
//! The query is `SELECT larger.a1.., smaller.b1.. FROM larger, smaller WHERE
//! larger.key = smaller.key`: a join index first, then the projection
//! columns fetched through it, the first side by its `u`/`s`/`c` code and
//! the second by `u` or `d` (Radix-Decluster).  [`DsmPostProjection`] names
//! the codes, [`planner`] prices and picks them, [`sink`] receives the
//! result chunks and [`reference`](mod@reference) is the brute-force oracle
//! the tests compare against.  The §4 baselines it is compared with in
//! Fig. 10 live in `rdx_bench::paper`.
//!
//! An executor returns a [`StrategyOutcome`]: the materialised result columns
//! (larger-side attributes first, then smaller-side) plus per-phase wall-clock
//! timings, which is what the figure harness plots.

pub mod common;
pub mod dsm_post;
pub mod planner;
pub mod reference;
pub mod sink;

pub use common::{ProjectionCode, SecondSideCode};
pub use dsm_post::DsmPostProjection;
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
    /// In the streaming pipeline: the fetch and emit of its column chunks,
    /// the interval `pipeline.chunk_ns` records.
    pub project_larger: Duration,
    /// Positional joins for the second (smaller) side, excluding decluster.
    /// In the streaming pipeline: the fetch and emit of a `u` second side's
    /// column chunks.
    pub project_smaller: Duration,
    /// Radix-Decluster passes (second side only).  In the streaming
    /// pipeline: the staged fetch, decluster and emit of a `d` second
    /// side's column chunks, plus the prefix's clustering when folded in.
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
