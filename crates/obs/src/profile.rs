//! The **Profile** subsystem: cache-truth accounting for profiled runs.
//!
//! When a pipeline runs in profiled mode it charges every chunk's memory
//! accesses to the `rdx-cache` simulator and learns *simulated* cache/TLB
//! miss counts — deterministic numbers that survive any container, unlike
//! wall-clock.  This module gives those numbers a first-class home in the
//! observability layer:
//!
//! * per-phase **span accounting** (cluster / fetch / decluster wall-clock
//!   histograms), and
//! * per-chunk **[`MissCounts`]** recorded as histograms plus running
//!   counters, carried on [`EventKind::ChunkProfile`] trace events adjacent
//!   to each `ChunkStep`.
//!
//! Like every other instrument here, a [`Profile`] is a bundle of
//! pre-resolved clone-able handles: resolving touches the registry mutex
//! once, recording is lock-free and allocation-free.  `rdx-obs` stays
//! zero-dependency — the cache simulator's `EventCounts` converts into the
//! plain [`MissCounts`] at the recording site.
//!
//! ```
//! use rdx_obs::{MissCounts, Obs, Phase, QueryId};
//!
//! let obs = Obs::enabled();
//! let profile = obs.profile().unwrap();
//! let query = QueryId::next();
//!
//! profile.record_span(Phase::Cluster, 12_000);
//! profile.record_chunk(
//!     &obs,
//!     query,
//!     0,
//!     MissCounts { accesses: 4096, l1_misses: 300, l2_misses: 40, tlb_misses: 12, stall_cycles: 9500 },
//! );
//!
//! let snap = obs.metrics_snapshot().unwrap();
//! assert_eq!(snap.counter("profile.l2_misses"), Some(40));
//! assert_eq!(snap.histogram("profile.chunk.l1_misses").unwrap().count, 1);
//! let trace = obs.trace_snapshot().unwrap();
//! assert_eq!(trace.events_for(query)[0].kind.label(), "chunk_profile");
//! ```

use crate::{Counter, EventKind, Histogram, MetricsRegistry, QueryId};

/// The pipeline phases the profiler accounts spans to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Radix-clustering the join index (prepare-time, shared prefix).
    Cluster,
    /// Positional fetches of payload columns (both sides).
    Fetch,
    /// Radix-declustering staged values back to output order.
    Decluster,
}

impl Phase {
    /// A short static label (`cluster` / `fetch` / `decluster`).
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Cluster => "cluster",
            Phase::Fetch => "fetch",
            Phase::Decluster => "decluster",
        }
    }
}

/// Simulated cache truth for one unit of work — plain counts, so this crate
/// needs no dependency on the cache simulator.  A pure function of the
/// probed kernels' access pattern: identical inputs give identical counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissCounts {
    /// Memory accesses issued.
    pub accesses: u64,
    /// Simulated L1 data-cache misses.
    pub l1_misses: u64,
    /// Simulated L2 cache misses.
    pub l2_misses: u64,
    /// Simulated TLB misses.
    pub tlb_misses: u64,
    /// Modeled stall cycles under the profiling cache parameters.
    pub stall_cycles: u64,
}

impl MissCounts {
    /// Folds `other` into `self`.
    pub fn accumulate(&mut self, other: MissCounts) {
        self.accesses += other.accesses;
        self.l1_misses += other.l1_misses;
        self.l2_misses += other.l2_misses;
        self.tlb_misses += other.tlb_misses;
        self.stall_cycles += other.stall_cycles;
    }
}

/// Pre-resolved instrument handles for profiled runs: three per-phase span
/// histograms, per-chunk miss-count histograms and running totals.
/// Resolve once per query via [`crate::Obs::profile`]; clones share the
/// same instruments.
#[derive(Debug, Clone)]
pub struct Profile {
    cluster_ns: Histogram,
    fetch_ns: Histogram,
    decluster_ns: Histogram,
    chunk_accesses: Histogram,
    chunk_l1: Histogram,
    chunk_l2: Histogram,
    chunk_tlb: Histogram,
    chunk_stall: Histogram,
    total_accesses: Counter,
    total_l1: Counter,
    total_l2: Counter,
    total_tlb: Counter,
    total_stall: Counter,
}

impl Profile {
    /// Resolves the profile instruments in `metrics` (created on first
    /// use, shared thereafter).
    pub fn resolve(metrics: &MetricsRegistry) -> Self {
        Profile {
            cluster_ns: metrics.histogram("profile.phase.cluster_ns"),
            fetch_ns: metrics.histogram("profile.phase.fetch_ns"),
            decluster_ns: metrics.histogram("profile.phase.decluster_ns"),
            chunk_accesses: metrics.histogram("profile.chunk.accesses"),
            chunk_l1: metrics.histogram("profile.chunk.l1_misses"),
            chunk_l2: metrics.histogram("profile.chunk.l2_misses"),
            chunk_tlb: metrics.histogram("profile.chunk.tlb_misses"),
            chunk_stall: metrics.histogram("profile.chunk.stall_cycles"),
            total_accesses: metrics.counter("profile.accesses"),
            total_l1: metrics.counter("profile.l1_misses"),
            total_l2: metrics.counter("profile.l2_misses"),
            total_tlb: metrics.counter("profile.tlb_misses"),
            total_stall: metrics.counter("profile.stall_cycles"),
        }
    }

    /// Records one wall-clock span against `phase`.
    #[inline]
    pub fn record_span(&self, phase: Phase, ns: u64) {
        match phase {
            Phase::Cluster => self.cluster_ns.record(ns),
            Phase::Fetch => self.fetch_ns.record(ns),
            Phase::Decluster => self.decluster_ns.record(ns),
        }
    }

    /// Records one chunk's simulated miss counts: per-chunk histograms,
    /// running totals, and a [`EventKind::ChunkProfile`] trace event for
    /// `query` (adjacent to the chunk's `ChunkStep`).
    pub fn record_chunk(&self, obs: &crate::Obs, query: QueryId, chunk: u32, counts: MissCounts) {
        self.chunk_accesses.record(counts.accesses);
        self.chunk_l1.record(counts.l1_misses);
        self.chunk_l2.record(counts.l2_misses);
        self.chunk_tlb.record(counts.tlb_misses);
        self.chunk_stall.record(counts.stall_cycles);
        self.total_accesses.add(counts.accesses);
        self.total_l1.add(counts.l1_misses);
        self.total_l2.add(counts.l2_misses);
        self.total_tlb.add(counts.tlb_misses);
        self.total_stall.add(counts.stall_cycles);
        obs.record(
            query,
            EventKind::ChunkProfile {
                chunk,
                accesses: counts.accesses,
                l1_misses: counts.l1_misses,
                l2_misses: counts.l2_misses,
                tlb_misses: counts.tlb_misses,
                stall_cycles: counts.stall_cycles,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn phases_have_distinct_labels_and_instruments() {
        let obs = Obs::enabled();
        let profile = obs.profile().unwrap();
        profile.record_span(Phase::Cluster, 10);
        profile.record_span(Phase::Fetch, 20);
        profile.record_span(Phase::Fetch, 30);
        profile.record_span(Phase::Decluster, 40);
        let snap = obs.metrics_snapshot().unwrap();
        assert_eq!(snap.histogram("profile.phase.cluster_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("profile.phase.fetch_ns").unwrap().count, 2);
        assert_eq!(
            snap.histogram("profile.phase.decluster_ns").unwrap().count,
            1
        );
        assert_eq!(
            [Phase::Cluster, Phase::Fetch, Phase::Decluster].map(|p| p.label()),
            ["cluster", "fetch", "decluster"]
        );
    }

    #[test]
    fn chunk_counts_feed_histograms_totals_and_trace() {
        let obs = Obs::enabled();
        let profile = obs.profile().unwrap();
        let q = QueryId::next();
        let mut totals = MissCounts::default();
        for chunk in 0..3u32 {
            let counts = MissCounts {
                accesses: 1000 * (chunk as u64 + 1),
                l1_misses: 100,
                l2_misses: 10,
                tlb_misses: 5,
                stall_cycles: 2500,
            };
            totals.accumulate(counts);
            profile.record_chunk(&obs, q, chunk, counts);
        }
        let snap = obs.metrics_snapshot().unwrap();
        assert_eq!(snap.counter("profile.accesses"), Some(totals.accesses));
        assert_eq!(snap.counter("profile.l1_misses"), Some(300));
        assert_eq!(snap.counter("profile.stall_cycles"), Some(7500));
        assert_eq!(snap.histogram("profile.chunk.l2_misses").unwrap().count, 3);

        let events = obs.trace_snapshot().unwrap().events_for(q);
        assert_eq!(events.len(), 3);
        for (i, e) in events.iter().enumerate() {
            match e.kind {
                EventKind::ChunkProfile {
                    chunk, l1_misses, ..
                } => {
                    assert_eq!(chunk as usize, i);
                    assert_eq!(l1_misses, 100);
                }
                ref other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn disabled_obs_yields_no_profile() {
        assert!(Obs::disabled().profile().is_none());
    }
}
