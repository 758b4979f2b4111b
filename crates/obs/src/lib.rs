//! # rdx-obs — metrics and structured tracing for the radix-decluster stack
//!
//! A zero-dependency observability layer: a lock-free [`MetricsRegistry`]
//! (counters, gauges, power-of-two latency histograms with p50/p90/p99),
//! a bounded [`EventTrace`] of per-query lifecycle spans, and text / JSON /
//! Prometheus exporters.  The serving engine, the streaming pipeline and
//! the `rdx-net` wire all record through one shared [`Obs`] handle,
//! so a single snapshot can replay a query's whole life — submit →
//! admit → cache lookup → chunk steps (observed vs predicted cost) → done.
//!
//! ## The `Obs` handle
//!
//! [`Obs`] is the thing threaded through the stack, an `Arc` that clones
//! cheaply into every layer.  It **always** owns the registry every count
//! lives in; only an [`Obs::enabled`] handle also keeps a trace ring (and
//! lets per-chunk timing and profiling arm):
//!
//! ```
//! use rdx_obs::{EventKind, Obs, QueryId};
//!
//! let obs = Obs::enabled();
//! let query = QueryId::next();
//! obs.record(query, EventKind::Submit);
//! obs.record(query, EventKind::CacheLookup { hit: false });
//! obs.record(query, EventKind::Done { rows: 42, wall_ns: 1_000 });
//!
//! let trace = obs.trace_snapshot().unwrap();
//! let life: Vec<_> = trace.events_for(query).iter().map(|e| e.kind.label()).collect();
//! assert_eq!(life, ["submit", "cache_lookup", "done"]);
//!
//! // Untraced: events are dropped on one branch, counts are still kept.
//! let off = Obs::disabled();
//! off.record(query, EventKind::Submit);
//! off.metrics().counter("engine.admissions").inc();
//! assert!(off.trace_snapshot().is_none());
//! assert_eq!(off.metrics_snapshot().unwrap().counter("engine.admissions"), Some(1));
//! ```
//!
//! ## Metrics
//!
//! Instruments are clone-able handles over atomics — resolve them once
//! (per engine or per query), record from any thread without locks:
//!
//! ```
//! use rdx_obs::Obs;
//!
//! let obs = Obs::enabled();
//! let metrics = obs.metrics();
//! let latency = metrics.histogram("pipeline.chunk_ns");
//! for ns in [800u64, 950, 1200, 40_000] {
//!     latency.record(ns);
//! }
//! let snap = metrics.snapshot();
//! let h = snap.histogram("pipeline.chunk_ns").unwrap();
//! assert_eq!(h.count, 4);
//! assert!(h.percentile(50.0) < h.percentile(99.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod profile;
mod trace;

pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use profile::{MissCounts, Phase, Profile};
pub use trace::{EventKind, EventTrace, QueryId, TraceEvent, TraceSnapshot};

use std::sync::Arc;
use std::time::Instant;

/// Events the trace ring of an [`Obs::enabled`] handle retains (oldest
/// overwritten beyond this), pre-allocated up front: hundreds of queries'
/// lifecycles at typical chunk counts, ~160 KiB of ring.
pub const TRACE_CAPACITY: usize = 4096;

#[derive(Debug)]
struct ObsInner {
    metrics: MetricsRegistry,
    trace: Option<EventTrace>,
    epoch: Instant,
}

/// The shared observability handle threaded through engine, pipeline and
/// session.  Clones are cheap (one `Arc`) and share one registry; the
/// trace ring is present only on [`Obs::enabled`] handles.
#[derive(Debug, Clone)]
pub struct Obs(Arc<ObsInner>);

impl Obs {
    fn new(trace: Option<EventTrace>) -> Self {
        Obs(Arc::new(ObsInner {
            metrics: MetricsRegistry::new(),
            trace,
            epoch: Instant::now(),
        }))
    }

    /// A handle with a registry and no trace ring: every trace record is a
    /// no-op behind one branch.
    pub fn disabled() -> Self {
        Obs::new(None)
    }

    /// A handle with a registry and a [`TRACE_CAPACITY`]-event trace ring.
    pub fn enabled() -> Self {
        Obs::new(Some(EventTrace::new(TRACE_CAPACITY)))
    }

    /// Whether this handle traces (and so lets per-chunk timing and
    /// profiling arm).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.trace.is_some()
    }

    /// Records one trace event for `query` (no-op when not tracing).
    #[inline]
    pub fn record(&self, query: QueryId, kind: EventKind) {
        if let Some(trace) = &self.0.trace {
            trace.record(self.0.epoch.elapsed().as_nanos() as u64, query, kind);
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.0.metrics
    }

    /// A point-in-time copy of the registry.  Always `Some`: every handle
    /// owns a registry.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        Some(self.0.metrics.snapshot())
    }

    /// A point-in-time copy of the event trace, when tracing.
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.0.trace.as_ref().map(EventTrace::snapshot)
    }

    /// Pre-resolved [`Profile`] instruments for cache-truth accounting,
    /// when tracing (see the [`profile`](crate::Profile) subsystem).
    pub fn profile(&self) -> Option<Profile> {
        self.is_enabled().then(|| Profile::resolve(&self.0.metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_traces_nothing_but_counts() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.record(QueryId::next(), EventKind::Submit);
        assert!(obs.trace_snapshot().is_none());
        assert!(obs.profile().is_none());
        // Clones of a disabled handle stay disabled and share its registry.
        let clone = obs.clone();
        assert!(!clone.is_enabled());
        clone.metrics().counter("c").add(2);
        assert_eq!(obs.metrics_snapshot().unwrap().counter("c"), Some(2));
    }

    #[test]
    fn enabled_clones_share_one_registry_and_trace() {
        let obs = Obs::new(Some(EventTrace::new(16)));
        let clone = obs.clone();
        let q = QueryId::next();
        obs.record(q, EventKind::Submit);
        clone.record(
            q,
            EventKind::Done {
                rows: 1,
                wall_ns: 5,
            },
        );
        clone.metrics().counter("c").inc();

        let trace = obs.trace_snapshot().unwrap();
        assert_eq!(trace.events_for(q).len(), 2);
        assert_eq!(obs.metrics_snapshot().unwrap().counter("c"), Some(1));
        // Timestamps are monotone in record order.
        let events = trace.events_for(q);
        assert!(events[0].at_ns <= events[1].at_ns);
    }
}
