//! The lock-free **metrics registry**: named counters, gauges and
//! log-bucketed latency histograms.
//!
//! Recording is the hot path — worker threads record from inside the chunk
//! loop — so every instrument is a clone-able handle over atomics: a
//! [`Counter::add`], [`Gauge::set`] or [`Histogram::record`] is one or two
//! relaxed atomic RMWs, never a lock and never an allocation.  Only
//! *registration* (resolving a name to a handle, done once per query or per
//! engine) and *snapshotting* take the registry mutex.
//!
//! Histograms use power-of-two buckets: bucket `0` holds the value `0` and
//! bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, so 64 buckets cover the
//! full `u64` range with a fixed-size atomic array and relative error
//! bounded by 2×.  Percentiles ([`HistogramSnapshot::percentile`])
//! interpolate the requested rank linearly between the bounds of the bucket
//! it falls in, as Prometheus' `histogram_quantile` does, so a shift inside
//! one bucket still moves them.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two histogram buckets (covers all of `u64`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
///
/// ```
/// let registry = rdx_obs::MetricsRegistry::new();
/// let served = registry.counter("engine.served");
/// served.add(3);
/// served.add(1);
/// assert_eq!(served.get(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed gauge (resident bytes, queue depth, …).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log-bucketed histogram of `u64` samples (latencies in ns, ratios in
/// permille, bytes — anything whose distribution matters more than its
/// exact values).
///
/// ```
/// let registry = rdx_obs::MetricsRegistry::new();
/// let h = registry.histogram("pipeline.chunk_ns");
/// for v in 1..=100 {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 100);
/// assert_eq!(snap.sum, 5050);
/// // p50 is the 19th of the 32 samples in the [32, 63] bucket, read
/// // 19/32 of the way between its bounds.
/// assert_eq!(snap.percentile(50.0), 50);
/// assert_eq!(snap.percentile(99.0), 125);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// The bucket index a value lands in: `0` for `0`, else `⌊log2 v⌋ + 1`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The inclusive upper bound of bucket `i` (`0` for bucket 0, else
/// `2^i - 1`; the last bucket saturates at `u64::MAX`).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one sample.  Lock-free: two relaxed RMWs plus one on the
    /// bucket.
    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &*self.0;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| inner.buckets[i].load(Ordering::Relaxed)),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`Histogram`]'s distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow, as recorded).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The value at percentile `p` (0–100): the `⌈p/100 · count⌉`-th
    /// smallest sample, estimated by linear interpolation inside the bucket
    /// holding it.  The `k`-th of a bucket's `c` samples reads `k/c` of the
    /// way from its lower bound `2^(i-1)` to its upper bound `2^i − 1`
    /// (rounded down), so the bucket's last sample reads its upper bound.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if below + c >= rank {
                let hi = bucket_upper_bound(i);
                let lo = if i == 0 {
                    0
                } else {
                    bucket_upper_bound(i - 1) + 1
                };
                let step = u128::from(hi - lo) * u128::from(rank - below) / u128::from(c);
                return lo + step as u64;
            }
            below += c;
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Arithmetic mean of the recorded samples (exact, from the true sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The exact power-of-two bucket bounds as **cumulative** `(upper_bound,
    /// cumulative_count)` pairs, up to the highest non-empty bucket — the
    /// exposition form external scrapers can re-aggregate, unlike the
    /// derived p50/p90/p99.  Empty histogram ⇒ empty vec.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let Some(last) = self.buckets.iter().rposition(|&c| c > 0) else {
            return Vec::new();
        };
        let mut cumulative = 0u64;
        (0..=last)
            .map(|i| {
                cumulative += self.buckets[i];
                (bucket_upper_bound(i), cumulative)
            })
            .collect()
    }
}

/// One named instrument's frozen value, as a snapshot reports it.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A [`Counter`] reading.
    Counter(u64),
    /// A [`Gauge`] reading.
    Gauge(i64),
    /// A [`Histogram`] distribution (boxed: a snapshot carries its full
    /// bucket array, far larger than the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry: names to instruments.  Registration gets-or-creates (two
/// callers asking for `"engine.served"` share one counter); recording
/// through the returned handles never touches the registry again.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    instruments: Mutex<Vec<(&'static str, Instrument)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &'static str, make: impl FnOnce() -> Instrument) -> Instrument {
        let mut instruments = self.instruments.lock().expect("metrics registry poisoned");
        if let Some((_, i)) = instruments.iter().find(|(n, _)| *n == name) {
            return i.clone();
        }
        let instrument = make();
        instruments.push((name, instrument.clone()));
        instrument
    }

    /// [`MetricsRegistry::get_or_insert`] for a name built at runtime
    /// (per-tenant labels like `engine.tenant.acme.admissions`).  The name
    /// is interned — leaked into a `'static str` — exactly once per
    /// distinct string, under the registry lock, so the snapshot type stays
    /// `(&'static str, _)` and repeated registrations of the same label
    /// never grow memory.  Interning is bounded by the label population
    /// (tenants, not queries), the same registration-time-only cost the
    /// static path pays.
    fn get_or_insert_named(&self, name: &str, make: impl FnOnce() -> Instrument) -> Instrument {
        let mut instruments = self.instruments.lock().expect("metrics registry poisoned");
        if let Some((_, i)) = instruments.iter().find(|(n, _)| *n == name) {
            return i.clone();
        }
        let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let instrument = make();
        instruments.push((interned, instrument.clone()));
        instrument
    }

    /// The counter registered under `name` (created on first use).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different instrument
    /// kind.
    pub fn counter(&self, name: &'static str) -> Counter {
        match self.get_or_insert(name, || Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// The gauge registered under `name` (created on first use).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different instrument
    /// kind.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match self.get_or_insert(name, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// The histogram registered under `name` (created on first use).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different instrument
    /// kind.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match self.get_or_insert(name, || Instrument::Histogram(Histogram::default())) {
            Instrument::Histogram(h) => h,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// The counter registered under a runtime-built `name` (created on
    /// first use; the name is interned once per distinct string) — how
    /// per-tenant instruments like `engine.tenant.<name>.admissions` are
    /// registered without widening the snapshot type.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different instrument
    /// kind.
    pub fn counter_named(&self, name: &str) -> Counter {
        match self.get_or_insert_named(name, || Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// The gauge registered under a runtime-built `name` (created on first
    /// use; the name is interned once per distinct string).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different instrument
    /// kind.
    pub fn gauge_named(&self, name: &str) -> Gauge {
        match self.get_or_insert_named(name, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// A point-in-time copy of every registered instrument, in registration
    /// order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let instruments = self.instruments.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            metrics: instruments
                .iter()
                .map(|(name, i)| {
                    let value = match i {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    };
                    (*name, value)
                })
                .collect(),
        }
    }
}

/// A frozen copy of a whole [`MetricsRegistry`], with text / JSON /
/// Prometheus exporters.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in registration order.
    pub metrics: Vec<(&'static str, MetricValue)>,
}

impl MetricsSnapshot {
    /// The value registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// The counter value under `name` (`None` if absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value under `name` (`None` if absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram under `name` (`None` if absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// A human-readable table, one instrument per line.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name:<44} counter {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name:<44} gauge   {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name:<44} hist    count={} mean={:.1} p50={} p90={} p99={}",
                        h.count,
                        h.mean(),
                        h.percentile(50.0),
                        h.percentile(90.0),
                        h.percentile(99.0),
                    );
                }
            }
        }
        out
    }

    /// A Prometheus text-exposition string: counters and gauges as-is,
    /// histograms as native `histogram` metrics with **cumulative `le`
    /// buckets** at the exact power-of-two bounds (inclusive upper bounds,
    /// matching Prometheus `le` semantics), capped by the mandatory
    /// `le="+Inf"` bucket.  Metric names have `.` replaced by `_` and an
    /// `rdx_` prefix.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mangle = |name: &str| format!("rdx_{}", name.replace('.', "_"));
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let m = mangle(name);
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {m} counter\n{m} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {m} gauge\n{m} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {m} histogram");
                    for (le, cumulative) in h.cumulative_buckets() {
                        // The saturated top bucket is covered by +Inf below.
                        if le == u64::MAX {
                            continue;
                        }
                        let _ = writeln!(out, "{m}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{m}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{m}_sum {}\n{m}_count {}", h.sum, h.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2_plus_one() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every bucket's upper bound lands in its own bucket.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn percentiles_interpolate_inside_the_containing_bucket() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        // Cumulative counts: [0,1], [2,3]→3, [4,7]→7, [8,15]→15,
        // [16,31]→31, [32,63]→63, [64,127]→100.  Rank 50 is the 19th of
        // 32 in [32, 63]: 32 + 31·19/32 = 50.
        assert_eq!(s.percentile(50.0), 50);
        // A bucket's last sample reads its upper bound, the next rank the
        // next bucket's first step: 64 + 63·1/37 = 65.
        assert_eq!(s.percentile(63.0), 63);
        assert_eq!(s.percentile(64.0), 65);
        // 64 + 63·27/37 = 109 and 64 + 63·36/37 = 125.
        assert_eq!(s.percentile(90.0), 109);
        assert_eq!(s.percentile(99.0), 125);
        assert_eq!(s.percentile(100.0), 127);
        assert_eq!(s.percentile(1.0), 1);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        // Two ranks inside one bucket read apart: 32 + 31·29/32 = 60.
        assert_eq!(s.percentile(60.0), 60);
        // The widest bucket does not overflow.
        let top = Histogram::default();
        top.record(u64::MAX);
        top.record(u64::MAX);
        assert_eq!(
            top.snapshot().percentile(50.0),
            (1 << 62) + (u64::MAX - (1 << 62)) / 2
        );
        assert_eq!(top.snapshot().percentile(100.0), u64::MAX);
    }

    #[test]
    fn empty_and_zero_histograms() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().percentile(50.0), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.percentile(99.0), 0);
    }

    #[test]
    fn registry_shares_instruments_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("x").get(), 3);
        let g = registry.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(registry.gauge("depth").get(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("x"), Some(3));
        assert_eq!(snap.gauge("depth"), Some(3));
        assert!(snap.get("missing").is_none());
    }

    #[test]
    fn named_registration_interns_once_and_shares_with_static_names() {
        let registry = MetricsRegistry::new();
        // A runtime-built name registers, dedupes against itself, and shows
        // up in snapshots like any static name.
        let tenant = "acme";
        let a = registry.counter_named(&format!("engine.tenant.{tenant}.admissions"));
        let b = registry.counter_named(&format!("engine.tenant.{tenant}.admissions"));
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.tenant.acme.admissions"), Some(5));
        // Static and named registration of the same string share one
        // instrument.
        registry.counter("engine.shared").add(1);
        registry.counter_named("engine.shared").add(2);
        assert_eq!(registry.snapshot().counter("engine.shared"), Some(3));
        // Gauges take the same path.
        registry.gauge_named("engine.tenant.acme.in_flight").set(2);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("engine.tenant.acme.in_flight"), Some(2));
        // Exporters render interned names unchanged.
        assert!(snap
            .to_prometheus()
            .contains("rdx_engine_tenant_acme_in_flight 2"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn named_kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter_named("engine.tenant.x.admissions");
        registry.gauge_named("engine.tenant.x.admissions");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn exporters_render_all_three_kinds() {
        let registry = MetricsRegistry::new();
        registry.counter("engine.served").add(7);
        registry.gauge("engine.in_flight").set(2);
        let h = registry.histogram("pipeline.chunk_ns");
        h.record(100);
        h.record(1000);
        let snap = registry.snapshot();

        let text = snap.to_text();
        assert!(text.contains("engine.served"));
        assert!(text.contains("counter 7"));
        assert!(text.contains("p50="));

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE rdx_engine_served counter"));
        assert!(prom.contains("rdx_engine_served 7"));
        assert!(prom.contains("# TYPE rdx_pipeline_chunk_ns histogram"));
        assert!(prom.contains("rdx_pipeline_chunk_ns_bucket{le=\"127\"} 1"));
        assert!(prom.contains("rdx_pipeline_chunk_ns_bucket{le=\"1023\"} 2"));
        assert!(prom.contains("rdx_pipeline_chunk_ns_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("rdx_pipeline_chunk_ns_count 2"));
    }

    #[test]
    fn cumulative_buckets_are_exact_and_reaggregatable() {
        let h = Histogram::default();
        assert!(h.snapshot().cumulative_buckets().is_empty());
        h.record(0);
        h.record(1);
        h.record(5);
        h.record(5);
        let buckets = h.snapshot().cumulative_buckets();
        // 0 → bucket 0 (le=0); 1 → bucket 1 (le=1); 5,5 → bucket 3 (le=7).
        assert_eq!(buckets, vec![(0, 1), (1, 2), (3, 2), (7, 4)]);
        // Cumulative counts are monotone and end at the total count.
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(buckets.last().unwrap().1, 4);

        // The saturated top bucket defers to +Inf in the Prometheus form.
        let registry = MetricsRegistry::new();
        let big = registry.histogram("big");
        big.record(u64::MAX);
        let prom = registry.snapshot().to_prometheus();
        assert!(!prom.contains(&format!("le=\"{}\"", u64::MAX)));
        assert!(prom.contains("rdx_big_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("c");
        let h = registry.histogram("h");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (c, h) = (c.clone(), h.clone());
                scope.spawn(move || {
                    for v in 0..1000u64 {
                        c.inc();
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.snapshot().count, 4000);
    }
}
