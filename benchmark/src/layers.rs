//! Per-layer metrics of a traced run, each obtained from outside the
//! program: stats structs after the run, the `rdx-obs` registry of an
//! observability-on session, and spans around direct calls into the three
//! kernels and the frame codec.

use crate::common::{base_config, ratio, Layers};
use crate::span::{Spans, NONE};
use crate::stats::median;
use radix_decluster::core::decluster::choose_window_bytes;
use radix_decluster::core::join::join_cluster_spec;
use radix_decluster::net::{decode_frame, encode_frame, DEFAULT_MAX_PAYLOAD};
use radix_decluster::obs::{HistogramSnapshot, HISTOGRAM_BUCKETS};
use radix_decluster::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub const MIB: f64 = 1_048_576.0;

/// Kernel and codec spans repeat this many times; the median is reported.
const KERNEL_REPS: usize = 3;
/// `Query::profiled()` runs behind the `cache.sim_*` metrics.
const PROFILED_RUNS: usize = 8;

/// The samples `name` gained between two registry snapshots (warm-up
/// samples excluded), as a histogram one can take percentiles of.
pub fn histogram_since(
    after: &MetricsSnapshot,
    before: Option<&MetricsSnapshot>,
    name: &str,
) -> HistogramSnapshot {
    let empty = HistogramSnapshot {
        buckets: [0; HISTOGRAM_BUCKETS],
        count: 0,
        sum: 0,
    };
    let a = after.histogram(name).copied().unwrap_or(empty);
    let b = before
        .and_then(|m| m.histogram(name))
        .copied()
        .unwrap_or(empty);
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for (out, (x, y)) in buckets.iter_mut().zip(a.buckets.iter().zip(&b.buckets)) {
        *out = x - y;
    }
    HistogramSnapshot {
        buckets,
        count: a.count - b.count,
        sum: a.sum.wrapping_sub(b.sum),
    }
}

/// `rdx-serve`: exact counts from `EngineStats` / `CacheStats` deltas over
/// the timed phase.  `chunks` is the number of chunks the timed queries
/// streamed in, `completed` how many finished.
pub fn serve_counts(
    layers: &mut Layers,
    engine: (EngineStats, EngineStats),
    cache: (CacheStats, CacheStats),
    chunks: u64,
    completed: u64,
) {
    let (e0, e1) = engine;
    let (c0, c1) = cache;
    let admissions = (e1.admissions - e0.admissions) as f64;
    let hits = (e1.cache_hits - e0.cache_hits) as f64;
    let misses = (e1.cache_misses - e0.cache_misses) as f64;
    layers.insert("serve.cache_hit_share", ratio(hits, hits + misses));
    layers.insert(
        "serve.cache_evictions",
        (c1.evictions - c0.evictions) as f64,
    );
    layers.insert("serve.cache_resident_mb", c1.resident_bytes as f64 / MIB);
    layers.insert("serve.admissions", admissions);
    layers.insert(
        "serve.replans_share",
        ratio((e1.replans - e0.replans) as f64, admissions),
    );
    layers.insert("serve.rejections", (e1.rejections - e0.rejections) as f64);
    layers.insert(
        "serve.chunks_per_query",
        ratio(chunks as f64, completed as f64),
    );
    layers.insert(
        "serve.scratch_reuse_share",
        ratio((e1.scratch_reuses - e0.scratch_reuses) as f64, admissions),
    );
    // Peaks are engine-lifetime values: they cannot be windowed.
    layers.insert("serve.peak_concurrency", e1.peak_concurrency as f64);
    layers.insert(
        "serve.peak_concurrent_mb",
        e1.peak_concurrent_bytes as f64 / MIB,
    );
}

/// `rdx-exec` / `rdx-cost`: chunk wall-clock and the cost model's error,
/// from the pipeline's own histograms (power-of-two buckets, so the
/// percentiles are bucket upper bounds).
pub fn pipeline_histograms(
    layers: &mut Layers,
    after: &MetricsSnapshot,
    before: Option<&MetricsSnapshot>,
) {
    let chunk = histogram_since(after, before, "pipeline.chunk_ns");
    layers.insert("exec.chunk_ms_p50", chunk.percentile(50.0) as f64 / 1e6);
    layers.insert("exec.chunk_ms_p90", chunk.percentile(90.0) as f64 / 1e6);
    let permille = histogram_since(after, before, "pipeline.predicted_vs_observed_permille");
    layers.insert(
        "cost.predicted_vs_observed_permille_p50",
        permille.percentile(50.0) as f64,
    );
    layers.insert(
        "cost.predicted_vs_observed_permille_p90",
        permille.percentile(90.0) as f64,
    );
}

/// Runs `f` [`KERNEL_REPS`] times, each as one span, and returns its last
/// output with the median duration in nanoseconds.
fn repeated<T>(name: &'static str, spans: &mut Spans, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut ns = Vec::with_capacity(KERNEL_REPS);
    let mut run = || {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        spans.push(name, NONE, NONE, start, end);
        ns.push((end - start).as_nanos() as f64);
        out
    };
    let mut out = run();
    for _ in 1..KERNEL_REPS {
        out = run();
    }
    (out, median(&ns))
}

/// `rdx-core`: spans around direct calls to the three kernels the paper is
/// about, over one pair, configured the way the planner configures them
/// for the paper's Pentium 4.  Also checks the kernels' combined output.
pub fn kernels(
    layers: &mut Layers,
    spans: &mut Spans,
    larger: &DsmRelation,
    smaller: &DsmRelation,
) -> Result<(), String> {
    let params = CacheParams::paper_pentium4();
    let l_keys = larger.key().as_slice();
    let s_keys = smaller.key().as_slice();
    let join_spec = join_cluster_spec(s_keys.len(), params.cache_capacity());
    let (cluster_spec, _) = plan_partial_cluster(s_keys.len(), 4, 8, &params);
    let window = choose_window_bytes(4, cluster_spec.num_clusters(), &params);
    let attr = smaller.attr(0).as_slice();

    let (index, join_ns) = repeated("core.kernel.hash_join", spans, || {
        partitioned_hash_join(black_box(l_keys), black_box(s_keys), join_spec)
    });
    let rows = index.len();
    let positions: Vec<Oid> = (0..rows as Oid).collect();
    let (clustered, cluster_ns) = repeated("core.kernel.cluster", spans, || {
        radix_cluster_oids(
            black_box(index.smaller()),
            black_box(&positions),
            cluster_spec,
        )
    });
    let values: Vec<i32> = clustered.keys().iter().map(|&o| attr[o as usize]).collect();
    let (result, decluster_ns) = repeated("core.kernel.decluster", spans, || {
        radix_decluster(
            black_box(&values),
            clustered.payloads(),
            clustered.bounds(),
            window,
        )
    });
    let in_order = index
        .smaller()
        .iter()
        .zip(&result)
        .all(|(&o, &v)| attr[o as usize] == v);
    if rows != l_keys.len() || !in_order {
        return Err("direct kernel calls produced a wrong projection".into());
    }

    let per_row = |ns: f64| ratio(ns, rows as f64);
    layers.insert("core.kernel.hash_join_ns_per_row", per_row(join_ns));
    layers.insert("core.kernel.cluster_ns_per_row", per_row(cluster_ns));
    layers.insert("core.kernel.decluster_ns_per_row", per_row(decluster_ns));
    Ok(())
}

/// `rdx-cache`: simulated misses per result row from `Query::profiled()`
/// runs of one pair's warm queries on a session of their own.  The
/// simulator is deterministic, so these repeat exactly.
pub fn simulated_misses(
    layers: &mut Layers,
    larger: &Arc<DsmRelation>,
    smaller: &Arc<DsmRelation>,
) -> Result<(), String> {
    let mut session = Session::new(ServeConfig {
        cache_bytes: 1 << 30,
        observability: true,
        ..base_config()
    });
    let l = session.register_arc(Arc::clone(larger));
    let s = session.register_arc(Arc::clone(smaller));
    let width = larger.width();
    let mut rows = 0u64;
    // The first `width` runs only warm the prefix cache; the profiled runs
    // that follow are the `scan_warm` query shape.
    for i in 0..width + PROFILED_RUNS {
        let mut query = session
            .query(l, s)
            .project(QuerySpec::symmetric(1 + i % width));
        if i >= width {
            query = query.profiled();
        }
        let report = query
            .run()
            .map_err(|e| format!("profiled run failed: {e}"))?;
        if i >= width {
            rows += report.stats.rows as u64;
        }
    }
    let snap = session
        .metrics()
        .ok_or("profiled session has no registry")?;
    let per_row = |name: &str| ratio(snap.counter(name).unwrap_or(0) as f64, rows as f64);
    layers.insert("cache.sim_l1_misses_per_row", per_row("profile.l1_misses"));
    layers.insert("cache.sim_l2_misses_per_row", per_row("profile.l2_misses"));
    layers.insert(
        "cache.sim_tlb_misses_per_row",
        per_row("profile.tlb_misses"),
    );
    layers.insert(
        "cache.sim_stall_cycles_per_row",
        per_row("profile.stall_cycles"),
    );
    Ok(())
}

/// `rdx-net` codec cost: a fixed-iteration loop over one `Done` frame (the
/// workload's median-sized one).
pub fn codec(layers: &mut Layers, spans: &mut Spans, done: &Frame) {
    let mut bytes = Vec::new();
    encode_frame(done, &mut bytes);
    let len = bytes.len() as f64;
    // ~32 MB through each direction, at least KERNEL_REPS iterations.
    let iterations = ((32.0 * MIB / len) as usize).max(KERNEL_REPS);
    let start = Instant::now();
    for _ in 0..iterations {
        bytes.clear();
        encode_frame(black_box(done), &mut bytes);
        black_box(&bytes);
    }
    let mid = Instant::now();
    for _ in 0..iterations {
        black_box(decode_frame(black_box(&bytes), DEFAULT_MAX_PAYLOAD).ok());
    }
    let end = Instant::now();
    spans.push("net.codec.encode_done", NONE, NONE, start, mid);
    spans.push("net.codec.decode_done", NONE, NONE, mid, end);
    let per_byte = |d: std::time::Duration| d.as_nanos() as f64 / (iterations as f64 * len);
    layers.insert("net.encode_done_ns_per_byte", per_byte(mid - start));
    layers.insert("net.decode_done_ns_per_byte", per_byte(end - mid));
}
