//! `scan_cold` and `scan_warm`: in-process
//! `session.query(l, s).project(symmetric(π)).run()` over one 1M-row pair,
//! π cycling through [`CYCLE`] — with the prefix cache off (every query pays
//! join → reorder → Radix-Cluster → decluster) or warm (only the paper's
//! own kernel loop remains).

use crate::common::{base_config, ratio, timed_count, Args, Layers, Measured, Timed};
use crate::layers::{self, MIB};
use crate::oracle;
use crate::span::{Spans, NONE};
use crate::stats::median;
use radix_decluster::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per relation and columns per side (the issue's N and ω).
const ROWS: usize = 1_000_000;
const WIDTH: usize = 4;
/// The projection widths the queries cycle through.  Warm latency is a
/// step function of π (≈ 7 ms per projected column pair), and with four
/// equally frequent classes the nearest-rank p50 would be the *slowest*
/// π = 2 query of the run — a tail statistic that moved 16 % between
/// identical runs.  Weighting π = 3 twice puts the p50 rank inside the
/// π = 3 class and the p90 rank in the middle of the π = 4 class.
const CYCLE: [usize; 5] = [1, 2, 3, 3, 4];
/// Frozen timed-query rates (queries/s on the reference box, see README):
/// `count = rate × --seconds`, so counts — and counters — repeat exactly.
const COLD_RATE_QPS: f64 = 2.3;
const WARM_RATE_QPS: f64 = 45.0;
/// Warm-up passes over [`CYCLE`]: one for the cold shape (nothing to
/// prepare, only allocator and scratch warm-up), two for the warm shape
/// (first prepares every prefix, second confirms the hit path).
const COLD_WARMUP_CYCLES: usize = 1;
const WARM_WARMUP_CYCLES: usize = 2;

/// A set-up scan workload, ready to time.
pub struct Env {
    session: Session,
    l: RelationId,
    s: RelationId,
    larger: Arc<DsmRelation>,
    smaller: Arc<DsmRelation>,
    /// Reference checksum per π (index π − 1).
    checks: Vec<u64>,
    count: usize,
    traced: bool,
    generate_s: f64,
}

fn run_one(env: &mut Env, project: usize) -> (Instant, Instant, Result<QueryStats, String>) {
    let start = Instant::now();
    let outcome = env
        .session
        .query(env.l, env.s)
        .project(QuerySpec::symmetric(project))
        .run();
    let end = Instant::now();
    // Verification happens after the latency timestamp.
    let checked = match outcome {
        Ok(report) => {
            let sum = oracle::ordered(report.result.columns().iter().map(|c| c.as_slice()));
            if sum == env.checks[project - 1] {
                Ok(report.stats)
            } else {
                Err(format!("π={project}: result differs from the solo run"))
            }
        }
        Err(e) => Err(format!("π={project}: {e}")),
    };
    (start, end, checked)
}

/// Generates the pair, computes the oracle, opens the session and warms it
/// up — everything before the first timed query.
pub fn setup(args: &Args, cold: bool, traced: bool, spans: &mut Spans) -> Result<Env, String> {
    let rows = (ROWS / args.shrink).max(1);
    let (pair, generate_s) = spans.time("workload.generate", || {
        JoinWorkloadBuilder::equal(rows, WIDTH)
            .hit_rate(workload::HitRate(1.0))
            .seed(args.seed)
            .build()
    });
    let (larger, smaller) = (Arc::new(pair.larger), Arc::new(pair.smaller));
    let (checks, _) = spans.time("oracle", || oracle::reference_checksums(&larger, &smaller));
    let checks = checks?;

    let mut session = Session::new(ServeConfig {
        cache_bytes: if cold { 0 } else { 1 << 30 },
        observability: traced,
        ..base_config()
    });
    let l = session.register_arc(Arc::clone(&larger));
    let s = session.register_arc(Arc::clone(&smaller));
    let (rate, warmup_cycles) = if cold {
        (COLD_RATE_QPS, COLD_WARMUP_CYCLES)
    } else {
        (WARM_RATE_QPS, WARM_WARMUP_CYCLES)
    };
    let mut env = Env {
        session,
        l,
        s,
        larger,
        smaller,
        checks,
        count: timed_count(rate, args.seconds, args.shrink, CYCLE.len(), CYCLE.len()),
        traced,
        generate_s,
    };
    let warm_start = Instant::now();
    for i in 0..warmup_cycles * CYCLE.len() {
        run_one(&mut env, CYCLE[i % CYCLE.len()]).2?;
    }
    spans.push("warmup", NONE, NONE, warm_start, Instant::now());
    Ok(env)
}

/// What a traced pass sums over the timed queries' `QueryStats`.
#[derive(Default)]
struct StatSums {
    run_wall: Duration,
    phases: Duration,
    rows: u64,
    chunks: u64,
    miss_rows: u64,
    join: Duration,
    reorder: Duration,
    fetch: Duration,
    fetched_values: u64,
    decluster: Duration,
    declustered_values: u64,
    peak_chunk_bytes: usize,
    prepare_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
}

impl StatSums {
    fn add(&mut self, stats: &QueryStats, project: usize, wall: Duration) {
        let t = &stats.timings;
        self.run_wall += wall;
        self.phases += t.total();
        self.rows += stats.rows as u64;
        self.chunks += stats.chunks as u64;
        if !stats.cache_hit {
            self.miss_rows += stats.rows as u64;
            self.join += t.join;
            self.reorder += t.reorder;
            self.prepare_ms
                .push((t.join + t.reorder).as_secs_f64() * 1e3);
        }
        self.fetch += t.project_larger + t.project_smaller;
        self.fetched_values += (stats.rows * 2 * project) as u64;
        self.decluster += t.decluster;
        self.declustered_values += (stats.rows * project) as u64;
        self.peak_chunk_bytes = self.peak_chunk_bytes.max(stats.peak_chunk_bytes);
        self.wait_ms.push(stats.wait.as_secs_f64() * 1e3);
        self.service_ms.push(stats.service.as_secs_f64() * 1e3);
    }

    fn layers(&self, layers: &mut Layers) {
        let per = |d: Duration, n: u64| ratio(d.as_nanos() as f64, n as f64);
        layers.insert("core.join_ns_per_row", per(self.join, self.miss_rows));
        layers.insert("core.reorder_ns_per_row", per(self.reorder, self.miss_rows));
        layers.insert(
            "core.fetch_ns_per_value",
            per(self.fetch, self.fetched_values),
        );
        layers.insert(
            "core.decluster_ns_per_value",
            per(self.decluster, self.declustered_values),
        );
        layers.insert("exec.prepare_ms_p50", median(&self.prepare_ms));
        layers.insert(
            "exec.working_set_peak_mb",
            self.peak_chunk_bytes as f64 / MIB,
        );
        layers.insert("serve.queue_wait_ms_p50", median(&self.wait_ms));
        layers.insert("serve.service_ms_p50", median(&self.service_ms));
        layers.insert(
            "api.run_unaccounted_share",
            1.0 - self.phases.as_secs_f64() / self.run_wall.as_secs_f64(),
        );
    }
}

impl Env {
    /// Runs the timed queries; a traced pass also derives the per-layer
    /// metrics.
    pub fn measure(mut self, spans: &mut Spans) -> Result<Measured, String> {
        let mut timed = Timed::default();
        let mut sums = StatSums::default();
        let engine_before = self.session.engine_mut().stats();
        let cache_before = self.session.cache_stats();
        let metrics_before = self.session.metrics();
        for i in 0..self.count {
            let project = CYCLE[i % CYCLE.len()];
            let (start, end, checked) = run_one(&mut self, project);
            spans.push("api.run", i as u32, NONE, start, end);
            timed.attempted += 1;
            let wall = end - start;
            match checked {
                Ok(stats) => {
                    timed.latencies_ns.push(wall.as_nanos() as u64);
                    sums.add(&stats, project, wall);
                }
                Err(why) => {
                    eprintln!("failed query {i}: {why}");
                    timed.failed += 1;
                }
            }
            // The caller blocks in `run()`, so the timed wall is the sum of
            // the latencies; verification in between is not counted.
            timed.wall_s += wall.as_secs_f64();
        }

        let mut layers = Layers::new();
        if self.traced {
            let completed = timed.latencies_ns.len() as u64;
            layers.insert("workload.generate_s", self.generate_s);
            layers::serve_counts(
                &mut layers,
                (engine_before, self.session.engine_mut().stats()),
                (cache_before, self.session.cache_stats()),
                sums.chunks,
                completed,
            );
            sums.layers(&mut layers);
            if let Some(after) = self.session.metrics() {
                layers::pipeline_histograms(&mut layers, &after, metrics_before.as_ref());
            }
            let dropped = self.session.trace_snapshot().map_or(0, |t| t.dropped);
            layers.insert("obs.trace_dropped", dropped as f64);
            layers::kernels(&mut layers, spans, &self.larger, &self.smaller)?;
            layers::simulated_misses(&mut layers, &self.larger, &self.smaller)?;
        }
        Ok(Measured { timed, layers })
    }
}
