//! `point_wire` and `mix_budget_wire`: a closed loop over loopback TCP.
//!
//! Two threads, one connection: the generator (this thread, a blocking
//! [`NetClient`]) keeps a window of W tickets outstanding — submit to fill,
//! sweep `poll` over the outstanding tickets in order, sleep 200 µs after a
//! sweep that completed nothing — while the other thread runs the
//! single-threaded server loop.  Untraced, that loop is
//! [`NetServer::serve`] itself; traced, the benchmark owns the identical
//! loop (`poll_cycle()` plus the same 200 µs idle sleep) so it can time
//! every cycle.

use crate::common::{
    base_config, pin_current_thread, ratio, timed_count, Args, Layers, Measured, SplitMix, Timed,
};
use crate::layers;
use crate::oracle;
use crate::span::{Spans, NONE};
use crate::stats::percentile;
use radix_decluster::net::encode_frame;
use radix_decluster::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The idle sleep of `NetServer::serve`, mirrored by the traced loop and
/// by the generator after an empty sweep.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

type Pair = (Arc<DsmRelation>, Arc<DsmRelation>);

/// One request of a wire workload.
#[derive(Debug, Clone, Copy)]
struct Request {
    spec: SubmitSpec,
    /// Index of its reference checksum.
    check: usize,
    /// Result payload size, to pick the median `Done` frame a priori.
    result_bytes: usize,
}

/// Everything that distinguishes the two wire workloads.
struct Shape {
    pairs: Vec<Pair>,
    config: ServeConfig,
    window: usize,
    warmup: Vec<Request>,
    timed: Vec<Request>,
    checks: Vec<u64>,
    generate_s: f64,
}

fn request(pair: usize, project: usize, budget_bytes: Option<u64>) -> SubmitSpec {
    SubmitSpec {
        larger: 2 * pair as u32,
        smaller: 2 * pair as u32 + 1,
        project_larger: project as u32,
        project_smaller: project as u32,
        budget_bytes,
        threads: None,
        codes: None,
        deadline_ns: None,
        priority: 1,
    }
}

// ------------------------------------------------------------ point_wire

/// `point_wire`: one pair of 2000 rows × ω 2, π cycling 1..2, W = 16, warm
/// prefix cache — kernel time is microseconds, per-request overhead is
/// everything.
const POINT_ROWS: usize = 2_000;
const POINT_WIDTH: usize = 2;
const POINT_WINDOW: usize = 16;
const POINT_RATE_QPS: f64 = 1_420.0;
/// Warm-up queries: enough that set-up time is dominated by steady work
/// rather than by thread spawn and connect jitter.
const POINT_WARMUP: usize = 64 * POINT_WINDOW;

fn point_shape(args: &Args, spans: &mut Spans) -> Result<Shape, String> {
    let rows = (POINT_ROWS / args.shrink).max(16);
    let (pair, generate_s) = spans.time("workload.generate", || {
        JoinWorkloadBuilder::equal(rows, POINT_WIDTH)
            .hit_rate(workload::HitRate(1.0))
            .seed(args.seed)
            .build()
    });
    let pair: Pair = (Arc::new(pair.larger), Arc::new(pair.smaller));
    let (checks, _) = spans.time("oracle", || oracle::reference_checksums(&pair.0, &pair.1));
    let make = |i: usize| {
        let project = 1 + i % POINT_WIDTH;
        Request {
            spec: request(0, project, None),
            check: project - 1,
            result_bytes: rows * 2 * project * 4,
        }
    };
    let count = timed_count(
        POINT_RATE_QPS,
        args.seconds,
        args.shrink,
        POINT_WIDTH,
        4 * POINT_WINDOW,
    );
    Ok(Shape {
        pairs: vec![pair],
        config: ServeConfig {
            cache_bytes: 1 << 30,
            ..base_config()
        },
        window: POINT_WINDOW,
        // The first cycle prepares both prefixes; the rest is the hit path.
        warmup: (0..(POINT_WARMUP / args.shrink).max(2 * POINT_WIDTH))
            .map(make)
            .collect(),
        timed: (0..count).map(make).collect(),
        checks: checks?,
        generate_s,
    })
}

// ------------------------------------------------------- mix_budget_wire

/// `mix_budget_wire`: twelve tenants spanning 6k–200k rows, zipfian
/// popularity, per-tenant width skews, a global budget of a quarter of the
/// hottest tenant's data and a prefix cache that holds half of what the
/// twelve pairs need.
const MIX_TENANTS: [(usize, usize); 12] = [
    (200_000, 2),
    (150_000, 4),
    (100_000, 1),
    (80_000, 2),
    (60_000, 4),
    (40_000, 2),
    (30_000, 1),
    (20_000, 2),
    (15_000, 4),
    (10_000, 2),
    (8_000, 1),
    (6_000, 2),
];
const MIX_WIDTH_SKEWS: [f64; 4] = [0.0, 0.5, 1.0, 1.5];
const MIX_WINDOW: usize = 8;
const MIX_RATE_QPS: f64 = 100.0;
/// Half of `CacheStats::resident_bytes` after preparing every (tenant, π)
/// prefix in an unbounded cache — measured once, frozen as a number so a
/// later change to the prefix representation shows up as a hit-share gain
/// instead of silently moving the cache size with it.
const MIX_CACHE_BYTES: usize = 5_000_000;

/// The budget presets `QueryMix` cycles through: whatever the server
/// grants, or a cap of 1/4 or 1/16 of the tenant's value data.
const MIX_BUDGET_DENOMINATORS: [Option<usize>; 3] = [None, Some(4), Some(16)];

fn width_skew(tenant: usize) -> f64 {
    MIX_WIDTH_SKEWS[tenant % MIX_WIDTH_SKEWS.len()]
}

/// The timed `(tenant, π, budget denominator)` sequence.  Its *multiset* is
/// the expectation of `QueryMix`'s zipfian draw — tenant popularity zipf
/// 1.0, per-tenant width skews, budget presets cycled within each
/// `(tenant, π)` cell — apportioned by largest remainder, so the amount of
/// work is the same for every seed; the seed decides the *order* (and the
/// relations' contents), which is what cache insert/evict behaviour
/// depends on.
fn mix_sequence(
    tenants: &[(usize, usize)],
    count: usize,
    seed: u64,
) -> Vec<(usize, usize, Option<usize>)> {
    let popularity = workload::Zipf::new(tenants.len(), 1.0);
    let mut cells = Vec::new();
    for (t, &(_, width)) in tenants.iter().enumerate() {
        let widths = workload::Zipf::new(width, width_skew(t));
        for k in 0..width {
            let share = popularity.probability(t) * widths.probability(k);
            cells.push((t, k + 1, share * count as f64));
        }
    }
    let mut counts: Vec<usize> = cells.iter().map(|c| c.2.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..cells.len()).collect();
    by_remainder.sort_by(|&a, &b| cells[b].2.fract().total_cmp(&cells[a].2.fract()));
    let short = count.saturating_sub(counts.iter().sum());
    for &cell in by_remainder.iter().take(short) {
        counts[cell] += 1;
    }
    let mut sequence = Vec::with_capacity(count);
    for (c, (&(tenant, project, _), &n)) in cells.iter().zip(&counts).enumerate() {
        for j in 0..n {
            let preset = MIX_BUDGET_DENOMINATORS[(c + j) % MIX_BUDGET_DENOMINATORS.len()];
            sequence.push((tenant, project, preset));
        }
    }
    SplitMix(seed).shuffle(&mut sequence);
    sequence
}

fn mix_shape(args: &Args, spans: &mut Spans) -> Result<Shape, String> {
    let tenants: Vec<(usize, usize)> = MIX_TENANTS
        .iter()
        .map(|&(n, w)| ((n / args.shrink).max(16), w))
        .collect();
    let count = timed_count(MIX_RATE_QPS, args.seconds, args.shrink, 1, 4 * MIX_WINDOW);
    let (mix, generate_s) = spans.time("workload.generate", || {
        // The generator builds the twelve relation pairs; the query
        // sequence is `mix_sequence`'s, so `queries` stays 0 here.
        QueryMix::generate(&MixConfig {
            tenants: tenants.clone(),
            queries: 0,
            zipf_exponent: 1.0,
            tenant_names: Vec::new(),
            width_skews: (0..tenants.len()).map(width_skew).collect(),
            seed: args.seed,
        })
    });
    let queries = mix_sequence(&tenants, count, args.seed);
    let global = mix.tenant_data_bytes(0) / 4;
    let data_bytes: Vec<usize> = (0..tenants.len())
        .map(|t| mix.tenant_data_bytes(t))
        .collect();
    let pairs: Vec<Pair> = mix
        .tenants
        .into_iter()
        .map(|w| (Arc::new(w.larger), Arc::new(w.smaller)))
        .collect();

    // One reference checksum per distinct (tenant, π), flattened.
    let mut offsets = Vec::with_capacity(pairs.len());
    let mut checks = Vec::new();
    let oracle_start = Instant::now();
    for (l, s) in &pairs {
        offsets.push(checks.len());
        checks.extend(oracle::reference_checksums(l, s)?);
    }
    spans.push("oracle", NONE, NONE, oracle_start, Instant::now());

    let make = |tenant: usize, project: usize, denominator: Option<usize>| Request {
        spec: request(
            tenant,
            project,
            denominator.map(|d| (data_bytes[tenant] / d) as u64),
        ),
        check: offsets[tenant] + project - 1,
        result_bytes: tenants[tenant].0 * 2 * project * 4,
    };
    // Warm-up touches every (tenant, π) once, coldest tenant first, so the
    // timed phase starts from a full cache holding the hottest prefixes.
    let warmup = (0..tenants.len())
        .rev()
        .flat_map(|t| (1..=tenants[t].1).map(move |p| (t, p)))
        .map(|(t, p)| make(t, p, None))
        .collect();
    Ok(Shape {
        pairs,
        config: ServeConfig {
            global_budget: MemoryBudget::bytes(global),
            cache_bytes: MIX_CACHE_BYTES / args.shrink,
            ..base_config()
        },
        window: MIX_WINDOW,
        warmup,
        timed: queries
            .iter()
            .map(|&(tenant, project, preset)| make(tenant, project, preset))
            .collect(),
        checks,
        generate_s,
    })
}

// ------------------------------------------------------------ the server

/// Start-of-timed-phase handshake between generator and traced loop, so
/// the engine/cache/registry baselines exclude warm-up exactly: the
/// generator raises `mark` and waits for `marked` before its first timed
/// submit.  The flags publish no data (the baselines never leave the
/// server thread).
#[derive(Default)]
struct Control {
    mark: AtomicBool,
    marked: AtomicBool,
}

/// What the traced loop hands back after the last client left.
struct ServerSide {
    engine: (EngineStats, EngineStats),
    cache: (CacheStats, CacheStats),
    metrics: (Option<MetricsSnapshot>, Option<MetricsSnapshot>),
    net: NetStats,
    trace_dropped: u64,
    /// Every `poll_cycle()` of the timed phase, nanoseconds.
    cycles_ns: Vec<u32>,
    busy_ns: u64,
    loop_ns: u64,
    idle_sleeps: u64,
}

/// `NetServer::serve`, re-implemented around `poll_cycle()` with every
/// cycle timed — same exit rule, same idle sleep.
fn traced_serve(mut server: NetServer, control: &Control) -> ServerSide {
    let snapshot = |server: &NetServer| {
        let engine = server.engine();
        (
            engine.stats(),
            engine.cache_stats(),
            engine.obs().metrics_snapshot(),
        )
    };
    let mut before = snapshot(&server);
    let mut cycles_ns = Vec::new();
    let (mut busy_ns, mut idle_sleeps) = (0u64, 0u64);
    let mut loop_start = Instant::now();
    let (mut seen_any, mut marked) = (false, false);
    loop {
        if !marked && control.mark.load(Ordering::SeqCst) {
            before = snapshot(&server);
            cycles_ns.clear();
            busy_ns = 0;
            idle_sleeps = 0;
            loop_start = Instant::now();
            marked = true;
            control.marked.store(true, Ordering::SeqCst);
        }
        let start = Instant::now();
        let progressed = server.poll_cycle();
        let ns = start.elapsed().as_nanos() as u64;
        cycles_ns.push(ns.min(u32::MAX as u64) as u32);
        if progressed {
            busy_ns += ns;
        }
        seen_any |= server.connections() > 0;
        if seen_any && server.connections() == 0 && server.engine().is_idle() {
            break;
        }
        if !progressed {
            thread::sleep(IDLE_SLEEP);
            idle_sleeps += 1;
        }
    }
    let loop_ns = loop_start.elapsed().as_nanos() as u64;
    let after = snapshot(&server);
    ServerSide {
        engine: (before.0, after.0),
        cache: (before.1, after.1),
        metrics: (before.2, after.2),
        net: server.stats(),
        trace_dropped: server
            .engine()
            .obs()
            .trace_snapshot()
            .map_or(0, |t| t.dropped),
        cycles_ns,
        busy_ns,
        loop_ns,
        idle_sleeps,
    }
}

// --------------------------------------------------------- the generator

/// A set-up wire workload: server running, connection open, caches warm.
pub struct Env {
    client: NetClient,
    server: JoinHandle<Option<ServerSide>>,
    control: Arc<Control>,
    first_pair: Pair,
    window: usize,
    timed: Vec<Request>,
    checks: Vec<u64>,
    traced: bool,
    generate_s: f64,
}

/// Client-side accounting of a traced pass.
#[derive(Default)]
struct ClientCounts {
    submit_rtt_ns: Vec<u64>,
    poll_rtt_ns: Vec<u64>,
    done_poll_ns: Vec<u64>,
    polls: u64,
    frames: u64,
    bytes_sent: u64,
    bytes_received: u64,
    chunks: u64,
    median_done: Option<Frame>,
}

fn frame_len(frame: &Frame) -> u64 {
    let mut bytes = Vec::new();
    encode_frame(frame, &mut bytes);
    bytes.len() as u64
}

/// The windowed closed loop: keep `window` tickets outstanding over
/// `requests` until all have completed.  With `counts`, every call into
/// `NetClient` is also recorded as a span and counted (traced passes).
fn drive(
    client: &mut NetClient,
    requests: &[Request],
    checks: &[u64],
    window: usize,
    spans: &mut Spans,
    mut counts: Option<&mut ClientCounts>,
) -> Result<Timed, String> {
    // The Done frame the codec loop replays: the request whose result size
    // is the median, known before anything runs.
    let median_request = {
        let mut by_size: Vec<usize> = (0..requests.len()).collect();
        by_size.sort_by_key(|&i| requests[i].result_bytes);
        by_size[by_size.len() / 2]
    };
    let mut timed = Timed::default();
    let mut last_completion = Instant::now();
    // (ticket, request index, submit start), oldest first.
    let mut outstanding: VecDeque<(u64, usize, Instant)> = VecDeque::with_capacity(window);
    let mut next = 0usize;
    let loop_start = Instant::now();
    loop {
        while outstanding.len() < window && next < requests.len() {
            let req = &requests[next];
            let start = Instant::now();
            let submitted = client.submit(req.spec);
            let end = Instant::now();
            timed.attempted += 1;
            match submitted {
                Ok(ticket) => {
                    if let Some(c) = counts.as_deref_mut() {
                        spans.push("net.submit", next as u32, NONE, start, end);
                        c.submit_rtt_ns.push((end - start).as_nanos() as u64);
                        c.frames += 2;
                        c.bytes_sent += frame_len(&Frame::Submit(req.spec));
                        c.bytes_received += frame_len(&Frame::Submitted { ticket });
                    }
                    outstanding.push_back((ticket, next, start));
                }
                Err(ClientError::Rejected(e)) => {
                    eprintln!("failed query {next}: refused at submit: {e}");
                    timed.failed += 1;
                }
                Err(e) => return Err(format!("submit {next}: {e}")),
            }
            next += 1;
        }
        if outstanding.is_empty() {
            break;
        }
        let mut completed = 0usize;
        let mut slot = 0usize;
        while slot < outstanding.len() {
            let (ticket, index, submitted_at) = outstanding[slot];
            let start = Instant::now();
            let frame = client
                .poll(ticket)
                .map_err(|e| format!("poll of query {index}: {e}"))?;
            // Latency stops here; counting and verification come after.
            let end = Instant::now();
            if let Some(c) = counts.as_deref_mut() {
                c.polls += 1;
                c.frames += 2;
                c.bytes_sent += frame_len(&Frame::Poll { ticket });
                c.bytes_received += frame_len(&frame);
            }
            match &frame {
                Frame::Done { report, .. } => {
                    let sum = oracle::ordered(report.columns.iter().map(|c| c.as_slice()));
                    if sum == checks[requests[index].check] {
                        timed
                            .latencies_ns
                            .push((end - submitted_at).as_nanos() as u64);
                        last_completion = end;
                    } else {
                        eprintln!("failed query {index}: result differs from the solo run");
                        timed.failed += 1;
                    }
                    if let Some(c) = counts.as_deref_mut() {
                        let query = spans.push("query", index as u32, NONE, submitted_at, end);
                        spans.push("net.done_poll", index as u32, query, start, end);
                        c.done_poll_ns.push((end - start).as_nanos() as u64);
                        c.chunks += report.chunks;
                        if index == median_request {
                            c.median_done = Some(frame.clone());
                        }
                    }
                }
                Frame::Rejected { error, .. } => {
                    eprintln!("failed query {index}: rejected: {error}");
                    timed.failed += 1;
                }
                _ => {
                    if let Some(c) = counts.as_deref_mut() {
                        c.poll_rtt_ns.push((end - start).as_nanos() as u64);
                    }
                    slot += 1;
                    continue;
                }
            }
            outstanding.remove(slot);
            completed += 1;
        }
        if completed == 0 {
            thread::sleep(IDLE_SLEEP);
        }
    }
    timed.wall_s = (last_completion - loop_start).as_secs_f64();
    Ok(timed)
}

/// Generates relations and oracle, binds, spawns the server thread,
/// connects and warms up — everything before the first timed query.
pub fn setup(args: &Args, mix: bool, traced: bool, spans: &mut Spans) -> Result<Env, String> {
    let shape = if mix {
        mix_shape(args, spans)?
    } else {
        point_shape(args, spans)?
    };
    let listener = NetListener::bind_tcp("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.tcp_addr().ok_or("listener has no TCP address")?;
    let control = Arc::new(Control::default());
    let server = {
        let control = Arc::clone(&control);
        let pairs = shape.pairs.clone();
        let config = ServeConfig {
            observability: traced,
            ..shape.config
        };
        // The engine is not `Send`, so the session is born on the thread
        // that serves it; relation ids are 2·pair and 2·pair + 1.
        thread::spawn(move || {
            pin_current_thread(1);
            let mut session = Session::new(config);
            for (l, s) in pairs {
                session.register_arc(l);
                session.register_arc(s);
            }
            let mut server = session.into_server(listener, NetConfig::default());
            if traced {
                Some(traced_serve(server, &control))
            } else {
                server.serve();
                None
            }
        })
    };
    pin_current_thread(0);
    let mut client = NetClient::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
    client.hello(None).map_err(|e| format!("hello: {e}"))?;

    let warm_start = Instant::now();
    let warm = drive(
        &mut client,
        &shape.warmup,
        &shape.checks,
        shape.window,
        &mut Spans::new(false),
        None,
    )?;
    if warm.failed > 0 {
        return Err(format!("{} warm-up queries failed", warm.failed));
    }
    spans.push("warmup", NONE, NONE, warm_start, Instant::now());
    Ok(Env {
        client,
        server,
        control,
        first_pair: shape.pairs[0].clone(),
        window: shape.window,
        timed: shape.timed,
        checks: shape.checks,
        traced,
        generate_s: shape.generate_s,
    })
}

impl Env {
    /// Disconnects and waits for the server thread to drain and exit.
    fn shutdown(
        client: NetClient,
        server: JoinHandle<Option<ServerSide>>,
    ) -> Result<Option<ServerSide>, String> {
        drop(client);
        server
            .join()
            .map_err(|_| "server thread panicked".to_owned())
    }

    /// Tears down a set-up that will not be measured.
    pub fn teardown(self) -> Result<(), String> {
        Env::shutdown(self.client, self.server).map(|_| ())
    }

    /// Runs the windowed closed loop over the timed requests; a traced
    /// pass also derives the per-layer metrics.
    pub fn measure(mut self, spans: &mut Spans) -> Result<Measured, String> {
        let mut counts = ClientCounts::default();
        if self.traced {
            self.control.mark.store(true, Ordering::SeqCst);
            while !self.control.marked.load(Ordering::SeqCst) {
                thread::sleep(IDLE_SLEEP);
            }
        }
        let timed = drive(
            &mut self.client,
            &self.timed,
            &self.checks,
            self.window,
            spans,
            self.traced.then_some(&mut counts),
        )?;
        let side = Env::shutdown(self.client, self.server)?;

        let mut layers = Layers::new();
        if let Some(side) = side {
            let completed = timed.latencies_ns.len() as u64;
            layers.insert("workload.generate_s", self.generate_s);
            client_layers(&mut layers, &counts, completed);
            server_layers(&mut layers, side, counts.chunks, completed);
            if let Some(done) = &counts.median_done {
                layers::codec(&mut layers, spans, done);
            }
            let (larger, smaller) = &self.first_pair;
            layers::kernels(&mut layers, spans, larger, smaller)?;
            layers::simulated_misses(&mut layers, larger, smaller)?;
        }
        Ok(Measured { timed, layers })
    }
}

fn p50_of(ns: &[u64], scale: f64) -> f64 {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 50.0) as f64 / scale
}

fn client_layers(layers: &mut Layers, counts: &ClientCounts, completed: u64) {
    let per_query = |n: u64| ratio(n as f64, completed as f64);
    layers.insert("net.submit_rtt_us_p50", p50_of(&counts.submit_rtt_ns, 1e3));
    layers.insert("net.poll_rtt_us_p50", p50_of(&counts.poll_rtt_ns, 1e3));
    layers.insert("net.done_poll_ms_p50", p50_of(&counts.done_poll_ns, 1e6));
    layers.insert("net.polls_per_query", per_query(counts.polls));
    layers.insert("net.frames_per_query", per_query(counts.frames));
    // Named from the server's side: `in` is what the client sent.
    layers.insert("net.bytes_in_per_query", per_query(counts.bytes_sent));
    layers.insert("net.bytes_out_per_query", per_query(counts.bytes_received));
}

fn server_layers(layers: &mut Layers, side: ServerSide, chunks: u64, completed: u64) {
    layers::serve_counts(layers, side.engine, side.cache, chunks, completed);
    let mut cycles = side.cycles_ns;
    cycles.sort_unstable();
    let cycle_us = |p: f64| percentile(&cycles, p) as f64 / 1e3;
    layers.insert("net.loop_cycle_us_p50", cycle_us(50.0));
    layers.insert("net.loop_cycle_us_p90", cycle_us(90.0));
    layers.insert(
        "net.loop_busy_share",
        ratio(side.busy_ns as f64, side.loop_ns as f64),
    );
    layers.insert(
        "net.idle_sleeps_per_query",
        ratio(side.idle_sleeps as f64, completed as f64),
    );
    layers.insert(
        "net.backpressure_pauses",
        side.net.backpressure_pauses as f64,
    );
    layers.insert("net.decode_errors", side.net.decode_errors as f64);
    layers.insert("obs.trace_dropped", side.trace_dropped as f64);
    if let (before, Some(after)) = (&side.metrics.0, &side.metrics.1) {
        layers::pipeline_histograms(layers, after, before.as_ref());
        let wait = layers::histogram_since(after, before.as_ref(), "engine.queue_wait_ns");
        let service = layers::histogram_since(after, before.as_ref(), "engine.service_ns");
        layers.insert(
            "serve.queue_wait_ms_p50",
            wait.percentile(50.0) as f64 / 1e6,
        );
        layers.insert(
            "serve.service_ms_p50",
            service.percentile(50.0) as f64 / 1e6,
        );
    }
}
