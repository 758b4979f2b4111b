//! Allocation-regression tests for the zero-allocation scatter engine.
//!
//! A counting global allocator wraps `System` and tallies every `alloc` /
//! `realloc` **of the calling thread**.  The headline guarantee (the PR 4
//! acceptance gate): once a streaming [`PipelineRun`] has emitted its first
//! chunk on a single-threaded policy, **every further
//! [`PipelineRun::step`] performs zero heap allocations** — the chunk loop
//! runs entirely out of the run's [`ChunkScratch`] and the caller's sink.
//! Companion tests pin down the per-call allocation budget of the scratch
//! kernels themselves, so a regression that quietly reintroduces per-call
//! buffers fails loudly, and the bytes a warm one-chunk query allocates, so
//! a result copied instead of handed over fails too.

use radix_decluster::net::HEADER_LEN;
use radix_decluster::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard};

/// Counts allocations (and reallocations — a `realloc` is a new buffer as
/// far as steady-state reuse is concerned) and the bytes they request;
/// frees are irrelevant here.
struct CountingAlloc;

thread_local! {
    /// This thread's allocation tally.  Per thread, because a
    /// process-global counter also counts libtest's own threads (output
    /// capture, spawning the next test) into whatever window happens to be
    /// open — the ~1-in-4 flake this replaced.  Const-initialised and
    /// without a destructor, so touching it from inside the allocator
    /// neither allocates nor registers anything.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// The bytes those allocations asked for (a `realloc` counts its new
    /// size), same rules.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Bumps the calling thread's tallies.  `try_with`: an allocation during
/// thread teardown, after the slots are gone, is simply not counted.
fn count_one(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The tally is per thread, so another test's allocations can no longer
/// land in a measured window; the lock stays so that the measured kernels
/// also never compete for cache and CPU with one another, and every test
/// in this binary holds it for its whole body.  A panicked test must not
/// wedge the rest, so poisoning is ignored.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` and returns how many allocations **this thread** performed
/// meanwhile.  Every measured path here runs on the measuring thread
/// (`ExecPolicy::with_threads(1)`, sequential kernels); a test that wants
/// morsel-pool workers counted has to opt them in itself — run the
/// measured call on the worker and read the tally there — because their
/// allocations are, by design, not in this number.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Like [`allocations_during`], but the bytes those allocations asked for.
fn bytes_allocated_during(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// A sink that verifies geometry and lends one chunk-sized buffer, reused
/// for every column chunk: the steady-state consumer of the zero-allocation
/// gate (a materialising sink would rightfully allocate for its own
/// accumulation).  It counts every column chunk, and the rows of column 0.
struct NullSink {
    rows: usize,
    chunks: usize,
    buffer: Vec<i32>,
}

impl NullSink {
    fn new(buffer: Vec<i32>) -> Self {
        NullSink {
            rows: 0,
            chunks: 0,
            buffer,
        }
    }
}

impl RowChunkSink for NullSink {
    type Cell = i32;

    fn column(&mut self, _c: usize, rows: std::ops::Range<usize>) -> &mut [i32] {
        self.buffer.resize(rows.len(), 0);
        &mut self.buffer
    }

    fn emit(&mut self, c: usize, _first_row: usize, rows: usize) {
        if c == 0 {
            self.rows += rows;
        }
        self.chunks += 1;
    }
}

/// The harness itself: the tally sees this thread's allocations, and only
/// this thread's — so a zero below means "the measured code allocated
/// nothing", not "the measured code ran somewhere the counter cannot see".
#[test]
fn the_tally_counts_the_measuring_thread_and_no_other() {
    let _guard = serialized();
    let own = allocations_during(|| {
        let mut v: Vec<u64> = Vec::with_capacity(4); // 1: alloc
        v.extend(0..64); // 2: realloc
        std::hint::black_box(&v);
    });
    assert_eq!(own, 2);
    // Spawning allocates on this thread (the handle, the boxed closure);
    // what the child allocates must not be added on top.  The first spawn
    // of a process also reads `RUST_MIN_STACK`, so it is not the baseline.
    let spawn_and_join = |work: fn()| drop(std::thread::spawn(work).join());
    spawn_and_join(|| {});
    let idle_child = allocations_during(|| spawn_and_join(|| {}));
    let busy_child = allocations_during(|| {
        spawn_and_join(|| {
            let junk: Vec<Vec<u8>> = (0..1_000).map(|i| vec![0u8; 1 + i]).collect();
            std::hint::black_box(junk);
        })
    });
    assert!(idle_child > 0);
    assert_eq!(busy_child, idle_child);
}

#[test]
fn pipeline_step_allocates_nothing_in_steady_state() {
    let _guard = serialized();
    let w = JoinWorkloadBuilder::equal(6_000, 2).seed(77).build();
    let spec = QuerySpec::symmetric(2);
    let params = CacheParams::tiny_for_tests();
    let data_bytes = 2 * 6_000 * 2 * 4;
    // Single-threaded policy: multi-threaded chunks inherently allocate for
    // their scoped thread spawns.
    let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::fraction_of(data_bytes, 32));
    let plan =
        DsmPostProjection::with_codes(ProjectionCode::PartialCluster, SecondSideCode::Decluster);
    let pipeline = ProjectionPipeline::new(plan);
    let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
    let mut run = PipelineRun::new(
        prepared.clone(),
        &w.larger,
        &w.smaller,
        &spec,
        &params,
        &policy,
    );
    let mut sink = NullSink::new(Vec::new());

    // Warm-up: the first chunk grows the scratch to its high-water mark
    // (chunks after the first are never larger) — on this thread, where
    // the tally can see it.
    let warmup_allocs = allocations_during(|| assert!(run.step(&mut sink).is_some()));
    assert!(
        warmup_allocs > 0,
        "the chunk loop must run on the measuring thread for the zeros below to mean anything"
    );

    // Steady state: zero heap allocations per chunk, across many chunks.
    let mut steady_chunks = 0;
    loop {
        let allocs = allocations_during(|| {
            let _ = run.step(&mut sink);
        });
        if run.is_done() {
            break;
        }
        steady_chunks += 1;
        assert_eq!(
            allocs, 0,
            "steady-state chunk {steady_chunks} allocated {allocs} times"
        );
    }
    assert!(
        steady_chunks >= 16,
        "budget should force many chunks, got {steady_chunks}"
    );
    assert_eq!(sink.rows, w.expected_matches);

    // The same prefix re-run on recycled scratch is warm from chunk one.
    let scratch = run.take_scratch();
    let mut second = PipelineRun::new(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
    second.attach_scratch(scratch);
    let mut sink2 = NullSink::new(sink.buffer);
    let first_chunk_allocs = allocations_during(|| {
        second.step(&mut sink2);
        second.step(&mut sink2);
    });
    assert_eq!(
        first_chunk_allocs, 0,
        "recycled scratch must make even the first chunks allocation-free"
    );
}

#[test]
fn observed_pipeline_step_allocates_nothing_in_steady_state() {
    let _guard = serialized();
    let w = JoinWorkloadBuilder::equal(6_000, 2).seed(77).build();
    let spec = QuerySpec::symmetric(2);
    let params = CacheParams::tiny_for_tests();
    let data_bytes = 2 * 6_000 * 2 * 4;
    let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::fraction_of(data_bytes, 32));
    let plan =
        DsmPostProjection::with_codes(ProjectionCode::PartialCluster, SecondSideCode::Decluster);
    let pipeline = ProjectionPipeline::new(plan);
    let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
    let mut run = PipelineRun::new(
        prepared.clone(),
        &w.larger,
        &w.smaller,
        &spec,
        &params,
        &policy,
    );
    // Recording on: the handles (registry Arcs, trace ring) are resolved
    // and sized up-front by `attach_obs`, so the chunk loop itself records
    // through atomics and a pre-allocated ring only.
    let obs = Obs::enabled();
    run.attach_obs(&obs, QueryId::next(), [1_000; 2]);
    let mut sink = NullSink::new(Vec::new());

    // Warm-up: first chunk grows scratch (and instantiates the histograms).
    assert!(run.step(&mut sink).is_some());

    let mut steady_chunks = 0;
    loop {
        let allocs = allocations_during(|| {
            let _ = run.step(&mut sink);
        });
        if run.is_done() {
            break;
        }
        steady_chunks += 1;
        assert_eq!(
            allocs, 0,
            "observed steady-state chunk {steady_chunks} allocated {allocs} times"
        );
    }
    assert!(
        steady_chunks >= 16,
        "budget should force many chunks, got {steady_chunks}"
    );
    assert_eq!(sink.rows, w.expected_matches);
    // Every steady chunk landed in the trace and both histograms.
    let trace = obs.trace_snapshot().expect("enabled");
    assert_eq!(trace.events.len(), sink.chunks);
    let metrics = obs.metrics_snapshot().expect("enabled");
    let h = metrics.histogram("pipeline.chunk_ns").expect("recorded");
    assert_eq!(h.count, sink.chunks as u64);
}

/// The serving engine's steady state, observability off: once a
/// multi-chunk ticket has run its first chunk, every further
/// [`QueryEngine::step`] in the middle of it — the scheduler decision, the
/// chunk, and every count the engine keeps — allocates nothing.  That
/// holds in both result forms: a columns ticket's sink sized its result
/// columns at `begin`, and a frame ticket's sink its whole frame, so each
/// later chunk's writes into either allocate nothing.
#[test]
fn engine_step_allocates_nothing_mid_ticket() {
    let _guard = serialized();
    let w = JoinWorkloadBuilder::equal(6_000, 2).seed(77).build();
    let frame = ResultForm::Frame {
        max_payload: usize::MAX,
    };
    for form in [ResultForm::Columns, frame] {
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            global_budget: MemoryBudget::bytes(2 * 1024),
            max_concurrent: 1,
            threads_per_query: 1,
            plan_shares: Some(1),
            observability: false,
            ..ServeConfig::default()
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let ticket = engine.submit(ServerRequest {
            form,
            ..ServerRequest::new(larger, smaller, QuerySpec::symmetric(2))
        });

        // Warm-up: admission, the prefix build and the first chunk allocate.
        assert!(matches!(engine.step(), EngineStep::Chunk { .. }));

        let mut steady_chunks = 0;
        loop {
            let mut step = EngineStep::Idle;
            let allocs = allocations_during(|| step = engine.step());
            if !matches!(step, EngineStep::Chunk { .. }) {
                break;
            }
            steady_chunks += 1;
            assert_eq!(
                allocs, 0,
                "{form:?}: steady-state engine step {steady_chunks} allocated {allocs} times"
            );
        }
        assert!(
            steady_chunks >= 16,
            "budget should force many chunks, got {steady_chunks}"
        );
        while engine.step() != EngineStep::Idle {}
        let stats = match engine.poll(ticket) {
            TicketPoll::Done(Served::Columns(result)) => result.stats,
            TicketPoll::Done(Served::Frame { stats, .. }) => stats,
            other => panic!("{form:?}: not served: {other:?}"),
        };
        assert_eq!(stats.rows, w.expected_matches);
    }
}

/// A warm multi-chunk query served over the wire allocates its `Done`
/// frame once: the kernels write every chunk into the frame its sink sized
/// at `begin`, so no result column is allocated, and the server sends that
/// frame instead of encoding a second one.  The server runs on the
/// measuring thread; the client's allocations, on its own thread, are not
/// counted.
#[test]
fn a_warm_multi_chunk_wire_query_allocates_its_frame_once() {
    let _guard = serialized();
    let w = JoinWorkloadBuilder::equal(20_000, 2).seed(79).build();
    let mut engine = QueryEngine::new(ServeConfig {
        max_concurrent: 1,
        threads_per_query: 1,
        ..ServeConfig::default()
    });
    engine.register(w.larger.clone());
    engine.register(w.smaller.clone());
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let mut server = NetServer::new(listener, engine, NetConfig::default());
    let spec = SubmitSpec {
        larger: 0,
        smaller: 1,
        project_larger: 2,
        project_smaller: 2,
        // (π + 1) · 4 = 20 B per streamed row: ≈ 3 300 rows per chunk.
        budget_bytes: Some(64 * 1024),
        threads: None,
        codes: Some(DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        )),
        deadline_ns: None,
        priority: 1,
    };
    let (cold_done, cold_seen) = std::sync::mpsc::channel();
    let (warm_go, warm_wait) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut client = NetClient::connect_tcp(addr).expect("connect");
        let mut query = || {
            let ticket = client.submit(spec).expect("submit");
            client.wait(ticket).expect("wait").expect("served")
        };
        // Cold: builds and caches the prefix, and pools the chunk scratch.
        query();
        cold_done.send(()).expect("server listening");
        warm_wait.recv().expect("server measuring");
        query()
    });

    let mut measured_from = None;
    while server.stats().accepted == 0 || server.connections() > 0 {
        if !server.poll_cycle() {
            std::thread::yield_now();
        }
        if measured_from.is_none() && cold_seen.try_recv().is_ok() {
            measured_from = Some(BYTES.with(Cell::get));
            warm_go.send(()).expect("client waiting");
        }
    }
    let bytes = BYTES.with(Cell::get) - measured_from.expect("the cold query finished");
    let warm = client.join().expect("client thread");
    assert!(
        warm.cache_hit && warm.chunks > 1,
        "a warm multi-chunk query"
    );
    let rows = warm.rows as usize;
    assert_eq!(rows, w.expected_matches);
    let frame_len = HEADER_LEN + 35 + warm.columns.len() * (4 + 4 * rows);
    assert!(
        (frame_len..frame_len + frame_len / 8).contains(&bytes),
        "a warm wire query allocated {bytes} B for a {frame_len} B frame"
    );
}

/// A warm query whose one chunk is the whole result allocates its result
/// once: the chunk loop writes each column into the buffer the
/// `MaterializeSink` sized at `begin`, and reads the cached
/// prefix's clustered arrays in place.  What the engine pools for the next
/// query is the staged column and the cursors, never a result column.
#[test]
fn a_warm_whole_result_query_allocates_its_result_once() {
    let _guard = serialized();
    let w = JoinWorkloadBuilder::equal(20_000, 2).seed(79).build();
    let spec = QuerySpec::symmetric(2);
    let mut engine = QueryEngine::new(ServeConfig {
        max_concurrent: 1,
        threads_per_query: 1,
        ..ServeConfig::default()
    });
    let larger = engine.register(w.larger.clone());
    let smaller = engine.register(w.smaller.clone());
    let run = |engine: &mut QueryEngine| {
        engine
            .query(larger, smaller)
            .project(spec)
            .codes(DsmPostProjection::with_codes(
                ProjectionCode::PartialCluster,
                SecondSideCode::Decluster,
            ))
            .run()
            .expect("serves")
    };
    // Cold: builds and caches the prefix, and pools the chunk scratch.
    drop(run(&mut engine));

    let mut warm = None;
    let bytes = bytes_allocated_during(|| warm = Some(run(&mut engine)));
    let warm = warm.expect("ran");
    assert!(warm.stats.cache_hit && warm.stats.scratch_reused);
    assert_eq!(
        warm.stats.chunks, 1,
        "an unbounded budget streams one chunk"
    );
    let rows = w.expected_matches;
    let result_bytes = rows * spec.total() * 4;
    assert!(
        (result_bytes..result_bytes + result_bytes / 8).contains(&bytes),
        "a warm query allocated {bytes} B for a {result_bytes} B result"
    );
    let pooled = engine.pooled_scratch_bytes();
    assert_eq!(
        pooled / rows,
        4,
        "the pooled scratch holds {pooled} B for {rows} rows"
    );
}

#[test]
fn cluster_into_a_warm_output_allocates_nothing() {
    let _guard = serialized();
    let oids: Vec<Oid> = (0..50_000u32).rev().collect();
    let payloads: Vec<Oid> = (0..50_000).collect();
    let spec = RadixClusterSpec::partial(6, 2, 0);
    let (mut scratch, mut out) = (ClusterScratch::new(), Clustered::default());
    let mut run = || {
        scratch.cluster_into(
            &oids,
            &payloads,
            spec,
            |&o| o as u64,
            &mut out,
            &mut NoProbe,
        )
    };
    // Warm-up grows the arena and the output (the seed kernel allocated
    // four full-size working buffers, two cursor vectors per segment and
    // the output on every call).
    run();
    let allocs = allocations_during(run);
    assert_eq!(
        allocs, 0,
        "cluster_into into a warm output must not allocate"
    );
    assert_eq!(out, radix_cluster_oids(&oids, &payloads, spec));
}

#[test]
fn decluster_into_allocates_nothing_after_warmup() {
    let _guard = serialized();
    let n = 20_000usize;
    let smaller: Vec<Oid> = (0..n as Oid).rev().collect();
    let positions: Vec<Oid> = (0..n as Oid).collect();
    let clustered = radix_decluster_inputs(&smaller, &positions);
    let (values, positions, bounds) = clustered;
    let mut scratch = DeclusterScratch::new();
    let mut out = vec![0i32; n];
    let whole = ChunkRuns::whole(&bounds);
    let mut decluster = || {
        radix_decluster_windows_with_scratch(
            &values,
            positions.as_slice(),
            &whole,
            0,
            4096 / 4,
            &mut scratch,
            &mut out,
            &mut NoProbe,
        )
    };
    // Warm-up.
    decluster();
    let allocs = allocations_during(|| {
        for _ in 0..5 {
            decluster();
        }
    });
    assert_eq!(
        allocs, 0,
        "the windowed decluster must reuse its cursor scratch"
    );
    let expected = radix_decluster(&values, &positions, &bounds, 4096);
    assert_eq!(out, expected);
}

/// Builds a valid (values, positions, bounds) decluster input from a
/// shuffled oid column, as the §3.2 pipeline does.
fn radix_decluster_inputs(smaller: &[Oid], positions: &[Oid]) -> (Vec<i32>, Vec<Oid>, Vec<usize>) {
    let clustered = radix_decluster_cluster(smaller, positions);
    let values: Vec<i32> = clustered.keys().iter().map(|&o| o as i32 * 3).collect();
    (
        values,
        clustered.payloads().to_vec(),
        clustered.bounds().to_vec(),
    )
}

fn radix_decluster_cluster(
    smaller: &[Oid],
    positions: &[Oid],
) -> radix_decluster::core::cluster::Clustered<Oid, Oid> {
    radix_decluster::core::cluster::radix_cluster_oids(
        smaller,
        positions,
        RadixClusterSpec::single_pass(5),
    )
}
