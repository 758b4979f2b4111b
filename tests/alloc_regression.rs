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
//! buffers fails loudly.

use radix_decluster::core::cluster::SWWC_SLOT_ELEMS;
use radix_decluster::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard};

/// Counts allocations (and reallocations — a `realloc` is a new buffer as
/// far as steady-state reuse is concerned); frees are irrelevant here.
struct CountingAlloc;

thread_local! {
    /// This thread's allocation tally.  Per thread, because a
    /// process-global counter also counts libtest's own threads (output
    /// capture, spawning the next test) into whatever window happens to be
    /// open — the ~1-in-4 flake this replaced.  Const-initialised and
    /// without a destructor, so touching it from inside the allocator
    /// neither allocates nor registers anything.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Bumps the calling thread's tally.  `try_with`: an allocation during
/// thread teardown, after the slot is gone, is simply not counted.
fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

/// A sink that verifies geometry but holds no memory: the steady-state
/// consumer of the zero-allocation gate (a materialising sink would
/// rightfully allocate for its own accumulation).
struct NullSink {
    rows: usize,
    chunks: usize,
}

impl RowChunkSink for NullSink {
    fn emit(&mut self, _first_row: usize, columns: &[Vec<i32>]) {
        self.rows += columns.first().map(|c| c.len()).unwrap_or(0);
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
    let mut run = DsmPipelineRun::over_dsm(
        prepared.clone(),
        &w.larger,
        &w.smaller,
        &spec,
        &params,
        &policy,
    );
    let mut sink = NullSink { rows: 0, chunks: 0 };

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
    let mut second =
        DsmPipelineRun::over_dsm(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
    second.attach_scratch(scratch);
    let mut sink2 = NullSink { rows: 0, chunks: 0 };
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
    let mut run = DsmPipelineRun::over_dsm(
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
    let obs = Obs::enabled(ObsConfig::default());
    run.attach_obs(&obs, QueryId::next(), 1_000);
    let mut sink = NullSink { rows: 0, chunks: 0 };

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

/// Runtime adaptation must not cost the zero-allocation guarantee: with a
/// policy armed and accurate feedback (every chunk observes exactly its
/// prediction), the controller holds on every chunk and the steady-state
/// loop stays allocation-free — the controller, feedback source and
/// prediction state are all pre-allocated by `attach_adaptive`.
#[test]
fn adaptive_hold_steps_allocate_nothing_in_steady_state() {
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
    let mut run = DsmPipelineRun::over_dsm(
        prepared.clone(),
        &w.larger,
        &w.smaller,
        &spec,
        &params,
        &policy,
    );
    run.attach_adaptive(
        AdaptivePolicy::default(),
        Box::new(ScriptedFeedback::constant(1_000)),
        &params,
    );
    let mut sink = NullSink { rows: 0, chunks: 0 };

    // Warm-up: the first chunk grows the scratch to its high-water mark.
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
            "adaptive hold chunk {steady_chunks} allocated {allocs} times"
        );
    }
    assert!(
        steady_chunks >= 16,
        "budget should force many chunks, got {steady_chunks}"
    );
    assert_eq!(sink.rows, w.expected_matches);
    assert_eq!(
        run.run_stats().adaptive_replans,
        0,
        "accurate feedback holds"
    );
}

/// A fired re-split may allocate in the re-split step itself (the planner
/// runs once) — but the chunks *after* it must return to zero allocations:
/// a slow re-split only shrinks the chunk working set, so the warmed
/// scratch never regrows.
#[test]
fn steps_after_a_resplit_return_to_zero_allocations() {
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
    let mut run = DsmPipelineRun::over_dsm(
        prepared.clone(),
        &w.larger,
        &w.smaller,
        &spec,
        &params,
        &policy,
    );
    // React instantly, once: accurate for three observations, then a 3x
    // shock — the single re-plan fires at a known chunk index.
    run.attach_adaptive(
        AdaptivePolicy::default()
            .alpha(1_000)
            .observations(1)
            .replans(1),
        Box::new(ScriptedFeedback::from_ratios(&[
            1_000, 1_000, 1_000, 3_000, 1_000,
        ])),
        &params,
    );
    let wide_chunk_rows = run.streaming().chunk_rows;
    let mut sink = NullSink { rows: 0, chunks: 0 };

    // Warm-up chunk 0, then two accurate steady chunks: still 0-alloc.
    assert!(run.step(&mut sink).is_some());
    for i in 1..3 {
        let allocs = allocations_during(|| {
            let _ = run.step(&mut sink);
        });
        assert_eq!(allocs, 0, "pre-resplit chunk {i} allocated {allocs} times");
    }

    // Chunk 3 observes the shock and fires the re-split — the one step
    // allowed to allocate (the planner's arithmetic, measured separately).
    let resplit_allocs = allocations_during(|| {
        let _ = run.step(&mut sink);
    });
    assert_eq!(run.run_stats().adaptive_replans, 1, "the shock must fire");
    assert!(
        run.streaming().chunk_rows < wide_chunk_rows,
        "a slow re-split must tighten chunks"
    );
    assert!(
        resplit_allocs <= 8,
        "the re-split step itself grew unexpectedly: {resplit_allocs} allocations"
    );

    // Every chunk after the re-split is allocation-free again: the
    // tightened chunks fit the already-warmed scratch.
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
            "post-resplit chunk {steady_chunks} allocated {allocs} times"
        );
    }
    assert!(
        steady_chunks >= 16,
        "the tightened tail should stream many chunks, got {steady_chunks}"
    );
    assert_eq!(sink.rows, w.expected_matches);
}

#[test]
fn cluster_with_scratch_allocates_only_the_output() {
    let _guard = serialized();
    let oids: Vec<Oid> = (0..50_000u32).rev().collect();
    let payloads: Vec<Oid> = (0..50_000).collect();
    let spec = RadixClusterSpec::partial(6, 2, 0);
    let mut scratch = ClusterScratch::new();
    for mode in [ScatterMode::Plain, ScatterMode::Buffered] {
        // Warm-up grows the arena (the buffered mode additionally owns its
        // staging buffers, so each mode warms its own working set).
        let _ = radix_cluster_oids_with_scratch(&oids, &payloads, spec, mode, &mut scratch);
        let mut out = None;
        let allocs = allocations_during(|| {
            out = Some(radix_cluster_oids_with_scratch(
                &oids,
                &payloads,
                spec,
                mode,
                &mut scratch,
            ));
        });
        // Exactly the owned output: keys + payloads + bounds (the seed
        // kernel allocated four full-size working buffers and two cursor
        // vectors per segment on top).
        assert!(
            allocs <= 3,
            "{mode:?}: {allocs} allocations for an owned-output call"
        );
        assert_eq!(out.unwrap().len(), 50_000);
    }
    // The borrowed-view entry point allocates nothing at all (its result
    // buffers are part of the arena, warmed by its own first run).
    let _ = scratch.cluster_oids_in_scratch(&oids, &payloads, spec, ScatterMode::Buffered);
    let view_allocs = allocations_during(|| {
        let view = scratch.cluster_oids_in_scratch(&oids, &payloads, spec, ScatterMode::Buffered);
        assert_eq!(view.len(), 50_000);
    });
    assert_eq!(view_allocs, 0, "in-scratch clustering must not allocate");
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
    // Warm-up.
    radix_decluster_into(&values, &positions, &bounds, 4096, &mut scratch, &mut out);
    let allocs = allocations_during(|| {
        for _ in 0..5 {
            radix_decluster_into(&values, &positions, &bounds, 4096, &mut scratch, &mut out);
        }
    });
    assert_eq!(allocs, 0, "decluster_into must reuse its cursor scratch");
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

#[test]
fn swwc_slot_constant_agrees_between_kernel_and_cost_model() {
    // `rdx-cost` cannot depend on `rdx-core` (the planner would create a
    // cycle), so the staging-slot size is mirrored; this pins the mirror.
    assert_eq!(
        SWWC_SLOT_ELEMS,
        radix_decluster::cost::algorithms::SWWC_SLOT_ELEMS
    );
}
