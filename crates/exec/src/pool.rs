//! The morsel-driven scheduling substrate: scoped worker threads, a
//! work-stealing morsel queue, and safe disjoint-slice distribution.
//!
//! The design follows the morsel-driven query execution model: work is cut
//! into *morsels* — contiguous tuple ranges small enough that a worker's
//! footprint stays inside its per-core cache share — and idle workers pull
//! the next morsel from a shared cursor, so load balances dynamically without
//! any work-item ever being split.  All parallelism is expressed with
//! `std::thread::scope` plus `split_at_mut`-style slice partitioning, so the
//! whole engine stays inside `#![forbid(unsafe_code)]`.

use rdx_core::budget::MemoryBudget;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default morsel granularity in tuples: large enough that queue traffic is
/// noise, small enough that a 4-byte-value morsel sits well inside a per-core
/// L2 share.
pub const DEFAULT_MORSEL_TUPLES: usize = 16 * 1024;

/// How a parallel kernel should run: worker count and morsel granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Number of worker threads; `1` means run inline (no spawning) and `0`
    /// means auto-detect — resolve to the host's available parallelism at
    /// kernel entry (see [`ExecPolicy::worker_threads`]).
    pub threads: usize,
    /// Morsel size in tuples for dynamically scheduled loops.
    pub morsel_tuples: usize,
    /// Memory budget of the streaming pipeline (`rdx_exec::pipeline`): caps
    /// the per-chunk working set of value data.  Defaults to unbounded, under
    /// which a run is one chunk; the standalone kernels ignore it.
    pub budget: MemoryBudget,
}

impl ExecPolicy {
    /// A policy running on exactly `threads` workers; `0` requests
    /// auto-detection (one worker per hardware thread, clamped to at least
    /// one on hosts where parallelism cannot be queried).
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy {
            threads,
            morsel_tuples: DEFAULT_MORSEL_TUPLES,
            budget: MemoryBudget::unbounded(),
        }
    }

    /// The worker count kernels must actually use: `threads`, with `0`
    /// resolved to the host's available parallelism (never below one).
    /// Every kernel in this crate reads the policy through this method, so a
    /// zero-thread policy — built via [`ExecPolicy::with_threads`] or as a
    /// plain struct literal — degrades to auto-detection instead of
    /// panicking.
    pub fn worker_threads(&self) -> usize {
        if self.threads == 0 {
            detected_parallelism()
        } else {
            self.threads
        }
    }

    /// The sequential policy: one worker, everything runs inline.
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// One worker per hardware thread the host exposes.
    pub fn available() -> Self {
        Self::with_threads(detected_parallelism())
    }

    /// Overrides the morsel granularity.
    ///
    /// # Panics
    /// Panics if `morsel_tuples == 0`.
    pub fn morsel_tuples(mut self, morsel_tuples: usize) -> Self {
        assert!(morsel_tuples >= 1, "morsels must hold at least one tuple");
        self.morsel_tuples = morsel_tuples;
        self
    }

    /// Sets the streaming memory budget.
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::available()
    }
}

/// The host's available parallelism — one worker if it cannot be queried
/// (the auto-detect resolution of `threads == 0`).
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A lock-free work-stealing queue over the index range `0..len`: workers
/// claim morsels (disjoint contiguous subranges) until the range is drained.
#[derive(Debug)]
pub struct MorselQueue {
    next: AtomicUsize,
    len: usize,
    morsel: usize,
}

impl MorselQueue {
    /// A queue over `0..len` handing out morsels of at most `morsel` indices.
    ///
    /// # Panics
    /// Panics if `morsel == 0`.
    pub fn new(len: usize, morsel: usize) -> Self {
        assert!(morsel >= 1, "morsels must hold at least one index");
        MorselQueue {
            next: AtomicUsize::new(0),
            len,
            morsel,
        }
    }

    /// Claims the next unprocessed morsel, or `None` when the queue is dry.
    pub fn claim(&self) -> Option<Range<usize>> {
        // `fetch_add` past `len` is harmless: every overshooting claimer sees
        // `start >= len` and gives up.
        let start = self.next.fetch_add(self.morsel, Ordering::Relaxed);
        if start >= self.len {
            None
        } else {
            Some(start..(start + self.morsel).min(self.len))
        }
    }
}

/// A caught worker panic: which worker's unwind the pool intercepted.
///
/// [`try_run_workers`] returns this instead of aborting the pool, and
/// [`run_workers`] re-raises it via [`std::panic::panic_any`] so upstream
/// unwind-catchers (the serving engine's per-chunk isolation) can downcast
/// the payload back to the worker index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Zero-based index of the worker that panicked (the lowest-indexed one
    /// when several panicked in the same scope).
    pub worker: usize,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rdx-exec worker {} panicked", self.worker)
    }
}

impl std::error::Error for WorkerPanic {}

/// Runs `worker(worker_index)` on `threads` scoped threads, catching worker
/// unwinds: `Ok` carries the per-worker results in worker order, `Err`
/// reports the first worker (by index) that panicked.  With `threads == 1`
/// the closure runs inline on the caller's thread, its unwind caught the
/// same way, so the panic surface is identical at every thread count.
pub fn try_run_workers<R, F>(threads: usize, worker: F) -> Result<Vec<R>, WorkerPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads >= 1, "at least one worker thread is required");
    if threads == 1 {
        return match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(0))) {
            Ok(r) => Ok(vec![r]),
            Err(_) => Err(WorkerPanic { worker: 0 }),
        };
    }
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || worker(t)))
            .collect();
        // Join *every* handle before reporting, so no worker outlives the
        // scope and the first panicking worker (by index) wins.
        let mut results = Vec::with_capacity(threads);
        let mut panicked: Option<usize> = None;
        for (t, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(r) => results.push(r),
                Err(_) => panicked = panicked.or(Some(t)),
            }
        }
        match panicked {
            None => Ok(results),
            Some(worker) => Err(WorkerPanic { worker }),
        }
    })
}

/// Runs `worker(worker_index)` on `threads` scoped threads and returns the
/// per-worker results in worker order.  With `threads == 1` the closure runs
/// inline on the caller's thread.
///
/// # Panics
/// If a worker panics, re-raises the failure as a [`WorkerPanic`] payload
/// (via [`std::panic::panic_any`]) after all workers have been joined —
/// callers that need to survive worker crashes use [`try_run_workers`] or
/// catch the unwind and downcast the payload.
pub fn run_workers<R, F>(threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match try_run_workers(threads, worker) {
        Ok(results) => results,
        Err(wp) => std::panic::panic_any(wp),
    }
}

/// Morsel-driven parallel fill of an output slice: `fill(offset, chunk)` is
/// called for disjoint chunks of at most `policy.morsel_tuples` elements,
/// where `offset` is the chunk's start index in `out`.  Chunks are claimed
/// dynamically by idle workers (work stealing), so skew in per-chunk cost
/// balances out.
pub fn for_each_output_morsel<T, F>(out: &mut [T], policy: &ExecPolicy, fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let morsel = policy.morsel_tuples;
    let threads = policy.worker_threads();
    if threads == 1 || out.len() <= morsel {
        for (i, chunk) in out.chunks_mut(morsel).enumerate() {
            fill(i * morsel, chunk);
        }
        return;
    }
    // `chunks_mut` hands out disjoint `&mut` shards; the Mutex only guards
    // the *iterator*, never the data, so workers hold the lock for one
    // `next()` call and compute unlocked.
    let queue = Mutex::new(out.chunks_mut(morsel).enumerate());
    run_workers(threads, |_| loop {
        let claimed = queue.lock().expect("morsel queue poisoned").next();
        match claimed {
            Some((i, chunk)) => fill(i * morsel, chunk),
            None => break,
        }
    });
}

/// Splits `data` into the `H` disjoint `&mut` shards described by `bounds`
/// (`H + 1` ascending offsets covering `data`), e.g. the cluster borders of a
/// [`rdx_core::cluster::Clustered`].
///
/// # Panics
/// Panics if the bounds are not ascending or do not cover `data` exactly.
pub fn split_by_bounds<'a, T>(mut data: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    assert!(!bounds.is_empty(), "bounds need at least one offset");
    assert_eq!(
        bounds[bounds.len() - 1],
        data.len(),
        "bounds must cover the data"
    );
    let mut shards = Vec::with_capacity(bounds.len() - 1);
    let mut prev = bounds[0];
    assert_eq!(prev, 0, "bounds must start at zero");
    for &b in &bounds[1..] {
        let (head, tail) = data.split_at_mut(b - prev);
        shards.push(head);
        data = tail;
        prev = b;
    }
    shards
}

/// Cuts `0..n` into `parts` contiguous near-equal ranges (some possibly
/// empty when `parts > n`).
pub fn partition_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    (0..parts)
        .map(|p| n * p / parts..n * (p + 1) / parts)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn morsel_queue_covers_range_exactly_once() {
        let q = MorselQueue::new(1000, 64);
        let claims = run_workers(4, |_| {
            let mut mine = Vec::new();
            while let Some(r) = q.claim() {
                mine.push(r);
            }
            mine
        });
        let mut seen = HashSet::new();
        for r in claims.into_iter().flatten() {
            for i in r {
                assert!(seen.insert(i), "index {i} claimed twice");
            }
        }
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn morsel_fill_writes_every_slot() {
        let policy = ExecPolicy::with_threads(4).morsel_tuples(13);
        let mut out = vec![0usize; 10_007];
        for_each_output_morsel(&mut out, &policy, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = off + i + 1;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i + 1);
        }
    }

    #[test]
    fn run_workers_preserves_worker_order() {
        let calls = AtomicUsize::new(0);
        let ids = run_workers(8, |w| {
            calls.fetch_add(1, Ordering::Relaxed);
            w * 10
        });
        assert_eq!(ids, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn worker_panic_is_caught_not_fatal() {
        // A real panicking worker on a real multi-thread scope: the pool
        // joins every handle and reports the panicking worker's index.
        let err = try_run_workers(4, |w| {
            if w == 2 {
                panic!("scripted worker crash");
            }
            w
        })
        .unwrap_err();
        assert_eq!(err, WorkerPanic { worker: 2 });
        assert!(err.to_string().contains("worker 2"));
        // The inline single-thread path catches the same way.
        let err = try_run_workers(1, |_| -> usize { panic!("inline crash") }).unwrap_err();
        assert_eq!(err.worker, 0);
        // Healthy workers still come back in order through the Ok arm.
        assert_eq!(try_run_workers(3, |w| w * 2), Ok(vec![0, 2, 4]));
        // run_workers re-raises as a downcastable WorkerPanic payload.
        let unwind = std::panic::catch_unwind(|| run_workers(2, |w| -> usize { panic!("w{w}") }))
            .unwrap_err();
        let wp = unwind.downcast_ref::<WorkerPanic>();
        assert!(wp.is_some(), "payload must downcast to WorkerPanic");
        assert_eq!(wp.map(|w| w.worker), Some(0));
    }

    #[test]
    fn split_by_bounds_yields_disjoint_covering_shards() {
        let mut data: Vec<u32> = (0..10).collect();
        let shards = split_by_bounds(&mut data, &[0, 3, 3, 7, 10]);
        let lens: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![3, 0, 4, 3]);
        assert_eq!(shards[2], &[3, 4, 5, 6]);
    }

    #[test]
    fn partition_ranges_cover_and_are_contiguous() {
        for (n, parts) in [(10, 3), (0, 4), (5, 8), (1000, 7)] {
            let ranges = partition_ranges(n, parts);
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[parts - 1].end, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn zero_threads_means_auto_detect() {
        let policy = ExecPolicy::with_threads(0);
        assert_eq!(policy.threads, 0);
        assert!(policy.worker_threads() >= 1);
        assert_eq!(policy.worker_threads(), detected_parallelism());
        // Explicit counts pass through unchanged.
        assert_eq!(ExecPolicy::with_threads(3).worker_threads(), 3);
        // A zero-thread struct literal resolves the same way.
        let literal = ExecPolicy {
            threads: 0,
            morsel_tuples: 8,
            budget: MemoryBudget::unbounded(),
        };
        assert_eq!(literal.worker_threads(), detected_parallelism());
    }
}
