//! The one worker runtime of `rdx-exec`: the [`ExecPolicy`] every parallel
//! kernel reads, the one place workers are spawned ([`run_workers`]) and
//! the one way they share work ([`Claims`]).
//!
//! Every parallel kernel cuts its work into disjoint items — `&mut` output
//! shards (`chunks_mut`) or input ranges — and hands them out through
//! [`Claims`]: whichever worker is free takes the next item, so skew in
//! per-item cost balances out and no item is ever split.  [`run_workers`]
//! spawns the workers on one `std::thread::scope`, joins every one of them
//! and re-raises a crashed worker as a [`WorkerPanic`], so a worker panic
//! reaches the serving engine the same way from every kernel.  All mutation
//! goes through disjoint `&mut` slices, so the whole engine stays inside
//! `#![forbid(unsafe_code)]`.

use rdx_core::budget::MemoryBudget;
use std::sync::Mutex;

/// Morsel granularity of the parallel gather, in tuples: large enough that
/// claiming is noise, small enough that a 4-byte-value morsel sits well
/// inside a per-core L2 share.
pub const DEFAULT_MORSEL_TUPLES: usize = 16 * 1024;

/// How a parallel kernel should run: its worker count, and the memory
/// budget of the streaming pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Number of worker threads, at least one; `1` runs every kernel as one
    /// call of its sequential `rdx-core` kernel on the caller's thread.
    /// [`ExecPolicy::with_threads`] resolves a request for `0` workers to
    /// the host's available parallelism when the policy is built, so no
    /// kernel resolves it again.
    pub threads: usize,
    /// Memory budget of the streaming pipeline (`rdx_exec::pipeline`): caps
    /// the per-chunk working set of value data.  Defaults to unbounded, under
    /// which a run is one chunk; the standalone kernels ignore it.
    pub budget: MemoryBudget,
}

impl ExecPolicy {
    /// A policy running on `threads` workers under an unbounded budget;
    /// `0` asks for one worker per hardware thread, resolved here (one
    /// worker on hosts where parallelism cannot be queried).
    pub fn with_threads(threads: usize) -> Self {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        ExecPolicy {
            threads,
            budget: MemoryBudget::unbounded(),
        }
    }

    /// The sequential policy: one worker, everything runs inline.
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// One worker per hardware thread the host exposes.
    pub fn available() -> Self {
        Self::with_threads(0)
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

/// A caught worker panic: which worker's unwind the pool intercepted.
///
/// [`run_workers`] re-raises a crashed worker with this payload (via
/// [`std::panic::panic_any`]), so upstream unwind-catchers (the serving
/// engine's per-chunk isolation) can downcast it back to the worker index.
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

/// Runs `worker(worker_index)` on `threads` scoped threads — the one spawn
/// site of `rdx-exec` — and returns once every worker has finished.  With
/// one worker (or none) the closure runs inline on the caller's thread and
/// its panic unwinds unchanged.
///
/// # Panics
/// If a spawned worker panics, re-raises the failure as a [`WorkerPanic`]
/// payload naming the lowest-indexed worker that panicked, after every
/// worker has been joined.
pub fn run_workers<F: Fn(usize) + Sync>(threads: usize, worker: F) {
    if threads <= 1 {
        return worker(0);
    }
    let panicked = std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        // Join *every* handle before reporting, so no worker outlives the
        // scope and the first panicking worker (by index) is the one named.
        let failed: Vec<bool> = handles.into_iter().map(|h| h.join().is_err()).collect();
        failed.iter().position(|&f| f)
    });
    if let Some(worker) = panicked {
        std::panic::panic_any(WorkerPanic { worker });
    }
}

/// The one claim helper: a shared queue over disjoint items that hands the
/// next one to whichever worker asks, until they run out.  Items are
/// disjoint by construction — `&mut` output shards from `chunks_mut`, input
/// ranges, per-partition output slots — so the `Mutex` guards only the
/// *iterator*, never the data: a worker holds the lock for one `next()` and
/// computes unlocked.
pub struct Claims<I>(Mutex<I>);

impl<I: Iterator> Claims<I> {
    /// A queue handing out `items` in order.
    pub fn new(items: I) -> Self {
        Claims(Mutex::new(items))
    }

    /// The next unclaimed item, or `None` once every item is claimed.
    pub fn claim(&self) -> Option<I::Item> {
        self.0.lock().expect("claim queue poisoned").next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn claims_cover_every_item_exactly_once() {
        let queue = Claims::new(0..1000);
        let seen = Mutex::new(HashSet::new());
        run_workers(4, |_| {
            while let Some(i) = queue.claim() {
                assert!(seen.lock().unwrap().insert(i), "item {i} claimed twice");
            }
        });
        assert_eq!(seen.into_inner().unwrap().len(), 1000);
    }

    #[test]
    fn claimed_output_shards_write_every_slot() {
        let mut out = vec![0usize; 10_007];
        let morsel = 13;
        let queue = Claims::new(out.chunks_mut(morsel).enumerate());
        run_workers(4, |_| {
            while let Some((i, chunk)) = queue.claim() {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = i * morsel + j + 1;
                }
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i + 1);
        }
    }

    #[test]
    fn run_workers_runs_each_worker_once() {
        let calls = AtomicUsize::new(0);
        let ids = Mutex::new(Vec::new());
        run_workers(8, |w| {
            calls.fetch_add(1, Ordering::Relaxed);
            ids.lock().unwrap().push(w);
        });
        let mut ids = ids.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn a_worker_panic_is_re_raised_as_worker_panic() {
        // A real panicking worker on a real multi-thread scope: the pool
        // joins every handle and reports the panicking worker's index.
        let unwind = std::panic::catch_unwind(|| {
            run_workers(4, |w| {
                if w == 2 {
                    panic!("scripted worker crash");
                }
            })
        })
        .unwrap_err();
        let wp = unwind.downcast_ref::<WorkerPanic>().copied();
        assert_eq!(wp, Some(WorkerPanic { worker: 2 }));
        assert!(WorkerPanic { worker: 2 }.to_string().contains("worker 2"));
        // Several crashes name the lowest-indexed worker.
        let unwind = std::panic::catch_unwind(|| run_workers(3, |w| panic!("w{w}"))).unwrap_err();
        assert_eq!(
            unwind.downcast_ref::<WorkerPanic>().map(|w| w.worker),
            Some(0)
        );
        // One worker runs inline: its own payload unwinds unchanged.
        let unwind =
            std::panic::catch_unwind(|| run_workers(1, |_| panic!("inline crash"))).unwrap_err();
        assert_eq!(unwind.downcast_ref::<&str>(), Some(&"inline crash"));
    }

    #[test]
    fn zero_threads_is_resolved_at_construction() {
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(ExecPolicy::with_threads(0).threads, detected);
        assert_eq!(ExecPolicy::available(), ExecPolicy::with_threads(0));
        // Explicit counts pass through unchanged.
        assert_eq!(ExecPolicy::with_threads(3).threads, 3);
    }
}
