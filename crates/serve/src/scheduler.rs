//! The chunk scheduler's one rule: which running query's chunk runs next.
//!
//! Chunk boundaries are natural preemption points — a
//! [`rdx_exec::PipelineRun`] parks between chunks as a plain value — so
//! interleaving needs no threads and no signals: the serving loop just
//! decides *whose* chunk runs next.  The rule is **remaining work first**
//! (Schrage's SRPT): [`dispatch`] runs the query with the least predicted
//! work left — its chunks left × its predicted chunk cost (the Appendix-A
//! price [`rdx_core::strategy::planner::predict_cost`] of the codes it
//! executes, over its chunk count) × its deadline urgency — the first
//! admitted among equals.  The query closest to done finishes first and
//! hands its grant back; equal queries run first-come first-served instead
//! of all finishing late together.
//!
//! One rule bounds what that costs a big run: a run that has waited
//! [`STARVATION_BOUND`] dispatches since its own last chunk (or since its
//! admission) goes next, oldest first.  With two queries in flight no run
//! waits more than `STARVATION_BOUND` dispatches of others between two of
//! its own; with `c` in flight, at most `c - 2` more, since runs that last
//! ran at the same step fall due together and go one at a time.  The keys
//! and the waiting stamps live on the engine's running entries.

/// Dispatches of other queries a run may wait before it goes next.  Large
/// enough to leave the benchmark mix to remaining-work-first: there a
/// forced chunk delays the shorter co-runners while the long run keeps its
/// slot either way, so a bound of 63 forced 2.7 % of the dispatches and
/// cost the mix's p90 latency ×1.16–1.20, where 255 forces 0.15 % and
/// reads like no bound (the mix's longest unbounded wait is 256–511).
/// Small enough that a run behind an endless stream of one-chunk queries
/// still gets one dispatch in 256.  And `2^8 - 1`, so a wait of exactly
/// the bound is its log2 bucket's upper edge in the `engine.dispatch_wait`
/// histogram.
pub const STARVATION_BOUND: u64 = 255;

/// Picks whose chunk runs next at engine step `now`.  `running` yields, in
/// admission order, each run's predicted work left and the step it has
/// waited since.  The oldest run goes once it has waited
/// [`STARVATION_BOUND`] dispatches, else the least work left, the first
/// admitted among equals.  `None` when nothing runs.
pub fn dispatch(now: u64, running: impl Iterator<Item = (f64, u64)> + Clone) -> Option<usize> {
    let stamps = running.clone().map(|(_, since)| since).enumerate();
    let (oldest, since) = stamps.min_by_key(|&(_, since)| since)?;
    if now.saturating_sub(since) >= STARVATION_BOUND {
        return Some(oldest);
    }
    // `total_cmp` orders every key, NaN included, so nothing can panic.
    let work = running.map(|(work, _)| work).enumerate();
    work.min_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(at, _)| at)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run as the engine keeps it: an id, its chunks left, its
    /// weighted chunk price and the step it has waited since.
    struct Run {
        id: usize,
        chunks: usize,
        chunk_work: f64,
        since: u64,
        max_wait: u64,
    }

    /// A running set stepped the way the engine steps it: in admission
    /// order, one dispatch per step, a run leaving after its last chunk.
    #[derive(Default)]
    struct Running {
        runs: Vec<Run>,
        step: u64,
        /// `(id, max wait)` of every run that left.
        retired: Vec<(usize, u64)>,
    }

    impl Running {
        fn add(&mut self, id: usize, chunks: usize, chunk_work: f64) {
            let since = self.step;
            (self.runs).push(Run {
                id,
                chunks,
                chunk_work,
                since,
                max_wait: 0,
            });
        }

        fn dispatch(&mut self) -> Option<usize> {
            let keys = (self.runs.iter()).map(|r| (r.chunks as f64 * r.chunk_work, r.since));
            let at = dispatch(self.step, keys)?;
            let run = &mut self.runs[at];
            run.max_wait = run.max_wait.max(self.step - run.since);
            run.since = self.step + 1;
            run.chunks -= 1;
            let id = run.id;
            if run.chunks == 0 {
                let run = self.runs.remove(at);
                self.retired.push((run.id, run.max_wait));
            }
            self.step += 1;
            Some(id)
        }

        fn drain(&mut self) -> Vec<usize> {
            std::iter::from_fn(|| self.dispatch()).collect()
        }
    }

    #[test]
    fn equal_work_runs_first_come_first_served() {
        // Equal work left: the first admitted runs to completion, then the
        // next — no query waits on a peer it arrived before.
        let mut s = Running::default();
        s.add(10, 2, 5.0);
        s.add(20, 2, 5.0);
        s.add(30, 2, 5.0);
        assert_eq!(s.drain(), vec![10, 10, 20, 20, 30, 30]);
        assert_eq!(s.retired, vec![(10, 0), (20, 2), (30, 4)]);
    }

    #[test]
    fn least_predicted_work_left_runs_first() {
        // Work left is chunks × weighted price, not chunk count and not
        // chunk price alone: ten chunks at 1.0 (10) run before two at 10.0
        // (20), and one chunk at 15.0 (15) runs between them.
        let mut s = Running::default();
        s.add(1, 2, 10.0);
        s.add(2, 10, 1.0);
        s.add(3, 1, 15.0);
        let order = s.drain();
        assert_eq!(order[..10], [2; 10]);
        assert_eq!(order[10..], [3, 1, 1]);
    }

    #[test]
    fn a_shorter_latecomer_runs_at_the_next_dispatch() {
        let mut s = Running::default();
        s.add(1, 6, 1.0);
        assert_eq!((s.dispatch(), s.dispatch()), (Some(1), Some(1)));
        // Four chunks left: a two-chunk latecomer goes at once and
        // finishes, and a five-chunk one waits for both.
        s.add(2, 2, 1.0);
        s.add(3, 5, 1.0);
        assert_eq!(s.drain(), vec![2, 2, 1, 1, 1, 1, 3, 3, 3, 3, 3]);
    }

    #[test]
    fn urgency_scales_the_work_left() {
        // Equal chunks and prices; the second carries urgency 1/4 (tight
        // slack, or priority 4), so it runs first although admitted second.
        let mut s = Running::default();
        s.add(1, 4, 2.0);
        s.add(2, 4, 2.0 * 0.25);
        assert_eq!(s.drain(), vec![2, 2, 2, 2, 1, 1, 1, 1]);
        // Urgency weighs work, not order: an urgent run with more than
        // four times the work left still runs after the relaxed one.
        let mut s = Running::default();
        s.add(1, 4, 2.0);
        s.add(2, 20, 2.0 * 0.25);
        assert_eq!(s.drain()[..4], [1; 4]);
    }

    #[test]
    fn a_run_waiting_the_bound_goes_next_oldest_first() {
        // A long run behind a stream of one-chunk runs, two in flight: it
        // gets exactly one dispatch in STARVATION_BOUND + 1.
        let mut s = Running::default();
        s.add(0, 3, 1.0);
        let mut next = 1;
        for _ in 0..10_000 {
            if !s.runs.iter().any(|r| r.id == 0) {
                break;
            }
            if s.runs.len() < 2 {
                s.add(next, 1, 1e-3);
                next += 1;
            }
            s.dispatch();
        }
        let bound = STARVATION_BOUND as usize;
        assert_eq!(s.retired.iter().position(|r| r.0 == 0), Some(3 * bound));
        assert_eq!(s.retired.iter().map(|r| r.1).max(), Some(STARVATION_BOUND));
        // Two runs admitted at one step fall due together behind a
        // zero-work third: the first admitted goes at the bound, the other
        // one dispatch later (`c - 2` with `c = 3`).
        let mut s = Running::default();
        s.add(1, 2, 1.0);
        s.add(2, 2, 1.0);
        s.add(9, 1_000, 0.0);
        for _ in 0..STARVATION_BOUND {
            assert_eq!(s.dispatch(), Some(9));
        }
        assert_eq!((s.dispatch(), s.dispatch()), (Some(1), Some(2)));
        let waits: Vec<u64> = s.runs.iter().map(|r| r.max_wait).collect();
        assert_eq!(waits, vec![STARVATION_BOUND, STARVATION_BOUND + 1, 0]);
    }

    #[test]
    fn degenerate_keys_never_stall_the_loop() {
        // A zero price keys a run at zero work left for good, yet its
        // co-runner still gets every bound-th dispatch.
        let mut s = Running::default();
        s.add(1, 1_000, 0.0);
        s.add(2, 3, 1.0);
        let order: Vec<_> = (0..3 * (STARVATION_BOUND as usize + 1))
            .map(|_| s.dispatch())
            .collect();
        assert_eq!(order.iter().filter(|&&id| id == Some(2)).count(), 3);
        // NaN and infinite keys order like any other and keep the loop sound.
        s.add(3, 5, f64::NAN);
        s.add(4, 5, f64::INFINITY);
        for _ in 0..30 {
            assert!(s.dispatch().is_some());
        }
        s.runs.clear();
        assert_eq!(s.dispatch(), None);
        assert_eq!(dispatch(0, std::iter::empty()), None);
    }
}
