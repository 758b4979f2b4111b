//! The **fair chunk scheduler**'s one rule: which running query's chunk
//! runs next, so a big scan cannot starve small lookups.
//!
//! Chunk boundaries are natural preemption points — a
//! [`rdx_exec::PipelineRun`] parks between chunks as a plain value — so
//! fairness needs no threads and no signals: the serving loop just decides
//! *whose* chunk runs next.  The decision rule is **stride scheduling**:
//! every running query carries a [`Turn`] — a `pass` value, its `stride`
//! and its admission order — and [`dispatch`] runs the query with the
//! smallest pass (ties broken by admission order, keeping the whole loop
//! deterministic), then advances that query's pass by its stride.  The
//! turns live on the engine's running entries; nothing here keeps a list
//! of its own.
//!
//! The stride is the predicted chunk cost of the run's own codes — the
//! Appendix-A price of the plan it executes
//! ([`rdx_core::strategy::planner::predict_cost`] at its cache share),
//! divided by its chunk count — times its urgency: passes advance in
//! predicted milliseconds, so each query receives an equal share of
//! predicted machine time — a query with 10× cheaper chunks runs 10× as
//! many of them, and short lookups drain quickly while a scan's expensive
//! chunks space out.
//! At equal costs and urgencies the rule is strict round-robin in
//! admission order.

/// Floor on a cost-weighted stride: small enough that any genuinely cheap
/// query still runs orders of magnitude more often than an expensive one,
/// large enough that `pass += stride` always moves the pass for any
/// realistic pass magnitude (f64 has ~16 significant digits; passes stay in
/// predicted-milliseconds scale).  A sub-ulp stride — e.g. the naive
/// `f64::MIN_POSITIVE` — would be absorbed by rounding and let one query
/// monopolise the loop forever.
const MIN_STRIDE: f64 = 1e-6;

/// Ceiling on a stride, so an infinite/overflowing cost prediction parks a
/// query at the back of the service order instead of pushing its pass to
/// infinity and starving it outright.
const MAX_STRIDE: f64 = 1e12;

/// One running query's place in the stride order: its pass, its stride
/// and its admission order.  The engine keeps it on the query's running
/// entry, so a turn exists exactly while its query runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Turn {
    pass: f64,
    stride: f64,
    arrival: u64,
}

impl Turn {
    /// A newcomer's turn.  `chunk_cost` is its predicted per-chunk cost
    /// (any consistent unit) and `urgency` scales it — the EDF-flavored
    /// deadline hook: an urgent query (low deadline slack) passes
    /// `urgency < 1`, shrinking its stride so its pass advances slower and
    /// it wins more dispatches; `1.0` is plain fair stride.  The product is
    /// clamped to the `MIN_STRIDE`/`MAX_STRIDE` guards, so a zero or
    /// infinite cost or urgency degrades gracefully instead of stalling the
    /// loop, and a NaN either way counts as `1.0`.  `arrival` breaks pass
    /// ties.  The newcomer starts at the minimum pass of the `running`
    /// turns, so it neither starves nor gets to replay the service it
    /// missed.
    pub fn new<'a>(
        chunk_cost: f64,
        urgency: f64,
        arrival: u64,
        running: impl IntoIterator<Item = &'a Turn>,
    ) -> Turn {
        let or_one = |x: f64| if x.is_nan() { 1.0 } else { x };
        let stride = (or_one(chunk_cost) * or_one(urgency)).clamp(MIN_STRIDE, MAX_STRIDE);
        let pass = (running.into_iter().map(|t| t.pass)).fold(f64::INFINITY, f64::min);
        Turn {
            pass: if pass.is_finite() { pass } else { 0.0 },
            stride,
            arrival,
        }
    }
}

/// Picks the turn whose chunk runs next (smallest pass, ties by arrival),
/// charges it one stride and returns its index.  `None` when there is none.
pub fn dispatch<'a>(turns: impl IntoIterator<Item = &'a mut Turn>) -> Option<usize> {
    // `total_cmp` is NaN-safe: passes never are NaN (strides are clamped
    // finite), but a total order costs nothing and removes the panic path
    // outright.
    let (at, next) = (turns.into_iter().enumerate())
        .min_by(|(_, a), (_, b)| a.pass.total_cmp(&b.pass).then(a.arrival.cmp(&b.arrival)))?;
    next.pass += next.stride;
    Some(at)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Query ids and their turns, standing in for the engine's running set:
    /// a removal swaps the last entry in, as the engine's does.
    #[derive(Default)]
    struct Running {
        ids: Vec<usize>,
        turns: Vec<Turn>,
        arrivals: u64,
    }

    impl Running {
        fn add(&mut self, id: usize, chunk_cost: f64) {
            self.add_weighted(id, chunk_cost, 1.0);
        }

        fn add_weighted(&mut self, id: usize, chunk_cost: f64, urgency: f64) {
            let turn = Turn::new(chunk_cost, urgency, self.arrivals, &self.turns);
            self.arrivals += 1;
            self.ids.push(id);
            self.turns.push(turn);
        }

        fn dispatch(&mut self) -> Option<usize> {
            dispatch(&mut self.turns).map(|at| self.ids[at])
        }

        fn remove(&mut self, id: usize) {
            let at = self.ids.iter().position(|&i| i == id).unwrap();
            self.ids.swap_remove(at);
            self.turns.swap_remove(at);
        }

        fn len(&self) -> usize {
            self.ids.len()
        }
    }

    #[test]
    fn round_robin_alternates_in_arrival_order() {
        // Equal costs are round-robin: strict alternation in arrival order.
        let mut s = Running::default();
        s.add(10, 5.0);
        s.add(20, 5.0);
        s.add(30, 5.0);
        let order: Vec<_> = (0..6).map(|_| s.dispatch().unwrap()).collect();
        assert_eq!(order, vec![10, 20, 30, 10, 20, 30]);
        // Each query was charged two strides.
        assert!(s.turns.iter().all(|t| t.pass == 10.0));
    }

    #[test]
    fn cost_weighted_gives_cheap_chunks_more_turns() {
        let mut s = Running::default();
        s.add(1, 10.0); // expensive scan
        s.add(2, 1.0); // cheap lookup
        let mut counts = [0usize; 2];
        for _ in 0..110 {
            match s.dispatch().unwrap() {
                1 => counts[0] += 1,
                2 => counts[1] += 1,
                _ => unreachable!(),
            }
        }
        // Equal predicted-time shares: ~10 cheap chunks per expensive one.
        assert_eq!(counts[0], 10);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn completion_and_late_arrival() {
        let mut s = Running::default();
        s.add(1, 1.0);
        s.add(2, 1.0);
        for _ in 0..10 {
            s.dispatch();
        }
        s.remove(1);
        assert_eq!(s.len(), 1);
        // A latecomer starts at the current minimum pass: it gets service
        // immediately but cannot monopolise to "catch up".
        s.add(3, 1.0);
        let order: Vec<_> = (0..4).map(|_| s.dispatch().unwrap()).collect();
        assert_eq!(order.iter().filter(|&&id| id == 3).count(), 2);
        assert_eq!(order.iter().filter(|&&id| id == 2).count(), 2);
    }

    #[test]
    fn urgency_weight_front_loads_tight_deadlines() {
        // Two equal-cost queries; one carries an urgency of 1/4 (tight
        // slack).  Equal predicted time per *pass unit* means the urgent
        // query now runs ~4 chunks per relaxed chunk.
        let mut s = Running::default();
        s.add_weighted(1, 2.0, 0.25);
        s.add(2, 2.0);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            match s.dispatch().unwrap() {
                1 => counts[0] += 1,
                2 => counts[1] += 1,
                _ => unreachable!(),
            }
        }
        assert_eq!(counts[0], 80, "{counts:?}");
        assert_eq!(counts[1], 20, "{counts:?}");
        // Urgency outranks equal-cost alternation too — a deadline query
        // must be able to jump a round-robin.
        let mut rr = Running::default();
        rr.add_weighted(1, 99.0, 0.5);
        rr.add(2, 99.0);
        let order: Vec<_> = (0..6).map(|_| rr.dispatch().unwrap()).collect();
        assert_eq!(order.iter().filter(|&&id| id == 1).count(), 4);
        // Degenerate urgencies clamp like any stride.
        let mut d = Running::default();
        d.add_weighted(7, 1.0, 0.0);
        d.add_weighted(8, 1.0, f64::NAN);
        d.add_weighted(9, 1.0, f64::INFINITY);
        for _ in 0..12 {
            assert!(d.dispatch().is_some());
        }
    }

    #[test]
    fn degenerate_costs_never_stall_or_monopolise() {
        // A zero predicted cost floors to a stride that still *advances the
        // pass*: a co-runner three floors wide must keep getting turns.  (A
        // sub-ulp fallback stride would be absorbed by fp rounding and hand
        // the zero-cost query the loop forever.)
        let mut s = Running::default();
        s.add(1, 0.0);
        s.add(2, 3.0 * MIN_STRIDE);
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            match s.dispatch().unwrap() {
                1 => counts[0] += 1,
                2 => counts[1] += 1,
                _ => unreachable!(),
            }
        }
        assert!(counts[0] > counts[1], "{counts:?}");
        assert!(counts[1] >= 90, "co-runner starved: {counts:?}");
        // NaN and infinity clamp to sane strides and keep the loop sound.
        s.add(3, f64::NAN);
        s.add(4, f64::INFINITY);
        for _ in 0..30 {
            assert!(s.dispatch().is_some());
        }
        assert_eq!(s.len(), 4);
        for id in 1..=4 {
            s.remove(id);
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.dispatch(), None);
    }
}
