//! The **deterministic fault-injection harness**: scripted degradation for
//! the serving stack.
//!
//! Robustness paths — worker panics, deadline misses, admission denials,
//! cache evictions — are the hardest code in a serving system to test,
//! because the events that trigger them are timing- and load-dependent.
//! This module makes every one of them a *pure function of a script*: a
//! [`FaultPlan`] lists actions pinned to exact points (a query's submission
//! ordinal, a chunk-step index), and a [`FaultInjector`] replays the plan as
//! the engine probes it.  Each action fires **exactly once**, at its pinned
//! point, so two runs under the same plan degrade identically — the
//! conformance suite's determinism check is `assert_eq!` over traces, not a
//! flaky sleep.
//!
//! Addressing: `query` is the 0-based **submission ordinal** — the order in
//! which queries entered the engine (ticket submissions and direct resolves
//! both count, and a retried query keeps its ordinal).  `step` is the
//! 0-based index of the chunk *about to run* when the engine probes.
//!
//! [`RetryPolicy`] rides along here because it is the other half of the
//! robustness substrate: a capped retry-with-backoff for budget-rejected
//! and panicked queries, measured in **engine drive steps** — never
//! wall-clock — so recovery is as deterministic as the faults.

/// Capped retry-with-backoff for budget-rejected and worker-panicked
/// queries, measured in engine `drive` steps (deterministic — no clocks).
///
/// After the `k`-th failure (1-based), the query is parked for
/// `backoff_steps << (k - 1)` drive steps (exponential, saturating) and
/// then re-enters the admission queue with its ticket, query id and
/// submission ordinal unchanged.  Once `max_retries` attempts have been
/// consumed, the next failure is final and surfaces through the ticket.
/// Deadline failures are never retried: an infeasible or expired deadline
/// cannot be cured by waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Maximum number of *re*-attempts after the first failure.
    pub max_retries: u32,
    /// Backoff before the first retry, in engine drive steps; doubles per
    /// subsequent retry (saturating).
    pub backoff_steps: u64,
}

impl RetryPolicy {
    /// Retry up to `max_retries` times with a one-step initial backoff.
    pub fn with_retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            backoff_steps: 1,
        }
    }

    /// Overrides the initial backoff (in drive steps).
    pub fn backoff(mut self, steps: u64) -> Self {
        self.backoff_steps = steps;
        self
    }

    /// Drive steps to park before retry attempt `attempt` (1-based):
    /// `backoff_steps << (attempt - 1)`, saturating.
    pub fn delay_before(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        self.backoff_steps.saturating_mul(1u64 << shift)
    }
}

/// One scripted fault, pinned to an exact injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic (as morsel worker `worker` would) instead of running chunk
    /// `step` of query `query` — exercising the engine's unwind-catching
    /// teardown exactly as a real worker panic does.
    WorkerPanic {
        /// Submission ordinal of the target query.
        query: usize,
        /// Chunk-step index at which to panic.
        step: usize,
        /// Worker index the panic is attributed to.
        worker: usize,
    },
    /// Add `add_ns` artificial nanoseconds to the query's deadline clock
    /// after chunk `step` runs — how a test makes a deadline expire at an
    /// exact chunk boundary without sleeping.
    Slowdown {
        /// Submission ordinal of the target query.
        query: usize,
        /// Chunk-step index after which the slowdown is charged.
        step: usize,
        /// Artificial service time, nanoseconds.
        add_ns: u64,
    },
    /// Deny the query's next admission grant (surfaces as the budget
    /// rejection path, so it also exercises [`RetryPolicy`]).
    DenyGrant {
        /// Submission ordinal of the target query.
        query: usize,
    },
    /// Evict the whole clustered-index cache just before the query
    /// resolves, forcing it to rebuild its prepared prefix (a cache miss
    /// at an exact point).
    EvictCache {
        /// Submission ordinal of the target query.
        query: usize,
    },
}

impl FaultAction {
    /// The submission ordinal this action targets.
    pub fn query(&self) -> usize {
        match *self {
            FaultAction::WorkerPanic { query, .. }
            | FaultAction::Slowdown { query, .. }
            | FaultAction::DenyGrant { query }
            | FaultAction::EvictCache { query } => query,
        }
    }
}

/// A script of [`FaultAction`]s — built once, armed on an engine, replayed
/// deterministically by its [`FaultInjector`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends an arbitrary action.
    pub fn with(mut self, action: FaultAction) -> Self {
        self.actions.push(action);
        self
    }

    /// Scripts a worker panic at chunk `step` of query `query`.
    pub fn panic_at(self, query: usize, step: usize, worker: usize) -> Self {
        self.with(FaultAction::WorkerPanic {
            query,
            step,
            worker,
        })
    }

    /// Scripts `add_ns` artificial nanoseconds after chunk `step` of query
    /// `query`.
    pub fn slow_at(self, query: usize, step: usize, add_ns: u64) -> Self {
        self.with(FaultAction::Slowdown {
            query,
            step,
            add_ns,
        })
    }

    /// Scripts one admission denial for query `query` (repeat the action
    /// to deny consecutive retry attempts).
    pub fn deny_grant(self, query: usize) -> Self {
        self.with(FaultAction::DenyGrant { query })
    }

    /// Scripts a full cache eviction right before query `query` resolves.
    pub fn evict_cache(self, query: usize) -> Self {
        self.with(FaultAction::EvictCache { query })
    }

    /// The scripted actions, in script order.
    pub fn actions(&self) -> &[FaultAction] {
        &self.actions
    }

    /// Number of scripted actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Replays a [`FaultPlan`] as the engine probes its injection points.
///
/// Each probe scans the script for the first *unfired* action matching the
/// probe point, marks it fired, and reports it — so every action fires at
/// most once and the injector's behaviour is a pure function of the
/// `(plan, probe sequence)` pair.  Probes never allocate (the fired map is
/// pre-sized at construction), keeping the engine's steady-state chunk loop
/// allocation-free.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    fired: Vec<bool>,
}

impl FaultInjector {
    /// An injector replaying `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.len()];
        FaultInjector { plan, fired }
    }

    /// The script being replayed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Actions fired so far.
    pub fn fired(&self) -> usize {
        self.fired.iter().filter(|&&f| f).count()
    }

    /// `true` once every scripted action has fired.
    pub fn is_exhausted(&self) -> bool {
        self.fired.iter().all(|&f| f)
    }

    fn fire_first(&mut self, matches: impl Fn(&FaultAction) -> bool) -> Option<FaultAction> {
        for (i, action) in self.plan.actions.iter().enumerate() {
            if !self.fired[i] && matches(action) {
                self.fired[i] = true;
                return Some(*action);
            }
        }
        None
    }

    /// Probe at admission: should query `query`'s next grant be denied?
    pub fn deny_grant(&mut self, query: usize) -> bool {
        self.fire_first(|a| matches!(a, FaultAction::DenyGrant { query: q } if *q == query))
            .is_some()
    }

    /// Probe at resolve: should the cluster cache be evicted before query
    /// `query` resolves?
    pub fn evict_cache(&mut self, query: usize) -> bool {
        self.fire_first(|a| matches!(a, FaultAction::EvictCache { query: q } if *q == query))
            .is_some()
    }

    /// Probe before running chunk `step` of query `query`: the worker index
    /// to panic as, if a panic is scripted here.
    pub fn panic_at(&mut self, query: usize, step: usize) -> Option<usize> {
        match self.fire_first(|a| {
            matches!(a, FaultAction::WorkerPanic { query: q, step: s, .. }
                     if *q == query && *s == step)
        }) {
            Some(FaultAction::WorkerPanic { worker, .. }) => Some(worker),
            _ => None,
        }
    }

    /// Probe after running chunk `step` of query `query`: artificial
    /// nanoseconds to charge the deadline clock (0 when nothing is
    /// scripted; consecutive matching actions sum).
    pub fn slowdown_ns(&mut self, query: usize, step: usize) -> u64 {
        let mut total = 0u64;
        while let Some(FaultAction::Slowdown { add_ns, .. }) = self.fire_first(|a| {
            matches!(a, FaultAction::Slowdown { query: q, step: s, .. }
                     if *q == query && *s == step)
        }) {
            total = total.saturating_add(add_ns);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_action_fires_exactly_once_at_its_point() {
        let plan = FaultPlan::new()
            .panic_at(0, 2, 3)
            .slow_at(1, 0, 500)
            .deny_grant(2)
            .evict_cache(0);
        let mut inj = FaultInjector::new(plan.clone());
        assert_eq!(inj.plan(), &plan);
        // Wrong points: nothing fires.
        assert_eq!(inj.panic_at(0, 0), None);
        assert_eq!(inj.panic_at(1, 2), None);
        assert_eq!(inj.slowdown_ns(1, 1), 0);
        assert!(!inj.deny_grant(0));
        assert_eq!(inj.fired(), 0);
        // Exact points fire once…
        assert_eq!(inj.panic_at(0, 2), Some(3));
        assert_eq!(inj.slowdown_ns(1, 0), 500);
        assert!(inj.deny_grant(2));
        assert!(inj.evict_cache(0));
        assert!(inj.is_exhausted());
        // …and never again.
        assert_eq!(inj.panic_at(0, 2), None);
        assert_eq!(inj.slowdown_ns(1, 0), 0);
        assert!(!inj.deny_grant(2));
        assert!(!inj.evict_cache(0));
    }

    #[test]
    fn repeated_actions_fire_one_per_probe_and_slowdowns_sum() {
        let plan = FaultPlan::new()
            .deny_grant(5)
            .deny_grant(5)
            .slow_at(5, 1, 300)
            .slow_at(5, 1, 700);
        let mut inj = FaultInjector::new(plan);
        // Two denials cover two admission attempts, then the query passes.
        assert!(inj.deny_grant(5));
        assert!(inj.deny_grant(5));
        assert!(!inj.deny_grant(5));
        // Two slowdowns at the same point sum into one probe.
        assert_eq!(inj.slowdown_ns(5, 1), 1_000);
        assert_eq!(inj.slowdown_ns(5, 1), 0);
    }

    #[test]
    fn replaying_the_same_plan_is_deterministic() {
        let plan = FaultPlan::new()
            .panic_at(1, 0, 2)
            .deny_grant(0)
            .slow_at(1, 3, 9);
        let drive = |mut inj: FaultInjector| {
            let mut log = Vec::new();
            log.push(format!("deny0={}", inj.deny_grant(0)));
            log.push(format!("panic={:?}", inj.panic_at(1, 0)));
            log.push(format!("slow={}", inj.slowdown_ns(1, 3)));
            log.push(format!("fired={}", inj.fired()));
            log
        };
        assert_eq!(
            drive(FaultInjector::new(plan.clone())),
            drive(FaultInjector::new(plan))
        );
    }

    #[test]
    fn retry_backoff_doubles_and_saturates() {
        let p = RetryPolicy::with_retries(3).backoff(4);
        assert_eq!(p.delay_before(1), 4);
        assert_eq!(p.delay_before(2), 8);
        assert_eq!(p.delay_before(3), 16);
        // Saturates instead of overflowing for absurd attempt counts.
        assert_eq!(
            RetryPolicy::with_retries(99)
                .backoff(u64::MAX)
                .delay_before(7),
            u64::MAX
        );
        assert_eq!(
            RetryPolicy::with_retries(1).backoff(1).delay_before(200),
            1u64 << 63
        );
        // Action accessors cover every variant.
        for (a, q) in [
            (
                FaultAction::WorkerPanic {
                    query: 1,
                    step: 0,
                    worker: 0,
                },
                1,
            ),
            (
                FaultAction::Slowdown {
                    query: 2,
                    step: 0,
                    add_ns: 1,
                },
                2,
            ),
            (FaultAction::DenyGrant { query: 3 }, 3),
            (FaultAction::EvictCache { query: 4 }, 4),
        ] {
            assert_eq!(a.query(), q);
        }
        // An empty plan is inert.
        let empty = FaultInjector::new(FaultPlan::new());
        assert!(empty.plan().is_empty());
        assert_eq!(empty.plan().len(), 0);
        assert!(empty.is_exhausted());
    }
}
