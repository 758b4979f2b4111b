//! The **admission controller**: splits one global [`MemoryBudget`] across
//! concurrently admitted queries so their combined streaming working sets
//! can never exceed it.
//!
//! Each admitted query receives a byte *grant* it plans its chunking under
//! ([`rdx_core::strategy::planner::plan_streaming`] turns the grant into
//! `chunk_rows = grant / bytes_per_row`), the RAM analogue of
//! [`rdx_cache::CacheParams::per_core_share`] dividing the shared cache.
//! Because a streaming plan's peak working set never exceeds the budget it
//! was planned under (PR 2's asserted invariant), `Σ grants ≤ global`
//! implies `Σ peak working sets ≤ global` — over-commit is impossible by
//! construction, not by monitoring.  Every query the engine runs holds a
//! grant from here, a front-door `run()` included (it is a ticket like any
//! other); nothing runs on whatever budget happens to be left over.
//!
//! Decisions, in order (the *residual* is the budget not yet granted):
//! * at the concurrency cap → **queue**;
//! * a fair share (`global / max_concurrent`) fits → **admit** at the fair
//!   share (or less if the residual is smaller — that is the *re-plan*:
//!   the query runs with tighter chunks rather than waiting);
//! * the fair share cannot hold even one resident row but the residual can
//!   → **admit** at the one-row floor (maximally tight chunks);
//! * the residual cannot hold one row and something is running → **queue**
//!   until a release;
//! * nothing is running and the whole budget cannot hold one row →
//!   **reject** with the typed [`BudgetError`] (the query can never run).

use rdx_core::budget::{BudgetError, MemoryBudget};

/// What the controller decided for one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Run now under `share`; `replanned` is `true` when the grant is
    /// tighter than the fair share (the query was re-planned to smaller
    /// chunks instead of queueing).
    Admit {
        /// The granted budget share.
        share: MemoryBudget,
        /// Whether the grant is below the fair share.
        replanned: bool,
    },
    /// Wait for a running query to release its grant.
    Queue,
    /// The query can never be admitted under this global budget.
    Reject(BudgetError),
}

/// Splits a global [`MemoryBudget`] across admitted queries.
#[derive(Debug)]
pub struct AdmissionController {
    global: MemoryBudget,
    max_concurrent: usize,
    in_flight: usize,
    committed_bytes: usize,
}

impl AdmissionController {
    /// A controller over `global`, admitting at most `max_concurrent`
    /// queries at once.
    ///
    /// # Panics
    /// Panics if `max_concurrent == 0`.
    pub fn new(global: MemoryBudget, max_concurrent: usize) -> Self {
        assert!(max_concurrent >= 1, "must admit at least one query");
        AdmissionController {
            global,
            max_concurrent,
            in_flight: 0,
            committed_bytes: 0,
        }
    }

    /// Queries currently holding a grant.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Bytes currently granted out (0 under an unbounded global budget).
    pub fn committed_bytes(&self) -> usize {
        self.committed_bytes
    }

    /// The even per-query split of the global budget.
    pub fn fair_share(&self) -> MemoryBudget {
        self.global.per_query_share(self.max_concurrent)
    }

    /// Attempts to admit a query whose streaming plan needs `bytes_per_row`
    /// resident bytes per in-flight result row.
    pub fn try_admit(&mut self, bytes_per_row: usize) -> AdmissionDecision {
        if self.in_flight >= self.max_concurrent {
            return AdmissionDecision::Queue;
        }
        if !self.global.is_bounded() {
            self.in_flight += 1;
            return AdmissionDecision::Admit {
                share: MemoryBudget::unbounded(),
                replanned: false,
            };
        }
        let fair = self.fair_share().limit_bytes();
        let available = self.global.limit_bytes() - self.committed_bytes;
        let grant = fair.min(available);
        let (grant, replanned) = if grant >= bytes_per_row {
            (grant, grant < fair)
        } else if available >= bytes_per_row {
            // The fair share is too small for even one row: re-plan at the
            // one-row floor rather than queueing forever.
            (bytes_per_row, true)
        } else if self.in_flight == 0 {
            // Alone and still too big: no release can ever help.
            return AdmissionDecision::Reject(BudgetError::BelowOneRow {
                budget_bytes: self.global.limit_bytes(),
                bytes_per_row,
            });
        } else {
            return AdmissionDecision::Queue;
        };
        self.in_flight += 1;
        self.committed_bytes += grant;
        debug_assert!(self.committed_bytes <= self.global.limit_bytes());
        AdmissionDecision::Admit {
            share: MemoryBudget::bytes(grant),
            replanned,
        }
    }

    /// Returns a completed query's grant to the pool.
    ///
    /// # Panics
    /// Panics if nothing is in flight or `share` exceeds the committed total
    /// (a share this controller never granted).
    pub fn release(&mut self, share: MemoryBudget) {
        assert!(self.in_flight > 0, "release without admission");
        self.in_flight -= 1;
        if self.global.is_bounded() {
            let bytes = share.limit_bytes();
            assert!(bytes <= self.committed_bytes, "foreign share released");
            self.committed_bytes -= bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admitted(d: AdmissionDecision) -> MemoryBudget {
        match d {
            AdmissionDecision::Admit { share, .. } => share,
            other => panic!("expected admission, got {other:?}"),
        }
    }

    #[test]
    fn fair_shares_split_the_global_budget() {
        let mut ac = AdmissionController::new(MemoryBudget::bytes(4096), 4);
        let shares: Vec<_> = (0..4).map(|_| admitted(ac.try_admit(16))).collect();
        assert!(shares.iter().all(|s| s.limit_bytes() == 1024));
        assert_eq!(ac.committed_bytes(), 4096);
        assert_eq!(ac.in_flight(), 4);
        // At the cap: queue, regardless of bytes.
        assert_eq!(ac.try_admit(16), AdmissionDecision::Queue);
        ac.release(shares[0]);
        assert_eq!(ac.committed_bytes(), 3072);
        assert!(matches!(ac.try_admit(16), AdmissionDecision::Admit { .. }));
    }

    #[test]
    fn never_over_commits() {
        let mut ac = AdmissionController::new(MemoryBudget::bytes(1000), 3);
        let mut total = 0;
        while let AdmissionDecision::Admit { share, .. } = ac.try_admit(100) {
            total += share.limit_bytes();
            assert!(ac.committed_bytes() <= 1000);
        }
        assert_eq!(total, ac.committed_bytes());
        assert!(total <= 1000);
    }

    #[test]
    fn residual_admission_replans_to_tighter_chunks() {
        let mut ac = AdmissionController::new(MemoryBudget::bytes(1024), 2);
        // First grant takes the 512-byte fair share; the second finds
        // exactly 512 remaining — both fit.
        admitted(ac.try_admit(16));
        let second = ac.try_admit(16);
        match second {
            AdmissionDecision::Admit { share, replanned } => {
                assert_eq!(share.limit_bytes(), 512);
                assert!(!replanned);
            }
            other => panic!("{other:?}"),
        }
        ac.release(MemoryBudget::bytes(512));
        ac.release(MemoryBudget::bytes(512));
        // A query whose rows are wider than the fair share gets the one-row
        // floor instead of queueing forever.
        match ac.try_admit(600) {
            AdmissionDecision::Admit { share, replanned } => {
                assert_eq!(share.limit_bytes(), 600);
                assert!(replanned);
            }
            other => panic!("{other:?}"),
        }
        // A second wide query must now wait: 424 residual < 600.
        assert_eq!(ac.try_admit(600), AdmissionDecision::Queue);
    }

    #[test]
    fn impossible_queries_get_a_typed_rejection() {
        let mut ac = AdmissionController::new(MemoryBudget::bytes(64), 2);
        assert_eq!(
            ac.try_admit(65),
            AdmissionDecision::Reject(BudgetError::BelowOneRow {
                budget_bytes: 64,
                bytes_per_row: 65
            })
        );
        assert_eq!(ac.in_flight(), 0);
        // Still admits feasible queries afterwards.
        assert!(matches!(ac.try_admit(32), AdmissionDecision::Admit { .. }));
    }

    #[test]
    fn unbounded_budget_admits_up_to_the_concurrency_cap() {
        let mut ac = AdmissionController::new(MemoryBudget::unbounded(), 2);
        assert!(!admitted(ac.try_admit(usize::MAX / 2)).is_bounded());
        assert!(!admitted(ac.try_admit(usize::MAX / 2)).is_bounded());
        assert_eq!(ac.try_admit(1), AdmissionDecision::Queue);
        assert_eq!(ac.committed_bytes(), 0);
        ac.release(MemoryBudget::unbounded());
        assert_eq!(ac.in_flight(), 1);
    }
}
