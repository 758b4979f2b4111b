//! **Admission**: how one global [`MemoryBudget`] is split across
//! concurrently admitted queries so their combined chunk scratch stays
//! within it.
//!
//! Each admitted query receives a byte *grant* it plans its chunking under
//! ([`rdx_core::strategy::planner::plan_streaming`] turns the grant into
//! `chunk_rows = grant / bytes_per_row`), the RAM analogue of
//! [`rdx_cache::CacheParams::per_core_share`] dividing the shared cache.
//! What a grant bounds is that run's chunk scratch, priced at
//! [`rdx_core::strategy::planner::streaming_bytes_per_row`] per row: a
//! streaming plan's peak chunk working set never exceeds the grant it was
//! planned under, so `Σ grants ≤ global` bounds the chunk scratch of every
//! running query together.  Result memory lies outside every grant: the
//! [`rdx_core::strategy::MaterializeSink`] columns of a columns-form
//! result, the [`rdx_core::strategy::FrameSink`] `Done` frame of a
//! frame-form result, and the outcomes the engine parks until a poll takes
//! them all grow with the result's rows, whatever the grant.  Every query
//! the engine runs holds a grant, a front-door `run()` included (it is a
//! ticket like any other); nothing runs on whatever budget happens to be
//! left over.
//!
//! [`decide`] is a pure function of the budget, the concurrency cap and
//! the load the engine reads off its running set — how many queries run
//! and the bytes their grants hold — so no count is kept here to drift
//! from that set.  Decisions, in order (the *residual* is the budget not
//! yet granted):
//! * at the concurrency cap → **queue**;
//! * a fair share (`global / max_concurrent`) fits → **admit** at the fair
//!   share (or less if the residual is smaller — that is the *re-plan*:
//!   the query runs with tighter chunks rather than waiting);
//! * the fair share cannot hold even one resident row but the residual can
//!   → **admit** at the one-row floor (maximally tight chunks);
//! * the residual cannot hold one row and something is running → **queue**
//!   until a grant is returned;
//! * nothing is running and the whole budget cannot hold one row →
//!   **reject** with the typed [`BudgetError`] (the query can never run).

use rdx_core::budget::{BudgetError, MemoryBudget};

/// What admission decided for one attempt.
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
    /// Wait for a running query to return its grant.
    Queue,
    /// The query can never be admitted under this global budget.
    Reject(BudgetError),
}

/// Decides whether a query whose streaming plan needs `bytes_per_row`
/// resident bytes per in-flight result row runs now, given `in_flight`
/// running queries whose grants hold `committed` bytes of `global`
/// (0 under an unbounded budget), at most `max_concurrent` at once.
pub fn decide(
    global: MemoryBudget,
    max_concurrent: usize,
    in_flight: usize,
    committed: usize,
    bytes_per_row: usize,
) -> AdmissionDecision {
    if in_flight >= max_concurrent {
        return AdmissionDecision::Queue;
    }
    if !global.is_bounded() {
        return AdmissionDecision::Admit {
            share: MemoryBudget::unbounded(),
            replanned: false,
        };
    }
    let fair = global.per_query_share(max_concurrent).limit_bytes();
    let available = global.limit_bytes().saturating_sub(committed);
    let grant = fair.min(available);
    let (grant, replanned) = if grant >= bytes_per_row {
        (grant, grant < fair)
    } else if available >= bytes_per_row {
        // The fair share is too small for even one row: re-plan at the
        // one-row floor rather than queueing forever.
        (bytes_per_row, true)
    } else if in_flight == 0 {
        // Alone and still too big: no returned grant can ever help.
        return AdmissionDecision::Reject(BudgetError::BelowOneRow {
            budget_bytes: global.limit_bytes(),
            bytes_per_row,
        });
    } else {
        return AdmissionDecision::Queue;
    };
    AdmissionDecision::Admit {
        share: MemoryBudget::bytes(grant),
        replanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grants admitted so far, standing in for the engine's running
    /// set: admission reads its load off them, and returning a grant is
    /// removing it.
    struct Ledger {
        global: MemoryBudget,
        max_concurrent: usize,
        grants: Vec<MemoryBudget>,
    }

    impl Ledger {
        fn new(global: MemoryBudget, max_concurrent: usize) -> Self {
            Ledger {
                global,
                max_concurrent,
                grants: Vec::new(),
            }
        }

        fn in_flight(&self) -> usize {
            self.grants.len()
        }

        fn committed_bytes(&self) -> usize {
            let bounded = self.grants.iter().filter(|g| g.is_bounded());
            bounded.map(|g| g.limit_bytes()).sum()
        }

        fn try_admit(&mut self, bytes_per_row: usize) -> AdmissionDecision {
            let (n, committed) = (self.in_flight(), self.committed_bytes());
            let d = decide(
                self.global,
                self.max_concurrent,
                n,
                committed,
                bytes_per_row,
            );
            if let AdmissionDecision::Admit { share, .. } = d {
                self.grants.push(share);
            }
            d
        }

        fn release(&mut self, share: MemoryBudget) {
            let at = self.grants.iter().position(|&g| g == share);
            self.grants
                .swap_remove(at.expect("a share this ledger granted"));
        }
    }

    fn admitted(d: AdmissionDecision) -> MemoryBudget {
        match d {
            AdmissionDecision::Admit { share, .. } => share,
            other => panic!("expected admission, got {other:?}"),
        }
    }

    #[test]
    fn fair_shares_split_the_global_budget() {
        let mut ac = Ledger::new(MemoryBudget::bytes(4096), 4);
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
        let mut ac = Ledger::new(MemoryBudget::bytes(1000), 3);
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
        let mut ac = Ledger::new(MemoryBudget::bytes(1024), 2);
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
        let mut ac = Ledger::new(MemoryBudget::bytes(64), 2);
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
        let mut ac = Ledger::new(MemoryBudget::unbounded(), 2);
        assert!(!admitted(ac.try_admit(usize::MAX / 2)).is_bounded());
        assert!(!admitted(ac.try_admit(usize::MAX / 2)).is_bounded());
        assert_eq!(ac.try_admit(1), AdmissionDecision::Queue);
        assert_eq!(ac.committed_bytes(), 0);
        ac.release(MemoryBudget::unbounded());
        assert_eq!(ac.in_flight(), 1);
    }
}
