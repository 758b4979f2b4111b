//! **Admission**: how many bytes a query may run under — its *grant* —
//! decided once per queue head, splitting one global [`MemoryBudget`]
//! across concurrently admitted queries so their combined chunk scratch
//! stays within it.
//!
//! Each admitted query receives a byte grant it plans its chunking under
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
//! `admit` decides the whole grant, in order:
//! 1. the tenant's caps ([`crate::TenantQuota`]): at its in-flight cap, or
//!    with less byte headroom than one row, the query is **refused** with
//!    [`RdxError::TenantQuota`] before the global budget is consulted, so
//!    a tenant's burst sheds at its own cap;
//! 2. the global split, `decide`;
//! 3. the tightening: the share shrinks to the request's budget hint and
//!    the tenant's byte headroom, whichever is smaller (each holds a row).
//!
//! The grant is one number, the budget the run plans under, and it is
//! charged to the global budget (`Σ grants ≤ global`) and to a tenant with
//! a byte cap (`Σ` of its grants `≤` its cap) alike.
//!
//! `decide` is a pure function of the budget, the concurrency cap and
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

use crate::tenant::{Load, TenantId, TenantQuota};
use rdx_core::budget::{BudgetError, MemoryBudget};
use rdx_core::error::{RdxError, TenantQuotaKind};

/// What admission decided for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdmissionDecision {
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

/// One admitted query's grant, held while it runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grant {
    /// The budget the run plans under, charged to the global budget.
    pub(crate) budget: MemoryBudget,
    /// Whether the global split gave less than the fair share.
    pub(crate) replanned: bool,
    /// The tenant charged, with the bytes charged against its byte cap:
    /// the budget, or 0 when it has no byte cap.
    pub(crate) tenant: Option<(TenantId, usize)>,
}

/// What `admit` decided for one queue head.
#[derive(Debug)]
pub(crate) enum Admission {
    /// Run now under the grant.
    Grant(Grant),
    /// Wait for a running query to return its grant.
    Queue,
    /// A tenant cap ([`RdxError::TenantQuota`]) or the global budget
    /// ([`RdxError::Budget`]) refused the query.
    Refuse(RdxError),
}

/// The tenant a queue head is charged to: its id, its quota and its load.
pub(crate) type Tenant = (TenantId, TenantQuota, Load);

/// Decides the grant of a query needing `bytes_per_row` (`≥ 1`) resident
/// bytes per in-flight result row, with an optional budget `hint`, for
/// `tenant`, while `in_flight` running queries' grants hold `committed`
/// bytes of `global`, at most `max_concurrent` at once.
pub(crate) fn admit(
    global: MemoryBudget,
    max_concurrent: usize,
    (in_flight, committed): Load,
    bytes_per_row: usize,
    hint: Option<MemoryBudget>,
    tenant: Option<Tenant>,
) -> Admission {
    let mut headroom = None;
    if let Some((id, quota, (running, in_use))) = tenant {
        let refuse = |kind| Admission::Refuse(RdxError::TenantQuota { tenant: id.0, kind });
        if let Some(limit) = quota.max_in_flight.filter(|&limit| running >= limit) {
            return refuse(TenantQuotaKind::InFlight {
                in_flight: running,
                limit,
            });
        }
        if let Some(limit) = quota.max_resident_bytes {
            let left = limit.saturating_sub(in_use);
            if left < bytes_per_row {
                return refuse(TenantQuotaKind::ResidentBytes {
                    needed: bytes_per_row,
                    in_use,
                    limit,
                });
            }
            headroom = Some(MemoryBudget::bytes(left));
        }
    }
    let (share, replanned) =
        match decide(global, max_concurrent, in_flight, committed, bytes_per_row) {
            AdmissionDecision::Admit { share, replanned } => (share, replanned),
            AdmissionDecision::Queue => return Admission::Queue,
            AdmissionDecision::Reject(e) => return Admission::Refuse(RdxError::Budget(e)),
        };
    let caps = [Some(share), hint, headroom].into_iter().flatten();
    let budget = caps.min_by_key(MemoryBudget::limit_bytes).unwrap_or(share);
    let charge = headroom.map_or(0, |_| budget.limit_bytes());
    Admission::Grant(Grant {
        budget,
        replanned,
        tenant: tenant.map(|(id, ..)| (id, charge)),
    })
}

/// Decides whether a query whose streaming plan needs `bytes_per_row`
/// resident bytes per in-flight result row runs now, given `in_flight`
/// running queries whose grants hold `committed` bytes of `global` (not
/// read under an unbounded budget), at most `max_concurrent` at once.
fn decide(
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
    use crate::tenant::{TenantQuotas, TenantRegistry};
    use rdx_obs::MetricsRegistry;

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

    /// The tenant caps refuse before the global split, and the headroom
    /// left tightens the grant; the global budget (4 KiB over four slots)
    /// holds the tenant's load.
    #[test]
    fn tenant_caps_refuse_first_and_the_headroom_tightens_the_grant() {
        let quotas = TenantQuotas::unlimited().with_tenant(
            "capped",
            TenantQuota::unlimited().in_flight(2).resident_bytes(100),
        );
        let mut reg = TenantRegistry::new(quotas);
        let metrics = MetricsRegistry::new();
        let (capped, free) = (reg.intern("capped", &metrics), reg.intern("free", &metrics));
        let global = MemoryBudget::bytes(4096);
        let ask = |t: TenantId, load: Load, bytes_per_row: usize| {
            let tenant = Some((t, reg.quota(t), load));
            admit(global, 4, load, bytes_per_row, None, tenant)
        };
        let granted = |a: Admission| match a {
            Admission::Grant(grant) => grant,
            other => panic!("expected a grant, got {other:?}"),
        };

        // First admission fits; two running queries of 30 bytes each
        // exhaust the in-flight cap, and one of them finishing clears it.
        granted(ask(capped, (0, 0), 16));
        assert!(matches!(
            ask(capped, (2, 60), 16),
            Admission::Refuse(RdxError::TenantQuota {
                kind: TenantQuotaKind::InFlight {
                    in_flight: 2,
                    limit: 2
                },
                ..
            })
        ));
        granted(ask(capped, (1, 30), 16));

        // The byte cap fires when the headroom cannot hold one row: one
        // query holding 90 of 100 bytes leaves an in-flight slot free but
        // only 10 bytes of headroom.
        let quota_err = ask(capped, (1, 90), 16);
        assert!(matches!(
            quota_err,
            Admission::Refuse(RdxError::TenantQuota {
                kind: TenantQuotaKind::ResidentBytes {
                    needed: 16,
                    limit: 100,
                    ..
                },
                ..
            })
        ));
        // A narrower row fits those 10 bytes: the grant is the headroom,
        // and the tenant is charged that one grant.
        let grant = granted(ask(capped, (1, 90), 8));
        assert_eq!(grant.budget, MemoryBudget::bytes(10));
        assert_eq!(grant.tenant, Some((capped, 10)));
        // A hint tighter than the headroom wins, and is the charge.
        let tenant = Some((capped, reg.quota(capped), (1, 30)));
        let hinted = admit(
            global,
            4,
            (1, 30),
            16,
            Some(MemoryBudget::bytes(50)),
            tenant,
        );
        assert_eq!(granted(hinted).tenant, Some((capped, 50)));

        // Unlimited tenants have no headroom notion and always pass: the
        // grant is the global share, and no bytes are charged.
        let grant = granted(ask(free, (0, 0), 16));
        assert_eq!(grant.budget, MemoryBudget::bytes(1024));
        assert_eq!(grant.tenant, Some((free, 0)));
        let tenant = Some((free, reg.quota(free), (0, 0)));
        let unbounded = admit(
            MemoryBudget::unbounded(),
            4,
            (0, 0),
            usize::MAX,
            None,
            tenant,
        );
        assert!(!granted(unbounded).budget.is_bounded());
    }
}
