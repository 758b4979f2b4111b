//! The unified error hierarchy of the workspace: every fallible path — from
//! kernel-level budget checks to catalog lookups in the serving layer —
//! reports one [`RdxError`], so callers of `QueryEngine::query` and of the
//! wire match on a single type instead of per-crate error zoos.
//!
//! Layering: this type lives at the bottom of the workspace (everything
//! depends on `rdx-core`), so upper layers attach their failures to it
//! instead of defining their own.  [`BudgetError`] — the PR 2/3 budget
//! diagnosis — is absorbed as the [`RdxError::Budget`] variant; the serving
//! layer's catalog failures are [`RdxError::UnknownRelation`] (raw relation
//! id, since the `RelationId` newtype lives upstream); the strategy
//! executors' former `assert!`/`panic!` validation site is
//! [`RdxError::TooManyColumns`]; the ticket front reports a consumed or never-issued ticket as
//! [`RdxError::UnknownTicket`].

use crate::budget::BudgetError;

/// Why a query's deadline could not be met.
///
/// Both variants carry the two numbers an operator needs to tell
/// *infeasibility* (the model said no before a single chunk ran) from a
/// *miss* (the engine tore the query down at a chunk boundary after its
/// clock ran out).  All fields are nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadlineError {
    /// Rejected at admission: the Appendix-A price of the query's plan at
    /// its granted cache share already exceeds the deadline, so running it
    /// would only waste the grant.  The query never ran a chunk.
    Infeasible {
        /// Predicted total cost of the plan at the granted share.
        predicted_ns: u64,
        /// The deadline the request carried.
        deadline_ns: u64,
    },
    /// Torn down mid-flight: the query's consumed service time passed its
    /// deadline, and the engine cancelled it at the next chunk boundary
    /// (reclaiming its budget grant).
    Exceeded {
        /// Service time consumed when the engine enforced the deadline.
        consumed_ns: u64,
        /// The deadline the request carried.
        deadline_ns: u64,
    },
}

impl std::fmt::Display for DeadlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeadlineError::Infeasible {
                predicted_ns,
                deadline_ns,
            } => write!(
                f,
                "infeasible: predicted {predicted_ns}ns exceeds the {deadline_ns}ns deadline"
            ),
            DeadlineError::Exceeded {
                consumed_ns,
                deadline_ns,
            } => write!(
                f,
                "exceeded: consumed {consumed_ns}ns against a {deadline_ns}ns deadline"
            ),
        }
    }
}

impl std::error::Error for DeadlineError {}

/// Which per-tenant quota a query ran into.
///
/// Tenants are named by the interned numeric id the serving layer assigns
/// (the newtype lives upstream, like `RelationId`); both variants carry the
/// numbers an operator needs to size the quota that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantQuotaKind {
    /// The tenant is already running its maximum number of concurrent
    /// queries; admitting one more would exceed the cap.
    InFlight {
        /// Queries the tenant had in flight when this one was refused.
        in_flight: usize,
        /// The tenant's concurrent-query cap.
        limit: usize,
    },
    /// The tenant's resident-byte quota cannot hold even one more result
    /// row on top of what its in-flight queries already have granted.
    ResidentBytes {
        /// Bytes one resident row of this query needs (the admission
        /// floor).
        needed: usize,
        /// Bytes already granted to the tenant's in-flight queries.
        in_use: usize,
        /// The tenant's resident-byte cap.
        limit: usize,
    },
}

impl std::fmt::Display for TenantQuotaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantQuotaKind::InFlight { in_flight, limit } => write!(
                f,
                "in-flight cap: {in_flight} of {limit} concurrent queries already running"
            ),
            TenantQuotaKind::ResidentBytes {
                needed,
                in_use,
                limit,
            } => write!(
                f,
                "resident-byte cap: {needed} more bytes needed with {in_use} of {limit} granted"
            ),
        }
    }
}

impl std::error::Error for TenantQuotaKind {}

/// Which join input an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The larger (probing, first projection) relation.
    Larger,
    /// The smaller (build, second projection) relation.
    Smaller,
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::Larger => write!(f, "larger"),
            Side::Smaller => write!(f, "smaller"),
        }
    }
}

/// Every way a projection query can fail, across all layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdxError {
    /// A memory budget is degenerate: zero bytes, or below the one-row
    /// floor of the streaming plan it was meant to bound.
    Budget(BudgetError),
    /// A query named a relation id the catalog has never issued.
    UnknownRelation {
        /// The raw id (`RelationId`'s inner value).
        id: u32,
    },
    /// The query projects more columns than a relation has.
    TooManyColumns {
        /// Which join input is too narrow.
        side: Side,
        /// Columns the spec asked for.
        requested: usize,
        /// Projectable columns the relation actually has (the join key is
        /// not projectable).
        available: usize,
    },
    /// A ticket was polled that this session never issued — or whose
    /// outcome was already taken by an earlier poll.
    UnknownTicket {
        /// The raw ticket number.
        ticket: u64,
    },
    /// The query's deadline could not (or can no longer) be met: rejected
    /// at admission as infeasible, or torn down at a chunk boundary after
    /// its service clock ran out.
    Deadline(DeadlineError),
    /// The query was cancelled by its caller; its budget grant was
    /// reclaimed at the next chunk boundary.
    Cancelled,
    /// A morsel-pool worker panicked while running one of this query's
    /// chunks.  Only the owning run is poisoned — concurrent queries
    /// complete unaffected — and the grant is reclaimed.
    WorkerPanicked {
        /// Zero-based index of the worker whose unwind was caught (0 when
        /// the panic could not be attributed to a specific worker).
        worker: usize,
    },
    /// The query was refused at admission because its tenant's quota —
    /// max in-flight queries or max resident grant bytes — could not
    /// accommodate it.  Checked *before* the global budget's
    /// `per_query_share`, so one tenant's burst is shed at its own cap and
    /// never dips into the shared pool.
    TenantQuota {
        /// The interned numeric tenant id (the serving layer's `TenantId`
        /// newtype lives upstream, like `RelationId`).
        tenant: u32,
        /// Which quota fired, with its numbers.
        kind: TenantQuotaKind,
    },
    /// The query's result, encoded for its transport, would exceed the
    /// transport's frame cap, so its reader would refuse it.  Refused once
    /// the join fixed the result's size, before a single chunk ran; the
    /// grant was reclaimed.
    ResultTooLarge {
        /// Bytes the encoded result would take.
        bytes: usize,
        /// The transport's cap on one frame.
        max: usize,
    },
}

impl std::fmt::Display for RdxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdxError::Budget(e) => write!(f, "inadmissible budget: {e}"),
            RdxError::UnknownRelation { id } => write!(f, "unknown relation rel#{id}"),
            RdxError::TooManyColumns {
                side,
                requested,
                available,
            } => write!(
                f,
                "{side} relation has {available} projectable columns, {requested} requested"
            ),
            RdxError::UnknownTicket { ticket } => write!(
                f,
                "ticket#{ticket} was never issued by this session (or its \
                 outcome was already taken)"
            ),
            RdxError::Deadline(e) => write!(f, "deadline {e}"),
            RdxError::Cancelled => write!(f, "query cancelled by its caller"),
            RdxError::WorkerPanicked { worker } => {
                write!(f, "worker {worker} panicked while running a chunk")
            }
            RdxError::TenantQuota { tenant, kind } => {
                write!(f, "tenant#{tenant} over quota ({kind})")
            }
            RdxError::ResultTooLarge { bytes, max } => {
                write!(
                    f,
                    "encoded result of {bytes} B exceeds the {max} B frame cap"
                )
            }
        }
    }
}

impl std::error::Error for RdxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RdxError::Budget(e) => Some(e),
            RdxError::Deadline(e) => Some(e),
            RdxError::TenantQuota { kind, .. } => Some(kind),
            _ => None,
        }
    }
}

impl From<BudgetError> for RdxError {
    fn from(e: BudgetError) -> Self {
        RdxError::Budget(e)
    }
}

impl From<DeadlineError> for RdxError {
    fn from(e: DeadlineError) -> Self {
        RdxError::Deadline(e)
    }
}

/// Validates a projection spec against the projectable column counts of the
/// two inputs — the shared guard every strategy executor's `try_` entry
/// runs before touching data (the former `assert!` sites).
pub fn check_projection_widths(
    project_larger: usize,
    larger_available: usize,
    project_smaller: usize,
    smaller_available: usize,
) -> Result<(), RdxError> {
    if project_larger > larger_available {
        return Err(RdxError::TooManyColumns {
            side: Side::Larger,
            requested: project_larger,
            available: larger_available,
        });
    }
    if project_smaller > smaller_available {
        return Err(RdxError::TooManyColumns {
            side: Side::Smaller,
            requested: project_smaller,
            available: smaller_available,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_check_reports_the_offending_side() {
        assert_eq!(check_projection_widths(2, 2, 1, 1), Ok(()));
        assert_eq!(
            check_projection_widths(3, 2, 1, 1),
            Err(RdxError::TooManyColumns {
                side: Side::Larger,
                requested: 3,
                available: 2
            })
        );
        assert_eq!(
            check_projection_widths(0, 0, 9, 4),
            Err(RdxError::TooManyColumns {
                side: Side::Smaller,
                requested: 9,
                available: 4
            })
        );
    }

    #[test]
    fn display_is_readable_and_budget_source_chains() {
        let e = RdxError::from(BudgetError::ZeroBytes);
        assert!(e.to_string().contains("budget"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(RdxError::UnknownRelation { id: 7 }
            .to_string()
            .contains("rel#7"));
        assert!(RdxError::UnknownTicket { ticket: 3 }
            .to_string()
            .contains("ticket#3"));
        let narrow = RdxError::TooManyColumns {
            side: Side::Larger,
            requested: 10,
            available: 2,
        };
        assert!(narrow.to_string().contains("10"));
        assert!(std::error::Error::source(&narrow).is_none());
        assert_eq!(Side::Larger.to_string(), "larger");
        assert_eq!(Side::Smaller.to_string(), "smaller");
    }

    #[test]
    fn robustness_variants_display_and_chain() {
        let infeasible = RdxError::from(DeadlineError::Infeasible {
            predicted_ns: 5_000,
            deadline_ns: 1_000,
        });
        assert!(infeasible.to_string().contains("infeasible"));
        assert!(infeasible.to_string().contains("5000"));
        assert!(std::error::Error::source(&infeasible).is_some());
        let exceeded = RdxError::Deadline(DeadlineError::Exceeded {
            consumed_ns: 9_000,
            deadline_ns: 1_000,
        });
        assert!(exceeded.to_string().contains("exceeded"));
        assert!(RdxError::Cancelled.to_string().contains("cancelled"));
        let panicked = RdxError::WorkerPanicked { worker: 3 };
        assert!(panicked.to_string().contains("worker 3"));
        assert!(std::error::Error::source(&panicked).is_none());
    }

    #[test]
    fn tenant_quota_variants_display_and_chain() {
        let capped = RdxError::TenantQuota {
            tenant: 2,
            kind: TenantQuotaKind::InFlight {
                in_flight: 3,
                limit: 3,
            },
        };
        assert!(capped.to_string().contains("tenant#2"));
        assert!(capped.to_string().contains("3 of 3"));
        assert!(std::error::Error::source(&capped).is_some());
        let starved = RdxError::TenantQuota {
            tenant: 0,
            kind: TenantQuotaKind::ResidentBytes {
                needed: 16,
                in_use: 120,
                limit: 128,
            },
        };
        assert!(starved.to_string().contains("tenant#0"));
        assert!(starved.to_string().contains("120 of 128"));
        assert!(starved.to_string().contains("16 more bytes"));
        // The variant stays Copy + Eq like the rest of the hierarchy.
        let copy = starved;
        assert_eq!(copy, starved);
        assert_ne!(capped, starved);
    }
}
