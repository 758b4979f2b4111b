//! An explicit memory budget for the streaming projection pipeline.
//!
//! The paper's regime of interest is a *bounded cache*: Radix-Decluster's
//! whole design confines random access to a window `‖W‖ ≤ C`.  This module
//! lifts the same discipline one level up the hierarchy — from the cache to
//! RAM: a [`MemoryBudget`] caps the bytes a projection pipeline may hold
//! resident at once, and the pipeline (`rdx_exec::pipeline`) sizes its result
//! *chunks* so the per-chunk working set stays inside the cap, the way
//! run-time decomposition sizes data-parallel partitions to the cache
//! hierarchy.  A budget does for RAM what [`rdx_cache::CacheParams`] /
//! `per_core_share` do for the cache: it is a planning input, not an
//! enforcement mechanism — but the pipeline reports its actual peak working
//! set so tests can assert the bound held.

/// A degenerate budget request, reported instead of a deep panic so callers
/// (the serving layer's admission controller in particular) can queue or
/// reject the offending query with a diagnosis attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetError {
    /// A cap of zero bytes was requested; no operator can make progress.
    ZeroBytes,
    /// The cap cannot hold even one resident result row, so any plan derived
    /// from it would have to clamp (see [`MemoryBudget::chunk_rows`]) and
    /// exceed the stated limit on its very first chunk.
    BelowOneRow {
        /// The requested cap in bytes.
        budget_bytes: usize,
        /// Resident bytes one result row costs under the rejected plan.
        bytes_per_row: usize,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::ZeroBytes => write!(f, "memory budget of zero bytes"),
            BudgetError::BelowOneRow {
                budget_bytes,
                bytes_per_row,
            } => write!(
                f,
                "memory budget of {budget_bytes} B cannot hold one result row \
                 ({bytes_per_row} B resident per row)"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

/// A cap on the bytes of *value data* a streaming operator may keep resident
/// at once.
///
/// The cap governs the per-chunk working set: the staged clustered values
/// and the chunk's output columns.  Fixed per-relation index structures (the
/// clustered oids packed under their clusters, the positions packed under
/// their result blocks), which every chunk reads in place, are priced
/// separately by the planner — the `CLUST_SMALLER`/`CLUST_RESULT` arrays of
/// Fig. 4 scale with `4 N` bytes and are the streaming pipeline's
/// irreducible floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Budget in bytes; `usize::MAX` encodes "unbounded".
    bytes: usize,
}

impl MemoryBudget {
    /// No cap: the pipeline runs as a single chunk, the whole result
    /// (what `ProjectionPipeline::materialize` runs under by default).
    pub const fn unbounded() -> Self {
        MemoryBudget { bytes: usize::MAX }
    }

    /// A cap of `bytes` bytes.
    ///
    /// # Panics
    /// Panics if `bytes == 0`.
    pub fn bytes(bytes: usize) -> Self {
        assert!(bytes > 0, "a memory budget must allow at least one byte");
        MemoryBudget { bytes }
    }

    /// The non-panicking form of [`MemoryBudget::bytes`]: a zero cap is
    /// reported as [`BudgetError::ZeroBytes`] instead of asserting, so
    /// untrusted budget requests (a serving layer's clients) surface a typed
    /// error rather than a panic.
    pub fn try_bytes(bytes: usize) -> Result<Self, BudgetError> {
        if bytes == 0 {
            Err(BudgetError::ZeroBytes)
        } else {
            Ok(MemoryBudget { bytes })
        }
    }

    /// A cap of `1/denominator` of `data_bytes` (never below one byte) — the
    /// out-of-budget evaluation presets use denominators 4…64.
    ///
    /// # Panics
    /// Panics if `denominator == 0`.
    pub fn fraction_of(data_bytes: usize, denominator: usize) -> Self {
        assert!(denominator > 0, "denominator must be positive");
        Self::bytes((data_bytes / denominator).max(1))
    }

    /// This budget as seen by one of `queries` concurrently admitted queries:
    /// the cap divides evenly, never below one byte, and an unbounded budget
    /// stays unbounded.  The RAM analogue of
    /// [`rdx_cache::CacheParams::per_core_share`] dividing the shared cache —
    /// the admission controller hands each admitted query this share so the
    /// sum of per-query working sets can never exceed the global cap.
    pub fn per_query_share(&self, queries: usize) -> MemoryBudget {
        if !self.is_bounded() {
            return *self;
        }
        MemoryBudget {
            bytes: (self.bytes / queries.max(1)).max(1),
        }
    }

    /// `true` unless this is [`MemoryBudget::unbounded`].
    pub fn is_bounded(&self) -> bool {
        self.bytes != usize::MAX
    }

    /// The cap in bytes (`usize::MAX` when unbounded).
    pub fn limit_bytes(&self) -> usize {
        self.bytes
    }

    /// Checks that at least one result row of `bytes_per_row` resident bytes
    /// fits under this cap — the guard the serving layer's admission runs
    /// before it plans a query.  A bounded budget below the one-row floor
    /// yields [`BudgetError::BelowOneRow`]; the panicking/clamping paths
    /// ([`MemoryBudget::chunk_rows`]) stay available for callers that prefer
    /// the documented clamp.
    pub fn check_one_row(&self, bytes_per_row: usize) -> Result<(), BudgetError> {
        if self.is_bounded() && self.bytes < bytes_per_row {
            Err(BudgetError::BelowOneRow {
                budget_bytes: self.bytes,
                bytes_per_row,
            })
        } else {
            Ok(())
        }
    }

    /// How many result rows fit one chunk when each resident row costs
    /// `bytes_per_row` bytes: at least 1 (progress must always be possible,
    /// like the one-cache-line floor of `per_core_share`), at most
    /// `total_rows`.
    pub fn chunk_rows(&self, total_rows: usize, bytes_per_row: usize) -> usize {
        if !self.is_bounded() {
            return total_rows.max(1);
        }
        (self.bytes / bytes_per_row.max(1)).clamp(1, total_rows.max(1))
    }

    /// Number of chunks a `total_rows`-row result splits into under this
    /// budget (1 for an unbounded budget, 1 for an empty result).
    pub fn num_chunks(&self, total_rows: usize, bytes_per_row: usize) -> usize {
        total_rows
            .div_ceil(self.chunk_rows(total_rows, bytes_per_row))
            .max(1)
    }
}

impl Default for MemoryBudget {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_budget_is_one_chunk() {
        let b = MemoryBudget::unbounded();
        assert!(!b.is_bounded());
        assert_eq!(b.chunk_rows(1_000_000, 64), 1_000_000);
        assert_eq!(b.num_chunks(1_000_000, 64), 1);
    }

    #[test]
    fn bounded_budget_splits_rows() {
        let b = MemoryBudget::bytes(1024);
        assert_eq!(b.chunk_rows(10_000, 16), 64);
        assert_eq!(b.num_chunks(10_000, 16), 157);
    }

    #[test]
    fn budget_floor_is_one_row() {
        // Budgets below one row still make progress, one row at a time.
        let b = MemoryBudget::bytes(3);
        assert_eq!(b.chunk_rows(100, 16), 1);
        assert_eq!(b.num_chunks(100, 16), 100);
    }

    #[test]
    fn fraction_of_data_size() {
        let b = MemoryBudget::fraction_of(1 << 20, 16);
        assert_eq!(b.limit_bytes(), 1 << 16);
        assert!(b.is_bounded());
        // Tiny data never collapses to a zero budget.
        assert_eq!(MemoryBudget::fraction_of(3, 64).limit_bytes(), 1);
    }

    #[test]
    fn empty_result_is_one_empty_chunk() {
        let b = MemoryBudget::bytes(1024);
        assert_eq!(b.chunk_rows(0, 16), 1);
        assert_eq!(b.num_chunks(0, 16), 1);
    }

    #[test]
    #[should_panic]
    fn zero_budget_rejected() {
        MemoryBudget::bytes(0);
    }

    #[test]
    fn try_bytes_reports_zero_as_typed_error() {
        assert_eq!(MemoryBudget::try_bytes(0), Err(BudgetError::ZeroBytes));
        assert_eq!(MemoryBudget::try_bytes(64), Ok(MemoryBudget::bytes(64)));
        assert!(!BudgetError::ZeroBytes.to_string().is_empty());
    }

    #[test]
    fn one_row_floor_check() {
        let b = MemoryBudget::bytes(15);
        assert_eq!(
            b.check_one_row(16),
            Err(BudgetError::BelowOneRow {
                budget_bytes: 15,
                bytes_per_row: 16
            })
        );
        assert_eq!(b.check_one_row(15), Ok(()));
        // Unbounded budgets always pass.
        assert_eq!(MemoryBudget::unbounded().check_one_row(usize::MAX), Ok(()));
        let msg = b.check_one_row(16).unwrap_err().to_string();
        assert!(msg.contains("15") && msg.contains("16"), "{msg}");
    }

    #[test]
    fn per_query_share_divides_evenly_with_floors() {
        let b = MemoryBudget::bytes(1024);
        assert_eq!(b.per_query_share(4).limit_bytes(), 256);
        assert_eq!(b.per_query_share(1), b);
        assert_eq!(b.per_query_share(0), b);
        // Floor of one byte at absurd query counts.
        assert_eq!(b.per_query_share(1_000_000).limit_bytes(), 1);
        // Unbounded budgets stay unbounded.
        assert!(!MemoryBudget::unbounded().per_query_share(8).is_bounded());
    }
}
