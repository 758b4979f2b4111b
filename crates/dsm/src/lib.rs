//! # rdx-dsm — Decomposition Storage Model substrate
//!
//! The paper's experimentation platform, MonetDB, stores every relational
//! column as a separate `[void, value]` table: the head is a *void* column — a
//! densely ascending object-id (oid) sequence `0, 1, 2, …` that takes no
//! physical storage — and the tail is a plain array of values.  This crate
//! reproduces that storage substrate:
//!
//! * [`Oid`] — object identifiers from a dense domain `[0, N)`.
//! * [`Column`] — a `[void, value]` table, i.e. a dense array indexed by oid;
//!   its gathers write through [`FromValue`], so a value lands as itself or
//!   as its wire bytes.
//! * [`VarColumn`] — a variable-size (string) column: an offset array into a
//!   shared byte heap, mirroring MonetDB's string heaps (paper §3, footnote 3).
//! * [`JoinIndex`] — the `[oid, oid]` result of a key join (Valduriez-style
//!   join index), the input of every post-projection strategy.
//! * [`mark`] — MonetDB's `mark()` operator: attach a fresh densely ascending
//!   void head to a column (paper §3.1 / §3.2, used to create the
//!   `JOIN_LARGER`, `JOIN_SMALLER`, `CLUST_RESULT`, `CLUST_SMALLER` views).
//! * [`DsmRelation`] — a bundle of equally long columns (one key column plus
//!   ω attribute columns), the unit the workload generator produces.
//! * [`Selection`] — an oid list into a base table, used for the sparse
//!   projection experiments (paper §4.1, Fig. 11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod join_index;
pub mod relation;
pub mod selection;
pub mod varsize;

pub use column::{mark, Column, FromValue, GatherIndex};
pub use join_index::JoinIndex;
pub use relation::{DsmRelation, ResultRelation};
pub use selection::Selection;
pub use varsize::VarColumn;

/// An object identifier: a position in a dense domain `[0, N)`.
///
/// In MonetDB oids are "virtual": a void column stores only its seqbase.  We
/// use `u32` (the paper's relations top out at 16M tuples; `u32` keeps the
/// join index at 8 bytes per pair, matching the paper's 4-byte oid width used
/// throughout the cost models).
pub type Oid = u32;

/// Width, in bytes, of an [`Oid`] — the `R̄` of the cost models for oid columns.
pub const OID_BYTES: usize = std::mem::size_of::<Oid>();

/// Width, in bytes, of one `i32` attribute cell — the `R̄` of the cost
/// models for the paper's all-integer projection columns.
pub const VALUE_WIDTH: usize = std::mem::size_of::<i32>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_is_four_bytes() {
        // The Appendix-A cost models and the radix-bit formulas in §3.1 assume
        // 4-byte oids; widening Oid silently would skew every B/I computation.
        assert_eq!(OID_BYTES, 4);
        assert_eq!(VALUE_WIDTH, 4);
    }
}
