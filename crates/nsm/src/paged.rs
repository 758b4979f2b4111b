//! Phase 2 of the Fig. 12 three-phase buffer-manager decluster: mapping
//! per-value lengths to (page, slot, offset) placements.
//!
//! Fig. 12 computes a running byte position `B = sizeof(short)·i + Σ lengths`
//! and derives `page# = B / P`, `offset = B % P`.  A raw modulo would let a
//! value straddle a page boundary, which a slotted page cannot represent; we
//! therefore use the page-aware variant (bump to the next page when a value
//! does not fit), which keeps the same sequential-prefix-sum structure and the
//! same per-record `sizeof(short)` directory charge.  This is the one
//! intentional refinement over the figure.

use crate::buffer::{BufferManager, PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};

/// Where one value will be written: page, slot within the page, and payload
/// offset within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Page index (relative to the first page allocated for this output).
    pub page: usize,
    /// Slot index within the page.
    pub slot: usize,
    /// Payload byte offset within the page.
    pub offset: usize,
}

/// Computes placements for values of the given `lengths` (in final result
/// order) into pages of `page_size` bytes.
///
/// Every value is charged its own bytes plus one slot-directory entry; a value
/// that does not fit in the remaining payload of the current page starts a new
/// page.  This is the "sequential pass over SIZE_VALUES creating incremental
/// sums" of Fig. 12 phase 2.
///
/// # Panics
/// Panics if any single value (plus header and one slot entry) exceeds the
/// page size.
pub fn assign_positions(lengths: &[usize], page_size: usize) -> Vec<Placement> {
    let budget = page_size - PAGE_HEADER_BYTES;
    let mut placements = Vec::with_capacity(lengths.len());
    let mut page = 0usize;
    let mut slot = 0usize;
    let mut offset = 0usize;
    for (i, &len) in lengths.iter().enumerate() {
        let needed = len + SLOT_ENTRY_BYTES;
        assert!(
            needed <= budget,
            "value {i} of {len} bytes cannot fit a {page_size}-byte page"
        );
        let used = offset + (slot + 1) * SLOT_ENTRY_BYTES;
        if used + len > budget {
            page += 1;
            slot = 0;
            offset = 0;
        }
        placements.push(Placement { page, slot, offset });
        offset += len;
        slot += 1;
    }
    placements
}

/// Number of pages the placements occupy (0 for an empty input).
pub fn pages_needed(placements: &[Placement]) -> usize {
    placements.last().map(|p| p.page + 1).unwrap_or(0)
}

/// Pre-allocates exactly the pages `placements` need in `bm`, returning the
/// id of the first page.
pub fn allocate_for(bm: &mut BufferManager, placements: &[Placement]) -> usize {
    bm.allocate(pages_needed(placements))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_page_layout_is_sequential() {
        let lengths = [4, 7, 5];
        let p = assign_positions(&lengths, 4096);
        assert_eq!(
            p,
            vec![
                Placement {
                    page: 0,
                    slot: 0,
                    offset: 0
                },
                Placement {
                    page: 0,
                    slot: 1,
                    offset: 4
                },
                Placement {
                    page: 0,
                    slot: 2,
                    offset: 11
                },
            ]
        );
        assert_eq!(pages_needed(&p), 1);
    }

    #[test]
    fn values_never_straddle_pages() {
        // page 64: budget = 56 payload+slots bytes.
        let lengths = [20, 20, 20, 20];
        let p = assign_positions(&lengths, 64);
        // 20+2 + 20+2 = 44 fits; adding another 20+2 = 66 > 56 -> new page.
        assert_eq!(p[0].page, 0);
        assert_eq!(p[1].page, 0);
        assert_eq!(p[2].page, 1);
        assert_eq!(p[3].page, 1);
        assert_eq!(p[2].offset, 0);
        assert_eq!(p[2].slot, 0);
    }

    #[test]
    fn slot_entry_bytes_are_charged() {
        // Without the 2-byte slot charge three 18-byte values would fit a
        // 64-byte page (54 <= 56); with it the third one spills.
        let lengths = [18, 18, 18];
        let p = assign_positions(&lengths, 64);
        assert_eq!(p[2].page, 1);
    }

    #[test]
    #[should_panic]
    fn oversized_value_panics() {
        assign_positions(&[100], 64);
    }

    #[test]
    fn empty_input() {
        let p = assign_positions(&[], 4096);
        assert!(p.is_empty());
        assert_eq!(pages_needed(&p), 0);
    }

    #[test]
    fn allocate_for_creates_exactly_needed_pages() {
        let lengths = vec![30; 10];
        let p = assign_positions(&lengths, 64);
        let mut bm = BufferManager::new(64);
        let first = allocate_for(&mut bm, &p);
        assert_eq!(first, 0);
        assert_eq!(bm.num_pages(), pages_needed(&p));
        // one 30-byte value + slot entry per page (30+2)*2 = 64 > 56 budget
        assert_eq!(bm.num_pages(), 10);
    }
}
