//! Property tests for the paged backends — `rdx_bench::paper::paged` and
//! `nsm::paged` — the modules with the thinnest direct coverage.  The axis deliberately stressed here: *random page
//! sizes*, including pages far smaller than one insertion window (the §5
//! regime where the output granularity is the page, not the window), and
//! windows both smaller than one value and larger than the whole input.

use proptest::prelude::*;
use radix_decluster::core::cluster::{radix_cluster_oids, RadixClusterSpec};
use radix_decluster::dsm::{Oid, VarColumn};
use radix_decluster::nsm::buffer::{PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};
use radix_decluster::nsm::{assign_positions, BufferManager};
use rdx_bench::paper::radix_decluster_paged;

/// Deterministic variable-size strings plus the Fig. 4-style clustered input
/// over them.
fn varsize_inputs(
    n: usize,
    bits: u32,
    seed: u64,
) -> (VarColumn, Vec<Oid>, Vec<usize>, Vec<String>) {
    let strings: Vec<String> = (0..n)
        .map(|i| {
            let rep = ((i as u64).wrapping_mul(seed | 1) % 23) as usize;
            format!("v{i}:{}", "x".repeat(rep))
        })
        .collect();
    let smaller: Vec<Oid> = (0..n as Oid)
        .map(|r| (r.wrapping_mul(2_654_435_761).wrapping_add(seed as Oid)) % n as Oid)
        .collect();
    let positions: Vec<Oid> = (0..n as Oid).collect();
    let clustered = radix_cluster_oids(&smaller, &positions, RadixClusterSpec::single_pass(bits));
    let mut values = VarColumn::new();
    for &o in clustered.keys() {
        values.push_str(&strings[o as usize]);
    }
    let expected: Vec<String> = smaller
        .iter()
        .map(|&o| strings[o as usize].clone())
        .collect();
    (
        values,
        clustered.payloads().to_vec(),
        clustered.bounds().to_vec(),
        expected,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fig. 12 paged decluster round-trips byte-identically for any page
    /// size — including pages smaller than the insertion window — and any
    /// window, with placements laid out in non-decreasing page order.
    #[test]
    fn paged_decluster_round_trips_for_any_page_and_window(
        n in 1usize..500,
        bits in 0u32..7,
        page_size in 64usize..4_096,
        window_bytes in 1usize..65_536,
        seed in 0u64..1_000,
    ) {
        let (values, positions, bounds, expected) = varsize_inputs(n, bits, seed);
        let mut bm = BufferManager::new(page_size);
        let placed = radix_decluster_paged(&values, &positions, &bounds, window_bytes, &mut bm);
        prop_assert_eq!(placed.placements.len(), n);
        for (r, want) in expected.iter().enumerate() {
            prop_assert_eq!(placed.read(&bm, r, want.len()), want.as_bytes());
        }
        // Result order implies non-decreasing page ids.
        for w in placed.placements.windows(2) {
            prop_assert!(w[0].page <= w[1].page);
        }
    }

    /// `assign_positions` (Fig. 12 phase 2) never straddles a page, never
    /// overlaps values, charges every slot-directory entry, and moves to a
    /// fresh page only when forced.
    #[test]
    fn assign_positions_is_a_dense_non_straddling_layout(
        lengths in proptest::collection::vec(0usize..40, 0..300),
        page_size in 64usize..1_024,
    ) {
        let placements = assign_positions(&lengths, page_size);
        prop_assert_eq!(placements.len(), lengths.len());
        let budget = page_size - PAGE_HEADER_BYTES;
        let mut prev_page = 0usize;
        let mut expected_offset = 0usize;
        let mut expected_slot = 0usize;
        for (i, (p, &len)) in placements.iter().zip(&lengths).enumerate() {
            prop_assert!(p.page >= prev_page, "page went backwards at value {}", i);
            if p.page > prev_page {
                prop_assert_eq!(p.page, prev_page + 1, "skipped a page at value {}", i);
                // A fresh page is only started when the value cannot fit.
                prop_assert!(
                    expected_offset + (expected_slot + 1) * SLOT_ENTRY_BYTES + len > budget,
                    "value {} spilled although it fit", i
                );
                expected_offset = 0;
                expected_slot = 0;
                prev_page = p.page;
            }
            prop_assert_eq!(p.offset, expected_offset);
            prop_assert_eq!(p.slot, expected_slot);
            // Value plus its share of the slot directory stays inside the page.
            prop_assert!(p.offset + len + (p.slot + 1) * SLOT_ENTRY_BYTES <= budget);
            expected_offset += len;
            expected_slot += 1;
        }
    }

    /// Writing the layout through a `BufferManager` round-trips every value
    /// (pages allocated exactly as `pages_needed` says).
    #[test]
    fn assigned_layout_round_trips_through_the_buffer_manager(
        lengths in proptest::collection::vec(1usize..40, 1..200),
        page_size in 64usize..1_024,
    ) {
        let placements = assign_positions(&lengths, page_size);
        let mut bm = BufferManager::new(page_size);
        let first = radix_decluster::nsm::paged::allocate_for(&mut bm, &placements);
        for (i, (p, &len)) in placements.iter().zip(&lengths).enumerate() {
            let byte = (i % 251) as u8;
            bm.page_mut(first + p.page).write_at(p.slot, p.offset, &vec![byte; len]);
        }
        for (i, (p, &len)) in placements.iter().zip(&lengths).enumerate() {
            let byte = (i % 251) as u8;
            prop_assert_eq!(bm.page(first + p.page).read(p.slot, len), &vec![byte; len][..]);
        }
        prop_assert_eq!(bm.num_pages(), radix_decluster::nsm::paged::pages_needed(&placements));
    }
}
