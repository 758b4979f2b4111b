//! The §5 / Fig. 12 variant: Radix-Decluster into buffer-manager pages with
//! variable-size values.
//!
//! A DSM post-projection inside an NSM RDBMS cannot insert "by position" into
//! one contiguous array: the output lives in slotted pages, and values may be
//! variable-size (strings).  Fig. 12 solves this in three phases:
//!
//! 1. run Radix-Decluster, but only record each value's *length* at its result
//!    position (an integer array, addressable by position);
//! 2. one sequential pass turns the lengths into page/offset placements
//!    (prefix sums, `page# = B / P`, `offset = B % P`);
//! 3. re-run Radix-Decluster, copying each value to its computed page and
//!    offset.

use rdx_core::decluster::radix_decluster;
use rdx_dsm::{Oid, VarColumn};
use rdx_nsm::{assign_positions, BufferManager, PageId, Placement};

/// Result of a paged decluster: where each result tuple landed.
#[derive(Debug, Clone)]
pub struct PagedDecluster {
    /// Id of the first page used in the buffer manager.
    pub first_page: PageId,
    /// Placement of result tuple `i` (page relative to `first_page`).
    pub placements: Vec<Placement>,
}

impl PagedDecluster {
    /// Reads back result tuple `i` from the buffer manager.
    pub fn read<'a>(&self, bm: &'a BufferManager, i: usize, len: usize) -> &'a [u8] {
        let p = self.placements[i];
        bm.page(self.first_page + p.page).read(p.slot, len)
    }
}

/// Three-phase Radix-Decluster of variable-size values into buffer pages.
///
/// * `values` — the projected variable-size values in clustered order
///   (`CLUST_VALUES` of Fig. 4, fetched by a sparse/clustered positional join
///   from a [`VarColumn`]);
/// * `result_positions`, `bounds`, `window_bytes` — as for
///   [`radix_decluster`];
/// * `bm` — the buffer manager receiving the output pages.
///
/// Returns the per-result-tuple placements; tuple `i`'s bytes can be read back
/// with [`PagedDecluster::read`] using `lengths[i]` (also recoverable from the
/// placements and `values`).
pub fn radix_decluster_paged(
    values: &VarColumn,
    result_positions: &[Oid],
    bounds: &[usize],
    window_bytes: usize,
    bm: &mut BufferManager,
) -> PagedDecluster {
    let n = values.len();
    assert_eq!(
        result_positions.len(),
        n,
        "values/positions length mismatch"
    );

    // Phase 1: decluster only the value lengths into result order.
    let clustered_lengths: Vec<u32> = (0..n).map(|i| values.value_len(i) as u32).collect();
    let lengths_in_result_order: Vec<u32> =
        radix_decluster(&clustered_lengths, result_positions, bounds, window_bytes);

    // Phase 2: sequential pass over the lengths, computing placements.
    let lengths_usize: Vec<usize> = lengths_in_result_order
        .iter()
        .map(|&l| l as usize)
        .collect();
    let placements = assign_positions(&lengths_usize, bm.page_size());
    let first_page = rdx_nsm::paged::allocate_for(bm, &placements);

    // Phase 3: re-run the decluster traversal, copying bytes to page/offset.
    // (Same control flow as radix_decluster, but the "write" goes to a page.)
    let mut clusters: Vec<(usize, usize)> = bounds
        .windows(2)
        .map(|w| (w[0], w[1]))
        .filter(|(s, e)| s < e)
        .collect();
    let mut nclusters = clusters.len();
    let window_elems = (window_bytes / 4).max(1);
    let mut window_limit = window_elems;
    while nclusters > 0 {
        let mut i = 0;
        while i < nclusters {
            loop {
                let (cursor, end) = clusters[i];
                let dest = result_positions[cursor] as usize;
                if dest >= window_limit {
                    i += 1;
                    break;
                }
                let p = placements[dest];
                bm.page_mut(first_page + p.page).write_at(
                    p.slot,
                    p.offset,
                    values.get_bytes(cursor),
                );
                let next = cursor + 1;
                if next >= end {
                    nclusters -= 1;
                    clusters[i] = clusters[nclusters];
                    if i >= nclusters {
                        i += 1;
                    }
                    break;
                }
                clusters[i].0 = next;
            }
        }
        window_limit += window_elems;
    }

    PagedDecluster {
        first_page,
        placements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_core::cluster::{radix_cluster_oids, RadixClusterSpec};

    /// Builds the Fig. 4-style inputs for `n` string values.
    fn make_inputs(n: usize, bits: u32) -> (VarColumn, Vec<Oid>, Vec<usize>, Vec<String>) {
        // Result tuple r projects the string of smaller-relation tuple
        // smaller_oids[r]; strings have varying lengths.
        let strings: Vec<String> = (0..n)
            .map(|i| format!("value-{i}-{}", "x".repeat(i % 13)))
            .collect();
        let smaller_oids: Vec<Oid> = (0..n as Oid).map(|r| (r * 7 + 3) % n as Oid).collect();
        let result_positions: Vec<Oid> = (0..n as Oid).collect();
        let clustered = radix_cluster_oids(
            &smaller_oids,
            &result_positions,
            RadixClusterSpec::single_pass(bits),
        );
        // Clustered positional join: fetch the string of each clustered oid.
        let mut clust_values = VarColumn::new();
        for &o in clustered.keys() {
            clust_values.push_str(&strings[o as usize]);
        }
        // The expected final result, for verification.
        let expected: Vec<String> = smaller_oids
            .iter()
            .map(|&o| strings[o as usize].clone())
            .collect();
        (
            clust_values,
            clustered.payloads().to_vec(),
            clustered.bounds().to_vec(),
            expected,
        )
    }

    #[test]
    fn paged_decluster_places_every_value_correctly() {
        let (values, positions, bounds, expected) = make_inputs(500, 4);
        let mut bm = BufferManager::new(512);
        let out = radix_decluster_paged(&values, &positions, &bounds, 1024, &mut bm);
        assert_eq!(out.placements.len(), 500);
        for (i, exp) in expected.iter().enumerate() {
            let bytes = out.read(&bm, i, exp.len());
            assert_eq!(bytes, exp.as_bytes(), "result tuple {i}");
        }
        assert!(bm.num_pages() > 1, "multi-page output expected");
    }

    #[test]
    fn fixed_size_values_pack_pages_densely() {
        let n = 200;
        let strings: Vec<String> = (0..n).map(|i| format!("{i:08}")).collect();
        let mut values = VarColumn::new();
        for s in &strings {
            values.push_str(s);
        }
        let positions: Vec<Oid> = (0..n as Oid).collect();
        let bounds = vec![0, n];
        let mut bm = BufferManager::new(128);
        let out = radix_decluster_paged(&values, &positions, &bounds, 256, &mut bm);
        // 8-byte values + 2-byte slots into 120-byte payload budget -> 12 per page.
        assert_eq!(out.placements[0].page, 0);
        assert_eq!(out.placements[12].page, 1);
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(out.read(&bm, i, 8), s.as_bytes());
        }
    }

    #[test]
    fn empty_input_allocates_nothing() {
        let values = VarColumn::new();
        let mut bm = BufferManager::new(256);
        let out = radix_decluster_paged(&values, &[], &[0], 64, &mut bm);
        assert!(out.placements.is_empty());
        assert_eq!(bm.num_pages(), 0);
    }
}
