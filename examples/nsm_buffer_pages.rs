//! The §5 scenario: DSM Radix-Decluster inside an NSM DBMS, with
//! variable-size values landing in buffer-manager pages (Fig. 12).
//!
//! A projection column of strings is fetched in clustered order and then
//! radix-declustered in three phases — lengths first, then a prefix-sum pass
//! computing page/offset placements, then the actual copy — into slotted
//! pages.  The example prints the page statistics and verifies every value.
//!
//! ```text
//! cargo run --release --example nsm_buffer_pages [tuples]
//! ```

use radix_decluster::core::cluster::{radix_cluster_oids, RadixClusterSpec};
use radix_decluster::dsm::VarColumn;
use radix_decluster::nsm::BufferManager;
use radix_decluster::prelude::*;
use rdx_bench::paper::radix_decluster_paged;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let page_size = 8 * 1024;

    println!("Declustering {n} variable-size values into {page_size}-byte buffer pages …");

    // The "smaller" relation: one string attribute per tuple, varying length.
    let strings: Vec<String> = (0..n)
        .map(|i| format!("tuple-{i}:{}", "payload".repeat(1 + i % 5)))
        .collect();

    // A join result that needs those strings in an order that is neither the
    // base-table order nor anything cache-friendly: result row r wants the
    // string of smaller tuple (r * 2654435761) mod n.
    let smaller_oids: Vec<Oid> = (0..n as u64)
        .map(|r| ((r.wrapping_mul(2654435761)) % n as u64) as Oid)
        .collect();
    let result_positions: Vec<Oid> = (0..n as Oid).collect();

    // Fig. 4 pipeline: partially cluster (smaller_oid, result_position), then
    // fetch the strings in clustered order (cache-friendly), then decluster.
    let params = CacheParams::paper_pentium4();
    let spec = RadixClusterSpec::optimal_partial(n, 32, params.cache_capacity());
    let clustered = radix_cluster_oids(&smaller_oids, &result_positions, spec);

    let mut clust_values = VarColumn::new();
    for &oid in clustered.keys() {
        clust_values.push_str(&strings[oid as usize]);
    }

    let mut bm = BufferManager::new(page_size);
    let window =
        radix_decluster::core::decluster::choose_window_bytes(4, clustered.num_clusters(), &params);
    let placed = radix_decluster_paged(
        &clust_values,
        clustered.payloads(),
        clustered.bounds(),
        window,
        &mut bm,
    );

    let total_bytes: usize = strings.iter().map(|s| s.len()).sum();
    println!();
    println!("clusters used            : {}", clustered.num_clusters());
    println!("insertion window         : {} KB", window / 1024);
    println!("buffer pages allocated   : {}", bm.num_pages());
    println!("payload bytes written    : {total_bytes}");
    println!(
        "page utilisation         : {:.1}%",
        100.0 * total_bytes as f64 / (bm.num_pages() * page_size) as f64
    );

    // Verify a sample of result tuples against the expected strings.
    for r in (0..n).step_by((n / 1000).max(1)) {
        let expected = &strings[smaller_oids[r] as usize];
        let got = placed.read(&bm, r, expected.len());
        assert_eq!(got, expected.as_bytes(), "result tuple {r}");
    }
    println!();
    println!("verification of sampled result tuples: ok ✓");
}
