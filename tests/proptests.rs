//! Property-based tests of the core invariants, spanning the workspace crates.

use proptest::prelude::*;
use radix_decluster::core::cluster::{
    is_clustered, radix_cluster, radix_cluster_oids, radix_count, radix_sort_oids, RadixClusterSpec,
};
use radix_decluster::core::decluster::paged::radix_decluster_paged;
use radix_decluster::core::decluster::radix_decluster;
use radix_decluster::core::hash::hash_key;
use radix_decluster::core::join::{hash_join, partitioned_hash_join};
use radix_decluster::dsm::VarColumn;
use radix_decluster::nsm::BufferManager;
use radix_decluster::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// 64 distinct keys whose hashes agree on their low 14 bits: one partition
/// of every Radix-Cluster on `B ≤ 14` bits.
fn one_partition_keys() -> &'static [u64] {
    static KEYS: OnceLock<Vec<u64>> = OnceLock::new();
    KEYS.get_or_init(|| {
        let field = hash_key(0) & 0x3fff;
        (0u64..)
            .filter(|&k| hash_key(k) & 0x3fff == field)
            .take(64)
            .collect()
    })
}

/// The join by definition: every `(l, s)` with equal keys, sorted.
fn naive_pairs(larger: &[u64], smaller: &[u64]) -> Vec<(Oid, Oid)> {
    let mut positions: HashMap<u64, Vec<Oid>> = HashMap::new();
    for (s, &k) in smaller.iter().enumerate() {
        positions.entry(k).or_default().push(s as Oid);
    }
    let mut pairs: Vec<(Oid, Oid)> = larger
        .iter()
        .enumerate()
        .flat_map(|(l, k)| {
            let matches = positions.get(k).map_or(&[][..], Vec::as_slice);
            matches.iter().map(move |&s| (l as Oid, s))
        })
        .collect();
    pairs.sort_unstable();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Radix-clustering is a permutation: nothing added, nothing lost, pairs
    /// stay together, and the output really is clustered on the radix field.
    #[test]
    fn radix_cluster_is_a_stable_permutation(
        oids in proptest::collection::vec(0u32..50_000, 0..2_000),
        bits in 0u32..10,
        passes in 1u32..4,
        ignore in 0u32..6,
    ) {
        let payloads: Vec<u32> = (0..oids.len() as u32).collect();
        let spec = RadixClusterSpec::partial(bits, passes, ignore);
        let clustered = radix_cluster_oids(&oids, &payloads, spec);

        prop_assert_eq!(clustered.len(), oids.len());
        prop_assert_eq!(*clustered.bounds().last().unwrap(), oids.len());
        prop_assert!(is_clustered(clustered.keys(), bits, ignore));
        // Pairs preserved: payload p still rides with oids[p].
        for (&k, &p) in clustered.keys().iter().zip(clustered.payloads()) {
            prop_assert_eq!(oids[p as usize], k);
        }
        // radix_count over the clustered keys reproduces the bounds.
        prop_assert_eq!(radix_count(clustered.keys(), bits, ignore), clustered.bounds().to_vec());
    }

    /// Parallel Radix-Cluster (rdx-exec) is byte-identical to the sequential
    /// kernel — same stable permutation, same borders — for arbitrary
    /// bit/pass/ignore splits and thread counts.
    #[test]
    fn parallel_radix_cluster_is_the_same_stable_permutation(
        oids in proptest::collection::vec(0u32..50_000, 0..2_000),
        bits in 0u32..10,
        passes in 1u32..4,
        ignore in 0u32..6,
        threads in 1usize..9,
    ) {
        use radix_decluster::exec::par_radix_cluster_oids;
        let payloads: Vec<u32> = (0..oids.len() as u32).collect();
        let spec = RadixClusterSpec::partial(bits, passes, ignore);
        let sequential = radix_cluster_oids(&oids, &payloads, spec);
        let parallel = par_radix_cluster_oids(&oids, &payloads, spec, &ExecPolicy::with_threads(threads));

        // Byte-identical to the sequential reference…
        prop_assert_eq!(&parallel, &sequential);
        // …and independently a stable permutation clustered on the field.
        prop_assert_eq!(parallel.len(), oids.len());
        prop_assert!(is_clustered(parallel.keys(), bits, ignore));
        for (&k, &p) in parallel.keys().iter().zip(parallel.payloads()) {
            prop_assert_eq!(oids[p as usize], k);
        }
        prop_assert_eq!(radix_count(parallel.keys(), bits, ignore), parallel.bounds().to_vec());
    }

    /// The software write-combining (buffered) scatter is byte-identical to
    /// the plain scatter for arbitrary `(bits, passes, ignore)` and skew —
    /// including the all-one-cluster extreme (`modulus == 1`) and cluster
    /// sizes that are not multiples of the staging slot, which exercise the
    /// partial-flush path.  Scratch reuse across cases is part of the
    /// property.
    #[test]
    fn buffered_scatter_equals_plain_scatter(
        raw in proptest::collection::vec(0u32..u32::MAX, 0..2_500),
        modulus in 1u32..60_000,
        bits in 0u32..11,
        passes in 1u32..4,
        ignore in 0u32..6,
    ) {
        use radix_decluster::core::cluster::{
            radix_cluster_oids_with_scratch, radix_cluster_with_scratch, ClusterScratch,
            ScatterMode,
        };
        let oids: Vec<Oid> = raw.iter().map(|&v| v % modulus).collect();
        let payloads: Vec<u32> = (0..oids.len() as u32).collect();
        let spec = RadixClusterSpec::partial(bits, passes, ignore);
        let plain = radix_cluster_oids(&oids, &payloads, spec);
        let mut scratch = ClusterScratch::new();
        let buffered = radix_cluster_oids_with_scratch(
            &oids, &payloads, spec, ScatterMode::Buffered, &mut scratch,
        );
        prop_assert_eq!(&buffered, &plain);
        // Reusing the same (now dirty) scratch must not change the result.
        let again = radix_cluster_oids_with_scratch(
            &oids, &payloads, spec, ScatterMode::Buffered, &mut scratch,
        );
        prop_assert_eq!(&again, &plain);
        // The hashed-key kernel obeys the same equivalence.
        let keys: Vec<u64> = oids.iter().map(|&o| o as u64).collect();
        let hashed_plain = radix_cluster(&keys, &payloads, spec);
        let hashed_buffered = radix_cluster_with_scratch(
            &keys, &payloads, spec, ScatterMode::Buffered, &mut ClusterScratch::new(),
        );
        prop_assert_eq!(&hashed_buffered, &hashed_plain);
    }

    /// Parallel Radix-Decluster inverts the clustering permutation exactly
    /// like the sequential kernel, for every window size and thread count.
    #[test]
    fn parallel_radix_decluster_inverts_clustering(
        n in 1usize..3_000,
        bits in 0u32..8,
        window_bytes in 4usize..1_000_000,
        threads in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        use radix_decluster::exec::par_radix_decluster;
        let mut smaller: Vec<Oid> = (0..n as Oid).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            smaller.swap(i, j);
        }
        let result_positions: Vec<Oid> = (0..n as Oid).collect();
        let clustered = radix_cluster_oids(&smaller, &result_positions, RadixClusterSpec::single_pass(bits));
        let values: Vec<i64> = clustered.keys().iter().map(|&o| o as i64 * 3 + 1).collect();

        let sequential = radix_decluster(&values, clustered.payloads(), clustered.bounds(), window_bytes);
        let parallel = par_radix_decluster(
            &values,
            clustered.payloads(),
            clustered.bounds(),
            window_bytes,
            &ExecPolicy::with_threads(threads),
        );
        prop_assert_eq!(&parallel, &sequential);
        let expected: Vec<i64> = smaller.iter().map(|&o| o as i64 * 3 + 1).collect();
        prop_assert_eq!(parallel, expected);
    }

    /// Radix-Sort really sorts, for any oid multiset.
    #[test]
    fn radix_sort_sorts_any_oid_column(
        oids in proptest::collection::vec(0u32..100_000, 0..3_000),
    ) {
        let payloads: Vec<u32> = (0..oids.len() as u32).collect();
        let domain = oids.iter().map(|&o| o as usize + 1).max().unwrap_or(0);
        let sorted = radix_sort_oids(&oids, &payloads, domain);
        prop_assert!(sorted.keys().windows(2).all(|w| w[0] <= w[1]));
        let mut expected = oids.clone();
        expected.sort_unstable();
        prop_assert_eq!(sorted.keys(), &expected[..]);
    }

    /// Radix-Decluster inverts the clustering permutation for every window
    /// size and clustering granularity.
    #[test]
    fn radix_decluster_inverts_clustering(
        n in 1usize..3_000,
        bits in 0u32..8,
        window_bytes in 4usize..1_000_000,
        seed in 0u64..u64::MAX,
    ) {
        // A pseudo-random permutation of smaller oids.
        let mut smaller: Vec<Oid> = (0..n as Oid).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            smaller.swap(i, j);
        }
        let result_positions: Vec<Oid> = (0..n as Oid).collect();
        let clustered = radix_cluster_oids(&smaller, &result_positions, RadixClusterSpec::single_pass(bits));
        let values: Vec<i64> = clustered.keys().iter().map(|&o| o as i64 * 3 + 1).collect();

        let out = radix_decluster(&values, clustered.payloads(), clustered.bounds(), window_bytes);

        // Expected: result row r holds the value derived from smaller[r].
        let expected: Vec<i64> = smaller.iter().map(|&o| o as i64 * 3 + 1).collect();
        prop_assert_eq!(out, expected);
    }

    /// The windowed kernel is the reference scatter `out[pos[i]] = values[i]`
    /// restricted to any sub-range of windows — with empty clusters (up to
    /// 2^10 of them over small inputs), one-element windows (4 bytes) and
    /// windows wider than the input — and again over every chunk's rebased
    /// chunk-local inputs from `ChunkCursorState`, all through one scratch.
    #[test]
    fn decluster_kernel_equals_reference_scatter(
        n in 1usize..20_001,
        bits in 0u32..11,
        window_pick in 0usize..4,
        range_lo in 0usize..1_000_000,
        range_len in 0usize..1_000_000,
        chunk_rows in 1usize..5_000,
        seed in 0u64..u64::MAX,
    ) {
        use radix_decluster::core::decluster::chunks::ChunkCursorState;
        use radix_decluster::core::decluster::window_elems;

        let mut smaller: Vec<Oid> = (0..n as Oid).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            smaller.swap(i, j);
        }
        let result_positions: Vec<Oid> = (0..n as Oid).collect();
        let clustered = radix_cluster_oids(&smaller, &result_positions, RadixClusterSpec::single_pass(bits));
        let (positions, bounds) = (clustered.payloads(), clustered.bounds());
        let values: Vec<i32> = clustered.keys().iter().map(|&o| o as i32 * 3 + 1).collect();
        let mut reference = vec![0i32; n];
        for (&p, &v) in positions.iter().zip(&values) {
            reference[p as usize] = v;
        }

        let elems = window_elems([4, 64, 4_096, 1 << 20][window_pick], 4);
        let windows = n.div_ceil(elems);
        let lo = range_lo % (windows + 1);
        let hi = lo + range_len % (windows - lo + 1);
        let covered = (lo * elems).min(n)..(hi * elems).min(n);
        let mut scratch = DeclusterScratch::new();
        // Every covered slot must be overwritten: values are positive.
        let mut out = vec![i32::MIN; covered.len()];
        radix_decluster_windows_with_scratch(
            &values, positions, bounds, elems, lo..hi, &mut scratch, &mut out,
        );
        prop_assert_eq!(&out[..], &reference[covered]);

        let mut cursors = ChunkCursorState::new(bounds);
        let mut result_end = 0;
        while result_end < n {
            result_end = (result_end + chunk_rows).min(n);
            let chunk = cursors.next_chunk(positions, result_end);
            let mut out = vec![i32::MIN; chunk.len()];
            radix_decluster_windows_with_scratch(
                &chunk.gather(&values),
                &chunk.rebased_positions(positions),
                &chunk.local_bounds(),
                elems,
                0..chunk.len().div_ceil(elems),
                &mut scratch,
                &mut out,
            );
            prop_assert_eq!(&out[..], &reference[chunk.result_range.clone()]);
        }
    }

    /// Partitioned Hash-Join equals naive Hash-Join equals a set-based
    /// reference, for arbitrary key multisets.
    #[test]
    fn joins_agree_with_reference(
        larger in proptest::collection::vec(0u64..500, 0..400),
        smaller in proptest::collection::vec(0u64..500, 0..400),
        bits in 0u32..13,
        passes in 1u32..3,
    ) {
        let reference: HashSet<(Oid, Oid)> = larger
            .iter()
            .enumerate()
            .flat_map(|(l, &lk)| {
                smaller
                    .iter()
                    .enumerate()
                    .filter(move |(_, &sk)| sk == lk)
                    .map(move |(s, _)| (l as Oid, s as Oid))
            })
            .collect();
        let naive: HashSet<(Oid, Oid)> = hash_join(&larger, &smaller).iter().collect();
        let partitioned: HashSet<(Oid, Oid)> =
            partitioned_hash_join(&larger, &smaller, RadixClusterSpec::new(bits, passes))
                .iter()
                .collect();
        prop_assert_eq!(&naive, &reference);
        prop_assert_eq!(&partitioned, &reference);
    }

    /// Hashed radix clustering sends equal keys to equal clusters (the
    /// property Partitioned Hash-Join relies on).
    #[test]
    fn equal_keys_land_in_equal_clusters(
        keys in proptest::collection::vec(0u64..1_000, 1..1_000),
        bits in 1u32..8,
    ) {
        let payloads: Vec<u32> = (0..keys.len() as u32).collect();
        let clustered = radix_cluster(&keys, &payloads, RadixClusterSpec::single_pass(bits));
        // Map key -> cluster, ensure it is a function.
        let mut cluster_of = std::collections::HashMap::new();
        for j in 0..clustered.num_clusters() {
            for &k in clustered.cluster_keys(j) {
                if let Some(&prev) = cluster_of.get(&k) {
                    prop_assert_eq!(prev, j, "key {} in clusters {} and {}", k, prev, j);
                } else {
                    cluster_of.insert(k, j);
                }
            }
        }
    }

    /// The paged (Fig. 12) decluster stores every variable-size value
    /// retrievably and never splits a value across pages.
    #[test]
    fn paged_decluster_round_trips(
        n in 1usize..400,
        bits in 0u32..6,
        page_size in 128usize..2_048,
    ) {
        let strings: Vec<String> = (0..n).map(|i| format!("v{i}-{}", "y".repeat(i % 17))).collect();
        let smaller: Vec<Oid> = (0..n as Oid).map(|r| (r * 31 + 7) % n as Oid).collect();
        let positions: Vec<Oid> = (0..n as Oid).collect();
        let clustered = radix_cluster_oids(&smaller, &positions, RadixClusterSpec::single_pass(bits));
        let mut values = VarColumn::new();
        for &o in clustered.keys() {
            values.push_str(&strings[o as usize]);
        }
        let mut bm = BufferManager::new(page_size);
        let placed = radix_decluster_paged(&values, clustered.payloads(), clustered.bounds(), 256, &mut bm);
        for r in 0..n {
            let expected = &strings[smaller[r] as usize];
            prop_assert_eq!(placed.read(&bm, r, expected.len()), expected.as_bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Partitioned Hash-Join — one out-of-cache pass, the in-cache split
    /// for `B > 5`, the bucketized probe — is byte-identical between the
    /// sequential and the parallel executor at every thread count, and
    /// equals the join by definition.  Domains: mostly distinct keys, about
    /// seven copies of each key, `i % 7`, and 64 keys that all share one
    /// partition; either side may be empty.
    #[test]
    fn partitioned_join_is_the_same_sequential_parallel_and_naive(
        n_larger in 0usize..20_001,
        n_smaller in 0usize..20_001,
        domain in 0u32..4,
        empty in 0u32..6,
        bits in 0u32..15,
        passes in 1u32..3,
        seed in 0u64..u64::MAX,
    ) {
        use radix_decluster::exec::par_partitioned_hash_join;
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let n = n_larger.max(n_smaller) as u64;
        let mut keys = |len: usize| -> Vec<u64> {
            match domain {
                0 => (0..len).map(|_| next()).collect(),
                1 => (0..len).map(|_| next() % (n / 7).max(1)).collect(),
                // The cross product grows as len² / 7: keep it small.
                2 => (0..len.min(700) as u64).map(|i| i % 7).collect(),
                _ => {
                    let pool = one_partition_keys();
                    (0..len.min(2_000)).map(|_| pool[next() as usize % pool.len()]).collect()
                }
            }
        };
        let larger = if empty == 0 { Vec::new() } else { keys(n_larger) };
        let smaller = if empty == 1 { Vec::new() } else { keys(n_smaller) };

        let spec = RadixClusterSpec::new(bits, passes);
        let sequential = partitioned_hash_join(&larger, &smaller, spec);
        for threads in [1usize, 2, 4] {
            let parallel =
                par_partitioned_hash_join(&larger, &smaller, spec, &ExecPolicy::with_threads(threads));
            prop_assert_eq!(parallel.larger(), sequential.larger());
            prop_assert_eq!(parallel.smaller(), sequential.smaller());
        }
        prop_assert_eq!(sequential.canonical_pairs(), naive_pairs(&larger, &smaller));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end: the planned DSM post-projection strategy matches the
    /// reference executor for arbitrary (small) workload shapes.
    #[test]
    fn dsm_post_projection_matches_reference(
        n in 16usize..800,
        pi in 1usize..4,
        seed in 0u64..1_000,
    ) {
        use radix_decluster::core::strategy::reference::{reference_rows, result_rows};
        use radix_decluster::workload::JoinWorkloadBuilder;

        let w = JoinWorkloadBuilder::equal(n, pi).seed(seed).build();
        let spec = QuerySpec::symmetric(pi);
        let params = CacheParams::tiny_for_tests();
        let out = DsmPostProjection::plan(&w.larger, &w.smaller, &params)
            .execute(&w.larger, &w.smaller, &spec, &params);
        prop_assert_eq!(result_rows(&out.result), reference_rows(&w.larger, &w.smaller, &spec));
    }
}
