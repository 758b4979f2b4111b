//! The integer hash applied to join keys before radix clustering.
//!
//! "In practice, though, a hash function should even be used on integer
//! values to ensure that all bits of the join attribute play a role in the
//! lower B bits used for clustering" (§2.2).  We use the splitmix64 finalizer:
//! cheap, invertible (so it cannot create collisions on 64-bit keys) and with
//! excellent low-bit avalanche, which is exactly what radix clustering on the
//! lower `B` bits needs.  Oids from dense domains are *not* hashed (§3.1):
//! "For oids, hashing is not applied as oids are integers already and not
//! skewed", which is also what makes Radix-Cluster on all significant bits a
//! Radix-Sort.
//!
//! Every consumer of [`hash_key`] after a Radix-Cluster follows one rule:
//! **cluster on the low `B` bits of the hash, bucket on bits the cluster
//! never looked at.**  The low bits are identical inside a partition, so the
//! join's [`crate::join::HashTable`] takes its bucket from the top bits.

/// Hashes a join-key value so that its low bits are well mixed.
#[inline]
pub fn hash_key(key: u64) -> u64 {
    // splitmix64 finalizer.
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Extracts the `bits`-wide radix field starting `ignore` bits from the bottom
/// of `value` — the "lower B radix bits … ignoring the lowermost I bits" used
/// throughout the clustering code.
#[inline]
pub fn radix_field(value: u64, bits: u32, ignore: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    debug_assert!(bits + ignore <= 64);
    (value >> ignore) & ((1u64 << bits) - 1)
}

/// The number of bits needed to distinguish all values of a dense domain of
/// `n` elements: `⌈log2(n)⌉` (0 for n ≤ 1).
#[inline]
pub fn significant_bits(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_is_deterministic_and_injective_on_a_sample() {
        let mut seen = HashSet::new();
        for k in 0..10_000u64 {
            assert_eq!(hash_key(k), hash_key(k));
            assert!(seen.insert(hash_key(k)), "collision at {k}");
        }
    }

    #[test]
    fn hash_spreads_low_bits_of_sequential_keys() {
        // Sequential keys must land roughly uniformly in 2^8 buckets.
        let buckets = 256u64;
        let mut counts = vec![0usize; buckets as usize];
        let n = 64_000u64;
        for k in 0..n {
            counts[(hash_key(k) & (buckets - 1)) as usize] += 1;
        }
        let expected = (n / buckets) as f64;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.5 * expected && (c as f64) < 1.5 * expected,
                "bucket {b} holds {c}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn radix_field_extracts_requested_bits() {
        let v = 0b1011_0110_1101u64;
        assert_eq!(radix_field(v, 4, 0), 0b1101);
        assert_eq!(radix_field(v, 4, 4), 0b0110);
        assert_eq!(radix_field(v, 3, 8), 0b011);
        assert_eq!(radix_field(v, 0, 5), 0);
    }

    #[test]
    fn significant_bits_of_dense_domains() {
        assert_eq!(significant_bits(0), 0);
        assert_eq!(significant_bits(1), 0);
        assert_eq!(significant_bits(2), 1);
        assert_eq!(significant_bits(1024), 10);
        assert_eq!(significant_bits(1025), 11);
        assert_eq!(significant_bits(10_000_000), 24);
    }
}
