//! Byte-identity golden for Partitioned Hash-Join.
//!
//! The checksums below were captured from the commit *before* the hash
//! table moved its bucket index from the low to the top hash bits.  Matches
//! of one key share a bucket under any bucket function and a chain is always
//! in reverse insertion order, so the emitted [`JoinIndex`] — both columns,
//! in order — must not depend on which bits pick the bucket.  Any change to
//! the join kernels that moves one of these values has changed what every
//! downstream cluster / decluster phase sees.

use radix_decluster::core::join::partitioned_hash_join;
use radix_decluster::exec::{par_partitioned_hash_join, ExecPolicy};
use radix_decluster::prelude::{JoinIndex, RadixClusterSpec};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Every key occurs 30 × 20 times: long equal-key runs inside one chain.
fn duplicate_heavy() -> (Vec<u64>, Vec<u64>) {
    let larger = (0..3_000u64).map(|i| i % 100).collect();
    let smaller = (0..2_000u64).map(|i| i % 100).collect();
    (larger, smaller)
}

/// Key frequencies fall off roughly as 1/k: a few hot keys, a long tail.
fn skewed() -> (Vec<u64>, Vec<u64>) {
    let mut state = 0x5eed;
    let mut draw = |n: usize| -> Vec<u64> {
        (0..n)
            .map(|_| {
                let domain = 1 + lcg(&mut state) % 512;
                lcg(&mut state) % domain
            })
            .collect()
    };
    (draw(8_000), draw(4_000))
}

/// Two independent shuffles of `0..n`: every key matches exactly once.
fn permutation() -> (Vec<u64>, Vec<u64>) {
    let mut state = 0xfeed;
    let mut shuffled = |n: u64| -> Vec<u64> {
        let mut keys: Vec<u64> = (0..n).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, (lcg(&mut state) % (i as u64 + 1)) as usize);
        }
        keys
    };
    (shuffled(50_000), shuffled(50_000))
}

/// Order-sensitive FNV-1a over both oid columns, pair by pair.
fn checksum(ji: &JoinIndex) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ ji.len() as u64;
    for (l, s) in ji.iter() {
        h = (h ^ l as u64).wrapping_mul(PRIME);
        h = (h ^ s as u64).wrapping_mul(PRIME);
    }
    h
}

const SPECS: [(u32, u32); 3] = [(0, 1), (3, 1), (9, 2)];

/// `GOLDEN[input][spec]`, inputs in the order `duplicate_heavy`, `skewed`,
/// `permutation`, specs in the order of [`SPECS`].
const GOLDEN: [[u64; 3]; 3] = [
    [0xe2a0315e3f947b95, 0x6db9ff8d5b565495, 0x0152e3258b11f6b5],
    [0xf72e6540c52763af, 0xefd602321a9e17eb, 0xeb68d989aec326e7],
    [0x6f8489bfcd01e5f9, 0x0a796323fcee8205, 0xb77fc9095ba609a5],
];

#[test]
fn join_index_is_byte_identical_to_the_frozen_parent() {
    let inputs = [duplicate_heavy(), skewed(), permutation()];
    for (input, (larger, smaller)) in inputs.iter().enumerate() {
        for (s, &(bits, passes)) in SPECS.iter().enumerate() {
            let spec = RadixClusterSpec::new(bits, passes);
            let sequential = partitioned_hash_join(larger, smaller, spec);
            assert_eq!(
                checksum(&sequential),
                GOLDEN[input][s],
                "sequential, input {input}, B={bits} P={passes}"
            );
            for threads in [1usize, 2, 4] {
                let parallel = par_partitioned_hash_join(
                    larger,
                    smaller,
                    spec,
                    &ExecPolicy::with_threads(threads),
                );
                assert_eq!(
                    checksum(&parallel),
                    GOLDEN[input][s],
                    "{threads} threads, input {input}, B={bits} P={passes}"
                );
            }
        }
    }
}
