//! The correctness oracle.
//!
//! Two checksums, two jobs:
//!
//! * [`truth_multiset`] is computed from the *generated relations alone*
//!   (a key → row map and the attribute columns), never from anything the
//!   program under test produced.  It is order-independent, because the
//!   planner is free to choose the result order.
//! * [`ordered`] is a fast order-sensitive checksum of result columns.  At
//!   set-up a solo in-process run of every distinct `(pair, π)` on a
//!   separate session is first checked against the ground truth, then its
//!   ordered checksum becomes the reference every timed result (in-process
//!   `ResultRelation` or wire `WireReport.columns`) must reproduce byte for
//!   byte.

use crate::common::base_config;
use radix_decluster::prelude::*;
use std::sync::Arc;

const PRIME: u64 = 0x0000_0100_0000_01b3;
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 31;
    x = x.wrapping_mul(0x7fb5_d329_728e_a185);
    x ^= x >> 27;
    x
}

/// Order-sensitive checksum over result columns, four independent lanes per
/// column so the multiply chain does not serialise (≈ 0.3 ns per value —
/// cheap enough to verify every timed result).
pub fn ordered<'a>(columns: impl IntoIterator<Item = &'a [i32]>) -> u64 {
    let mut h = SEED;
    for col in columns {
        h = avalanche(h ^ col.len() as u64);
        let mut lanes = [h, h ^ 0x9e37, h ^ 0x79b9, h ^ 0x7f4a];
        let quads = col.chunks_exact(4);
        let tail = quads.remainder();
        for q in quads {
            for (lane, &v) in lanes.iter_mut().zip(q) {
                *lane = (*lane ^ v as u32 as u64).wrapping_mul(PRIME);
            }
        }
        for (lane, &v) in lanes.iter_mut().zip(tail) {
            *lane = (*lane ^ v as u32 as u64).wrapping_mul(PRIME);
        }
        h = avalanche(
            lanes[0]
                ^ lanes[1].rotate_left(16)
                ^ lanes[2].rotate_left(32)
                ^ lanes[3].rotate_left(48),
        );
    }
    h
}

/// Folds one column into the per-row accumulators of a multiset checksum.
fn fold_column(acc: &mut [u64], values: impl Iterator<Item = i32>) {
    for (a, v) in acc.iter_mut().zip(values) {
        *a = (*a ^ v as u32 as u64).wrapping_mul(PRIME).rotate_left(23);
    }
}

fn sum_rows(acc: &[u64]) -> u64 {
    acc.iter().fold(0u64, |s, &a| s.wrapping_add(avalanche(a)))
}

/// Order-independent checksum of a materialised result: the wrapping sum
/// of one hash per row.
pub fn result_multiset(result: &ResultRelation) -> u64 {
    let mut acc = vec![SEED; result.cardinality()];
    for col in result.columns() {
        fold_column(&mut acc, col.as_slice().iter().copied());
    }
    sum_rows(&acc)
}

/// The checksum [`result_multiset`] must produce for
/// `SELECT larger.a₀..a_π, smaller.a₀..a_π WHERE larger.key = smaller.key`,
/// derived from the generated relations only.  Requires unique smaller
/// keys (hit rate 1, which every workload here fixes).
pub fn truth_multiset(larger: &DsmRelation, smaller: &DsmRelation, project: usize) -> u64 {
    let s_keys = smaller.key().as_slice();
    let domain = s_keys.iter().copied().max().map_or(0, |k| k as usize + 1);
    let mut row_of_key = vec![u32::MAX; domain];
    for (row, &k) in s_keys.iter().enumerate() {
        assert_eq!(row_of_key[k as usize], u32::MAX, "smaller keys are unique");
        row_of_key[k as usize] = row as u32;
    }
    // Every larger tuple has exactly one partner at hit rate 1.
    let partner: Vec<u32> = larger
        .key()
        .as_slice()
        .iter()
        .map(|&k| row_of_key[k as usize])
        .collect();
    assert!(partner.iter().all(|&p| p != u32::MAX), "hit rate is 1");
    let mut acc = vec![SEED; partner.len()];
    for c in 0..project {
        fold_column(&mut acc, larger.attr(c).as_slice().iter().copied());
    }
    for c in 0..project {
        let col = smaller.attr(c).as_slice();
        fold_column(&mut acc, partner.iter().map(|&p| col[p as usize]));
    }
    sum_rows(&acc)
}

/// Runs every `π` in `1..=width` of one pair solo on a fresh unbudgeted
/// session, checks each result against the ground truth, and returns the
/// ordered reference checksums (index `π − 1`).
pub fn reference_checksums(
    larger: &Arc<DsmRelation>,
    smaller: &Arc<DsmRelation>,
) -> Result<Vec<u64>, String> {
    let mut session = Session::new(ServeConfig {
        cache_bytes: 0,
        ..base_config()
    });
    let l = session.register_arc(Arc::clone(larger));
    let s = session.register_arc(Arc::clone(smaller));
    (1..=larger.width())
        .map(|project| {
            let report = session
                .query(l, s)
                .project(QuerySpec::symmetric(project))
                .run()
                .map_err(|e| format!("oracle run π={project} failed: {e}"))?;
            if report.result.cardinality() != larger.cardinality()
                || result_multiset(&report.result) != truth_multiset(larger, smaller, project)
            {
                return Err(format!(
                    "solo run π={project} over {} rows disagrees with the generated data",
                    larger.cardinality()
                ));
            }
            Ok(ordered(
                report.result.columns().iter().map(|c| c.as_slice()),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_checksum_sees_order_length_and_column_boundaries() {
        let a = ordered([&[1, 2, 3, 4, 5][..], &[6, 7][..]]);
        assert_eq!(a, ordered([&[1, 2, 3, 4, 5][..], &[6, 7][..]]));
        assert_ne!(a, ordered([&[1, 2, 3, 5, 4][..], &[6, 7][..]]));
        assert_ne!(a, ordered([&[1, 2, 3, 4][..], &[5, 6, 7][..]]));
        assert_ne!(a, ordered([&[1, 2, 3, 4, 5][..]]));
    }

    #[test]
    fn solo_runs_match_the_generated_data() {
        let w = workload::JoinWorkloadBuilder::equal(5_000, 3)
            .seed(3)
            .build();
        let (l, s) = (Arc::new(w.larger), Arc::new(w.smaller));
        let checks = reference_checksums(&l, &s).unwrap();
        assert_eq!(checks.len(), 3);
        // A corrupted relation no longer matches its own ground truth.
        assert_ne!(truth_multiset(&l, &s, 2), truth_multiset(&l, &s, 3));
    }
}
