//! A bucketized hash table over a key column: `next_power_of_two(n) / 2`
//! buckets of [`SLOTS`] inline `(key, build-position)` slots, so a probe
//! compares one bucket's slots in a fixed trip, with no chain to walk and no
//! re-check against the build column.  The rare key that finds its bucket
//! full goes to the bucket's overflow chain.
//!
//! The bucket is the **top** `log2(nbuckets)` bits of [`hash_key`]: inside a
//! Radix-Cluster partition the low bits are identical, so indexing by them
//! would fill one bucket in `2^B`.  Matches of one key come out in **reverse
//! insertion order**, as from a chained table.

use super::{JoinColumns, JoinSide};
use crate::hash::hash_key;
use rdx_dsm::Oid;

/// Inline `(key, position)` slots per bucket.
pub const SLOTS: usize = 4;

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    keys: [u64; SLOTS],
    positions: [u32; SLOTS],
    /// Live slots, `0..=SLOTS`.
    fill: u32,
    /// 1 + index of the newest overflow entry, or 0 for none.
    overflow: u32,
}

/// An entry that found its bucket full; `older` links like a bucket's.
#[derive(Debug, Clone, Copy)]
struct Overflow {
    key: u64,
    pos: u32,
    older: u32,
}

/// A bucketized hash table mapping key values to the positions they occupy
/// in the build-side key column.
#[derive(Debug, Clone, Default)]
pub struct HashTable {
    /// `64 − log2(nbuckets)`: the bucket of a key is `hash >> shift`.
    shift: u32,
    buckets: Vec<Bucket>,
    overflow: Vec<Overflow>,
}

impl HashTable {
    /// Builds a table over `keys`.
    pub fn build(keys: &[u64]) -> Self {
        let mut table = Self::default();
        table.rebuild(keys);
        table
    }

    /// Replaces the contents with a table over `keys`, exactly as
    /// [`HashTable::build`] would produce, reusing both arrays: one table
    /// serves every partition of a join.
    pub fn rebuild(&mut self, keys: &[u64]) {
        // At least two buckets, so the shift stays below 64: a 64-bit shift
        // is not a no-op.
        let nbuckets = (keys.len().next_power_of_two() / 2).max(2);
        self.shift = 64 - nbuckets.trailing_zeros();
        self.buckets.clear();
        self.buckets.resize(nbuckets, Bucket::default());
        self.overflow.clear();
        for (pos, &key) in (0u32..).zip(keys) {
            let bucket = &mut self.buckets[(hash_key(key) >> self.shift) as usize];
            let (fill, older) = (bucket.fill as usize, bucket.overflow);
            if fill < SLOTS {
                (bucket.keys[fill], bucket.positions[fill]) = (key, pos);
                bucket.fill += 1;
            } else {
                self.overflow.push(Overflow { key, pos, older });
                bucket.overflow = self.overflow.len() as u32;
            }
        }
    }

    fn bucket(&self, key: u64) -> &Bucket {
        &self.buckets[(hash_key(key) >> self.shift) as usize]
    }

    /// The overflow entries of `bucket`, newest first.
    fn overflow_of(&self, bucket: &Bucket) -> impl Iterator<Item = &Overflow> + '_ {
        let entry = |link: u32| link.checked_sub(1).map(|i| &self.overflow[i as usize]);
        std::iter::successors(entry(bucket.overflow), move |e| entry(e.older))
    }

    /// The build positions holding `key`, in reverse insertion order.
    pub fn matches(&self, key: u64) -> impl Iterator<Item = Oid> + '_ {
        let bucket = self.bucket(key);
        let spilled = self.overflow_of(bucket).filter(move |e| e.key == key);
        let slots = (0..bucket.fill as usize).rev();
        let inline = slots.filter(move |&s| bucket.keys[s] == key);
        (spilled.map(|e| e.pos)).chain(inline.map(|s| bucket.positions[s]))
    }

    /// Entries a probe for `key` examines: its bucket plus each overflow walked.
    pub fn entries_examined(&self, key: u64) -> usize {
        1 + self.overflow_of(self.bucket(key)).count()
    }

    /// The simple Hash-Join of one pair of partitions: rebuilds the table
    /// over the build keys, probes it with every probe `(key, oid)` in order
    /// and appends `(oid, build_oid)` per match.  Branch-free: all [`SLOTS`]
    /// are appended, matching ones first, and the length is cut back by the
    /// number that did not match.
    pub(super) fn join_into(&mut self, probe: JoinSide, build: JoinSide, out: &mut JoinColumns) {
        let ((probe_keys, probe_oids), (build_keys, build_oids)) = (probe, build);
        let (out_probe, out_build) = out;
        // Also what keeps `build_oids[0]`, read for an empty slot, in bounds.
        if probe_keys.is_empty() || build_keys.is_empty() {
            return;
        }
        self.rebuild(build_keys);
        out_probe.reserve(probe_keys.len() + SLOTS);
        out_build.reserve(probe_keys.len() + SLOTS);
        for (&key, &oid) in probe_keys.iter().zip(probe_oids) {
            let bucket = self.bucket(key);
            for e in self.overflow_of(bucket).filter(|e| e.key == key) {
                out_probe.push(oid);
                out_build.push(build_oids[e.pos as usize]);
            }
            let len = out_probe.len();
            out_probe.extend_from_slice(&[oid; SLOTS]);
            out_build.extend_from_slice(&[0; SLOTS]);
            let (dst, mut hits) = (&mut out_build[len..], 0);
            for s in (0..SLOTS).rev() {
                dst[hits] = build_oids[bucket.positions[s] as usize];
                hits += usize::from((s < bucket.fill as usize) & (bucket.keys[s] == key));
            }
            out_probe.truncate(len + hits);
            out_build.truncate(len + hits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{radix_cluster, RadixClusterSpec};

    /// The positions `matches` yields for every key of `probes`.
    fn matches(table: &HashTable, probes: &[u64]) -> Vec<Vec<Oid>> {
        probes.iter().map(|&k| table.matches(k).collect()).collect()
    }

    /// `count` distinct keys whose hashes share their top `top_bits` bits,
    /// i.e. one bucket of any table with `2^top_bits` buckets.
    fn same_bucket_keys(count: usize, top_bits: u32) -> Vec<u64> {
        let bucket = hash_key(0) >> (64 - top_bits);
        (0u64..)
            .filter(|&k| hash_key(k) >> (64 - top_bits) == bucket)
            .take(count)
            .collect()
    }

    /// The regression the top-bit index exists for, on a count rather than a
    /// clock: inside a partition of a Radix-Cluster on `B` bits, a probe
    /// examines about one table entry.  With the bucket taken from the low
    /// hash bits only one bucket in `2^B` is used and every probe walks its
    /// overflow chain.
    #[test]
    fn probes_examine_few_entries_inside_radix_partitions() {
        let n = 1u64 << 16;
        let sequential: Vec<u64> = (0..n).collect();
        let random: Vec<u64> = (0..n).map(|i| hash_key(i ^ 0x5eed) >> 7).collect();
        for keys in [&sequential, &random] {
            for (bits, passes) in [(0, 1), (4, 1), (8, 1), (8, 2), (11, 1), (11, 2)] {
                let clustered = radix_cluster(keys, keys, RadixClusterSpec::new(bits, passes));
                let mut table = HashTable::build(&[]);
                let (mut examined, mut most) = (0usize, 0usize);
                for p in 0..clustered.num_clusters() {
                    let part = clustered.cluster_keys(p);
                    table.rebuild(part);
                    for &k in part {
                        let e = table.entries_examined(k);
                        examined += e;
                        most = most.max(e);
                    }
                }
                let mean = examined as f64 / n as f64;
                assert!(mean <= 2.0, "B={bits} P={passes}: mean {mean} entries");
                assert!(most <= 16, "B={bits} P={passes}: max {most} entries");
            }
        }
    }

    /// One bucket holding `SLOTS + 3` entries with duplicates: the four
    /// slots fill in insertion order, the rest overflow, and both `matches`
    /// and the branch-free probe emit in reverse insertion order.
    #[test]
    fn a_full_bucket_overflows_and_emits_in_reverse_insertion_order() {
        // Seven keys → four buckets, indexed by the top two hash bits.
        let [a, b, c, d, absent]: [u64; 5] = same_bucket_keys(5, 2).try_into().unwrap();
        let build = [a, b, a, c, a, d, b];
        assert_eq!(build.len(), SLOTS + 3);
        let table = HashTable::build(&build);
        assert_eq!(table.buckets.len(), 4);
        assert_eq!(table.overflow.len(), 3);
        assert_eq!(
            matches(&table, &[a, b, c, d, absent]),
            [vec![4, 2, 0], vec![6, 1], vec![3], vec![5], vec![]]
        );
        assert_eq!(table.entries_examined(a), 1 + 3);

        let build_oids: Vec<Oid> = (100..107).collect();
        let mut table = HashTable::default();
        let mut out = (vec![9], vec![99]);
        let probes = [a, b, d, absent];
        table.join_into(
            (&probes, &[10, 11, 12, 13]),
            (&build, &build_oids),
            &mut out,
        );
        assert_eq!(out.0, [9, 10, 10, 10, 11, 11, 12]);
        assert_eq!(out.1, [99, 104, 102, 100, 106, 101, 105]);

        // Far more matches than probes: the output grows past its sizing.
        let mut out = (Vec::new(), Vec::new());
        table.join_into((&[a; 50], &[7; 50]), (&build, &build_oids), &mut out);
        assert_eq!(out.0, vec![7; 150]);
        assert_eq!(out.1, [104, 102, 100].repeat(50));
    }

    #[test]
    fn the_cost_model_prices_this_bucket() {
        assert_eq!(
            std::mem::size_of::<Bucket>(),
            rdx_cost::algorithms::HASH_BUCKET_BYTES
        );
    }

    #[test]
    fn single_bucket_tables_find_their_keys() {
        // 0, 1 and 2 keys all get the two-bucket floor, i.e. a shift of 63.
        assert_eq!(HashTable::build(&[]).matches(42).count(), 0);
        for keys in [vec![42u64], vec![42, 7], vec![42, 42]] {
            let table = HashTable::build(&keys);
            for &k in &keys {
                let hits: Vec<Oid> = table.matches(k).collect();
                let expected: Vec<Oid> = (0..keys.len() as Oid)
                    .rev()
                    .filter(|&i| keys[i as usize] == k)
                    .collect();
                assert_eq!(hits, expected);
            }
            assert_eq!(table.matches(8).count(), 0);
        }
    }

    #[test]
    fn rebuild_returns_what_a_fresh_build_returns() {
        let probes: Vec<u64> = (0..600).collect();
        let mut reused = HashTable::build(&[]);
        for n in [500u64, 37, 2, 0, 1, 300, 512, 3] {
            let keys: Vec<u64> = (0..n).map(|i| hash_key(i) % 400).collect();
            reused.rebuild(&keys);
            let fresh = HashTable::build(&keys);
            assert_eq!(matches(&reused, &probes), matches(&fresh, &probes), "n={n}");
        }
    }

    #[test]
    fn probe_finds_all_duplicates() {
        let keys = vec![7u64, 3, 7, 9, 7];
        let ht = HashTable::build(&keys);
        assert_eq!(matches(&ht, &[7, 3, 99]), [vec![4, 2, 0], vec![1], vec![]]);
    }

    #[test]
    fn all_positions_reachable() {
        let keys: Vec<u64> = (0..1000).map(|i| i % 100).collect();
        let ht = HashTable::build(&keys);
        let mut found = vec![false; 1000];
        for k in 0..100u64 {
            for pos in ht.matches(k) {
                found[pos as usize] = true;
            }
        }
        assert!(found.iter().all(|&f| f));
    }
}
