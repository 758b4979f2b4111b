//! A bucket-chained hash table over a key column (MonetDB style).
//!
//! The build side is stored as two parallel arrays: `buckets[h]` holds the
//! head of the chain for hash bucket `h` and `next[i]` links entries with the
//! same bucket.  Probing therefore touches the bucket array randomly and the
//! chain entries (which are positions into the build relation) — this is the
//! random access pattern that Partitioned Hash-Join keeps inside the cache by
//! making each build partition small (§2.1).
//!
//! The bucket is the **top** `log2(nbuckets)` bits of [`hash_key`]: cluster
//! on the low `B` bits of the hash, bucket on bits the cluster never looked
//! at.  The low bits are identical inside a partition, so indexing by them
//! would fill one bucket in `2^B` and make every probe a `2^B`-long walk.

use crate::hash::hash_key;
use rdx_dsm::Oid;

/// Sentinel meaning "end of chain".
const NONE: u32 = u32::MAX;

/// A chained hash table mapping key values to the positions they occupy in the
/// build-side key column.
#[derive(Debug, Clone)]
pub struct HashTable {
    /// `64 − log2(nbuckets)`: the bucket of a key is `hash >> shift`.
    shift: u32,
    buckets: Vec<u32>,
    next: Vec<u32>,
}

impl HashTable {
    /// Builds a table over `keys`, with roughly one bucket per key (rounded up
    /// to a power of two).
    pub fn build(keys: &[u64]) -> Self {
        let mut table = HashTable {
            shift: 63,
            buckets: Vec::new(),
            next: Vec::new(),
        };
        table.rebuild(keys);
        table
    }

    /// Replaces the contents with a table over `keys`, exactly as
    /// [`HashTable::build`] would produce, reusing both arrays: one table
    /// serves every partition of a join.
    pub fn rebuild(&mut self, keys: &[u64]) {
        // At least two buckets, so the shift stays below 64: a 64-bit shift
        // is not a no-op.
        let nbuckets = keys.len().next_power_of_two().max(2);
        self.shift = 64 - nbuckets.trailing_zeros();
        self.buckets.clear();
        self.buckets.resize(nbuckets, NONE);
        self.next.clear();
        self.next.resize(keys.len(), NONE);
        for (i, &k) in keys.iter().enumerate() {
            let b = self.bucket(k);
            self.next[i] = self.buckets[b];
            self.buckets[b] = i as u32;
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (hash_key(key) >> self.shift) as usize
    }

    /// Iterates over the *positions* of all build-side entries whose key
    /// equals `key` (the caller re-checks equality against its key column, so
    /// hash collisions across different keys are filtered there).
    #[inline]
    pub fn probe(&self, key: u64) -> impl Iterator<Item = Oid> + '_ {
        let entry = |pos: u32| (pos != NONE).then_some(pos);
        std::iter::successors(entry(self.buckets[self.bucket(key)]), move |&pos| {
            entry(self.next[pos as usize])
        })
    }

    /// Convenience: probe and filter by actual key equality against the build
    /// key column, yielding matching build positions.
    #[inline]
    pub fn probe_matches<'a>(
        &'a self,
        key: u64,
        build_keys: &'a [u64],
    ) -> impl Iterator<Item = Oid> + 'a {
        self.probe(key)
            .filter(move |&pos| build_keys[pos as usize] == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{radix_cluster, RadixClusterSpec};

    /// The positions `probe_matches` yields for every key of `probes`.
    fn matches(table: &HashTable, build: &[u64], probes: &[u64]) -> Vec<Vec<Oid>> {
        probes
            .iter()
            .map(|&k| table.probe_matches(k, build).collect())
            .collect()
    }

    /// The regression the top-bit index exists for, on a count rather than a
    /// clock: inside a partition of a Radix-Cluster on `B` bits, chains stay
    /// short.  With the bucket taken from the low hash bits the mean chain
    /// is `2^B`.
    #[test]
    fn chains_stay_short_inside_radix_partitions() {
        let n = 1u64 << 16;
        let sequential: Vec<u64> = (0..n).collect();
        let random: Vec<u64> = (0..n).map(|i| hash_key(i ^ 0x5eed) >> 7).collect();
        for keys in [&sequential, &random] {
            for (bits, passes) in [(0, 1), (4, 1), (8, 1), (8, 2), (11, 1), (11, 2)] {
                let clustered = radix_cluster(keys, keys, RadixClusterSpec::new(bits, passes));
                let mut table = HashTable::build(&[]);
                let (mut steps, mut longest) = (0usize, 0usize);
                for p in 0..clustered.num_clusters() {
                    let part = clustered.cluster_keys(p);
                    table.rebuild(part);
                    for &k in part {
                        let chain = table.probe(k).count();
                        steps += chain;
                        longest = longest.max(chain);
                    }
                }
                let mean = steps as f64 / n as f64;
                assert!(mean <= 2.0, "B={bits} P={passes}: mean chain {mean}");
                assert!(longest <= 16, "B={bits} P={passes}: max chain {longest}");
            }
        }
    }

    #[test]
    fn single_bucket_tables_find_their_keys() {
        // 0, 1 and 2 keys all get the two-bucket floor, i.e. a shift of 63.
        assert_eq!(HashTable::build(&[]).probe(42).count(), 0);
        for keys in [vec![42u64], vec![42, 7], vec![42, 42]] {
            let table = HashTable::build(&keys);
            for &k in &keys {
                let hits: Vec<Oid> = table.probe_matches(k, &keys).collect();
                let expected: Vec<Oid> = (0..keys.len() as Oid)
                    .rev()
                    .filter(|&i| keys[i as usize] == k)
                    .collect();
                assert_eq!(hits, expected);
            }
            assert_eq!(table.probe_matches(8, &keys).count(), 0);
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
            assert_eq!(
                matches(&reused, &keys, &probes),
                matches(&fresh, &keys, &probes),
                "n={n}"
            );
        }
    }

    #[test]
    fn probe_finds_all_duplicates() {
        let keys = vec![7u64, 3, 7, 9, 7];
        let ht = HashTable::build(&keys);
        let mut hits: Vec<Oid> = ht.probe_matches(7, &keys).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2, 4]);
        assert_eq!(ht.probe_matches(3, &keys).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn probe_of_absent_key_is_empty() {
        let keys = vec![1u64, 2, 3];
        let ht = HashTable::build(&keys);
        assert_eq!(ht.probe_matches(99, &keys).count(), 0);
    }

    #[test]
    fn empty_table() {
        let ht = HashTable::build(&[]);
        assert_eq!(ht.probe(5).count(), 0);
    }

    #[test]
    fn all_positions_reachable() {
        let keys: Vec<u64> = (0..1000).map(|i| i % 100).collect();
        let ht = HashTable::build(&keys);
        let mut found = vec![false; 1000];
        for k in 0..100u64 {
            for pos in ht.probe_matches(k, &keys) {
                found[pos as usize] = true;
            }
        }
        assert!(found.iter().all(|&f| f));
    }
}
