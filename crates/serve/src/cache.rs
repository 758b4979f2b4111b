//! The **clustered-join-index cache**: cross-query reuse of the expensive
//! prepared prefix (join + reorder + second-side radix-cluster) — Fig. 4's
//! `CLUST_SMALLER`/`CLUST_RESULT` arrays, `O(N)` kernel work to build.  The
//! same join over the same relations arrives again and again (zipfian
//! popularity), so the [`PreparedProjection`] products are kept under a byte
//! budget, keyed by `(relation ids, projection codes, cluster spec)` and
//! ranked by use count with dynamic aging — a pure function of the lookup
//! sequence, no wall clock:
//!
//! 1. **priority** = `inflation + uses(key)`, refreshed on every lookup of
//!    the key, hit or miss; `uses` survives eviction and `clear()`;
//! 2. **victims** go in ascending `(priority, last touch)` order, found in
//!    one sorted pass, and `inflation` rises to each victim's priority;
//! 3. **admission guard**: a newcomer that could only enter by evicting an
//!    entry ranked above it is served but not retained (`bypassed`), and
//!    `inflation += 1` so that a stale entry cannot block for ever.
//!
//! On the benchmark's 12-tenant zipf mix (1 500 lookups) this hits 0.584
//! with 292 evictions; recency ranking over 16 B/row prefixes hit 0.365
//! with 952.  Entries are `Arc`-shared: a hit hands the running query the
//! same immutable prefix any number of concurrent runs may stream from, and
//! eviction only drops the cache's reference — in-flight runs keep theirs.

use crate::registry::RelationId;
use rdx_core::cluster::RadixClusterSpec;
use rdx_core::strategy::DsmPostProjection;
use rdx_exec::PreparedProjection;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: *what data* (relation ids), *which order* (projection codes —
/// the first-side code fixes the result order the prefix encodes) and
/// *which clustering* ([`RadixClusterSpec`] — the granularity the second
/// side was radix-clustered to).  Requests agreeing on all three can share
/// one prepared prefix byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterKey {
    /// The larger (probing) relation.
    pub larger: RelationId,
    /// The smaller (build) relation.
    pub smaller: RelationId,
    /// The projection codes the prefix was prepared for.
    pub plan: DsmPostProjection,
    /// The second-side clustering configuration.
    pub cluster: RadixClusterSpec,
}

/// One key ever looked up; `resident` = the prefix and its charged bytes.
#[derive(Debug, Default)]
struct Slot {
    resident: Option<(Arc<PreparedProjection>, usize)>,
    uses: u64,
    priority: u64,
    last_used: u64,
}

/// Hit/miss/eviction counters, readable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the prefix.
    pub misses: u64,
    /// Misses whose prefix was built and served but not retained: larger
    /// than the whole budget, or out-ranked by what it would have evicted.
    pub bypassed: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: usize,
}

/// A byte-budgeted cache of prepared prefixes, ranked as the module docs say.
#[derive(Debug)]
pub struct ClusterCache {
    capacity_bytes: usize,
    slots: HashMap<ClusterKey, Slot>,
    tick: u64,
    inflation: u64,
    stats: CacheStats,
}

impl ClusterCache {
    /// A cache holding at most `capacity_bytes` of prepared prefixes.
    /// Zero disables caching entirely (every lookup is a miss and nothing
    /// is retained) — the serving layer's "cold" mode.
    pub fn new(capacity_bytes: usize) -> Self {
        ClusterCache {
            capacity_bytes,
            slots: HashMap::new(),
            tick: 0,
            inflation: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.slots.values().filter(|s| s.resident.is_some()).count()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the prefix for `key`, building it with `build` on a miss.
    /// The boolean is `true` on a hit.
    ///
    /// A freshly built prefix is retained only if it fits the byte budget
    /// and out-ranks nothing it would evict; otherwise it is returned to the
    /// caller and counted as `bypassed`, so neither one giant join nor a
    /// sweep of one-off joins can wipe the cache for nothing.
    pub fn get_or_prepare(
        &mut self,
        key: ClusterKey,
        build: impl FnOnce() -> PreparedProjection,
    ) -> (Arc<PreparedProjection>, bool) {
        self.tick += 1;
        let slot = self.slots.entry(key).or_default();
        slot.uses += 1;
        slot.priority = self.inflation + slot.uses;
        slot.last_used = self.tick;
        if let Some((prepared, _)) = &slot.resident {
            self.stats.hits += 1;
            return (Arc::clone(prepared), true);
        }
        let priority = slot.priority;
        self.stats.misses += 1;
        let prepared = Arc::new(build());
        let bytes = prepared.resident_bytes();
        if bytes <= self.capacity_bytes && self.make_room(bytes, priority) {
            self.stats.resident_bytes += bytes;
            self.slots.entry(key).or_default().resident = Some((Arc::clone(&prepared), bytes));
        } else {
            self.stats.bypassed += 1;
        }
        (prepared, false)
    }

    /// Evicts residents in ascending `(priority, last touch)` order until
    /// `incoming` more bytes fit, raising `inflation` to each victim's
    /// priority.  Refuses (`false`, nothing evicted, `inflation += 1`) when a
    /// victim would out-rank the newcomer's `priority`.
    fn make_room(&mut self, incoming: usize, priority: u64) -> bool {
        let over = (self.stats.resident_bytes + incoming).saturating_sub(self.capacity_bytes);
        let mut ranked: Vec<_> = (self.slots.iter())
            .filter_map(|(k, s)| Some((s.priority, s.last_used, s.resident.as_ref()?.1, *k)))
            .collect();
        ranked.sort_unstable_by_key(|&(priority, last_used, ..)| (priority, last_used));
        let mut freed = 0;
        ranked.retain(|&(_, _, bytes, _)| {
            let needed = freed < over;
            freed += bytes;
            needed
        });
        if ranked.last().is_some_and(|victim| victim.0 > priority) {
            self.inflation += 1;
            return false;
        }
        for (victim_priority, _, bytes, key) in ranked {
            self.slots.entry(key).or_default().resident = None;
            self.stats.resident_bytes -= bytes;
            self.stats.evictions += 1;
            self.inflation = self.inflation.max(victim_priority);
        }
        true
    }

    /// Evicts **everything** — the fault-injection hook behind
    /// [`rdx_core::fault::FaultAction::EvictCache`], and a sharp tool for
    /// operators shedding memory.  Counts each dropped entry as an eviction;
    /// use counts are kept, so the hot keys re-enter at their old rank.
    /// In-flight runs holding `Arc`s to a dropped prefix keep streaming from
    /// it unaffected; only the cache's references are released.
    pub fn clear(&mut self) {
        for slot in self.slots.values_mut() {
            self.stats.evictions += u64::from(slot.resident.take().is_some());
        }
        self.stats.resident_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_cache::CacheParams;
    use rdx_core::strategy::{ProjectionCode, SecondSideCode};
    use rdx_exec::{ExecPolicy, ProjectionPipeline};
    use rdx_workload::JoinWorkloadBuilder;

    fn prepared_for(n: usize, seed: u64) -> PreparedProjection {
        let w = JoinWorkloadBuilder::equal(n, 1).seed(seed).build();
        let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        ));
        pipeline.prepare(
            &w.larger,
            &w.smaller,
            &CacheParams::tiny_for_tests(),
            &ExecPolicy::sequential(),
        )
    }

    fn key(a: u32, b: u32) -> ClusterKey {
        ClusterKey {
            larger: RelationId(a),
            smaller: RelationId(b),
            plan: DsmPostProjection::with_codes(
                ProjectionCode::PartialCluster,
                SecondSideCode::Decluster,
            ),
            cluster: RadixClusterSpec::single_pass(3),
        }
    }

    #[test]
    fn hit_after_miss_shares_the_same_prefix() {
        let mut cache = ClusterCache::new(1 << 20);
        let (first, hit) = cache.get_or_prepare(key(0, 1), || prepared_for(256, 1));
        assert!(!hit);
        let (second, hit) = cache.get_or_prepare(key(0, 1), || panic!("must not rebuild"));
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_bytes, first.resident_bytes());
    }

    #[test]
    fn eviction_respects_byte_budget_and_takes_the_least_used() {
        // Budget sized for roughly two of the three prefixes.
        let one = prepared_for(512, 2).resident_bytes();
        let mut cache = ClusterCache::new(2 * one + one / 2);
        cache.get_or_prepare(key(0, 1), || prepared_for(512, 2));
        cache.get_or_prepare(key(2, 3), || prepared_for(512, 3));
        // Use the first again so the second ranks lowest.
        cache.get_or_prepare(key(0, 1), || panic!("hit expected"));
        cache.get_or_prepare(key(4, 5), || prepared_for(512, 4));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().resident_bytes <= cache.capacity_bytes());
        // The touched entry survived; the untouched one was evicted.
        cache.get_or_prepare(key(0, 1), || panic!("victim was wrong"));
        let (_, hit) = cache.get_or_prepare(key(2, 3), || prepared_for(512, 3));
        assert!(!hit);
    }

    #[test]
    fn oversized_entries_are_served_but_never_retained() {
        let mut cache = ClusterCache::new(8);
        let (prepared, hit) = cache.get_or_prepare(key(0, 1), || prepared_for(512, 5));
        assert!(!hit);
        assert!(prepared.resident_bytes() > 8);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!((cache.stats().misses, cache.stats().bypassed), (1, 1));
        // Zero capacity = caching disabled.
        let mut off = ClusterCache::new(0);
        off.get_or_prepare(key(0, 1), || prepared_for(256, 6));
        let (_, hit) = off.get_or_prepare(key(0, 1), || prepared_for(256, 6));
        assert!(!hit);
        assert_eq!(off.stats().misses, 2);
    }

    #[test]
    fn clear_evicts_everything_but_live_arcs_survive() {
        let mut cache = ClusterCache::new(1 << 20);
        let (held, _) = cache.get_or_prepare(key(0, 1), || prepared_for(128, 8));
        cache.get_or_prepare(key(2, 3), || prepared_for(128, 9));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.stats().resident_bytes, 0);
        // The held Arc still streams; the next lookup rebuilds.
        assert!(held.result_rows() > 0);
        let (_, hit) = cache.get_or_prepare(key(0, 1), || prepared_for(128, 8));
        assert!(!hit);
        // Use counts survive `clear`: this was the key's second lookup.
        assert_eq!(cache.slots[&key(0, 1)].uses, 2);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let mut cache = ClusterCache::new(1 << 20);
        cache.get_or_prepare(key(0, 1), || prepared_for(128, 7));
        // Same relations, different codes → different prefix.
        let other = ClusterKey {
            plan: DsmPostProjection::with_codes(
                ProjectionCode::Unsorted,
                SecondSideCode::Decluster,
            ),
            ..key(0, 1)
        };
        let (_, hit) = cache.get_or_prepare(other, || prepared_for(128, 7));
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hot_entry_survives_a_sweep_of_one_off_entries() {
        // The hot prefix takes 60 % of the budget, every one-off 30 %: one
        // fits beside it, two do not.  Under recency ranking the second
        // one-off already evicts the (least recently used) hot entry.
        let hot = prepared_for(600, 1);
        let one_off = prepared_for(300, 2);
        let mut cache = ClusterCache::new(hot.resident_bytes() * 10 / 6);
        assert!(hot.resident_bytes() + 2 * one_off.resident_bytes() > cache.capacity_bytes());
        for _ in 0..20 {
            cache.get_or_prepare(key(0, 1), || hot.clone());
        }
        for i in 0..30 {
            cache.get_or_prepare(key(100 + i, 0), || one_off.clone());
        }
        // The one-offs only ever displaced each other.
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.bypassed), (29, 0));
        let (_, hit) = cache.get_or_prepare(key(0, 1), || panic!("hot entry was evicted"));
        assert!(hit);
    }

    #[test]
    fn stale_entry_blocks_for_at_most_its_use_count_in_refused_lookups() {
        // An entry used `USES` times and never again holds 60 % of the
        // budget; every later lookup is a distinct one-off of 50 % that
        // could only enter by evicting it.  Each refusal raises `inflation`
        // by one, so the `USES`-th one-off ranks level with the stale entry
        // and takes its place.  Without that bump every one-off would rank
        // 1 < `USES` for ever and the stale entry would never leave.
        const USES: u64 = 8;
        let stale = prepared_for(600, 1);
        let one_off = prepared_for(500, 2);
        let mut cache = ClusterCache::new(stale.resident_bytes() * 10 / 6);
        for _ in 0..USES {
            cache.get_or_prepare(key(0, 1), || stale.clone());
        }
        for i in 1..=USES {
            assert!(cache.slots[&key(0, 1)].resident.is_some(), "lookup {i}");
            assert_eq!(cache.stats().bypassed, i - 1);
            cache.get_or_prepare(key(100 + i as u32, 0), || one_off.clone());
        }
        assert!(cache.slots[&key(0, 1)].resident.is_none());
        let stats = cache.stats();
        assert_eq!((stats.bypassed, stats.evictions), (USES - 1, 1));
        assert_eq!(stats.resident_bytes, one_off.resident_bytes());
    }

    /// Twelve prefixes in the benchmark's size ratios (hottest = largest).
    const TENANT_ROWS: [usize; 12] = [2000, 1500, 1000, 800, 600, 400, 300, 200, 150, 100, 80, 60];

    #[test]
    fn zipf_replay_is_deterministic_and_beats_the_hit_share_floor() {
        let prefixes: Vec<PreparedProjection> = (TENANT_ROWS.iter().zip(1..))
            .map(|(&rows, seed)| prepared_for(rows, seed))
            .collect();
        let total: usize = prefixes.iter().map(|p| p.resident_bytes()).sum();
        let sequence = rdx_workload::Zipf::new(12, 1.0).expectation_sequence(600, 11);
        let replay = || {
            let mut cache = ClusterCache::new(total / 2);
            for &t in &sequence {
                cache.get_or_prepare(key(t as u32, 0), || prefixes[t].clone());
            }
            cache.stats()
        };
        let stats = replay();
        assert_eq!(stats, replay());
        assert_eq!(stats.hits + stats.misses, 600);
        // Floor 0.50 (this rule: 306 hits); recency ranking scores 230.
        assert!(stats.hits * 2 >= 600, "{stats:?}");
        assert!(stats.resident_bytes <= total / 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random lookup/`clear` scripts over six keys of different sizes:
        /// the byte accounting is exact and within budget after every
        /// operation, a zero budget retains nothing, and every `Arc` handed
        /// out stays usable whatever was evicted since.
        #[test]
        fn accounting_is_exact_under_random_scripts(
            script in proptest::collection::vec(0usize..7, 1..80),
            capacity_rows in 0usize..1_200,
        ) {
            let prefixes: Vec<PreparedProjection> = (TENANT_ROWS[6..].iter().zip(1..))
                .map(|(&rows, seed)| prepared_for(rows, seed))
                .collect();
            let mut cache = ClusterCache::new(capacity_rows * 12);
            let mut handed_out = Vec::new();
            for op in script {
                match prefixes.get(op) {
                    Some(prefix) => {
                        let (arc, _) = cache.get_or_prepare(key(op as u32, 0), || prefix.clone());
                        handed_out.push((arc, prefix.result_rows()));
                    }
                    None => cache.clear(),
                }
                let charged: usize = (cache.slots.values())
                    .filter_map(|s| Some(s.resident.as_ref()?.1))
                    .sum();
                proptest::prop_assert_eq!(cache.stats().resident_bytes, charged);
                proptest::prop_assert!(charged <= cache.capacity_bytes());
                proptest::prop_assert!(capacity_rows > 0 || cache.is_empty());
            }
            let stats = cache.stats();
            proptest::prop_assert_eq!(stats.hits + stats.misses, handed_out.len() as u64);
            for (arc, rows) in &handed_out {
                proptest::prop_assert_eq!(arc.result_rows(), *rows);
            }
        }
    }
}
