//! The zero-steady-state-allocation scatter engine behind Radix-Cluster.
//!
//! The original `cluster_impl` paid large constant factors per call: it
//! hashed every key **twice per pass** (once for the histogram, once for the
//! scatter), made four full-size buffer copies before the first pass
//! (`to_vec` of both inputs plus `clone` of both flip buffers — data the
//! first scatter pass fully overwrites), and allocated per-segment cursor
//! vectors inside the pass loop.  Layers that cluster per chunk or per query
//! (the streaming pipeline, the serving layer) multiplied those costs.
//!
//! This module replaces that with an explicit **scratch arena**:
//! [`ClusterScratch`] owns every working buffer a multi-pass radix scatter
//! needs — the ping-pong key/payload buffers, the histogram and cursor
//! arrays (hoisted out of the segment loop), the segment-boundary lists, and
//! a memoized per-pass radix-value buffer so each key is hashed **once** per
//! pass.  Reusing one scratch and one output across calls makes the steady
//! state allocation-free.
//!
//! Every pass is the paper's plain scatter, one output cursor per cluster.
//! A fan-out too wide for one pass gets more passes (§2.1), never a second
//! scatter loop: [`super::pass_fanout`] bounds each planned pass and
//! [`RadixClusterSpec::planned`] splits the bits.  The output is
//! **byte-identical** to the original kernel, since every pass is a stable
//! counting sort.

use super::spec::RadixClusterSpec;
use super::Clustered;
use rdx_cache::{AddressSpace, CacheParams, EventCounts, MemorySystem, Probe, SimProbe};
use rdx_dsm::Oid;

/// The §3.1 `optimal_partial` clustering under `params`: bits from the
/// fits-in-cache rule, passes from the one pass rule
/// ([`RadixClusterSpec::planned`]).  The single source of truth shared by
/// the planners (which price it), the pipeline's prepare phase (which runs
/// it) and the serving layer's cache keys (which name it), so the three can
/// never drift apart.
///
/// One more rule rides along: `bits` is raised to at least
/// `significant_bits(column_tuples) − 16`, so no cluster spans more than
/// `2^16` oids and every clustering it plans packs into [`PackedOids`].  At
/// 4-byte values it binds only for caches above 128 KB.
///
/// [`PackedOids`]: super::PackedOids
pub fn plan_partial_cluster(
    column_tuples: usize,
    value_width: usize,
    params: &CacheParams,
) -> RadixClusterSpec {
    let significant = crate::hash::significant_bits(column_tuples);
    let bits =
        RadixClusterSpec::optimal_partial(column_tuples, value_width, params.cache_capacity())
            .bits
            .max(significant.saturating_sub(super::PACKED_LOW_BITS));
    let fanout = super::pass_fanout(params);
    RadixClusterSpec::planned(bits, significant.saturating_sub(bits), fanout)
}

/// [`ClusterScratch::cluster_into`] of `(oid, payload)` pairs on the
/// unhashed oid under a [`SimProbe`] charging `mem`, every array the
/// engine touches laid out in a fresh address space in probe-id order.
/// Returns the clustering and the simulated events: the Fig. 9a miss
/// counts of the shipped loop.
pub fn simulate_cluster<P: Copy>(
    oids: &[Oid],
    payloads: &[P],
    spec: RadixClusterSpec,
    mem: &mut MemorySystem,
) -> (Clustered<Oid, P>, EventCounts) {
    let (n, fanout) = (oids.len().max(1), 1usize << spec.bits);
    let (key, pay) = (std::mem::size_of::<Oid>(), std::mem::size_of::<P>().max(1));
    let elems = [n, n, n, n, n, n, n, fanout, fanout, fanout + 1, fanout + 1];
    let widths = [key, pay, key, pay, key, pay, 4, 8, 8, 8, 8];
    let mut space = AddressSpace::new();
    let regions: Vec<_> = (elems.into_iter().zip(widths))
        .map(|(elems, width)| space.alloc(elems, width))
        .collect();
    let mut probe = SimProbe::new(mem, &regions);
    let mut clustered = Clustered::default();
    ClusterScratch::new().cluster_into(
        oids,
        payloads,
        spec,
        |&o| o as u64,
        &mut clustered,
        &mut probe,
    );
    (clustered, probe.counts())
}

/// The reusable working memory of the multi-pass radix scatter: the ping
/// key/payload buffers, histogram and cursor arrays, segment-boundary lists
/// and the memoized per-pass radix values.  One scratch serves any number
/// of calls of any size; every buffer grows to the high-water mark and
/// stays.
///
/// [`ClusterScratch::cluster_into`] is the one entry: its final pass writes
/// the caller's [`Clustered`], so a reused output makes the steady state
/// allocation-free and a fresh one ([`Clustered::default`]) is the owned
/// form.  The parallel executor gives each worker its own scratch and
/// output for its shard.
#[derive(Debug, Clone)]
pub struct ClusterScratch<K, P> {
    /// Intermediate ping buffer (the passes before the last alternate
    /// between it and the output).
    ping_keys: Vec<K>,
    ping_pay: Vec<P>,
    /// Memoized per-pass radix values: each key is hashed once per pass.
    radix: Vec<u32>,
    /// Histogram, reused across segments (hoisted out of the segment loop).
    counts: Vec<usize>,
    /// Scatter cursors, reused across segments.
    offsets: Vec<usize>,
    /// Segment boundaries entering / leaving the current pass.
    segments: Vec<usize>,
    new_segments: Vec<usize>,
}

impl<K, P> Default for ClusterScratch<K, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, P> ClusterScratch<K, P> {
    /// An empty arena; buffers are grown on first use.
    pub fn new() -> Self {
        ClusterScratch {
            ping_keys: Vec::new(),
            ping_pay: Vec::new(),
            radix: Vec::new(),
            counts: Vec::new(),
            offsets: Vec::new(),
            segments: Vec::new(),
            new_segments: Vec::new(),
        }
    }

    /// Resident heap bytes currently held by the arena.
    pub fn resident_bytes(&self) -> usize {
        self.ping_keys.capacity() * std::mem::size_of::<K>()
            + self.ping_pay.capacity() * std::mem::size_of::<P>()
            + self.radix.capacity() * std::mem::size_of::<u32>()
            + (self.counts.capacity()
                + self.offsets.capacity()
                + self.segments.capacity()
                + self.new_segments.capacity())
                * std::mem::size_of::<usize>()
    }
}

impl<K: Copy, P: Copy> ClusterScratch<K, P> {
    /// Radix-clusters `(key, payload)` pairs on `spec` into `out`, replacing
    /// its contents; `bucket_of` maps a key to its full radix value (the
    /// hash for join keys, the value itself for oids).  All working memory
    /// comes from the arena and the final pass writes `out`'s arrays, so
    /// once both have grown to the input size the call allocates nothing.
    /// Every element reference of every array is reported to `probe`
    /// ([`rdx_cache::NoProbe`] in production).
    ///
    /// # Panics
    /// Panics if `keys` and `payloads` differ in length.
    pub fn cluster_into<Pr: Probe>(
        &mut self,
        keys: &[K],
        payloads: &[P],
        spec: RadixClusterSpec,
        bucket_of: impl Fn(&K) -> u64,
        out: &mut Clustered<K, P>,
        probe: &mut Pr,
    ) {
        assert_eq!(keys.len(), payloads.len(), "keys/payloads length mismatch");
        let n = keys.len();
        out.spec = spec;
        out.bounds.clear();
        if spec.bits == 0 || n == 0 {
            // Degenerate cases still uphold `bounds.len() == H + 1`: zero
            // bits is one cluster holding everything, an empty input is `H`
            // empty clusters.  The input copy here is the output itself.
            out.keys.clear();
            out.keys.extend_from_slice(keys);
            out.payloads.clear();
            out.payloads.extend_from_slice(payloads);
            out.bounds.resize(spec.num_clusters(), 0);
            out.bounds.push(n);
            return;
        }
        run_passes(
            keys,
            payloads,
            spec,
            &bucket_of,
            &mut self.ping_keys,
            &mut self.ping_pay,
            &mut out.keys,
            &mut out.payloads,
            &mut PassScratch {
                radix: &mut self.radix,
                counts: &mut self.counts,
                offsets: &mut self.offsets,
                segments: &mut self.segments,
                new_segments: &mut self.new_segments,
            },
            probe,
        );
        out.bounds.extend_from_slice(&self.segments);
    }
}

/// The non-buffer working state shared by every pass (bundled so the engine
/// signature stays readable).
struct PassScratch<'s> {
    radix: &'s mut Vec<u32>,
    counts: &'s mut Vec<usize>,
    offsets: &'s mut Vec<usize>,
    segments: &'s mut Vec<usize>,
    new_segments: &'s mut Vec<usize>,
}

/// Probe array ids of the scatter engine: the input, ping and output pairs
/// (keys at the even id, payloads at the next), then its working arrays.
const IN: usize = 0;
const PING: usize = 2;
const OUT: usize = 4;
const RADIX: usize = 6;
const COUNTS: usize = 7;
const OFFSETS: usize = 8;
const SEGMENTS: [usize; 2] = [9, 10];

/// The multi-pass scatter engine behind [`ClusterScratch::cluster_into`].
/// Pass destinations alternate between the `ping` pair and the `out` pair,
/// phased so the **final** pass always lands in `out`.  On return,
/// `scratch.segments` holds the final `H + 1` cluster borders.  Every
/// element reference of every array is reported to `probe`, by the ids
/// above.
#[allow(clippy::too_many_arguments)]
fn run_passes<K: Copy, P: Copy, Pr: Probe>(
    keys: &[K],
    payloads: &[P],
    spec: RadixClusterSpec,
    bucket_of: &impl Fn(&K) -> u64,
    ping_keys: &mut Vec<K>,
    ping_pay: &mut Vec<P>,
    out_keys: &mut Vec<K>,
    out_pay: &mut Vec<P>,
    scratch: &mut PassScratch<'_>,
    probe: &mut Pr,
) {
    let n = keys.len();
    debug_assert!(n > 0 && spec.bits > 0);
    let num_passes = spec.pass_bits().len();

    scratch.segments.clear();
    scratch.segments.push(0);
    scratch.segments.push(n);
    (0..2).for_each(|i| probe.write(SEGMENTS[0], i));
    // Probe id of the pair a pass reads: the input, then the last pass's
    // destination.
    let mut src = IN;

    let mut bits_remaining = spec.bits;
    for (pass, bp) in spec.pass_bits().enumerate() {
        bits_remaining -= bp;
        let shift = spec.ignore + bits_remaining;
        assert!(bp <= 31, "per-pass fan-out beyond 2^31 is not supported");
        let hp = 1usize << bp;
        let mask = (hp as u64) - 1;

        // Destination parity: the last pass writes `out`, the one before it
        // `ping`, and so on backwards.  The first pass always reads the
        // caller's input slices.
        let into_out = (num_passes - 1 - pass).is_multiple_of(2);
        let (src_keys, src_pay, dst_keys, dst_pay): (&[K], &[P], &mut Vec<K>, &mut Vec<P>) =
            match (pass == 0, into_out) {
                (true, true) => (keys, payloads, out_keys, out_pay),
                (true, false) => (keys, payloads, ping_keys, ping_pay),
                (false, true) => (ping_keys, ping_pay, out_keys, out_pay),
                (false, false) => (out_keys, out_pay, ping_keys, ping_pay),
            };
        let dst = if into_out { OUT } else { PING };
        let (segments, new_segments) = (SEGMENTS[pass % 2], SEGMENTS[(pass + 1) % 2]);
        // `resize` (not clone) sizes the destination: cheap fill on first
        // growth, a no-op in steady state — and immediately fully
        // overwritten by the scatter below either way.
        dst_keys.resize(n, src_keys[0]);
        dst_pay.resize(n, src_pay[0]);
        let dst_keys = &mut dst_keys[..n];
        let dst_pay = &mut dst_pay[..n];
        let src_keys = &src_keys[..n];
        let src_pay = &src_pay[..n];

        // The memoized radix-value buffer: filled fused with the histogram
        // (one hash per key per pass, one traversal for both), then read by
        // the scatter loop.
        scratch.radix.resize(n, 0);
        scratch.counts.resize(hp, 0);
        scratch.offsets.resize(hp, 0);
        scratch.new_segments.clear();

        let seg_count = scratch.segments.len() - 1;
        for seg in 0..seg_count {
            let (s, e) = (scratch.segments[seg], scratch.segments[seg + 1]);
            (seg..seg + 2).for_each(|i| probe.read(segments, i));
            let counts = &mut scratch.counts[..hp];
            counts.fill(0);
            (0..hp).for_each(|b| probe.write(COUNTS, b));
            // Histogram + radix memoization in one traversal: each key is
            // hashed exactly once this pass.
            for (i, (slot, k)) in scratch.radix[s..e]
                .iter_mut()
                .zip(&src_keys[s..e])
                .enumerate()
            {
                let r = ((bucket_of(k) >> shift) & mask) as u32;
                probe.read(src, s + i);
                probe.write(RADIX, s + i);
                probe.write(COUNTS, r as usize);
                *slot = r;
                counts[r as usize] += 1;
            }
            // Exclusive prefix sums become both the scatter cursors and the
            // new segment boundaries.
            let mut cursor = s;
            let offsets = &mut scratch.offsets[..hp];
            for (b, &count) in counts.iter().enumerate() {
                probe.read(COUNTS, b);
                probe.write(OFFSETS, b);
                probe.write(new_segments, scratch.new_segments.len());
                offsets[b] = cursor;
                scratch.new_segments.push(cursor);
                cursor += count;
            }
            debug_assert_eq!(cursor, e);
            for (i, ((&r, &k), &p)) in scratch.radix[s..e]
                .iter()
                .zip(&src_keys[s..e])
                .zip(&src_pay[s..e])
                .enumerate()
            {
                let b = r as usize;
                let at = offsets[b];
                probe.read_all([RADIX, src, src + 1], s + i);
                probe.write(OFFSETS, b);
                probe.write_all([dst, dst + 1], at);
                offsets[b] += 1;
                dst_keys[at] = k;
                dst_pay[at] = p;
            }
        }
        probe.write(new_segments, scratch.new_segments.len());
        scratch.new_segments.push(n);
        std::mem::swap(scratch.segments, scratch.new_segments);
        src = dst;
    }
    debug_assert_eq!(scratch.segments.len(), spec.num_clusters() + 1);
    debug_assert_eq!(out_keys.len(), n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{radix_cluster, radix_cluster_oids};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rdx_cache::{MemorySystem, NoProbe};
    use rdx_dsm::Oid;

    fn shuffled_oids(n: usize, seed: u64) -> Vec<Oid> {
        let mut v: Vec<Oid> = (0..n as Oid).collect();
        v.shuffle(&mut StdRng::seed_from_u64(seed));
        v
    }

    fn reversed_oids(n: usize) -> Vec<Oid> {
        (0..n as Oid).rev().collect()
    }

    #[test]
    fn probed_cluster_matches_unprobed() {
        let oids = reversed_oids(4_000);
        let payloads: Vec<u32> = (0..4_000).collect();
        // One pass, and two and three passes (every source / destination
        // pairing).
        for spec in [
            RadixClusterSpec::single_pass(5),
            RadixClusterSpec::partial(6, 2, 0),
            RadixClusterSpec::partial(6, 3, 1),
        ] {
            let mut mem = MemorySystem::new(&CacheParams::tiny_for_tests());
            let (probed, counts) = simulate_cluster(&oids, &payloads, spec, &mut mem);
            let plain = radix_cluster_oids(&oids, &payloads, spec);
            assert_eq!(probed.keys(), plain.keys());
            assert_eq!(probed.payloads(), plain.payloads());
            assert_eq!(probed.bounds(), plain.bounds());
            assert!(counts.accesses > 0);
        }
    }

    #[test]
    fn cluster_fanout_beyond_tlb_explodes_misses_fig9a() {
        let params = CacheParams::tiny_for_tests(); // 8-entry TLB
        let oids = reversed_oids(16_384);
        let payloads = vec![0u32; 16_384];
        let run = |bits: u32| {
            let mut mem = MemorySystem::new(&params);
            let spec = RadixClusterSpec::single_pass(bits);
            simulate_cluster(&oids, &payloads, spec, &mut mem).1
        };
        // With 1 radix bit the scatter touches 3 input streams plus 2×2 output
        // cursors and the cursor array = 8 concurrent pages, within the
        // 8-entry TLB; with 8 bits it juggles 3 + 2×256 cursors and thrashes
        // on every write.
        let few = run(1);
        let many = run(8);
        assert!(
            many.tlb_misses > 4 * few.tlb_misses,
            "256 cursors should thrash the 8-entry TLB: {} vs {}",
            many.tlb_misses,
            few.tlb_misses
        );
    }

    #[test]
    fn probed_cluster_handles_empty_and_skewed_inputs() {
        let mut mem = MemorySystem::new(&CacheParams::tiny_for_tests());
        let spec = RadixClusterSpec::single_pass(3);
        let (c, counts) = simulate_cluster::<u32>(&[], &[], spec, &mut mem);
        assert!(c.is_empty());
        assert_eq!(counts.accesses, 0);
        // All-one-cluster skew: every other cursor stays untouched.
        let oids = vec![0 as Oid; 77];
        let payloads: Vec<u32> = (0..77).collect();
        let spec = RadixClusterSpec::single_pass(4);
        let (c, _) = simulate_cluster(&oids, &payloads, spec, &mut mem);
        assert_eq!(&c, &radix_cluster_oids(&oids, &payloads, spec));
    }

    /// [`ClusterScratch::cluster_into`] on unhashed oids, into a fresh
    /// output, with no probe.
    fn cluster_oids<P: Copy>(
        scratch: &mut ClusterScratch<Oid, P>,
        oids: &[Oid],
        payloads: &[P],
        spec: RadixClusterSpec,
    ) -> Clustered<Oid, P> {
        let mut out = Clustered::default();
        scratch.cluster_into(oids, payloads, spec, |&o| o as u64, &mut out, &mut NoProbe);
        out
    }

    #[test]
    fn scratch_reuse_across_sizes_and_specs_stays_correct() {
        let mut scratch: ClusterScratch<Oid, u32> = ClusterScratch::new();
        assert_eq!(scratch.resident_bytes(), 0);
        // One output reused throughout, at deliberately descending sizes:
        // arena and output shrink logically but keep their capacity, so a
        // stale tail from a larger run must never leak into a smaller one.
        let mut out = Clustered::default();
        for (i, &n) in [8_192usize, 100, 3_001, 1, 513].iter().enumerate() {
            let oids = shuffled_oids(n, i as u64);
            let payloads: Vec<u32> = (0..n as u32).collect();
            let spec = RadixClusterSpec::partial(4, 2, 1);
            scratch.cluster_into(
                &oids,
                &payloads,
                spec,
                |&o| o as u64,
                &mut out,
                &mut NoProbe,
            );
            assert_eq!(out, radix_cluster_oids(&oids, &payloads, spec), "n={n}");
            assert_eq!(out.len(), n);
            assert_eq!(out.num_clusters(), 16);
        }
        assert!(scratch.resident_bytes() > 0);
    }

    #[test]
    fn all_one_cluster_skew_keeps_bounds_and_input_order() {
        // Every tuple lands in cluster 0 except a 3-element tail in cluster
        // 17: all other cursors stay empty, and each cluster keeps its
        // tuples in input order.
        let mut oids = vec![0 as Oid; 61];
        oids.extend([17 as Oid; 3]);
        let payloads: Vec<u32> = (0..oids.len() as u32).collect();
        let spec = RadixClusterSpec::single_pass(5);
        let got = cluster_oids(&mut ClusterScratch::new(), &oids, &payloads, spec);
        let mut bounds = vec![0usize];
        bounds.extend([61; 17]);
        bounds.extend([64; 15]);
        assert_eq!(got.bounds(), &bounds[..]);
        assert_eq!(got.keys(), &oids[..]);
        assert_eq!(got.payloads(), &payloads[..]);
    }

    #[test]
    fn hashed_cluster_into_matches_public_kernel() {
        let keys: Vec<u64> = (0..5_000).map(|i| i * 37 % 1_000).collect();
        let payloads: Vec<u32> = (0..5_000).collect();
        let spec = RadixClusterSpec::new(6, 2);
        let expected = radix_cluster(&keys, &payloads, spec);
        let mut got = Clustered::default();
        ClusterScratch::new().cluster_into(
            &keys,
            &payloads,
            spec,
            |&k| crate::hash::hash_key(k),
            &mut got,
            &mut NoProbe,
        );
        assert_eq!(got, expected);
        for j in 0..got.num_clusters() {
            assert_eq!(got.cluster_keys(j), expected.cluster_keys(j));
            assert_eq!(got.cluster_payloads(j), expected.cluster_payloads(j));
            assert_eq!(got.cluster_range(j), expected.cluster_range(j));
        }
        assert!(!got.is_empty());
        assert_eq!(got.spec(), &spec);
    }

    #[test]
    fn degenerate_paths_copy_input_once_and_uphold_bounds() {
        // bits == 0: one all-covering cluster; the only copy is the output
        // itself (the arena makes no flip-buffer copies on this path).
        let mut scratch: ClusterScratch<Oid, u32> = ClusterScratch::new();
        let oids = vec![5 as Oid, 3, 9];
        let pay = vec![0u32, 1, 2];
        let spec = RadixClusterSpec::single_pass(0);
        let mut out = cluster_oids(&mut scratch, &oids, &pay, spec);
        assert_eq!(out.keys(), &oids[..]);
        assert_eq!(out.payloads(), &pay[..]);
        assert_eq!(out.bounds(), &[0, 3]);
        assert_eq!(scratch.resident_bytes(), 0);
        // Empty input into the same output: H empty clusters.
        let spec = RadixClusterSpec::single_pass(3);
        scratch.cluster_into(&[], &[], spec, |&o| o as u64, &mut out, &mut NoProbe);
        assert!(out.is_empty());
        assert_eq!(out.num_clusters(), 8);
        assert_eq!(out.bounds(), &[0usize; 9][..]);
        // The fresh output is the empty input's clustering on zero bits.
        assert_eq!(
            Clustered::<Oid, u32>::default(),
            cluster_oids(&mut scratch, &[], &[], RadixClusterSpec::single_pass(0))
        );
    }

    #[test]
    fn cursor_budgets_match_the_paper_platform() {
        // 64 TLB entries / 2 streams per cluster = 32, below 4096 L2 lines
        // / 2; a quarter of the L2 (1024 lines) leaves the TLB the bound.
        let p = CacheParams::paper_pentium4();
        assert_eq!(crate::cluster::pass_fanout(&p), 32);
        assert_eq!(crate::cluster::pass_fanout(&p.per_query_share(4)), 32);
        assert_eq!(
            plan_partial_cluster(1 << 26, 4, &p)
                .pass_bits()
                .collect::<Vec<_>>(),
            [5, 5]
        );
    }

    /// The packing rule: a cache share large enough for one cluster to span
    /// more than `2^16` oids gets more bits instead, and the clustering
    /// packs.  What a projection computes through it is
    /// `rdx-exec`'s `packed_prefix_at_a_large_share_materializes_the_reference`.
    #[test]
    fn a_large_share_spec_ignores_at_most_16_bits_and_packs() {
        use crate::cluster::{radix_cluster_oids, PackedOids, PACKED_LOW_BITS};
        use crate::hash::significant_bits;

        // 512 KB: the fits-in-cache rule alone picks 1 bit and ignores 17.
        let p = CacheParams::paper_pentium4();
        let n = (1 << 17) + 3;
        let unraised = RadixClusterSpec::optimal_partial(n, 4, p.cache_capacity());
        assert_eq!((unraised.bits, unraised.ignore), (1, 17));
        let spec = plan_partial_cluster(n, 4, &p);
        assert_eq!((spec.bits, spec.ignore), (2, PACKED_LOW_BITS));
        assert_eq!(spec.bits + spec.ignore, significant_bits(n));
        // The benchmark's 128 KB share is below the rule: nothing moves.
        let share = p.per_query_share(4);
        for tuples in [6_000usize, 40_000, 200_000, 1_000_000] {
            let planned = plan_partial_cluster(tuples, 4, &share);
            let base = RadixClusterSpec::optimal_partial(tuples, 4, share.cache_capacity());
            assert_eq!((planned.bits, planned.ignore), (base.bits, base.ignore));
            assert!(planned.ignore <= PACKED_LOW_BITS, "{tuples}");
        }

        let oids: Vec<Oid> = (0..n as Oid).rev().collect();
        let clustered = radix_cluster_oids(&oids, &oids, spec);
        let keys = clustered.keys().to_vec();
        assert_eq!(PackedOids::pack(clustered).0.to_oids(), keys);
    }
}
