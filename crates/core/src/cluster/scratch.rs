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
//! This module replaces that with an explicit **scratch arena** plus two
//! scatter strategies:
//!
//! * [`ClusterScratch`] owns every working buffer a multi-pass radix scatter
//!   needs — the ping-pong key/payload buffers, the histogram and cursor
//!   arrays (hoisted out of the segment loop), the segment-boundary lists,
//!   and a memoized per-pass radix-value buffer so each key is hashed
//!   **once** per pass.  Reusing one scratch across calls makes the steady
//!   state allocation-free except for the caller-owned output.
//! * [`ScatterMode`] selects between the plain per-tuple scatter and a
//!   **software write-combining** scatter (`Buffered`): tuples are staged in
//!   per-cluster cache-line-sized buffers that are flushed as full-line
//!   copies, so the randomly-addressed working set shrinks from one open
//!   cache line *and* TLB entry per cluster to a compact staging area —
//!   which is what lets a single buffered pass replace two plain passes once
//!   the fan-out `2^B` exceeds the plain-scatter cursor budget.
//!
//! Both modes produce output **byte-identical** to the original kernel: the
//! per-pass counting sort is stable either way (staged tuples are flushed to
//! the same cursor positions, in the same order, as direct writes).

use super::spec::RadixClusterSpec;
use super::Clustered;
use rdx_cache::CacheParams;

/// Elements per software-write-combining staging slot.  Eight 8-byte keys
/// fill one 64-byte cache line exactly; narrower keys/payloads simply flush
/// more than one slot per line, which costs nothing extra (the copies stay
/// line-contained and sequential per cluster).
pub const SWWC_SLOT_ELEMS: usize = 8;

/// The documented default plain-scatter cursor budget: the "few thousand
/// output cursors" beyond which the paper observes single-pass clustering
/// stops scaling (§2.1).  Used when no [`CacheParams`] is available — e.g.
/// by [`ScatterMode::Auto`] and the parameterless
/// [`super::radix_sort_spec`]; [`scatter_cursor_budget`] derives the same
/// number from the hardware model instead (and reproduces exactly 2048 for
/// the paper's Pentium 4).
pub const DEFAULT_SCATTER_CURSOR_BUDGET: usize = 2048;

/// The widest plain scatter one pass may run over data that is **not**
/// cache-resident.  Every open output page needs a data-TLB entry, and a
/// pass over `(key, payload)` pairs keeps two output arrays open per
/// cluster, so a 64-entry data TLB — the paper's Pentium 4, and the x86
/// cores the join was measured on — holds the write streams of 32 clusters.
/// Past that the scatter falls off a cliff: one plain pass over 1 M hashed
/// `(u64, u32)` pairs took 4.3 ms to 32 clusters and 13.2 ms to 64, with
/// the cursor lines still cache-resident (median of 7, 2-vCPU Xeon with
/// 48 KB L1d / 2 MB L2 / 105 MB L3; `benches/scatter_kernels.rs`' fan-out
/// sweep).  Partitioned Hash-Join takes its one out-of-cache pass at this
/// fan-out and splits the remaining radix bits inside the cache.
pub const TLB_BOUNDED_FANOUT: usize = 64 / 2;

/// The largest number of scatter cursors one *plain* pass can sustain under
/// `params` before the cursors start evicting each other: half the
/// outermost cache's lines (the same conservative usable-line rule the
/// `rdx-cost` `nest` pattern applies, so the pass rule and the cost model
/// can never disagree), floored by the TLB entry count.
///
/// The rule counts clusters, not write streams, and lets a pass outgrow the
/// TLB while its cursor lines fit the cache.  Measured, that costs more than
/// it saves: a plain pass over `(key, payload)` pairs slows about threefold
/// per tuple once its `2 · 2^B` streams exceed the TLB, with every cursor
/// line still cache-resident (see [`TLB_BOUNDED_FANOUT`]).  The rule stays
/// as is for the reordering codes' clusterings and the radix sorts, whose
/// plans it decides; the join does not use it.
///
/// For [`CacheParams::paper_pentium4`] this is exactly
/// [`DEFAULT_SCATTER_CURSOR_BUDGET`] (4096 L2 lines / 2 = 2048 > 64 TLB
/// entries).
pub fn scatter_cursor_budget(params: &CacheParams) -> usize {
    (params.last_level().lines() / 2)
        .max(params.tlb.entries)
        .max(1)
}

/// The largest fan-out a *buffered* (software write-combining) pass can
/// sustain under `params` for tuples of `pair_bytes` (key + payload) bytes:
/// the staging area — one [`SWWC_SLOT_ELEMS`]-element slot per cluster —
/// must fit half the outermost cache, since it is the only randomly
/// addressed working set the buffered scatter keeps hot.
pub fn buffered_cursor_budget(pair_bytes: usize, params: &CacheParams) -> usize {
    let slot_bytes = SWWC_SLOT_ELEMS * pair_bytes.max(1);
    ((params.cache_capacity() / 2) / slot_bytes).max(1)
}

/// How a clustering pass scatters tuples to its output cursors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScatterMode {
    /// Direct per-tuple writes through one cursor per cluster — cheapest
    /// while the cursor set is cache/TLB-resident.
    Plain,
    /// Software write-combining: stage tuples per cluster and flush full
    /// [`SWWC_SLOT_ELEMS`]-element slots as line copies.  Worth it once the
    /// fan-out exceeds the plain cursor budget; pure overhead below it.
    Buffered,
    /// Per pass: [`ScatterMode::Buffered`] when that pass's fan-out exceeds
    /// [`DEFAULT_SCATTER_CURSOR_BUDGET`], [`ScatterMode::Plain`] otherwise.
    /// The hardware-aware planner makes the same decision against the
    /// measured [`CacheParams`] instead (see
    /// [`plan_cluster_passes`]).
    #[default]
    Auto,
}

impl ScatterMode {
    /// Whether a pass with `fanout` output cursors runs buffered.
    #[inline]
    pub fn buffered_for(self, fanout: usize) -> bool {
        match self {
            ScatterMode::Plain => false,
            ScatterMode::Buffered => true,
            ScatterMode::Auto => fanout > DEFAULT_SCATTER_CURSOR_BUDGET,
        }
    }
}

/// The pass count and scatter mode one radix clustering of `2^bits` clusters
/// should run with under `params`, for key/payload pairs of `pair_bytes`:
///
/// 1. fan-out within the plain cursor budget → one plain pass;
/// 2. fan-out beyond it but whose staging area fits the cache → **one
///    buffered pass**, replacing the two plain passes the seed kernel used;
/// 3. otherwise → plain passes of at most `log2(budget)` bits each.
///
/// This is the [`scatter_cursor_budget`] rule the planner, the pipeline and
/// [`super::radix_sort_spec_for`] all share, so the executed pass structure
/// and the priced one can never drift apart.
pub fn plan_cluster_passes(
    bits: u32,
    pair_bytes: usize,
    params: &CacheParams,
) -> (u32, ScatterMode) {
    if bits == 0 {
        return (1, ScatterMode::Plain);
    }
    let budget = scatter_cursor_budget(params);
    let fanout = 1usize.checked_shl(bits).unwrap_or(usize::MAX);
    if fanout <= budget {
        return (1, ScatterMode::Plain);
    }
    if fanout <= buffered_cursor_budget(pair_bytes, params) {
        return (1, ScatterMode::Buffered);
    }
    (super::passes_for_budget(bits, budget), ScatterMode::Plain)
}

/// Bytes of one clustered `(oid, payload-oid)` pair — what the reordering
/// codes scatter, and hence the staging granularity their buffered-scatter
/// planning sizes against.  The one definition shared by the cost planner,
/// the materialising executors and the streaming pipeline, so the priced
/// and executed pass structures cannot drift if [`rdx_dsm::Oid`] ever
/// changes width.
pub const OID_PAIR_BYTES: usize = 2 * std::mem::size_of::<rdx_dsm::Oid>();

/// The §3.1 `optimal_partial` clustering with its pass structure and
/// scatter mode derived from the hardware model: bits from the
/// fits-in-cache rule, passes and plain/buffered from
/// [`plan_cluster_passes`] for key/payload pairs of `pair_bytes`.  The
/// single source of truth shared by the streaming planner (which prices
/// it), the pipeline's prepare phase (which runs it) and the serving
/// layer's cache keys (which name it) — so the three can never drift apart.
pub fn plan_partial_cluster(
    column_tuples: usize,
    value_width: usize,
    pair_bytes: usize,
    params: &CacheParams,
) -> (RadixClusterSpec, ScatterMode) {
    let base =
        RadixClusterSpec::optimal_partial(column_tuples, value_width, params.cache_capacity());
    let (passes, mode) = plan_cluster_passes(base.bits, pair_bytes, params);
    (
        RadixClusterSpec {
            bits: base.bits,
            passes,
            ignore: base.ignore,
        },
        mode,
    )
}

/// A borrowed view of a clustering whose arrays live inside a
/// [`ClusterScratch`] — what the zero-allocation entry points return.  Same
/// accessors as [`Clustered`]; call [`ScratchClustered::to_clustered`] to pay
/// for an owned copy.
#[derive(Debug, Clone, Copy)]
pub struct ScratchClustered<'a, K, P> {
    keys: &'a [K],
    payloads: &'a [P],
    bounds: &'a [usize],
    spec: RadixClusterSpec,
}

impl<'a, K: Copy, P: Copy> ScratchClustered<'a, K, P> {
    /// Number of clusters `H = 2^B`.
    pub fn num_clusters(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the input was empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The clustering specification that produced this result.
    pub fn spec(&self) -> &RadixClusterSpec {
        &self.spec
    }

    /// The reordered keys.
    pub fn keys(&self) -> &'a [K] {
        self.keys
    }

    /// The reordered payloads.
    pub fn payloads(&self) -> &'a [P] {
        self.payloads
    }

    /// The cluster boundary offsets (`H + 1` entries).
    pub fn bounds(&self) -> &'a [usize] {
        self.bounds
    }

    /// The tuple range of cluster `j`.
    pub fn cluster_range(&self, j: usize) -> std::ops::Range<usize> {
        self.bounds[j]..self.bounds[j + 1]
    }

    /// Keys of cluster `j`.
    pub fn cluster_keys(&self, j: usize) -> &'a [K] {
        &self.keys[self.cluster_range(j)]
    }

    /// Payloads of cluster `j`.
    pub fn cluster_payloads(&self, j: usize) -> &'a [P] {
        &self.payloads[self.cluster_range(j)]
    }

    /// `(keys, payloads)` of cluster `j`.
    pub fn cluster(&self, j: usize) -> (&'a [K], &'a [P]) {
        (self.cluster_keys(j), self.cluster_payloads(j))
    }

    /// Copies the view into an owned [`Clustered`].
    pub fn to_clustered(&self) -> Clustered<K, P> {
        Clustered::from_parts(
            self.keys.to_vec(),
            self.payloads.to_vec(),
            self.bounds.to_vec(),
            self.spec,
        )
    }
}

/// The reusable working memory of the multi-pass radix scatter: ping-pong
/// key/payload buffers, histogram and cursor arrays, segment-boundary lists,
/// the memoized per-pass radix values, and the software-write-combining
/// staging area.  One scratch serves any number of calls of any size; every
/// buffer grows to the high-water mark and stays, so the steady state
/// allocates nothing.
///
/// Two entry-point families use it:
///
/// * [`super::radix_cluster_with_scratch`] /
///   [`super::radix_cluster_oids_with_scratch`] return an owned
///   [`Clustered`] — the only per-call allocation is that output;
/// * [`ClusterScratch::cluster_oids_in_scratch`] /
///   [`ClusterScratch::cluster_hashed_in_scratch`] leave the result inside
///   the arena and return a borrowed [`ScratchClustered`] — zero
///   allocations in steady state, the form the parallel executor's
///   per-worker shard clustering uses.
#[derive(Debug, Clone)]
pub struct ClusterScratch<K, P> {
    /// Intermediate ping buffer (passes 2, 4, … read or write it).
    ping_keys: Vec<K>,
    ping_pay: Vec<P>,
    /// Result buffer of the in-scratch entry points; intermediate buffer of
    /// the owned entry points.
    front_keys: Vec<K>,
    front_pay: Vec<P>,
    /// Memoized per-pass radix values: each key is hashed once per pass.
    radix: Vec<u32>,
    /// Histogram, reused across segments (hoisted out of the segment loop).
    counts: Vec<usize>,
    /// Scatter cursors, reused across segments.
    offsets: Vec<usize>,
    /// Segment boundaries entering / leaving the current pass.
    segments: Vec<usize>,
    new_segments: Vec<usize>,
    /// Software-write-combining staging area (`fanout × SWWC_SLOT_ELEMS`).
    stage_keys: Vec<K>,
    stage_pay: Vec<P>,
    stage_fill: Vec<usize>,
    /// Spec of the last in-scratch run (what [`ClusterScratch::view`] serves).
    view_spec: Option<RadixClusterSpec>,
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
            front_keys: Vec::new(),
            front_pay: Vec::new(),
            radix: Vec::new(),
            counts: Vec::new(),
            offsets: Vec::new(),
            segments: Vec::new(),
            new_segments: Vec::new(),
            stage_keys: Vec::new(),
            stage_pay: Vec::new(),
            stage_fill: Vec::new(),
            view_spec: None,
        }
    }

    /// Resident heap bytes currently held by the arena.
    pub fn resident_bytes(&self) -> usize {
        self.ping_keys.capacity() * std::mem::size_of::<K>()
            + self.front_keys.capacity() * std::mem::size_of::<K>()
            + self.stage_keys.capacity() * std::mem::size_of::<K>()
            + self.ping_pay.capacity() * std::mem::size_of::<P>()
            + self.front_pay.capacity() * std::mem::size_of::<P>()
            + self.stage_pay.capacity() * std::mem::size_of::<P>()
            + self.radix.capacity() * std::mem::size_of::<u32>()
            + (self.counts.capacity()
                + self.offsets.capacity()
                + self.segments.capacity()
                + self.new_segments.capacity()
                + self.stage_fill.capacity())
                * std::mem::size_of::<usize>()
    }
}

impl<K: Copy, P: Copy> ClusterScratch<K, P> {
    /// Clusters into the arena, returning a borrowed view: zero allocations
    /// once the buffers have grown to the input size.  `bucket_of` maps a
    /// key to its full radix value (hash for join keys, identity for oids).
    pub fn cluster_by_in_scratch<'a>(
        &'a mut self,
        keys: &[K],
        payloads: &[P],
        spec: RadixClusterSpec,
        mode: ScatterMode,
        bucket_of: impl Fn(&K) -> u64,
    ) -> ScratchClustered<'a, K, P> {
        assert_eq!(keys.len(), payloads.len(), "keys/payloads length mismatch");
        let n = keys.len();
        if spec.bits == 0 || n == 0 {
            // Degenerate cases still uphold `bounds.len() == H + 1`: zero
            // bits is one cluster holding everything, an empty input is `H`
            // empty clusters.  The input copy here is the output itself, not
            // the flip-buffer waste the arena exists to remove.
            self.front_keys.clear();
            self.front_keys.extend_from_slice(keys);
            self.front_pay.clear();
            self.front_pay.extend_from_slice(payloads);
            self.segments.clear();
            self.segments.resize(spec.num_clusters(), 0);
            self.segments.push(n);
        } else {
            let this = &mut *self;
            run_passes(
                keys,
                payloads,
                spec,
                mode,
                &bucket_of,
                &mut this.ping_keys,
                &mut this.ping_pay,
                &mut this.front_keys,
                &mut this.front_pay,
                &mut PassScratch {
                    radix: &mut this.radix,
                    counts: &mut this.counts,
                    offsets: &mut this.offsets,
                    segments: &mut this.segments,
                    new_segments: &mut this.new_segments,
                    stage_keys: &mut this.stage_keys,
                    stage_pay: &mut this.stage_pay,
                    stage_fill: &mut this.stage_fill,
                },
            );
        }
        self.view_spec = Some(spec);
        self.view().expect("view_spec just set")
    }

    /// The view of the last in-scratch clustering, or `None` if none ran
    /// yet.  The view stays valid until the next clustering call reuses the
    /// buffers — this is how the parallel executor reads per-worker results
    /// back out after the worker scope ends.
    pub fn view(&self) -> Option<ScratchClustered<'_, K, P>> {
        let spec = self.view_spec?;
        Some(ScratchClustered {
            keys: &self.front_keys,
            payloads: &self.front_pay,
            bounds: &self.segments,
            spec,
        })
    }

    /// Clusters into a caller-owned output: the returned [`Clustered`] is
    /// the only per-call allocation; all working memory comes from the
    /// arena.
    pub fn cluster_by<F: Fn(&K) -> u64>(
        &mut self,
        keys: &[K],
        payloads: &[P],
        spec: RadixClusterSpec,
        mode: ScatterMode,
        bucket_of: F,
    ) -> Clustered<K, P> {
        assert_eq!(keys.len(), payloads.len(), "keys/payloads length mismatch");
        // The owned path reuses `segments` (and, multi-pass, the front
        // buffers) without establishing a new view generation — any view of
        // an earlier in-scratch run would silently mix generations.
        self.view_spec = None;
        let n = keys.len();
        if spec.bits == 0 || n == 0 {
            let mut bounds = vec![0usize; spec.num_clusters()];
            bounds.push(n);
            return Clustered::from_parts(keys.to_vec(), payloads.to_vec(), bounds, spec);
        }
        // The output pair is written by the final scatter pass directly —
        // the flip buffers are never initialised from data they are about to
        // overwrite (the seed kernel's `out_keys = cur_keys.clone()` waste).
        let mut out_keys: Vec<K> = Vec::new();
        let mut out_pay: Vec<P> = Vec::new();
        run_passes(
            keys,
            payloads,
            spec,
            mode,
            &bucket_of,
            &mut self.ping_keys,
            &mut self.ping_pay,
            &mut out_keys,
            &mut out_pay,
            &mut PassScratch {
                radix: &mut self.radix,
                counts: &mut self.counts,
                offsets: &mut self.offsets,
                segments: &mut self.segments,
                new_segments: &mut self.new_segments,
                stage_keys: &mut self.stage_keys,
                stage_pay: &mut self.stage_pay,
                stage_fill: &mut self.stage_fill,
            },
        );
        debug_assert_eq!(self.segments.len(), spec.num_clusters() + 1);
        Clustered::from_parts(out_keys, out_pay, self.segments.clone(), spec)
    }
}

impl<P: Copy> ClusterScratch<u64, P> {
    /// In-scratch clustering of hashed join keys (see
    /// [`super::radix_cluster`]).
    pub fn cluster_hashed_in_scratch<'a>(
        &'a mut self,
        keys: &[u64],
        payloads: &[P],
        spec: RadixClusterSpec,
        mode: ScatterMode,
    ) -> ScratchClustered<'a, u64, P> {
        self.cluster_by_in_scratch(keys, payloads, spec, mode, |&k| crate::hash::hash_key(k))
    }
}

impl<P: Copy> ClusterScratch<rdx_dsm::Oid, P> {
    /// In-scratch clustering of unhashed oids (see
    /// [`super::radix_cluster_oids`]).
    pub fn cluster_oids_in_scratch<'a>(
        &'a mut self,
        oids: &[rdx_dsm::Oid],
        payloads: &[P],
        spec: RadixClusterSpec,
        mode: ScatterMode,
    ) -> ScratchClustered<'a, rdx_dsm::Oid, P> {
        self.cluster_by_in_scratch(oids, payloads, spec, mode, |&o| o as u64)
    }
}

/// The non-buffer working state shared by every pass (bundled so the engine
/// signature stays readable).
struct PassScratch<'s, K, P> {
    radix: &'s mut Vec<u32>,
    counts: &'s mut Vec<usize>,
    offsets: &'s mut Vec<usize>,
    segments: &'s mut Vec<usize>,
    new_segments: &'s mut Vec<usize>,
    stage_keys: &'s mut Vec<K>,
    stage_pay: &'s mut Vec<P>,
    stage_fill: &'s mut Vec<usize>,
}

/// The multi-pass scatter engine.  Pass destinations alternate between the
/// `ping` pair and the `out` pair, phased so the **final** pass always lands
/// in `out` — the caller decides whether `out` is an owned output (the
/// `with_scratch` entry points) or the arena's front buffer (the in-scratch
/// entry points).  On return, `scratch.segments` holds the final `H + 1`
/// cluster borders.
#[allow(clippy::too_many_arguments)]
fn run_passes<K: Copy, P: Copy>(
    keys: &[K],
    payloads: &[P],
    spec: RadixClusterSpec,
    mode: ScatterMode,
    bucket_of: &impl Fn(&K) -> u64,
    ping_keys: &mut Vec<K>,
    ping_pay: &mut Vec<P>,
    out_keys: &mut Vec<K>,
    out_pay: &mut Vec<P>,
    scratch: &mut PassScratch<'_, K, P>,
) {
    let n = keys.len();
    debug_assert!(n > 0 && spec.bits > 0);
    // The per-pass bit split of `RadixClusterSpec::pass_bits` (leftmost
    // passes take the remainder bit), computed arithmetically so even this
    // bookkeeping allocates nothing.
    let num_passes = spec.passes.clamp(1, spec.bits) as usize;
    let base_bits = spec.bits / num_passes as u32;
    let extra_bits = spec.bits % num_passes as u32;

    scratch.segments.clear();
    scratch.segments.push(0);
    scratch.segments.push(n);

    let mut bits_remaining = spec.bits;
    for pass in 0..num_passes {
        let bp = if (pass as u32) < extra_bits {
            base_bits + 1
        } else {
            base_bits
        };
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

        let buffered = mode.buffered_for(hp);
        if buffered {
            scratch.stage_keys.resize(hp * SWWC_SLOT_ELEMS, src_keys[0]);
            scratch.stage_pay.resize(hp * SWWC_SLOT_ELEMS, src_pay[0]);
            scratch.stage_fill.resize(hp, 0);
        }

        let seg_count = scratch.segments.len() - 1;
        for seg in 0..seg_count {
            let (s, e) = (scratch.segments[seg], scratch.segments[seg + 1]);
            let counts = &mut scratch.counts[..hp];
            counts.fill(0);
            // Histogram + radix memoization in one traversal: each key is
            // hashed exactly once this pass.
            for (slot, k) in scratch.radix[s..e].iter_mut().zip(&src_keys[s..e]) {
                let r = ((bucket_of(k) >> shift) & mask) as u32;
                *slot = r;
                counts[r as usize] += 1;
            }
            // Exclusive prefix sums become both the scatter cursors and the
            // new segment boundaries.
            let mut cursor = s;
            let offsets = &mut scratch.offsets[..hp];
            for (b, &count) in counts.iter().enumerate() {
                offsets[b] = cursor;
                scratch.new_segments.push(cursor);
                cursor += count;
            }
            debug_assert_eq!(cursor, e);
            if buffered {
                scatter_buffered(
                    src_keys,
                    src_pay,
                    scratch.radix,
                    s..e,
                    offsets,
                    scratch.stage_keys,
                    scratch.stage_pay,
                    scratch.stage_fill,
                    dst_keys,
                    dst_pay,
                );
            } else {
                for ((&r, &k), &p) in scratch.radix[s..e]
                    .iter()
                    .zip(&src_keys[s..e])
                    .zip(&src_pay[s..e])
                {
                    let b = r as usize;
                    let dst = offsets[b];
                    offsets[b] += 1;
                    dst_keys[dst] = k;
                    dst_pay[dst] = p;
                }
            }
        }
        scratch.new_segments.push(n);
        std::mem::swap(scratch.segments, scratch.new_segments);
    }
    debug_assert_eq!(scratch.segments.len(), spec.num_clusters() + 1);
    debug_assert_eq!(out_keys.len(), n);
}

/// One segment's software-write-combining scatter: stage each tuple in its
/// cluster's slot; a full slot is flushed as one contiguous
/// [`SWWC_SLOT_ELEMS`]-element copy, partial slots are drained at segment
/// end.  Tuples reach exactly the cursor positions, in exactly the order,
/// the plain scatter would have written them to — the output is
/// byte-identical.
#[allow(clippy::too_many_arguments)]
fn scatter_buffered<K: Copy, P: Copy>(
    src_keys: &[K],
    src_pay: &[P],
    radix: &[u32],
    range: std::ops::Range<usize>,
    offsets: &mut [usize],
    stage_keys: &mut [K],
    stage_pay: &mut [P],
    stage_fill: &mut [usize],
    dst_keys: &mut [K],
    dst_pay: &mut [P],
) {
    let hp = offsets.len();
    stage_fill[..hp].fill(0);
    for ((&r, &key), &pay) in radix[range.clone()]
        .iter()
        .zip(&src_keys[range.clone()])
        .zip(&src_pay[range])
    {
        let b = r as usize;
        let slot = b * SWWC_SLOT_ELEMS;
        let fill = stage_fill[b];
        stage_keys[slot + fill] = key;
        stage_pay[slot + fill] = pay;
        if fill + 1 == SWWC_SLOT_ELEMS {
            let dst = offsets[b];
            dst_keys[dst..dst + SWWC_SLOT_ELEMS]
                .copy_from_slice(&stage_keys[slot..slot + SWWC_SLOT_ELEMS]);
            dst_pay[dst..dst + SWWC_SLOT_ELEMS]
                .copy_from_slice(&stage_pay[slot..slot + SWWC_SLOT_ELEMS]);
            offsets[b] += SWWC_SLOT_ELEMS;
            stage_fill[b] = 0;
        } else {
            stage_fill[b] = fill + 1;
        }
    }
    // Drain partial slots, in cluster order (order across clusters is
    // irrelevant for correctness — the regions are disjoint — but keeping it
    // deterministic costs nothing).
    for b in 0..hp {
        let fill = stage_fill[b];
        if fill > 0 {
            let slot = b * SWWC_SLOT_ELEMS;
            let dst = offsets[b];
            dst_keys[dst..dst + fill].copy_from_slice(&stage_keys[slot..slot + fill]);
            dst_pay[dst..dst + fill].copy_from_slice(&stage_pay[slot..slot + fill]);
            offsets[b] += fill;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{radix_cluster, radix_cluster_oids};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rdx_dsm::Oid;

    fn shuffled_oids(n: usize, seed: u64) -> Vec<Oid> {
        let mut v: Vec<Oid> = (0..n as Oid).collect();
        v.shuffle(&mut StdRng::seed_from_u64(seed));
        v
    }

    #[test]
    fn buffered_scatter_is_byte_identical_to_plain() {
        let oids = shuffled_oids(10_000, 42);
        let payloads: Vec<u32> = (0..10_000).collect();
        let mut scratch = ClusterScratch::new();
        for bits in [1u32, 3, 7, 10] {
            for passes in [1u32, 2, 3] {
                for ignore in [0u32, 2] {
                    let spec = RadixClusterSpec::partial(bits, passes, ignore);
                    let plain = radix_cluster_oids(&oids, &payloads, spec);
                    let buffered =
                        scratch.cluster_by(&oids, &payloads, spec, ScatterMode::Buffered, |&o| {
                            o as u64
                        });
                    assert_eq!(
                        buffered, plain,
                        "bits={bits} passes={passes} ignore={ignore}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_sizes_and_specs_stays_correct() {
        let mut scratch: ClusterScratch<Oid, u32> = ClusterScratch::new();
        // Deliberately descending sizes: buffers shrink logically but keep
        // their capacity, exercising the stale-tail handling.
        for (i, &n) in [8_192usize, 100, 3_001, 1, 513].iter().enumerate() {
            let oids = shuffled_oids(n, i as u64);
            let payloads: Vec<u32> = (0..n as u32).collect();
            for mode in [ScatterMode::Plain, ScatterMode::Buffered, ScatterMode::Auto] {
                let spec = RadixClusterSpec::partial(4, 2, 1);
                let expected = radix_cluster_oids(&oids, &payloads, spec);
                let owned = scratch.cluster_by(&oids, &payloads, spec, mode, |&o| o as u64);
                assert_eq!(owned, expected, "n={n} mode={mode:?} (owned)");
                let view =
                    scratch.cluster_by_in_scratch(&oids, &payloads, spec, mode, |&o| o as u64);
                assert_eq!(view.keys(), expected.keys(), "n={n} mode={mode:?} (view)");
                assert_eq!(view.payloads(), expected.payloads());
                assert_eq!(view.bounds(), expected.bounds());
                assert_eq!(view.len(), n);
                assert_eq!(view.num_clusters(), 16);
            }
        }
        assert!(scratch.resident_bytes() > 0);
    }

    #[test]
    fn all_one_cluster_skew_flushes_partial_slots_correctly() {
        // Every tuple lands in cluster 0 (plus a 3-element tail in another),
        // with a total that is not a multiple of the staging slot size: the
        // flush path must drain partial slots exactly.
        let mut oids = vec![0 as Oid; SWWC_SLOT_ELEMS * 7 + 5];
        oids.extend([17 as Oid; 3]);
        let payloads: Vec<u32> = (0..oids.len() as u32).collect();
        let spec = RadixClusterSpec::single_pass(5);
        let expected = radix_cluster_oids(&oids, &payloads, spec);
        let mut scratch = ClusterScratch::new();
        let got = scratch.cluster_by(&oids, &payloads, spec, ScatterMode::Buffered, |&o| o as u64);
        assert_eq!(got, expected);
    }

    #[test]
    fn hashed_in_scratch_matches_public_kernel() {
        let keys: Vec<u64> = (0..5_000).map(|i| i * 37 % 1_000).collect();
        let payloads: Vec<u32> = (0..5_000).collect();
        let spec = RadixClusterSpec::new(6, 2);
        let expected = radix_cluster(&keys, &payloads, spec);
        let mut scratch = ClusterScratch::new();
        let view = scratch.cluster_hashed_in_scratch(&keys, &payloads, spec, ScatterMode::Auto);
        assert_eq!(view.keys(), expected.keys());
        assert_eq!(view.payloads(), expected.payloads());
        assert_eq!(view.bounds(), expected.bounds());
        for j in 0..view.num_clusters() {
            assert_eq!(view.cluster_keys(j), expected.cluster_keys(j));
            assert_eq!(view.cluster_payloads(j), expected.cluster_payloads(j));
            assert_eq!(view.cluster_range(j), expected.cluster_range(j));
        }
        assert_eq!(&view.to_clustered(), &expected);
        assert!(!view.is_empty());
        assert_eq!(view.spec(), &spec);
    }

    #[test]
    fn degenerate_paths_copy_input_once_and_uphold_bounds() {
        // bits == 0: one all-covering cluster; the only copy is the output
        // itself (the arena makes no flip-buffer copies on this path).
        let mut scratch: ClusterScratch<Oid, u32> = ClusterScratch::new();
        let oids = vec![5 as Oid, 3, 9];
        let pay = vec![0u32, 1, 2];
        let spec = RadixClusterSpec::single_pass(0);
        let owned = scratch.cluster_by(&oids, &pay, spec, ScatterMode::Auto, |&o| o as u64);
        assert_eq!(owned.keys(), &oids[..]);
        assert_eq!(owned.payloads(), &pay[..]);
        assert_eq!(owned.bounds(), &[0, 3]);
        let view = scratch.cluster_oids_in_scratch(&oids, &pay, spec, ScatterMode::Auto);
        assert_eq!(view.keys(), &oids[..]);
        assert_eq!(view.bounds(), &[0, 3]);
        // Empty input: H empty clusters.
        let view = scratch.cluster_oids_in_scratch(
            &[],
            &[],
            RadixClusterSpec::single_pass(3),
            ScatterMode::Auto,
        );
        assert!(view.is_empty());
        assert_eq!(view.num_clusters(), 8);
        assert_eq!(view.bounds(), &[0usize; 9][..]);
    }

    #[test]
    fn view_is_none_before_first_run() {
        let scratch: ClusterScratch<Oid, u32> = ClusterScratch::new();
        assert!(scratch.view().is_none());
        assert_eq!(scratch.resident_bytes(), 0);
    }

    #[test]
    fn owned_clustering_invalidates_the_previous_view() {
        // An owned-output `cluster_by` rewrites `segments` but not the front
        // buffers; serving the old view afterwards would pair arrays from
        // two different runs.  The view must be gone instead.
        let mut scratch: ClusterScratch<Oid, u32> = ClusterScratch::new();
        let small: Vec<Oid> = (0..64).rev().collect();
        let small_pay: Vec<u32> = (0..64).collect();
        let spec = RadixClusterSpec::single_pass(3);
        let view = scratch.cluster_oids_in_scratch(&small, &small_pay, spec, ScatterMode::Auto);
        assert_eq!(view.len(), 64);
        let big: Vec<Oid> = (0..4_096).rev().collect();
        let big_pay: Vec<u32> = (0..4_096).collect();
        let owned = scratch.cluster_by(
            &big,
            &big_pay,
            RadixClusterSpec::single_pass(6),
            ScatterMode::Auto,
            |&o| o as u64,
        );
        assert_eq!(owned.len(), 4_096);
        assert!(
            scratch.view().is_none(),
            "stale view must not survive an owned run"
        );
        // A fresh in-scratch run re-establishes a coherent view.
        let view = scratch.cluster_oids_in_scratch(&small, &small_pay, spec, ScatterMode::Auto);
        assert_eq!(
            view.to_clustered(),
            radix_cluster_oids(&small, &small_pay, spec)
        );
    }

    #[test]
    fn auto_mode_buffers_only_beyond_the_default_budget() {
        assert!(!ScatterMode::Auto.buffered_for(DEFAULT_SCATTER_CURSOR_BUDGET));
        assert!(ScatterMode::Auto.buffered_for(DEFAULT_SCATTER_CURSOR_BUDGET + 1));
        assert!(!ScatterMode::Plain.buffered_for(usize::MAX));
        assert!(ScatterMode::Buffered.buffered_for(2));
        assert_eq!(ScatterMode::default(), ScatterMode::Auto);
    }

    #[test]
    fn cursor_budgets_match_the_paper_platform() {
        let p = CacheParams::paper_pentium4();
        // 4096 L2 lines / 2 = 2048 — exactly the documented default.
        assert_eq!(scatter_cursor_budget(&p), DEFAULT_SCATTER_CURSOR_BUDGET);
        // Oid pairs (4 + 4 bytes): 256 KB of staging budget / 64-byte slots.
        assert_eq!(buffered_cursor_budget(8, &p), 4096);
        // Wider pairs shrink the buffered reach.
        assert!(buffered_cursor_budget(16, &p) < buffered_cursor_budget(8, &p));
    }

    #[test]
    fn plan_cluster_passes_prefers_one_buffered_pass_over_two_plain() {
        let p = CacheParams::paper_pentium4();
        // Within the plain budget: one plain pass.
        assert_eq!(plan_cluster_passes(10, 8, &p), (1, ScatterMode::Plain));
        assert_eq!(plan_cluster_passes(11, 8, &p), (1, ScatterMode::Plain));
        // Beyond plain but within the staging budget: ONE buffered pass
        // where the seed rule (`bits > 11 → 2 passes`) planned two.
        assert_eq!(plan_cluster_passes(12, 8, &p), (1, ScatterMode::Buffered));
        // Beyond both budgets: multi-pass plain, each pass within budget.
        let (passes, mode) = plan_cluster_passes(20, 8, &p);
        assert_eq!(mode, ScatterMode::Plain);
        assert_eq!(passes, 2);
        assert!(20u32.div_ceil(passes) <= 11);
        // Degenerate.
        assert_eq!(plan_cluster_passes(0, 8, &p), (1, ScatterMode::Plain));
    }
}
