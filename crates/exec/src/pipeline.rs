//! The memory-budgeted **streaming projection pipeline** — cluster →
//! decluster → fetch in chunks sized by an explicit
//! [`MemoryBudget`](rdx_core::budget::MemoryBudget).
//!
//! This is the one executor of the paper's DSM post-projection (§3, §4.1,
//! Fig. 4).  Materialising the whole projected relation at once would hold
//! `O(N · π)` value bytes plus a full `CLUST_VALUES` staging column per
//! projected attribute, which forfeits the paper's own regime of interest —
//! bounded fast memory — one level up the hierarchy.  The pipeline instead
//! streams the result through a [`RowChunkSink`] in contiguous chunks, and
//! a whole result is simply the one-chunk stream
//! ([`ProjectionPipeline::materialize`], under an unbounded budget):
//!
//! 1. **join** (Partitioned Hash-Join on the key columns) and **reorder**
//!    (the `u`/`s`/`c` code on the first side, a partial Radix-Cluster on
//!    the second) build the clustered oid/position arrays — the `4 N`-byte
//!    irreducible floor, the Fig. 4 `CLUST_SMALLER`/`CLUST_RESULT` analogue:
//!    every radix-clustered oid array is stored as 2-byte low bits under its
//!    cluster, [`PackedOids`], and every position as 2-byte low bits under
//!    its result block, [`PackedPositions`]; this whole prefix is factored
//!    out as [`PreparedProjection`] — a self-contained, *shareable* product
//!    (the serving layer caches it across queries under an `Arc`);
//! 2. the result rows are cut into row chunks of
//!    [`StreamingPlan::chunk_rows`] = `budget / bytes_per_row` rows, and
//!    each projected column × row chunk is one **column chunk**; each
//!    column runs through all of its chunks before the next column, as
//!    Fig. 4 runs one column per pass, so only one column's cluster
//!    regions compete for the cache and a chunk never evicts the regions
//!    the previous chunk of its column loaded;
//! 3. per declustered column chunk, a [`ChunkCursorState`] advances one
//!    cursor per cluster (§3.2's ascending-within-cluster property makes
//!    every result prefix a prefix of every cluster; a column that starts
//!    over rewinds the cursors in place), attribute values are fetched **on
//!    demand** from the base relations into a chunk-local `CLUST_VALUES`
//!    through the chunk's runs of the prefix's packed `CLUST_SMALLER`,
//!    declustered by the windowed kernel over the same runs of its
//!    `CLUST_RESULT` — both read in place, the decluster parallel across
//!    insertion windows — and emitted; a first-side or unsorted column
//!    chunk is one gather;
//! 4. the sink decides what full-result memory (if any) to pay, and lends
//!    it: the kernels write each column chunk's rows straight into the
//!    cells the sink lends for that column — [`MaterializeSink`]'s
//!    whole-result columns, [`rdx_core::strategy::FrameSink`]'s `Done`
//!    frame bodies — so each result value is written once, by a kernel, in
//!    its column's row order, and never copied.
//!
//! The chunk loop itself is a **resumable** [`PipelineRun`]: each
//! [`PipelineRun::step`] emits exactly one column chunk and returns, so a
//! scheduler can interleave column chunks from many concurrent queries —
//! their boundaries are natural preemption points, which is what makes the
//! multi-query serving layer (`rdx-serve`) possible.
//! [`ProjectionPipeline::materialize`] is simply `prepare` + `step` until
//! done into a [`MaterializeSink`].
//!
//! The output is **byte-identical**, in row order, for every budget, thread
//! count and step interleaving, because chunking changes only *when* a
//! result row is produced, never its value or position: each chunk is the
//! windowed kernel over the chunk's per-cluster runs, based at its first row
//! (`rdx_core::decluster::chunks`); the whole result is the chunk whose runs
//! are the clusters.
//!
//! **Fetch contract.**  §3's positional joins are "pointer-based joins …
//! with negligible CPU cost" only as tight array loops, so the chunk loop
//! never asks a relation for a value: *a source is asked for a block of one
//! column* ([`AttrSource::gather_into`]) — once per column chunk on one
//! worker and once per morsel on more, for the first side, the staged
//! `CLUST_VALUES` fill and the unsorted second side alike.  The column
//! lookup and the seqbase / record stride are paid per block; a unit test
//! pins the call count.  The run is generic over its
//! sources (`&DsmRelation`, `Arc<DsmRelation>`, a counting wrapper), so
//! the fetch is a direct call into the one gather loop,
//! `rdx_dsm::Column::gather_into_probed`, which a packed block runs once
//! per cluster run.  A side whose oids are stored in result order — the
//! first side, a `u` second side — is fetched by one arm; only a `d`
//! second side stages and declusters.
//!
//! **Profiling.**  Every kernel of a chunk — the one gather loop, for
//! both sides, and each smaller-side column's decluster — takes a
//! zero-sized [`rdx_cache::Probe`]: [`NoProbe`] in production, a
//! [`SimProbe`] over the run's simulated layout when
//! [`PipelineRun::attach_profile`] armed it.  A profiled run therefore
//! charges the cache simulator from the loops that ship, each column from
//! its own column and into its own output.
//!
//! **One clock.**  [`PipelineRun::step`] reads the clock once before a
//! column chunk's fetch and once after its emit, traced or not.  That one
//! interval is charged to the side's [`PhaseTimings`] field, and is what
//! an observer records (`pipeline.chunk_ns`, the `ChunkStep` event's
//! `observed_ns`) and a profile spans.

use crate::cluster::par_radix_cluster_oids;
use crate::decluster::par_radix_decluster_into;
use crate::join::par_partitioned_hash_join;
use crate::pool::{run_workers, Claims, ExecPolicy, DEFAULT_MORSEL_TUPLES};
use rdx_cache::{AddressSpace, CacheParams, MemorySystem, NoProbe, Probe, Region, Remap, SimProbe};
use rdx_core::cluster::{
    plan_partial_cluster, radix_sort_spec_for, PackedOids, PackedPositions, RadixClusterSpec,
};
use rdx_core::decluster::chunks::{ChunkCursorState, ChunkRuns};
use rdx_core::decluster::{DeclusterScratch, ResultPositions};
use rdx_core::error::{check_projection_widths, RdxError};
use rdx_core::join::join_cluster_spec;
use rdx_core::positional::{AttrSource, OidBlock};
use rdx_core::strategy::planner::{plan_streaming, StreamingPlan};
use rdx_core::strategy::sink::{MaterializeSink, RowChunkSink};
use rdx_core::strategy::{
    DsmPostProjection, PhaseTimings, ProjectionCode, QuerySpec, SecondSideCode, StrategyOutcome,
};
use rdx_dsm::{DsmRelation, FromValue, Oid, VALUE_WIDTH};
use rdx_obs::{EventKind, MissCounts, Obs, Phase, QueryId};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The second-side clustering spec the streaming pipeline uses for a
/// smaller relation of `smaller_tuples` tuples of 4-byte DSM values:
/// [`plan_partial_cluster`], the same call `plan_streaming` makes.
///
/// Exposed so layers that must *name* the clustering without building it —
/// the serving layer's clustered-index cache key — derive it from the same
/// function [`ProjectionPipeline::prepare`] uses, and cannot drift.
pub fn cluster_spec_for(smaller_tuples: usize, params: &CacheParams) -> RadixClusterSpec {
    plan_partial_cluster(smaller_tuples, VALUE_WIDTH, params)
}

/// Parallel block fetch of one column: `out[r]` = attribute `attr` of tuple
/// `oids[r]`, stored as its cell type (the value or its wire bytes), with
/// the source asked for blocks — never per value (the contract of
/// [`AttrSource`]) — whether the oids are plain or packed.  On one worker,
/// and under an active `probe`, the whole block is one call of the
/// source's gather on the caller's thread, so a probe's reference sequence
/// is the same at every thread count; more workers claim morsels of
/// [`DEFAULT_MORSEL_TUPLES`] rows, one call each.
pub fn par_gather_into<S: AttrSource + Sync, C: FromValue<i32> + Send, P: Probe>(
    source: &S,
    attr: usize,
    oids: OidBlock<'_>,
    policy: &ExecPolicy,
    out: &mut [C],
    probe: &mut P,
) {
    let threads = policy
        .threads
        .min(out.len().div_ceil(DEFAULT_MORSEL_TUPLES));
    if threads <= 1 || P::ACTIVE {
        return source.gather_into(attr, oids, out, probe);
    }
    let queue = Claims::new(out.chunks_mut(DEFAULT_MORSEL_TUPLES).enumerate());
    run_workers(threads, |_| {
        while let Some((i, block)) = queue.claim() {
            let offset = i * DEFAULT_MORSEL_TUPLES;
            let morsel = oids.slice(offset..offset + block.len());
            source.gather_into(attr, morsel, block, &mut NoProbe);
        }
    });
}

/// A planned streaming projection: the `u/s/c × u/d` codes of the underlying
/// DSM post-projection plus chunking derived from the policy's
/// [`MemoryBudget`] at execution time.
///
/// [`MemoryBudget`]: rdx_core::budget::MemoryBudget
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionPipeline {
    /// Projection codes, as for [`DsmPostProjection`].
    pub plan: DsmPostProjection,
}

/// The query-independent prefix of a streaming projection, ready to stream
/// chunks from: the join index (already reordered for the first side) and
/// the second-side partial clustering.
///
/// This is the expensive `O(N)` part — partitioned hash join, reorder,
/// radix-cluster — and it depends only on the two relations, the projection
/// codes and the clustering spec, **not** on the memory budget, the thread
/// count or the sink.  It is therefore the unit of *cross-query reuse*: the
/// serving layer keeps these in a byte-budgeted cache keyed by
/// `(relations, codes, cluster spec)` and starts every cache-hit query
/// directly at the chunk loop.  Fig. 4's `CLUST_SMALLER`/`CLUST_RESULT`
/// arrays, made a first-class shareable value.
#[derive(Debug, Clone)]
pub struct PreparedProjection {
    plan: DsmPostProjection,
    /// The first side's oids, then the second side's.  The first side's
    /// are always in result order.
    sides: [SideOids; 2],
    larger_cardinality: usize,
    smaller_cardinality: usize,
    timings: PhaseTimings,
}

/// What the chunk loop reads to fetch one side, and nothing else: a
/// declustering prefix cannot carry the column it was clustered from.
#[derive(Debug, Clone)]
enum SideOids {
    /// The side's oids in result order, fetched positionally: the first
    /// side under every code, and a `u` second side.
    InOrder(InOrder),
    /// A `d` second side: Fig. 4's `(oid, result position)` pairs,
    /// radix-clustered on oid — `CLUST_SMALLER` packed under its clusters,
    /// `CLUST_RESULT` under its result blocks.
    Clustered {
        smaller: PackedOids,
        positions: PackedPositions,
    },
}

/// Oids in result order.  A `c` reorder radix-clusters the first side's,
/// so they are stored packed under their clusters; `u` and `s`, and a `u`
/// second side, keep one [`Oid`] per row.
#[derive(Debug, Clone)]
enum InOrder {
    Wide(Vec<Oid>),
    Packed(PackedOids),
}

impl InOrder {
    /// The oids of result rows `rows`, with the index of the stored array
    /// the block's first oid is reported at: a wide block is its stretch of
    /// the stored oids, a packed one indexes the whole packed array.
    fn block(&self, rows: Range<usize>) -> (OidBlock<'_>, usize) {
        match self {
            InOrder::Wide(oids) => (OidBlock::Wide(&oids[rows.clone()]), rows.start),
            InOrder::Packed(oids) => (OidBlock::Packed(oids.slice(rows)), 0),
        }
    }
}

impl SideOids {
    /// Every oid of the side, as the array it is fetched through stores
    /// them.
    fn oids(&self) -> OidBlock<'_> {
        match self {
            SideOids::InOrder(InOrder::Wide(oids)) => OidBlock::Wide(oids),
            SideOids::InOrder(InOrder::Packed(oids))
            | SideOids::Clustered { smaller: oids, .. } => OidBlock::Packed(oids.as_slice()),
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            SideOids::InOrder(InOrder::Wide(oids)) => std::mem::size_of_val(oids.as_slice()),
            SideOids::InOrder(InOrder::Packed(oids)) => oids.resident_bytes(),
            SideOids::Clustered { smaller, positions } => {
                smaller.resident_bytes() + positions.resident_bytes()
            }
        }
    }
}

impl PreparedProjection {
    /// The projection codes this prefix was built for.
    pub fn plan(&self) -> DsmPostProjection {
        self.plan
    }

    /// Result cardinality (join-index length).
    pub fn result_rows(&self) -> usize {
        self.sides[0].oids().len()
    }

    /// Cardinality of the smaller relation the clustering was sized for.
    pub fn smaller_cardinality(&self) -> usize {
        self.smaller_cardinality
    }

    /// Wall-clock spent building this prefix (join + reorder + cluster).
    pub fn timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Resident heap bytes of this prefix — what a byte-budgeted cache
    /// charges for keeping it, which is exactly what it stores.  The first
    /// side's reordered oids cost 2 B/row plus the `H + 1` cluster borders
    /// when `c` clustered them, 4 B/row for `u` and `s`.  The second side
    /// adds either its result-order oids (4 B/row, unsorted fetch) or its
    /// packed `CLUST_SMALLER` (2 B/row) and cluster borders, and its packed
    /// `CLUST_RESULT` (2 B/row) and the 4 B start of each (cluster, 2^16-row
    /// block) sub-run (decluster).  A `c/d` prefix is therefore 6 B/row +
    /// borders and block starts, `u/d` and `s/d` 8 B/row.
    pub fn resident_bytes(&self) -> usize {
        self.sides.iter().map(SideOids::resident_bytes).sum()
    }

    /// The second side's clustered `CLUST_SMALLER` and `CLUST_RESULT`, when
    /// it declusters.
    fn clustered(&self) -> Option<(&PackedOids, &PackedPositions)> {
        match &self.sides[1] {
            SideOids::Clustered { smaller, positions } => Some((smaller, positions)),
            SideOids::InOrder(_) => None,
        }
    }
}

/// What one pipeline run did: the chunking it planned, what it actually
/// emitted, and the peak chunk working set the plan charged it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineStats {
    /// The chunking the planner derived from the budget.
    pub streaming: StreamingPlan,
    /// Row chunks' worth of column chunks handed to the sink (column chunks
    /// ÷ projected columns): the row-chunk count once the run is done.
    pub chunks_emitted: usize,
    /// The rows of those row chunks: the result's cardinality once the run
    /// is done.
    pub rows_emitted: usize,
    /// Largest row chunk's charge, in bytes: what
    /// [`rdx_core::strategy::planner::streaming_bytes_per_row`] prices — its
    /// rows of every output column, written into the sink's memory, and,
    /// when it declusters, its staged `CLUST_VALUES`, the only part the
    /// chunk's own scratch holds.  The clustered index every chunk reads in
    /// place is the prefix's (counted by
    /// [`PreparedProjection::resident_bytes`]).
    pub peak_chunk_bytes: usize,
    /// Phase wall-clock breakdown ([`PhaseTimings`] semantics): each
    /// chunk-loop phase is the sum of its column chunks' fetch and emit,
    /// the interval `pipeline.chunk_ns` records.
    pub timings: PhaseTimings,
}

/// The reusable per-run working memory of the streaming chunk loop: the
/// staged clustered values, the run list of the current chunk, and the
/// decluster cursor scratch.  It holds no output column — the kernels
/// write into the memory the sink lends.
///
/// The run's first step grows every buffer to its high-water mark — a
/// chunk's rows, one run per cluster — whichever column that step writes,
/// and later steps reuse them, which is what makes a steady-state
/// [`PipelineRun::step`] **allocation-free** on a single-threaded policy
/// (multi-threaded chunks still pay their scoped thread spawns).  The
/// serving layer pools these across queries in a batch
/// ([`PipelineRun::attach_scratch`] / [`PipelineRun::take_scratch`]), so a
/// stream of short queries stops paying per-query warm-up allocations too.
#[derive(Debug, Default)]
pub struct ChunkScratch {
    chunk: ChunkRuns,
    staged: Vec<i32>,
    decluster: DeclusterScratch,
}

impl ChunkScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows every buffer to hold a chunk of `rows` rows over `clusters`
    /// clusters.
    fn reserve(&mut self, rows: usize, clusters: usize) {
        self.staged.reserve(rows.saturating_sub(self.staged.len()));
        let runs = clusters.saturating_sub(self.chunk.runs.len());
        self.chunk.runs.reserve(runs);
        self.chunk.clusters.reserve(runs);
        self.decluster.reserve(clusters);
    }

    /// Resident heap bytes currently held (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        self.staged.capacity() * 4
            + self.chunk.runs.capacity() * std::mem::size_of::<std::ops::Range<usize>>()
            + self.chunk.clusters.capacity() * std::mem::size_of::<usize>()
            + self.decluster.resident_bytes()
    }
}

/// The per-run observability state a [`PipelineRun`] carries when tracing
/// is enabled: the query id its chunk events are keyed by, the cost
/// model's prediction of a first-side and of a second-side column chunk,
/// and the two histograms it records into —
/// resolved **once** at attach time, so the chunk loop's recording is
/// atomics plus one short trace-ring lock, with no registry lookups and no
/// allocations.
struct RunObs {
    obs: Obs,
    query: QueryId,
    predicted_ns: [u64; 2],
    chunk_ns: rdx_obs::Histogram,
    ratio_permille: rdx_obs::Histogram,
}

/// The cache-truth profiling state a [`PipelineRun`] carries when the
/// profiled mode is on: a persistent [`MemorySystem`], one [`Region`] per
/// array a chunk's kernels touch — laid out once, at attach, from one
/// [`AddressSpace`], so no two alias, and indexed by the layout ids below —
/// and the [`rdx_obs::Profile`] instruments.  Each step runs its kernels
/// under a [`SimProbe`] over these regions, which changes nothing a chunk
/// computes.  Profiling is opt-in because a probed kernel runs on one
/// worker and every reference it makes goes through the simulator.
struct RunProfile {
    profile: rdx_obs::Profile,
    obs: Obs,
    query: QueryId,
    mem: MemorySystem,
    regions: Vec<Region>,
}

/// Region ids of a profiled run's layout, in allocation order: each side's
/// stored oids, the staged `CLUST_VALUES`, the windowed decluster's
/// `CLUST_RESULT`, cursor array and block starts, then, per result column
/// `c`, the column it is read from (`COLUMNS + 2c`) and its output
/// (`COLUMNS + 2c + 1`).
const FIRST_OIDS: usize = 0;
const SECOND_OIDS: usize = 1;
const STAGED: usize = 2;
const STORED: usize = 3;
const CURSORS: usize = 4;
const STARTS: usize = 5;
const COLUMNS: usize = 6;

/// One in-flight streaming projection, resumable column chunk by column
/// chunk.
///
/// A run owns its cursor state and chunk position but only *shares* the
/// expensive [`PreparedProjection`] prefix (via `Arc`, so a cross-query
/// cache can hand the same prefix to many concurrent runs).  Each call to
/// [`PipelineRun::step`] emits exactly one column chunk — one projected
/// column × one row chunk — into the sink and returns; between calls the
/// run is a plain parked value, which is what lets a fair scheduler
/// interleave many queries at column-chunk granularity.  Stepping a run
/// to completion produces output byte-identical to the one-chunk
/// [`ProjectionPipeline::materialize`], independent of the budget and of
/// how steps interleave with other runs.
pub struct PipelineRun<R> {
    prepared: Arc<PreparedProjection>,
    /// The larger relation, then the smaller one.
    sources: [R; 2],
    spec: QuerySpec,
    policy: ExecPolicy,
    streaming: StreamingPlan,
    /// One cursor per cluster of a declustering prefix (none otherwise).
    cursors: ChunkCursorState,
    scratch: ChunkScratch,
    /// Column chunks written so far.
    steps: usize,
    peak_chunk_bytes: usize,
    timings: PhaseTimings,
    begun: bool,
    finished: bool,
    obs: Option<Box<RunObs>>,
    profile: Option<Box<RunProfile>>,
}

impl<R: AttrSource + Sync> PipelineRun<R> {
    /// A run over a prepared prefix, fetching from `larger` and `smaller`
    /// (`&DsmRelation`, an owning `Arc<DsmRelation>` a session can park
    /// across calls, or a wrapper such as a counting source), with the
    /// chunking planned from the policy's budget.
    ///
    /// # Panics
    /// Panics with [`check_projection_widths`]' error if the query asks for
    /// more projection columns than a source has; callers that must report
    /// it as a typed error check up front.
    pub fn new(
        prepared: Arc<PreparedProjection>,
        larger: R,
        smaller: R,
        spec: &QuerySpec,
        params: &CacheParams,
        policy: &ExecPolicy,
    ) -> Self {
        if let Err(e) = check_projection_widths(
            spec.project_larger,
            larger.width(),
            spec.project_smaller,
            smaller.width(),
        ) {
            panic!("{e}");
        }
        let streaming = plan_streaming(
            prepared.result_rows(),
            prepared.smaller_cardinality,
            spec,
            params,
            policy.budget,
            policy.threads,
        );
        let cursors = match prepared.clustered() {
            Some((smaller, _)) => {
                debug_assert_eq!(
                    *smaller.spec(),
                    streaming.cluster_spec,
                    "prepared clustering drifted from the streaming plan"
                );
                ChunkCursorState::new(smaller.bounds())
            }
            None => ChunkCursorState::default(),
        };
        PipelineRun {
            prepared,
            sources: [larger, smaller],
            spec: *spec,
            policy: *policy,
            streaming,
            cursors,
            scratch: ChunkScratch::new(),
            steps: 0,
            peak_chunk_bytes: 0,
            timings: PhaseTimings::default(),
            begun: false,
            finished: false,
            obs: None,
            profile: None,
        }
    }

    /// Attaches an observability handle: every subsequent [`Self::step`]
    /// records a `ChunkStep` trace event keyed by `query` plus the
    /// `pipeline.chunk_ns` and `pipeline.predicted_vs_observed_permille`
    /// histograms (observed ns × 1000 / the step's entry of `predicted_ns`,
    /// the caller's price of one first-side and of one second-side column
    /// chunk of this run — the Fig. 9 measured-vs-modeled comparison as a
    /// live distribution).  Histogram handles are resolved here, once, so
    /// the chunk loop itself never touches the registry.  Every column chunk
    /// reads one clock pair, observed or not — the reading its
    /// [`PhaseTimings`] field is charged — so observing adds only the
    /// recording.  An untraced `obs` is a no-op: the run stays exactly as
    /// cheap as an unobserved one.
    pub fn attach_obs(&mut self, obs: &Obs, query: QueryId, predicted_ns: [u64; 2]) {
        if !obs.is_enabled() {
            return;
        }
        let metrics = obs.metrics();
        self.obs = Some(Box::new(RunObs {
            obs: obs.clone(),
            query,
            predicted_ns,
            chunk_ns: metrics.histogram("pipeline.chunk_ns"),
            ratio_permille: metrics.histogram("pipeline.predicted_vs_observed_permille"),
        }));
    }

    /// Arms cache-truth profiling: every subsequent [`Self::step`] runs its
    /// kernels under a [`SimProbe`], charging the column chunk's memory
    /// accesses to a simulated [`MemorySystem`] under `params`, and records
    /// per-phase spans and per-column-chunk [`rdx_obs::MissCounts`] into `obs`
    /// (`ChunkProfile` trace events adjacent to each `ChunkStep`,
    /// `profile.*` metrics).  Output is untouched, so a profiled run stays
    /// byte-identical to an unprofiled one.  An untraced `obs` is a no-op:
    /// the run stays exactly as cheap as an unprofiled one.
    pub fn attach_profile(&mut self, obs: &Obs, query: QueryId, params: &CacheParams) {
        let Some(profile) = obs.profile() else {
            return; // untraced obs: stay as cheap as an unprofiled run
        };
        // The shared prefix's cluster build is accounted once, at attach —
        // prepare books its wall-clock under the decluster phase.
        profile.record_span(
            Phase::Cluster,
            self.prepared.timings.decluster.as_nanos() as u64,
        );
        let prepared = &self.prepared;
        let n = prepared.result_rows();
        let chunk_rows = self.streaming.chunk_rows.min(n).max(1);
        // The decluster's arrays as the prefix stores them: 2-byte
        // positions, one 8-byte cursor border per run and one more, 4-byte
        // block starts.
        let (stored, runs, starts) = match prepared.clustered() {
            Some((smaller, positions)) => (
                positions.stored().len(),
                smaller.num_clusters(),
                positions.starts_len(),
            ),
            None => (0, 0, 0),
        };
        let mut space = AddressSpace::new();
        let mut regions = vec![
            space.alloc(n.max(1), prepared.sides[0].oids().index_width()),
            space.alloc(n.max(1), prepared.sides[1].oids().index_width()),
            space.alloc(chunk_rows, VALUE_WIDTH),
            space.alloc(stored.max(1), std::mem::size_of::<u16>()),
            space.alloc(runs + 1, 8),
            space.alloc(starts.max(1), 4),
        ];
        let sides = [
            (self.spec.project_larger, prepared.larger_cardinality),
            (self.spec.project_smaller, prepared.smaller_cardinality),
        ];
        for (columns, cardinality) in sides {
            for _ in 0..columns {
                regions.push(space.alloc(cardinality.max(1), VALUE_WIDTH));
                regions.push(space.alloc(chunk_rows, VALUE_WIDTH));
            }
        }
        self.profile = Some(Box::new(RunProfile {
            profile,
            obs: obs.clone(),
            query,
            mem: MemorySystem::new(params),
            regions,
        }));
    }

    /// Replaces this run's chunk scratch with `scratch` (typically one
    /// harvested from a completed run via [`PipelineRun::take_scratch`]), so
    /// the warmed buffers carry over instead of being re-grown.  Purely a
    /// performance hand-off: results are unaffected.
    pub fn attach_scratch(&mut self, scratch: ChunkScratch) {
        self.scratch = scratch;
    }

    /// Takes this run's chunk scratch, leaving a fresh empty one — how a
    /// scratch pool reclaims the warmed buffers of a finished query.
    pub fn take_scratch(&mut self) -> ChunkScratch {
        std::mem::take(&mut self.scratch)
    }

    /// The chunking this run streams under.
    pub fn streaming(&self) -> &StreamingPlan {
        &self.streaming
    }

    /// The shared prefix this run streams from.
    pub fn prepared(&self) -> &PreparedProjection {
        &self.prepared
    }

    /// Column chunks per row chunk: one per projected column, and one that
    /// writes nothing for a zero-width projection.
    pub fn columns(&self) -> usize {
        self.spec.total().max(1)
    }

    /// Column chunks this run has left to write, the first side's and the
    /// second side's (whose columns run last) — the units of work a
    /// scheduler prices.
    pub fn column_chunks_left(&self) -> [usize; 2] {
        let chunks = self.streaming.num_chunks;
        let total = chunks * self.columns() * usize::from(self.prepared.result_rows() > 0);
        let second = (total - self.steps).min(self.spec.project_smaller * chunks);
        [total - self.steps - second, second]
    }

    /// Row chunks' worth of work done: column chunks written ÷ columns.
    /// It rises by one per row chunk's worth of column chunks and ends at
    /// the row-chunk count.
    fn chunks_emitted(&self) -> usize {
        self.steps / self.columns()
    }

    /// Result rows' worth of work done: the rows of
    /// [`PipelineStats::chunks_emitted`]'s row chunks, ending at the
    /// result's cardinality.
    pub fn rows_emitted(&self) -> usize {
        (self.chunks_emitted() * self.streaming.chunk_rows).min(self.prepared.result_rows())
    }

    /// `true` once the sink has been finished.
    pub fn is_done(&self) -> bool {
        self.finished
    }

    /// Writes the next column chunk into the memory `sink` lends, emits it
    /// and returns its row count, or `None` once the run is complete (the
    /// first `None` finishes the sink; further calls are no-ops).  Column
    /// 0 runs through all of its row chunks, then column 1, and so on.
    /// The sink's `begin` is called on the first step, so a run that joins
    /// to an empty result still performs the full `begin`/`finish`
    /// protocol while emitting zero chunks.
    pub fn step<K: RowChunkSink>(&mut self, sink: &mut K) -> Option<usize> {
        if self.finished {
            return None;
        }
        let n = self.prepared.result_rows();
        if !self.begun {
            sink.begin(n, self.spec.total());
            // The first step sizes the scratch for every column chunk of the
            // run, so no later step allocates, whichever column comes first.
            if let Some((smaller, _)) = self.prepared.clustered() {
                let rows = self.streaming.chunk_rows.min(n);
                self.scratch.reserve(rows, smaller.num_clusters());
            }
            self.begun = true;
        }
        if self.column_chunks_left() == [0, 0] {
            sink.finish();
            self.finished = true;
            return None;
        }

        let chunks = self.streaming.num_chunks;
        let (chunk, col) = (self.steps % chunks, self.steps / chunks);
        let first = chunk * self.streaming.chunk_rows;
        let rows = first..(first + self.streaming.chunk_rows).min(n);
        // What the plan charges the row chunk: its rows of the output
        // columns and, when it declusters, its staged values.
        let staged = self.prepared.clustered().is_some();
        let chunk_bytes = rows.len() * (self.spec.total() + usize::from(staged)) * VALUE_WIDTH;

        // A profiled step runs its kernels under one probe over the run's
        // layout; the profile is set aside while the kernels borrow the run.
        let mut profile = self.profile.take();
        let mut counts = None;
        // One clock pair per column chunk, traced or not, around its fetch
        // and emit: the side's `PhaseTimings` field, the observer and the
        // profile span all read that one interval.
        let span = (col < self.spec.total()).then(|| {
            let start = Instant::now();
            let (phase, total) = match profile.as_deref_mut() {
                Some(prof) => {
                    let mut probe = SimProbe::new(&mut prof.mem, &prof.regions);
                    let fetched = self.fetch_column(col, rows.clone(), sink, &mut probe);
                    counts = Some(probe.counts());
                    fetched
                }
                None => self.fetch_column(col, rows.clone(), sink, &mut NoProbe),
            };
            sink.emit(col, first, rows.len());
            let elapsed = start.elapsed();
            *total += elapsed;
            (phase, elapsed.as_nanos() as u64)
        });
        let observed_ns = span.map_or(0, |(_, ns)| ns);

        let step = self.steps as u32;
        self.steps += 1;
        self.peak_chunk_bytes = self.peak_chunk_bytes.max(chunk_bytes);
        if let Some(run_obs) = self.obs.as_deref() {
            run_obs.chunk_ns.record(observed_ns);
            let predicted_ns = run_obs.predicted_ns[usize::from(col >= self.spec.project_larger)];
            if let Some(permille) = observed_ns.saturating_mul(1000).checked_div(predicted_ns) {
                run_obs.ratio_permille.record(permille);
            }
            run_obs.obs.record(
                run_obs.query,
                EventKind::ChunkStep {
                    chunk: step,
                    rows: rows.len() as u32,
                    observed_ns,
                    predicted_ns,
                    working_set_bytes: chunk_bytes as u64,
                },
            );
        }
        if let (Some(prof), Some(counts), Some((phase, ns))) =
            (profile.as_deref_mut(), counts, span)
        {
            prof.profile.record_span(phase, ns);
            let params = prof.mem.params();
            let miss = MissCounts {
                accesses: counts.accesses,
                l1_misses: counts.l1_misses,
                l2_misses: counts.l2_misses,
                tlb_misses: counts.tlb_misses,
                stall_cycles: counts.stall_cycles(params).round() as u64,
            };
            prof.profile.record_chunk(&prof.obs, prof.query, step, miss);
        }
        self.profile = profile;
        Some(rows.len())
    }

    /// Writes result rows `rows` of column `col` into the cells `sink`
    /// lends: one gather for a side whose oids are stored in result order,
    /// and for a `d` second side a gather into the staged `CLUST_VALUES`
    /// and its decluster.  Every kernel reports to `probe` in the profiled
    /// layout's ids ([`RunProfile`]).  Returns the column's phase and the
    /// [`PhaseTimings`] field its wall-clock is charged to.
    fn fetch_column<K: RowChunkSink, P: Probe>(
        &mut self,
        col: usize,
        rows: Range<usize>,
        sink: &mut K,
        probe: &mut P,
    ) -> (Phase, &mut Duration) {
        let side = usize::from(col >= self.spec.project_larger);
        let attr = col - side * self.spec.project_larger;
        let (source, policy) = (&self.sources[side], &self.policy);
        // The side's stored oids, the column's source and its output.
        let oids_region = [FIRST_OIDS, SECOND_OIDS][side];
        let (column, output) = (COLUMNS + 2 * col, COLUMNS + 2 * col + 1);
        let timings = &mut self.timings;
        match &self.prepared.sides[side] {
            SideOids::InOrder(oids) => {
                let (oids, at) = oids.block(rows.clone());
                let arrays = [(oids_region, at), (column, 0), (output, 0)];
                let out = sink.column(col, rows);
                let mut probe = Remap::new(probe, arrays);
                par_gather_into(source, attr, oids, policy, out, &mut probe);
                let total = match side {
                    0 => &mut timings.project_larger,
                    _ => &mut timings.project_smaller,
                };
                (Phase::Fetch, total)
            }
            SideOids::Clustered { smaller, positions } => {
                let ChunkScratch {
                    chunk,
                    staged,
                    decluster,
                } = &mut self.scratch;
                // The cursors stand at the end of the last chunk they cut:
                // a column that starts over rewinds them in place, and a
                // one-chunk run's columns share its one cut.
                let cursors = &mut self.cursors;
                if cursors.consumed() != rows.end {
                    if rows.start == 0 {
                        cursors.reset(smaller.bounds());
                    }
                    cursors.next_chunk_into(positions, rows.end, chunk);
                }
                let chunk = &*chunk;
                debug_assert_eq!(chunk.result_range, rows);
                // The chunk's runs of CLUST_SMALLER (still packed) and
                // CLUST_RESULT, read in place; a whole-result chunk's runs
                // are the clusters.
                let oids = OidBlock::Packed(smaller.select(&chunk.runs));
                staged.resize(rows.len(), 0);
                // On-demand clustered positional join: the chunk's
                // CLUST_VALUES, never the whole column.
                let mut gather =
                    Remap::new(&mut *probe, [(oids_region, 0), (column, 0), (STAGED, 0)]);
                par_gather_into(source, attr, oids, policy, staged, &mut gather);
                // The windowed kernel's arrays, in `probe_regions` order.
                let arrays = [
                    (STAGED, 0),
                    (STORED, 0),
                    (output, 0),
                    (CURSORS, 0),
                    (STARTS, 0),
                ];
                par_radix_decluster_into(
                    staged,
                    positions,
                    chunk,
                    self.streaming.window_bytes,
                    policy,
                    decluster,
                    sink.column(col, rows),
                    &mut Remap::new(probe, arrays),
                );
                (Phase::Decluster, &mut timings.decluster)
            }
        }
    }

    /// Steps the run to completion.
    pub fn run_to_completion<K: RowChunkSink>(&mut self, sink: &mut K) {
        while self.step(sink).is_some() {}
    }

    /// Statistics for this run alone: chunk-loop timings only, *excluding*
    /// the shared prefix (whose build time a cache-hit run never paid — see
    /// [`PreparedProjection::timings`] for that side).
    pub fn run_stats(&self) -> PipelineStats {
        PipelineStats {
            streaming: self.streaming,
            chunks_emitted: self.chunks_emitted(),
            rows_emitted: self.rows_emitted(),
            peak_chunk_bytes: self.peak_chunk_bytes,
            timings: self.timings,
        }
    }

    /// Statistics with the prepare-phase timings folded in — what a cold
    /// (cache-miss) end-to-end execution reports.
    pub fn stats(&self) -> PipelineStats {
        let mut stats = self.run_stats();
        let prep = self.prepared.timings;
        stats.timings.join += prep.join;
        stats.timings.reorder += prep.reorder;
        stats.timings.decluster += prep.decluster;
        stats
    }
}

impl ProjectionPipeline {
    /// A pipeline running the given projection codes.
    pub fn new(plan: DsmPostProjection) -> Self {
        ProjectionPipeline { plan }
    }

    /// Builds the shareable prefix for a projection over two DSM relations:
    /// join over the key columns, reorder for the first side, partial-cluster
    /// the second side on exactly the clustering the streaming planner
    /// prices (`StreamingPlan::cluster_spec` stays the single source of
    /// truth).
    pub fn prepare(
        &self,
        larger: &DsmRelation,
        smaller: &DsmRelation,
        params: &CacheParams,
        policy: &ExecPolicy,
    ) -> PreparedProjection {
        let (larger_cardinality, smaller_cardinality) =
            (larger.cardinality(), smaller.cardinality());
        let mut timings = PhaseTimings::default();

        // Phase 1: join index over the key columns only.
        let t = Instant::now();
        let join_spec = join_cluster_spec(smaller_cardinality, params.cache_capacity());
        let join_index = par_partitioned_hash_join(
            larger.key().as_slice(),
            smaller.key().as_slice(),
            join_spec,
            policy,
        );
        timings.join = t.elapsed();

        // Phase 2: reorder for the first side (determines the result order):
        // `u` keeps the join index, `s` Radix-Sorts it on the first side's
        // oids with the pass count the cost planner prices, and `c`
        // partially Radix-Clusters it (§3.1) and packs it under its clusters.
        let t = Instant::now();
        let (larger_oids, smaller_oids) = (join_index.larger(), join_index.smaller());
        let reorder = |spec| par_radix_cluster_oids(larger_oids, smaller_oids, spec, policy);
        let (first, second_oids) = match self.plan.first_side {
            ProjectionCode::Unsorted => {
                (InOrder::Wide(larger_oids.to_vec()), smaller_oids.to_vec())
            }
            ProjectionCode::Sorted => {
                let spec = radix_sort_spec_for(larger_cardinality, params);
                let (first_oids, second_oids, _) = reorder(spec).into_parts();
                (InOrder::Wide(first_oids), second_oids)
            }
            ProjectionCode::PartialCluster => {
                let spec = cluster_spec_for(larger_cardinality, params);
                let (packed, second_oids) = PackedOids::pack(reorder(spec));
                (InOrder::Packed(packed), second_oids)
            }
        };
        drop(join_index);
        timings.reorder = t.elapsed();

        // Phase 3: second-side partial clustering (the 4 N-byte packed
        // CLUST_SMALLER / CLUST_RESULT floor the chunks stream over), on the
        // §3.1 spec `plan_streaming` also derives — the same
        // `plan_partial_cluster` rule, so prepared prefix and streaming plan
        // can never drift apart, including the pass count.  Counted as
        // decluster time.
        let first = SideOids::InOrder(first);
        let n = first.oids().len();
        let cluster_spec = cluster_spec_for(smaller_cardinality, params);
        let t = Instant::now();
        let second = match self.plan.second_side {
            SecondSideCode::Decluster => {
                let result_positions: Vec<Oid> = (0..n as Oid).collect();
                let (smaller, positions) = PackedOids::pack(par_radix_cluster_oids(
                    &second_oids,
                    &result_positions,
                    cluster_spec,
                    policy,
                ));
                let positions = PackedPositions::pack(&positions, smaller.bounds());
                SideOids::Clustered { smaller, positions }
            }
            SecondSideCode::Unsorted => SideOids::InOrder(InOrder::Wide(second_oids)),
        };
        timings.decluster += t.elapsed();

        PreparedProjection {
            plan: self.plan,
            sides: [first, second],
            larger_cardinality,
            smaller_cardinality,
            timings,
        }
    }

    /// Materialises the whole result: validates the spec, prepares the
    /// prefix and streams a run into a [`MaterializeSink`] under the
    /// policy's budget — one chunk under the default unbounded budget.  The
    /// kernels write straight into the sink's result columns.  The one
    /// whole-result entry; "sequential" is [`ExecPolicy::with_threads`]`(1)`.
    ///
    /// Empty relations and zero-width specs are degenerate successes.
    ///
    /// # Errors
    /// [`RdxError::TooManyColumns`] if the query asks for more projection
    /// columns than either relation has.
    pub fn materialize(
        &self,
        larger: &DsmRelation,
        smaller: &DsmRelation,
        spec: &QuerySpec,
        params: &CacheParams,
        policy: &ExecPolicy,
    ) -> Result<(StrategyOutcome, PipelineStats), RdxError> {
        check_projection_widths(
            spec.project_larger,
            larger.width(),
            spec.project_smaller,
            smaller.width(),
        )?;
        let prepared = Arc::new(self.prepare(larger, smaller, params, policy));
        let mut run = PipelineRun::new(prepared, larger, smaller, spec, params, policy);
        let mut sink = MaterializeSink::new();
        run.run_to_completion(&mut sink);
        let stats = run.stats();
        let outcome = StrategyOutcome {
            result: sink.into_result(),
            timings: stats.timings,
        };
        Ok((outcome, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_core::budget::MemoryBudget;
    use rdx_core::error::Side;
    use rdx_core::strategy::planner::plan_by_cost_with_threads;
    use rdx_core::strategy::reference::{reference_rows, result_rows};
    use rdx_core::strategy::sink::CountingSink;
    use rdx_core::strategy::ProjectionCode;
    use rdx_dsm::Column;
    use rdx_workload::JoinWorkloadBuilder;

    /// The six `u/s/c × u/d` code pairs of §4.1.
    const CODES: [(ProjectionCode, SecondSideCode); 6] = [
        (ProjectionCode::Unsorted, SecondSideCode::Unsorted),
        (ProjectionCode::Unsorted, SecondSideCode::Decluster),
        (ProjectionCode::Sorted, SecondSideCode::Unsorted),
        (ProjectionCode::Sorted, SecondSideCode::Decluster),
        (ProjectionCode::PartialCluster, SecondSideCode::Unsorted),
        (ProjectionCode::PartialCluster, SecondSideCode::Decluster),
    ];

    /// The first side's oids of result rows `rows`, widened.
    fn first_side(prepared: &PreparedProjection, rows: Range<usize>) -> Vec<Oid> {
        let SideOids::InOrder(oids) = &prepared.sides[0] else {
            panic!("the first side is in result order");
        };
        widen(oids.block(rows).0)
    }

    /// A block's oids widened to [`Oid`].
    fn widen(block: OidBlock<'_>) -> Vec<Oid> {
        match block {
            OidBlock::Wide(oids) => oids.to_vec(),
            OidBlock::Packed(oids) => {
                let mut out = Vec::new();
                oids.extend_into(&mut out);
                out
            }
        }
    }

    fn raw_columns(outcome: &StrategyOutcome) -> Vec<Vec<i32>> {
        outcome
            .result
            .columns()
            .iter()
            .map(|c| c.as_slice().to_vec())
            .collect()
    }

    /// Prepares and streams one run into `sink`, returning its folded stats.
    fn stream(
        pipeline: ProjectionPipeline,
        larger: &DsmRelation,
        smaller: &DsmRelation,
        spec: &QuerySpec,
        params: &CacheParams,
        policy: &ExecPolicy,
        sink: &mut impl RowChunkSink,
    ) -> PipelineStats {
        let prepared = Arc::new(pipeline.prepare(larger, smaller, params, policy));
        let mut run = PipelineRun::new(prepared, larger, smaller, spec, params, policy);
        run.run_to_completion(sink);
        run.stats()
    }

    #[test]
    fn materialize_is_the_reference_for_every_code_and_thread_count() {
        let w = JoinWorkloadBuilder::equal(3_000, 2).seed(5).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let expected = reference_rows(&w.larger, &w.smaller, &spec);
        for (first, second) in CODES {
            let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(first, second));
            let label = pipeline.plan.label();
            let materialize = |threads| {
                let policy = ExecPolicy::with_threads(threads);
                let (out, stats) = pipeline
                    .materialize(&w.larger, &w.smaller, &spec, &params, &policy)
                    .unwrap();
                assert_eq!(stats.chunks_emitted, 1, "{label}: one chunk");
                out
            };
            let sequential = materialize(1);
            assert_eq!(result_rows(&sequential.result), expected, "{label}");
            assert_eq!(sequential.result.cardinality(), w.expected_matches);
            for threads in [4, 8] {
                assert_eq!(
                    materialize(threads).result,
                    sequential.result,
                    "{label}: threads {threads}"
                );
            }
        }
    }

    #[test]
    fn every_budget_streams_the_one_chunk_bytes_for_every_code() {
        let w = JoinWorkloadBuilder::equal(3_000, 2).seed(7).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let data_bytes = 2 * 3_000 * 2 * VALUE_WIDTH;
        for (first, second) in CODES {
            let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(first, second));
            let label = pipeline.plan.label();
            let (whole, _) = pipeline
                .materialize(
                    &w.larger,
                    &w.smaller,
                    &spec,
                    &params,
                    &ExecPolicy::with_threads(1),
                )
                .unwrap();
            assert_eq!(
                result_rows(&whole.result),
                reference_rows(&w.larger, &w.smaller, &spec),
                "{label}"
            );
            let expected = raw_columns(&whole);
            for denom in [1usize, 16, 64] {
                let policy = ExecPolicy::with_threads(2)
                    .budget(MemoryBudget::fraction_of(data_bytes, denom));
                let (out, stats) = pipeline
                    .materialize(&w.larger, &w.smaller, &spec, &params, &policy)
                    .unwrap();
                assert_eq!(raw_columns(&out), expected, "{label} denom {denom}");
                assert_eq!(stats.rows_emitted, w.expected_matches);
                if denom > 1 {
                    assert!(stats.chunks_emitted > 1, "denom {denom} did not chunk");
                }
            }
        }
    }

    #[test]
    fn materialize_works_with_asymmetric_projection() {
        let w = JoinWorkloadBuilder::equal(1_000, 3).seed(8).build();
        let spec = QuerySpec {
            project_larger: 3,
            project_smaller: 1,
        };
        let params = CacheParams::tiny_for_tests();
        let plan = DsmPostProjection::plan(&w.larger, &w.smaller, &params);
        let (out, _) = ProjectionPipeline::new(plan)
            .materialize(
                &w.larger,
                &w.smaller,
                &spec,
                &params,
                &ExecPolicy::with_threads(1),
            )
            .unwrap();
        assert_eq!(
            result_rows(&out.result),
            reference_rows(&w.larger, &w.smaller, &spec)
        );
        assert_eq!(out.result.num_columns(), 4);
    }

    #[test]
    fn materialize_populates_the_phase_timings() {
        let w = JoinWorkloadBuilder::equal(2_000, 1).build();
        let params = CacheParams::tiny_for_tests();
        let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        ));
        for threads in [1, 2] {
            let (out, stats) = pipeline
                .materialize(
                    &w.larger,
                    &w.smaller,
                    &QuerySpec::symmetric(1),
                    &params,
                    &ExecPolicy::with_threads(threads),
                )
                .unwrap();
            assert!(out.timings.total().as_nanos() > 0);
            assert!(out.timings.join.as_nanos() > 0);
            assert_eq!(out.timings, stats.timings);
        }
    }

    #[test]
    fn materialize_reports_over_projection_as_a_typed_error_on_either_side() {
        let w = JoinWorkloadBuilder::equal(100, 1).build();
        let params = CacheParams::tiny_for_tests();
        let pipeline =
            ProjectionPipeline::new(DsmPostProjection::plan(&w.larger, &w.smaller, &params));
        let materialize = |spec| {
            pipeline
                .materialize(
                    &w.larger,
                    &w.smaller,
                    &spec,
                    &params,
                    &ExecPolicy::with_threads(1),
                )
                .unwrap_err()
        };
        assert_eq!(
            materialize(QuerySpec::symmetric(5)),
            RdxError::TooManyColumns {
                side: Side::Larger,
                requested: 5,
                available: 1
            }
        );
        assert_eq!(
            materialize(QuerySpec {
                project_larger: 1,
                project_smaller: 5,
            }),
            RdxError::TooManyColumns {
                side: Side::Smaller,
                requested: 5,
                available: 1
            }
        );
    }

    #[test]
    fn zero_width_specs_and_empty_relations_are_degenerate_successes() {
        let w = JoinWorkloadBuilder::equal(200, 1).seed(2).build();
        let empty = DsmRelation::new(Column::from_vec(vec![]), vec![Column::from_vec(vec![])]);
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1);
        for (first, second) in CODES {
            let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(first, second));
            let label = pipeline.plan.label();
            let (out, _) = pipeline
                .materialize(
                    &w.larger,
                    &w.smaller,
                    &QuerySpec::symmetric(0),
                    &params,
                    &policy,
                )
                .expect("zero-width spec must run");
            assert_eq!(out.result.num_columns(), 0, "{label}");
            let (out, stats) = pipeline
                .materialize(&empty, &empty, &QuerySpec::symmetric(1), &params, &policy)
                .expect("empty relations must run");
            assert_eq!(out.result.cardinality(), 0, "{label}");
            assert_eq!(out.result.num_columns(), 2, "{label}");
            assert_eq!(stats.chunks_emitted, 0, "{label}");
        }
    }

    /// The packing rule at a large cache share: 512 KB lets one cluster
    /// span more than `2^16` oids, so the planner raises the bits, the
    /// prefix packs, and the one-chunk run still computes the reference.
    #[test]
    fn packed_prefix_at_a_large_share_materializes_the_reference() {
        let n = (1 << 17) + 3;
        let w = JoinWorkloadBuilder::equal(n, 1).seed(3).build();
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::paper_pentium4();
        let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        ));
        let policy = ExecPolicy::with_threads(1);
        let prepared = pipeline.prepare(&w.larger, &w.smaller, &params, &policy);
        let SideOids::Clustered { smaller, .. } = &prepared.sides[1] else {
            panic!("a decluster plan clusters the second side");
        };
        assert_eq!(smaller.spec().ignore, rdx_core::cluster::PACKED_LOW_BITS);
        assert!(matches!(
            prepared.sides[0],
            SideOids::InOrder(InOrder::Packed(_))
        ));
        let (out, _) = pipeline
            .materialize(&w.larger, &w.smaller, &spec, &params, &policy)
            .unwrap();
        assert_eq!(
            result_rows(&out.result),
            reference_rows(&w.larger, &w.smaller, &spec)
        );
    }

    /// The peak stays inside the budget and the plan's bound, and equals the
    /// price exactly: a declustering chunk holds its output columns and one
    /// staged column, whether it is the whole result or a part of it.
    #[test]
    fn peak_working_set_respects_the_budget() {
        use rdx_core::strategy::planner::streaming_bytes_per_row;

        let w = JoinWorkloadBuilder::equal(4_096, 1).seed(3).build();
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();
        let plan = DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        );
        for budget in [
            MemoryBudget::bytes(512),
            MemoryBudget::bytes(4 * 1024),
            MemoryBudget::bytes(64 * 1024),
            MemoryBudget::unbounded(),
        ] {
            let budget_bytes = budget.limit_bytes();
            let policy = ExecPolicy::with_threads(2).budget(budget);
            let mut sink = CountingSink::new(MaterializeSink::new());
            let stats = stream(
                ProjectionPipeline::new(plan),
                &w.larger,
                &w.smaller,
                &spec,
                &params,
                &policy,
                &mut sink,
            );
            assert!(
                stats.peak_chunk_bytes <= stats.streaming.max_working_set_bytes(),
                "budget {budget_bytes}: peak {} exceeds planned bound {}",
                stats.peak_chunk_bytes,
                stats.streaming.max_working_set_bytes()
            );
            assert!(
                stats.peak_chunk_bytes <= budget_bytes,
                "budget {budget_bytes}: peak {}",
                stats.peak_chunk_bytes
            );
            assert_eq!(sink.chunks, stats.chunks_emitted);
            assert_eq!(
                sink.max_chunk_rows,
                stats.streaming.chunk_rows.min(sink.rows)
            );
            assert_eq!(
                stats.peak_chunk_bytes,
                stats.streaming.chunk_rows.min(sink.rows) * streaming_bytes_per_row(&spec),
                "budget {budget_bytes}: the peak is the price"
            );
        }
    }

    /// The scratch a run hands back holds what its chunk stages — the
    /// staged `CLUST_VALUES`, runs and cursors — and no output column: per
    /// row of its largest chunk, a multi-chunk run leaves what a one-chunk
    /// run leaves, one staged value.
    #[test]
    fn a_multi_chunk_run_hands_back_the_one_chunk_scratch_per_row() {
        let w = JoinWorkloadBuilder::equal(4_000, 2).seed(7).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::paper_pentium4();
        let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        ));
        let per_row = |budget| {
            let policy = ExecPolicy::with_threads(1).budget(budget);
            let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
            let mut run =
                PipelineRun::new(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
            run.run_to_completion(&mut MaterializeSink::new());
            let largest_chunk = run.streaming().chunk_rows.min(run.rows_emitted());
            let chunks = run.run_stats().chunks_emitted;
            (chunks, run.take_scratch().resident_bytes() / largest_chunk)
        };
        let (one, whole) = per_row(MemoryBudget::unbounded());
        let (chunks, multi) = per_row(MemoryBudget::bytes(16 * 1024));
        assert_eq!(one, 1);
        assert!(chunks > 1, "{chunks} chunks");
        assert_eq!(multi, whole, "{chunks} chunks");
        assert_eq!(whole, VALUE_WIDTH);
    }

    #[test]
    fn prefix_charges_only_what_the_chunk_loop_reads() {
        let n = 3_000;
        let w = JoinWorkloadBuilder::equal(n, 1).seed(5).build();
        let params = CacheParams::tiny_for_tests();
        for first in [
            ProjectionCode::Unsorted,
            ProjectionCode::Sorted,
            ProjectionCode::PartialCluster,
        ] {
            for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
                let prepared =
                    ProjectionPipeline::new(DsmPostProjection::with_codes(first, second)).prepare(
                        &w.larger,
                        &w.smaller,
                        &params,
                        &ExecPolicy::with_threads(2),
                    );
                assert_eq!(prepared.result_rows(), n);
                // First side: a 2 B packed oid per row plus borders for `c`,
                // a 4 B oid for `u` and `s`.
                let first_bytes = match &prepared.sides[0] {
                    SideOids::InOrder(InOrder::Packed(oids)) => {
                        assert_eq!(first, ProjectionCode::PartialCluster);
                        assert!(
                            oids.num_clusters() > 1,
                            "tiny cache clusters the first side"
                        );
                        2 * n + std::mem::size_of_val(oids.bounds())
                    }
                    SideOids::InOrder(InOrder::Wide(_)) => 4 * n,
                    SideOids::Clustered { .. } => panic!("the first side is in result order"),
                };
                let second_bytes = match &prepared.sides[1] {
                    // A 4 B second-side oid per row.
                    SideOids::InOrder(InOrder::Wide(oids)) => {
                        assert_eq!(second, SecondSideCode::Unsorted);
                        assert_eq!(oids.len(), n);
                        4 * n
                    }
                    // A 2 B packed oid and a 2 B packed position per row,
                    // the borders, and a 4 B start per (cluster, block):
                    // 3 000 rows are one block.
                    SideOids::Clustered { smaller, positions } => {
                        assert_eq!(second, SecondSideCode::Decluster);
                        assert_eq!((smaller.len(), positions.len()), (n, n));
                        let starts = 4 * (smaller.num_clusters() + 1);
                        4 * n + std::mem::size_of_val(smaller.bounds()) + starts
                    }
                    SideOids::InOrder(InOrder::Packed(_)) => {
                        panic!("a `u` second side keeps one oid per row")
                    }
                };
                assert_eq!(
                    prepared.resident_bytes(),
                    first_bytes + second_bytes,
                    "{first:?}/{second:?}"
                );
            }
        }
    }

    /// Every `c/d` shape `planner::benchmark_shapes_keep_their_plans` pins
    /// (the `scan_cold` pair and the six declustering `mix_budget_wire`
    /// tenants), prepared the way the engine prepares it at a quarter of the
    /// cache, charges at most 6.25 B per row: 2 B per first-side oid,
    /// `CLUST_SMALLER` oid and `CLUST_RESULT` position, plus borders and
    /// block starts.
    #[test]
    fn packed_prefix_of_every_declustering_benchmark_shape_is_at_most_6_25_bytes_per_row() {
        let params = CacheParams::paper_pentium4().per_query_share(4);
        let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        ));
        for n in [1_000_000, 200_000, 150_000, 100_000, 80_000, 60_000] {
            let w = JoinWorkloadBuilder::equal(n, 1).seed(11).build();
            let prepared =
                pipeline.prepare(&w.larger, &w.smaller, &params, &ExecPolicy::with_threads(2));
            assert_eq!(prepared.result_rows(), n);
            assert!(
                prepared.resident_bytes() * 4 <= n * 25,
                "n={n}: {} B",
                prepared.resident_bytes()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Packed ≡ wide.  Over `c/d`, `c/u`, `s/d` and `u/d` (rotated across
        /// the sizes), results of 0, 1, 2^16 − 1, 2^16, 2^16 + 1 and a random
        /// ≤ 300 k rows, at a tiny and at a large cache share: every packed
        /// prefix array widens to exactly the `u32` array the sequential
        /// kernels build, the whole-result run computes the reference rows,
        /// and a multi-chunk run streams the whole-result run's bytes.
        #[test]
        fn packed_prefix_widens_to_the_wide_arrays_and_streams_the_same_bytes(
            code_offset in 0usize..4,
            large_share in 0usize..2,
            random_rows in 0usize..300_001,
            seed in 0u64..1_000,
        ) {
            use rdx_core::cluster::{plan_partial_cluster, radix_cluster_oids, radix_sort_spec_for};
            use rdx_core::join::partitioned_hash_join;
            use rdx_core::strategy::planner::streaming_bytes_per_row;
            use ProjectionCode::{PartialCluster as C, Sorted as S, Unsorted as U};
            use SecondSideCode::{Decluster as D, Unsorted as Uu};

            let codes = [(C, D), (C, Uu), (S, D), (U, D)];
            let params = if large_share == 1 {
                CacheParams::paper_pentium4()
            } else {
                CacheParams::tiny_for_tests()
            };
            let spec = QuerySpec::symmetric(2);
            let policy = ExecPolicy::with_threads(2);
            let sizes = [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, random_rows];
            for (i, n) in sizes.into_iter().enumerate() {
                let (first, second) = codes[(i + code_offset) % codes.len()];
                let plan = DsmPostProjection::with_codes(first, second);
                let label = format!("{} n={n} large_share={large_share}", plan.label());
                let w = JoinWorkloadBuilder::equal(n, 2).seed(seed).build();
                let pipeline = ProjectionPipeline::new(plan);
                let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));

                // The wide arrays, built by the sequential kernels.
                let join_index = partitioned_hash_join(
                    w.larger.key().as_slice(),
                    w.smaller.key().as_slice(),
                    join_cluster_spec(n, params.cache_capacity()),
                );
                let (first_oids, second_oids) = match first {
                    U => (join_index.larger().to_vec(), join_index.smaller().to_vec()),
                    S | C => {
                        let reorder = if first == S {
                            radix_sort_spec_for(n, &params)
                        } else {
                            plan_partial_cluster(n, VALUE_WIDTH, &params)
                        };
                        let (keys, payloads, _) =
                            radix_cluster_oids(join_index.larger(), join_index.smaller(), reorder)
                                .into_parts();
                        (keys, payloads)
                    }
                };
                let rows = first_oids.len();
                proptest::prop_assert_eq!(prepared.result_rows(), rows, "{}", label);
                proptest::prop_assert_eq!(
                    matches!(prepared.sides[0], SideOids::InOrder(InOrder::Packed(_))),
                    first == C,
                    "{}",
                    label
                );
                proptest::prop_assert!(
                    first_side(&prepared, 0..rows) == first_oids,
                    "{}: first side",
                    label
                );
                match &prepared.sides[1] {
                    SideOids::Clustered { smaller, positions } => {
                        let result_positions: Vec<Oid> = (0..rows as Oid).collect();
                        let wide = radix_cluster_oids(
                            &second_oids,
                            &result_positions,
                            cluster_spec_for(n, &params),
                        );
                        proptest::prop_assert!(smaller.spec().ignore <= 16, "{}", label);
                        proptest::prop_assert_eq!(smaller.spec(), wide.spec(), "{}", label);
                        proptest::prop_assert!(
                            smaller.to_oids() == wide.keys(),
                            "{}: CLUST_SMALLER",
                            label
                        );
                        proptest::prop_assert!(
                            positions.to_positions() == wide.payloads(),
                            "{}: CLUST_RESULT",
                            label
                        );
                        proptest::prop_assert_eq!(smaller.bounds(), wide.bounds(), "{}", label);
                    }
                    SideOids::InOrder(oids) => {
                        proptest::prop_assert!(
                            matches!(oids, InOrder::Wide(oids) if *oids == second_oids),
                            "{}",
                            label
                        );
                    }
                }

                let reference = reference_rows(&w.larger, &w.smaller, &spec);
                let mut expected = None;
                let row_bytes = streaming_bytes_per_row(&spec);
                let chunked = MemoryBudget::bytes((rows * row_bytes / 5).max(row_bytes));
                for budget in [MemoryBudget::unbounded(), chunked] {
                    let policy = policy.budget(budget);
                    let mut run = PipelineRun::new(
                        prepared.clone(),
                        &w.larger,
                        &w.smaller,
                        &spec,
                        &params,
                        &policy,
                    );
                    let mut sink = MaterializeSink::new();
                    run.run_to_completion(&mut sink);
                    let chunks = run.run_stats().chunks_emitted;
                    proptest::prop_assert!(budget.is_bounded() == (chunks > 1) || rows < 5);
                    let got = sink.into_result();
                    match &expected {
                        // The unbounded budget runs first: one chunk, the
                        // reference rows.
                        None => {
                            proptest::prop_assert!(
                                result_rows(&got) == reference,
                                "{}: whole result",
                                label
                            );
                            expected = Some(got);
                        }
                        Some(whole) => proptest::prop_assert!(
                            got == *whole,
                            "{}: {} chunks",
                            label,
                            chunks
                        ),
                    }
                }
            }
        }
    }

    /// The fetch contract, pinned by a count instead of a clock: one `step`
    /// writes one projected column of `rows` rows and asks its source once
    /// on one worker, and once per [`DEFAULT_MORSEL_TUPLES`]-row morsel on
    /// two.  Any per-value path would make `calls == values`.
    #[test]
    fn a_step_asks_each_source_once_per_morsel_and_column() {
        use rdx_core::positional::CountingSource;
        use rdx_core::strategy::planner::streaming_bytes_per_row;

        // Three 20 000-row chunks, each two morsels; the whole result four.
        let n = 60_000;
        let w = JoinWorkloadBuilder::equal(n, 3).seed(13).build();
        let spec = QuerySpec {
            project_larger: 2,
            project_smaller: 3,
        };
        let params = CacheParams::tiny_for_tests();
        let chunked = MemoryBudget::bytes(20_000 * streaming_bytes_per_row(&spec));
        for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
            let plan = DsmPostProjection::with_codes(ProjectionCode::PartialCluster, second);
            let pipeline = ProjectionPipeline::new(plan);
            for (budget, chunks, threads) in [
                (MemoryBudget::unbounded(), 1, 1),
                (chunked, 3, 1),
                (MemoryBudget::unbounded(), 1, 2),
                (chunked, 3, 2),
            ] {
                let policy = ExecPolicy::with_threads(threads).budget(budget);
                let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
                let larger = CountingSource::new(&w.larger);
                let smaller = CountingSource::new(&w.smaller);
                let mut run =
                    PipelineRun::new(prepared, &larger, &smaller, &spec, &params, &policy);
                let mut sink = MaterializeSink::new();
                let blocks = |rows: usize| match threads {
                    1 => 1,
                    _ => rows.div_ceil(DEFAULT_MORSEL_TUPLES),
                };
                let mut steps = 0;
                loop {
                    let before = (larger.calls(), smaller.calls());
                    let Some(rows) = run.step(&mut sink) else {
                        break;
                    };
                    steps += 1;
                    let label = format!("{} column chunk {steps}/{chunks}", plan.label());
                    let calls = (larger.calls() - before.0, smaller.calls() - before.1);
                    let blocks = blocks(rows);
                    assert!(calls == (blocks, 0) || calls == (0, blocks), "{label}");
                }
                assert_eq!(steps, chunks * spec.total());
                // Every chunk holds n / chunks rows.
                let blocks = chunks * blocks(n / chunks);
                assert!(
                    threads == 1 || blocks >= 2 * chunks,
                    "several morsels a chunk"
                );
                assert_eq!((larger.calls(), smaller.calls()), (2 * blocks, 3 * blocks));
                assert_eq!((larger.values(), smaller.values()), (2 * n, 3 * n));
                let largest = match threads {
                    1 => n / chunks,
                    _ => DEFAULT_MORSEL_TUPLES,
                };
                assert_eq!(larger.largest_block(), largest);
                assert_eq!(smaller.largest_block(), largest);
                let (expected, _) = pipeline
                    .materialize(&w.larger, &w.smaller, &spec, &params, &policy)
                    .unwrap();
                assert_eq!(sink.into_result(), expected.result);
            }
        }
    }

    /// A column's oids start at its seqbase on every path: the pipeline's
    /// per-block fetch and `Column::gather` are the same loop.
    #[test]
    fn pipeline_fetch_honours_seqbase_like_gather() {
        use rdx_dsm::Column;
        // The first `base` tuples of each relation match nothing, so every
        // joined oid lies inside the columns' void heads `[base, n)`.
        let (n, base) = (600usize, 100usize);
        let rel = |dead_keys: u64, salt: i32| {
            let key = (0..n as u64).map(|i| if i < base as u64 { dead_keys + i } else { i });
            let attrs = (0..2)
                .map(|a| {
                    let data = (0..n as i32).map(|i| i * 7 + a + salt).collect();
                    Column::with_seqbase(base as Oid, data)
                })
                .collect();
            DsmRelation::new(key.collect(), attrs)
        };
        let (larger, smaller) = (rel(1_000_000, 0), rel(2_000_000, 3));
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::bytes(2048));
        let run_codes = |second| {
            let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(
                ProjectionCode::PartialCluster,
                second,
            ));
            let prepared = Arc::new(pipeline.prepare(&larger, &smaller, &params, &policy));
            let mut run =
                PipelineRun::new(prepared.clone(), &larger, &smaller, &spec, &params, &policy);
            let mut sink = MaterializeSink::new();
            run.run_to_completion(&mut sink);
            assert!(run.run_stats().chunks_emitted > 1);
            (prepared, sink.into_result())
        };
        let (prepared, unsorted) = run_codes(SecondSideCode::Unsorted);
        let SideOids::InOrder(InOrder::Wide(second_oids)) = &prepared.sides[1] else {
            panic!("an unsorted plan keeps the result-order oids");
        };
        assert_eq!(prepared.result_rows(), n - base);
        let first_oids = first_side(&prepared, 0..n - base);
        let expected: Vec<Column<i32>> = (0..2)
            .map(|a| larger.attr(a).gather(&first_oids))
            .chain((0..2).map(|b| smaller.attr(b).gather(second_oids)))
            .collect();
        assert_eq!(unsorted.columns(), expected.as_slice());
        let (_, declustered) = run_codes(SecondSideCode::Decluster);
        assert_eq!(declustered, unsorted);
    }

    #[test]
    fn empty_join_emits_no_chunks() {
        use rdx_dsm::Column;
        // Disjoint key domains by construction: the join is empty.
        let rel = |base: u64| {
            rdx_dsm::DsmRelation::new(
                Column::from_vec((base..base + 64).collect()),
                vec![Column::from_vec((0..64).collect())],
            )
        };
        let (larger, smaller) = (rel(1_000), rel(0));
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(2).budget(MemoryBudget::bytes(256));
        let plan =
            DsmPostProjection::with_codes(ProjectionCode::Unsorted, SecondSideCode::Decluster);
        let (out, stats) = ProjectionPipeline::new(plan)
            .materialize(&larger, &smaller, &spec, &params, &policy)
            .unwrap();
        assert_eq!(stats.chunks_emitted, 0);
        assert_eq!(stats.rows_emitted, 0);
        assert_eq!(out.result.cardinality(), 0);
        assert_eq!(out.result.num_columns(), 2);
    }

    #[test]
    fn planned_codes_materialize_the_reference_rows() {
        let w = JoinWorkloadBuilder::equal(3_000, 2).seed(55).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let expected = reference_rows(&w.larger, &w.smaller, &spec);
        let sequential = ExecPolicy::with_threads(1);
        let pipeline = ProjectionPipeline::new(plan_by_cost_with_threads(
            &w.larger,
            &w.smaller,
            &spec,
            &params,
            sequential.threads,
        ));
        let (whole, _) = pipeline
            .materialize(&w.larger, &w.smaller, &spec, &params, &sequential)
            .unwrap();
        assert_eq!(result_rows(&whole.result), expected);
        let chunked = sequential.budget(MemoryBudget::bytes(1024));
        let (out, stats) = pipeline
            .materialize(&w.larger, &w.smaller, &spec, &params, &chunked)
            .unwrap();
        assert!(stats.chunks_emitted > 1);
        assert_eq!(out.result, whole.result);
    }

    #[test]
    fn interleaved_steps_of_shared_prefix_runs_stay_byte_identical() {
        // Two runs over the SAME Arc-shared prepared prefix, stepped in an
        // uneven interleaving (2 chunks of A per chunk of B) — the serving
        // scheduler's access pattern — must both reproduce the one-shot
        // execution byte for byte.
        let w = JoinWorkloadBuilder::equal(2_500, 2).seed(41).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let plan = DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        );
        let policy = ExecPolicy::with_threads(2).budget(MemoryBudget::bytes(1024));
        let pipeline = ProjectionPipeline::new(plan);
        let (expected, _) = pipeline
            .materialize(&w.larger, &w.smaller, &spec, &params, &policy)
            .unwrap();
        let expected = raw_columns(&expected);

        let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
        assert!(prepared.resident_bytes() > 0);
        let mut run_a = PipelineRun::new(
            prepared.clone(),
            &w.larger,
            &w.smaller,
            &spec,
            &params,
            &policy,
        );
        let mut run_b = PipelineRun::new(
            prepared.clone(),
            &w.larger,
            &w.smaller,
            &spec,
            &params,
            &policy,
        );
        let mut sink_a = MaterializeSink::new();
        let mut sink_b = MaterializeSink::new();
        while !(run_a.is_done() && run_b.is_done()) {
            run_a.step(&mut sink_a);
            run_a.step(&mut sink_a);
            run_b.step(&mut sink_b);
        }
        for (label, sink, run) in [("a", sink_a, run_a), ("b", sink_b, run_b)] {
            let result = sink.into_result();
            let cols: Vec<Vec<i32>> = result
                .columns()
                .iter()
                .map(|c| c.as_slice().to_vec())
                .collect();
            assert_eq!(cols, expected, "run {label}");
            assert_eq!(run.rows_emitted(), w.expected_matches);
            assert_eq!(run.prepared().result_rows(), w.expected_matches);
            // Per-run stats exclude the shared prefix; folded stats add it.
            assert_eq!(run.run_stats().rows_emitted, w.expected_matches);
            assert!(run.stats().timings.total() >= run.run_stats().timings.total());
        }
    }

    #[test]
    fn arc_owned_run_matches_the_borrowing_run() {
        let w = JoinWorkloadBuilder::equal(1_000, 2).seed(9).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::bytes(512));
        let plan = DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        );
        let pipeline = ProjectionPipeline::new(plan);
        let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
        let mut borrowed = PipelineRun::new(
            prepared.clone(),
            &w.larger,
            &w.smaller,
            &spec,
            &params,
            &policy,
        );
        // The Arc-owning run is a 'static value: parkable without borrowing.
        let mut owned: PipelineRun<Arc<DsmRelation>> = PipelineRun::new(
            prepared,
            Arc::new(w.larger.clone()),
            Arc::new(w.smaller.clone()),
            &spec,
            &params,
            &policy,
        );
        let (mut sink_a, mut sink_b) = (MaterializeSink::new(), MaterializeSink::new());
        borrowed.run_to_completion(&mut sink_a);
        owned.run_to_completion(&mut sink_b);
        let cols = |s: MaterializeSink| {
            s.into_result()
                .columns()
                .iter()
                .map(|c| c.as_slice().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(cols(sink_a), cols(sink_b));
    }

    #[test]
    fn profiled_run_is_byte_identical_and_counts_are_deterministic() {
        use rdx_obs::{EventKind, Obs, QueryId};

        let w = JoinWorkloadBuilder::equal(2_000, 2).seed(11).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::bytes(1024));
        for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
            let plan = DsmPostProjection::with_codes(ProjectionCode::PartialCluster, second);
            let pipeline = ProjectionPipeline::new(plan);
            let (expected, _) = pipeline
                .materialize(&w.larger, &w.smaller, &spec, &params, &policy)
                .unwrap();
            let expected = raw_columns(&expected);

            let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
            let mut totals = Vec::new();
            for _ in 0..2 {
                let obs = Obs::enabled();
                let query = QueryId::next();
                let mut run = PipelineRun::new(
                    prepared.clone(),
                    &w.larger,
                    &w.smaller,
                    &spec,
                    &params,
                    &policy,
                );
                run.attach_profile(&obs, query, &params);
                assert!(run.profile.is_some(), "profiling armed");
                let mut sink = MaterializeSink::new();
                run.run_to_completion(&mut sink);
                let cols: Vec<Vec<i32>> = sink
                    .into_result()
                    .columns()
                    .iter()
                    .map(|c| c.as_slice().to_vec())
                    .collect();
                assert_eq!(cols, expected, "profiled output drifted ({second:?})");

                let snap = obs.metrics_snapshot().unwrap();
                let total = [
                    "profile.accesses",
                    "profile.l1_misses",
                    "profile.l2_misses",
                    "profile.tlb_misses",
                    "profile.stall_cycles",
                ]
                .map(|m| snap.counter(m).unwrap());
                assert!(total[0] > 0, "no accesses charged");
                assert!(total[1] > 0, "no L1 misses charged");
                // One ChunkProfile event per emitted column chunk, adjacent
                // to steps.
                let events = obs.trace_snapshot().unwrap().events_for(query);
                let profiles = events
                    .iter()
                    .filter(|e| e.kind.label() == "chunk_profile")
                    .count();
                assert_eq!(profiles, run.run_stats().chunks_emitted * spec.total());
                // The last chunk's replay charged accesses too.
                let last = events
                    .iter()
                    .rev()
                    .find_map(|e| match e.kind {
                        EventKind::ChunkProfile { accesses, .. } => Some(accesses),
                        _ => None,
                    })
                    .unwrap();
                assert!(last > 0);
                assert_eq!(snap.histogram("profile.phase.cluster_ns").unwrap().count, 1);
                totals.push(total);
            }
            // Two identical profiled runs charge identical simulated counts.
            assert_eq!(totals[0], totals[1], "simulated counts not deterministic");
        }
    }

    /// A profiled multi-chunk run charges the same per-chunk counts and
    /// emits the same bytes at one and at two threads: a probed kernel runs
    /// on one worker, so its reference sequence does not depend on the
    /// thread count or the morsel split.
    #[test]
    fn a_profiled_multi_chunk_run_charges_the_same_counts_at_one_and_two_threads() {
        use rdx_obs::{EventKind, Obs, QueryId};

        let w = JoinWorkloadBuilder::equal(3_000, 2).seed(17).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        for (first, second) in CODES {
            let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(first, second));
            let label = pipeline.plan.label();
            let profiled = |threads| {
                let policy = ExecPolicy::with_threads(threads).budget(MemoryBudget::bytes(4096));
                let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
                let mut run =
                    PipelineRun::new(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
                let (obs, query) = (Obs::enabled(), QueryId::next());
                run.attach_profile(&obs, query, &params);
                let mut sink = MaterializeSink::new();
                run.run_to_completion(&mut sink);
                let chunks: Vec<EventKind> = obs
                    .trace_snapshot()
                    .unwrap()
                    .events_for(query)
                    .iter()
                    .map(|e| e.kind)
                    .filter(|kind| matches!(kind, EventKind::ChunkProfile { .. }))
                    .collect();
                let steps = run.run_stats().chunks_emitted * spec.total();
                assert_eq!(chunks.len(), steps, "{label}");
                (chunks, sink.into_result())
            };
            let (chunks, result) = profiled(1);
            assert!(chunks.len() > 1, "{label}: one chunk");
            assert_eq!(
                result_rows(&result),
                reference_rows(&w.larger, &w.smaller, &spec)
            );
            assert_eq!(profiled(2), (chunks, result), "{label}");
        }
    }

    /// Each column chunk reads one clock pair, traced or not: the
    /// `ChunkStep` events of a traced run add up, to the nanosecond, to the
    /// chunk-loop phases of its `PhaseTimings`, for every code and budget.
    #[test]
    fn the_chunk_steps_observe_exactly_the_run_timings() {
        use rdx_core::strategy::planner::streaming_bytes_per_row;
        use rdx_obs::{EventKind, Obs, QueryId};

        let w = JoinWorkloadBuilder::equal(3_000, 2).seed(31).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let quarter = MemoryBudget::bytes(3_000 * streaming_bytes_per_row(&spec) / 4);
        for (first, second) in CODES {
            let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(first, second));
            for budget in [
                MemoryBudget::unbounded(),
                quarter,
                MemoryBudget::bytes(4096),
            ] {
                let label = format!("{} at {budget:?}", pipeline.plan.label());
                let policy = ExecPolicy::with_threads(1).budget(budget);
                let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
                let mut run =
                    PipelineRun::new(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
                let (obs, query) = (Obs::enabled(), QueryId::next());
                run.attach_obs(&obs, query, [1, 1]);
                run.run_to_completion(&mut MaterializeSink::new());
                let observed: Vec<u64> = obs
                    .trace_snapshot()
                    .unwrap()
                    .events_for(query)
                    .iter()
                    .filter_map(|e| match e.kind {
                        EventKind::ChunkStep { observed_ns, .. } => Some(observed_ns),
                        _ => None,
                    })
                    .collect();
                let stats = run.run_stats();
                assert_eq!(
                    observed.len(),
                    stats.chunks_emitted * spec.total(),
                    "{label}"
                );
                let t = stats.timings;
                let timed = t.project_larger + t.project_smaller + t.decluster;
                assert_eq!(
                    observed.iter().sum::<u64>(),
                    timed.as_nanos() as u64,
                    "{label}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "smaller relation has 2 projectable columns, 3 requested")]
    fn a_run_over_too_narrow_a_source_panics_with_the_typed_error() {
        let w = JoinWorkloadBuilder::equal(100, 2).build();
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1);
        let pipeline =
            ProjectionPipeline::new(DsmPostProjection::plan(&w.larger, &w.smaller, &params));
        let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
        let spec = QuerySpec {
            project_larger: 2,
            project_smaller: 3,
        };
        PipelineRun::new(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
    }

    #[test]
    fn a_profiled_run_lays_out_every_region_disjointly() {
        use rdx_obs::{Obs, QueryId};

        let w = JoinWorkloadBuilder::equal(2_000, 2).seed(3).build();
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::bytes(4096));
        for (first, second) in CODES {
            let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(first, second));
            let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
            let mut run = PipelineRun::new(
                prepared,
                &w.larger,
                &w.smaller,
                &QuerySpec::symmetric(2),
                &params,
                &policy,
            );
            let obs = Obs::enabled();
            run.attach_profile(&obs, QueryId::next(), &params);
            let prof = run.profile.as_deref().expect("profiling armed");
            let regions = &prof.regions;
            // Both sides' oids, the staged values the second side's gather
            // writes, the decluster's three prefix arrays, and per projected
            // column its source column and its own output.
            assert_eq!(regions.len(), COLUMNS + 2 * 4);
            let chunk_rows = run.streaming().chunk_rows.min(run.prepared().result_rows());
            assert_eq!(regions[STAGED].elems(), chunk_rows);
            for c in 0..4 {
                let (source, out) = (regions[COLUMNS + 2 * c], regions[COLUMNS + 2 * c + 1]);
                assert_eq!((source.elems(), out.elems()), (2_000, chunk_rows));
            }
            let span = |r: &Region| r.base()..r.base() + r.byte_size() as u64;
            for (i, a) in regions.iter().enumerate() {
                for b in &regions[i + 1..] {
                    let (a, b) = (span(a), span(b));
                    assert!(
                        a.end <= b.start || b.end <= a.start,
                        "{first:?}/{second:?}: {a:?} overlaps {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_shuffled_unsorted_second_side_charges_more_l2_misses_than_an_ascending_one() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        use rdx_obs::{Obs, QueryId};

        // A 64 KB smaller column on the 8 KB simulated cache: a random fetch
        // misses where an ascending one streams.
        let n = 16_384;
        let w = JoinWorkloadBuilder::equal(n, 1).seed(9).build();
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1);
        let spec = QuerySpec::symmetric(1);
        let ascending: Vec<Oid> = (0..n as Oid).collect();
        let mut shuffled = ascending.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(4));
        let l2_misses = |second_oids: &[Oid]| {
            let prepared = Arc::new(PreparedProjection {
                plan: DsmPostProjection::with_codes(
                    ProjectionCode::PartialCluster,
                    SecondSideCode::Unsorted,
                ),
                sides: [
                    SideOids::InOrder(InOrder::Wide(ascending.clone())),
                    SideOids::InOrder(InOrder::Wide(second_oids.to_vec())),
                ],
                larger_cardinality: n,
                smaller_cardinality: n,
                timings: PhaseTimings::default(),
            });
            let mut run =
                PipelineRun::new(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
            let obs = Obs::enabled();
            run.attach_profile(&obs, QueryId::next(), &params);
            let mut sink = MaterializeSink::new();
            run.run_to_completion(&mut sink);
            let values = sink.into_result().columns()[1].as_slice().to_vec();
            let expected = w.smaller.attr(0).gather(second_oids).into_vec();
            assert_eq!(values, expected);
            obs.metrics_snapshot()
                .unwrap()
                .counter("profile.l2_misses")
                .unwrap()
        };
        let (sequential, random) = (l2_misses(&ascending), l2_misses(&shuffled));
        assert!(
            random > sequential,
            "a random fetch charged {random} L2 misses, a sequential one {sequential}"
        );
    }

    #[test]
    fn unprofiled_run_has_no_profile_state_and_disabled_obs_is_inert() {
        use rdx_obs::{Obs, QueryId};
        let w = JoinWorkloadBuilder::equal(400, 1).seed(2).build();
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::bytes(512));
        let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(
            ProjectionCode::Unsorted,
            SecondSideCode::Decluster,
        ));
        let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
        let mut run = PipelineRun::new(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
        assert!(run.profile.is_none());
        run.attach_profile(&Obs::disabled(), QueryId::next(), &params);
        assert!(run.profile.is_none(), "disabled obs must not arm");
        let mut sink = MaterializeSink::new();
        run.run_to_completion(&mut sink);
        assert_eq!(run.rows_emitted(), w.expected_matches);
    }

    /// The sink sees each column through all of its chunks before the next
    /// column, and the bytes are the one-chunk run's, at every budget,
    /// code, cache and thread count.
    #[test]
    fn the_sink_sees_each_column_through_all_of_its_chunks_and_the_bytes_never_move() {
        use rdx_core::strategy::planner::streaming_bytes_per_row;

        let w = JoinWorkloadBuilder::equal(3_000, 2).seed(23).build();
        let spec = QuerySpec {
            project_larger: 2,
            project_smaller: 1,
        };
        let data_bytes = 3_000 * streaming_bytes_per_row(&spec);
        let columns: Vec<usize> = (0..spec.total()).collect();
        for (first, second) in CODES {
            let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(first, second));
            let label = pipeline.plan.label();
            for params in [CacheParams::paper_pentium4(), CacheParams::tiny_for_tests()] {
                let (expected, _) = pipeline
                    .materialize(
                        &w.larger,
                        &w.smaller,
                        &spec,
                        &params,
                        &ExecPolicy::default(),
                    )
                    .unwrap();
                for (denom, threads) in [(1, 1), (3, 2), (16, 1), (200, 2)] {
                    let budget = MemoryBudget::fraction_of(data_bytes, denom);
                    let policy = ExecPolicy::with_threads(threads).budget(budget);
                    let mut sink = CountingSink::new(MaterializeSink::new());
                    let stats = stream(
                        pipeline, &w.larger, &w.smaller, &spec, &params, &policy, &mut sink,
                    );
                    let (chunks, at) = (stats.streaming.num_chunks, format!("{label} 1/{denom}"));
                    assert_eq!(sink.column_runs, columns, "{at}");
                    assert_eq!(
                        (sink.chunks, stats.chunks_emitted),
                        (chunks, chunks),
                        "{at}"
                    );
                    assert_eq!(sink.inner.into_result(), expected.result, "{at}");
                }
            }
        }
    }

    #[test]
    fn step_protocol_begins_and_finishes_once() {
        let w = JoinWorkloadBuilder::equal(512, 1).seed(5).build();
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::bytes(256));
        let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(
            ProjectionCode::Unsorted,
            SecondSideCode::Decluster,
        ));
        let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
        let mut run = PipelineRun::new(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
        let mut sink = CountingSink::new(MaterializeSink::new());
        let mut steps = 0;
        while let Some(rows) = run.step(&mut sink) {
            assert!(rows > 0);
            steps += 1;
        }
        assert!(run.is_done());
        let chunks = run.run_stats().chunks_emitted;
        assert_eq!(steps, chunks * spec.total());
        assert_eq!(sink.chunks, chunks);
        // Stepping a finished run is a harmless no-op.
        assert_eq!(run.step(&mut sink), None);
        assert_eq!(sink.chunks, chunks);
        assert_eq!(sink.rows, w.expected_matches);
    }
}
