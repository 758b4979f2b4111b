//! The memory-budgeted **streaming projection pipeline** — cluster →
//! decluster → fetch in chunks sized by an explicit
//! [`MemoryBudget`].
//!
//! Every other executor in the workspace (sequential and parallel)
//! materialises the full projected relation: `O(N · π)` value bytes live in
//! RAM at once, plus a full `CLUST_VALUES` staging column per projected
//! attribute.  That forfeits the paper's own regime of interest — bounded
//! fast memory — one level up the hierarchy.  This pipeline instead streams
//! the result through a [`RowChunkSink`] in contiguous chunks:
//!
//! 1. **join** and **reorder** run exactly as in
//!    [`crate::strategy::par_dsm_post_projection`] (the join index and the
//!    clustered oid/position arrays are the `8 N`-byte irreducible floor, the
//!    Fig. 4 `CLUST_SMALLER`/`CLUST_RESULT` analogue); this whole prefix is
//!    factored out as [`PreparedProjection`] — a self-contained, *shareable*
//!    product (the serving layer caches it across queries under an `Arc`);
//! 2. the result rows are cut into chunks of
//!    [`StreamingPlan::chunk_rows`] = `budget / bytes_per_row` rows;
//! 3. per chunk, a [`ChunkCursorState`] advances one cursor per cluster
//!    (§3.2's ascending-within-cluster property makes every result prefix a
//!    prefix of every cluster), attribute values are fetched **on demand**
//!    from the base relations into a chunk-local `CLUST_VALUES`, declustered
//!    by the unchanged windowed kernel — morsel-parallel across insertion
//!    windows — and emitted;
//! 4. the sink decides what full-result memory (if any) to pay:
//!    [`MaterializeSink`] rebuilds the materialising executors' output byte
//!    for byte, [`rdx_core::strategy::PagedSink`] spools to buffer-manager
//!    pages (§5).
//!
//! The chunk loop itself is a **resumable** [`PipelineRun`]: each
//! [`PipelineRun::step`] emits exactly one chunk and returns, so a scheduler
//! can interleave chunks from many concurrent queries — chunk boundaries are
//! natural preemption points, which is what makes the multi-query serving
//! layer (`rdx-serve`) possible.  [`ProjectionPipeline::execute`] is simply
//! `prepare` + `step` until done.
//!
//! The output is **byte-identical** to [`DsmPostProjection::execute`] with
//! the same codes for every budget and any step interleaving, because
//! chunking changes only *when* a result row is produced, never its value or
//! position: each chunk is a self-contained Radix-Decluster problem over
//! rebased positions (`rdx_core::decluster::chunks`).
//!
//! **Fetch contract.**  §3's positional joins are "pointer-based joins …
//! with negligible CPU cost" only as tight array loops, so the chunk loop
//! never asks a relation for a value: *a source is asked for a block of one
//! column* ([`AttrSource::gather_into`]) — once per morsel × column, for the
//! first side, the staged `CLUST_VALUES` fill and the unsorted second side
//! alike.  The dynamic call, the column lookup and the seqbase / record
//! stride are paid per block; a unit test pins the call count.

use crate::cluster::{par_radix_cluster_oids_with_scratch, ParClusterScratch};
use crate::decluster::par_radix_decluster_into;
use crate::join::par_partitioned_hash_join;
use crate::pool::{for_each_output_morsel, ExecPolicy};
use crate::strategy::{par_gather_into, par_order_join_index, par_project_columns_into};
use rdx_cache::{AddressSpace, CacheParams, EventCounts, MemorySystem, Region};
use rdx_core::budget::MemoryBudget;
use rdx_core::cluster::{plan_partial_cluster, Clustered, RadixClusterSpec, ScatterMode};
use rdx_core::decluster::chunks::{ChunkCursorState, ChunkRuns};
use rdx_core::decluster::traced::radix_decluster_traced;
use rdx_core::decluster::DeclusterScratch;
use rdx_core::error::RdxError;
use rdx_core::join::join_cluster_spec;
use rdx_core::positional::AttrSource;
use rdx_core::strategy::adapt::{
    resplit_budget, AdaptiveController, AdaptiveDecision, AdaptivePolicy, FeedbackSource,
    SharedMissCounts,
};
use rdx_core::strategy::planner::{
    plan_streaming, plan_streaming_checked, predict_streaming_cost, StreamingPlan,
};
use rdx_core::strategy::sink::{MaterializeSink, RowChunkSink};
use rdx_core::strategy::{
    DsmPostProjection, PhaseTimings, QuerySpec, SecondSideCode, StrategyOutcome,
};
use rdx_dsm::{DsmRelation, Oid};
use rdx_nsm::NsmRelation;
use rdx_obs::{EventKind, MissCounts, Obs, Phase, QueryId};
use std::sync::Arc;
use std::time::Instant;

/// Width of the fixed-size attribute values (the paper's integer columns).
const VALUE_WIDTH: usize = 4;

/// The second-side clustering spec the streaming pipeline uses for a
/// smaller relation of `smaller_tuples` tuples whose cache-relevant value
/// width is `smaller_value_width` (4 for DSM columns, the record width for
/// NSM) — the §3.1 `optimal_partial` rule against the given cache.
///
/// Exposed so layers that must *name* the clustering without building it —
/// the serving layer's clustered-index cache key — derive it from the same
/// function [`ProjectionPipeline::prepare_keys`] uses, and cannot drift.
pub fn cluster_spec_for(
    smaller_tuples: usize,
    smaller_value_width: usize,
    params: &CacheParams,
) -> RadixClusterSpec {
    cluster_plan_for(smaller_tuples, smaller_value_width, params).0
}

/// [`cluster_spec_for`] together with the scatter mode the clustering runs
/// with (plain cursors vs. software write-combining), both derived by
/// [`plan_partial_cluster`] — the same call `plan_streaming` makes, so the
/// executed clustering, the priced one and the serving layer's cache keys
/// all agree.
pub fn cluster_plan_for(
    smaller_tuples: usize,
    smaller_value_width: usize,
    params: &CacheParams,
) -> (RadixClusterSpec, ScatterMode) {
    plan_partial_cluster(
        smaller_tuples,
        smaller_value_width.max(1),
        rdx_core::cluster::OID_PAIR_BYTES,
        params,
    )
}

/// [`cluster_spec_for`] with the DSM column width filled in.
pub fn dsm_cluster_spec(smaller_tuples: usize, params: &CacheParams) -> RadixClusterSpec {
    cluster_spec_for(smaller_tuples, VALUE_WIDTH, params)
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
    first_oids: Vec<Oid>,
    second: SecondSide,
    smaller_cardinality: usize,
    smaller_value_width: usize,
    timings: PhaseTimings,
}

/// What the chunk loop reads for the plan's [`SecondSideCode`], and nothing
/// else: a declustering prefix cannot carry the column it was clustered from.
#[derive(Debug, Clone)]
enum SecondSide {
    /// `u`: the smaller relation's oids in result order, fetched positionally.
    ResultOrder(Vec<Oid>),
    /// `d`: Fig. 4's `(oid, result position)` pairs, radix-clustered on oid.
    Clustered(Clustered<Oid, Oid>),
}

impl PreparedProjection {
    /// The projection codes this prefix was built for.
    pub fn plan(&self) -> DsmPostProjection {
        self.plan
    }

    /// Result cardinality (join-index length).
    pub fn result_rows(&self) -> usize {
        self.first_oids.len()
    }

    /// Cardinality of the smaller relation the clustering was sized for.
    pub fn smaller_cardinality(&self) -> usize {
        self.smaller_cardinality
    }

    /// Value width the second-side clustering granularity was sized for
    /// (4 for DSM columns, the record width for NSM).
    pub fn smaller_value_width(&self) -> usize {
        self.smaller_value_width
    }

    /// Wall-clock spent building this prefix (join + reorder + cluster).
    pub fn timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Resident heap bytes of this prefix — what a byte-budgeted cache
    /// charges for keeping it: the first side's reordered oids (4 B/row)
    /// plus either the second side's result-order oids (4 B/row, unsorted
    /// fetch) or its clustered `(oid, position)` pairs and the `H + 1`
    /// cluster borders (8 B/row + borders, decluster).
    pub fn resident_bytes(&self) -> usize {
        let second = match &self.second {
            SecondSide::ResultOrder(oids) => std::mem::size_of_val(oids.as_slice()),
            SecondSide::Clustered(c) => {
                std::mem::size_of_val(c.keys())
                    + std::mem::size_of_val(c.payloads())
                    + std::mem::size_of_val(c.bounds())
            }
        };
        std::mem::size_of_val(self.first_oids.as_slice()) + second
    }
}

/// What one pipeline run did: the chunking it planned, what it actually
/// emitted, and the measured peak chunk working set (value data only; the
/// fixed `8 N`-byte index floor is excluded, matching what
/// [`rdx_core::strategy::planner::streaming_bytes_per_row`] prices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineStats {
    /// The chunking the planner derived from the budget.
    pub streaming: StreamingPlan,
    /// Chunks handed to the sink.
    pub chunks_emitted: usize,
    /// Total result rows handed to the sink.
    pub rows_emitted: usize,
    /// Largest per-chunk working set observed, in bytes.
    pub peak_chunk_bytes: usize,
    /// Mid-flight re-splits the adaptive controller fired (0 unless
    /// [`PipelineRun::attach_adaptive`] was called).
    pub adaptive_replans: usize,
    /// Phase wall-clock breakdown ([`PhaseTimings`] semantics; chunked
    /// phases accumulate across chunks).
    pub timings: PhaseTimings,
}

/// The reusable per-run working memory of the streaming chunk loop: the
/// output columns handed to the sink, the chunk-local
/// `CLUST_SMALLER`/`CLUST_RESULT` staging arrays, the staged clustered
/// values, the run list of the current chunk, and the decluster cursor
/// scratch.
///
/// Every buffer grows to the chunk high-water mark on the first chunk and
/// is reused afterwards, which is what makes a steady-state
/// [`PipelineRun::step`] **allocation-free** on a single-threaded policy
/// (multi-threaded chunks still pay their scoped thread spawns).  The
/// serving layer pools these across queries in a batch
/// ([`PipelineRun::attach_scratch`] / [`PipelineRun::take_scratch`]), so a
/// stream of short queries stops paying per-query warm-up allocations too.
#[derive(Debug, Default)]
pub struct ChunkScratch {
    columns: Vec<Vec<i32>>,
    chunk: ChunkRuns,
    local_oids: Vec<Oid>,
    local_positions: Vec<Oid>,
    local_bounds: Vec<usize>,
    staged: Vec<i32>,
    decluster: DeclusterScratch,
}

impl ChunkScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resident heap bytes currently held (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        let cols: usize = self
            .columns
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<i32>())
            .sum();
        cols + (self.local_oids.capacity() + self.local_positions.capacity()) * 4
            + self.local_bounds.capacity() * std::mem::size_of::<usize>()
            + self.staged.capacity() * 4
    }
}

/// The per-run observability state a [`PipelineRun`] carries when tracing
/// is enabled: the query id its chunk events are keyed by, the cost
/// model's per-chunk prediction, and the two histograms it records into —
/// resolved **once** at attach time, so the chunk loop's recording is
/// atomics plus one short trace-ring lock, with no registry lookups and no
/// allocations.
struct RunObs {
    obs: Obs,
    query: QueryId,
    predicted_chunk_ns: u64,
    chunk_ns: rdx_obs::Histogram,
    ratio_permille: rdx_obs::Histogram,
    adaptive_replans: rdx_obs::Counter,
    resplit_delta: rdx_obs::Histogram,
}

/// The adaptive-execution state a [`PipelineRun`] carries when a policy is
/// attached: the EWMA controller, the feedback source it listens to, the
/// cache parameters re-plans re-price against, and the current (possibly
/// correction-folded) per-chunk prediction.  All of it is allocated once at
/// [`PipelineRun::attach_adaptive`]; observing a chunk and *holding* — the
/// steady state — allocates nothing.
struct RunAdapt {
    controller: AdaptiveController,
    source: Box<dyn FeedbackSource + Send>,
    params: CacheParams,
    predicted_chunk_ns: u64,
    /// Cumulative observed-vs-model correction in permille.  Each re-plan's
    /// EWMA is measured against the *already corrected* prediction, so the
    /// total mispricing is the product of the fired EWMAs — this is what
    /// [`resplit_budget`] shrinks the grant by, letting sustained slow
    /// feedback tighten chunks further on every fired re-plan instead of
    /// re-deriving the same plan.
    correction_permille: u64,
    replans: usize,
}

/// The cache-truth profiling state a [`PipelineRun`] carries when the
/// profiled mode is on: a persistent [`MemorySystem`] the run replays every
/// chunk's memory-access pattern through, the simulated regions standing
/// for the operand arrays, the pre-resolved [`rdx_obs::Profile`]
/// instruments, and the [`SharedMissCounts`] mailbox a
/// [`MissCountFeedback`](rdx_core::strategy::adapt::MissCountFeedback)
/// reads from.
///
/// Profiling never touches the output path — the chunk is computed by the
/// normal kernels and the replay only *simulates* the same accesses — so
/// profiled output is byte-identical to unprofiled output by construction.
/// The replay allocates (the traced decluster builds its reference result),
/// which is why profiling is opt-in: the unprofiled steady state keeps its
/// zero-allocation guarantee untouched.
struct RunProfile {
    profile: rdx_obs::Profile,
    obs: Obs,
    query: QueryId,
    mem: MemorySystem,
    shared: SharedMissCounts,
    space: AddressSpace,
    first_oids_region: Region,
    second_oids_region: Region,
    larger_cols: Vec<Region>,
    smaller_cols: Vec<Region>,
    chunk_oids: Region,
    chunk_out: Region,
    chunk_capacity: usize,
}

/// What the second side of one chunk did, for the profiled replay.
enum SecondSideReplay<'a> {
    /// Straight positional fetch from `second_oids[emitted..]`.
    Unsorted { rows: usize },
    /// Cluster-side gather + windowed decluster over the chunk-local
    /// arrays (the Fig. 5 access pattern).
    Decluster {
        local_oids: &'a [Oid],
        local_positions: &'a [Oid],
        local_bounds: &'a [usize],
        staged: &'a [i32],
        window_bytes: usize,
        declustered: &'a [i32],
    },
}

impl RunProfile {
    /// Grows the chunk-local regions to hold `rows` elements (fresh
    /// addresses model a re-grown scratch buffer; reached only when a
    /// re-plan raises the chunk size past every previous chunk).
    fn ensure_chunk_capacity(&mut self, rows: usize) {
        if rows > self.chunk_capacity {
            self.chunk_oids = self.space.alloc(rows, 4);
            self.chunk_out = self.space.alloc(rows, VALUE_WIDTH);
            self.chunk_capacity = rows;
        }
    }

    /// Replays one emitted chunk's logical memory accesses through the
    /// simulator and returns the miss counts it charged: per projected
    /// column, the sequential oid-stream read, the random positional read
    /// into the base relation and the sequential staging write; plus, for
    /// declustering chunks, one traced windowed decluster scaled to the
    /// smaller-side column count (the decluster's address pattern is
    /// value-independent, so every column replays identically).
    fn replay_chunk(
        &mut self,
        emitted: usize,
        chunk_first_oids: &[Oid],
        second: SecondSideReplay<'_>,
    ) -> EventCounts {
        let rows = chunk_first_oids.len();
        self.ensure_chunk_capacity(rows);
        let before = self.mem.counts();
        for col in 0..self.larger_cols.len() {
            let region = self.larger_cols[col];
            for (i, &oid) in chunk_first_oids.iter().enumerate() {
                self.mem.read(self.first_oids_region.addr(emitted + i), 4);
                self.mem
                    .read(region.addr(oid as usize), region.elem_width());
                self.mem.write(self.chunk_out.addr(i), VALUE_WIDTH);
            }
        }
        let mut scaled = EventCounts::zero();
        match second {
            SecondSideReplay::Unsorted { rows } => {
                for col in 0..self.smaller_cols.len() {
                    let region = self.smaller_cols[col];
                    for i in 0..rows {
                        self.mem.read(self.second_oids_region.addr(emitted + i), 4);
                        // The replay charges the average positional read; the
                        // oid itself is irrelevant to the address *pattern*
                        // class (uniform random into the column), so we model
                        // it with the stream position folded into the region.
                        self.mem
                            .read(region.addr(i % region.elems()), region.elem_width());
                        self.mem.write(self.chunk_out.addr(i), VALUE_WIDTH);
                    }
                }
            }
            SecondSideReplay::Decluster {
                local_oids,
                local_positions,
                local_bounds,
                staged,
                window_bytes,
                declustered,
            } => {
                for col in 0..self.smaller_cols.len() {
                    let region = self.smaller_cols[col];
                    for (i, &oid) in local_oids.iter().enumerate() {
                        self.mem.read(self.chunk_oids.addr(i), 4);
                        self.mem
                            .read(region.addr(oid as usize), region.elem_width());
                        self.mem.write(self.chunk_out.addr(i), VALUE_WIDTH);
                    }
                }
                if !self.smaller_cols.is_empty() {
                    let (replayed, counts) = radix_decluster_traced(
                        staged,
                        local_positions,
                        local_bounds,
                        window_bytes,
                        &mut self.mem,
                    );
                    debug_assert_eq!(
                        replayed, declustered,
                        "traced decluster diverged from the emitted chunk"
                    );
                    // Columns beyond the first replay the identical address
                    // pattern; charge them without re-running the kernel.
                    for _ in 1..self.smaller_cols.len() {
                        scaled.accumulate(&counts);
                    }
                }
            }
        }
        let after = self.mem.counts();
        let mut delta = EventCounts {
            accesses: after.accesses - before.accesses,
            l1_misses: after.l1_misses - before.l1_misses,
            l2_misses: after.l2_misses - before.l2_misses,
            tlb_misses: after.tlb_misses - before.tlb_misses,
        };
        delta.accumulate(&scaled);
        delta
    }
}

/// The cost model's per-chunk prediction for `plan` covering `result_rows`
/// rows, in nanoseconds — [`predict_streaming_cost`] (whole-run millis)
/// divided across the plan's chunks.
fn per_chunk_prediction_ns(
    plan: &StreamingPlan,
    smaller_tuples: usize,
    result_rows: usize,
    spec: &QuerySpec,
    params: &CacheParams,
) -> u64 {
    let total_ms = predict_streaming_cost(plan, smaller_tuples, result_rows, spec, params);
    ((total_ms / plan.num_chunks.max(1) as f64) * 1e6) as u64
}

/// A boxed [`AttrSource`], the type-erased form the serving layer uses so
/// runs over different storage models are homogeneous.  The dynamic call is
/// per block (one morsel of one column), never per value.
pub type BoxedSource<'a> = Box<dyn AttrSource + Sync + 'a>;

/// A [`PipelineRun`] over boxed sources (what [`PipelineRun::over_dsm`]
/// returns).
pub type DsmPipelineRun<'a> = PipelineRun<BoxedSource<'a>, BoxedSource<'a>>;

/// One in-flight streaming projection, resumable chunk by chunk.
///
/// A run owns its cursor state and chunk position but only *shares* the
/// expensive [`PreparedProjection`] prefix (via `Arc`, so a cross-query
/// cache can hand the same prefix to many concurrent runs).  Each call to
/// [`PipelineRun::step`] emits exactly one chunk into the sink and returns;
/// between calls the run is a plain parked value, which is what lets a fair
/// scheduler interleave many queries at chunk granularity.  Stepping a run
/// to completion produces output byte-identical to the one-shot
/// [`ProjectionPipeline::execute`], independent of how steps interleave
/// with other runs.
pub struct PipelineRun<L, S> {
    prepared: Arc<PreparedProjection>,
    larger: L,
    smaller: S,
    spec: QuerySpec,
    policy: ExecPolicy,
    streaming: StreamingPlan,
    cursors: Option<ChunkCursorState>,
    scratch: ChunkScratch,
    emitted: usize,
    chunks_emitted: usize,
    peak_chunk_bytes: usize,
    timings: PhaseTimings,
    begun: bool,
    finished: bool,
    obs: Option<Box<RunObs>>,
    adapt: Option<Box<RunAdapt>>,
    profile: Option<Box<RunProfile>>,
}

impl<L, S> PipelineRun<L, S>
where
    L: AttrSource + Sync,
    S: AttrSource + Sync,
{
    /// A run over a prepared prefix, with the chunking planned from the
    /// policy's budget.
    ///
    /// # Panics
    /// Panics (on the first step) if the query asks for more projection
    /// columns than the sources can serve; callers that know the relations
    /// check up front.
    pub fn new(
        prepared: Arc<PreparedProjection>,
        larger: L,
        smaller: S,
        spec: &QuerySpec,
        params: &CacheParams,
        policy: &ExecPolicy,
    ) -> Self {
        // Resolve an auto-detect (threads = 0) policy once, so the chunk
        // loop never re-queries the host's parallelism per morsel fill.
        let policy = ExecPolicy {
            threads: policy.worker_threads(),
            ..*policy
        };
        let streaming = plan_streaming(
            prepared.result_rows(),
            prepared.smaller_cardinality,
            prepared.smaller_value_width,
            spec,
            params,
            policy.budget,
            policy.threads,
        );
        let cursors = match &prepared.second {
            SecondSide::Clustered(clustered) => {
                debug_assert_eq!(
                    *clustered.spec(),
                    streaming.cluster_spec,
                    "prepared clustering drifted from the streaming plan"
                );
                Some(ChunkCursorState::new(clustered.bounds()))
            }
            SecondSide::ResultOrder(_) => None,
        };
        PipelineRun {
            prepared,
            larger,
            smaller,
            spec: *spec,
            policy,
            streaming,
            cursors,
            scratch: ChunkScratch::new(),
            emitted: 0,
            chunks_emitted: 0,
            peak_chunk_bytes: 0,
            timings: PhaseTimings::default(),
            begun: false,
            finished: false,
            obs: None,
            adapt: None,
            profile: None,
        }
    }

    /// Attaches an observability handle: every subsequent [`Self::step`]
    /// records a `ChunkStep` trace event keyed by `query` plus the
    /// `pipeline.chunk_ns` and `pipeline.predicted_vs_observed_permille`
    /// histograms (observed ns × 1000 / `predicted_chunk_ns` — the Fig. 9
    /// measured-vs-modeled comparison as a live distribution).  Histogram
    /// handles are resolved here, once, so the chunk loop itself never
    /// touches the registry.  A disabled `obs` is a no-op: the run stays
    /// exactly as cheap as an unobserved one.
    pub fn attach_obs(&mut self, obs: &Obs, query: QueryId, predicted_chunk_ns: u64) {
        let Some(metrics) = obs.metrics() else {
            return; // disabled obs: stay as cheap as an unobserved run
        };
        self.obs = Some(Box::new(RunObs {
            obs: obs.clone(),
            query,
            predicted_chunk_ns,
            chunk_ns: metrics.histogram("pipeline.chunk_ns"),
            ratio_permille: metrics.histogram("pipeline.predicted_vs_observed_permille"),
            adaptive_replans: metrics.counter("pipeline.adaptive_replans"),
            resplit_delta: metrics.histogram("pipeline.resplit_chunk_delta"),
        }));
    }

    /// Arms cache-truth profiling: every subsequent [`Self::step`] replays
    /// the emitted chunk's memory-access pattern through a simulated
    /// [`MemorySystem`] under `params`, records per-phase spans and
    /// per-chunk [`rdx_obs::MissCounts`] into `obs` (`ChunkProfile` trace
    /// events adjacent to each `ChunkStep`, `profile.*` metrics), and
    /// publishes the raw counts to a [`SharedMissCounts`] mailbox
    /// ([`Self::profile_shared`]) so an adaptive controller can react to
    /// simulated cache pressure instead of wall-clock.  Output is untouched
    /// — the replay only simulates — so a profiled run stays byte-identical
    /// to an unprofiled one by construction.  A disabled `obs` is a no-op:
    /// the run stays exactly as cheap as an unprofiled one.
    pub fn attach_profile(&mut self, obs: &Obs, query: QueryId, params: &CacheParams) {
        let Some(profile) = obs.profile() else {
            return; // disabled obs: stay as cheap as an unprofiled run
        };
        // The shared prefix's cluster build is accounted once, at attach —
        // prepare_keys books its wall-clock under the decluster phase.
        profile.record_span(
            Phase::Cluster,
            self.prepared.timings.decluster.as_nanos() as u64,
        );
        let mut space = AddressSpace::new();
        let n = self.prepared.result_rows();
        let first_oids_region = space.alloc(n.max(1), 4);
        let second_oids_region = space.alloc(n.max(1), 4);
        let larger_rows = self
            .prepared
            .first_oids
            .iter()
            .map(|&oid| oid as usize + 1)
            .max()
            .unwrap_or(1);
        let larger_cols = (0..self.spec.project_larger)
            .map(|_| space.alloc(larger_rows, VALUE_WIDTH))
            .collect();
        let smaller_cols = (0..self.spec.project_smaller)
            .map(|_| {
                space.alloc(
                    self.prepared.smaller_cardinality.max(1),
                    self.prepared.smaller_value_width.max(1),
                )
            })
            .collect();
        let chunk_capacity = self.streaming.chunk_rows.min(n).max(1);
        let chunk_oids = space.alloc(chunk_capacity, 4);
        let chunk_out = space.alloc(chunk_capacity, VALUE_WIDTH);
        self.profile = Some(Box::new(RunProfile {
            profile,
            obs: obs.clone(),
            query,
            mem: MemorySystem::new(params),
            shared: SharedMissCounts::new(),
            space,
            first_oids_region,
            second_oids_region,
            larger_cols,
            smaller_cols,
            chunk_oids,
            chunk_out,
            chunk_capacity,
        }));
    }

    /// The profiled run's miss-count mailbox — what a
    /// [`MissCountFeedback`](rdx_core::strategy::adapt::MissCountFeedback)
    /// handed to [`Self::attach_adaptive`] reads from.  `None` unless
    /// [`Self::attach_profile`] armed profiling.
    pub fn profile_shared(&self) -> Option<SharedMissCounts> {
        self.profile.as_deref().map(|p| p.shared.clone())
    }

    /// The cost model's current per-chunk prediction for this run, in
    /// nanoseconds — [`predict_streaming_cost`] over the run's streaming
    /// plan, divided across its chunks.  The single pricing rule the
    /// observability attach, the adaptive controller and mid-flight
    /// re-plans all share, so they can never disagree about what "as
    /// predicted" means.
    pub fn predicted_chunk_ns(&self, params: &CacheParams) -> u64 {
        per_chunk_prediction_ns(
            &self.streaming,
            self.prepared.smaller_cardinality,
            self.prepared.result_rows(),
            &self.spec,
            params,
        )
    }

    /// Arms runtime adaptation: after every emitted chunk the run feeds
    /// `source`'s observation into an EWMA-with-hysteresis controller and,
    /// when the controller fires, re-prices the **remaining** rows with
    /// [`plan_streaming`] and resumes from the same cursors.  Already-
    /// emitted chunks are never touched and the cluster spec never changes,
    /// so adaptive output is byte-identical to non-adaptive output by
    /// construction — only chunk boundaries move.  The grant is a ceiling:
    /// slower-than-predicted feedback *shrinks* the effective budget
    /// ([`resplit_budget`]); faster-than-predicted feedback restores at
    /// most the original budget, never more.
    ///
    /// All adaptive state (controller, feedback source, prediction) is
    /// allocated here, once: observing chunks that *hold* allocates
    /// nothing, preserving the steady-state zero-allocation guarantee.
    pub fn attach_adaptive(
        &mut self,
        policy: AdaptivePolicy,
        source: Box<dyn FeedbackSource + Send>,
        params: &CacheParams,
    ) {
        self.adapt = Some(Box::new(RunAdapt {
            controller: AdaptiveController::new(policy),
            source,
            params: params.clone(),
            predicted_chunk_ns: self.predicted_chunk_ns(params).max(1),
            correction_permille: 1_000,
            replans: 0,
        }));
    }

    /// Swaps the feedback source of an already-armed run (no-op when
    /// adaptation is off) — how a deterministic harness injects a scripted
    /// timing sequence into a run the serving layer built with the
    /// production wall-clock source.
    pub fn replace_feedback(&mut self, source: Box<dyn FeedbackSource + Send>) {
        if let Some(adapt) = self.adapt.as_deref_mut() {
            adapt.source = source;
        }
    }

    /// Re-prices the remaining rows under a new budget mid-flight (an
    /// engine share change), resuming from the current cursors.  Fails with
    /// the typed [`RdxError::Budget`] — never a silent clamp — when the new
    /// budget cannot hold even one row; on failure the run is unchanged and
    /// still streams under its previous plan.
    pub fn rebudget(&mut self, budget: MemoryBudget, params: &CacheParams) -> Result<(), RdxError> {
        let remaining = self.prepared.result_rows() - self.emitted;
        let new_plan = plan_streaming_checked(
            remaining.max(1),
            self.prepared.smaller_cardinality,
            self.prepared.smaller_value_width,
            &self.spec,
            params,
            budget,
            self.policy.threads,
        )
        .map_err(RdxError::Budget)?;
        debug_assert_eq!(
            new_plan.cluster_spec, self.streaming.cluster_spec,
            "mid-flight rebudget drifted the cluster spec"
        );
        let old_chunks = remaining.div_ceil(self.streaming.chunk_rows.max(1));
        let new_chunks = remaining.div_ceil(new_plan.chunk_rows.max(1));
        self.policy.budget = budget;
        if remaining > 0 {
            self.streaming = new_plan;
        }
        let corrected = per_chunk_prediction_ns(
            &self.streaming,
            self.prepared.smaller_cardinality,
            remaining.max(1),
            &self.spec,
            params,
        )
        .max(1);
        if let Some(adapt) = self.adapt.as_deref_mut() {
            adapt.predicted_chunk_ns = corrected;
        }
        if let Some(run_obs) = self.obs.as_deref_mut() {
            run_obs.predicted_chunk_ns = corrected;
            run_obs.obs.record(
                run_obs.query,
                EventKind::Replan {
                    old_chunks: old_chunks as u32,
                    new_chunks: new_chunks as u32,
                    reason: "rebudget",
                },
            );
        }
        Ok(())
    }

    /// Mid-flight re-splits the adaptive controller has fired so far.
    pub fn adaptive_replans(&self) -> usize {
        self.adapt.as_ref().map_or(0, |a| a.replans)
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

    /// Result rows emitted so far.
    pub fn rows_emitted(&self) -> usize {
        self.emitted
    }

    /// Result rows still to emit.
    pub fn remaining_rows(&self) -> usize {
        self.prepared.result_rows() - self.emitted
    }

    /// `true` once the sink has been finished.
    pub fn is_done(&self) -> bool {
        self.finished
    }

    /// Emits the next chunk into `sink` and returns its row count, or
    /// `None` once the run is complete (the first `None` finishes the sink;
    /// further calls are no-ops).  The sink's `begin` is called on the first
    /// step, so a run that joins to an empty result still performs the full
    /// `begin`/`finish` protocol while emitting zero chunks.
    pub fn step(&mut self, sink: &mut dyn RowChunkSink) -> Option<usize> {
        if self.finished {
            return None;
        }
        let n = self.prepared.result_rows();
        if !self.begun {
            sink.begin(n, self.spec.total());
            self.begun = true;
        }
        if self.emitted >= n {
            sink.finish();
            self.finished = true;
            return None;
        }

        let emitted = self.emitted;
        let chunk_end = (emitted + self.streaming.chunk_rows).min(n);
        let rows = chunk_end - emitted;
        let mut chunk_bytes = rows * self.spec.total() * VALUE_WIDTH;
        // Chunk wall-clock is only measured when someone consumes it: an
        // observer, an adaptive controller, or both.
        let chunk_start = (self.obs.is_some() || self.adapt.is_some()).then(Instant::now);

        // All chunk-local buffers come from the run's scratch: after the
        // first (largest) chunk has grown them, a steady-state step
        // allocates nothing.
        let scratch = &mut self.scratch;
        scratch.columns.resize_with(self.spec.total(), Vec::new);

        // First side: morsel-parallel gather straight into the chunk.
        let t = Instant::now();
        par_project_columns_into(
            &self.prepared.first_oids[emitted..chunk_end],
            &self.larger,
            &self.policy,
            &mut scratch.columns[..self.spec.project_larger],
        );
        let first_elapsed = t.elapsed();
        self.timings.project_larger += first_elapsed;

        // Second side.
        let mut second_fetch_elapsed = None;
        let mut decluster_elapsed = None;
        let t = Instant::now();
        match (&self.prepared.second, &mut self.cursors) {
            (SecondSide::Clustered(clustered), Some(cursors)) => {
                cursors.next_chunk_into(clustered.payloads(), chunk_end, &mut scratch.chunk);
                let chunk = &scratch.chunk;
                debug_assert_eq!(chunk.result_range, emitted..chunk_end);
                // Chunk-local CLUST_SMALLER / CLUST_RESULT, shared by all
                // smaller-side columns of this chunk.
                chunk.gather_into(clustered.keys(), &mut scratch.local_oids);
                chunk.rebased_positions_into(clustered.payloads(), &mut scratch.local_positions);
                chunk.local_bounds_into(&mut scratch.local_bounds);
                chunk_bytes +=
                    (scratch.local_oids.len() + scratch.local_positions.len()) * VALUE_WIDTH;
                scratch.staged.resize(rows, 0);
                let staged = &mut scratch.staged[..rows];
                chunk_bytes += staged.len() * VALUE_WIDTH;
                for (b, column) in scratch.columns[self.spec.project_larger..]
                    .iter_mut()
                    .enumerate()
                {
                    // On-demand clustered positional join: the chunk's
                    // CLUST_VALUES, never the whole column.
                    par_gather_into(&self.smaller, b, &scratch.local_oids, &self.policy, staged);
                    column.resize(rows, 0);
                    par_radix_decluster_into(
                        staged,
                        &scratch.local_positions,
                        &scratch.local_bounds,
                        self.streaming.window_bytes,
                        &self.policy,
                        &mut scratch.decluster,
                        column,
                    );
                }
                let elapsed = t.elapsed();
                self.timings.decluster += elapsed;
                decluster_elapsed = Some(elapsed);
            }
            (SecondSide::Clustered(_), None) => {
                unreachable!("PipelineRun::new builds cursors for every clustered prefix")
            }
            (SecondSide::ResultOrder(second_oids), _) => {
                par_project_columns_into(
                    &second_oids[emitted..chunk_end],
                    &self.smaller,
                    &self.policy,
                    &mut scratch.columns[self.spec.project_larger..],
                );
                let elapsed = t.elapsed();
                self.timings.project_smaller += elapsed;
                second_fetch_elapsed = Some(elapsed);
            }
        }

        self.peak_chunk_bytes = self.peak_chunk_bytes.max(chunk_bytes);
        sink.emit(emitted, &scratch.columns);
        self.chunks_emitted += 1;
        self.emitted = chunk_end;
        let observed_ns = chunk_start.map(|start| start.elapsed().as_nanos() as u64);
        if let (Some(run_obs), Some(observed_ns)) = (self.obs.as_deref(), observed_ns) {
            run_obs.chunk_ns.record(observed_ns);
            if let Some(permille) = observed_ns
                .saturating_mul(1000)
                .checked_div(run_obs.predicted_chunk_ns)
            {
                run_obs.ratio_permille.record(permille);
            }
            run_obs.obs.record(
                run_obs.query,
                EventKind::ChunkStep {
                    chunk: (self.chunks_emitted - 1) as u32,
                    rows: rows as u32,
                    observed_ns,
                    predicted_ns: run_obs.predicted_chunk_ns,
                    working_set_bytes: chunk_bytes as u64,
                },
            );
        }
        // Profiled mode: replay this chunk's memory-access pattern through
        // the simulator and publish the counts BEFORE the adaptive
        // controller observes the chunk, so a MissCountFeedback sees the
        // very chunk it is asked about.  Output was already emitted above —
        // the replay only simulates.
        if let Some(prof) = self.profile.as_deref_mut() {
            // `profile` is a distinct field from `prepared`/`scratch`/
            // `spec`/`streaming`, so these immutable borrows coexist with
            // the `&mut` taken above.
            let chunk_first_oids = &self.prepared.first_oids[emitted..chunk_end];
            let scratch = &self.scratch;
            let declustered: &[i32] = scratch.columns[self.spec.project_larger..]
                .last()
                .map(|c| c.as_slice())
                .unwrap_or(&[]);
            let second = if matches!(self.prepared.second, SecondSide::Clustered(_)) {
                SecondSideReplay::Decluster {
                    local_oids: &scratch.local_oids,
                    local_positions: &scratch.local_positions,
                    local_bounds: &scratch.local_bounds,
                    staged: &scratch.staged,
                    window_bytes: self.streaming.window_bytes,
                    declustered,
                }
            } else {
                SecondSideReplay::Unsorted { rows }
            };
            prof.profile
                .record_span(Phase::Fetch, first_elapsed.as_nanos() as u64);
            if let Some(d) = second_fetch_elapsed {
                prof.profile.record_span(Phase::Fetch, d.as_nanos() as u64);
            }
            if let Some(d) = decluster_elapsed {
                prof.profile
                    .record_span(Phase::Decluster, d.as_nanos() as u64);
            }
            let counts = prof.replay_chunk(emitted, chunk_first_oids, second);
            let params = prof.mem.params();
            let miss = MissCounts {
                accesses: counts.accesses,
                l1_misses: counts.l1_misses,
                l2_misses: counts.l2_misses,
                tlb_misses: counts.tlb_misses,
                stall_cycles: counts.stall_cycles(params).round() as u64,
            };
            prof.shared.publish(&counts, params);
            prof.profile.record_chunk(
                &prof.obs,
                prof.query,
                (self.chunks_emitted - 1) as u32,
                miss,
            );
        }
        // Feed the adaptive controller last, once the chunk's own event is
        // recorded: a Replan therefore always trails the ChunkStep that
        // triggered it, and only fires while rows remain to re-split.
        if self.adapt.is_some() && self.emitted < n {
            self.maybe_resplit(rows, observed_ns.unwrap_or(0));
        }
        Some(rows)
    }

    /// The between-chunks re-split point: feeds the just-emitted chunk to
    /// the feedback source and controller; on a `Replan` decision,
    /// re-prices the remaining rows (under the correction-scaled budget)
    /// and swaps the streaming plan in place.  The cursors are untouched —
    /// they accept any non-decreasing chunk end — so the next [`Self::step`]
    /// simply continues at the new granularity.
    fn maybe_resplit(&mut self, rows: usize, measured_ns: u64) {
        let remaining = self.prepared.result_rows() - self.emitted;
        let (ewma_permille, reason) = {
            let Some(adapt) = self.adapt.as_deref_mut() else {
                return;
            };
            let predicted = adapt.predicted_chunk_ns;
            let observed =
                adapt
                    .source
                    .observe_chunk(self.chunks_emitted - 1, rows, measured_ns, predicted);
            match adapt.controller.observe(observed, predicted) {
                AdaptiveDecision::Hold => return,
                AdaptiveDecision::Replan {
                    ewma_permille,
                    reason,
                } => (ewma_permille, reason),
            }
        };
        let Some(adapt) = self.adapt.as_deref_mut() else {
            return;
        };
        // Slower than predicted: the model under-priced the cache pressure,
        // so re-plan the tail under a proportionally smaller working set.
        // Faster: restore at most the original grant — never exceed it.
        // The EWMA is relative to the already-corrected prediction, so the
        // total mispricing compounds across fired re-plans.
        adapt.correction_permille = adapt
            .correction_permille
            .saturating_mul(ewma_permille)
            .max(1_000)
            / 1_000;
        let effective = resplit_budget(self.policy.budget, adapt.correction_permille);
        let new_plan = plan_streaming(
            remaining,
            self.prepared.smaller_cardinality,
            self.prepared.smaller_value_width,
            &self.spec,
            &adapt.params,
            effective,
            self.policy.threads,
        );
        debug_assert_eq!(
            new_plan.cluster_spec, self.streaming.cluster_spec,
            "adaptive re-split drifted the cluster spec"
        );
        let old_chunks = remaining.div_ceil(self.streaming.chunk_rows.max(1));
        let new_chunks = remaining.div_ceil(new_plan.chunk_rows.max(1));
        // Fold the learned correction into the prediction: if the world
        // really is `correction/1000` times the model, the next ratio lands
        // near 1000 and the controller settles instead of re-firing forever.
        let model_ns = per_chunk_prediction_ns(
            &new_plan,
            self.prepared.smaller_cardinality,
            remaining,
            &self.spec,
            &adapt.params,
        );
        adapt.predicted_chunk_ns =
            (model_ns.saturating_mul(adapt.correction_permille) / 1_000).max(1);
        adapt.replans += 1;
        let corrected = adapt.predicted_chunk_ns;
        self.streaming = new_plan;
        if let Some(run_obs) = self.obs.as_deref_mut() {
            run_obs.predicted_chunk_ns = corrected;
            run_obs.adaptive_replans.inc();
            run_obs
                .resplit_delta
                .record(old_chunks.abs_diff(new_chunks) as u64);
            run_obs.obs.record(
                run_obs.query,
                EventKind::Replan {
                    old_chunks: old_chunks as u32,
                    new_chunks: new_chunks as u32,
                    reason,
                },
            );
        }
    }

    /// Steps the run to completion.
    pub fn run_to_completion(&mut self, sink: &mut dyn RowChunkSink) {
        while self.step(sink).is_some() {}
    }

    /// Statistics for this run alone: chunk-loop timings only, *excluding*
    /// the shared prefix (whose build time a cache-hit run never paid — see
    /// [`PreparedProjection::timings`] for that side).
    pub fn run_stats(&self) -> PipelineStats {
        PipelineStats {
            streaming: self.streaming,
            chunks_emitted: self.chunks_emitted,
            rows_emitted: self.emitted,
            peak_chunk_bytes: self.peak_chunk_bytes,
            adaptive_replans: self.adaptive_replans(),
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

impl<'a> DsmPipelineRun<'a> {
    /// A run fetching attribute values from two DSM relations — the form
    /// the serving layer parks in its scheduler.
    ///
    /// # Panics
    /// Panics if the query asks for more projection columns than a relation
    /// has.
    pub fn over_dsm(
        prepared: Arc<PreparedProjection>,
        larger: &'a DsmRelation,
        smaller: &'a DsmRelation,
        spec: &QuerySpec,
        params: &CacheParams,
        policy: &ExecPolicy,
    ) -> Self {
        assert!(
            spec.project_larger <= larger.width(),
            "larger side has too few columns"
        );
        assert!(
            spec.project_smaller <= smaller.width(),
            "smaller side has too few columns"
        );
        PipelineRun::new(
            prepared,
            Box::new(larger),
            Box::new(smaller),
            spec,
            params,
            policy,
        )
    }
}

impl DsmPipelineRun<'static> {
    /// A run that *owns* its relations through `Arc`s instead of borrowing
    /// them — a `'static` value a session can park across calls without
    /// borrowing its own catalog (what the ticket-granular serving engine
    /// and the `rdx-api` `Session` front door need: the catalog hands out
    /// `Arc` clones, so an in-flight run never pins the catalog itself).
    ///
    /// # Panics
    /// Panics if the query asks for more projection columns than a relation
    /// has (callers with a catalog validate first and report the typed
    /// `RdxError` instead).
    pub fn over_dsm_arc(
        prepared: Arc<PreparedProjection>,
        larger: Arc<DsmRelation>,
        smaller: Arc<DsmRelation>,
        spec: &QuerySpec,
        params: &CacheParams,
        policy: &ExecPolicy,
    ) -> Self {
        assert!(
            spec.project_larger <= larger.width(),
            "larger side has too few columns"
        );
        assert!(
            spec.project_smaller <= smaller.width(),
            "smaller side has too few columns"
        );
        PipelineRun::new(
            prepared,
            Box::new(larger),
            Box::new(smaller),
            spec,
            params,
            policy,
        )
    }
}

impl ProjectionPipeline {
    /// A pipeline running the given projection codes.
    pub fn new(plan: DsmPostProjection) -> Self {
        ProjectionPipeline { plan }
    }

    /// A pipeline with the cost-model-planned codes for this workload and
    /// thread count (`plan_by_cost_with_threads`).
    pub fn planned(
        larger: &DsmRelation,
        smaller: &DsmRelation,
        spec: &QuerySpec,
        params: &CacheParams,
        policy: &ExecPolicy,
    ) -> Self {
        Self::new(rdx_core::strategy::planner::plan_by_cost_with_threads(
            larger,
            smaller,
            spec,
            params,
            policy.worker_threads(),
        ))
    }

    /// Builds the shareable prefix for a projection over two DSM relations:
    /// join, first-side reorder, second-side partial clustering.
    pub fn prepare(
        &self,
        larger: &DsmRelation,
        smaller: &DsmRelation,
        params: &CacheParams,
        policy: &ExecPolicy,
    ) -> PreparedProjection {
        self.prepare_keys(
            larger.key().as_slice(),
            smaller.key().as_slice(),
            larger.cardinality(),
            smaller.cardinality(),
            VALUE_WIDTH,
            params,
            policy,
        )
    }

    /// The storage-model-generic prepare: join over the key columns, reorder
    /// for the first side, partial-cluster the second side on exactly the
    /// clustering the streaming planner prices
    /// (`StreamingPlan::cluster_spec` stays the single source of truth).
    #[allow(clippy::too_many_arguments)]
    pub fn prepare_keys(
        &self,
        larger_keys: &[u64],
        smaller_keys: &[u64],
        larger_cardinality: usize,
        smaller_cardinality: usize,
        smaller_value_width: usize,
        params: &CacheParams,
        policy: &ExecPolicy,
    ) -> PreparedProjection {
        let policy = &ExecPolicy {
            threads: policy.worker_threads(),
            ..*policy
        };
        let mut timings = PhaseTimings::default();

        // Phase 1: join index over the key columns only.
        let t = Instant::now();
        let join_spec = join_cluster_spec(smaller_cardinality, params.cache_capacity());
        let join_index = par_partitioned_hash_join(larger_keys, smaller_keys, join_spec, policy);
        timings.join = t.elapsed();

        // Phase 2: reorder for the first side (determines the result order).
        let t = Instant::now();
        let (first_oids, second_oids) = par_order_join_index(
            &join_index,
            self.plan.first_side,
            larger_cardinality,
            VALUE_WIDTH,
            params,
            policy,
        );
        timings.reorder = t.elapsed();
        drop(join_index);

        // Phase 3: second-side partial clustering (the 8 N-byte
        // CLUST_SMALLER / CLUST_RESULT floor the chunks stream over), on the
        // §3.1 spec `plan_streaming` also derives — the same
        // `plan_partial_cluster` rule, so prepared prefix and streaming plan
        // can never drift apart, including the pass count and the
        // plain/buffered scatter choice.  Counted as decluster time,
        // matching project_second_side_decluster.
        let n = first_oids.len();
        let (cluster_spec, scatter) =
            cluster_plan_for(smaller_cardinality, smaller_value_width, params);
        let t = Instant::now();
        let second = match self.plan.second_side {
            SecondSideCode::Decluster => {
                let result_positions: Vec<Oid> = (0..n as Oid).collect();
                SecondSide::Clustered(par_radix_cluster_oids_with_scratch(
                    &second_oids,
                    &result_positions,
                    cluster_spec,
                    scatter,
                    policy,
                    &mut ParClusterScratch::new(),
                ))
            }
            SecondSideCode::Unsorted => SecondSide::ResultOrder(second_oids),
        };
        timings.decluster += t.elapsed();

        PreparedProjection {
            plan: self.plan,
            first_oids,
            second,
            smaller_cardinality,
            smaller_value_width,
            timings,
        }
    }

    /// Executes over DSM relations, streaming the result into `sink`.
    ///
    /// # Panics
    /// Panics if the query asks for more projection columns than a relation
    /// has.
    pub fn execute(
        &self,
        larger: &DsmRelation,
        smaller: &DsmRelation,
        spec: &QuerySpec,
        params: &CacheParams,
        policy: &ExecPolicy,
        sink: &mut dyn RowChunkSink,
    ) -> PipelineStats {
        let prepared = Arc::new(self.prepare(larger, smaller, params, policy));
        let mut run = DsmPipelineRun::over_dsm(prepared, larger, smaller, spec, params, policy);
        run.run_to_completion(sink);
        run.stats()
    }

    /// Executes over NSM relations (attribute 0 is the join key), streaming
    /// the result into `sink`.
    ///
    /// # Panics
    /// Panics if the query asks for more projection columns than a relation
    /// has beyond its key attribute.
    pub fn execute_nsm(
        &self,
        larger: &NsmRelation,
        smaller: &NsmRelation,
        spec: &QuerySpec,
        params: &CacheParams,
        policy: &ExecPolicy,
        sink: &mut dyn RowChunkSink,
    ) -> PipelineStats {
        assert!(spec.project_larger < larger.width());
        assert!(spec.project_smaller < smaller.width());
        // The unavoidable NSM entry fee: scan the key attribute out of the
        // wide records (morsel parallel, as in the materialising executor).
        let scan = Instant::now();
        let mut larger_keys = vec![0u64; larger.cardinality()];
        for_each_output_morsel(&mut larger_keys, policy, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = larger.key(offset + i);
            }
        });
        let mut smaller_keys = vec![0u64; smaller.cardinality()];
        for_each_output_morsel(&mut smaller_keys, policy, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = smaller.key(offset + i);
            }
        });
        let scan_time = scan.elapsed();
        let prepared = Arc::new(self.prepare_keys(
            &larger_keys,
            &smaller_keys,
            larger.cardinality(),
            smaller.cardinality(),
            // A cache-line fetch from an NSM relation drags the full record
            // in, so the clustering granularity must be sized to the record
            // width (exactly as par_nsm_post_projection_decluster does).
            smaller.tuple_bytes(),
            params,
            policy,
        ));
        let mut run = PipelineRun::new(prepared, larger, smaller, spec, params, policy);
        run.run_to_completion(sink);
        let mut stats = run.stats();
        stats.timings.join += scan_time;
        stats
    }

    /// Convenience: streams into a [`MaterializeSink`] and returns the
    /// materialised [`StrategyOutcome`] — the drop-in replacement for
    /// [`DsmPostProjection::execute`] used by agreement tests.
    pub fn execute_materialized(
        &self,
        larger: &DsmRelation,
        smaller: &DsmRelation,
        spec: &QuerySpec,
        params: &CacheParams,
        policy: &ExecPolicy,
    ) -> (StrategyOutcome, PipelineStats) {
        let mut sink = MaterializeSink::new();
        let stats = self.execute(larger, smaller, spec, params, policy, &mut sink);
        (
            StrategyOutcome {
                result: sink.into_result(),
                timings: stats.timings,
            },
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_core::budget::MemoryBudget;
    use rdx_core::strategy::sink::CountingSink;
    use rdx_core::strategy::ProjectionCode;
    use rdx_workload::JoinWorkloadBuilder;

    fn raw_columns(outcome: &StrategyOutcome) -> Vec<Vec<i32>> {
        outcome
            .result
            .columns()
            .iter()
            .map(|c| c.as_slice().to_vec())
            .collect()
    }

    #[test]
    fn streaming_is_byte_identical_to_dsm_post_for_every_code_and_budget() {
        let w = JoinWorkloadBuilder::equal(3_000, 2).seed(7).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let data_bytes = 2 * 3_000 * 2 * VALUE_WIDTH;
        for first in [
            ProjectionCode::Unsorted,
            ProjectionCode::Sorted,
            ProjectionCode::PartialCluster,
        ] {
            for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
                let plan = DsmPostProjection::with_codes(first, second);
                let expected = raw_columns(&plan.execute(&w.larger, &w.smaller, &spec, &params));
                for denom in [1usize, 16, 64] {
                    let policy = ExecPolicy::with_threads(2)
                        .budget(MemoryBudget::fraction_of(data_bytes, denom));
                    let (out, stats) = ProjectionPipeline::new(plan)
                        .execute_materialized(&w.larger, &w.smaller, &spec, &params, &policy);
                    assert_eq!(
                        raw_columns(&out),
                        expected,
                        "codes {} denom {denom}",
                        plan.label()
                    );
                    assert_eq!(stats.rows_emitted, w.expected_matches);
                    if denom > 1 {
                        assert!(stats.chunks_emitted > 1, "denom {denom} did not chunk");
                    }
                }
            }
        }
    }

    #[test]
    fn peak_working_set_respects_the_budget() {
        let w = JoinWorkloadBuilder::equal(4_096, 1).seed(3).build();
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();
        let plan = DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        );
        for budget_bytes in [512usize, 4 * 1024, 64 * 1024] {
            let policy = ExecPolicy::with_threads(2).budget(MemoryBudget::bytes(budget_bytes));
            let mut sink = CountingSink::new(MaterializeSink::new());
            let stats = ProjectionPipeline::new(plan)
                .execute(&w.larger, &w.smaller, &spec, &params, &policy, &mut sink);
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
        }
    }

    #[test]
    fn prefix_charges_only_what_the_chunk_loop_reads() {
        let n = 3_000;
        let w = JoinWorkloadBuilder::equal(n, 1).seed(5).build();
        let params = CacheParams::tiny_for_tests();
        for first in [ProjectionCode::Unsorted, ProjectionCode::PartialCluster] {
            for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
                let prepared =
                    ProjectionPipeline::new(DsmPostProjection::with_codes(first, second)).prepare(
                        &w.larger,
                        &w.smaller,
                        &params,
                        &ExecPolicy::with_threads(2),
                    );
                assert_eq!(prepared.result_rows(), n);
                let expected = match &prepared.second {
                    // 4 B first-side oid + 4 B second-side oid per row.
                    SecondSide::ResultOrder(oids) => {
                        assert_eq!(second, SecondSideCode::Unsorted);
                        assert_eq!(oids.len(), n);
                        8 * n
                    }
                    // 4 B first-side oid + (oid, position) pair per row + borders.
                    SecondSide::Clustered(c) => {
                        assert_eq!(second, SecondSideCode::Decluster);
                        assert_eq!(c.len(), n);
                        12 * n + std::mem::size_of_val(c.bounds())
                    }
                };
                assert_eq!(prepared.resident_bytes(), expected, "{first:?}/{second:?}");
            }
        }
    }

    #[test]
    fn nsm_streaming_matches_dsm_streaming() {
        let w = JoinWorkloadBuilder::equal(1_500, 2).seed(19).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let plan = DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        );
        let policy = ExecPolicy::with_threads(2).budget(MemoryBudget::bytes(2048));
        let pipeline = ProjectionPipeline::new(plan);
        let (dsm_out, _) =
            pipeline.execute_materialized(&w.larger, &w.smaller, &spec, &params, &policy);
        let mut sink = MaterializeSink::new();
        pipeline.execute_nsm(
            &w.larger_nsm,
            &w.smaller_nsm,
            &spec,
            &params,
            &policy,
            &mut sink,
        );
        assert_eq!(raw_columns(&dsm_out), {
            let nsm_result = sink.into_result();
            nsm_result
                .columns()
                .iter()
                .map(|c| c.as_slice().to_vec())
                .collect::<Vec<_>>()
        });
    }

    /// The fetch contract, pinned by a count instead of a clock: one `step`
    /// over `rows` rows asks each source exactly once per morsel and
    /// projected column.  Any per-value path would make `calls == values`.
    #[test]
    fn a_step_asks_each_source_once_per_morsel_and_column() {
        use rdx_core::positional::CountingSource;
        use rdx_core::strategy::planner::streaming_bytes_per_row;

        let n = 19 * 160;
        let w = JoinWorkloadBuilder::equal(n, 3).seed(13).build();
        let spec = QuerySpec {
            project_larger: 2,
            project_smaller: 3,
        };
        let params = CacheParams::tiny_for_tests();
        let chunked = MemoryBudget::bytes(160 * streaming_bytes_per_row(&spec));
        for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
            let plan = DsmPostProjection::with_codes(ProjectionCode::PartialCluster, second);
            let pipeline = ProjectionPipeline::new(plan);
            for (budget, chunks, morsel, threads) in [
                (MemoryBudget::unbounded(), 1, 1_000, 1),
                (chunked, 19, 64, 1),
                (chunked, 19, 64, 2),
            ] {
                let policy = ExecPolicy::with_threads(threads)
                    .budget(budget)
                    .morsel_tuples(morsel);
                let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
                let larger = CountingSource::new(&w.larger);
                let smaller = CountingSource::new(&w.smaller);
                let mut run =
                    PipelineRun::new(prepared, &larger, &smaller, &spec, &params, &policy);
                let mut sink = MaterializeSink::new();
                let mut steps = 0;
                loop {
                    let before = (larger.calls(), smaller.calls());
                    let Some(rows) = run.step(&mut sink) else {
                        break;
                    };
                    steps += 1;
                    let blocks = rows.div_ceil(morsel);
                    let label = format!("{} chunk {steps}/{chunks}", plan.label());
                    assert_eq!(larger.calls() - before.0, 2 * blocks, "{label}");
                    assert_eq!(smaller.calls() - before.1, 3 * blocks, "{label}");
                }
                assert_eq!(steps, chunks);
                assert_eq!((larger.values(), smaller.values()), (2 * n, 3 * n));
                assert!(larger.largest_block() <= morsel && smaller.largest_block() <= morsel);
                let (expected, _) =
                    pipeline.execute_materialized(&w.larger, &w.smaller, &spec, &params, &policy);
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
            let mut run = DsmPipelineRun::over_dsm(
                prepared.clone(),
                &larger,
                &smaller,
                &spec,
                &params,
                &policy,
            );
            let mut sink = MaterializeSink::new();
            run.run_to_completion(&mut sink);
            assert!(run.run_stats().chunks_emitted > 1);
            (prepared, sink.into_result())
        };
        let (prepared, unsorted) = run_codes(SecondSideCode::Unsorted);
        let SecondSide::ResultOrder(second_oids) = &prepared.second else {
            panic!("an unsorted plan keeps the result-order oids");
        };
        assert_eq!(prepared.result_rows(), n - base);
        let expected: Vec<Column<i32>> = (0..2)
            .map(|a| larger.attr(a).gather(&prepared.first_oids))
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
            .execute_materialized(&larger, &smaller, &spec, &params, &policy);
        assert_eq!(stats.chunks_emitted, 0);
        assert_eq!(stats.rows_emitted, 0);
        assert_eq!(out.result.cardinality(), 0);
        assert_eq!(out.result.num_columns(), 2);
    }

    #[test]
    fn planned_pipeline_matches_planned_executor() {
        let w = JoinWorkloadBuilder::equal(2_000, 1).seed(23).build();
        let spec = QuerySpec::symmetric(1);
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::bytes(1024));
        let pipeline = ProjectionPipeline::planned(&w.larger, &w.smaller, &spec, &params, &policy);
        let (out, _) =
            pipeline.execute_materialized(&w.larger, &w.smaller, &spec, &params, &policy);
        let expected = pipeline.plan.execute(&w.larger, &w.smaller, &spec, &params);
        assert_eq!(raw_columns(&out), raw_columns(&expected));
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
        let (expected, _) =
            pipeline.execute_materialized(&w.larger, &w.smaller, &spec, &params, &policy);
        let expected = raw_columns(&expected);

        let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
        assert!(prepared.resident_bytes() > 0);
        let mut run_a = DsmPipelineRun::over_dsm(
            prepared.clone(),
            &w.larger,
            &w.smaller,
            &spec,
            &params,
            &policy,
        );
        let mut run_b = DsmPipelineRun::over_dsm(
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
            assert_eq!(run.remaining_rows(), 0);
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
        let mut borrowed = DsmPipelineRun::over_dsm(
            prepared.clone(),
            &w.larger,
            &w.smaller,
            &spec,
            &params,
            &policy,
        );
        // The Arc-owning run is a 'static value: parkable without borrowing.
        let mut owned: DsmPipelineRun<'static> = DsmPipelineRun::over_dsm_arc(
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
        use rdx_core::strategy::adapt::MissCountFeedback;
        use rdx_obs::{Obs, ObsConfig, QueryId};

        let w = JoinWorkloadBuilder::equal(2_000, 2).seed(11).build();
        let spec = QuerySpec::symmetric(2);
        let params = CacheParams::tiny_for_tests();
        let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::bytes(1024));
        for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
            let plan = DsmPostProjection::with_codes(ProjectionCode::PartialCluster, second);
            let pipeline = ProjectionPipeline::new(plan);
            let (expected, _) =
                pipeline.execute_materialized(&w.larger, &w.smaller, &spec, &params, &policy);
            let expected = raw_columns(&expected);

            let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
            let mut totals = Vec::new();
            for _ in 0..2 {
                let obs = Obs::enabled(ObsConfig::default());
                let query = QueryId::next();
                let mut run = DsmPipelineRun::over_dsm(
                    prepared.clone(),
                    &w.larger,
                    &w.smaller,
                    &spec,
                    &params,
                    &policy,
                );
                run.attach_profile(&obs, query, &params);
                let shared = run.profile_shared().expect("profiling armed");
                run.attach_adaptive(
                    AdaptivePolicy::default(),
                    Box::new(MissCountFeedback::new(shared.clone())),
                    &params,
                );
                let mut sink = MaterializeSink::new();
                run.run_to_completion(&mut sink);
                let cols: Vec<Vec<i32>> = sink
                    .into_result()
                    .columns()
                    .iter()
                    .map(|c| c.as_slice().to_vec())
                    .collect();
                assert_eq!(cols, expected, "profiled output drifted ({second:?})");
                // The mailbox saw the last chunk's counts.
                assert!(shared.last().accesses > 0);

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
                // One ChunkProfile event per emitted chunk, adjacent to steps.
                let events = obs.trace_snapshot().unwrap().events_for(query);
                let profiles = events
                    .iter()
                    .filter(|e| e.kind.label() == "chunk_profile")
                    .count();
                assert_eq!(profiles, run.run_stats().chunks_emitted);
                assert_eq!(snap.histogram("profile.phase.cluster_ns").unwrap().count, 1);
                totals.push(total);
            }
            // Two identical profiled runs charge identical simulated counts.
            assert_eq!(totals[0], totals[1], "simulated counts not deterministic");
        }
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
        let mut run =
            DsmPipelineRun::over_dsm(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
        assert!(run.profile_shared().is_none());
        run.attach_profile(&Obs::disabled(), QueryId::next(), &params);
        assert!(run.profile_shared().is_none(), "disabled obs must not arm");
        let mut sink = MaterializeSink::new();
        run.run_to_completion(&mut sink);
        assert_eq!(run.rows_emitted(), w.expected_matches);
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
        let mut run =
            DsmPipelineRun::over_dsm(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
        let mut sink = CountingSink::new(MaterializeSink::new());
        let mut steps = 0;
        while let Some(rows) = run.step(&mut sink) {
            assert!(rows > 0);
            steps += 1;
        }
        assert!(run.is_done());
        assert_eq!(steps, run.run_stats().chunks_emitted);
        assert_eq!(sink.chunks, steps);
        // Stepping a finished run is a harmless no-op.
        assert_eq!(run.step(&mut sink), None);
        assert_eq!(sink.chunks, steps);
        assert_eq!(sink.rows, w.expected_matches);
    }
}
