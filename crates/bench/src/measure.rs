//! Measurement routines shared by the `figures` binary and the Criterion
//! benches: one function per experiment family, each returning plain numbers
//! so callers can print, plot or assert on them.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use rdx_cache::{CacheParams, MemorySystem};
use rdx_core::cluster::{radix_cluster, radix_cluster_oids, RadixClusterSpec};
use rdx_core::decluster::traced::radix_decluster_traced;
use rdx_core::decluster::{choose_window_bytes, radix_decluster};
use rdx_core::jive::{jive_bits, jive_join_projection};
use rdx_core::join::{hash_join, join_cluster_spec, partitioned_hash_join, HashTable};
use rdx_core::positional::{
    clustered_positional_join, positional_join, sparse_positional_join, CountingSource,
};
use rdx_core::strategy::{
    dsm_pre_projection, nsm_post_projection_decluster, nsm_post_projection_jive,
    nsm_pre_projection_hash, nsm_pre_projection_phash, DsmPostProjection, ProjectionCode,
    QuerySpec, SecondSideCode,
};
use rdx_dsm::{Column, JoinIndex, Oid};
use rdx_workload::{HitRate, JoinWorkload, JoinWorkloadBuilder, SparseWorkload};
use std::sync::Arc;
use std::time::Instant;

/// Times a closure, returning `(result, milliseconds)`.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// The CLUST_VALUES / CLUST_RESULT / CLUST_BORDERS triple that feeds
/// Radix-Decluster, generated the way the Fig. 4 pipeline would produce it.
#[derive(Debug, Clone)]
pub struct DeclusterInput {
    /// Projected values in clustered order.
    pub values: Vec<i32>,
    /// Final result position of each clustered tuple.
    pub positions: Vec<Oid>,
    /// Cluster borders.
    pub bounds: Vec<usize>,
}

/// Builds a decluster input of `n` tuples clustered on `bits` radix bits.
///
/// The clustering uses the *uppermost* significant bits (ignoring the rest),
/// as the §3.1 partial Radix-Cluster does, so each cluster's oids cover a
/// contiguous range of the source column.
pub fn make_decluster_input(n: usize, bits: u32, seed: u64) -> DeclusterInput {
    let mut smaller: Vec<Oid> = (0..n as Oid).collect();
    smaller.shuffle(&mut StdRng::seed_from_u64(seed));
    let result_positions: Vec<Oid> = (0..n as Oid).collect();
    let significant = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(bits);
    let clustered = radix_cluster_oids(
        &smaller,
        &result_positions,
        RadixClusterSpec::partial(bits, if bits > 11 { 2 } else { 1 }, significant - bits),
    );
    DeclusterInput {
        values: clustered.keys().iter().map(|&o| o as i32).collect(),
        positions: clustered.payloads().to_vec(),
        bounds: clustered.bounds().to_vec(),
    }
}

/// One point of the Fig. 7a insertion-window sweep.
#[derive(Debug, Clone, Copy)]
pub struct WindowPoint {
    /// Insertion-window size in bytes.
    pub window_bytes: usize,
    /// Simulated L1 / L2 / TLB misses (None when simulation was skipped).
    pub l1_misses: Option<u64>,
    /// Simulated L2 misses.
    pub l2_misses: Option<u64>,
    /// Simulated TLB misses.
    pub tlb_misses: Option<u64>,
    /// Measured wall-clock milliseconds of the untraced algorithm.
    pub millis: f64,
    /// The Appendix-A cost-model prediction in milliseconds (paper platform).
    pub model_millis: f64,
}

/// Fig. 7a: Radix-Decluster in isolation over a range of window sizes.
///
/// `simulate` additionally replays the access pattern through the cache
/// simulator to obtain miss counts (slower; the figure harness enables it,
/// the Criterion bench does not).
pub fn decluster_window_sweep(
    input: &DeclusterInput,
    bits: u32,
    windows: &[usize],
    params: &CacheParams,
    simulate: bool,
) -> Vec<WindowPoint> {
    windows
        .iter()
        .map(|&window_bytes| {
            let (_, millis) = time_ms(|| {
                radix_decluster(&input.values, &input.positions, &input.bounds, window_bytes)
            });
            let (l1, l2, tlb) = if simulate {
                let mut mem = MemorySystem::new(params);
                let (_, counts) = radix_decluster_traced(
                    &input.values,
                    &input.positions,
                    &input.bounds,
                    window_bytes,
                    &mut mem,
                );
                (
                    Some(counts.l1_misses),
                    Some(counts.l2_misses),
                    Some(counts.tlb_misses),
                )
            } else {
                (None, None, None)
            };
            let model_millis = rdx_cost::algorithms::radix_decluster(
                input.values.len(),
                4,
                bits,
                window_bytes,
                params,
            )
            .millis(params);
            WindowPoint {
                window_bytes,
                l1_misses: l1,
                l2_misses: l2,
                tlb_misses: tlb,
                millis,
                model_millis,
            }
        })
        .collect()
}

/// One point of the Fig. 7b component sweep.
#[derive(Debug, Clone, Copy)]
pub struct ComponentPoint {
    /// Radix bits used for the smaller-side clustering.
    pub bits: u32,
    /// Partial Radix-Cluster of the join index, ms.
    pub cluster_ms: f64,
    /// Clustered Positional-Join producing CLUST_VALUES, ms.
    pub positional_ms: f64,
    /// Radix-Decluster into final order, ms.
    pub decluster_ms: f64,
    /// Sum of the three phases, ms.
    pub total_ms: f64,
    /// Cost-model total for the same configuration (paper platform), ms.
    pub model_total_ms: f64,
}

/// Fig. 7b: the interplay of Radix-Cluster, Positional-Join and
/// Radix-Decluster as a function of the number of radix bits.
pub fn decluster_components_sweep(
    n: usize,
    bits_list: &[u32],
    params: &CacheParams,
) -> Vec<ComponentPoint> {
    // The smaller-side oids in final result order, plus the projection column.
    let mut smaller: Vec<Oid> = (0..n as Oid).collect();
    smaller.shuffle(&mut StdRng::seed_from_u64(42));
    let column: Column<i32> = (0..n).map(|i| i as i32).collect();
    let result_positions: Vec<Oid> = (0..n as Oid).collect();

    bits_list
        .iter()
        .map(|&bits| {
            let passes = if bits > 11 { 2 } else { 1 };
            let (clustered, cluster_ms) = time_ms(|| {
                radix_cluster_oids(
                    &smaller,
                    &result_positions,
                    RadixClusterSpec::new(bits, passes),
                )
            });
            let (clust_values, positional_ms) = time_ms(|| {
                clustered_positional_join(clustered.keys(), clustered.bounds(), &column)
            });
            let window = choose_window_bytes(4, clustered.num_clusters(), params);
            let (_, decluster_ms) = time_ms(|| {
                radix_decluster(
                    clust_values.as_slice(),
                    clustered.payloads(),
                    clustered.bounds(),
                    window,
                )
            });
            let model_total_ms = rdx_cost::algorithms::radix_cluster(
                rdx_cost::DataRegion::new(n, 8),
                bits,
                passes,
                params,
            )
            .millis(params)
                + rdx_cost::algorithms::positional_join_clustered(
                    n,
                    rdx_cost::DataRegion::new(n, 4),
                    4,
                    bits,
                    params,
                )
                .millis(params)
                + rdx_cost::algorithms::radix_decluster(n, 4, bits, window, params).millis(params);
            ComponentPoint {
                bits,
                cluster_ms,
                positional_ms,
                decluster_ms,
                total_ms: cluster_ms + positional_ms + decluster_ms,
                model_total_ms,
            }
        })
        .collect()
}

/// Fig. 8: time the projection phase of one side (π columns of one source
/// table of `n` tuples) under a one-letter code `u`/`s`/`c`/`d`.
/// The join index is a random permutation of the source (hit rate 1).
pub fn dsm_post_projection_phase_ms(code: char, n: usize, pi: usize, params: &CacheParams) -> f64 {
    let mut oids: Vec<Oid> = (0..n as Oid).collect();
    oids.shuffle(&mut StdRng::seed_from_u64(7));
    let columns: Vec<Column<i32>> = (0..pi)
        .map(|a| (0..n).map(|i| (i + a) as i32).collect())
        .collect();
    let result_positions: Vec<Oid> = (0..n as Oid).collect();
    let spec = RadixClusterSpec::optimal_partial(n, 4, params.cache_capacity());

    let (_, ms) = time_ms(|| match code {
        'u' => {
            for col in &columns {
                std::hint::black_box(positional_join(&oids, col));
            }
        }
        's' => {
            let sorted = rdx_core::cluster::radix_sort_oids(&oids, &result_positions, n);
            for col in &columns {
                std::hint::black_box(positional_join(sorted.keys(), col));
            }
        }
        'c' => {
            let clustered = radix_cluster_oids(&oids, &result_positions, spec);
            for col in &columns {
                std::hint::black_box(clustered_positional_join(
                    clustered.keys(),
                    clustered.bounds(),
                    col,
                ));
            }
        }
        'd' => {
            let clustered = radix_cluster_oids(&oids, &result_positions, spec);
            let window = choose_window_bytes(4, clustered.num_clusters(), params);
            for col in &columns {
                let clust_values =
                    clustered_positional_join(clustered.keys(), clustered.bounds(), col);
                std::hint::black_box(radix_decluster(
                    clust_values.as_slice(),
                    clustered.payloads(),
                    clustered.bounds(),
                    window,
                ));
            }
        }
        other => panic!("unknown projection code {other}"),
    });
    ms
}

/// Measured-vs-modeled pair for one Fig. 9 panel point.
#[derive(Debug, Clone, Copy)]
pub struct ModelPoint {
    /// Radix bits.
    pub bits: u32,
    /// Measured wall-clock milliseconds on this host.
    pub measured_ms: f64,
    /// Appendix-A model prediction (paper platform), milliseconds.
    pub modeled_ms: f64,
}

/// Fig. 9a: Radix-Cluster of an `[oid,oid]` join index of `n` tuples.
pub fn fig9_radix_cluster(n: usize, bits: u32, params: &CacheParams) -> ModelPoint {
    let mut oids: Vec<Oid> = (0..n as Oid).collect();
    oids.shuffle(&mut StdRng::seed_from_u64(1));
    let payload: Vec<Oid> = (0..n as Oid).collect();
    let (_, measured_ms) = time_ms(|| {
        std::hint::black_box(radix_cluster_oids(
            &oids,
            &payload,
            RadixClusterSpec::single_pass(bits),
        ))
    });
    let modeled_ms =
        rdx_cost::algorithms::radix_cluster(rdx_cost::DataRegion::new(n, 8), bits, 1, params)
            .millis(params);
    ModelPoint {
        bits,
        measured_ms,
        modeled_ms,
    }
}

/// Fig. 9b: Partitioned Hash-Join of two relations of `n` keys on `bits`
/// bits, clustering included (bits = 0 means the naive Hash-Join).
pub fn fig9_partitioned_hash_join(n: usize, bits: u32, params: &CacheParams) -> ModelPoint {
    let keys = |seed: u64| -> Vec<u64> {
        let mut k: Vec<u64> = (0..n as u64).collect();
        k.shuffle(&mut StdRng::seed_from_u64(seed));
        k
    };
    let larger = keys(1);
    let smaller = keys(2);
    let (_, measured_ms) = time_ms(|| {
        std::hint::black_box(partitioned_hash_join(
            &larger,
            &smaller,
            RadixClusterSpec::single_pass(bits),
        ))
    });
    let region = rdx_cost::DataRegion::new(n, 8);
    let modeled_ms =
        rdx_cost::algorithms::partitioned_hash_join(region, region, bits, n, params).millis(params);
    ModelPoint {
        bits,
        measured_ms,
        modeled_ms,
    }
}

/// Fig. 9c: Clustered Positional-Join through a join index of `n` entries
/// clustered on `bits` bits (bits = 0 is the unclustered case).
pub fn fig9_clustered_positional_join(n: usize, bits: u32, params: &CacheParams) -> ModelPoint {
    let input = make_decluster_input(n, bits, 3);
    let column: Column<i32> = (0..n).map(|i| i as i32).collect();
    let (_, measured_ms) = time_ms(|| {
        std::hint::black_box(clustered_positional_join(
            // keys of the clustering are the source oids
            &input.values.iter().map(|&v| v as Oid).collect::<Vec<_>>(),
            &input.bounds,
            &column,
        ))
    });
    let modeled_ms = rdx_cost::algorithms::positional_join_clustered(
        n,
        rdx_cost::DataRegion::new(n, 4),
        4,
        bits,
        params,
    )
    .millis(params);
    ModelPoint {
        bits,
        measured_ms,
        modeled_ms,
    }
}

/// Fig. 9d: Radix-Decluster with the `w = 32` window rule, vs. radix bits.
pub fn fig9_radix_decluster(n: usize, bits: u32, params: &CacheParams) -> ModelPoint {
    let input = make_decluster_input(n, bits, 4);
    let window = choose_window_bytes(4, 1usize << bits, params);
    let (_, measured_ms) = time_ms(|| {
        std::hint::black_box(radix_decluster(
            &input.values,
            &input.positions,
            &input.bounds,
            window,
        ))
    });
    let modeled_ms =
        rdx_cost::algorithms::radix_decluster(n, 4, bits, window, params).millis(params);
    ModelPoint {
        bits,
        measured_ms,
        modeled_ms,
    }
}

/// Figs. 9e/9f: the two Jive-Join phases, measured together but modeled
/// separately; `left` selects which model the point carries.
pub fn fig9_jive(n: usize, bits: u32, left: bool, params: &CacheParams) -> ModelPoint {
    let pi = 1usize;
    let larger_col: Column<i32> = (0..n).map(|i| i as i32).collect();
    let smaller_col: Column<i32> = (0..n).map(|i| (i * 2) as i32).collect();
    let mut smaller_oids: Vec<Oid> = (0..n as Oid).collect();
    smaller_oids.shuffle(&mut StdRng::seed_from_u64(5));
    let ji = JoinIndex::from_columns((0..n as Oid).collect(), smaller_oids);
    let (_, measured_ms) = time_ms(|| {
        std::hint::black_box(jive_join_projection(
            &ji,
            pi,
            |oid, _| larger_col.value(oid as usize),
            pi,
            |oid, _| smaller_col.value(oid as usize),
            n,
            bits,
        ))
    });
    let table = rdx_cost::DataRegion::new(n, 4);
    let modeled_ms = if left {
        rdx_cost::algorithms::jive_join_left(n, table, 4, bits, params).millis(params)
    } else {
        rdx_cost::algorithms::jive_join_right(n, table, 4, bits, params).millis(params)
    };
    ModelPoint {
        bits,
        measured_ms,
        modeled_ms,
    }
}

/// Which overall strategies (Fig. 10) to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverallStrategy {
    /// DSM post-projection with the planner's codes.
    DsmPostDecluster,
    /// DSM pre-projection with Partitioned Hash-Join.
    DsmPrePhash,
    /// NSM pre-projection with Partitioned Hash-Join.
    NsmPrePhash,
    /// NSM pre-projection with the naive Hash-Join.
    NsmPreHash,
    /// NSM post-projection with Radix-Decluster.
    NsmPostDecluster,
    /// NSM post-projection with Jive-Join.
    NsmPostJive,
}

impl OverallStrategy {
    /// Every strategy of the Fig. 10 comparison.
    pub const ALL: [OverallStrategy; 6] = [
        OverallStrategy::DsmPostDecluster,
        OverallStrategy::DsmPrePhash,
        OverallStrategy::NsmPrePhash,
        OverallStrategy::NsmPreHash,
        OverallStrategy::NsmPostDecluster,
        OverallStrategy::NsmPostJive,
    ];

    /// The Fig. 10 legend label.
    pub fn label(&self) -> &'static str {
        match self {
            OverallStrategy::DsmPostDecluster => "DSM-post-decluster",
            OverallStrategy::DsmPrePhash => "DSM-pre-phash",
            OverallStrategy::NsmPrePhash => "NSM-pre-phash",
            OverallStrategy::NsmPreHash => "NSM-pre-hash",
            OverallStrategy::NsmPostDecluster => "NSM-post-decluster",
            OverallStrategy::NsmPostJive => "NSM-post-jive",
        }
    }
}

/// Runs one overall strategy on a generated workload, returning total ms and
/// (for DSM post-projection) the planner's code label.
pub fn run_overall_strategy(
    strategy: OverallStrategy,
    workload: &JoinWorkload,
    spec: &QuerySpec,
    params: &CacheParams,
) -> (f64, Option<String>) {
    match strategy {
        OverallStrategy::DsmPostDecluster => {
            let plan = DsmPostProjection::plan(&workload.larger, &workload.smaller, params);
            let out = plan.execute(&workload.larger, &workload.smaller, spec, params);
            (out.timings.total_millis(), Some(plan.label()))
        }
        OverallStrategy::DsmPrePhash => {
            let out = dsm_pre_projection(&workload.larger, &workload.smaller, spec, params);
            (out.timings.total_millis(), None)
        }
        OverallStrategy::NsmPrePhash => {
            let out =
                nsm_pre_projection_phash(&workload.larger_nsm, &workload.smaller_nsm, spec, params);
            (out.timings.total_millis(), None)
        }
        OverallStrategy::NsmPreHash => {
            let out = nsm_pre_projection_hash(&workload.larger_nsm, &workload.smaller_nsm, spec);
            (out.timings.total_millis(), None)
        }
        OverallStrategy::NsmPostDecluster => {
            let out = nsm_post_projection_decluster(
                &workload.larger_nsm,
                &workload.smaller_nsm,
                spec,
                params,
            );
            (out.timings.total_millis(), None)
        }
        OverallStrategy::NsmPostJive => {
            let out =
                nsm_post_projection_jive(&workload.larger_nsm, &workload.smaller_nsm, spec, params);
            (out.timings.total_millis(), None)
        }
    }
}

/// Generates the Fig. 10 workload: two relations of `n` tuples, ω stored
/// columns, the given hit rate.
pub fn fig10_workload(n: usize, omega: usize, hit_rate: f64, seed: u64) -> JoinWorkload {
    JoinWorkloadBuilder::equal(n, omega)
        .hit_rate(HitRate(hit_rate))
        .seed(seed)
        .build()
}

/// Fig. 10 "error bars": the DSM post-projection strategy where the smaller
/// side is a `selectivity` selection over a larger base table, measuring only
/// the sparse smaller-side projection phase differences.
pub fn dsm_post_sparse_ms(n: usize, pi: usize, selectivity: f64, params: &CacheParams) -> f64 {
    let sparse = SparseWorkload::generate(n, selectivity, pi, 19);
    let mut oids: Vec<Oid> = (0..n as Oid).collect();
    oids.shuffle(&mut StdRng::seed_from_u64(20));
    let spec =
        RadixClusterSpec::optimal_partial(sparse.base.cardinality(), 4, params.cache_capacity());
    let result_positions: Vec<Oid> = (0..n as Oid).collect();
    let (_, ms) = time_ms(|| {
        let clustered = radix_cluster_oids(&oids, &result_positions, spec);
        let window = choose_window_bytes(4, clustered.num_clusters(), params);
        for a in 0..pi {
            let clust_values =
                sparse_positional_join(clustered.keys(), &sparse.selection, sparse.base.attr(a));
            std::hint::black_box(radix_decluster(
                clust_values.as_slice(),
                clustered.payloads(),
                clustered.bounds(),
                window,
            ));
        }
    });
    ms
}

/// Fig. 11: sparse Clustered Positional-Join — `selected` oids drawn through a
/// selection of the given `selectivity`, clustered on `bits` bits, projecting
/// one column from the base table.
pub fn sparse_clustered_positional_ms(
    selected: usize,
    selectivity: f64,
    bits: u32,
    params: &CacheParams,
) -> f64 {
    let _ = params;
    let sparse = SparseWorkload::generate(selected, selectivity, 1, 23);
    let mut oids: Vec<Oid> = (0..selected as Oid).collect();
    oids.shuffle(&mut StdRng::seed_from_u64(24));
    let payload: Vec<Oid> = (0..selected as Oid).collect();
    let clustered = radix_cluster_oids(
        &oids,
        &payload,
        RadixClusterSpec::new(bits, if bits > 11 { 2 } else { 1 }),
    );
    let (_, ms) = time_ms(|| {
        std::hint::black_box(sparse_positional_join(
            clustered.keys(),
            &sparse.selection,
            sparse.base.attr(0),
        ))
    });
    ms
}

/// A small correctness check used by the harness before timing anything: the
/// planned DSM post-projection and NSM pre-projection must agree on a small
/// workload (guards against benchmarking a broken build).
pub fn sanity_check() -> bool {
    use rdx_core::strategy::reference::{reference_rows, result_rows};
    let w = JoinWorkloadBuilder::equal(2_000, 2).seed(99).build();
    let spec = QuerySpec::symmetric(2);
    let params = CacheParams::paper_pentium4();
    let expected = reference_rows(&w.larger, &w.smaller, &spec);
    let a =
        DsmPostProjection::with_codes(ProjectionCode::PartialCluster, SecondSideCode::Decluster)
            .execute(&w.larger, &w.smaller, &spec, &params);
    let b = nsm_pre_projection_phash(&w.larger_nsm, &w.smaller_nsm, &spec, &params);
    result_rows(&a.result) == expected && result_rows(&b.result) == expected
}

/// Fallback naive join used in the harness's own tests.
pub fn naive_join_len(n: usize) -> usize {
    let keys: Vec<u64> = (0..n as u64).collect();
    hash_join(&keys, &keys).len()
}

/// Picks the Jive partition bits the same way the NSM-post-jive strategy does
/// (re-exported for the Fig. 9e/f sweeps).
pub fn default_jive_bits(n: usize, params: &CacheParams) -> u32 {
    jive_bits(n, 4, params.cache_capacity())
}

/// Picks the Partitioned Hash-Join clustering the same way the strategies do.
pub fn default_join_bits(n: usize, params: &CacheParams) -> u32 {
    join_cluster_spec(n, params.cache_capacity()).bits
}

/// One cell of the deterministic perf-proxy gate: a named simulated count.
///
/// Unlike wall-clock, these values are pure functions of the code and the
/// simulated cache geometry — byte-identical across containers, load levels
/// and CPU generations — so a committed baseline can gate on them exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct MissProxyCell {
    /// Stable metric name, e.g. `"decluster.n16384.b6.l2_misses"`.
    pub name: String,
    /// Unit label (`"misses"`, `"accesses"`, `"cycles"`, `"steps"`, ...).
    pub unit: &'static str,
    /// The simulated count.
    pub value: f64,
    /// `true` for the few cells where a larger value is the better one
    /// (a hit share); the gate compares those the other way round.
    pub higher_is_better: bool,
}

fn push_counts(
    out: &mut Vec<MissProxyCell>,
    prefix: &str,
    counts: &rdx_cache::EventCounts,
    params: &CacheParams,
) {
    let cell = |name: &str, unit: &'static str, value: f64| MissProxyCell {
        name: format!("{prefix}.{name}"),
        unit,
        value,
        higher_is_better: false,
    };
    out.push(cell("accesses", "accesses", counts.accesses as f64));
    out.push(cell("l1_misses", "misses", counts.l1_misses as f64));
    out.push(cell("l2_misses", "misses", counts.l2_misses as f64));
    out.push(cell("tlb_misses", "misses", counts.tlb_misses as f64));
    out.push(cell(
        "stall_cycles",
        "cycles",
        counts.stall_cycles(params).round(),
    ));
}

/// Hash-table entries examined when each of `n` seeded random keys probes
/// the table built over its own partition of a Radix-Cluster on `bits`
/// bits: one per bucket read plus one per overflow entry walked.  The
/// bucket must come from hash bits the cluster did not consume: with the
/// low bits, one bucket in `2^bits` fills and every probe walks its
/// overflow chain.
fn join_entries_examined(n: usize, bits: u32, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let clustered = radix_cluster(&keys, &keys, RadixClusterSpec::single_pass(bits));
    let mut table = HashTable::build(&[]);
    let mut examined = 0;
    for p in 0..clustered.num_clusters() {
        let partition = clustered.cluster_keys(p);
        table.rebuild(partition);
        for &k in partition {
            examined += table.entries_examined(k);
        }
    }
    examined
}

/// The deterministic miss-count measurement mode: replays the Radix-Decluster
/// kernel and a profiled end-to-end pipeline through the cache simulator,
/// counts the hash-join's table entries examined, and reports every count
/// as a named cell.
///
/// `detune_window` deliberately runs the kernel cells with the insertion
/// window collapsed to a single last-level cache line — the left edge of
/// paper Fig. 7a, where every window of output costs a fresh scan over all
/// cluster heads.  The gate's comparator must classify those cells as
/// regressed against a tuned baseline, which is how the harness proves the
/// gate can actually fail.
pub fn miss_count_proxies(params: &CacheParams, detune_window: bool) -> Vec<MissProxyCell> {
    let mut cells = Vec::new();

    // Kernel cells: the traced Radix-Decluster at two (N, bits) shapes.
    for &(n, bits) in &[(1usize << 14, 6u32), (1 << 16, 8)] {
        let input = make_decluster_input(n, bits, 17);
        let tuned = choose_window_bytes(4, input.bounds.len(), params);
        let window = if detune_window {
            params.last_level().line_size
        } else {
            tuned
        };
        let mut mem = MemorySystem::new(params);
        let (_, counts) = radix_decluster_traced(
            &input.values,
            &input.positions,
            &input.bounds,
            window,
            &mut mem,
        );
        push_counts(
            &mut cells,
            &format!("decluster.n{n}.b{bits}"),
            &counts,
            params,
        );
    }

    // End-to-end cell: a profiled pipeline run through the front door, with
    // the per-chunk replay totals read back from the `profile.*` counters.
    let w = JoinWorkloadBuilder::equal(4_000, 2).seed(7).build();
    let mut session = rdx_api::Session::new(rdx_serve::ServeConfig {
        params: params.clone(),
        global_budget: rdx_core::budget::MemoryBudget::bytes(64 * 1024),
        max_concurrent: 1,
        threads_per_query: 1,
        observability: true,
        profiled: true,
        ..rdx_serve::ServeConfig::default()
    });
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());
    session
        .query(larger, smaller)
        .project(QuerySpec::symmetric(2))
        .codes(DsmPostProjection::with_codes(
            ProjectionCode::PartialCluster,
            SecondSideCode::Decluster,
        ))
        .run()
        .expect("profiled proxy query");
    let metrics = session.metrics().expect("observability on");
    for (name, unit) in [
        ("accesses", "accesses"),
        ("l1_misses", "misses"),
        ("l2_misses", "misses"),
        ("tlb_misses", "misses"),
        ("stall_cycles", "cycles"),
    ] {
        let value = metrics
            .counter(&format!("profile.{name}"))
            .expect("profile counters recorded") as f64;
        cells.push(MissProxyCell {
            name: format!("pipeline.e2e.{name}"),
            unit,
            value,
            higher_is_better: false,
        });
    }

    // Join cells: a probe of the per-partition hash table examines O(1)
    // entries whether or not the build side was Radix-Clustered first.
    for bits in [0u32, 6] {
        cells.push(MissProxyCell {
            name: format!("join.n65536.b{bits}.entries_examined"),
            unit: "entries",
            value: join_entries_examined(1 << 16, bits, 17) as f64,
            higher_is_better: false,
        });
    }
    cells.extend(serve_cache_cells(params));
    cells.push(MissProxyCell {
        name: "pipeline.fetch.source_calls".into(),
        unit: "calls",
        value: fetch_source_calls(&w, params) as f64,
        higher_is_better: false,
    });
    cells
}

/// The fetch contract as a count: the `pipeline.e2e` query (same relations,
/// codes and 64 KiB grant) stepped over counting sources.  A source is asked
/// once per morsel × column × chunk; a per-value path would ask 16 000 times.
fn fetch_source_calls(w: &JoinWorkload, params: &CacheParams) -> usize {
    let policy = rdx_exec::ExecPolicy::with_threads(1)
        .budget(rdx_core::budget::MemoryBudget::bytes(64 * 1024));
    let pipeline = rdx_exec::ProjectionPipeline::new(DsmPostProjection::with_codes(
        ProjectionCode::PartialCluster,
        SecondSideCode::Decluster,
    ));
    let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, params, &policy));
    let larger = CountingSource::new(&w.larger);
    let smaller = CountingSource::new(&w.smaller);
    let mut run = rdx_exec::PipelineRun::new(
        prepared,
        &larger,
        &smaller,
        &QuerySpec::symmetric(2),
        params,
        &policy,
    );
    run.run_to_completion(&mut rdx_core::strategy::sink::MaterializeSink::new());
    larger.calls() + smaller.calls()
}

/// Serve-layer cells — the cache-hit vs cache-miss split of a query's cost,
/// as counts: twelve pairs in the `mix_budget_wire` size ratios (1/100
/// scale, hottest = largest, every plan declustering) behind one `Session`
/// whose prefix cache holds half of what the twelve prefixes need, driven
/// by a fixed zipf-expectation sequence of 600 queries.
fn serve_cache_cells(params: &CacheParams) -> Vec<MissProxyCell> {
    const ROWS: [usize; 12] = [2000, 1500, 1000, 800, 600, 400, 300, 200, 150, 100, 80, 60];
    let pairs: Vec<_> = (ROWS.iter().zip(1..))
        .map(|(&rows, seed)| JoinWorkloadBuilder::equal(rows, 1).seed(seed).build())
        .map(|w| (Arc::new(w.larger), Arc::new(w.smaller)))
        .collect();
    // Replays `sequence` against a cache of `cache_bytes`; returns the
    // final cache counters and the prefix rows rebuilt on misses.
    let replay = |cache_bytes: usize, sequence: &[usize]| {
        let mut session = rdx_api::Session::new(rdx_serve::ServeConfig {
            params: params.clone(),
            max_concurrent: 1,
            threads_per_query: 1,
            cache_bytes,
            ..rdx_serve::ServeConfig::default()
        });
        let ids: Vec<_> = pairs
            .iter()
            .map(|(l, s)| {
                (
                    session.register_arc(l.clone()),
                    session.register_arc(s.clone()),
                )
            })
            .collect();
        let mut rebuilt_rows = 0;
        for &t in sequence {
            let stats = session
                .query(ids[t].0, ids[t].1)
                .project(QuerySpec::symmetric(1))
                .codes(DsmPostProjection::with_codes(
                    ProjectionCode::PartialCluster,
                    SecondSideCode::Decluster,
                ))
                .run()
                .expect("serve proxy query")
                .stats;
            rebuilt_rows += if stats.cache_hit { 0 } else { stats.rows };
        }
        (session.cache_stats(), rebuilt_rows)
    };
    let (all_resident, all_rows) = replay(usize::MAX, &(0..ROWS.len()).collect::<Vec<_>>());
    let sequence = rdx_workload::Zipf::new(ROWS.len(), 1.0).expectation_sequence(600, 11);
    let (stats, rebuilt_rows) = replay(all_resident.resident_bytes / 2, &sequence);
    let cell = |name: &str, unit, value: usize, higher_is_better| MissProxyCell {
        name: name.to_string(),
        unit,
        value: value as f64,
        higher_is_better,
    };
    vec![
        cell(
            "prefix.decluster.bytes_per_row",
            "bytes",
            all_resident.resident_bytes / all_rows,
            false,
        ),
        cell(
            "cache.zipf12.hit_permille",
            "permille",
            (stats.hits * 1000 / (stats.hits + stats.misses)) as usize,
            true,
        ),
        cell("cache.zipf12.rebuilt_rows", "rows", rebuilt_rows, false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanity_check_passes() {
        assert!(sanity_check());
    }

    #[test]
    fn decluster_input_is_consistent() {
        let input = make_decluster_input(2_000, 4, 1);
        assert_eq!(input.values.len(), 2_000);
        assert_eq!(*input.bounds.last().unwrap(), 2_000);
        assert!(rdx_core::decluster::validate_inputs(
            &input.positions,
            &input.bounds
        ));
    }

    #[test]
    fn window_sweep_produces_monotone_model_near_the_knee() {
        let params = CacheParams::paper_pentium4();
        let input = make_decluster_input(100_000, 6, 2);
        let points = decluster_window_sweep(
            &input,
            6,
            &[16 * 1024, 256 * 1024, 8 * 1024 * 1024],
            &params,
            false,
        );
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.millis >= 0.0));
        // The model charges the oversized window more than the tuned one.
        assert!(points[2].model_millis > points[1].model_millis);
    }

    #[test]
    fn projection_phase_codes_all_run() {
        let params = CacheParams::paper_pentium4();
        for code in ['u', 's', 'c', 'd'] {
            let ms = dsm_post_projection_phase_ms(code, 20_000, 2, &params);
            assert!(ms >= 0.0, "code {code}");
        }
    }

    #[test]
    fn fig9_points_have_positive_values() {
        let params = CacheParams::paper_pentium4();
        let p = fig9_radix_cluster(50_000, 4, &params);
        assert!(p.measured_ms >= 0.0 && p.modeled_ms > 0.0);
        let p = fig9_partitioned_hash_join(20_000, 4, &params);
        assert!(p.measured_ms > 0.0 && p.modeled_ms > 0.0);
        let p = fig9_clustered_positional_join(20_000, 4, &params);
        assert!(p.modeled_ms > 0.0);
        let p = fig9_radix_decluster(20_000, 4, &params);
        assert!(p.modeled_ms > 0.0);
        let p = fig9_jive(20_000, 4, true, &params);
        assert!(p.modeled_ms > 0.0);
    }

    #[test]
    fn overall_strategies_run_on_a_small_workload() {
        let params = CacheParams::paper_pentium4();
        let w = fig10_workload(5_000, 4, 1.0, 3);
        let spec = QuerySpec::symmetric(2);
        for s in OverallStrategy::ALL {
            let (ms, label) = run_overall_strategy(s, &w, &spec, &params);
            assert!(ms >= 0.0, "{}", s.label());
            if s == OverallStrategy::DsmPostDecluster {
                assert!(label.is_some());
            }
        }
    }

    #[test]
    fn sparse_measurements_run() {
        let params = CacheParams::paper_pentium4();
        assert!(sparse_clustered_positional_ms(10_000, 0.1, 4, &params) >= 0.0);
        assert!(dsm_post_sparse_ms(10_000, 1, 0.1, &params) >= 0.0);
    }
}
