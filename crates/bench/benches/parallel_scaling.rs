//! Scaling bench for the `rdx-exec` morsel-driven engine: sequential
//! baselines vs. the parallel kernels at 1/2/4/8 worker threads.
//!
//! Three tiers: the Radix-Decluster kernel alone (≥ 4M tuples), the
//! Radix-Cluster kernel, and the end-to-end DSM post-projection
//! (`ProjectionPipeline::materialize`, whose sequential run is `threads_1`).  Absolute numbers depend on the host's core count —
//! on a single-core container the parallel runs measure scheduling overhead
//! only; on a multi-core host the decluster windows and cluster shards are
//! independent and scale with cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdx_bench::measure::{make_decluster_input, par_decluster_whole};
use rdx_cache::CacheParams;
use rdx_core::cluster::{radix_cluster_oids, RadixClusterSpec};
use rdx_core::decluster::{choose_window_bytes, radix_decluster};
use rdx_core::strategy::{DsmPostProjection, ProjectionCode, QuerySpec, SecondSideCode};
use rdx_dsm::Oid;
use rdx_exec::{par_radix_cluster_oids, ExecPolicy, ProjectionPipeline};
use rdx_workload::JoinWorkloadBuilder;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_parallel_decluster(c: &mut Criterion) {
    let n = 4_000_000;
    let bits = 10;
    let params = CacheParams::paper_pentium4();
    let input = make_decluster_input(n, bits, 3);
    let window = choose_window_bytes(4, 1 << bits, &params);

    let mut group = c.benchmark_group("parallel_scaling_decluster_4m");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::from_parameter("sequential"), |b| {
        b.iter(|| radix_decluster(&input.values, &input.positions, &input.bounds, window))
    });
    for threads in THREAD_COUNTS {
        let policy = ExecPolicy::with_threads(threads);
        let window = choose_window_bytes(4, 1 << bits, &params.per_core_share(threads));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads_{threads}")),
            &policy,
            |b, policy| {
                b.iter(|| {
                    par_decluster_whole(
                        &input.values,
                        &input.positions,
                        &input.bounds,
                        window,
                        policy,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_parallel_cluster(c: &mut Criterion) {
    let n = 4_000_000;
    let oids: Vec<Oid> = (0..n as Oid).rev().collect();
    let payload: Vec<Oid> = (0..n as Oid).collect();
    let spec = RadixClusterSpec::new(10, 1);

    let mut group = c.benchmark_group("parallel_scaling_cluster_4m");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::from_parameter("sequential"), |b| {
        b.iter(|| radix_cluster_oids(&oids, &payload, spec))
    });
    for threads in THREAD_COUNTS {
        let policy = ExecPolicy::with_threads(threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads_{threads}")),
            &policy,
            |b, policy| b.iter(|| par_radix_cluster_oids(&oids, &payload, spec, policy)),
        );
    }
    group.finish();
}

fn bench_parallel_strategy(c: &mut Criterion) {
    let w = JoinWorkloadBuilder::equal(1_000_000, 2).seed(7).build();
    let spec = QuerySpec::symmetric(2);
    let params = CacheParams::paper_pentium4();
    let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(
        ProjectionCode::PartialCluster,
        SecondSideCode::Decluster,
    ));

    let mut group = c.benchmark_group("parallel_scaling_dsm_post_1m");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        let policy = ExecPolicy::with_threads(threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads_{threads}")),
            &policy,
            |b, policy| {
                b.iter(|| {
                    pipeline
                        .materialize(&w.larger, &w.smaller, &spec, &params, policy)
                        .expect("π = 2 fits the workload")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_decluster,
    bench_parallel_cluster,
    bench_parallel_strategy
);
criterion_main!(benches);
