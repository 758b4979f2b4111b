//! Ablation bench: single-pass vs. multi-pass Radix-Cluster (§2.2).
//!
//! The paper's argument for multi-pass clustering is that a single pass with
//! too many output cursors thrashes the TLB and caches; two passes of B/2 bits
//! each trade an extra sequential sweep for cache-resident cursor sets.  This
//! bench measures exactly that trade-off, plus the `w = 32` window-rule
//! ablation for Radix-Decluster (§4.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdx_bench::measure::make_decluster_input;
use rdx_cache::CacheParams;
use rdx_core::cluster::{radix_cluster_oids, RadixClusterSpec};
use rdx_core::decluster::radix_decluster;
use rdx_dsm::Oid;

fn bench_cluster_passes(c: &mut Criterion) {
    let n = 2_000_000;
    let oids: Vec<Oid> = (0..n as Oid).rev().collect();
    let payload: Vec<Oid> = (0..n as Oid).collect();

    let mut group = c.benchmark_group("ablation_cluster_passes");
    group.sample_size(10);
    for bits in [8u32, 14, 18] {
        for passes in [1u32, 2, 3] {
            group.bench_with_input(
                BenchmarkId::new(format!("bits_{bits}"), format!("passes_{passes}")),
                &(bits, passes),
                |b, &(bits, passes)| {
                    b.iter(|| {
                        radix_cluster_oids(&oids, &payload, RadixClusterSpec::new(bits, passes))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_window_rule(c: &mut Criterion) {
    // Ablation of the w ≥ 32 tuples-per-cluster-per-window rule: windows far
    // below the rule pay per-cluster start-up costs, far above it they exceed
    // the cache.
    let params = CacheParams::paper_pentium4();
    let n = 1_000_000;
    let bits = 10;
    let input = make_decluster_input(n, bits, 9);
    let clusters = 1usize << bits;

    let mut group = c.benchmark_group("ablation_window_rule");
    group.sample_size(10);
    for w_per_cluster in [2usize, 8, 32, 128] {
        let window_bytes = (w_per_cluster * clusters * 4).min(params.cache_capacity());
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("w_{w_per_cluster}")),
            &window_bytes,
            |b, &window_bytes| {
                b.iter(|| {
                    radix_decluster(&input.values, &input.positions, &input.bounds, window_bytes)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cluster_passes, bench_window_rule);
criterion_main!(benches);
