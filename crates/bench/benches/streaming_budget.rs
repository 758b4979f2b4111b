//! Throughput of the memory-budgeted streaming projection pipeline as a
//! function of the budget.
//!
//! One workload (1M-tuple equal join, π = 1 per side) executed by
//! `ProjectionPipeline` under budgets of 1/4, 1/16 and 1/64 of the value
//! data, plus the unbounded (single-chunk) run and the one-chunk
//! materialise (`ProjectionPipeline::materialize`) baseline.  The interesting read-out is how little
//! throughput a 16× tighter working set costs: the chunk-restart overhead is
//! `O(chunks · 2^B)` cursor repositionings against an `O(N)` pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdx_cache::CacheParams;
use rdx_core::budget::MemoryBudget;
use rdx_core::strategy::sink::RowChunkSink;
use rdx_core::strategy::{DsmPostProjection, ProjectionCode, QuerySpec, SecondSideCode};
use rdx_exec::{ExecPolicy, PipelineRun, ProjectionPipeline};
use rdx_workload::BudgetedWorkload;
use std::ops::Range;
use std::sync::Arc;

/// A sink that consumes the stream without retaining it (checksums every
/// value), so the bench measures the pipeline, not a materialising consumer.
/// It lends one chunk-sized buffer, reused for every column chunk.
#[derive(Default)]
struct ChecksumSink {
    sum: i64,
    rows: usize,
    buffer: Vec<i32>,
}

impl RowChunkSink for ChecksumSink {
    type Cell = i32;

    fn column(&mut self, _c: usize, rows: Range<usize>) -> &mut [i32] {
        self.buffer.resize(rows.len(), 0);
        &mut self.buffer
    }

    fn emit(&mut self, c: usize, _first_row: usize, rows: usize) {
        for &v in &self.buffer {
            self.sum = self.sum.wrapping_add(v as i64);
        }
        if c == 0 {
            self.rows += rows;
        }
    }
}

fn bench_streaming_budget(c: &mut Criterion) {
    let n = 1_000_000;
    let preset = BudgetedWorkload::generate(n, 1, 11);
    let w = &preset.workload;
    let spec = QuerySpec::symmetric(1);
    let params = CacheParams::paper_pentium4();
    let pipeline = ProjectionPipeline::new(DsmPostProjection::with_codes(
        ProjectionCode::PartialCluster,
        SecondSideCode::Decluster,
    ));

    let mut group = c.benchmark_group("streaming_budget_1m");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));

    let sequential = ExecPolicy::with_threads(1);
    group.bench_function(BenchmarkId::from_parameter("materializing_baseline"), |b| {
        b.iter(|| {
            pipeline
                .materialize(&w.larger, &w.smaller, &spec, &params, &sequential)
                .expect("π = 1 fits the workload")
        })
    });

    let mut run = |label: String, budget: MemoryBudget| {
        let policy = ExecPolicy::with_threads(1).budget(budget);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
                let mut run =
                    PipelineRun::new(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
                let mut sink = ChecksumSink::default();
                run.run_to_completion(&mut sink);
                assert_eq!(sink.rows, run.run_stats().rows_emitted);
                sink.sum
            })
        });
    };

    run("unbounded".into(), MemoryBudget::unbounded());
    for (denom, bytes) in [4usize, 16, 64].into_iter().zip(preset.budgets()) {
        run(format!("budget_1_{denom}"), MemoryBudget::bytes(bytes));
    }
    group.finish();
}

criterion_group!(benches, bench_streaming_budget);
criterion_main!(benches);
