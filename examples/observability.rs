//! The observability layer end to end: a zipfian ticket mix runs through a
//! [`QueryEngine`] built with [`ServeConfig::observability`] on, then the
//! example prints the metrics registry (engine counters and gauges,
//! queue-wait / service / chunk-latency histograms, the cost model's
//! predicted-vs-observed ratio) and replays **one query's complete
//! lifecycle** — submit → admit → cache lookup → chunk steps → done —
//! from a single trace snapshot ([`Obs::trace_snapshot`]).
//!
//! Run with `cargo run --release --example observability [queries]`
//! (default 16).

use radix_decluster::prelude::*;

fn main() {
    let queries = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);

    // A small multi-tenant mix: zipfian popularity repeats joins, so the
    // trace shows both cold (cache-miss) and warm (cache-hit) lifecycles.
    let mix = QueryMix::generate(&MixConfig {
        tenants: vec![(30_000, 2), (10_000, 1), (4_000, 2)],
        queries,
        zipf_exponent: 1.0,
        seed: 11,
        ..MixConfig::default()
    });

    let mut engine = QueryEngine::new(ServeConfig {
        params: CacheParams::paper_pentium4(),
        global_budget: MemoryBudget::bytes(mix.tenant_data_bytes(0) / 4),
        max_concurrent: 3,
        cache_bytes: 64 << 20,
        plan_shares: Some(3),
        observability: true,
        ..ServeConfig::default()
    });
    let ids: Vec<(RelationId, RelationId)> = mix
        .tenants
        .iter()
        .map(|w| {
            (
                engine.register(w.larger.clone()),
                engine.register(w.smaller.clone()),
            )
        })
        .collect();

    println!("serving {queries} queries over {} tenants…\n", ids.len());
    let tickets: Vec<TicketId> = mix
        .queries
        .iter()
        .map(|q| {
            let (larger, smaller) = ids[q.tenant];
            engine
                .query(larger, smaller)
                .project(QuerySpec::symmetric(q.project))
                .submit()
        })
        .collect();
    while engine.step() != EngineStep::Idle {}
    let reports: Vec<_> = tickets
        .iter()
        .map(|&t| match engine.poll(t) {
            TicketPoll::Done(Served::Columns(report)) => report,
            other => panic!("every ticket must finish, got {other:?}"),
        })
        .collect();

    // 1. The whole engine in one text snapshot.
    let metrics = engine
        .obs()
        .metrics_snapshot()
        .expect("observability is on");
    println!("=== metrics snapshot ===\n{}", metrics.to_text());

    // 2. One query's complete lifecycle, replayed from the shared trace.
    // Pick the last report: under zipfian repetition it is usually a warm
    // (cache-hit) lifecycle with no join prefix to pay.
    let trace = engine.obs().trace_snapshot().expect("observability is on");
    let stats = &reports.last().expect("served at least one query").stats;
    let query = QueryId(stats.query_id);
    println!(
        "=== lifecycle of {query} ({} rows in {} chunks, cache {}) ===",
        stats.rows,
        stats.chunks,
        if stats.cache_hit { "hit" } else { "miss" }
    );
    for event in trace.events_for(query) {
        println!("  [{:>10} ns] {:?}", event.at_ns, event.kind);
    }
    println!(
        "\ntrace holds {} events across {} queries ({} dropped by the ring)",
        trace.events.len(),
        trace.queries().len(),
        trace.dropped
    );

    // 3. The same registry, scrape-ready.
    let prometheus = metrics.to_prometheus();
    let preview: Vec<&str> = prometheus.lines().take(8).collect();
    println!("\n=== prometheus exposition (first lines) ===");
    for line in preview {
        println!("{line}");
    }
}
