//! A multi-tenant serving engine through the **ticket front door**: a
//! zipfian query mix is submitted as non-blocking tickets, pumped with
//! [`QueryEngine::step`] and observed with [`QueryEngine::poll`] — comparing serial
//! execution, remaining-work-first chunk interleaving, and interleaving
//! with the clustered-join-index cache warm.  A final pass demonstrates the
//! async-front enabler: new submissions landing between chunk steps of
//! queries already in flight.
//!
//! Run with `cargo run --release --example multi_query_server [queries]`
//! (default 24).
//!
//! Everything here runs in-process; the same engine speaks the wire
//! protocol in `examples/net_server.rs` / `examples/net_client.rs`, where
//! remote clients submit, poll and cancel over TCP or unix sockets.

use radix_decluster::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One served pass: per-query latency (wait + service), the pass's counts
/// (deltas of the engine's cumulative stats) and the engine's peaks.
struct PassReport {
    latencies: Vec<Duration>,
    cache_hits: u64,
    chunks: u64,
    peak_concurrency: usize,
    peak_bytes: usize,
    wall: Duration,
}

fn summarize(label: &str, pass: &PassReport) {
    let mut latencies = pass.latencies.clone();
    latencies.sort();
    let wall = pass.wall.as_secs_f64();
    println!(
        "{label:<28} wall {:>7.1} ms  thr {:>6.1} q/s  p50 {:>7.1} ms  p99 {:>7.1} ms  \
         chunks {:>5}  cache-hits {}  engine peak-conc {}  peak-bytes {:>9}",
        wall * 1e3,
        latencies.len() as f64 / wall.max(1e-9),
        percentile(&latencies, 0.50).as_secs_f64() * 1e3,
        percentile(&latencies, 0.99).as_secs_f64() * 1e3,
        pass.chunks,
        pass.cache_hits,
        pass.peak_concurrency,
        pass.peak_bytes,
    );
}

/// Submits every query of the mix as a ticket, steps the engine to
/// completion in bounded bursts, and polls outcomes as they land.
/// Counts are this pass's share of the engine's lifetime totals; the peaks
/// cannot be windowed, so they are the engine's so far.
fn serve_pass(
    engine: &mut QueryEngine,
    mix: &QueryMix,
    ids: &[(RelationId, RelationId)],
) -> PassReport {
    let started = std::time::Instant::now();
    let before = engine.stats();
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
    let mut latencies = Vec::with_capacity(tickets.len());
    let mut open: Vec<TicketId> = tickets;
    // The async-front loop shape: run a bounded burst of chunk-steps, then
    // poll — submissions, polls and steps interleave freely.
    loop {
        let idle = (0..8).any(|_| engine.step() == EngineStep::Idle);
        open.retain(|&t| match engine.poll(t) {
            TicketPoll::Done(Served::Columns(report)) => {
                latencies.push(report.stats.wait + report.stats.service);
                false
            }
            TicketPoll::Queued { .. } | TicketPoll::Running { .. } => true,
            other => panic!("query not served: {other:?}"),
        });
        if idle && open.is_empty() {
            break;
        }
    }
    let after = engine.stats();
    PassReport {
        latencies,
        cache_hits: after.cache_hits - before.cache_hits,
        chunks: after.chunks_dispatched - before.chunks_dispatched,
        peak_concurrency: after.peak_concurrency,
        peak_bytes: after.peak_concurrent_bytes,
        wall: started.elapsed(),
    }
}

fn main() {
    let queries = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);

    println!("generating the multi-tenant mix ({queries} queries, zipfian tenants)…");
    let mix = QueryMix::generate(&MixConfig {
        tenants: vec![(400_000, 2), (120_000, 4), (40_000, 1), (12_000, 2)],
        queries,
        zipf_exponent: 1.0,
        seed: 7,
        ..MixConfig::default()
    });
    println!(
        "tenant popularity: {:?}  (repeat factor {:.1}×)",
        mix.popularity(),
        mix.repeat_factor()
    );

    // Global budget: a quarter of the hottest tenant's data, split across
    // up to four admitted queries.  The tenants' relations are Arc-shared
    // across all three engines — registered, never copied.
    let budget = MemoryBudget::bytes(mix.tenant_data_bytes(0) / 4);
    let relations: Vec<(Arc<DsmRelation>, Arc<DsmRelation>)> = mix
        .tenants
        .iter()
        .map(|w| (Arc::new(w.larger.clone()), Arc::new(w.smaller.clone())))
        .collect();
    let base = ServeConfig {
        params: CacheParams::paper_pentium4(),
        global_budget: budget,
        max_concurrent: 4,
        threads_per_query: 1,
        cache_bytes: 0,
        plan_shares: Some(4),
        observability: false,
        ..ServeConfig::default()
    };
    let register_all = |engine: &mut QueryEngine| -> Vec<(RelationId, RelationId)> {
        relations
            .iter()
            .map(|(l, s)| {
                (
                    engine.register_arc(l.clone()),
                    engine.register_arc(s.clone()),
                )
            })
            .collect()
    };

    // 1. Serial: one query at a time, no reuse.
    let mut serial = QueryEngine::new(ServeConfig {
        max_concurrent: 1,
        ..base.clone()
    });
    let ids = register_all(&mut serial);
    summarize("serial (no cache)", &serve_pass(&mut serial, &mix, &ids));

    // 2. Interleaved: admission + remaining-work-first chunk scheduling,
    //    still cold.
    let mut interleaved = QueryEngine::new(base.clone());
    let ids = register_all(&mut interleaved);
    summarize(
        "interleaved (no cache)",
        &serve_pass(&mut interleaved, &mix, &ids),
    );

    // 3. Interleaved + clustered-index cache, cold then warm pass.
    let mut cached = QueryEngine::new(ServeConfig {
        cache_bytes: 256 << 20,
        ..base
    });
    let ids = register_all(&mut cached);
    summarize(
        "interleaved + cache (cold)",
        &serve_pass(&mut cached, &mix, &ids),
    );
    summarize(
        "interleaved + cache (warm)",
        &serve_pass(&mut cached, &mix, &ids),
    );
    println!("(the warm pass runs on the cold pass's engine: its peaks are engine-lifetime)");
    let stats = cached.cache_stats();
    println!(
        "cache after both passes: {} hits / {} misses / {} evictions, {} B resident",
        stats.hits, stats.misses, stats.evictions, stats.resident_bytes
    );

    // 4. The async-front enabler: a latecomer submitted while the warm mix
    // is mid-flight still gets admitted, interleaved and served.
    let (l0, s0) = ids[0];
    let early = cached
        .query(l0, s0)
        .project(QuerySpec::symmetric(2))
        .submit();
    for _ in 0..3 {
        cached.step();
    }
    let late = cached
        .query(l0, s0)
        .project(QuerySpec::symmetric(2))
        .submit();
    while cached.step() != EngineStep::Idle {}
    match (cached.poll(early), cached.poll(late)) {
        (TicketPoll::Done(Served::Columns(a)), TicketPoll::Done(Served::Columns(b))) => {
            assert_eq!(a.result.cardinality(), b.result.cardinality());
            println!(
                "late submission joined mid-flight and finished: {} rows each \
                 (in-flight admission, zero executor changes)",
                a.stats.rows
            );
        }
        other => panic!("both tickets must finish, got {other:?}"),
    }

    // 5. Robustness: a latecomer with an impossible deadline is rejected at
    // admission — the cost model prices it at this engine's cache share
    // and refuses before a single chunk runs — while a straggler cancelled
    // mid-flight hands its memory grant back at the next chunk boundary.
    // Neither disturbs the in-flight query they share the engine with.
    let in_flight = cached
        .query(l0, s0)
        .project(QuerySpec::symmetric(2))
        .submit();
    for _ in 0..3 {
        cached.step();
    }
    let doomed = cached
        .query(l0, s0)
        .project(QuerySpec::symmetric(2))
        .deadline(1) // 1 ns of service time: infeasible by construction
        .submit();
    let straggler = cached
        .query(l0, s0)
        .project(QuerySpec::symmetric(2))
        .submit();
    for _ in 0..6 {
        cached.step();
    }
    let was_live = cached.cancel(straggler);
    while cached.step() != EngineStep::Idle {}
    match cached.poll(doomed) {
        TicketPoll::Rejected(RdxError::Deadline(DeadlineError::Infeasible {
            predicted_ns,
            deadline_ns,
        })) => println!(
            "deadline latecomer rejected at admission: predicted {predicted_ns} ns \
             against a {deadline_ns} ns deadline — it never held a grant"
        ),
        other => panic!("infeasible deadline must be rejected, got {other:?}"),
    }
    match cached.poll(straggler) {
        TicketPoll::Rejected(RdxError::Cancelled) => println!(
            "straggler cancelled mid-flight (was_live={was_live}): grant reclaimed \
             at the chunk boundary"
        ),
        // A small mix can finish the straggler before the cancel lands.
        TicketPoll::Done(Served::Columns(_)) if !was_live => {
            println!("straggler finished before the cancel landed — delivered once")
        }
        other => panic!("straggler must cancel or finish, got {other:?}"),
    }
    match cached.poll(in_flight) {
        TicketPoll::Done(Served::Columns(q)) => println!(
            "the in-flight query never noticed: {} rows, byte-identical by \
             construction ({} cancellation(s), {} deadline reject(s) this engine)",
            q.stats.rows,
            cached.stats().cancellations,
            cached.stats().deadline_rejects,
        ),
        other => panic!("the in-flight query must finish, got {other:?}"),
    }
}
