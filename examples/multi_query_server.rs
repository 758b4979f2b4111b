//! A multi-tenant serving session through the **ticket front door**: a
//! zipfian query mix is submitted as non-blocking tickets, pumped with
//! [`Session::drive`] and observed with [`Ticket::poll`] — comparing serial
//! execution, fair chunk interleaving, and interleaving with the
//! clustered-join-index cache warm.  A final pass demonstrates the
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

/// One served pass: per-query latency (wait + service) and cache hits.
struct PassReport {
    latencies: Vec<Duration>,
    cache_hits: usize,
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
         peak-conc {}  peak-bytes {:>9}  cache-hits {}",
        wall * 1e3,
        latencies.len() as f64 / wall.max(1e-9),
        percentile(&latencies, 0.50).as_secs_f64() * 1e3,
        percentile(&latencies, 0.99).as_secs_f64() * 1e3,
        pass.peak_concurrency,
        pass.peak_bytes,
        pass.cache_hits,
    );
}

/// Submits every query of the mix as a ticket, drives the session to
/// completion with bounded `drive` calls, and polls outcomes as they land.
fn serve_pass(
    session: &mut Session,
    mix: &QueryMix,
    ids: &[(RelationId, RelationId)],
) -> PassReport {
    let started = std::time::Instant::now();
    session.engine_mut().reset_stats();
    let tickets: Vec<Ticket> = mix
        .queries
        .iter()
        .map(|q| {
            let (larger, smaller) = ids[q.tenant];
            session
                .query(larger, smaller)
                .project(QuerySpec::symmetric(q.project))
                .submit()
        })
        .collect();
    let mut latencies = Vec::with_capacity(tickets.len());
    let mut cache_hits = 0;
    let mut open: Vec<Ticket> = tickets;
    // The async-front loop shape: run a bounded burst of chunk-steps, then
    // poll — submissions, polls and drives interleave freely.
    loop {
        let ran = session.drive(8);
        open.retain(|t| match t.poll(session) {
            QueryPoll::Done(report) => {
                latencies.push(report.stats.wait + report.stats.service);
                cache_hits += report.stats.cache_hit as usize;
                false
            }
            QueryPoll::Rejected(e) => panic!("query rejected: {e}"),
            QueryPoll::Queued | QueryPoll::Chunk(_) => true,
        });
        if ran == 0 && open.is_empty() {
            break;
        }
    }
    let stats = session.engine_mut().stats();
    PassReport {
        latencies,
        cache_hits,
        peak_concurrency: stats.peak_concurrency,
        peak_bytes: stats.peak_concurrent_bytes,
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
    // across all three sessions — registered, never copied.
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
        fairness: FairnessPolicy::CostWeighted,
        plan_shares: Some(4),
        observability: false,
        profiled: false,
        ..ServeConfig::default()
    };
    let register_all = |session: &mut Session| -> Vec<(RelationId, RelationId)> {
        relations
            .iter()
            .map(|(l, s)| {
                (
                    session.register_arc(l.clone()),
                    session.register_arc(s.clone()),
                )
            })
            .collect()
    };

    // 1. Serial: one query at a time, no reuse.
    let mut serial = Session::new(ServeConfig {
        max_concurrent: 1,
        ..base.clone()
    });
    let ids = register_all(&mut serial);
    summarize("serial (no cache)", &serve_pass(&mut serial, &mix, &ids));

    // 2. Interleaved: admission + fair chunk scheduling, still cold.
    let mut interleaved = Session::new(base.clone());
    let ids = register_all(&mut interleaved);
    summarize(
        "interleaved (no cache)",
        &serve_pass(&mut interleaved, &mix, &ids),
    );

    // 3. Interleaved + clustered-index cache, cold then warm pass.
    let mut cached = Session::new(ServeConfig {
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
    cached.drive(3);
    let late = cached
        .query(l0, s0)
        .project(QuerySpec::symmetric(2))
        .submit();
    cached.drive_until_idle();
    match (early.poll(&mut cached), late.poll(&mut cached)) {
        (QueryPoll::Done(a), QueryPoll::Done(b)) => {
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
    // admission — the cost model prices it at this session's cache share
    // and refuses before a single chunk runs — while a straggler cancelled
    // mid-flight hands its memory grant back at the next chunk boundary.
    // Neither disturbs the in-flight query they share the session with.
    let in_flight = cached
        .query(l0, s0)
        .project(QuerySpec::symmetric(2))
        .submit();
    cached.drive(3);
    let doomed = cached
        .query(l0, s0)
        .project(QuerySpec::symmetric(2))
        .deadline(1) // 1 ns of service time: infeasible by construction
        .submit();
    let straggler = cached
        .query(l0, s0)
        .project(QuerySpec::symmetric(2))
        .submit();
    cached.drive(6);
    let was_live = straggler.cancel(&mut cached);
    cached.drive_until_idle();
    match doomed.poll(&mut cached) {
        QueryPoll::Rejected(RdxError::Deadline(DeadlineError::Infeasible {
            predicted_ns,
            deadline_ns,
        })) => println!(
            "deadline latecomer rejected at admission: predicted {predicted_ns} ns \
             against a {deadline_ns} ns deadline — it never held a grant"
        ),
        other => panic!("infeasible deadline must be rejected, got {other:?}"),
    }
    match straggler.poll(&mut cached) {
        QueryPoll::Rejected(RdxError::Cancelled) => println!(
            "straggler cancelled mid-flight (was_live={was_live}): grant reclaimed \
             at the chunk boundary"
        ),
        // A small mix can finish the straggler before the cancel lands.
        QueryPoll::Done(_) if !was_live => {
            println!("straggler finished before the cancel landed — delivered once")
        }
        other => panic!("straggler must cancel or finish, got {other:?}"),
    }
    match in_flight.poll(&mut cached) {
        QueryPoll::Done(q) => println!(
            "the in-flight query never noticed: {} rows, byte-identical by \
             construction ({} cancellation(s), {} deadline reject(s) this session)",
            q.stats.rows,
            cached.engine_mut().stats().cancellations,
            cached.engine_mut().stats().deadline_rejects,
        ),
        other => panic!("the in-flight query must finish, got {other:?}"),
    }
}
