//! A wire-protocol client for `examples/net_server.rs`: opens the session
//! with `Hello`, submits post-projection queries over TCP, waits for the
//! outcomes the server pushes, and exercises the cancel path — the same
//! ticket state machine the in-process front door speaks (each outcome is
//! delivered once), carried over length-prefixed frames.
//!
//! Start the server first (`cargo run --release --example net_server`),
//! then run with `cargo run --release --example net_client [addr]`
//! (default `127.0.0.1:7744`).

use radix_decluster::prelude::*;
use std::net::SocketAddr;

fn main() {
    let addr: SocketAddr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7744".to_owned())
        .parse()
        .expect("server address");

    let mut client = NetClient::connect_tcp(addr).expect("connect to net_server");
    let (version, tenant) = client.hello(Some("demo")).expect("hello");
    println!("connected to {addr}: wire version {version}, tenant id {tenant:?}");

    // The server registered the workload pair as relations 0 (larger) and
    // 1 (smaller); project both columns from each side.
    let spec = SubmitSpec {
        larger: 0,
        smaller: 1,
        project_larger: 2,
        project_smaller: 2,
        budget_bytes: None,
        threads: None,
        codes: None,
        deadline_ns: None,
        priority: 1,
    };

    // First run is a cold cache; the identical resubmission reuses the
    // server's clustered-join-index cache.
    for pass in ["cold", "warm"] {
        let ticket = client.submit(spec).expect("submit");
        let report = client
            .wait(ticket)
            .expect("transport")
            .expect("query accepted");
        let preview: Vec<i32> = report.columns[0].iter().take(4).copied().collect();
        let share = if report.share_bytes == u64::MAX {
            "unbounded".to_owned()
        } else {
            format!("{} B", report.share_bytes)
        };
        println!(
            "{pass}: ticket {ticket} → {} rows in {} chunks, cache_hit={}, \
             share {share}, col0 starts {:?}",
            report.rows, report.chunks, report.cache_hit, preview,
        );
    }

    // The cancel path: tear a fresh ticket down before draining it.  On a
    // fast server it may finish first — both outcomes are well-formed.
    let doomed = client.submit(spec).expect("submit");
    let cancelled = client.cancel(doomed).expect("cancel");
    match client.wait(doomed).expect("transport") {
        Err(RdxError::Cancelled) => {
            println!("ticket {doomed} cancelled mid-flight (was_live={cancelled})")
        }
        Ok(report) => println!(
            "ticket {doomed} finished before the cancel landed: {} rows",
            report.rows
        ),
        Err(other) => panic!("unexpected rejection: {other}"),
    }
}
