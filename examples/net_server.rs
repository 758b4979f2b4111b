//! A standalone wire-protocol server: registers a deterministic join
//! workload, binds a TCP listener, and hands the session to the `rdx-net`
//! poll loop — clients connect with `examples/net_client.rs` (or any
//! speaker of the versioned frame format in `net::wire`).
//!
//! The server runs single-threaded: socket I/O and engine chunk-steps
//! interleave in one loop, so a slow client can never block another
//! query's progress — its replies queue under per-connection
//! backpressure instead.  Between requests the loop wakes on arrival
//! (yielding for 2 ms after the last progress, sleeping only after that);
//! it exits once at least one client has been seen and every connection
//! has drained.
//!
//! Run with `cargo run --release --example net_server [addr]`
//! (default `127.0.0.1:7744`), then in another terminal:
//! `cargo run --release --example net_client [addr]`.

use radix_decluster::prelude::*;

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7744".to_owned());

    // A seeded workload so every run serves identical data: two relations
    // of 100 000 rows × 2 columns that join with hit rate 1.
    let workload = workload::JoinWorkloadBuilder::equal(100_000, 2)
        .seed(42)
        .build();

    let mut session = Session::new(ServeConfig {
        observability: true,
        ..ServeConfig::default()
    });
    let larger = session.register(workload.larger.clone());
    let smaller = session.register(workload.smaller.clone());

    let listener = NetListener::bind_tcp(&addr).expect("bind listener");
    let bound = listener.tcp_addr().expect("tcp listener has an address");
    println!("serving on {bound}");
    println!(
        "  relation {} = larger ({} rows × {} cols), relation {} = smaller ({} rows × {} cols)",
        larger.raw(),
        workload.larger.cardinality(),
        workload.larger.width(),
        smaller.raw(),
        workload.smaller.cardinality(),
        workload.smaller.width(),
    );
    println!("  connect with: cargo run --release --example net_client {bound}");

    // `into_server` (rather than `Session::serve`) keeps the engine
    // reachable after the loop exits, so we can report engine-side stats
    // next to the connection-lifecycle ones.
    let mut server = session.into_server(listener, NetConfig::default());
    let net = server.serve();
    let engine = server.engine_mut().stats();
    println!(
        "all clients disconnected: {} conns, {} frames in / {} out, {} decode errors, \
         {} backpressure pauses",
        net.accepted, net.frames_in, net.frames_out, net.decode_errors, net.backpressure_pauses,
    );
    // How the loop waited: yields inside the 2 ms quiet window after the
    // last progress, 200 µs sleeps once it had passed.
    println!(
        "idle waits: {} yields, {} sleeps",
        net.idle_yields, net.idle_sleeps,
    );
    println!(
        "engine admitted {} queries ({} rejected, {} cancelled)",
        engine.admissions, engine.rejections, engine.cancellations,
    );
}
