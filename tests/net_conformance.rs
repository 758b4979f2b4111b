//! Wire-protocol conformance: a query served over a socket must be
//! **byte-identical** to the same query run in-process — across the
//! workspace `(N, h, ω, π, params)` grid, every `u/s/c × u/d` code
//! combination, and both transports (loopback TCP and unix-domain).
//! Around that core equivalence, the suite pins the serving semantics of
//! the front-end: malformed, truncated, and oversized frames are refused
//! with typed errors that tear down **one connection, never the server**;
//! per-tenant quotas shed the over-quota tenant with a typed
//! `TenantQuota` rejection while other tenants' results stay
//! byte-identical to their solo runs; a non-draining client hits
//! per-connection backpressure without blocking the engine; and a
//! scripted [`FaultPlan`] produces the **same per-query trace** whether
//! the queries arrive over the wire or in-process.

mod common;

use common::columns;
use radix_decluster::net::{encode_frame, NO_TICKET};
use radix_decluster::prelude::*;
use radix_decluster::workload::HitRate;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

const CARDINALITIES: [usize; 4] = [1, 13, 100, 640];
const HIT_RATES: [f64; 3] = [1.0 / 3.0, 1.0, 3.0];
/// `(ω, π_larger, π_smaller)` triples.
const SHAPES: [(usize, usize, usize); 2] = [(1, 1, 1), (2, 2, 1)];

fn grid_params() -> [CacheParams; 2] {
    [CacheParams::tiny_for_tests(), CacheParams::paper_pentium4()]
}

fn all_codes() -> Vec<DsmPostProjection> {
    let mut codes = Vec::new();
    for first in [
        ProjectionCode::Unsorted,
        ProjectionCode::Sorted,
        ProjectionCode::PartialCluster,
    ] {
        for second in [SecondSideCode::Unsorted, SecondSideCode::Decluster] {
            codes.push(DsmPostProjection::with_codes(first, second));
        }
    }
    codes
}

/// A fresh unix-socket path per server (the bind requires it not exist).
fn unix_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rdx-net-conformance-{}-{n}.sock",
        std::process::id()
    ))
}

/// Spawns a server thread over `cfg` with `relations` registered (ids
/// `0..len` in order) and an optional fault script, serving `listener`
/// until every client disconnects.  `after` runs on the drained engine;
/// its value is the join result.
fn run_server<T, F>(
    listener: NetListener,
    cfg: ServeConfig,
    relations: Vec<DsmRelation>,
    net: NetConfig,
    fault: Option<FaultPlan>,
    after: F,
) -> thread::JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce(&mut QueryEngine, NetStats) -> T + Send + 'static,
{
    thread::spawn(move || {
        let mut engine = QueryEngine::new(cfg);
        for r in relations {
            engine.register(r);
        }
        if let Some(plan) = fault {
            engine.inject_faults(plan);
        }
        let mut server = NetServer::new(listener, engine, net);
        let stats = server.serve();
        after(server.engine_mut(), stats)
    })
}

/// The wire form of "project `(π_l, π_s)` from pair `(0, 1)` with pinned
/// codes" — the shape every grid cell submits.
fn wire_spec(pi_l: usize, pi_s: usize, codes: Option<DsmPostProjection>) -> SubmitSpec {
    SubmitSpec {
        larger: 0,
        smaller: 1,
        project_larger: pi_l as u32,
        project_smaller: pi_s as u32,
        budget_bytes: None,
        threads: None,
        codes,
        deadline_ns: None,
        priority: 1,
    }
}

enum Transport {
    Tcp,
    Unix,
}

/// The tentpole invariant, one transport at a time: every grid cell's
/// wire report carries exactly the bytes the in-process front door
/// produces for the same submission sequence.
fn grid_is_byte_identical_over(transport: Transport) {
    for n in CARDINALITIES {
        for h in HIT_RATES {
            for (omega, pi_l, pi_s) in SHAPES {
                let w = JoinWorkloadBuilder::equal(n, omega)
                    .hit_rate(HitRate(h))
                    .seed((n as u64) * 37 + (h * 10.0) as u64)
                    .build();
                let spec = QuerySpec {
                    project_larger: pi_l,
                    project_smaller: pi_s,
                };
                for params in grid_params() {
                    let cell = format!("N={n} h={h} ω={omega} π=({pi_l},{pi_s})");
                    // In-process oracle: the same plan sequence through
                    // the one planner entry.
                    let mut engine = QueryEngine::new(ServeConfig {
                        params: params.clone(),
                        plan_shares: Some(1),
                        ..ServeConfig::default()
                    });
                    let larger = engine.register(w.larger.clone());
                    let smaller = engine.register(w.smaller.clone());
                    let expected: Vec<Vec<Vec<i32>>> = all_codes()
                        .into_iter()
                        .map(|plan| {
                            let report = engine
                                .query(larger, smaller)
                                .project(spec)
                                .codes(plan)
                                .run()
                                .expect("oracle run");
                            columns(&report.result)
                        })
                        .collect();

                    // The same engine config behind a socket.
                    let cfg = ServeConfig {
                        params: params.clone(),
                        plan_shares: Some(1),
                        ..ServeConfig::default()
                    };
                    let (listener, addr, path) = match transport {
                        Transport::Tcp => {
                            let l = NetListener::bind_tcp("127.0.0.1:0").expect("bind tcp");
                            let addr = l.tcp_addr().expect("tcp addr");
                            (l, Some(addr), None)
                        }
                        Transport::Unix => {
                            let path = unix_path();
                            let l = NetListener::bind_unix(&path).expect("bind unix");
                            (l, None, Some(path))
                        }
                    };
                    let handle = run_server(
                        listener,
                        cfg,
                        vec![w.larger.clone(), w.smaller.clone()],
                        NetConfig::default(),
                        None,
                        |_, stats| stats,
                    );
                    let mut client = match (&addr, &path) {
                        (Some(addr), _) => NetClient::connect_tcp(*addr).expect("connect"),
                        (_, Some(path)) => NetClient::connect_unix(path).expect("connect"),
                        _ => unreachable!(),
                    };
                    let (version, tenant) = client.hello(None).expect("hello");
                    assert_eq!(version, WIRE_VERSION);
                    assert_eq!(tenant, None);
                    for (i, plan) in all_codes().into_iter().enumerate() {
                        let ticket = client
                            .submit(wire_spec(pi_l, pi_s, Some(plan)))
                            .expect("submit");
                        let report = client
                            .wait(ticket)
                            .expect("wait")
                            .unwrap_or_else(|e| panic!("{cell} {}: {e}", plan.label()));
                        assert_eq!(
                            report.columns,
                            expected[i],
                            "{cell} {} wire ≠ in-process",
                            plan.label()
                        );
                        assert_eq!(report.rows as usize, expected[i][0].len(), "{cell} rows");
                    }
                    drop(client);
                    let stats = handle.join().expect("server thread");
                    assert_eq!(stats.decode_errors, 0, "{cell} clean protocol run");
                    assert_eq!(stats.accepted, 1);
                    if let Some(path) = path {
                        let _ = std::fs::remove_file(path);
                    }
                }
            }
        }
    }
}

#[test]
fn tcp_loopback_is_byte_identical_to_in_process_across_the_grid() {
    grid_is_byte_identical_over(Transport::Tcp);
}

#[test]
#[cfg(unix)]
fn unix_socket_is_byte_identical_to_in_process_across_the_grid() {
    grid_is_byte_identical_over(Transport::Unix);
}

/// Reads until the peer closes, then decodes every complete frame.
fn drain_frames(stream: &mut TcpStream) -> Vec<Frame> {
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read to EOF");
    let mut frames = Vec::new();
    let mut at = 0;
    while let Ok(Some((frame, used))) =
        radix_decluster::net::decode_frame(&bytes[at..], radix_decluster::net::DEFAULT_MAX_PAYLOAD)
    {
        frames.push(frame);
        at += used;
    }
    frames
}

#[test]
fn malformed_frames_tear_down_the_connection_but_never_the_server() {
    let w = JoinWorkloadBuilder::equal(100, 1).seed(9).build();
    let expected = {
        let mut engine = QueryEngine::new(ServeConfig {
            params: CacheParams::tiny_for_tests(),
            plan_shares: Some(1),
            ..ServeConfig::default()
        });
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let report = engine.query(larger, smaller).run().expect("oracle");
        columns(&report.result)
    };
    let cfg = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        plan_shares: Some(1),
        ..ServeConfig::default()
    };
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let net = NetConfig {
        // Small cap so the oversized probe is cheap to declare.
        max_payload: 1024,
        ..NetConfig::default()
    };
    let handle = run_server(
        listener,
        cfg,
        vec![w.larger.clone(), w.smaller.clone()],
        net,
        None,
        |_, stats| stats,
    );
    // serve() runs until every client is gone; this idle connection spans
    // the whole scenario so the sequential probes can't race its exit.
    let keepalive = TcpStream::connect(addr).expect("keepalive");

    // Four hostile connections, each violating the protocol differently.
    // Each must get exactly one typed ProtocolError notice and then EOF.
    let probes: [(&str, Vec<u8>, &str); 4] = [
        (
            "garbage bytes",
            b"XYZW garbage!".to_vec(),
            "bad frame magic",
        ),
        (
            "future version",
            vec![0x52, 0x44, 99, 0x03, 8, 0, 0, 0],
            "unsupported wire version",
        ),
        (
            "oversized declaration",
            vec![0x52, 0x44, WIRE_VERSION, 0x03, 255, 255, 255, 255],
            "exceeds the 1024 B cap",
        ),
        (
            "truncated payload",
            // A Poll frame whose header claims 4 payload bytes — too few
            // for its u64 ticket field.
            vec![0x52, 0x44, WIRE_VERSION, 0x03, 4, 0, 0, 0, 1, 2, 3, 4],
            "malformed frame payload",
        ),
    ];
    for (what, bytes, expect_detail) in probes {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&bytes).expect("send probe");
        let frames = drain_frames(&mut stream);
        assert_eq!(frames.len(), 1, "{what}: one teardown notice then EOF");
        match &frames[0] {
            Frame::ProtocolError { detail } => assert!(
                detail.contains(expect_detail),
                "{what}: notice {detail:?} should mention {expect_detail:?}"
            ),
            other => panic!("{what}: expected ProtocolError, got {other:?}"),
        }
    }

    // A client echoing a server frame is torn down the same way.
    let mut echo = TcpStream::connect(addr).expect("connect");
    let mut bytes = Vec::new();
    encode_frame(&Frame::Submitted { ticket: 7 }, &mut bytes);
    echo.write_all(&bytes).expect("send echo");
    let frames = drain_frames(&mut echo);
    assert!(
        matches!(&frames[..], [Frame::ProtocolError { detail }] if detail.contains("server-to-client")),
        "echoed server frame must be refused, got {frames:?}"
    );

    // The server survived all five: a clean client still gets exact bytes.
    let mut client = NetClient::connect_tcp(addr).expect("connect clean");
    client.hello(None).expect("hello");
    let ticket = client.submit(wire_spec(1, 1, None)).expect("submit");
    let report = client.wait(ticket).expect("wait").expect("done");
    assert_eq!(report.columns, expected);
    drop(client);
    drop(keepalive);

    let stats = handle.join().expect("server thread");
    assert_eq!(stats.decode_errors, 5);
    assert_eq!(stats.accepted, 7, "5 hostile + 1 clean + the keepalive");
    assert_eq!(stats.closed, 7);
}

#[test]
fn over_quota_tenant_is_shed_while_the_other_tenant_stays_byte_identical() {
    let w = JoinWorkloadBuilder::equal(640, 2).seed(17).build();
    let spec = QuerySpec::symmetric(2);

    // Solo oracle for the unconstrained tenant: the same query alone in a
    // fresh engine with the same knobs (quotas change admission only, so
    // the quota table's presence must not perturb its bytes).
    let quotas = TenantQuotas::default()
        // 8 bytes cannot hold one result row, so every "capped" submission
        // is over-quota at admission, deterministically.
        .with_tenant("capped", TenantQuota::unlimited().resident_bytes(8));
    let cfg = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        plan_shares: Some(1),
        tenant_quotas: quotas,
        ..ServeConfig::default()
    };
    let expected = {
        let mut engine = QueryEngine::new(cfg.clone());
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let report = engine
            .query(larger, smaller)
            .project(spec)
            .run()
            .expect("solo oracle");
        columns(&report.result)
    };

    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let handle = run_server(
        listener,
        cfg,
        vec![w.larger.clone(), w.smaller.clone()],
        NetConfig::default(),
        None,
        |engine, stats| {
            let capped = engine.tenant_id("capped");
            let free = engine.tenant_id("free");
            (
                stats,
                engine.stats(),
                engine.tenant_stats(capped).expect("capped stats"),
                engine.tenant_stats(free).expect("free stats"),
            )
        },
    );
    // Holds the server up across the two sequential tenant connections.
    let keepalive = TcpStream::connect(addr).expect("keepalive");

    // The over-quota tenant: typed rejection naming the tenant and both
    // sides of the byte ledger.
    let mut capped = NetClient::connect_tcp(addr).expect("connect capped");
    let (_, capped_id) = capped.hello(Some("capped")).expect("hello");
    let capped_id = capped_id.expect("interned tenant id");
    let ticket = capped.submit(wire_spec(2, 2, None)).expect("submit");
    match capped.wait(ticket).expect("wait") {
        Err(RdxError::TenantQuota { tenant, kind }) => {
            assert_eq!(tenant, capped_id, "rejection names the Hello tenant");
            match kind {
                TenantQuotaKind::ResidentBytes { needed, limit, .. } => {
                    assert_eq!(limit, 8);
                    assert!(needed > limit);
                }
                other => panic!("expected a byte-cap rejection, got {other:?}"),
            }
        }
        other => panic!("capped tenant must be shed, got {other:?}"),
    }
    drop(capped);

    // The free tenant, on the same server, right after the shed: bytes
    // identical to its solo run.
    let mut free = NetClient::connect_tcp(addr).expect("connect free");
    free.hello(Some("free")).expect("hello");
    let ticket = free.submit(wire_spec(2, 2, None)).expect("submit");
    let report = free.wait(ticket).expect("wait").expect("done");
    assert_eq!(report.columns, expected, "free tenant ≠ its solo run");
    drop(free);
    drop(keepalive);

    let (net_stats, engine_stats, capped_stats, free_stats) = handle.join().expect("server thread");
    assert_eq!(net_stats.decode_errors, 0);
    assert_eq!(engine_stats.tenant_quota_rejects, 1);
    assert_eq!((capped_stats.admissions, capped_stats.rejections), (0, 1));
    assert_eq!((free_stats.admissions, free_stats.rejections), (1, 0));
    assert_eq!(free_stats.in_flight, 0, "accounting released at teardown");
}

#[test]
fn a_non_draining_client_hits_backpressure_without_blocking_the_engine() {
    let w = JoinWorkloadBuilder::equal(200, 1).seed(3).build();
    let cfg = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        plan_shares: Some(1),
        ..ServeConfig::default()
    };
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let net = NetConfig {
        // One queued reply pauses the connection's request decoding.
        outbound_limit: 1,
        ..NetConfig::default()
    };
    let handle = run_server(
        listener,
        cfg,
        vec![w.larger.clone(), w.smaller.clone()],
        net,
        None,
        |_, stats| stats,
    );

    // Burst 16 polls in one write without reading a single reply: the
    // server must pause this connection's decoding at the outbound bound
    // (never dropping or reordering), then drain all 16 typed replies.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut burst = Vec::new();
    for _ in 0..16 {
        encode_frame(&Frame::Poll { ticket: 99 }, &mut burst);
    }
    stream.write_all(&burst).expect("send burst");
    std::thread::sleep(std::time::Duration::from_millis(30));

    // Meanwhile, a second well-behaved client's query completes — the
    // engine was never blocked by the stalled connection.
    let mut client = NetClient::connect_tcp(addr).expect("connect clean");
    client.hello(None).expect("hello");
    let ticket = client.submit(wire_spec(1, 1, None)).expect("submit");
    client.wait(ticket).expect("wait").expect("done");
    drop(client);

    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown");
    let frames = drain_frames(&mut stream);
    assert_eq!(frames.len(), 16, "all burst replies delivered in order");
    for frame in &frames {
        assert!(
            matches!(
                frame,
                Frame::Rejected {
                    ticket: 99,
                    error: RdxError::UnknownTicket { ticket: 99 }
                }
            ),
            "unmapped poll must answer UnknownTicket, got {frame:?}"
        );
    }
    drop(stream);

    let stats = handle.join().expect("server thread");
    assert!(
        stats.backpressure_pauses >= 1,
        "the burst must trip at least one pause, stats: {stats:?}"
    );
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn zero_budget_is_refused_before_a_ticket_exists() {
    let w = JoinWorkloadBuilder::equal(50, 1).seed(5).build();
    let cfg = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        plan_shares: Some(1),
        ..ServeConfig::default()
    };
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let handle = run_server(
        listener,
        cfg,
        vec![w.larger.clone(), w.smaller.clone()],
        NetConfig::default(),
        None,
        |_, stats| stats,
    );
    let mut client = NetClient::connect_tcp(addr).expect("connect");
    client.hello(None).expect("hello");
    let mut spec = wire_spec(1, 1, None);
    spec.budget_bytes = Some(0);
    match client.submit(spec) {
        Err(ClientError::Rejected(RdxError::Budget(BudgetError::ZeroBytes))) => {}
        other => panic!("expected a pre-ticket zero-budget refusal, got {other:?}"),
    }
    // The refusal's sentinel means "never ticketed"; the connection stays
    // usable and a corrected submission completes.
    let ticket = client.submit(wire_spec(1, 1, None)).expect("submit");
    assert_ne!(ticket, NO_TICKET);
    client.wait(ticket).expect("wait").expect("done");
    drop(client);
    handle.join().expect("server thread");
}

/// A result whose `Done` frame would exceed the payload cap is refused
/// with a typed `ResultTooLarge` once the join has sized it — before it
/// runs a chunk, its grant released — instead of arriving as a frame the
/// reader refuses.  The connection keeps serving: a result exactly at the
/// cap arrives whole on it.
#[test]
fn an_oversized_result_is_refused_before_it_runs_and_the_connection_serves_on() {
    let w = JoinWorkloadBuilder::equal(300, 2).seed(31).build();
    let rows = w.expected_matches;
    // The payload of a two-column result: the 35-byte head, then a u32
    // length and 4 B per value for each column.
    let cap = 35 + 2 * (4 + 4 * rows);
    let cfg = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(1 << 20),
        plan_shares: Some(1),
        observability: true,
        ..ServeConfig::default()
    };
    let net = NetConfig {
        max_payload: cap as u32,
        ..NetConfig::default()
    };
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let handle = run_server(
        listener,
        cfg,
        vec![w.larger.clone(), w.smaller.clone()],
        net,
        None,
        |engine, net| {
            let trace = engine.obs().trace_snapshot().expect("trace");
            (engine.stats(), engine.committed_bytes(), net, trace)
        },
    );
    let mut client = NetClient::connect_tcp(addr).expect("connect");
    client.hello(None).expect("hello");
    let wide = client.submit(wire_spec(2, 2, None)).expect("submit");
    match client.wait(wide).expect("the connection survives") {
        Err(RdxError::ResultTooLarge { bytes, max }) => {
            assert_eq!((bytes, max), (35 + 4 * (4 + 4 * rows), cap));
        }
        other => panic!("expected a ResultTooLarge refusal, got {other:?}"),
    }
    let narrow = client.submit(wire_spec(1, 1, None)).expect("submit");
    let report = client
        .wait(narrow)
        .expect("wait")
        .expect("served at the cap");
    assert_eq!(report.rows as usize, rows);
    drop(client);
    let (engine, committed, net, trace) = handle.join().expect("server thread");
    assert_eq!(engine.rejections, 1);
    assert_eq!(engine.admissions, 1, "only the served query was admitted");
    assert_eq!(
        trace_shapes(&trace)[0],
        ["submit", "reject:result_too_large"],
        "refused like any other typed rejection"
    );
    // The served query's π = 1 + 1 dispatches two column chunks per row
    // chunk.
    assert_eq!(
        engine.chunks_dispatched,
        2 * report.chunks,
        "the refused query ran no chunk"
    );
    assert_eq!(committed, 0, "every grant returned");
    assert_eq!(net.decode_errors, 0);
}

/// A hostile thread count costs nothing: a `Submit` asking for
/// `u32::MAX` or 100 000 workers is served with the cores the machine has,
/// byte-identical to the default-threads run, and the same server goes on
/// answering.  Unclamped, such a count reached the kernels, which abort the
/// whole process when their per-worker buffers cannot be allocated or
/// their workers cannot be spawned.
#[test]
fn a_hostile_thread_count_is_served_and_the_server_serves_on() {
    let w = JoinWorkloadBuilder::equal(20_000, 1).seed(17).build();
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let handle = run_server(
        listener,
        ServeConfig::default(),
        vec![w.larger.clone(), w.smaller.clone()],
        NetConfig::default(),
        None,
        |engine, _| engine.committed_bytes(),
    );
    let mut client = NetClient::connect_tcp(addr).expect("connect");
    client.hello(None).expect("hello");
    let mut serve = |threads: Option<u32>| {
        let spec = SubmitSpec {
            threads,
            ..wire_spec(1, 1, None)
        };
        let ticket = client.submit(spec).expect("submit");
        client.wait(ticket).expect("the connection survives")
    };
    let default = serve(None).expect("served");
    assert_eq!(default.rows as usize, w.expected_matches);
    for threads in [u32::MAX, 100_000, 0, 2] {
        let report = serve(Some(threads)).expect("served");
        assert_eq!(report.rows, default.rows, "threads = {threads}");
        assert!(report.columns == default.columns, "threads = {threads}");
    }
    assert!(serve(None).expect("served").columns == default.columns);
    drop(client);
    assert_eq!(handle.join().expect("server thread"), 0);
}

/// Counts live in one place, and the place exists without observability:
/// after a loopback exchange on an untraced server, the engine's registry
/// holds the engine's and the wire's counters, equal to what
/// `QueryEngine::stats` and `NetServer::stats` report.
#[test]
fn the_registry_counts_engine_and_wire_with_observability_off() {
    let w = JoinWorkloadBuilder::equal(200, 1).seed(9).build();
    let cfg = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        plan_shares: Some(1),
        observability: false,
        ..ServeConfig::default()
    };
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let handle = run_server(
        listener,
        cfg,
        vec![w.larger.clone(), w.smaller.clone()],
        NetConfig::default(),
        None,
        |engine, net| (engine.obs().metrics_snapshot(), engine.stats(), net),
    );
    let mut client = NetClient::connect_tcp(addr).expect("connect");
    client.hello(None).expect("hello");
    for _ in 0..3 {
        let ticket = client.submit(wire_spec(1, 1, None)).expect("submit");
        client.wait(ticket).expect("wait").expect("done");
    }
    drop(client);
    let (metrics, engine, net) = handle.join().expect("server thread");
    let metrics = metrics.expect("the registry exists with observability off");
    assert_eq!(engine.admissions, 3);
    assert_eq!(engine.cache_hits, 2);
    // In: the `Hello` and three `Submit`s — `wait` sends no `Poll`.  Out:
    // their four replies and the three pushed `Done`s.
    assert_eq!((net.frames_in, net.frames_out), (4, 7));
    assert_eq!(
        metrics.counter("engine.admissions"),
        Some(engine.admissions)
    );
    assert_eq!(
        metrics.counter("engine.cache_hits"),
        Some(engine.cache_hits)
    );
    assert_eq!(metrics.counter("net.frames_in"), Some(net.frames_in));
    assert_eq!(metrics.counter("net.frames_out"), Some(net.frames_out));
}

/// The wake-on-arrival contract of `NetServer::serve`, read off its own
/// counters: a connection that keeps the server busy — one warm point
/// query after the other, each submitted only when the previous result is
/// in hand — must not put the loop to sleep between requests.  A loop that
/// slept whenever one cycle moved nothing took about two 200 µs sleeps per
/// query here (one per round trip) whenever client and server ran on
/// different cores.
#[test]
fn a_busy_connection_is_not_served_on_a_timer() {
    const QUERIES: usize = 512;
    let w = JoinWorkloadBuilder::equal(2_000, 2).seed(23).build();
    let cfg = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        plan_shares: Some(1),
        ..ServeConfig::default()
    };
    let expected = {
        let mut engine = QueryEngine::new(cfg.clone());
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        let report = engine
            .query(larger, smaller)
            .project(QuerySpec::symmetric(1))
            .run()
            .expect("oracle");
        columns(&report.result)
    };
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let handle = run_server(
        listener,
        cfg,
        vec![w.larger.clone(), w.smaller.clone()],
        NetConfig::default(),
        None,
        |engine, stats| (engine.cache_stats(), stats),
    );
    let mut client = NetClient::connect_tcp(addr).expect("connect");
    client.hello(None).expect("hello");
    for i in 0..QUERIES {
        let ticket = client.submit(wire_spec(1, 1, None)).expect("submit");
        let report = client.wait(ticket).expect("wait").expect("done");
        assert_eq!(report.columns, expected, "query {i}");
    }
    drop(client);
    let (cache, stats) = handle.join().expect("server thread");
    assert_eq!(
        cache.hits as usize,
        QUERIES - 1,
        "all but the first are warm"
    );
    // The sleeps left are the ones outside the ping-pong — before the
    // client connects, and wherever the scheduler kept the client off the
    // CPU for a whole quiet window — not one per round trip.  The bound is
    // an eighth of the timer-driven count.
    assert!(
        stats.idle_sleeps < (QUERIES / 4) as u64,
        "{} idle sleeps over {QUERIES} queries: the loop is waiting on a timer ({stats:?})",
        stats.idle_sleeps
    );
    assert!(stats.idle_yields > 0, "the quiet-window wait never engaged");
}

/// The timing-independent shape of one trace event: everything the
/// scripted engine decides deterministically, with wall-clock fields
/// dropped.
fn event_shape(kind: &EventKind) -> String {
    match kind {
        EventKind::Submit => "submit".into(),
        EventKind::Tenant { tenant } => format!("tenant:{tenant}"),
        EventKind::Admit { share_bytes, .. } => format!("admit:{share_bytes}"),
        EventKind::Reject { reason } => format!("reject:{reason}"),
        EventKind::CacheLookup { hit } => format!("cache:{hit}"),
        EventKind::ChunkStep { chunk, rows, .. } => format!("chunk:{chunk}:{rows}"),
        EventKind::ChunkProfile {
            chunk, accesses, ..
        } => format!("profile:{chunk}:{accesses}"),
        EventKind::DeadlineMiss { deadline_ns, .. } => format!("deadline_miss:{deadline_ns}"),
        EventKind::Cancel { reason } => format!("cancel:{reason}"),
        EventKind::Done { rows, .. } => format!("done:{rows}"),
    }
}

/// Per-query shape sequences, in first-submission order.
fn trace_shapes(trace: &TraceSnapshot) -> Vec<Vec<String>> {
    trace
        .queries()
        .into_iter()
        .map(|q| {
            trace
                .events_for(q)
                .iter()
                .map(|e| event_shape(&e.kind))
                .collect()
        })
        .collect()
}

#[test]
fn a_scripted_fault_plan_produces_the_same_trace_over_the_wire() {
    let w = JoinWorkloadBuilder::equal(1_500, 1).seed(41).build();
    let spec = QuerySpec::symmetric(1);
    let cfg = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(4 * 1024),
        max_concurrent: 2,
        threads_per_query: 1,
        plan_shares: Some(2),
        observability: true,
        ..ServeConfig::default()
    };
    // Submission ordinal 0 panics on worker 1 at its third chunk step;
    // ordinal 1 is untouched.
    let fault = FaultPlan::new().panic_at(0, 2, 1);

    // In-process run of the script.
    let (expected_trace, expected_columns) = {
        let mut engine = QueryEngine::new(cfg.clone());
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        engine.inject_faults(fault.clone());
        let victim = engine.query(larger, smaller).project(spec).submit();
        let survivor = engine.query(larger, smaller).project(spec).submit();
        while engine.step() != EngineStep::Idle {}
        assert!(matches!(
            engine.poll(victim),
            TicketPoll::Rejected(RdxError::WorkerPanicked { worker: 1 })
        ));
        let columns = match engine.poll(survivor) {
            TicketPoll::Done(Served::Columns(q)) => columns(&q.result),
            other => panic!("survivor must finish, got {other:?}"),
        };
        (engine.obs().trace_snapshot().expect("trace"), columns)
    };

    // The identical script over the wire.
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let handle = run_server(
        listener,
        cfg,
        vec![w.larger.clone(), w.smaller.clone()],
        NetConfig::default(),
        Some(fault),
        |engine, stats| (engine.obs().trace_snapshot().expect("trace"), stats),
    );
    let mut client = NetClient::connect_tcp(addr).expect("connect");
    client.hello(None).expect("hello");
    let victim = client.submit(wire_spec(1, 1, None)).expect("submit victim");
    let survivor = client
        .submit(wire_spec(1, 1, None))
        .expect("submit survivor");
    match client.wait(victim).expect("wait victim") {
        Err(RdxError::WorkerPanicked { worker }) => assert_eq!(worker, 1),
        other => panic!("victim must report its panic, got {other:?}"),
    }
    let report = client.wait(survivor).expect("wait survivor").expect("done");
    assert_eq!(
        report.columns, expected_columns,
        "survivor over the wire ≠ survivor in-process"
    );
    drop(client);
    let (wire_trace, stats) = handle.join().expect("server thread");
    assert_eq!(stats.decode_errors, 0);

    // The scripted degradation is a pure function of the plan: per-query
    // event shapes are identical whichever transport delivered the
    // queries.
    assert_eq!(
        trace_shapes(&wire_trace),
        trace_shapes(&expected_trace),
        "wire trace diverged from the in-process trace"
    );
}

/// The server pushes a ticket's outcome unasked: after one `Submit` on a
/// raw socket, `Submitted` and then the `Done` arrive with no `Poll` sent.
/// The outcome arrives once: a later `Poll` of the ticket answers
/// `UnknownTicket`, and it is the only frame after the `Done`.
#[test]
fn a_done_is_pushed_once_without_a_poll() {
    let w = JoinWorkloadBuilder::equal(100, 1).seed(9).build();
    let cfg = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        plan_shares: Some(1),
        ..ServeConfig::default()
    };
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let handle = run_server(
        listener,
        cfg,
        vec![w.larger.clone(), w.smaller.clone()],
        NetConfig::default(),
        None,
        |_, stats| stats,
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A server that does not push leaves the read below waiting: fail
    // instead of hanging.
    let patience = std::time::Duration::from_secs(10);
    stream.set_read_timeout(Some(patience)).expect("timeout");
    let mut bytes = Vec::new();
    encode_frame(&Frame::Submit(wire_spec(1, 1, None)), &mut bytes);
    stream.write_all(&bytes).expect("send the submit");

    let (mut received, mut frames) = (Vec::new(), Vec::new());
    let mut buf = [0u8; 4096];
    while frames.len() < 2 {
        let n = stream.read(&mut buf).expect("the outcome arrives unasked");
        assert!(n > 0, "the server closed the connection");
        received.extend_from_slice(&buf[..n]);
        while let Ok(Some((frame, used))) =
            radix_decluster::net::decode_frame(&received, radix_decluster::net::DEFAULT_MAX_PAYLOAD)
        {
            frames.push(frame);
            received.drain(..used);
        }
    }
    let ticket = match &frames[..] {
        [Frame::Submitted { ticket }, Frame::Done {
            ticket: done,
            report,
        }] => {
            assert_eq!(done, ticket);
            assert_eq!(report.rows as usize, w.expected_matches);
            *ticket
        }
        other => panic!("expected Submitted, then a pushed Done, got {other:?}"),
    };
    assert!(received.is_empty(), "nothing after the Done");

    bytes.clear();
    encode_frame(&Frame::Poll { ticket }, &mut bytes);
    stream.write_all(&bytes).expect("send the poll");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown");
    assert_eq!(
        drain_frames(&mut stream),
        [Frame::Rejected {
            ticket,
            error: RdxError::UnknownTicket { ticket }
        }],
        "the pushed ticket is spent"
    );
    drop(stream);
    let stats = handle.join().expect("server thread");
    assert_eq!((stats.frames_in, stats.frames_out), (2, 3));
}

/// One case per way a wire ticket ends.
struct TerminalCase {
    name: &'static str,
    /// The tenant the case's connection names in its `Hello`.
    tenant: Option<&'static str>,
    spec: SubmitSpec,
    /// Cancel the ticket right after its `Submitted`.
    cancel: bool,
    expect: fn(&Result<WireReport, RdxError>) -> bool,
}

/// Every terminal path reaches `NetClient::wait` as a pushed outcome:
/// exactly once, and without a `Poll` — the server decodes only each
/// case's `Hello`, `Submit` and `Cancel`, and queues only their replies
/// and one outcome per ticket, leaving no outcome behind in the engine.
#[test]
fn every_terminal_outcome_reaches_wait_pushed_once_without_a_poll() {
    let w = JoinWorkloadBuilder::equal(20_000, 2).seed(29).build();
    let rows = w.expected_matches;
    // A one-column-per-side result fits the payload cap exactly; two
    // columns per side do not.
    let cap = 35 + 2 * (4 + 4 * rows);
    let cfg = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        plan_shares: Some(1),
        // 8 bytes cannot hold one result row: "capped" is shed at
        // admission.
        tenant_quotas: TenantQuotas::default()
            .with_tenant("capped", TenantQuota::unlimited().resident_bytes(8)),
        ..ServeConfig::default()
    };
    let spec = wire_spec(1, 1, None);
    // Submission ordinals are the cases' positions in the table below.
    let (deadline, panic) = (4, 5);
    let fault = FaultPlan::new()
        .slow_at(deadline, 0, 2_000_000_000)
        .panic_at(panic, 0, 0);
    let cases = [
        TerminalCase {
            name: "done",
            tenant: None,
            spec,
            cancel: false,
            expect: |r| matches!(r, Ok(report) if report.rows == 20_000),
        },
        TerminalCase {
            name: "refused at submit",
            tenant: None,
            spec: SubmitSpec { larger: 7, ..spec },
            cancel: false,
            expect: |r| matches!(r, Err(RdxError::UnknownRelation { .. })),
        },
        TerminalCase {
            name: "result too large",
            tenant: None,
            spec: wire_spec(2, 2, None),
            cancel: false,
            expect: |r| matches!(r, Err(RdxError::ResultTooLarge { .. })),
        },
        TerminalCase {
            name: "tenant shed",
            tenant: Some("capped"),
            spec,
            cancel: false,
            expect: |r| matches!(r, Err(RdxError::TenantQuota { .. })),
        },
        TerminalCase {
            name: "deadline",
            tenant: None,
            spec: SubmitSpec {
                deadline_ns: Some(1_000_000_000),
                ..spec
            },
            cancel: false,
            expect: |r| matches!(r, Err(RdxError::Deadline(DeadlineError::Exceeded { .. }))),
        },
        TerminalCase {
            name: "worker panic",
            tenant: None,
            spec,
            cancel: false,
            expect: |r| matches!(r, Err(RdxError::WorkerPanicked { worker: 0 })),
        },
        TerminalCase {
            name: "cancel",
            tenant: None,
            // One result row per chunk: 40 000 column chunks, so the
            // cancel lands long before the last.
            spec: SubmitSpec {
                budget_bytes: Some(12),
                ..spec
            },
            cancel: true,
            expect: |r| matches!(r, Err(RdxError::Cancelled)),
        },
    ];
    assert_eq!(cases[deadline].name, "deadline");
    assert_eq!(cases[panic].name, "worker panic");

    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("addr");
    let handle = run_server(
        listener,
        cfg,
        vec![w.larger.clone(), w.smaller.clone()],
        NetConfig {
            max_payload: cap as u32,
            ..NetConfig::default()
        },
        Some(fault),
        |engine, stats| (stats, engine.finished().count()),
    );
    // Holds the server up across the cases' sequential connections.
    let keepalive = TcpStream::connect(addr).expect("keepalive");
    for case in &cases {
        let name = case.name;
        let mut client = NetClient::connect_tcp(addr).expect("connect");
        client.hello(case.tenant).expect("hello");
        let ticket = client.submit(case.spec).expect("submit");
        if case.cancel {
            assert!(client.cancel(ticket).expect("cancel"), "{name}: live");
        }
        let outcome = client.wait(ticket).expect("wait");
        assert!((case.expect)(&outcome), "{name}: got {outcome:?}");
        // Handed out once, and the client asks the server nothing more.
        assert!(
            matches!(client.wait(ticket), Ok(Err(RdxError::UnknownTicket { .. }))),
            "{name}: the outcome is spent"
        );
    }
    drop(keepalive);
    let (stats, left) = handle.join().expect("server thread");
    let (n, cancels) = (cases.len() as u64, 1);
    // In: a `Hello` and a `Submit` per case, and the one `Cancel` — no
    // `Poll`.  Out: their replies and one outcome per ticket.
    assert_eq!(stats.frames_in, 2 * n + cancels);
    assert_eq!(stats.frames_out, 3 * n + cancels);
    assert_eq!(left, 0, "every outcome was pushed");
    assert_eq!(stats.decode_errors, 0);
}
