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
use radix_decluster::api::Session;
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
                    let mut session = Session::with_params(params.clone());
                    let larger = session.register(w.larger.clone());
                    let smaller = session.register(w.smaller.clone());
                    let expected: Vec<Vec<Vec<i32>>> = all_codes()
                        .into_iter()
                        .map(|plan| {
                            let report = session
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
        let mut session = Session::with_params(CacheParams::tiny_for_tests());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        let report = session.query(larger, smaller).run().expect("oracle");
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
            vec![0x52, 0x44, 1, 0x03, 255, 255, 255, 255],
            "exceeds the 1024 B cap",
        ),
        (
            "truncated payload",
            // A Poll frame whose header claims 4 payload bytes — too few
            // for its u64 ticket field.
            vec![0x52, 0x44, 1, 0x03, 4, 0, 0, 0, 1, 2, 3, 4],
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
    // fresh session with the same knobs (quotas change admission only, so
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
        let mut session = Session::new(cfg.clone());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        let report = session
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
        let mut session = Session::new(cfg.clone());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        let report = session
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
        EventKind::Replan {
            old_chunks,
            new_chunks,
            reason,
        } => format!("replan:{old_chunks}->{new_chunks}:{reason}"),
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
        let mut session = Session::new(cfg.clone());
        let larger = session.register(w.larger.clone());
        let smaller = session.register(w.smaller.clone());
        session.inject_faults(fault.clone());
        let victim = session.query(larger, smaller).project(spec).submit();
        let survivor = session.query(larger, smaller).project(spec).submit();
        while session.drive(64) > 0 {}
        assert!(matches!(
            victim.poll(&mut session),
            QueryPoll::Rejected(RdxError::WorkerPanicked { worker: 1 })
        ));
        let columns = match survivor.poll(&mut session) {
            QueryPoll::Done(q) => columns(&q.result),
            other => panic!("survivor must finish, got {other:?}"),
        };
        (session.trace_snapshot().expect("trace"), columns)
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
