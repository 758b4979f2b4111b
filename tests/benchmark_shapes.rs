//! The call shapes of the frozen `benchmark/` package, in tier-1.  That
//! package is built only by its own job, so a facade shim that drifts from
//! it would otherwise still pass `cargo test`.  This file imports only the
//! prelude, as the package does, and calls every item the package reaches
//! through a longer path by that same path.

use radix_decluster::prelude::*;
use std::sync::Arc;
use std::thread;

#[test]
fn every_call_shape_of_the_frozen_benchmark_compiles_and_runs() {
    let w = JoinWorkloadBuilder::equal(2_000, 2).seed(5).build();
    let (larger, smaller) = (Arc::new(w.larger), Arc::new(w.smaller));

    // `scan.rs`, `oracle.rs` and `layers.rs`: a session of its own per
    // measurement, one-shot runs, profiled runs, and the counters read
    // around them.
    let mut session = Session::new(ServeConfig {
        cache_bytes: 1 << 30,
        observability: true,
        ..ServeConfig::default()
    });
    let l = session.register_arc(Arc::clone(&larger));
    let s = session.register_arc(Arc::clone(&smaller));
    let engine_before = session.engine_mut().stats();
    let cache_before = session.cache_stats();
    for profiled in [false, true] {
        let mut query = session.query(l, s).project(QuerySpec::symmetric(2));
        if profiled {
            query = query.profiled();
        }
        let report = query.run().expect("served");
        assert_eq!(report.result.cardinality(), w.expected_matches);
    }
    assert_eq!(
        session.engine_mut().stats().admissions,
        engine_before.admissions + 2
    );
    assert_eq!(session.cache_stats().hits, cache_before.hits + 1);
    let metrics = session.metrics().expect("the registry is always kept");
    assert!(metrics.counter("profile.l1_misses").unwrap_or(0) > 0);
    assert_eq!(session.trace_snapshot().map_or(1, |t| t.dropped), 0);

    // `layers.rs`: the kernel plans and the wire codec.
    let params = CacheParams::paper_pentium4();
    let keys = smaller.key().as_slice();
    let join_spec =
        radix_decluster::core::join::join_cluster_spec(keys.len(), params.cache_capacity());
    let index = partitioned_hash_join(larger.key().as_slice(), keys, join_spec);
    assert_eq!(index.len(), w.expected_matches);
    let (cluster_spec, _) = plan_partial_cluster(keys.len(), 4, 8, &params);
    let window = radix_decluster::core::decluster::choose_window_bytes(
        4,
        cluster_spec.num_clusters(),
        &params,
    );
    assert!(window > 0);
    let done = Frame::Submitted { ticket: 7 };
    let mut bytes = Vec::new();
    radix_decluster::net::encode_frame(&done, &mut bytes);
    let decoded =
        radix_decluster::net::decode_frame(&bytes, radix_decluster::net::DEFAULT_MAX_PAYLOAD);
    assert!(matches!(
        decoded,
        Ok(Some((Frame::Submitted { ticket: 7 }, _)))
    ));

    // `wire.rs`: the session is born on the thread that serves it, turned
    // into a server, and answers one client's submit and poll.
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.tcp_addr().expect("a tcp address");
    let (l, s) = (Arc::clone(&larger), Arc::clone(&smaller));
    let server = thread::spawn(move || {
        let mut session = Session::new(ServeConfig::default());
        session.register_arc(l);
        session.register_arc(s);
        let mut server = session.into_server(listener, NetConfig::default());
        server.serve()
    });
    let mut client = NetClient::connect_tcp(addr).expect("connect");
    client.hello(None).expect("hello");
    let ticket = client
        .submit(SubmitSpec {
            larger: 0,
            smaller: 1,
            project_larger: 1,
            project_smaller: 1,
            budget_bytes: None,
            threads: None,
            codes: None,
            deadline_ns: None,
            priority: 1,
        })
        .expect("submitted");
    let report = loop {
        match client.poll(ticket).expect("polled") {
            Frame::Done { report, .. } => break report,
            Frame::Rejected { error, .. } => panic!("rejected: {error}"),
            _ => thread::sleep(std::time::Duration::from_micros(200)),
        }
    };
    assert_eq!(report.rows as usize, w.expected_matches);
    drop(client);
    assert_eq!(server.join().expect("the server thread").accepted, 1);
}
