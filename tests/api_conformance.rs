//! API-equivalence conformance: the `Session`/`Query` front door must be
//! **byte-identical** to every legacy entry point — the sequential
//! `DsmPostProjection::execute`, the parallel `par_dsm_post_projection` and
//! the streaming `ProjectionPipeline` — across the workspace
//! `(N, h, ω, π, params)` grid and every `u/s/c × u/d` code combination;
//! and the non-blocking ticket loop (`submit` / `Session::drive` /
//! `Ticket::poll`) must reproduce a submit-all, drain-to-idle pass
//! **chunk for chunk**, while accepting new submissions between chunk
//! steps of in-flight queries (the async-front enabler of the
//! one-front-door redesign).

mod common;

use common::{columns, serve_all};
use radix_decluster::api::Session;
use radix_decluster::core::strategy::planner::streaming_bytes_per_row;
use radix_decluster::prelude::*;
use radix_decluster::workload::HitRate;

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

#[test]
fn session_is_byte_identical_to_every_legacy_entry_point_across_the_grid() {
    let mut cells = 0usize;
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
                let data_bytes = (2 * n * omega * 4).max(64);
                for params in grid_params() {
                    let cell = format!("N={n} h={h} ω={omega} π=({pi_l},{pi_s})");
                    // plan_shares = 1 ⇒ the session plans at exactly
                    // `params`, like the legacy entry points.
                    let mut session = Session::with_params(params.clone());
                    let larger = session.register(w.larger.clone());
                    let smaller = session.register(w.smaller.clone());
                    for plan in all_codes() {
                        // Legacy front door #1: sequential executor.
                        let legacy = plan.execute(&w.larger, &w.smaller, &spec, &params);
                        let expected = columns(&legacy.result);
                        // Legacy front door #2: parallel executor.
                        let par = par_dsm_post_projection(
                            &plan,
                            &w.larger,
                            &w.smaller,
                            &spec,
                            &params,
                            &ExecPolicy::with_threads(2),
                        );
                        assert_eq!(columns(&par.result), expected, "{cell} par");
                        // Legacy front door #3: streaming pipeline at 1/16
                        // of the data.
                        let policy = ExecPolicy::with_threads(1)
                            .budget(MemoryBudget::fraction_of(data_bytes, 16));
                        let (piped, _) = ProjectionPipeline::new(plan)
                            .execute_materialized(&w.larger, &w.smaller, &spec, &params, &policy);
                        assert_eq!(columns(&piped.result), expected, "{cell} pipeline");
                        // The front door: one-shot run with pinned codes.
                        let report = session
                            .query(larger, smaller)
                            .project(spec)
                            .codes(plan)
                            .run()
                            .expect("session run");
                        assert_eq!(
                            columns(&report.result),
                            expected,
                            "{cell} session run {}",
                            plan.label()
                        );
                        assert_eq!(report.stats.plan, plan);
                        // The front door, chunked: stream under the same
                        // 1/16 budget (floored at one resident row — the
                        // session's checked planner rejects anything
                        // smaller by design), threads = 2.
                        let floored = (data_bytes / 16).max(streaming_bytes_per_row(&spec));
                        let mut sink = CountingSink::new(MaterializeSink::new());
                        let stats = session
                            .query(larger, smaller)
                            .project(spec)
                            .codes(plan)
                            .budget(MemoryBudget::bytes(floored))
                            .threads(2)
                            .stream(&mut sink)
                            .expect("session stream");
                        assert_eq!(
                            columns(&sink.inner.into_result()),
                            expected,
                            "{cell} session stream {}",
                            plan.label()
                        );
                        assert_eq!(stats.rows, w.expected_matches, "{cell}");
                        cells += 1;
                    }
                }
            }
        }
    }
    assert_eq!(
        cells,
        CARDINALITIES.len() * HIT_RATES.len() * SHAPES.len() * 2 * 6,
        "grid shrank"
    );
}

/// Builds the request mix used by the drain-vs-ticket comparison: repeated
/// and distinct queries, a budget hint, pinned codes, and a threads hint.
fn mixed_requests(larger: RelationId, smaller: RelationId, spec: QuerySpec) -> Vec<ServerRequest> {
    vec![
        ServerRequest::new(larger, smaller, spec),
        ServerRequest::new(larger, smaller, QuerySpec::symmetric(1)),
        ServerRequest::new(larger, smaller, spec).with_budget_hint(MemoryBudget::bytes(256)),
        ServerRequest::new(larger, smaller, spec).with_codes(DsmPostProjection::with_codes(
            ProjectionCode::Unsorted,
            SecondSideCode::Decluster,
        )),
        ServerRequest::new(larger, smaller, spec).with_threads(2),
        ServerRequest::new(larger, smaller, spec),
    ]
}

#[test]
fn interleaved_tickets_reproduce_drain_to_idle_chunk_for_chunk() {
    let w = JoinWorkloadBuilder::equal(1_800, 2).seed(71).build();
    let spec = QuerySpec::symmetric(2);
    let config = ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(16 * 1024),
        max_concurrent: 3,
        threads_per_query: 1,
        cache_bytes: 1 << 20,
        fairness: FairnessPolicy::CostWeighted,
        plan_shares: None,
        observability: false,
        profiled: false,
        ..ServeConfig::default()
    };

    // Submit everything, then drain the engine to idle.
    let mut drained = Session::new(config.clone());
    let requests = mixed_requests(
        drained.register(w.larger.clone()),
        drained.register(w.smaller.clone()),
        spec,
    );
    let outcomes = serve_all(&mut drained, &requests);

    // Ticket shape: same config, same requests, driven incrementally with
    // polls between steps.
    let mut session = Session::new(config);
    let requests2 = mixed_requests(
        session.register(w.larger.clone()),
        session.register(w.smaller.clone()),
        spec,
    );
    let tickets: Vec<Ticket> = requests2
        .iter()
        .map(|r| {
            session
                .query(r.larger, r.smaller)
                .project(r.spec)
                .pipe_hints(r)
                .submit()
        })
        .collect();
    let mut reports: Vec<Option<radix_decluster::serve::QueryResult>> =
        (0..tickets.len()).map(|_| None).collect();
    // Drive one chunk-step at a time, polling every still-open ticket in
    // between — the access pattern of an async front.
    loop {
        let ran = session.drive(1);
        for (i, t) in tickets.iter().enumerate() {
            if reports[i].is_some() {
                continue;
            }
            match t.poll(&mut session) {
                QueryPoll::Done(r) => reports[i] = Some(r),
                QueryPoll::Queued | QueryPoll::Chunk(_) => {}
                QueryPoll::Rejected(e) => panic!("query {i} rejected: {e}"),
            }
        }
        if ran == 0 {
            break;
        }
    }

    // Chunk-for-chunk equivalence with the drained pass, per query.
    for (i, outcome) in outcomes.iter().enumerate() {
        let drain = outcome.as_ref().expect("drained query served");
        let ticket = reports[i].take().expect("ticket query served");
        assert_eq!(
            columns(&drain.result),
            columns(&ticket.result),
            "query {i} bytes"
        );
        assert_eq!(drain.stats.chunks, ticket.stats.chunks, "query {i} chunks");
        assert_eq!(drain.stats.rows, ticket.stats.rows, "query {i} rows");
        assert_eq!(drain.stats.plan, ticket.stats.plan, "query {i} plan");
        assert_eq!(
            drain.stats.share_bytes, ticket.stats.share_bytes,
            "query {i} share"
        );
    }
}

/// Forward the optional hints of a [`ServerRequest`] onto a [`Query`] —
/// test-local sugar so the ticket path reuses the drained pass's requests.
trait PipeHints<'s> {
    fn pipe_hints(self, request: &ServerRequest) -> Query<'s>;
}

impl<'s> PipeHints<'s> for Query<'s> {
    fn pipe_hints(self, request: &ServerRequest) -> Query<'s> {
        let mut q = self;
        if let Some(b) = request.budget_hint {
            q = q.budget(b);
        }
        if let Some(t) = request.threads_hint {
            q = q.threads(t);
        }
        if let Some(c) = request.codes {
            q = q.codes(c);
        }
        q
    }
}

#[test]
fn a_submission_lands_between_chunk_steps_of_an_in_flight_query() {
    let w = JoinWorkloadBuilder::equal(3_000, 1).seed(73).build();
    let mut session = Session::new(ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: MemoryBudget::bytes(4 * 1024),
        max_concurrent: 4,
        threads_per_query: 1,
        cache_bytes: 0, // cold: B must redo the prefix, still byte-identical
        fairness: FairnessPolicy::RoundRobin,
        plan_shares: Some(1),
        observability: false,
        profiled: false,
        ..ServeConfig::default()
    });
    let larger = session.register(w.larger.clone());
    let smaller = session.register(w.smaller.clone());

    let a = session.query(larger, smaller).submit();
    assert_eq!(session.drive(4), 4);
    let progress_before = match a.poll(&mut session) {
        QueryPoll::Chunk(p) => p,
        other => panic!("A should be mid-flight, got {other:?}"),
    };
    assert!(progress_before.chunks >= 1);

    // New work arrives while A is in flight; it is admitted alongside A
    // rather than waiting for A to finish.
    let b = session.query(larger, smaller).submit();
    session.drive(2);
    assert!(matches!(b.poll(&mut session), QueryPoll::Chunk(_)));
    assert!(
        matches!(a.poll(&mut session), QueryPoll::Chunk(p) if p.chunks > progress_before.chunks),
        "A kept progressing after B joined"
    );
    assert_eq!(session.in_flight(), 2);

    while session.drive(64) > 0 {}
    let (ra, rb) = match (a.poll(&mut session), b.poll(&mut session)) {
        (QueryPoll::Done(ra), QueryPoll::Done(rb)) => (ra, rb),
        other => panic!("both must finish, got {other:?}"),
    };
    // Interleaving is invisible in the bytes: both equal the solo run.
    let solo = ra.stats.plan.execute(
        &w.larger,
        &w.smaller,
        &QuerySpec::symmetric(1),
        session.params(),
    );
    assert_eq!(columns(&ra.result), columns(&solo.result));
    assert_eq!(columns(&rb.result), columns(&solo.result));
    assert!(session.engine_mut().stats().peak_concurrency >= 2);
}
