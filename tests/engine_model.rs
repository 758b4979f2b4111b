//! The engine against a reference model: seeded scripts of `submit`,
//! `step`, `poll` and `cancel`, under a `FaultPlan` (worker panics, grant
//! denials, cache evictions) armed up front and small global and tenant
//! budgets.  After every op the model checks:
//!
//! * a poll at any step matches the model: `Queued` or `Running` while the
//!   ticket may be live, then `Done` or `Rejected` exactly once, then
//!   `Rejected(UnknownTicket)`; a ticket the engine reported finished (its
//!   `Finished` step, a `cancel` that found it done, or an idle engine)
//!   polls terminal; every `cancel` is polled at once, and that poll is
//!   `Rejected(Cancelled)` exactly when `cancel` reported the ticket live;
//! * a served result (columns or a `Done` frame) is byte-identical to the
//!   same query run alone through `run()`, and its `stats.query_id` is
//!   its ticket's number;
//! * `committed_bytes() ≤ global`, no tenant is over its in-flight or byte
//!   cap, no more than `max_concurrent` tickets run, and the
//!   `engine.in_flight` / `engine.queued` gauges read `in_flight()` /
//!   `queued()`;
//! * at idle, `committed_bytes()`, every tenant's in-flight and committed
//!   counts and the `engine.in_flight` / `engine.queued` gauges are 0.
//!
//! Scripts carry no deadlines: a deadline is charged with wall-clock chunk
//! time (`Instant::now()`), so a script that armed one would not replay
//! the same from its seed.  The shim draws every script from the test's
//! name, so a failing case reproduces by re-running the test.

mod common;

use common::columns;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use radix_decluster::core::strategy::sink::read_column;
use radix_decluster::core::strategy::DoneHead;
use radix_decluster::prelude::*;
use radix_decluster::workload::JoinWorkload;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

/// `(larger, smaller)` cardinalities of the three registered pairs; every
/// relation has three attribute columns.
const PAIRS: [(usize, usize); 3] = [(300, 300), (500, 200), (150, 400)];
const WIDTH: usize = 3;
/// Global budgets a script runs under: unbounded, 20 kB, 3 kB.
const GLOBALS: [Option<usize>; 3] = [None, Some(20_000), Some(3_000)];
const MAX_CONCURRENT: usize = 3;
/// `(name, in-flight cap, byte cap)` of the interned tenants.
const TENANTS: [(&str, Option<usize>, Option<usize>); 3] = [
    ("one_at_a_time", Some(1), None),
    ("byte_capped", Some(2), Some(2_500)),
    ("free", None, None),
];
const CODES: [(ProjectionCode, SecondSideCode); 3] = [
    (ProjectionCode::Unsorted, SecondSideCode::Unsorted),
    (ProjectionCode::Sorted, SecondSideCode::Decluster),
    (ProjectionCode::PartialCluster, SecondSideCode::Decluster),
];

fn pairs() -> &'static [JoinWorkload] {
    static PAIRS_BUILT: OnceLock<Vec<JoinWorkload>> = OnceLock::new();
    PAIRS_BUILT.get_or_init(|| {
        (PAIRS.iter().zip(1..))
            .map(|(&(l, s), seed)| {
                JoinWorkloadBuilder::equal(l, WIDTH)
                    .cardinalities(l, s)
                    .seed(seed)
                    .build()
            })
            .collect()
    })
}

fn config(global: Option<usize>) -> ServeConfig {
    let quotas = TENANTS
        .iter()
        .fold(TenantQuotas::unlimited(), |q, &(name, n, b)| {
            q.with_tenant(
                name,
                TenantQuota {
                    max_in_flight: n,
                    max_resident_bytes: b,
                },
            )
        });
    ServeConfig {
        params: CacheParams::tiny_for_tests(),
        global_budget: global.map_or(MemoryBudget::unbounded(), MemoryBudget::bytes),
        max_concurrent: MAX_CONCURRENT,
        cache_bytes: 8 << 10,
        plan_shares: Some(MAX_CONCURRENT),
        tenant_quotas: quotas,
        ..ServeConfig::default()
    }
}

/// The columns `request` yields run alone through `run()` on an idle,
/// unbounded engine planned at the same cache share, memoised per
/// (pair, spec, pinned codes).
fn solo(request: &ServerRequest) -> Vec<Vec<i32>> {
    type Memo = HashMap<String, Vec<Vec<i32>>>;
    thread_local! {
        static SOLO: RefCell<(QueryEngine, Memo)> = RefCell::new({
            let mut engine = QueryEngine::new(config(None));
            for w in pairs() {
                engine.register(w.larger.clone());
                engine.register(w.smaller.clone());
            }
            (engine, HashMap::new())
        });
    }
    let key = format!(
        "{:?} {:?} {:?}",
        request.larger, request.spec, request.codes
    );
    SOLO.with(|solo| {
        let (engine, memo) = &mut *solo.borrow_mut();
        memo.entry(key)
            .or_insert_with(|| {
                let query = engine.query(request.larger, request.smaller);
                let query = query.project(request.spec);
                let query = match request.codes {
                    Some(codes) => query.codes(codes),
                    None => query,
                };
                columns(&query.run().expect("a lone query is served").result)
            })
            .clone()
    })
}

/// The columns of a `Done` frame, read back through the one layout.
fn frame_columns(frame: &[u8], ticket: TicketId) -> Result<Vec<Vec<i32>>, TestCaseError> {
    let payload = &frame[DoneHead::FRAME_HEADER_LEN..];
    let (head, n) = DoneHead::read(payload).map_err(TestCaseError::fail)?;
    prop_assert_eq!(head.ticket, ticket.raw());
    let mut at = DoneHead::LEN;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (values, len) = read_column(&payload[at..]).map_err(TestCaseError::fail)?;
        prop_assert_eq!(values.len() as u64, head.rows);
        out.push(values);
        at += len;
    }
    prop_assert_eq!(at, payload.len());
    Ok(out)
}

/// One submitted ticket as the model sees it.
struct Model {
    ticket: TicketId,
    request: ServerRequest,
    /// `cancel` reported it live, so its outcome is `Cancelled`.
    cancelled: bool,
    /// Known to be finished, so its next poll is terminal.
    finished: bool,
    /// A poll took its outcome, so every later poll is `UnknownTicket`.
    taken: bool,
}

/// Polls `m`'s ticket and checks the poll against the model.
fn poll(engine: &mut QueryEngine, m: &mut Model) -> Result<(), TestCaseError> {
    let poll = engine.poll(m.ticket);
    if m.taken {
        prop_assert!(
            matches!(poll, TicketPoll::Rejected(RdxError::UnknownTicket { ticket }) if ticket == m.ticket.raw()),
            "{} polled {:?} after its outcome was taken",
            m.ticket,
            poll
        );
        return Ok(());
    }
    let outcome = match poll {
        live @ (TicketPoll::Queued { .. } | TicketPoll::Running { .. }) => {
            prop_assert!(!m.finished, "{} finished but polled {:?}", m.ticket, live);
            return Ok(());
        }
        TicketPoll::Done(served) => Ok(served),
        TicketPoll::Rejected(e) => Err(e),
    };
    m.taken = true;
    check_outcome(m, outcome)
}

/// Checks one taken outcome against the model.
fn check_outcome(m: &Model, outcome: Result<Served, RdxError>) -> Result<(), TestCaseError> {
    let served = match outcome {
        Err(e) => {
            prop_assert_eq!(
                m.cancelled,
                e == RdxError::Cancelled,
                "{} ended {:?}",
                m.ticket,
                e
            );
            prop_assert!(
                !matches!(
                    e,
                    RdxError::UnknownRelation { .. }
                        | RdxError::TooManyColumns { .. }
                        | RdxError::UnknownTicket { .. }
                        | RdxError::Deadline(_)
                ),
                "{} ended {:?}",
                m.ticket,
                e
            );
            return Ok(());
        }
        Ok(served) => served,
    };
    prop_assert!(!m.cancelled, "{} was cancelled but served", m.ticket);
    let (got, stats) = match served {
        Served::Columns(q) => (columns(&q.result), q.stats),
        Served::Frame { frame, stats } => (frame_columns(&frame, m.ticket)?, stats),
    };
    prop_assert_eq!(
        stats.query_id,
        m.ticket.raw(),
        "{} has another query id",
        m.ticket
    );
    prop_assert!(
        got == solo(&m.request),
        "{} differs from its solo run",
        m.ticket
    );
    Ok(())
}

/// One engine step; a `Finished` step marks its ticket finished.
fn step(engine: &mut QueryEngine, model: &mut [Model]) -> EngineStep {
    let step = engine.step();
    if let EngineStep::Finished { ticket } = step {
        if let Some(m) = model.iter_mut().find(|m| m.ticket == ticket) {
            m.finished = true;
        }
    }
    step
}

/// The budget and quota bounds that hold after every op, and the load
/// gauges agreeing with the ticket table.
fn check_bounds(engine: &QueryEngine, tenants: &[TenantId]) -> Result<(), TestCaseError> {
    let snap = engine.obs().metrics().snapshot();
    prop_assert_eq!(
        snap.gauge("engine.in_flight"),
        Some(engine.in_flight() as i64)
    );
    prop_assert_eq!(snap.gauge("engine.queued"), Some(engine.queued() as i64));
    let global = engine.config().global_budget;
    if global.is_bounded() {
        prop_assert!(engine.committed_bytes() <= global.limit_bytes());
    }
    prop_assert!(engine.in_flight() <= MAX_CONCURRENT);
    for (&t, &(name, in_flight, bytes)) in tenants.iter().zip(&TENANTS) {
        let s = engine.tenant_stats(t).expect("interned");
        prop_assert!(
            in_flight.is_none_or(|cap| s.in_flight <= cap),
            "{name}: {s:?}"
        );
        prop_assert!(
            bytes.is_none_or(|cap| s.committed_bytes <= cap),
            "{name}: {s:?}"
        );
    }
    Ok(())
}

/// What is left at idle: no grant, no tenant charge, zero gauges.
fn check_idle(engine: &QueryEngine, tenants: &[TenantId]) -> Result<(), TestCaseError> {
    prop_assert!(engine.is_idle());
    prop_assert_eq!(engine.committed_bytes(), 0);
    for &t in tenants {
        let s = engine.tenant_stats(t).expect("interned");
        prop_assert_eq!((s.in_flight, s.committed_bytes), (0, 0), "{:?}", s);
    }
    let snap = engine.obs().metrics().snapshot();
    prop_assert_eq!(snap.gauge("engine.in_flight"), Some(0));
    prop_assert_eq!(snap.gauge("engine.queued"), Some(0));
    Ok(())
}

/// A request drawn from `r`'s bits.
fn request(tenants: &[TenantId], mut r: u64) -> ServerRequest {
    let mut draw = |n: u64| {
        let v = r % n;
        r /= n;
        v as usize
    };
    let pair = draw(PAIRS.len() as u64) as u32;
    let spec = QuerySpec {
        project_larger: 1 + draw(WIDTH as u64),
        project_smaller: draw(WIDTH as u64 + 1),
    };
    let mut req = ServerRequest::new(
        RelationId::from_raw(2 * pair),
        RelationId::from_raw(2 * pair + 1),
        spec,
    );
    req.priority = 1 + draw(3) as u32;
    req.tenant = tenants.get(draw(4)).copied();
    req.budget_hint = [16, 200, 1_000]
        .get(draw(6))
        .map(|&b| MemoryBudget::bytes(b));
    if draw(3) == 0 {
        let retries = 1 + draw(2) as u32;
        req.retry = Some(RetryPolicy::with_retries(retries).backoff(1 + draw(3) as u64));
    }
    req.codes =
        (CODES.get(draw(6))).map(|&(first, second)| DsmPostProjection::with_codes(first, second));
    req.form = match draw(4) {
        0 => ResultForm::Frame {
            max_payload: 1 << 20,
        },
        1 => ResultForm::Frame { max_payload: 2_000 },
        _ => ResultForm::Columns,
    };
    req
}

/// A fault plan of up to four actions over the first sixteen submissions.
fn fault_plan(mut f: u64) -> FaultPlan {
    let mut draw = |n: u64| {
        let v = f % n;
        f /= n;
        v as usize
    };
    (0..draw(5)).fold(FaultPlan::new(), |plan, _| {
        let query = draw(16);
        match draw(3) {
            0 => plan.panic_at(query, draw(3), 0),
            1 => plan.deny_grant(query),
            _ => plan.evict_cache(query),
        }
    })
}

/// Steps until `Idle`, checking the bounds after every step.
fn drain(
    engine: &mut QueryEngine,
    model: &mut [Model],
    tenants: &[TenantId],
) -> Result<(), TestCaseError> {
    for _ in 0..20_000 {
        if step(engine, model) == EngineStep::Idle {
            return check_idle(engine, tenants);
        }
        check_bounds(engine, tenants)?;
    }
    Err(TestCaseError::fail("the engine never drained"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_engine_matches_its_reference_model(
        global in 0usize..3,
        faults in 0u64..u64::MAX,
        script in proptest::collection::vec(0u64..u64::MAX, 1..65),
    ) {
        let mut engine = QueryEngine::new(config(GLOBALS[global]));
        for w in pairs() {
            engine.register(w.larger.clone());
            engine.register(w.smaller.clone());
        }
        let tenants: Vec<TenantId> = TENANTS.iter().map(|t| engine.tenant_id(t.0)).collect();
        engine.inject_faults(fault_plan(faults));
        let mut model: Vec<Model> = Vec::new();
        for op in script {
            let (kind, r) = (op % 16, op / 16);
            let pick = (!model.is_empty()).then(|| r as usize % model.len());
            match (kind, pick) {
                (0..=5, _) | (_, None) => {
                    let request = request(&tenants, r);
                    let ticket = engine.submit(request);
                    model.push(Model {
                        ticket,
                        request,
                        cancelled: false,
                        finished: false,
                        taken: false,
                    });
                }
                (6..=10, _) => {
                    if step(&mut engine, &mut model) == EngineStep::Idle {
                        check_idle(&engine, &tenants)?;
                    }
                }
                (11, Some(i)) => poll(&mut engine, &mut model[i])?,
                (12, Some(i)) => {
                    let m = &mut model[i];
                    let live = engine.cancel(m.ticket);
                    let done = m.finished || m.taken;
                    prop_assert!(!(live && done), "{} cancelled after it finished", m.ticket);
                    // Live, it is cancelled now; not, it had finished.  Either
                    // way the poll right after is terminal: `Cancelled` when
                    // live, else its parked outcome (or unknown once taken).
                    m.cancelled |= live;
                    m.finished = true;
                    poll(&mut engine, m)?;
                }
                (13..=14, Some(i)) => {
                    // A second poll right after a terminal one is unknown.
                    poll(&mut engine, &mut model[i])?;
                    poll(&mut engine, &mut model[i])?;
                }
                _ => {
                    for _ in 0..8 {
                        step(&mut engine, &mut model);
                        check_bounds(&engine, &tenants)?;
                    }
                }
            }
            check_bounds(&engine, &tenants)?;
        }
        drain(&mut engine, &mut model, &tenants)?;
        // Idle: every ticket has resolved, and its outcome is polled once.
        for m in &mut model {
            m.finished = true;
            poll(&mut engine, m)?;
            prop_assert!(m.taken, "{} has no outcome", m.ticket);
            poll(&mut engine, m)?;
        }
    }
}
