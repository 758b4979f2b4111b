//! Helpers shared by the integration-test binaries.  Each binary compiles
//! its own copy and uses a subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use radix_decluster::prelude::*;

/// `plan` materialised under `policy`: one chunk under the default
/// unbounded budget, chunked under a bounded one.
///
/// # Panics
/// Panics if `spec` projects more columns than a relation has.
pub fn materialize(
    plan: DsmPostProjection,
    larger: &DsmRelation,
    smaller: &DsmRelation,
    spec: &QuerySpec,
    params: &CacheParams,
    policy: &ExecPolicy,
) -> (ResultRelation, radix_decluster::exec::PipelineStats) {
    let (out, stats) = ProjectionPipeline::new(plan)
        .materialize(larger, smaller, spec, params, policy)
        .expect("the spec fits the relations");
    (out.result, stats)
}

/// Raw column-by-column contents, for byte-identity comparisons.
pub fn columns(result: &ResultRelation) -> Vec<Vec<i32>> {
    result
        .columns()
        .iter()
        .map(|c| c.as_slice().to_vec())
        .collect()
}

/// Registers every tenant pair of `mix` and builds one request per drawn
/// query, capped at its budget preset when `budget_hints` is set.
pub fn register_mix(
    engine: &mut QueryEngine,
    mix: &QueryMix,
    budget_hints: bool,
) -> Vec<ServerRequest> {
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
    mix.queries
        .iter()
        .map(|q| {
            let (larger, smaller) = ids[q.tenant];
            let budget_hint = q.budget_denominator.filter(|_| budget_hints);
            ServerRequest {
                budget_hint: budget_hint
                    .map(|d| MemoryBudget::fraction_of(mix.tenant_data_bytes(q.tenant), d)),
                ..ServerRequest::new(larger, smaller, QuerySpec::symmetric(q.project))
            }
        })
        .collect()
}

/// Submits every request as a ticket, steps the engine until idle, and
/// polls the outcomes back in submission order.
pub fn serve_all(
    engine: &mut QueryEngine,
    requests: &[ServerRequest],
) -> Vec<Result<QueryResult, RdxError>> {
    let tickets: Vec<TicketId> = requests.iter().map(|r| engine.submit(*r)).collect();
    while engine.step() != EngineStep::Idle {}
    tickets
        .into_iter()
        .map(|t| match engine.poll(t) {
            TicketPoll::Done(Served::Columns(result)) => Ok(result),
            TicketPoll::Rejected(RdxError::UnknownTicket { .. }) => {
                panic!("every ticket resolves before the engine idles")
            }
            TicketPoll::Rejected(e) => Err(e),
            other => panic!("{t}: a request submitted as columns ended {other:?}"),
        })
        .collect()
}

/// Per-query result columns of a fully served pass.
pub fn result_columns(outcomes: &[Result<QueryResult, RdxError>]) -> Vec<Vec<Vec<i32>>> {
    outcomes
        .iter()
        .map(|o| columns(&o.as_ref().expect("query served").result))
        .collect()
}
