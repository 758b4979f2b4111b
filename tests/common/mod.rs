//! Helpers shared by the integration-test binaries.  Each binary compiles
//! its own copy and uses a subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use radix_decluster::prelude::*;

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
    session: &mut Session,
    mix: &QueryMix,
    budget_hints: bool,
) -> Vec<ServerRequest> {
    let ids: Vec<(RelationId, RelationId)> = mix
        .tenants
        .iter()
        .map(|w| {
            (
                session.register(w.larger.clone()),
                session.register(w.smaller.clone()),
            )
        })
        .collect();
    mix.queries
        .iter()
        .map(|q| {
            let (larger, smaller) = ids[q.tenant];
            let request = ServerRequest::new(larger, smaller, QuerySpec::symmetric(q.project));
            match q.budget_denominator {
                Some(d) if budget_hints => request.with_budget_hint(MemoryBudget::fraction_of(
                    mix.tenant_data_bytes(q.tenant),
                    d,
                )),
                _ => request,
            }
        })
        .collect()
}

/// Submits every request as a ticket, drains the session until idle, and
/// takes the outcomes back in submission order.
pub fn serve_all(
    session: &mut Session,
    requests: &[ServerRequest],
) -> Vec<Result<QueryResult, RdxError>> {
    let engine = session.engine_mut();
    let tickets: Vec<TicketId> = requests.iter().map(|r| engine.submit(*r)).collect();
    session.drive_until_idle();
    let engine = session.engine_mut();
    tickets
        .into_iter()
        .map(|t| {
            engine
                .take_outcome(t)
                .expect("every ticket resolves before the session idles")
                .outcome
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
