//! The **per-tenant quota layer**: admission caps per principal, on top of
//! the global [`rdx_core::budget::MemoryBudget`].
//!
//! The paper's execution model budgets *queries*; a serving front budgets
//! *principals* — the tenants behind the connections.  A [`TenantQuota`]
//! caps how many queries a tenant may have in flight and how many resident
//! grant bytes those queries may hold in total.  [`crate::admission`]
//! enforces both, **before** the global `per_query_share` is consulted, so
//! one tenant's burst is shed at its own cap (typed
//! `RdxError::TenantQuota`) and never dips into the shared pool; it also
//! tightens an admitted query's grant to the tenant's byte headroom and
//! charges the tenant that one grant, so `Σ` of a tenant's grants `≤` its
//! cap holds at every instant, by the same construction as the global
//! invariant.
//!
//! Tenants are interned by name ([`crate::engine::QueryEngine::tenant_id`])
//! into the `Copy` [`TenantId`] requests carry.  A tenant's *load* — its
//! running queries and the bytes charged against its byte cap — is read
//! off the engine's running set, which is the one record of who holds
//! what; this registry keeps names, quotas, the admission and rejection
//! counts and the load gauges.  Each tenant's `engine.tenant.<name>.*`
//! instruments publish both: the engine writes the load gauges from its
//! running set after every admission and teardown, and no check reads
//! them.

use rdx_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::HashMap;

/// Opaque handle to an interned tenant — what [`crate::ServerRequest`]
/// carries.  Interned per engine; the raw value is what
/// `RdxError::TenantQuota` reports (the newtype is not visible from
/// `rdx-core`, like `RelationId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub(crate) u32);

impl TenantId {
    /// The raw id — what `RdxError::TenantQuota` carries.
    pub fn raw(&self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// One tenant's admission caps.  `None` on either axis means unlimited;
/// the default is unlimited on both, so quota enforcement is strictly
/// opt-in per tenant (or via [`TenantQuotas::with_default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantQuota {
    /// Most queries the tenant may have admitted at once.
    pub max_in_flight: Option<usize>,
    /// Most grant bytes the tenant's in-flight queries may hold in total.
    /// A grant bounds a run's chunk scratch, priced at
    /// [`rdx_core::strategy::planner::streaming_bytes_per_row`]; result
    /// memory (the `MaterializeSink` columns, the `FrameSink` `Done` frame,
    /// outcomes parked until polled) lies outside it, so this caps the
    /// tenant's chunk scratch, not its resident memory.  Also tightens
    /// grants: a query is admitted at `min(share, hint, tenant headroom)`,
    /// and that one grant is what the tenant is charged.
    pub max_resident_bytes: Option<usize>,
}

impl TenantQuota {
    /// No caps on either axis.
    pub fn unlimited() -> Self {
        TenantQuota::default()
    }

    /// Caps concurrent in-flight queries (builder form).
    pub fn in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = Some(max);
        self
    }

    /// Caps total resident grant bytes (builder form).
    pub fn resident_bytes(mut self, max: usize) -> Self {
        self.max_resident_bytes = Some(max);
        self
    }
}

/// The engine-wide quota table: a default quota for every tenant plus
/// per-name overrides, resolved once at interning time.
#[derive(Debug, Clone, Default)]
pub struct TenantQuotas {
    default_quota: TenantQuota,
    overrides: Vec<(String, TenantQuota)>,
}

impl TenantQuotas {
    /// Every tenant unlimited (the [`crate::ServeConfig`] default).
    pub fn unlimited() -> Self {
        TenantQuotas::default()
    }

    /// Sets the quota tenants get unless overridden by name.
    pub fn with_default(mut self, quota: TenantQuota) -> Self {
        self.default_quota = quota;
        self
    }

    /// Overrides the quota for the tenant named `name` (last write wins).
    pub fn with_tenant(mut self, name: impl Into<String>, quota: TenantQuota) -> Self {
        let name = name.into();
        if let Some(entry) = self.overrides.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = quota;
        } else {
            self.overrides.push((name, quota));
        }
        self
    }

    /// The quota `name` resolves to.
    pub fn quota_for(&self, name: &str) -> TenantQuota {
        self.overrides
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, q)| *q)
            .unwrap_or(self.default_quota)
    }
}

/// A point-in-time view of one tenant's admission accounting: its load,
/// read off the engine's running set, and its lifetime counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The name the tenant was interned under.
    pub name: String,
    /// The quota it resolved to at interning time.
    pub quota: TenantQuota,
    /// Queries currently admitted.
    pub in_flight: usize,
    /// Grant bytes currently charged against
    /// [`TenantQuota::max_resident_bytes`] (always 0 for tenants with no
    /// byte cap — nothing is charged where nothing is enforced).
    pub committed_bytes: usize,
    /// Queries admitted over the tenant's lifetime.
    pub admissions: u64,
    /// Queries refused with `RdxError::TenantQuota`.
    pub rejections: u64,
}

/// A tenant's load: its running queries, and the grant bytes they hold
/// against its byte cap (0 for a tenant with none).
pub(crate) type Load = (usize, usize);

/// One interned tenant: its quota and its `engine.tenant.<name>.*`
/// instruments.
#[derive(Debug)]
struct TenantState {
    name: String,
    quota: TenantQuota,
    in_flight: Gauge,
    committed_bytes: Gauge,
    admissions: Counter,
    rejections: Counter,
}

/// The engine's tenant table: name interning, quotas and per-tenant
/// counts.  Ids minted by one engine are meaningless to another; a foreign
/// id simply resolves to no state (every check passes, nothing is
/// counted), same contract as an unknown relation id resolving to `None`.
#[derive(Debug)]
pub(crate) struct TenantRegistry {
    quotas: TenantQuotas,
    tenants: Vec<TenantState>,
    by_name: HashMap<String, u32>,
}

impl TenantRegistry {
    pub(crate) fn new(quotas: TenantQuotas) -> Self {
        TenantRegistry {
            quotas,
            tenants: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Interns `name`, resolving its quota and registering its
    /// `engine.tenant.<name>.*` instruments on first sight.
    pub(crate) fn intern(&mut self, name: &str, metrics: &MetricsRegistry) -> TenantId {
        if let Some(&id) = self.by_name.get(name) {
            return TenantId(id);
        }
        let id = self.tenants.len() as u32;
        let label = |suffix: &str| format!("engine.tenant.{name}.{suffix}");
        self.tenants.push(TenantState {
            name: name.to_owned(),
            quota: self.quotas.quota_for(name),
            in_flight: metrics.gauge_named(&label("in_flight")),
            committed_bytes: metrics.gauge_named(&label("committed_bytes")),
            admissions: metrics.counter_named(&label("admissions")),
            rejections: metrics.counter_named(&label("rejections")),
        });
        self.by_name.insert(name.to_owned(), id);
        TenantId(id)
    }

    /// The quota `t` resolved to at interning time, or no caps for a
    /// foreign id.
    pub(crate) fn quota(&self, t: TenantId) -> TenantQuota {
        self.tenants
            .get(t.0 as usize)
            .map_or(TenantQuota::unlimited(), |s| s.quota)
    }

    /// Counts one admission of the tenant's.
    pub(crate) fn count_admit(&self, t: TenantId) {
        if let Some(state) = self.tenants.get(t.0 as usize) {
            state.admissions.inc();
        }
    }

    /// Counts one `RdxError::TenantQuota` refusal against the tenant.
    pub(crate) fn count_reject(&self, t: TenantId) {
        if let Some(state) = self.tenants.get(t.0 as usize) {
            state.rejections.inc();
        }
    }

    /// Writes the tenant's `load` to its in-flight and committed gauges.
    pub(crate) fn publish(&self, t: TenantId, (in_flight, committed): Load) {
        if let Some(state) = self.tenants.get(t.0 as usize) {
            state.in_flight.set(in_flight as i64);
            state.committed_bytes.set(committed as i64);
        }
    }

    /// The tenant's accounting view under `load`, or `None` for a foreign
    /// id.
    pub(crate) fn stats(&self, t: TenantId, (in_flight, committed): Load) -> Option<TenantStats> {
        self.tenants.get(t.0 as usize).map(|s| TenantStats {
            name: s.name.clone(),
            quota: s.quota,
            in_flight,
            committed_bytes: committed,
            admissions: s.admissions.get(),
            rejections: s.rejections.get(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_table_resolves_overrides_over_the_default() {
        let quotas = TenantQuotas::unlimited()
            .with_default(TenantQuota::unlimited().in_flight(4))
            .with_tenant(
                "noisy",
                TenantQuota::unlimited().in_flight(1).resident_bytes(64),
            )
            .with_tenant("noisy", TenantQuota::unlimited().in_flight(2));
        assert_eq!(quotas.quota_for("anyone").max_in_flight, Some(4));
        // Last write wins; the second override dropped the byte cap.
        let noisy = quotas.quota_for("noisy");
        assert_eq!(noisy.max_in_flight, Some(2));
        assert_eq!(noisy.max_resident_bytes, None);
    }

    #[test]
    fn interning_is_stable_and_foreign_ids_resolve_to_no_state() {
        let quotas = TenantQuotas::unlimited().with_tenant(
            "capped",
            TenantQuota::unlimited().in_flight(2).resident_bytes(100),
        );
        let mut reg = TenantRegistry::new(quotas);
        let metrics = MetricsRegistry::new();
        let capped = reg.intern("capped", &metrics);
        assert_eq!(reg.intern("capped", &metrics), capped);
        let free = reg.intern("free", &metrics);
        assert_ne!(capped, free);
        assert_eq!(capped.to_string(), "tenant#0");

        // Foreign ids resolve to no state: no caps, counts no-op.
        let foreign = TenantId(99);
        assert_eq!(reg.quota(foreign), TenantQuota::unlimited());
        reg.count_admit(foreign);
        reg.publish(foreign, (1, 10));
        assert!(reg.stats(foreign, (1, 10)).is_none());
    }

    #[test]
    fn stats_track_admissions_and_rejections() {
        let quotas =
            TenantQuotas::unlimited().with_tenant("t", TenantQuota::unlimited().in_flight(8));
        let mut reg = TenantRegistry::new(quotas);
        let t = reg.intern("t", &MetricsRegistry::new());
        reg.count_admit(t);
        reg.count_admit(t);
        reg.count_reject(t);
        let s = reg.stats(t, (2, 48)).unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.in_flight, 2);
        assert_eq!(s.committed_bytes, 48);
        assert_eq!(s.admissions, 2);
        assert_eq!(s.rejections, 1);
        // The load is the caller's: one of the two queries finished.
        let s = reg.stats(t, (1, 16)).unwrap();
        assert_eq!(s.in_flight, 1);
        assert_eq!(s.committed_bytes, 16);
    }

    #[test]
    fn per_tenant_accounting_lives_in_the_registry() {
        let metrics = MetricsRegistry::new();
        let mut reg = TenantRegistry::new(
            TenantQuotas::unlimited().with_default(TenantQuota::unlimited().resident_bytes(256)),
        );
        let t = reg.intern("acme", &metrics);
        reg.count_admit(t);
        reg.publish(t, (1, 128));
        reg.count_reject(t);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("engine.tenant.acme.admissions"), Some(1));
        assert_eq!(snap.counter("engine.tenant.acme.rejections"), Some(1));
        assert_eq!(snap.gauge("engine.tenant.acme.in_flight"), Some(1));
        assert_eq!(snap.gauge("engine.tenant.acme.committed_bytes"), Some(128));
    }
}
