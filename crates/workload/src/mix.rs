//! Multi-tenant query-mix generation for the serving layer.
//!
//! A serving workload is not one query but a *population*: several tenants,
//! each with their own relation pair (different cardinalities `N` and widths
//! `ω`), issuing queries whose popularity is heavily skewed — the classic
//! zipfian access pattern that makes cross-query caching pay.  This module
//! generates such mixes deterministically: a [`Zipf`] sampler picks which
//! tenant's pair each query hits, and per-query projection widths cycle
//! through the tenant's available columns.
//!
//! Everything is seeded, so a mix is reproducible across the benchmark, the
//! conformance grid and examples.

use crate::join_pair::{HitRate, JoinWorkload, JoinWorkloadBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A deterministic Zipf sampler over ranks `0..n` with exponent `s`:
/// `P(rank k) ∝ 1 / (k + 1)^s`.  `s = 0` degenerates to uniform; the
/// customary serving-skew setting is `s ≈ 1`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative distribution, `cdf[k] = P(rank ≤ k)`, last entry 1.
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(s.is_finite() && s >= 0.0, "exponent must be finite and ≥ 0");
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    /// Probability of rank `k`.
    pub fn probability(&self, k: usize) -> f64 {
        let prev = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - prev
    }

    /// Draws one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u = rng.gen_f64();
        // partition_point: first rank whose cdf exceeds u.
        self.cdf.partition_point(|&c| c <= u).min(self.ranks() - 1)
    }

    /// The *expectation* of `count` draws as a sequence: rank `k` appears
    /// `count · P(k)` times (largest-remainder rounding, ties to the lower
    /// rank), shuffled by `seed`.  Every seed gives the same multiset — the
    /// same amount of work — and a different order, which is what a cache's
    /// insert/evict behaviour depends on.
    pub fn expectation_sequence(&self, count: usize, seed: u64) -> Vec<usize> {
        let shares: Vec<f64> = (0..self.ranks())
            .map(|k| self.probability(k) * count as f64)
            .collect();
        let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..self.ranks()).collect();
        by_remainder.sort_by(|&a, &b| shares[b].fract().total_cmp(&shares[a].fract()));
        let short = count.saturating_sub(counts.iter().sum());
        for &k in by_remainder.iter().take(short) {
            counts[k] += 1;
        }
        let mut sequence: Vec<usize> = (counts.iter().enumerate())
            .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
            .collect();
        sequence.shuffle(&mut StdRng::seed_from_u64(seed));
        sequence
    }
}

/// Configuration of a multi-tenant mix.
#[derive(Debug, Clone, Default)]
pub struct MixConfig {
    /// Relation-pair presets, one per tenant: `(cardinality N, width ω)`.
    /// Popularity is zipfian in listed order (first = hottest).
    pub tenants: Vec<(usize, usize)>,
    /// Number of queries to draw.
    pub queries: usize,
    /// Zipf exponent of tenant popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Optional tenant names, one per [`MixConfig::tenants`] entry — what a
    /// serving front-end hands to `tenant_id` / `Hello` so the mix's
    /// queries are billed against per-tenant quotas.  Empty (the default)
    /// keeps the legacy anonymous mix.
    pub tenant_names: Vec<String>,
    /// Optional per-tenant zipf exponents over each tenant's **projection
    /// widths** (`rank k` ↦ `π = k + 1`): a skew of 0 spreads a tenant's
    /// queries uniformly over `1..=ω`, a high skew concentrates them on
    /// narrow projections — so different tenants stress the cache
    /// differently.  Empty (the default) keeps the legacy deterministic
    /// `1 + (q mod ω)` cycling.
    pub width_skews: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl MixConfig {
    /// The default serving mix: four tenants spanning two orders of
    /// magnitude in `N` — one big-scan tenant and three lookup-ish ones —
    /// with `ω` mixed, under the customary `s = 1` skew.
    pub fn standard(queries: usize, seed: u64) -> Self {
        MixConfig {
            tenants: vec![(60_000, 2), (20_000, 4), (6_000, 1), (2_000, 2)],
            queries,
            zipf_exponent: 1.0,
            tenant_names: Vec::new(),
            width_skews: Vec::new(),
            seed,
        }
    }

    /// The [`MixConfig::standard`] mix with its four tenants *named* and
    /// given distinct per-tenant width skews — the preset for quota /
    /// wire-serving scenarios where queries must be billed to someone.
    pub fn tagged(queries: usize, seed: u64) -> Self {
        MixConfig {
            tenant_names: ["alpha", "beta", "gamma", "delta"]
                .into_iter()
                .map(str::to_owned)
                .collect(),
            width_skews: vec![0.0, 0.5, 1.0, 1.5],
            ..MixConfig::standard(queries, seed)
        }
    }
}

/// One drawn query of a [`QueryMix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixQuery {
    /// Index into [`QueryMix::tenants`].
    pub tenant: usize,
    /// Columns to project from each side (`≤` the tenant's width).
    pub project: usize,
    /// Per-query budget preset: `None` = whatever the server grants,
    /// `Some(d)` = cap the query at `1/d` of its tenant's value data (the
    /// PR 2 out-of-budget denominators, cycled so a mix exercises both
    /// generous and tight clients).
    pub budget_denominator: Option<usize>,
}

/// A generated multi-tenant workload: the tenants' relation pairs plus the
/// zipfian-popular query sequence over them.
#[derive(Debug)]
pub struct QueryMix {
    /// One relation pair per tenant, in [`MixConfig::tenants`] order.
    pub tenants: Vec<JoinWorkload>,
    /// Tenant names when the mix is tagged ([`MixConfig::tenant_names`]);
    /// empty for anonymous legacy mixes.
    pub names: Vec<String>,
    /// The drawn query sequence.
    pub queries: Vec<MixQuery>,
}

impl QueryMix {
    /// Generates the mix described by `config`.
    ///
    /// # Panics
    /// Panics if `config.tenants` is empty, any width is zero, or
    /// `tenant_names` / `width_skews` are non-empty with a length other
    /// than `tenants.len()`.
    pub fn generate(config: &MixConfig) -> Self {
        assert!(!config.tenants.is_empty(), "need at least one tenant");
        assert!(
            config.tenant_names.is_empty() || config.tenant_names.len() == config.tenants.len(),
            "tenant_names must be empty or name every tenant"
        );
        assert!(
            config.width_skews.is_empty() || config.width_skews.len() == config.tenants.len(),
            "width_skews must be empty or cover every tenant"
        );
        let tenants: Vec<JoinWorkload> = config
            .tenants
            .iter()
            .enumerate()
            .map(|(i, &(n, columns))| {
                assert!(columns >= 1, "tenant {i} has zero columns");
                JoinWorkloadBuilder::equal(n, columns)
                    .hit_rate(HitRate(1.0))
                    .seed(config.seed.wrapping_add(i as u64).wrapping_mul(0x9E37))
                    .build()
            })
            .collect();
        let zipf = Zipf::new(tenants.len(), config.zipf_exponent);
        // Per-tenant projection-width samplers (one rank per column),
        // only when the config opts into skewed widths.
        let width_zipfs: Vec<Zipf> = config
            .width_skews
            .iter()
            .zip(&config.tenants)
            .map(|(&s, &(_, columns))| Zipf::new(columns, s))
            .collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Budget presets cycled across the mix: unconstrained clients plus
        // the PR 2 out-of-budget denominators.
        const BUDGET_PRESETS: [Option<usize>; 3] = [None, Some(4), Some(16)];
        let queries = (0..config.queries)
            .map(|q| {
                let tenant = zipf.sample(&mut rng);
                let width = config.tenants[tenant].1;
                // Skewed draw per tenant when configured; otherwise cycle
                // the projection width so one tenant's repeats still
                // exercise different π (1..=ω).
                let project = match width_zipfs.get(tenant) {
                    Some(z) => 1 + z.sample(&mut rng),
                    None => 1 + (q % width),
                };
                MixQuery {
                    tenant,
                    project,
                    budget_denominator: BUDGET_PRESETS[q % BUDGET_PRESETS.len()],
                }
            })
            .collect();
        QueryMix {
            tenants,
            names: config.tenant_names.clone(),
            queries,
        }
    }

    /// The name of tenant `t` in a tagged mix, `None` in an anonymous one.
    pub fn tenant_name(&self, t: usize) -> Option<&str> {
        self.names.get(t).map(String::as_str)
    }

    /// Total value-data bytes of tenant `t`'s pair (`2 · N · ω · 4`), the
    /// base a [`MixQuery::budget_denominator`] divides.
    pub fn tenant_data_bytes(&self, t: usize) -> usize {
        let w = &self.tenants[t];
        2 * w.larger.cardinality() * w.larger.width() * 4
    }

    /// How many of the drawn queries hit each tenant.
    pub fn popularity(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.tenants.len()];
        for q in &self.queries {
            counts[q.tenant] += 1;
        }
        counts
    }

    /// Queries per distinct `(tenant, project)` pair, i.e. the repeat factor
    /// a clustered-index cache can exploit.
    pub fn repeat_factor(&self) -> f64 {
        let mut seen = std::collections::HashSet::new();
        for q in &self.queries {
            seen.insert((q.tenant, q.project));
        }
        self.queries.len() as f64 / seen.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_normalised_and_skewed() {
        let z = Zipf::new(4, 1.0);
        let total: f64 = (0..4).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(z.probability(0) > z.probability(1));
        assert!(z.probability(1) > z.probability(3));
        // Harmonic weights at s = 1: p0 / p1 = 2.
        assert!((z.probability(0) / z.probability(1) - 2.0).abs() < 1e-9);
        // s = 0 is uniform.
        let u = Zipf::new(5, 0.0);
        for k in 0..5 {
            assert!((u.probability(k) - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_is_deterministic_and_covers_ranks() {
        let z = Zipf::new(3, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..300).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        let samples = draw(7);
        let mut counts = [0usize; 3];
        for &s in &samples {
            counts[s] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
        // Rank 0 dominates under skew.
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    }

    #[test]
    fn expectation_sequence_fixes_the_multiset_and_lets_the_seed_order_it() {
        let z = Zipf::new(4, 1.0);
        let a = z.expectation_sequence(100, 1);
        assert_eq!(a, z.expectation_sequence(100, 1));
        let b = z.expectation_sequence(100, 2);
        assert_ne!(a, b);
        let counts = |seq: &[usize]| {
            let mut c = [0usize; 4];
            seq.iter().for_each(|&k| c[k] += 1);
            c
        };
        // 100 · (1, 1/2, 1/3, 1/4) / (25/12) = 48, 24, 16, 12.
        assert_eq!(counts(&a), [48, 24, 16, 12]);
        assert_eq!(counts(&b), [48, 24, 16, 12]);
        assert_eq!(z.expectation_sequence(7, 3).len(), 7);
    }

    #[test]
    fn mix_generation_is_reproducible_and_bounded() {
        let config = MixConfig::standard(64, 11);
        let a = QueryMix::generate(&config);
        let b = QueryMix::generate(&config);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.tenants.len(), 4);
        assert_eq!(a.queries.len(), 64);
        for q in &a.queries {
            let width = config.tenants[q.tenant].1;
            assert!(q.project >= 1 && q.project <= width);
        }
        // Budget presets cycle: unconstrained and out-of-budget clients mix.
        assert_eq!(a.queries[0].budget_denominator, None);
        assert_eq!(a.queries[1].budget_denominator, Some(4));
        assert_eq!(a.queries[2].budget_denominator, Some(16));
        assert!(a.tenant_data_bytes(0) > a.tenant_data_bytes(3));
        // The hottest tenant is the most popular, and repeats exist for a
        // cache to exploit.
        let pop = a.popularity();
        assert_eq!(pop.iter().sum::<usize>(), 64);
        assert!(pop[0] >= *pop.iter().max().unwrap() / 2);
        assert!(a.repeat_factor() > 2.0);
    }

    #[test]
    fn tagged_mixes_name_tenants_and_skew_widths_per_tenant() {
        let config = MixConfig::tagged(200, 5);
        let mix = QueryMix::generate(&config);
        // Reproducible, like every mix.
        assert_eq!(mix.queries, QueryMix::generate(&config).queries);
        assert_eq!(mix.tenant_name(0), Some("alpha"));
        assert_eq!(mix.tenant_name(3), Some("delta"));
        assert_eq!(mix.tenant_name(4), None);
        // The anonymous mix stays anonymous (legacy behaviour untouched:
        // same seed, same tenants, same width cycling as before).
        let legacy = QueryMix::generate(&MixConfig::standard(200, 5));
        assert_eq!(legacy.tenant_name(0), None);
        for (q, query) in legacy.queries.iter().enumerate() {
            assert_eq!(
                query.project,
                1 + (q % legacy.tenants[query.tenant].larger.width())
            );
        }
        // Tenant "beta" (ω = 4, skew 0.5) draws narrow projections more
        // often than wide ones; widths stay in bounds everywhere.
        let mut beta_widths = [0usize; 4];
        for q in &mix.queries {
            let width = mix.tenants[q.tenant].larger.width();
            assert!(q.project >= 1 && q.project <= width);
            if q.tenant == 1 {
                beta_widths[q.project - 1] += 1;
            }
        }
        assert!(beta_widths[0] >= beta_widths[3]);
    }

    #[test]
    fn different_seeds_draw_different_sequences() {
        let a = QueryMix::generate(&MixConfig::standard(40, 1));
        let b = QueryMix::generate(&MixConfig::standard(40, 2));
        assert_ne!(a.queries, b.queries);
    }
}
