//! # Bootstrap confidence intervals and CI-overlap comparison
//!
//! Wall-clock benchmark numbers from a shared container are noisy; a single
//! median tells you nothing about whether a 3% delta is signal.  This module
//! provides the statistical floor under every wall-clock claim the harness
//! makes:
//!
//! * [`bootstrap_median_ci`] — a percentile-bootstrap confidence interval for
//!   the median of a sample set, fully deterministic (seeded resampling via
//!   the workspace's deterministic `StdRng`).
//! * [`classify`] — baseline-vs-candidate comparison from CI overlap alone:
//!   only non-overlapping intervals may claim [`Comparison::Improved`] or
//!   [`Comparison::Regressed`]; everything else is honest
//!   [`Comparison::Inconclusive`].
//!
//! The harness convention is **lower is better** (milliseconds, miss counts,
//! stall cycles).  Deterministic metrics (simulated miss counts) produce
//! zero-width intervals, so the same classifier doubles as an exact gate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimum sample count the harness accepts for a wall-clock CI.  Below this
/// the bootstrap distribution of the median is too lumpy to mean anything.
pub const MIN_SAMPLES: usize = 30;

/// A percentile-bootstrap confidence interval around a sample median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Median of the observed samples.
    pub point: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// Number of bootstrap resamples the bounds were taken from.
    pub resamples: usize,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
}

impl BootstrapCi {
    /// Interval width `hi - lo`; zero for deterministic metrics.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// True if `v` lies inside the closed interval.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Outcome of a baseline-vs-candidate comparison (lower is better).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Candidate CI lies entirely below the baseline CI.
    Improved,
    /// Candidate CI lies entirely above the baseline CI.
    Regressed,
    /// The intervals overlap — no claim either way.
    Inconclusive,
}

impl Comparison {
    /// Stable lower-case label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Comparison::Improved => "improved",
            Comparison::Regressed => "regressed",
            Comparison::Inconclusive => "inconclusive",
        }
    }
}

/// Median of `samples` (mean of the middle pair for even counts).
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    mid(&sorted)
}

/// Median of an already-sorted slice.
fn mid(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Linear-interpolated percentile of an already-sorted slice, `p` in `[0,1]`.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Percentile-bootstrap CI for the median of `samples`.
///
/// Resampling is driven by `StdRng::seed_from_u64(seed)`, so the interval is
/// a pure function of `(samples, resamples, level, seed)` — rerunning the
/// harness on the same sample file reproduces the bounds bit-for-bit.
///
/// Panics if `samples` is empty, `resamples` is zero, or `level` is outside
/// `(0, 1)`.
pub fn bootstrap_median_ci(
    samples: &[f64],
    resamples: usize,
    level: f64,
    seed: u64,
) -> BootstrapCi {
    assert!(!samples.is_empty(), "bootstrap over an empty sample set");
    assert!(resamples > 0, "need at least one bootstrap resample");
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0, 1)"
    );
    let n = samples.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut medians = Vec::with_capacity(resamples);
    let mut resample = vec![0.0f64; n];
    for _ in 0..resamples {
        for slot in resample.iter_mut() {
            *slot = samples[rng.gen_range(0..n as u64) as usize];
        }
        resample.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        medians.push(mid(&resample));
    }
    medians.sort_by(|a, b| a.partial_cmp(b).expect("NaN resample median"));
    let alpha = (1.0 - level) / 2.0;
    BootstrapCi {
        point: median(samples),
        lo: percentile_sorted(&medians, alpha),
        hi: percentile_sorted(&medians, 1.0 - alpha),
        resamples,
        level,
    }
}

/// Classifies `candidate` against `baseline` from CI overlap (lower is
/// better).  Deterministic metrics yield zero-width intervals, where this
/// reduces to an exact three-way compare.
pub fn classify(baseline: &BootstrapCi, candidate: &BootstrapCi) -> Comparison {
    if candidate.hi < baseline.lo {
        Comparison::Improved
    } else if candidate.lo > baseline.hi {
        Comparison::Regressed
    } else {
        Comparison::Inconclusive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A constant sample set has a degenerate bootstrap distribution: every
    /// resample median equals the constant, so the CI is exactly zero-width.
    #[test]
    fn constant_samples_give_zero_width_ci() {
        let samples = vec![7.25; 40];
        let ci = bootstrap_median_ci(&samples, 500, 0.95, 1);
        assert_eq!(ci.point, 7.25);
        assert_eq!(ci.lo, 7.25);
        assert_eq!(ci.hi, 7.25);
        assert_eq!(ci.width(), 0.0);
    }

    /// A balanced bimodal sample (half 1.0, half 2.0) is the worst case for
    /// a median: resamples flip between the modes, so the CI must span a
    /// large fraction of the gap — pinned here as width >= 0.5.
    #[test]
    fn bimodal_samples_give_wide_ci() {
        let mut samples = vec![1.0; 20];
        samples.extend(vec![2.0; 20]);
        let ci = bootstrap_median_ci(&samples, 500, 0.95, 2);
        assert!(ci.width() >= 0.5, "bimodal CI should be wide, got {:?}", ci);
        assert!(ci.lo >= 1.0 && ci.hi <= 2.0, "bounds within data: {ci:?}");
    }

    /// A heavy right tail (one sample 100x the rest) must not drag the
    /// median CI upward — the median is robust, so the interval stays near
    /// the body of the distribution.
    #[test]
    fn heavy_tail_does_not_inflate_median_ci() {
        let mut samples: Vec<f64> = (0..39).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        samples.push(1000.0);
        let ci = bootstrap_median_ci(&samples, 500, 0.95, 3);
        assert!(ci.point < 11.0, "median near body: {ci:?}");
        assert!(ci.hi < 11.0, "upper bound unmoved by outlier: {ci:?}");
        assert!(ci.width() <= 0.5, "tight CI despite outlier: {ci:?}");
    }

    /// Same inputs, same seed => bit-identical interval; different seed may
    /// move bounds but never the point estimate.
    #[test]
    fn bootstrap_is_deterministic_in_the_seed() {
        let samples: Vec<f64> = (0..35).map(|i| (i * 37 % 11) as f64).collect();
        let a = bootstrap_median_ci(&samples, 300, 0.95, 42);
        let b = bootstrap_median_ci(&samples, 300, 0.95, 42);
        assert_eq!(a, b);
        let c = bootstrap_median_ci(&samples, 300, 0.95, 43);
        assert_eq!(a.point, c.point);
    }

    #[test]
    fn classify_uses_overlap_only() {
        let ci = |lo: f64, hi: f64| BootstrapCi {
            point: (lo + hi) / 2.0,
            lo,
            hi,
            resamples: 100,
            level: 0.95,
        };
        let base = ci(10.0, 12.0);
        assert_eq!(classify(&base, &ci(7.0, 9.0)), Comparison::Improved);
        assert_eq!(classify(&base, &ci(13.0, 15.0)), Comparison::Regressed);
        assert_eq!(classify(&base, &ci(11.0, 14.0)), Comparison::Inconclusive);
        assert_eq!(classify(&base, &ci(9.0, 10.5)), Comparison::Inconclusive);
        // Zero-width (deterministic) intervals reduce to exact comparison.
        assert_eq!(
            classify(&ci(5.0, 5.0), &ci(5.0, 5.0)),
            Comparison::Inconclusive
        );
        assert_eq!(
            classify(&ci(5.0, 5.0), &ci(6.0, 6.0)),
            Comparison::Regressed
        );
        assert_eq!(classify(&ci(5.0, 5.0), &ci(4.0, 4.0)), Comparison::Improved);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The bootstrap CI must contain the observed sample median: the
        /// median is itself a resample statistic, so percentile bounds at
        /// any level bracket it for non-degenerate sample sets.
        #[test]
        fn ci_contains_the_sample_median(
            raw in proptest::collection::vec(0u64..1000, 30..80),
            seed in 0u64..1000,
        ) {
            let samples: Vec<f64> = raw.iter().map(|&v| v as f64 * 0.5).collect();
            let ci = bootstrap_median_ci(&samples, 200, 0.95, seed);
            prop_assert!(ci.contains(ci.point), "CI {:?} excludes its own median", ci);
            prop_assert!(ci.lo <= ci.hi);
        }

        /// More data => no wider interval: quadrupling the sample count (by
        /// repeating the same empirical distribution) must not widen the CI.
        #[test]
        fn ci_width_shrinks_with_sample_count(
            raw in proptest::collection::vec(1u64..100, 30..50),
            seed in 0u64..1000,
        ) {
            let small: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
            let mut large = Vec::with_capacity(small.len() * 4);
            for _ in 0..4 {
                large.extend_from_slice(&small);
            }
            let ci_small = bootstrap_median_ci(&small, 200, 0.95, seed);
            let ci_large = bootstrap_median_ci(&large, 200, 0.95, seed);
            prop_assert!(
                ci_large.width() <= ci_small.width() + 1e-9,
                "CI widened with more data: {:?} -> {:?}", ci_small, ci_large
            );
        }
    }
}
