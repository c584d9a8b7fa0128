//! Theorems 1 and 2, the Equation (10) bound, and Proposition 4.

use crate::control::TraceStats;
use crate::formula::ThroughputFormula;
use crate::theory::conditions::{condition_f1, condition_f2, condition_f2c};
use ebrc_convex::deviation_ratio;

/// Outcome of applying a theorem's hypotheses to a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The theorem's sufficient conditions for conservativeness hold.
    Conservative,
    /// The sufficient conditions for *non*-conservativeness hold
    /// (Theorem 2, second part).
    NonConservative,
    /// Neither set of hypotheses is satisfied — the theorem is silent.
    Inconclusive,
}

/// Applies Theorem 1 to a formula and a run's statistics: if (F1) holds on
/// the region `[lo, hi]` where the estimator takes its values and
/// `cov[θ0, θ̂0] ≤ tol`, the basic control is conservative.
///
/// `cov_tolerance` admits slightly positive empirical covariances (an
/// exact zero is unobservable); pass `0.0` for the strict statement.
pub fn theorem1<F: ThroughputFormula + ?Sized>(
    f: &F,
    stats: &TraceStats,
    lo: f64,
    hi: f64,
    cov_tolerance: f64,
) -> Verdict {
    if condition_f1(f, lo, hi) && stats.cov_theta_theta_hat() <= cov_tolerance {
        Verdict::Conservative
    } else {
        Verdict::Inconclusive
    }
}

/// Applies Theorem 2: (F2) + (C2) imply conservative; (F2c) + (C2c) +
/// (V) imply non-conservative.
///
/// `cov_tolerance` treats `|cov[X0, S0]|` below it as "non-correlated",
/// satisfying either covariance hypothesis (the paper's Claim 2 admits
/// both signs at zero correlation).
pub fn theorem2<F: ThroughputFormula + ?Sized>(
    f: &F,
    stats: &TraceStats,
    lo: f64,
    hi: f64,
    cov_tolerance: f64,
) -> Verdict {
    let c2 = stats.cov_rate_duration();
    let v = stats.theta_hat_moments().variance();
    if condition_f2(f, lo, hi) && c2 <= cov_tolerance {
        Verdict::Conservative
    } else if condition_f2c(f, lo, hi) && c2 >= -cov_tolerance && v > 0.0 {
        Verdict::NonConservative
    } else {
        Verdict::Inconclusive
    }
}

/// The explicit Theorem 1 bound (Equation 10):
///
/// ```text
/// E[X(0)] ≤ f(p) · 1 / (1 + (f'(p)·p / f(p)) · cov[θ0, θ̂0] · p²)
/// ```
///
/// valid when `cov·p² < −f(p)/(f'(p)·p)` (the denominator stays
/// positive). Returns `None` outside the validity region.
pub fn equation10_bound<F: ThroughputFormula + ?Sized>(
    f: &F,
    p: f64,
    cov_theta_theta_hat: f64,
) -> Option<f64> {
    let fp = f.rate(p);
    let dfp = f.rate_derivative(p);
    let elasticity = dfp * p / fp; // negative for decreasing f
    let denom = 1.0 + elasticity * cov_theta_theta_hat * p * p;
    if denom <= 0.0 {
        return None;
    }
    Some(fp / denom)
}

/// Proposition 4: if `1/f(1/x)` deviates from convexity by the ratio
/// `r = sup g/g**` on the estimator's region, the basic control under
/// (C1) cannot overshoot `f(p)` by more than `r`.
///
/// Returns the deviation ratio computed on `[lo, hi]` with `n` samples;
/// for PFTK-standard on the paper's interval this is ≈ 1.0026 (Figure 2).
pub fn prop4_overshoot_bound<F: ThroughputFormula + ?Sized>(
    f: &F,
    lo: f64,
    hi: f64,
    n: usize,
) -> f64 {
    deviation_ratio(&f.sample_g(lo, hi, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::BasicControl;
    use crate::formula::{PftkSimplified, PftkStandard, Sqrt};
    use crate::weights::WeightProfile;
    use ebrc_dist::{IidProcess, Rng, ShiftedExponential};

    fn iid_trace(f: impl ThroughputFormula + Clone, mean: f64, cv: f64, seed: u64) -> TraceStats {
        let weights = WeightProfile::tfrc(8);
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(mean, cv));
        let mut rng = Rng::seed_from(seed);
        let mut stats = TraceStats::new();
        BasicControl::new(f, weights).run_into(&mut process, &mut rng, 40_000, &mut stats);
        stats
    }

    #[test]
    fn theorem1_conservative_verdict_is_correct() {
        // PFTK-simplified + i.i.d. intervals: (F1) + (C1) ⇒ conservative,
        // and the measured normalized throughput confirms it.
        let f = PftkSimplified::with_rtt(1.0);
        let trace = iid_trace(f.clone(), 50.0, 0.9, 1);
        let hat = trace.theta_hat_moments();
        let (lo, hi) = (hat.min().max(0.5), hat.max());
        let p = trace.loss_event_rate();
        let tol = 0.02 / (p * p); // normalized-covariance tolerance
        assert_eq!(theorem1(&f, &trace, lo, hi, tol), Verdict::Conservative);
        assert!(trace.normalized_throughput(&f) <= 1.0 + 1e-9);
    }

    #[test]
    fn theorem2_conservative_for_sqrt() {
        // SQRT: h concave everywhere; build a synthetic trace with
        // cov[X,S] ≤ 0 by construction (durations independent of rate).
        let f = Sqrt::with_rtt(1.0);
        let trace = iid_trace(f.clone(), 100.0, 0.8, 2);
        let hat = trace.theta_hat_moments();
        let (lo, hi) = (hat.min().max(0.5), hat.max());
        let c2 = trace.cov_rate_duration();
        if c2 <= 0.0 {
            assert_eq!(theorem2(&f, &trace, lo, hi, 0.0), Verdict::Conservative);
        } else {
            // Covariance came out positive; with a tolerance above it the
            // non-conservative branch still must NOT fire (h not convex).
            assert_ne!(
                theorem2(&f, &trace, lo, hi, c2.abs() * 2.0),
                Verdict::NonConservative
            );
        }
    }

    #[test]
    fn theorem2_nonconservative_for_pftk_heavy_loss() {
        // Heavy losses put the estimator in PFTK's convex-h region
        // (x below the inflection at ≈ 6.7 for b = 2, r = 1, q = 4); an
        // independent loss process gives cov[X,S] ≈ 0 — the Claim 2 /
        // Figure 6 regime. The verdict must be NonConservative with a
        // suitable tolerance, and the trace must indeed overshoot f(p).
        let f = PftkSimplified::with_rtt(1.0);
        let trace = iid_trace(f.clone(), 3.0, 0.3, 3);
        let hat = trace.theta_hat_moments();
        let (lo, hi) = (hat.min().max(0.5), hat.max());
        assert!(hi < 6.5, "θ̂ strayed past the inflection: {hi}");
        let c2 = trace.cov_rate_duration().abs();
        let verdict = theorem2(&f, &trace, lo, hi, c2 + 1e-9);
        assert_eq!(verdict, Verdict::NonConservative);
    }

    #[test]
    fn equation10_bound_contains_measured_throughput() {
        let f = PftkSimplified::with_rtt(1.0);
        let trace = iid_trace(f.clone(), 50.0, 0.9, 4);
        let p = trace.loss_event_rate();
        let cov = trace.cov_theta_theta_hat();
        let bound = equation10_bound(&f, p, cov).expect("within validity region");
        assert!(
            trace.throughput() <= bound * (1.0 + 5e-2),
            "throughput {} vs bound {bound}",
            trace.throughput()
        );
    }

    #[test]
    fn equation10_invalid_region_returns_none() {
        let f = Sqrt::with_rtt(1.0);
        // Huge positive covariance pushes the denominator negative:
        // elasticity of SQRT is -1/2, so cov·p² > 2 invalidates.
        assert!(equation10_bound(&f, 0.01, 3.0 / (0.01 * 0.01)).is_none());
    }

    #[test]
    fn prop4_ratio_for_pftk_standard_matches_figure2() {
        // Figure 2: on [3.25, 3.5] the deviation of 1/f(1/x) from
        // convexity is r ≈ 1.0026. The figure's kink sits at x = 3.375,
        // i.e. c2² = 3.375 — the b = 1 constants (with b = 2 the kink
        // would be at 6.75).
        use crate::formula::{c1, c2};
        let f = PftkStandard::new(c1(1.0), c2(1.0), 1.0, 4.0);
        assert!((f.c2 * f.c2 - 3.375).abs() < 1e-9);
        let r = prop4_overshoot_bound(&f, 3.25, 3.5, 40_001);
        assert!(
            (r - 1.0026).abs() < 2e-4,
            "deviation ratio {r}, expected ≈ 1.0026"
        );
        // The b = 2 default shows the same magnitude around its own kink.
        let f2 = PftkStandard::with_rtt(1.0);
        let r2 = prop4_overshoot_bound(&f2, 6.0, 7.6, 40_001);
        assert!(r2 > 1.001 && r2 < 1.01, "b=2 ratio {r2}");
    }

    #[test]
    fn prop4_ratio_is_one_for_convex_formulae() {
        let f = PftkSimplified::with_rtt(1.0);
        assert!((prop4_overshoot_bound(&f, 0.5, 50.0, 4001) - 1.0).abs() < 1e-9);
        let s = Sqrt::with_rtt(1.0);
        assert!((prop4_overshoot_bound(&s, 0.5, 50.0, 4001) - 1.0).abs() < 1e-9);
    }
}
