//! One-call conservativeness analysis of a run's statistics.
//!
//! [`analyze`] evaluates every condition and theorem of the paper
//! against a formula and the [`TraceStats`] a control run fed, in O(1)
//! space however long the run, returning a structured
//! [`ConservativenessReport`] — the programmatic form of the checklist a
//! protocol designer should run before "fixing" an observed throughput
//! deviation (Section I-A's cautionary tale).

use crate::control::TraceStats;
use crate::formula::ThroughputFormula;
use crate::theory::conditions::{condition_f1, condition_f2, condition_f2c};
use crate::theory::theorems::{
    equation10_bound, prop4_overshoot_bound, theorem1, theorem2, Verdict,
};

/// Everything the theory can say about one run.
#[derive(Debug, Clone)]
pub struct ConservativenessReport {
    /// Measured loss-event rate `p = 1/E0[θ0]`.
    pub p: f64,
    /// Measured normalized throughput `x̄ / f(p)`.
    pub normalized_throughput: f64,
    /// Region `[lo, hi]` the estimator `θ̂` visited (the domain on which
    /// the function-shape conditions are evaluated).
    pub theta_hat_range: (f64, f64),
    /// (F1): `1/f(1/x)` convex on the visited region.
    pub f1_convex: bool,
    /// (F2): `f(1/x)` concave on the visited region.
    pub f2_concave: bool,
    /// (F2c): `f(1/x)` strictly convex on the visited region.
    pub f2c_strictly_convex: bool,
    /// (C1): empirical `cov[θ0, θ̂0]` (≤ 0 satisfies the condition).
    pub c1_covariance: f64,
    /// The normalized form `cov[θ0, θ̂0]·p²` reported in the paper's
    /// figures.
    pub c1_normalized: f64,
    /// (C2): empirical `cov[X0, S0]`.
    pub c2_covariance: f64,
    /// (V): estimator variance.
    pub estimator_variance: f64,
    /// Theorem 1 verdict on this data.
    pub theorem1: Verdict,
    /// Theorem 2 verdict on this data.
    pub theorem2: Verdict,
    /// The Equation (10) throughput bound, when inside its validity
    /// region, normalized by `f(p)`.
    pub equation10_normalized_bound: Option<f64>,
    /// Proposition 4's overshoot cap `sup g/g**` on the visited region.
    pub prop4_overshoot_cap: f64,
}

impl ConservativenessReport {
    /// Whether the measured behaviour is consistent with every verdict
    /// the theory issued (used by the self-checking tests).
    pub fn consistent(&self, tolerance: f64) -> bool {
        let t = 1.0 + tolerance;
        let ok1 = match self.theorem1 {
            Verdict::Conservative => self.normalized_throughput <= t,
            _ => true,
        };
        let ok2 = match self.theorem2 {
            Verdict::Conservative => self.normalized_throughput <= t,
            Verdict::NonConservative => self.normalized_throughput >= 1.0 - tolerance,
            Verdict::Inconclusive => true,
        };
        let ok_bound = match self.equation10_normalized_bound {
            Some(b) => self.normalized_throughput <= b + tolerance,
            None => true,
        };
        let ok_prop4 = if self.f1_convex && self.c1_covariance <= 0.0 {
            self.normalized_throughput <= self.prop4_overshoot_cap + tolerance
        } else {
            true
        };
        ok1 && ok2 && ok_bound && ok_prop4
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "p = {:.5}   x̄/f(p) = {:.4}   θ̂ ∈ [{:.2}, {:.2}]\n",
            self.p, self.normalized_throughput, self.theta_hat_range.0, self.theta_hat_range.1
        ));
        s.push_str(&format!(
            "(F1) convex: {}   (F2) concave: {}   (F2c) strictly convex: {}\n",
            self.f1_convex, self.f2_concave, self.f2c_strictly_convex
        ));
        s.push_str(&format!(
            "(C1) cov[θ,θ̂]p² = {:+.4}   (C2) cov[X,S] = {:+.4}   (V) var[θ̂] = {:.3}\n",
            self.c1_normalized, self.c2_covariance, self.estimator_variance
        ));
        s.push_str(&format!(
            "Theorem 1: {:?}   Theorem 2: {:?}   Eq.(10) bound: {:?}   Prop.4 cap: {:.4}\n",
            self.theorem1,
            self.theorem2,
            self.equation10_normalized_bound,
            self.prop4_overshoot_cap
        ));
        s
    }
}

/// Tolerance applied to the empirical covariance when deciding whether
/// (C1)/(C2) "hold" — an exact zero is unobservable in finite samples.
/// Expressed as a bound on the *normalized* covariance.
const NORMALIZED_COV_TOLERANCE: f64 = 0.03;

/// Evaluates every condition and theorem against a run's statistics.
///
/// # Panics
/// Panics when the run recorded no step.
pub fn analyze<F: ThroughputFormula + ?Sized>(f: &F, stats: &TraceStats) -> ConservativenessReport {
    let hat = stats.theta_hat_moments();
    assert!(hat.count() > 0, "empty trace");
    let p = stats.loss_event_rate();
    let lo = hat.min().max(1.0);
    let hi = (hat.max()).max(lo * (1.0 + 1e-9)) + 1e-6;
    let c1_cov = stats.cov_theta_theta_hat();
    let cov_tol = NORMALIZED_COV_TOLERANCE / (p * p).max(1e-12);
    let eq10 = equation10_bound(f, p, c1_cov).map(|b| b / f.rate(p));
    ConservativenessReport {
        p,
        normalized_throughput: stats.normalized_throughput(f),
        theta_hat_range: (lo, hi),
        f1_convex: condition_f1(f, lo, hi),
        f2_concave: condition_f2(f, lo, hi),
        f2c_strictly_convex: condition_f2c(f, lo, hi),
        c1_covariance: c1_cov,
        c1_normalized: c1_cov * p * p,
        c2_covariance: stats.cov_rate_duration(),
        estimator_variance: hat.variance(),
        theorem1: theorem1(f, stats, lo, hi, cov_tol),
        theorem2: theorem2(
            f,
            stats,
            lo,
            hi,
            stats.cov_rate_duration().abs() * 0.1 + 1e-12,
        ),
        equation10_normalized_bound: eq10,
        prop4_overshoot_cap: prop4_overshoot_bound(f, lo, hi, 4001),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::BasicControl;
    use crate::formula::{PftkSimplified, Sqrt};
    use crate::weights::WeightProfile;
    use ebrc_dist::{IidProcess, LossProcess, MarkovModulated, Rng, ShiftedExponential};

    fn basic_stats<F: ThroughputFormula>(
        f: F,
        l: usize,
        process: &mut impl LossProcess,
        seed: u64,
    ) -> TraceStats {
        let mut stats = TraceStats::new();
        let mut rng = Rng::seed_from(seed);
        BasicControl::new(f, WeightProfile::tfrc(l))
            .run_into(process, &mut rng, 30_000, &mut stats);
        stats
    }

    fn iid_trace(mean: f64, cv: f64, l: usize, seed: u64) -> TraceStats {
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(mean, cv));
        basic_stats(PftkSimplified::with_rtt(1.0), l, &mut process, seed)
    }

    #[test]
    fn iid_report_is_conservative_and_consistent() {
        let trace = iid_trace(50.0, 0.8, 8, 1);
        let f = PftkSimplified::with_rtt(1.0);
        let r = analyze(&f, &trace);
        assert_eq!(r.theorem1, Verdict::Conservative);
        assert!(r.normalized_throughput <= 1.0 + 0.02);
        assert!(r.f1_convex);
        assert!(r.c1_normalized.abs() < 0.05);
        assert!(r.consistent(0.05), "{}", r.render());
    }

    #[test]
    fn phase_process_report_flags_positive_covariance() {
        let f = Sqrt::with_rtt(1.0);
        let mut process = MarkovModulated::congestion_oscillation(80.0, 5.0, 40.0);
        let trace = basic_stats(f.clone(), 8, &mut process, 2);
        let r = analyze(&f, &trace);
        assert!(
            r.c1_covariance > 0.0,
            "phases should make θ̂ a good predictor: {}",
            r.c1_covariance
        );
        // Theorem 1's sufficient condition fails: verdict must not be a
        // (false) Conservative.
        assert_eq!(r.theorem1, Verdict::Inconclusive);
        assert!(r.consistent(0.1), "{}", r.render());
    }

    #[test]
    fn report_renders_every_section() {
        let trace = iid_trace(30.0, 0.5, 4, 3);
        let r = analyze(&PftkSimplified::with_rtt(1.0), &trace);
        let text = r.render();
        for needle in ["(F1)", "(C1)", "Theorem 1", "Prop.4"] {
            assert!(text.contains(needle), "missing {needle} in\n{text}");
        }
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        analyze(&Sqrt::with_rtt(1.0), &TraceStats::new());
    }
}
