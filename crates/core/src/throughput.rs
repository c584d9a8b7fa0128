//! Palm throughput expressions (Propositions 1 and 3).
//!
//! Proposition 1 gives the basic control's throughput exactly:
//!
//! ```text
//! E[X(0)] = E[θ0] / E[θ0 / f(1/θ̂0)] = E[θ0] / E[θ0·g(θ̂0)]
//! ```
//!
//! Proposition 3 corrects the denominator for the comprehensive
//! control's in-interval increase: `E[θ0·g(θ̂0)] − E[V0·1{θ̂1 > θ̂0}]`.
//!
//! The module evaluates these expressions on logged steps — the results
//! must agree with the trajectory averages, which the tests (and
//! property tests) assert. They read the steps, not a run's
//! [`TraceStats`](crate::control::TraceStats), because `g` is the one
//! passed at evaluation time. Evaluated on comprehensive-control steps,
//! the Proposition 1 expression is Proposition 2's lower bound.

use crate::control::{clamped_g, StepRecord};
use crate::formula::ThroughputFormula;

/// `(E[θ0], E[θ0·g(θ̂0)], E[V0])` over the steps, `g` clamped as the
/// controls clamp it.
fn palm_means<F: ThroughputFormula + ?Sized>(steps: &[StepRecord], f: &F) -> (f64, f64, f64) {
    assert!(!steps.is_empty(), "empty trace");
    let n = steps.len() as f64;
    let mean = |term: &dyn Fn(&StepRecord) -> f64| steps.iter().map(term).sum::<f64>() / n;
    (
        mean(&|s| s.theta),
        mean(&|s| s.theta * clamped_g(f, s.theta_hat)),
        mean(&|s| s.v_correction),
    )
}

/// Proposition 1: the basic-control throughput evaluated from the
/// event-indexed pairs `(θ_n, θ̂_n)` of logged steps.
///
/// # Panics
/// Panics on an empty slice.
pub fn proposition1_throughput<F: ThroughputFormula + ?Sized>(steps: &[StepRecord], f: &F) -> f64 {
    let (theta, weighted, _) = palm_means(steps, f);
    theta / weighted
}

/// Proposition 3: the comprehensive-control throughput with the `V_n`
/// correction, evaluated from steps logged by
/// [`crate::control::ComprehensiveControl`].
///
/// # Panics
/// Panics on an empty slice.
pub fn proposition3_throughput<F: ThroughputFormula + ?Sized>(steps: &[StepRecord], f: &F) -> f64 {
    let (theta, weighted, v) = palm_means(steps, f);
    theta / (weighted - v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{BasicControl, ComprehensiveControl, TraceStats};
    use crate::formula::{PftkSimplified, Sqrt};
    use crate::weights::WeightProfile;
    use ebrc_dist::{IidProcess, Rng, ShiftedExponential};

    fn assert_rel(a: f64, b: f64, rel: f64) {
        assert!((a - b).abs() / b.abs().max(1e-12) < rel, "{a} vs {b}");
    }

    fn sample_basic(seed: u64, events: usize) -> (Vec<StepRecord>, PftkSimplified) {
        let f = PftkSimplified::with_rtt(1.0);
        let weights = WeightProfile::tfrc(8);
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(80.0, 0.9));
        let mut rng = Rng::seed_from(seed);
        let mut steps = Vec::new();
        BasicControl::new(f.clone(), weights).run_into(&mut process, &mut rng, events, &mut steps);
        (steps, f)
    }

    /// `events` comprehensive-control steps under `f`.
    fn sample_comprehensive<F: ThroughputFormula>(
        f: F,
        mean: f64,
        cv: f64,
        seed: u64,
    ) -> Vec<StepRecord> {
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(mean, cv));
        let mut rng = Rng::seed_from(seed);
        let mut steps = Vec::new();
        ComprehensiveControl::new(f, WeightProfile::tfrc(8)).run_into(
            &mut process,
            &mut rng,
            5_000,
            &mut steps,
        );
        steps
    }

    #[test]
    fn proposition1_matches_trajectory_average() {
        // The Palm expression and the time-average Σθ/ΣS are the same
        // numbers arranged differently — they must agree exactly.
        let (steps, f) = sample_basic(1, 5_000);
        assert_rel(
            proposition1_throughput(&steps, &f),
            TraceStats::from_steps(&steps).throughput(),
            1e-12,
        );
    }

    #[test]
    fn proposition3_matches_comprehensive_trajectory() {
        let f = PftkSimplified::with_rtt(1.0);
        let steps = sample_comprehensive(f.clone(), 80.0, 0.9, 2);
        assert_rel(
            proposition3_throughput(&steps, &f),
            TraceStats::from_steps(&steps).throughput(),
            1e-9,
        );
    }

    #[test]
    fn proposition2_bound_holds_on_comprehensive_trace() {
        let f = Sqrt::with_rtt(1.0);
        let steps = sample_comprehensive(f.clone(), 60.0, 0.95, 3);
        let bound = proposition1_throughput(&steps, &f);
        let throughput = TraceStats::from_steps(&steps).throughput();
        assert!(
            throughput >= bound - 1e-9,
            "throughput {throughput} below bound {bound}"
        );
    }
}
