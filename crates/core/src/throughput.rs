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
//! The module evaluates these expressions on recorded traces — the
//! results must agree with the trajectory averages, which the tests (and
//! property tests) assert. Evaluated on a comprehensive trace, the
//! Proposition 1 expression is Proposition 2's lower bound.

use crate::control::{clamped_g, ControlTrace};
use crate::formula::ThroughputFormula;

/// Proposition 1: the basic-control throughput evaluated from the
/// event-indexed pairs `(θ_n, θ̂_n)` of a trace.
///
/// # Panics
/// Panics on an empty trace.
pub fn proposition1_throughput<F: ThroughputFormula + ?Sized>(trace: &ControlTrace, f: &F) -> f64 {
    assert!(!trace.is_empty(), "empty trace");
    let n = trace.len() as f64;
    let mean_theta: f64 = trace.steps().iter().map(|s| s.theta).sum::<f64>() / n;
    let mean_weighted: f64 = trace
        .steps()
        .iter()
        .map(|s| s.theta * clamped_g(f, s.theta_hat))
        .sum::<f64>()
        / n;
    mean_theta / mean_weighted
}

/// Proposition 3: the comprehensive-control throughput with the `V_n`
/// correction, evaluated from a trace recorded by
/// [`crate::control::ComprehensiveControl`].
///
/// # Panics
/// Panics on an empty trace.
pub fn proposition3_throughput<F: ThroughputFormula + ?Sized>(trace: &ControlTrace, f: &F) -> f64 {
    assert!(!trace.is_empty(), "empty trace");
    let n = trace.len() as f64;
    let mean_theta: f64 = trace.steps().iter().map(|s| s.theta).sum::<f64>() / n;
    let mean_weighted: f64 = trace
        .steps()
        .iter()
        .map(|s| s.theta * clamped_g(f, s.theta_hat))
        .sum::<f64>()
        / n;
    let mean_v: f64 = trace.steps().iter().map(|s| s.v_correction).sum::<f64>() / n;
    mean_theta / (mean_weighted - mean_v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{BasicControl, ComprehensiveControl, ControlConfig};
    use crate::formula::{PftkSimplified, Sqrt};
    use crate::weights::WeightProfile;
    use ebrc_dist::{IidProcess, Rng, ShiftedExponential};

    fn assert_rel(a: f64, b: f64, rel: f64) {
        assert!((a - b).abs() / b.abs().max(1e-12) < rel, "{a} vs {b}");
    }

    fn sample_basic(seed: u64, events: usize) -> (ControlTrace, PftkSimplified) {
        let f = PftkSimplified::with_rtt(1.0);
        let cfg = ControlConfig::new(WeightProfile::tfrc(8));
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(80.0, 0.9));
        let mut rng = Rng::seed_from(seed);
        let trace = BasicControl::new(f.clone(), cfg).run(&mut process, &mut rng, events);
        (trace, f)
    }

    #[test]
    fn proposition1_matches_trajectory_average() {
        // The Palm expression and the time-average Σθ/ΣS are the same
        // numbers arranged differently — they must agree exactly.
        let (trace, f) = sample_basic(1, 5_000);
        assert_rel(
            proposition1_throughput(&trace, &f),
            trace.throughput(),
            1e-12,
        );
    }

    #[test]
    fn proposition3_matches_comprehensive_trajectory() {
        let f = PftkSimplified::with_rtt(1.0);
        let cfg = ControlConfig::new(WeightProfile::tfrc(8));
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(80.0, 0.9));
        let mut rng = Rng::seed_from(2);
        let trace = ComprehensiveControl::new(f.clone(), cfg).run(&mut process, &mut rng, 5_000);
        assert_rel(
            proposition3_throughput(&trace, &f),
            trace.throughput(),
            1e-9,
        );
    }

    #[test]
    fn proposition2_bound_holds_on_comprehensive_trace() {
        let f = Sqrt::with_rtt(1.0);
        let cfg = ControlConfig::new(WeightProfile::tfrc(8));
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(60.0, 0.95));
        let mut rng = Rng::seed_from(3);
        let trace = ComprehensiveControl::new(f.clone(), cfg).run(&mut process, &mut rng, 5_000);
        let bound = proposition1_throughput(&trace, &f);
        assert!(
            trace.throughput() >= bound - 1e-9,
            "throughput {} below bound {bound}",
            trace.throughput()
        );
    }
}
