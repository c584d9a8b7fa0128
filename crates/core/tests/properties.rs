//! Property tests of the core theory on arbitrary parameters.

use ebrc_core::control::BasicControl;
use ebrc_core::formula::{PftkSimplified, PftkStandard, Sqrt, ThroughputFormula};
use ebrc_core::theory::{equation10_bound, prop4_overshoot_bound};
use ebrc_core::weights::WeightProfile;
use ebrc_dist::{IidProcess, Rng, ShiftedExponential};
use ebrc_stats::Autocovariance;
use proptest::prelude::*;

proptest! {
    /// All three formulae are positive and non-increasing on (0, 1] for
    /// any RTT.
    #[test]
    fn formulas_monotone(rtt in 0.001_f64..2.0, p1 in 1e-5_f64..1.0, p2 in 1e-5_f64..1.0) {
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        for f in [
            Box::new(Sqrt::with_rtt(rtt)) as Box<dyn ThroughputFormula>,
            Box::new(PftkStandard::with_rtt(rtt)),
            Box::new(PftkSimplified::with_rtt(rtt)),
        ] {
            prop_assert!(f.rate(hi) > 0.0);
            prop_assert!(f.rate(lo) >= f.rate(hi) - 1e-12);
        }
    }

    /// `g` and `h` are exact reciprocals and the closed-form
    /// antiderivative differentiates back to `g`.
    #[test]
    fn antiderivative_matches_g(x in 1.0_f64..500.0, rtt in 0.01_f64..1.0) {
        let f = PftkSimplified::with_rtt(rtt);
        prop_assert!((f.g(x) * f.h(x) - 1.0).abs() < 1e-9);
        let e = x * 1e-6;
        let d = (f.g_antiderivative(x + e).unwrap() - f.g_antiderivative(x - e).unwrap())
            / (2.0 * e);
        prop_assert!((d - f.g(x)).abs() / f.g(x) < 1e-4, "{d} vs {}", f.g(x));
    }

    /// TFRC weights: normalized, positive, non-increasing, for every L.
    #[test]
    fn weights_well_formed(l in 1_usize..64) {
        let w = WeightProfile::tfrc(l);
        prop_assert_eq!(w.len(), l);
        prop_assert!((w.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        prop_assert!(w.as_slice().iter().all(|v| *v > 0.0));
        prop_assert!(w.as_slice().windows(2).all(|p| p[0] >= p[1] - 1e-15));
        prop_assert!(w.effective_window() <= l as f64 + 1e-9);
        prop_assert!(w.effective_window() >= 1.0 - 1e-9);
    }

    /// Equation (11): cov[θ0, θ̂0] equals the weighted sum of interval
    /// autocovariances, on real control traces.
    #[test]
    fn equation11_on_traces(
        mean in 10.0_f64..200.0,
        cv in 0.2_f64..1.0,
        seed in 0_u64..500,
    ) {
        let l = 4;
        let f = Sqrt::with_rtt(1.0);
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(mean, cv));
        let mut rng = Rng::seed_from(seed);
        let trace = BasicControl::new(f, WeightProfile::tfrc(l))
            .run(&mut process, &mut rng, 4_000);
        let mut ac = Autocovariance::new(l);
        for s in trace.steps() {
            ac.push(s.theta);
        }
        let via_lags = ac.estimator_covariance(WeightProfile::tfrc(l).as_slice());
        let direct = trace.cov_theta_theta_hat();
        // Finite-sample edge effects keep this approximate.
        let scale = (mean * mean * cv * cv).max(1.0);
        prop_assert!((via_lags - direct).abs() / scale < 0.15,
            "eq(11) {via_lags} vs direct {direct}");
    }

    /// Proposition 4 end-to-end: the measured overshoot never exceeds
    /// the deviation-ratio bound (within MC noise) for PFTK-standard
    /// under (C1)-satisfying i.i.d. losses.
    #[test]
    fn prop4_bound_respected(
        mean in 5.0_f64..100.0,
        cv in 0.1_f64..0.9,
        seed in 0_u64..300,
    ) {
        let f = PftkStandard::with_rtt(1.0);
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(mean, cv));
        let mut rng = Rng::seed_from(seed);
        let trace = BasicControl::new(f.clone(), WeightProfile::tfrc(8))
            .run(&mut process, &mut rng, 6_000);
        let hat = trace.theta_hat_moments();
        let bound = prop4_overshoot_bound(&f, hat.min().max(1.0), hat.max() + 1.0, 4_001);
        prop_assert!(
            trace.normalized_throughput(&f) <= bound + 0.06,
            "normalized {} vs bound {bound}",
            trace.normalized_throughput(&f)
        );
    }

    /// Equation (10): the bound equals f(p) at zero covariance,
    /// tightens below f(p) for negative covariance (the Theorem 1
    /// mechanism: a bad predictor ⇒ conservative), and loosens above
    /// f(p) for small positive covariance.
    #[test]
    fn equation10_consistency(p in 0.001_f64..0.3, rtt in 0.01_f64..1.0) {
        let f = PftkSimplified::with_rtt(rtt);
        let at_zero = equation10_bound(&f, p, 0.0).unwrap();
        prop_assert!((at_zero - f.rate(p)).abs() / f.rate(p) < 1e-9);
        let neg = equation10_bound(&f, p, -0.5 / (p * p)).unwrap();
        prop_assert!(neg <= f.rate(p), "negative covariance must tighten");
        if let Some(pos) = equation10_bound(&f, p, 0.2 / (p * p)) {
            prop_assert!(pos >= f.rate(p), "positive covariance must loosen");
        }
    }
}
