//! Cross-crate property-based tests (proptest): the invariants that
//! must hold for *any* parameters, not just the paper's.

use ebrc::core::control::{BasicControl, ComprehensiveControl};
use ebrc::core::formula::{PftkSimplified, Sqrt};
use ebrc::core::throughput::{proposition1_throughput, proposition3_throughput};
use ebrc::core::weights::WeightProfile;
use ebrc::dist::{Distribution, IidProcess, Rng, ShiftedExponential};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Proposition 1 is an identity: the Palm expression evaluated on a
    /// trace equals its trajectory time-average, for any workload.
    #[test]
    fn prop1_identity(
        mean in 5.0_f64..500.0,
        cv in 0.05_f64..1.0,
        l in 1_usize..12,
        seed in 0_u64..1000,
    ) {
        let f = PftkSimplified::with_rtt(1.0);
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(mean, cv));
        let mut rng = Rng::seed_from(seed);
        let trace = BasicControl::new(f.clone(), WeightProfile::tfrc(l))
            .run(&mut process, &mut rng, 2_000);
        let lhs = proposition1_throughput(&trace, &f);
        let rhs = trace.throughput();
        prop_assert!((lhs - rhs).abs() / rhs < 1e-9, "{lhs} vs {rhs}");
    }

    /// Proposition 3 likewise for the comprehensive control.
    #[test]
    fn prop3_identity(
        mean in 5.0_f64..500.0,
        cv in 0.05_f64..1.0,
        l in 1_usize..12,
        seed in 0_u64..1000,
    ) {
        let f = PftkSimplified::with_rtt(1.0);
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(mean, cv));
        let mut rng = Rng::seed_from(seed);
        let trace =
            ComprehensiveControl::new(f.clone(), WeightProfile::tfrc(l))
                .run(&mut process, &mut rng, 2_000);
        let lhs = proposition3_throughput(&trace, &f);
        let rhs = trace.throughput();
        prop_assert!((lhs - rhs).abs() / rhs < 1e-6, "{lhs} vs {rhs}");
    }

    /// Proposition 2: comprehensive ≥ basic on the same loss sequence,
    /// for any formula in the family and any parameters.
    #[test]
    fn prop2_ordering(
        mean in 5.0_f64..200.0,
        cv in 0.1_f64..1.0,
        l in 1_usize..10,
        seed in 0_u64..1000,
        use_sqrt in any::<bool>(),
    ) {
        let weights = WeightProfile::tfrc(l);
        let mk = || IidProcess::new(ShiftedExponential::from_mean_cv(mean, cv));
        let (b, c) = if use_sqrt {
            let f = Sqrt::with_rtt(1.0);
            (
                BasicControl::new(f.clone(), weights.clone())
                    .run(&mut mk(), &mut Rng::seed_from(seed), 3_000)
                    .throughput(),
                ComprehensiveControl::new(f, weights)
                    .run(&mut mk(), &mut Rng::seed_from(seed), 3_000)
                    .throughput(),
            )
        } else {
            let f = PftkSimplified::with_rtt(1.0);
            (
                BasicControl::new(f.clone(), weights.clone())
                    .run(&mut mk(), &mut Rng::seed_from(seed), 3_000)
                    .throughput(),
                ComprehensiveControl::new(f, weights)
                    .run(&mut mk(), &mut Rng::seed_from(seed), 3_000)
                    .throughput(),
            )
        };
        prop_assert!(c >= b - 1e-9, "comprehensive {c} < basic {b}");
    }

    /// Theorem 1 / Corollary 1: i.i.d. intervals + convex g ⇒
    /// conservative, for any (p, cv, L) — allowing a small Monte-Carlo
    /// tolerance.
    #[test]
    fn corollary1_conservative(
        p_inv in 3.0_f64..300.0,
        cv in 0.1_f64..1.0,
        l in 1_usize..16,
        seed in 0_u64..1000,
    ) {
        let f = PftkSimplified::with_rtt(1.0);
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(p_inv, cv));
        let mut rng = Rng::seed_from(seed);
        let trace = BasicControl::new(f.clone(), WeightProfile::tfrc(l))
            .run(&mut process, &mut rng, 8_000);
        let norm = trace.normalized_throughput(&f);
        prop_assert!(norm <= 1.0 + 0.08, "non-conservative: {norm}");
    }

    /// Jensen's footnote in Section II: `E[1/θ̂] ≥ p`, i.e. `1/θ̂` is a
    /// biased (upward) estimator of the loss-event rate.
    #[test]
    fn jensen_bias_direction(
        p_inv in 3.0_f64..300.0,
        cv in 0.2_f64..1.0,
        l in 1_usize..12,
        seed in 0_u64..1000,
    ) {
        let d = ShiftedExponential::from_mean_cv(p_inv, cv);
        let mut rng = Rng::seed_from(seed);
        let mut est = ebrc::core::estimator::IntervalEstimator::new(WeightProfile::tfrc(l));
        for _ in 0..l {
            est.push(d.sample(&mut rng).max(1e-9));
        }
        let mut sum_inv = 0.0;
        let n = 20_000;
        for _ in 0..n {
            sum_inv += 1.0 / est.estimate();
            est.push(d.sample(&mut rng).max(1e-9));
        }
        let mean_inv = sum_inv / n as f64;
        let p = 1.0 / p_inv;
        prop_assert!(mean_inv >= p * (1.0 - 0.05), "E[1/θ̂] {mean_inv} < p {p}");
    }

    /// The estimator is unbiased for the mean interval (assumption (E)).
    #[test]
    fn estimator_unbiased(
        p_inv in 3.0_f64..300.0,
        cv in 0.1_f64..1.0,
        l in 1_usize..16,
        seed in 0_u64..1000,
    ) {
        let d = ShiftedExponential::from_mean_cv(p_inv, cv);
        let mut rng = Rng::seed_from(seed);
        let mut est = ebrc::core::estimator::IntervalEstimator::new(WeightProfile::tfrc(l));
        for _ in 0..l {
            est.push(d.sample(&mut rng).max(1e-9));
        }
        let mut sum = 0.0;
        let n = 30_000;
        for _ in 0..n {
            sum += est.estimate();
            est.push(d.sample(&mut rng).max(1e-9));
        }
        let mean = sum / n as f64;
        prop_assert!((mean - p_inv).abs() / p_inv < 0.05, "E[θ̂] {mean} vs {p_inv}");
    }
}
