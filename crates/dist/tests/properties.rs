//! Property tests: the stochastic substrate keeps its statistical
//! promises for *any* parameters — requested moments, reproducibility,
//! and stationary behavior.

use ebrc_dist::{
    Distribution, IidProcess, LossProcess, MarkovModulated, Replay, Rng, ShiftedExponential,
    TraceProcess,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `ShiftedExponential::from_mean_cv(m, cv)` samples have the
    /// requested mean and coefficient of variation within Monte-Carlo
    /// tolerance, across the whole design space of Figures 3–4.
    #[test]
    fn shifted_exponential_moments_match_request(
        mean in 0.5_f64..500.0,
        cv in 0.05_f64..1.0,
        seed in 0_u64..1000,
    ) {
        let d = ShiftedExponential::from_mean_cv(mean, cv);
        prop_assert!((d.mean() - mean).abs() / mean < 1e-12);
        prop_assert!((d.cv() - cv).abs() < 1e-12);
        let mut rng = Rng::seed_from(seed);
        let n = 60_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            prop_assert!(x >= mean * (1.0 - cv));
            sum += x;
            sum_sq += x * x;
        }
        let m = sum / n as f64;
        let var = (sum_sq / n as f64 - m * m).max(0.0);
        let cv_hat = var.sqrt() / m;
        prop_assert!((m - mean).abs() / mean < 0.05, "mean {m} vs {mean}");
        prop_assert!((cv_hat - cv).abs() < 0.05, "cv {cv_hat} vs {cv}");
    }

    /// `Rng::seed_from(s)` streams are reproducible: the same seed
    /// replays bit-for-bit across every draw type, and forked
    /// sub-streams replay too.
    #[test]
    fn seeded_streams_reproducible(seed in any::<u64>(), label in 0_u8..26) {
        let label = ((b'a' + label) as char).to_string();
        let mut a = Rng::seed_from(seed);
        let mut b = Rng::seed_from(seed);
        for _ in 0..100 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
            prop_assert_eq!(a.range(-1.0, 1.0).to_bits(), b.range(-1.0, 1.0).to_bits());
            prop_assert_eq!(a.chance(0.5), b.chance(0.5));
            prop_assert_eq!(a.below(17), b.below(17));
        }
        let mut fa = a.fork(&label);
        let mut fb = b.fork(&label);
        for _ in 0..50 {
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    /// Distinct seeds produce distinct streams (no seed aliasing in
    /// the SplitMix expansion).
    #[test]
    fn distinct_seeds_distinct_streams(seed in 0_u64..1_000_000) {
        let mut a = Rng::seed_from(seed);
        let mut b = Rng::seed_from(seed + 1);
        let collisions = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(collisions == 0, "{collisions} collisions");
    }

    /// `MarkovModulated` respects its stationary mix: the long-run
    /// event-average interval converges to the sojourn-weighted
    /// `stationary_mean`, for any phase means and sojourn lengths.
    #[test]
    fn markov_modulated_respects_stationary_mix(
        calm in 20.0_f64..200.0,
        congested in 1.0_f64..10.0,
        sojourn_a in 1.0_f64..60.0,
        sojourn_b in 1.0_f64..60.0,
        seed in 0_u64..1000,
    ) {
        let mut p = MarkovModulated::two_phase(calm, sojourn_a, congested, sojourn_b);
        let expected = p.stationary_mean();
        let mix = p.stationary_mix();
        prop_assert!((mix - sojourn_a / (sojourn_a + sojourn_b)).abs() < 1e-12);
        let mut rng = Rng::seed_from(seed);
        // Burn in past the initial phase, then average.
        for _ in 0..2_000 {
            p.next_interval(&mut rng);
        }
        let n = 150_000;
        let mean = (0..n).map(|_| p.next_interval(&mut rng)).sum::<f64>() / n as f64;
        // Tolerance scales with phase persistence (fewer independent
        // phase cycles in a fixed budget of events).
        let cycles = n as f64 / (sojourn_a + sojourn_b);
        let tol = 0.02 + 3.0 * (calm - congested).abs() / expected / cycles.sqrt();
        prop_assert!(
            (mean - expected).abs() / expected < tol,
            "event mean {mean} vs stationary {expected} (tol {tol})"
        );
    }

    /// I.i.d. sampling through the `LossProcess` interface preserves
    /// the distribution mean.
    #[test]
    fn iid_process_mean(mean in 1.0_f64..300.0, cv in 0.1_f64..1.0, seed in 0_u64..1000) {
        let mut p = IidProcess::new(ShiftedExponential::from_mean_cv(mean, cv));
        let mut rng = Rng::seed_from(seed);
        let n = 60_000;
        let m = (0..n).map(|_| p.next_interval(&mut rng)).sum::<f64>() / n as f64;
        prop_assert!((m - mean).abs() / mean < 0.05, "mean {m} vs {mean}");
    }

    /// Trace replay: `Loop` reproduces the trace verbatim and
    /// `Bootstrap` keeps its mean.
    #[test]
    fn trace_process_modes(
        trace in proptest::collection::vec(0.5_f64..100.0, 2..50),
        seed in 0_u64..1000,
    ) {
        let mut looped = TraceProcess::new(trace.clone(), Replay::Loop);
        let mut rng = Rng::seed_from(seed);
        for want in trace.iter().chain(trace.iter()) {
            prop_assert_eq!(looped.next_interval(&mut rng), *want);
        }
        let trace_mean = trace.iter().sum::<f64>() / trace.len() as f64;
        let mut boot = TraceProcess::new(trace.clone(), Replay::Bootstrap);
        let n = 50_000;
        let m = (0..n).map(|_| boot.next_interval(&mut rng)).sum::<f64>() / n as f64;
        let spread = trace.iter().map(|x| (x - trace_mean).powi(2)).sum::<f64>()
            / trace.len() as f64;
        let tol = 3.0 * (spread / n as f64).sqrt() + 1e-9;
        prop_assert!((m - trace_mean).abs() < tol.max(trace_mean * 0.05),
            "bootstrap mean {m} vs {trace_mean}");
    }
}
