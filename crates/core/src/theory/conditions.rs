//! The individual hypotheses of Theorems 1 and 2.
//!
//! Function-shape conditions (checked numerically on a grid over the
//! region where the estimator takes its values):
//!
//! * **(F1)** `x → 1/f(1/x)` is convex;
//! * **(F2)** `x → f(1/x)` is concave;
//! * **(F2c)** `x → f(1/x)` is strictly convex.
//!
//! Statistical conditions, read off a run's
//! [`TraceStats`](crate::control::TraceStats):
//!
//! * **(C1)** `cov[θ0, θ̂0] ≤ 0` (`cov_theta_theta_hat`);
//! * **(C2)** `cov[X0, S0] ≤ 0`, and **(C2c)** the reverse
//!   (`cov_rate_duration`);
//! * **(V)** the estimator `θ̂_n` has non-zero variance
//!   (`theta_hat_moments().variance()`).
//!
//! **(C3)**, `E[S0 | X0 = x]` non-increasing in `x` (it implies (C2) by
//! Harris' inequality), bins the logged steps into equal-count bins, so
//! [`condition_c3`] reads a slice of them.

use crate::control::StepRecord;
use crate::formula::ThroughputFormula;
use ebrc_convex::{is_concave_on, is_convex_on};

/// Default relative tolerance for the numeric curvature tests.
pub const CURVATURE_TOL: f64 = 1e-7;

/// Grid size for sampling the formula functionals.
const GRID: usize = 4001;

/// (F1): `g(x) = 1/f(1/x)` convex on `[lo, hi]` (intervals in packets).
pub fn condition_f1<F: ThroughputFormula + ?Sized>(f: &F, lo: f64, hi: f64) -> bool {
    let g = f.sample_g(lo, hi, GRID);
    is_convex_on(&g, lo, hi, CURVATURE_TOL)
}

/// (F2): `h(x) = f(1/x)` concave on `[lo, hi]`.
pub fn condition_f2<F: ThroughputFormula + ?Sized>(f: &F, lo: f64, hi: f64) -> bool {
    let h = f.sample_h(lo, hi, GRID);
    is_concave_on(&h, lo, hi, CURVATURE_TOL)
}

/// (F2c): `h(x) = f(1/x)` strictly convex on `[lo, hi]`.
///
/// Numerically: convex on the interval, with a clearly positive minimum
/// second difference (strictness).
pub fn condition_f2c<F: ThroughputFormula + ?Sized>(f: &F, lo: f64, hi: f64) -> bool {
    let h = f.sample_h(lo, hi, GRID);
    if !is_convex_on(&h, lo, hi, CURVATURE_TOL) {
        return false;
    }
    // Strictness: every interior second difference is positive.
    let step = h.step();
    for i in 1..h.len() - 1 {
        let d2 = (h.y(i + 1) - 2.0 * h.y(i) + h.y(i - 1)) / (step * step);
        if d2 <= 0.0 {
            return false;
        }
    }
    true
}

/// (C3): tests whether the binned conditional mean `E[S0 | X0 ∈ bin]` is
/// non-increasing across `bins` equal-count bins of `X0`.
///
/// Returns `None` when there are too few steps to form the bins.
pub fn condition_c3(steps: &[StepRecord], bins: usize) -> Option<bool> {
    if bins < 2 || steps.len() < bins * 4 {
        return None;
    }
    let mut pairs: Vec<(f64, f64)> = steps.iter().map(|s| (s.x_rate, s.duration)).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("rates must not be NaN"));
    let per = pairs.len() / bins;
    let mut means = Vec::with_capacity(bins);
    for b in 0..bins {
        let start = b * per;
        let end = if b + 1 == bins {
            pairs.len()
        } else {
            start + per
        };
        let chunk = &pairs[start..end];
        means.push(chunk.iter().map(|p| p.1).sum::<f64>() / chunk.len() as f64);
    }
    Some(means.windows(2).all(|w| w[1] <= w[0] * (1.0 + 1e-9)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{BasicControl, TraceStats};
    use crate::formula::{PftkSimplified, PftkStandard, Sqrt};
    use crate::weights::WeightProfile;
    use ebrc_dist::{Deterministic, IidProcess, LossProcess, Rng, ShiftedExponential};

    /// The statistics of `events` basic-control steps on `process`.
    fn basic_stats<F: ThroughputFormula>(
        f: F,
        l: usize,
        process: &mut impl LossProcess,
        seed: u64,
        events: usize,
    ) -> TraceStats {
        let mut stats = TraceStats::new();
        BasicControl::new(f, WeightProfile::tfrc(l)).run_into(
            process,
            &mut Rng::seed_from(seed),
            events,
            &mut stats,
        );
        stats
    }

    #[test]
    fn f1_holds_for_sqrt_and_pftk_simplified() {
        // Figure 1 (right): (F1) strictly true for SQRT and
        // PFTK-simplified on any loss range.
        let sqrt = Sqrt::with_rtt(1.0);
        let simp = PftkSimplified::with_rtt(1.0);
        for f in [&sqrt as &dyn ThroughputFormula, &simp] {
            assert!(condition_f1(f, 0.5, 50.0));
            assert!(condition_f1(f, 2.0, 10.0));
        }
    }

    #[test]
    fn f1_fails_for_pftk_standard_near_min_kink() {
        // PFTK-standard is *almost* convex: the `min(1, c2√p)` term
        // creates a concave kink at x = c2² (= 6.75 for b = 2; Figure 2
        // shows the b = 1 instance where c2² = 3.375). Around the kink
        // (F1) fails; on a light-loss interval away from it, it holds.
        let std = PftkStandard::with_rtt(1.0);
        let kink = std.c2 * std.c2;
        assert!((kink - 6.75).abs() < 1e-9);
        assert!(!condition_f1(&std, kink - 0.7, kink + 0.8));
        assert!(condition_f1(&std, 10.0, 100.0));
    }

    #[test]
    fn f2_concavity_regions_match_figure1() {
        // SQRT: h concave everywhere. PFTK: concave for rare losses
        // (large x), convex for heavy losses (small x).
        let sqrt = Sqrt::with_rtt(1.0);
        assert!(condition_f2(&sqrt, 0.5, 50.0));
        let simp = PftkSimplified::with_rtt(1.0);
        assert!(condition_f2(&simp, 30.0, 200.0), "rare losses: concave");
        assert!(!condition_f2(&simp, 1.0, 4.0), "heavy losses: not concave");
        assert!(
            condition_f2c(&simp, 1.0, 4.0),
            "heavy losses: strictly convex"
        );
        assert!(!condition_f2c(&simp, 30.0, 200.0));
    }

    #[test]
    fn sqrt_h_is_not_strictly_convex() {
        let sqrt = Sqrt::with_rtt(1.0);
        assert!(!condition_f2c(&sqrt, 0.5, 50.0));
    }

    #[test]
    fn c1_near_zero_for_iid_intervals() {
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(100.0, 0.9));
        let stats = basic_stats(PftkSimplified::with_rtt(1.0), 8, &mut process, 1, 50_000);
        let p = stats.loss_event_rate();
        assert!((stats.cov_theta_theta_hat() * p * p).abs() < 0.02);
    }

    #[test]
    fn c2_positive_for_basic_control_on_iid_process() {
        // For the basic control driven by an independent loss process,
        // S = θ/X with θ independent of X: cov[X, S] can go either way
        // depending on the X spread; just check the estimator runs and
        // the statistic is finite. The decisive uses of (C2) come from
        // protocol scenarios (see crates/tfrc).
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(100.0, 0.9));
        let stats = basic_stats(Sqrt::with_rtt(1.0), 8, &mut process, 2, 10_000);
        assert!(stats.cov_rate_duration().is_finite());
    }

    #[test]
    fn c3_detects_decreasing_conditional_mean() {
        // Construct a synthetic trace where S = 100/X exactly.
        let steps: Vec<StepRecord> = (1..=200)
            .map(|i| {
                let x = i as f64;
                StepRecord {
                    theta: 100.0,
                    theta_hat: 100.0,
                    theta_hat_next: 100.0,
                    x_rate: x,
                    duration: 100.0 / x,
                    v_correction: 0.0,
                }
            })
            .collect();
        assert_eq!(condition_c3(&steps, 5), Some(true));
        // And one where S grows with X.
        let steps: Vec<StepRecord> = (1..=200)
            .map(|i| {
                let x = i as f64;
                StepRecord {
                    theta: 100.0,
                    theta_hat: 100.0,
                    theta_hat_next: 100.0,
                    x_rate: x,
                    duration: x,
                    v_correction: 0.0,
                }
            })
            .collect();
        assert_eq!(condition_c3(&steps, 5), Some(false));
    }

    #[test]
    fn c3_needs_enough_data() {
        assert_eq!(condition_c3(&[], 4), None);
    }

    #[test]
    fn v_zero_for_deterministic_process() {
        let mut process = IidProcess::new(Deterministic::new(100.0));
        let stats = basic_stats(Sqrt::with_rtt(1.0), 4, &mut process, 3, 500);
        assert_eq!(stats.theta_hat_moments().variance(), 0.0);
    }
}
