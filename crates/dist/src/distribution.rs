//! Interval distributions: the building blocks of the synthetic loss
//! models.
//!
//! The paper's designed experiments (Figures 3–4) drive the controls
//! with i.i.d. loss-event intervals whose mean fixes the loss-event
//! rate `p = 1/E[θ]` and whose coefficient of variation is swept to
//! probe the Jensen penalty. The [`ShiftedExponential`] family spans
//! exactly that design space: `cv → 0` degenerates to a constant,
//! `cv = 1` is a pure exponential.

use crate::rng::Rng;

/// A sampleable positive distribution with known first two moments.
pub trait Distribution {
    /// Draws one value.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The distribution mean.
    fn mean(&self) -> f64;

    /// The coefficient of variation `σ/μ`.
    fn cv(&self) -> f64;
}

/// A point mass: every draw is the same value.
///
/// The `cv = 0` corner of the design space; under constant intervals
/// the estimator is exact and both controls sit at the fixed point
/// `x̄ = f(p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// A point mass at `value`.
    ///
    /// # Panics
    /// Panics if `value` is not positive and finite.
    pub fn new(value: f64) -> Self {
        assert!(
            value > 0.0 && value.is_finite(),
            "point mass must be positive and finite, got {value}"
        );
        Self { value }
    }
}

impl Distribution for Deterministic {
    fn sample(&self, _rng: &mut Rng) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn cv(&self) -> f64 {
        0.0
    }
}

/// Shifted exponential: `a + Exp(λ)`, parameterized by mean and
/// coefficient of variation.
///
/// For a target mean `m` and `cv ∈ (0, 1]` the shift is `a = m(1 − cv)`
/// and the exponential scale `1/λ = m·cv`, giving exactly
/// `E[X] = m` and `σ/μ = cv`. This is the interval law of the paper's
/// numerical experiments (Section V-A).
///
/// ```
/// use ebrc_dist::{Distribution, Rng, ShiftedExponential};
/// let d = ShiftedExponential::from_mean_cv(50.0, 0.9);
/// assert!((d.mean() - 50.0).abs() < 1e-12);
/// assert!((d.cv() - 0.9).abs() < 1e-12);
/// let mut rng = Rng::seed_from(1);
/// assert!(d.sample(&mut rng) >= 5.0); // never below the shift m(1 − cv)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftedExponential {
    shift: f64,
    scale: f64,
}

impl ShiftedExponential {
    /// Builds the distribution with the given mean and coefficient of
    /// variation.
    ///
    /// # Panics
    /// Panics unless `mean > 0` and `0 < cv ≤ 1` (a shifted
    /// exponential cannot exceed the cv of a pure exponential).
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "mean must be positive, got {mean}"
        );
        assert!(cv > 0.0 && cv <= 1.0, "cv must be in (0, 1], got {cv}");
        Self {
            shift: mean * (1.0 - cv),
            scale: mean * cv,
        }
    }
}

impl Distribution for ShiftedExponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.shift + rng.exp(self.scale)
    }

    fn mean(&self) -> f64 {
        self.shift + self.scale
    }

    fn cv(&self) -> f64 {
        self.scale / (self.shift + self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_moments(d: &impl Distribution, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = Rng::seed_from(seed);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(7.5);
        let mut rng = Rng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 7.5);
        }
        assert_eq!(d.mean(), 7.5);
        assert_eq!(d.cv(), 0.0);
    }

    #[test]
    fn shifted_exponential_moments() {
        for (mean, cv) in [(50.0, 0.9), (10.0, 0.2), (200.0, 1.0)] {
            let d = ShiftedExponential::from_mean_cv(mean, cv);
            assert!((d.mean() - mean).abs() < 1e-9);
            assert!((d.cv() - cv).abs() < 1e-9);
            let (m, s) = sample_moments(&d, 200_000, 99);
            assert!((m - mean).abs() / mean < 0.02, "mean {m} vs {mean}");
            assert!((s / m - cv).abs() < 0.02, "cv {} vs {cv}", s / m);
        }
    }

    #[test]
    fn shifted_exponential_support_floor() {
        let d = ShiftedExponential::from_mean_cv(100.0, 0.25);
        let mut rng = Rng::seed_from(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 75.0);
        }
    }

    #[test]
    #[should_panic(expected = "cv must be in")]
    fn cv_above_one_rejected() {
        ShiftedExponential::from_mean_cv(10.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn nonpositive_mean_rejected() {
        ShiftedExponential::from_mean_cv(0.0, 0.5);
    }
}
