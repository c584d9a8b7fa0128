//! The loss-event interval estimator `θ̂_n` (Equation 2) and its
//! *virtual* extension `θ̂(t)` (Section II-B).
//!
//! At each loss event the estimator forms a moving average of the last
//! `L` observed intervals. Between loss events the comprehensive control
//! re-evaluates the average with the *open* interval `θ(t)` (packets sent
//! since the last loss event) substituted for the most recent one —
//! but only when that increases the estimate (the activation set `A_t`):
//!
//! ```text
//! θ̂(t) = w1·θ(t) + Σ_{l=1}^{L−1} w_{l+1}·θ_{n−l}    if A_t
//!       = θ̂_n                                        otherwise
//! A_t  = { θ(t) > (θ̂_n − W_n) / w1 },  W_n = Σ_{l=1}^{L−1} w_{l+1}·θ_{n−l}
//! ```
//!
//! which is exactly `θ̂(t) = max(θ̂_n, w1·θ(t) + W_n)`.

use crate::weights::WeightProfile;
use std::collections::VecDeque;

/// Moving-average estimator of the expected loss-event interval `1/p`.
///
/// Holds the last `L` loss-event intervals (most recent first) and the
/// weight profile. The estimator only reports once its history is full;
/// seed it with [`IntervalEstimator::seed`] or by pushing `L` intervals.
#[derive(Debug, Clone)]
pub struct IntervalEstimator {
    profile: WeightProfile,
    // history[0] = θ_{n-1} (most recent completed interval).
    history: VecDeque<f64>,
}

impl IntervalEstimator {
    /// Creates an estimator with an empty history.
    pub fn new(profile: WeightProfile) -> Self {
        let cap = profile.len();
        Self {
            profile,
            history: VecDeque::with_capacity(cap + 1),
        }
    }

    /// Window length `L`.
    pub fn window(&self) -> usize {
        self.profile.len()
    }

    /// The weight profile in use.
    pub fn profile(&self) -> &WeightProfile {
        &self.profile
    }

    /// Whether `L` intervals have been observed.
    pub fn is_warm(&self) -> bool {
        self.history.len() >= self.profile.len()
    }

    /// Fills the history with `L` copies of `value` (e.g. the stationary
    /// mean, or a first measurement, as TFRC does after the initial loss
    /// event).
    ///
    /// # Panics
    /// Panics if `value` is not positive.
    pub fn seed(&mut self, value: f64) {
        assert!(value > 0.0, "seed interval must be positive");
        self.history.clear();
        for _ in 0..self.profile.len() {
            self.history.push_back(value);
        }
    }

    /// Records a completed loss-event interval `θ_n` (packets).
    ///
    /// # Panics
    /// Panics if the interval is negative or non-finite.
    pub fn push(&mut self, theta: f64) {
        assert!(theta >= 0.0 && theta.is_finite(), "bad interval {theta}");
        self.history.push_front(theta);
        while self.history.len() > self.profile.len() {
            self.history.pop_back();
        }
    }

    /// The estimate `θ̂_n = Σ w_l θ_{n−l}` (Equation 2).
    ///
    /// # Panics
    /// Panics if the history is not yet full (callers must seed or warm
    /// up first; a partially-filled average would be silently biased).
    pub fn estimate(&self) -> f64 {
        assert!(self.is_warm(), "estimator history not full");
        self.profile
            .as_slice()
            .iter()
            .zip(&self.history)
            .map(|(w, t)| w * t)
            .sum()
    }

    /// `W_n = Σ_{l=1}^{L−1} w_{l+1}·θ_{n−l}`: the weighted tail that the
    /// virtual estimate combines with the open interval.
    ///
    /// For `L = 1` this is zero.
    ///
    /// # Panics
    /// Panics if the history is not yet full.
    pub fn tail_weighted_sum(&self) -> f64 {
        assert!(self.is_warm(), "estimator history not full");
        self.profile
            .as_slice()
            .iter()
            .skip(1)
            .zip(&self.history)
            .map(|(w, t)| w * t)
            .sum()
    }

    /// The virtual estimate `θ̂(t) = max(θ̂_n, w1·θ(t) + W_n)` for an open
    /// interval of `theta_open` packets since the last loss event.
    ///
    /// # Panics
    /// Panics if the history is not yet full or `theta_open < 0`.
    pub fn virtual_estimate(&self, theta_open: f64) -> f64 {
        assert!(theta_open >= 0.0, "open interval must be non-negative");
        let base = self.estimate();
        let candidate = self.profile.w1() * theta_open + self.tail_weighted_sum();
        base.max(candidate)
    }

    /// Read-only view of the interval history, most recent first.
    pub fn history(&self) -> impl Iterator<Item = f64> + '_ {
        self.history.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn estimate_is_weighted_average() {
        let mut e = IntervalEstimator::new(WeightProfile::custom(vec![2.0, 1.0, 1.0]));
        e.push(10.0); // θ_{n-3}… chronological pushes
        e.push(20.0);
        e.push(40.0); // most recent
                      // weights (0.5, 0.25, 0.25) over (40, 20, 10).
        assert_close(e.estimate(), 0.5 * 40.0 + 0.25 * 20.0 + 0.25 * 10.0, 1e-12);
    }

    #[test]
    fn constant_history_estimates_the_constant() {
        let mut e = IntervalEstimator::new(WeightProfile::tfrc(8));
        e.seed(100.0);
        assert_close(e.estimate(), 100.0, 1e-12);
    }

    #[test]
    fn window_slides() {
        let mut e = IntervalEstimator::new(WeightProfile::uniform(2));
        e.push(1.0);
        e.push(2.0);
        assert_close(e.estimate(), 1.5, 1e-12);
        e.push(4.0);
        assert_close(e.estimate(), 3.0, 1e-12); // (4 + 2)/2, the 1 dropped
    }

    #[test]
    fn virtual_estimate_only_increases() {
        let mut e = IntervalEstimator::new(WeightProfile::tfrc(4));
        for t in [80.0, 120.0, 90.0, 110.0] {
            e.push(t);
        }
        let base = e.estimate();
        // The activation threshold (θ̂_n − W_n)/w1: at it the candidate
        // equals the base.
        let w1 = e.profile().w1();
        let th = (base - e.tail_weighted_sum()) / w1;
        assert_close(e.virtual_estimate(th), base, 1e-9);
        // Below it the estimate stays pinned at θ̂_n.
        assert_close(e.virtual_estimate(0.0), base, 1e-12);
        assert_close(e.virtual_estimate(th * 0.5), base, 1e-12);
        // Beyond it the estimate grows linearly with slope w1.
        let v = e.virtual_estimate(th + 10.0);
        assert_close(v, base + w1 * 10.0, 1e-9);
        assert!(v > base);
    }

    #[test]
    fn l1_virtual_estimate_tracks_open_interval() {
        let mut e = IntervalEstimator::new(WeightProfile::tfrc(1));
        e.push(100.0);
        assert_close(e.tail_weighted_sum(), 0.0, 1e-12);
        assert_close(e.virtual_estimate(250.0), 250.0, 1e-12);
        assert_close(e.virtual_estimate(50.0), 100.0, 1e-12);
    }

    #[test]
    fn unbiasedness_on_iid_input() {
        // Feeding i.i.d. intervals of mean m, the long-run average of
        // estimates is m (assumption (E)).
        let mut e = IntervalEstimator::new(WeightProfile::tfrc(8));
        let mut state = 88172645463325252u64;
        let mut next = || {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let m = 100.0;
        let mut sum = 0.0;
        let mut count = 0;
        for i in 0..200_000 {
            e.push(-(1.0 - next()).ln() * m);
            if i >= 8 {
                sum += e.estimate();
                count += 1;
            }
        }
        let avg = sum / count as f64;
        assert!((avg - m).abs() / m < 0.01, "avg {avg}");
    }

    #[test]
    #[should_panic(expected = "not full")]
    fn estimate_before_warm_panics() {
        let e = IntervalEstimator::new(WeightProfile::tfrc(4));
        e.estimate();
    }

    #[test]
    #[should_panic(expected = "bad interval")]
    fn negative_interval_rejected() {
        let mut e = IntervalEstimator::new(WeightProfile::tfrc(2));
        e.push(-1.0);
    }
}
