//! Running covariance and autocovariance estimators.
//!
//! The conservativeness theory of the paper pivots on two covariances:
//!
//! * `cov[θ0, θ̂0]` — condition (C1) of Theorem 1, estimated from the
//!   sequence of loss-event intervals and their moving-average estimates,
//!   and reported normalized as `cov[θ0, θ̂0]·p²` (Figures 5 and 10);
//! * `cov[X0, S0]` — conditions (C2)/(C2c) of Theorem 2, between the rate
//!   set at a loss event and the real-time duration until the next one.
//!
//! [`Covariance`] is a single-pass, numerically stable co-moment
//! accumulator; [`Autocovariance`] estimates `cov[θ0, θ−l]` for all lags
//! `l = 1..=L` in one pass, which combined with the estimator weights
//! yields `cov[θ0, θ̂0]` via Equation (11).

/// Single-pass covariance accumulator for paired observations.
///
/// Uses the stable co-moment update so it can digest millions of samples
/// without cancellation.
///
/// ```
/// use ebrc_stats::Covariance;
/// let mut c = Covariance::new();
/// for i in 0..100 {
///     let x = i as f64;
///     c.push(x, 2.0 * x + 1.0);
/// }
/// // cov[x, 2x + 1] = 2·var[x], and 0..100 has sample variance 100·101/12.
/// assert!((c.covariance() - 2.0 * 100.0 * 101.0 / 12.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Covariance {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    comoment: f64,
}

impl Covariance {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(x, y)` pair.
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        let dy = y - self.mean_y;
        self.mean_y += dy / n;
        // Co-moment uses the pre-update x mean (dx) and post-update y mean.
        self.comoment += dx * (y - self.mean_y);
    }

    /// Unbiased sample covariance; 0 with fewer than two pairs.
    pub fn covariance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.comoment / (self.n as f64 - 1.0)
        }
    }
}

/// One-pass autocovariance estimator for lags `1..=max_lag`.
///
/// Feeding the loss-event interval sequence `θ_n` yields the estimates of
/// `cov[θ0, θ−l]` that enter Equation (11):
/// `cov[θ0, θ̂0] = Σ_l w_l · cov[θ0, θ−l]`.
#[derive(Debug, Clone)]
pub struct Autocovariance {
    max_lag: usize,
    window: Vec<f64>,
    lagged: Vec<Covariance>,
}

impl Autocovariance {
    /// Creates an estimator for lags `1..=max_lag`.
    ///
    /// # Panics
    /// Panics if `max_lag == 0`.
    pub fn new(max_lag: usize) -> Self {
        assert!(max_lag > 0, "max_lag must be positive");
        Self {
            max_lag,
            window: Vec::with_capacity(max_lag),
            lagged: vec![Covariance::new(); max_lag],
        }
    }

    /// Adds the next observation of the series.
    pub fn push(&mut self, x: f64) {
        // window[0] is the most recent previous observation.
        for (l, c) in self.lagged.iter_mut().enumerate() {
            if let Some(&past) = self.window.get(l) {
                c.push(x, past);
            }
        }
        self.window.insert(0, x);
        self.window.truncate(self.max_lag);
    }

    /// Autocovariance at `lag` (1-based); 0 for out-of-range lags.
    pub fn at_lag(&self, lag: usize) -> f64 {
        if lag == 0 || lag > self.max_lag {
            return 0.0;
        }
        self.lagged[lag - 1].covariance()
    }

    /// `cov[θ0, θ̂0]` given estimator weights, per Equation (11).
    ///
    /// Weights beyond `max_lag` are ignored (they would need longer lags).
    pub fn estimator_covariance(&self, weights: &[f64]) -> f64 {
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| w * self.at_lag(i + 1))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    fn covariance_of(xs: &[f64], ys: &[f64]) -> Covariance {
        let mut c = Covariance::new();
        for (&x, &y) in xs.iter().zip(ys) {
            c.push(x, y);
        }
        c
    }

    #[test]
    fn covariance_of_independent_constants_is_zero() {
        let mut c = Covariance::new();
        for _ in 0..10 {
            c.push(1.0, 2.0);
        }
        assert_eq!(c.covariance(), 0.0);
    }

    #[test]
    fn covariance_matches_two_pass() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.13).sin()).collect();
        let ys: Vec<f64> = (0..500).map(|i| (i as f64 * 0.07).cos() * 2.0).collect();
        let c = covariance_of(&xs, &ys);
        let mx = xs.iter().sum::<f64>() / 500.0;
        let my = ys.iter().sum::<f64>() / 500.0;
        let cov = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / 499.0;
        assert_close(c.covariance(), cov, 1e-12);
    }

    #[test]
    fn anti_correlated_pairs() {
        let mut c = Covariance::new();
        for i in 0..100 {
            c.push(i as f64, -(i as f64));
        }
        assert_close(c.covariance(), -100.0 * 101.0 / 12.0, 1e-9);
    }

    #[test]
    fn autocovariance_of_shifted_series() {
        // x_n = z_n where z is a deterministic alternating series:
        // lag-1 autocovariance is negative, lag-2 positive.
        let mut ac = Autocovariance::new(2);
        for i in 0..1000 {
            ac.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        assert!(ac.at_lag(1) < -0.9);
        assert!(ac.at_lag(2) > 0.9);
        assert_eq!(ac.at_lag(3), 0.0);
        assert_eq!(ac.at_lag(0), 0.0);
    }

    #[test]
    fn equation_11_consistency() {
        // For an i.i.d.-ish pseudo random series, cov[θ0, θ̂0] computed via
        // Equation (11) should match the direct covariance of (θ_n, θ̂_n).
        let weights = [0.4, 0.3, 0.2, 0.1];
        let xs: Vec<f64> = (0..20_000)
            .map(|i| {
                let v = ((i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407)
                    >> 33) as f64;
                v / (1u64 << 31) as f64
            })
            .collect();
        let mut ac = Autocovariance::new(4);
        let mut direct = Covariance::new();
        for (n, &x) in xs.iter().enumerate() {
            ac.push(x);
            if n >= 4 {
                let est: f64 = weights
                    .iter()
                    .enumerate()
                    .map(|(l, w)| w * xs[n - 1 - l])
                    .sum();
                direct.push(x, est);
            }
        }
        assert_close(ac.estimator_covariance(&weights), direct.covariance(), 5e-3);
    }
}
