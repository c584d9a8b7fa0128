//! Numerically stable running moments.
//!
//! Implements Welford's online algorithm, so a single pass over a sample
//! yields mean and variance without catastrophic cancellation.

/// Running estimator of the mean and variance of a scalar sample.
///
/// ```
/// use ebrc_stats::Moments;
/// let mut m = Moments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let delta = x - self.mean;
        let delta_n = delta / self.n as f64;
        self.mean += delta_n;
        self.m2 += delta * delta_n * n1;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n-1` denominator); 0 if fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation `std_dev / mean`.
    ///
    /// Returns 0 when the mean is 0 (degenerate sample). The paper writes
    /// this `cv[θ0]` and sweeps it in Figure 4.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Squared coefficient of variation, as plotted in Figure 6 (bottom).
    pub fn cv_squared(&self) -> f64 {
        let cv = self.cv();
        cv * cv
    }

    /// Smallest observation; `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    fn moments_of(xs: &[f64]) -> Moments {
        let mut m = Moments::new();
        for &x in xs {
            m.push(x);
        }
        m
    }

    #[test]
    fn empty_is_zeroed() {
        let m = Moments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.cv(), 0.0);
    }

    #[test]
    fn single_sample() {
        let m = moments_of(&[3.5]);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.min(), 3.5);
        assert_eq!(m.max(), 3.5);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.37).collect();
        let m = moments_of(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() as f64 - 1.0);
        assert_close(m.mean(), mean, 1e-9);
        assert_close(m.variance(), var, 1e-9);
    }

    #[test]
    fn cv_matches_definition() {
        let xs = [1.0, 3.0, 5.0];
        let m = moments_of(&xs);
        assert_close(m.cv(), 2.0 / 3.0, 1e-12);
        assert_close(m.cv_squared(), 4.0 / 9.0, 1e-12);
    }
}
