//! Functions sampled on a uniform grid.

/// A real function sampled at `n` equally spaced abscissae on `[lo, hi]`.
///
/// All convex-analysis routines in this crate operate on this
/// representation; construct one with [`SampledFunction::sample`] from a
/// closure or [`SampledFunction::from_values`] from precomputed data.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledFunction {
    lo: f64,
    hi: f64,
    values: Vec<f64>,
}

impl SampledFunction {
    /// Samples `f` at `n ≥ 2` points spanning `[lo, hi]` inclusive.
    ///
    /// # Panics
    /// Panics if `lo >= hi`, `n < 2`, or `f` produces a non-finite value
    /// (a non-finite sample would silently corrupt hulls and ratios).
    pub fn sample(lo: f64, hi: f64, n: usize, mut f: impl FnMut(f64) -> f64) -> Self {
        assert!(lo < hi, "empty interval [{lo}, {hi}]");
        assert!(n >= 2, "need at least two samples");
        let step = (hi - lo) / (n as f64 - 1.0);
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let x = lo + step * i as f64;
                let y = f(x);
                assert!(y.is_finite(), "f({x}) is not finite");
                y
            })
            .collect();
        Self { lo, hi, values }
    }

    /// Wraps precomputed values over `[lo, hi]`.
    ///
    /// # Panics
    /// Same validation as [`SampledFunction::sample`].
    pub fn from_values(lo: f64, hi: f64, values: Vec<f64>) -> Self {
        assert!(lo < hi, "empty interval [{lo}, {hi}]");
        assert!(values.len() >= 2, "need at least two samples");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "values must be finite"
        );
        Self { lo, hi, values }
    }

    /// Left endpoint.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Right endpoint.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the grid is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Grid spacing.
    pub fn step(&self) -> f64 {
        (self.hi - self.lo) / (self.values.len() as f64 - 1.0)
    }

    /// Abscissa of sample `i`.
    pub fn x(&self, i: usize) -> f64 {
        self.lo + self.step() * i as f64
    }

    /// Ordinate of sample `i`.
    pub fn y(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// All ordinates.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterator over `(x, y)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (0..self.len()).map(move |i| (self.x(i), self.y(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_endpoints_exactly() {
        let f = SampledFunction::sample(1.0, 3.0, 5, |x| x * x);
        assert_eq!(f.x(0), 1.0);
        assert_eq!(f.x(4), 3.0);
        assert_eq!(f.y(0), 1.0);
        assert_eq!(f.y(4), 9.0);
        assert_eq!(f.len(), 5);
        assert!((f.step() - 0.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn rejects_non_finite_samples() {
        SampledFunction::sample(0.0, 1.0, 3, |x| 1.0 / (x - 0.5));
    }

    #[test]
    fn points_iterator_covers_grid() {
        let f = SampledFunction::sample(0.0, 2.0, 3, |x| x + 1.0);
        let pts: Vec<(f64, f64)> = f.points().collect();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[1], (1.0, 2.0));
    }
}
