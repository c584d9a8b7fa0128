//! Quartile / five-number summaries.
//!
//! Figure 10 of the paper reports the normalized covariance
//! `cov[θ0, θ̂0]·p²` across experiment replicas as box plots. This module
//! computes the underlying five-number summary (min, quartiles, max) with
//! linear interpolation between order statistics (type-7 quantiles, the
//! same convention as R's default and NumPy's `linear`).

/// Five-number summary of a sample: minimum, quartiles, and maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Smallest observation.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Sample size.
    pub n: usize,
}

impl FiveNumber {
    /// Computes the summary of a sample; returns `None` for an empty one.
    ///
    /// The input is copied and sorted internally, so callers keep their
    /// original ordering.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut xs = samples.to_vec();
        xs.sort_by(|a, b| {
            a.partial_cmp(b)
                .expect("summary input must not contain NaN")
        });
        Some(Self {
            min: xs[0],
            q1: quantile_sorted(&xs, 0.25),
            median: quantile_sorted(&xs, 0.5),
            q3: quantile_sorted(&xs, 0.75),
            max: xs[xs.len() - 1],
            n: xs.len(),
        })
    }
}

/// Type-7 quantile of an already **sorted** sample, `0 <= q <= 1`.
///
/// # Panics
/// Panics if the slice is empty or `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0, 1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_gives_none() {
        assert!(FiveNumber::of(&[]).is_none());
    }

    #[test]
    fn single_point_collapses() {
        let s = FiveNumber::of(&[7.0]).unwrap();
        assert_eq!(s.min, 7.0);
        assert_eq!(s.q1, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.q3, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn known_quartiles() {
        // 0..=8: median 4, q1 2, q3 6 under type-7.
        let xs: Vec<f64> = (0..=8).map(|i| i as f64).collect();
        let s = FiveNumber::of(&xs).unwrap();
        assert_eq!(s.median, 4.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 6.0);
    }

    #[test]
    fn interpolated_median_of_even_sample() {
        let s = FiveNumber::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = FiveNumber::of(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn quantile_endpoints() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 3.0);
    }
}
