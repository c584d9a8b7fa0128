//! Property tests: the streaming estimators agree with naive two-pass
//! computations on arbitrary inputs.

use ebrc_stats::{Covariance, FiveNumber, Moments};
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6_f64..1e6, 2..max_len)
}

fn moments_of(xs: &[f64]) -> Moments {
    let mut m = Moments::new();
    for &x in xs {
        m.push(x);
    }
    m
}

proptest! {
    #[test]
    fn moments_match_two_pass(xs in finite_vec(300)) {
        let m = moments_of(&xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let scale = mean.abs().max(1.0);
        prop_assert!((m.mean() - mean).abs() / scale < 1e-9);
        let vscale = var.abs().max(1.0);
        prop_assert!((m.variance() - var).abs() / vscale < 1e-6);
        prop_assert!(m.min() <= mean + 1e-9 && m.max() >= mean - 1e-9);
    }

    #[test]
    fn covariance_with_itself_is_variance(xs in finite_vec(200)) {
        // cov(x, x) = var(x).
        let mut c = Covariance::new();
        for &x in &xs {
            c.push(x, x);
        }
        let m = moments_of(&xs);
        prop_assert!((c.covariance() - m.variance()).abs() / m.variance().max(1.0) < 1e-6);
    }

    #[test]
    fn five_number_is_ordered_and_bounded(xs in finite_vec(200)) {
        let s = FiveNumber::of(&xs).unwrap();
        prop_assert!(s.min <= s.q1 && s.q1 <= s.median);
        prop_assert!(s.median <= s.q3 && s.q3 <= s.max);
        prop_assert_eq!(s.n, xs.len());
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min, lo);
        prop_assert_eq!(s.max, hi);
    }
}
