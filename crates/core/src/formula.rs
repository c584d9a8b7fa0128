//! TCP loss-throughput formulae (Section II-C of the paper).
//!
//! Three functions `f : p → send rate` are studied:
//!
//! * **SQRT** (Eq. 5, from Mathis et al.): `f(p) = 1 / (c1 · r · √p)`;
//! * **PFTK-standard** (Eq. 6, Padhye et al. Eq. 30):
//!   `f(p) = 1 / (c1·r·√p + q·min(1, c2·√p)·(p + 32p³))`;
//! * **PFTK-simplified** (Eq. 7, the TFRC RFC 3448 recommendation):
//!   `f(p) = 1 / (c1·r·√p + q·c2·(p^{3/2} + 32·p^{7/2}))`.
//!
//! with `c1 = √(2b/3)`, `c2 = (3/2)·√(3b/2)`, `b` the number of packets
//! acknowledged per ACK (typically 2), `r` the average round-trip time
//! and `q` the TCP retransmission timeout (recommended `q = 4r`).
//!
//! Rates are in **packets per second**. For `p ≤ 1/c2²`, PFTK-simplified
//! equals PFTK-standard; beyond, it is smaller.
//!
//! The conservativeness theory works with two functionals of `f`:
//! `g(x) = 1/f(1/x)` (Theorem 1's condition (F1): `g` convex) and
//! `h(x) = f(1/x)` (Theorem 2's (F2)/(F2c): `h` concave / strictly
//! convex), where `x` is a loss-event interval in packets. Both are
//! provided on the trait, together with grid samplers that plug directly
//! into `ebrc-convex`.

use ebrc_convex::SampledFunction;

/// Default number of packets acknowledged by a single ACK.
pub const DEFAULT_B: f64 = 2.0;

/// `c1 = √(2b/3)` (Section II-C).
pub fn c1(b: f64) -> f64 {
    (2.0 * b / 3.0).sqrt()
}

/// `c2 = (3/2)·√(3b/2)` (Section II-C).
pub fn c2(b: f64) -> f64 {
    1.5 * (3.0 * b / 2.0).sqrt()
}

/// A loss-throughput formula `f(p)`, in packets per second.
///
/// Implementations must be positive and non-increasing in `p` over
/// `(0, 1]`; the round-trip time is baked into the instance (the paper's
/// analysis fixes `r` to its mean, Section II).
pub trait ThroughputFormula: Send + Sync {
    /// Send rate `f(p)` for loss-event rate `p ∈ (0, 1]`.
    ///
    /// # Panics
    /// Implementations panic on `p ≤ 0` (rare losses are expressed by
    /// small positive `p`, never zero).
    fn rate(&self, p: f64) -> f64;

    /// `h(x) = f(1/x)` where `x` is a loss-event interval in packets —
    /// the functional of Theorem 2.
    fn h(&self, x: f64) -> f64 {
        assert!(x > 0.0, "interval must be positive");
        self.rate(1.0 / x)
    }

    /// `g(x) = 1/f(1/x)` — the functional of Theorem 1.
    fn g(&self, x: f64) -> f64 {
        1.0 / self.h(x)
    }

    /// Samples `g` on `[lo, hi]` for convex analysis.
    fn sample_g(&self, lo: f64, hi: f64, n: usize) -> SampledFunction {
        SampledFunction::sample(lo, hi, n, |x| self.g(x))
    }

    /// Samples `h` on `[lo, hi]` for convex analysis.
    fn sample_h(&self, lo: f64, hi: f64, n: usize) -> SampledFunction {
        SampledFunction::sample(lo, hi, n, |x| self.h(x))
    }

    /// Numerical derivative `f'(p)` by central difference (used by the
    /// Equation (10) bound).
    fn rate_derivative(&self, p: f64) -> f64 {
        let e = (p * 1e-6).max(1e-12);
        (self.rate(p + e) - self.rate(p - e)) / (2.0 * e)
    }

    /// An antiderivative `G` of `g(y) = 1/f(1/y)`, when one exists in
    /// closed form.
    ///
    /// The comprehensive control's inter-loss duration (proof of
    /// Proposition 3) needs `∫ g(y) dy` between two estimator values;
    /// SQRT and PFTK-simplified admit elementary antiderivatives (this is
    /// why the paper states Proposition 3 for exactly those two), other
    /// formulae fall back to numeric quadrature.
    fn g_antiderivative(&self, _y: f64) -> Option<f64> {
        None
    }
}

fn check_p(p: f64) {
    assert!(p > 0.0, "loss-event rate must be positive, got {p}");
}

/// The square-root formula (Eq. 5): `f(p) = 1/(c1·r·√p)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sqrt {
    /// `c1` constant; [`c1`] of the ACK ratio `b`.
    pub c1: f64,
    /// Mean round-trip time in seconds.
    pub rtt: f64,
}

impl Sqrt {
    /// SQRT with explicit constants.
    ///
    /// # Panics
    /// Panics unless both parameters are positive.
    pub fn new(c1: f64, rtt: f64) -> Self {
        assert!(c1 > 0.0 && rtt > 0.0, "parameters must be positive");
        Self { c1, rtt }
    }

    /// SQRT with the default `b = 2` constants and the given RTT.
    pub fn with_rtt(rtt: f64) -> Self {
        Self::new(c1(DEFAULT_B), rtt)
    }
}

impl ThroughputFormula for Sqrt {
    fn rate(&self, p: f64) -> f64 {
        check_p(p);
        1.0 / (self.c1 * self.rtt * p.sqrt())
    }

    fn g_antiderivative(&self, y: f64) -> Option<f64> {
        // g(y) = c1·r·y^{-1/2}  ⇒  G(y) = 2·c1·r·√y.
        Some(2.0 * self.c1 * self.rtt * y.sqrt())
    }
}

/// PFTK-standard (Eq. 6): the Padhye–Firoiu–Towsley–Kurose formula with
/// the `min(1, c2√p)` timeout term.
#[derive(Debug, Clone, PartialEq)]
pub struct PftkStandard {
    /// `c1` constant.
    pub c1: f64,
    /// `c2` constant.
    pub c2: f64,
    /// Mean round-trip time in seconds.
    pub rtt: f64,
    /// TCP retransmission timeout `q` in seconds (recommended `4·rtt`).
    pub q: f64,
}

impl PftkStandard {
    /// PFTK-standard with explicit constants.
    ///
    /// # Panics
    /// Panics unless all parameters are positive.
    pub fn new(c1: f64, c2: f64, rtt: f64, q: f64) -> Self {
        assert!(
            c1 > 0.0 && c2 > 0.0 && rtt > 0.0 && q > 0.0,
            "parameters must be positive"
        );
        Self { c1, c2, rtt, q }
    }

    /// Default `b = 2` constants, `q = 4·rtt`.
    pub fn with_rtt(rtt: f64) -> Self {
        Self::new(c1(DEFAULT_B), c2(DEFAULT_B), rtt, 4.0 * rtt)
    }
}

impl ThroughputFormula for PftkStandard {
    fn rate(&self, p: f64) -> f64 {
        check_p(p);
        let timeout = self.q * (self.c2 * p.sqrt()).min(1.0) * (p + 32.0 * p.powi(3));
        1.0 / (self.c1 * self.rtt * p.sqrt() + timeout)
    }
}

/// PFTK-simplified (Eq. 7): the TFRC proposed-standard formula.
#[derive(Debug, Clone, PartialEq)]
pub struct PftkSimplified {
    /// `c1` constant.
    pub c1: f64,
    /// `c2` constant.
    pub c2: f64,
    /// Mean round-trip time in seconds.
    pub rtt: f64,
    /// TCP retransmission timeout `q` in seconds (recommended `4·rtt`).
    pub q: f64,
}

impl PftkSimplified {
    /// PFTK-simplified with explicit constants.
    ///
    /// # Panics
    /// Panics unless all parameters are positive.
    pub fn new(c1: f64, c2: f64, rtt: f64, q: f64) -> Self {
        assert!(
            c1 > 0.0 && c2 > 0.0 && rtt > 0.0 && q > 0.0,
            "parameters must be positive"
        );
        Self { c1, c2, rtt, q }
    }

    /// Default `b = 2` constants, `q = 4·rtt`.
    pub fn with_rtt(rtt: f64) -> Self {
        Self::new(c1(DEFAULT_B), c2(DEFAULT_B), rtt, 4.0 * rtt)
    }
}

impl ThroughputFormula for PftkSimplified {
    fn rate(&self, p: f64) -> f64 {
        check_p(p);
        let timeout = self.q * self.c2 * (p.powf(1.5) + 32.0 * p.powf(3.5));
        1.0 / (self.c1 * self.rtt * p.sqrt() + timeout)
    }

    fn g_antiderivative(&self, y: f64) -> Option<f64> {
        // g(y) = c1·r·y^{-1/2} + q·c2·(y^{-3/2} + 32·y^{-7/2})
        // G(y) = 2·c1·r·√y − 2·q·c2·y^{-1/2} − (64/5)·q·c2·y^{-5/2},
        // the integrals solved in the proof of Proposition 3.
        Some(
            2.0 * self.c1 * self.rtt * y.sqrt()
                - 2.0 * self.q * self.c2 / y.sqrt()
                - (64.0 / 5.0) * self.q * self.c2 * y.powf(-2.5),
        )
    }
}

/// The generic AIMD loss-throughput function of Section IV-A.2:
/// `f(p) = √(α(1+β)/(2(1−β))) / √p` for additive increase `α` and
/// multiplicative decrease `β` (TCP-like: `α = 1`, `β = 1/2`; rate in
/// packets per RTT² units — the Claim 4 analysis fixes the RTT to 1).
#[derive(Debug, Clone, PartialEq)]
pub struct AimdFormula {
    /// Additive-increase parameter `α > 0`.
    pub alpha: f64,
    /// Multiplicative-decrease parameter `β ∈ (0, 1)`.
    pub beta: f64,
}

impl AimdFormula {
    /// Creates the formula from AIMD parameters.
    ///
    /// # Panics
    /// Panics unless `α > 0` and `0 < β < 1`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        assert!(beta > 0.0 && beta < 1.0, "beta must be in (0, 1)");
        Self { alpha, beta }
    }

    /// The coefficient `√(α(1+β)/(2(1−β)))`.
    pub fn coefficient(&self) -> f64 {
        (self.alpha * (1.0 + self.beta) / (2.0 * (1.0 - self.beta))).sqrt()
    }
}

impl ThroughputFormula for AimdFormula {
    fn rate(&self, p: f64) -> f64 {
        check_p(p);
        self.coefficient() / p.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn constants_for_b2() {
        assert_close(c1(2.0), (4.0_f64 / 3.0).sqrt(), 1e-12);
        assert_close(c2(2.0), 1.5 * 3.0_f64.sqrt(), 1e-12);
    }

    #[test]
    fn sqrt_formula_value() {
        let f = Sqrt::with_rtt(1.0);
        // f(0.01) = 1/(c1 · 0.1) = 10/c1.
        assert_close(f.rate(0.01), 10.0 / c1(2.0), 1e-12);
    }

    #[test]
    fn sqrt_scales_inversely_with_rtt() {
        let f1 = Sqrt::with_rtt(0.05);
        let f2 = Sqrt::with_rtt(0.1);
        assert_close(f1.rate(0.01), 2.0 * f2.rate(0.01), 1e-9);
    }

    #[test]
    fn pftk_variants_agree_for_small_p() {
        let std = PftkStandard::with_rtt(1.0);
        let simp = PftkSimplified::with_rtt(1.0);
        // PFTK-simplified coincides with PFTK-standard for p ≤ 1/c2².
        let threshold = 1.0 / (simp.c2 * simp.c2);
        for &p in &[threshold * 0.1, threshold * 0.5, threshold * 0.99] {
            assert_close(std.rate(p), simp.rate(p), 1e-9);
        }
        // Beyond the threshold the simplified formula is smaller.
        for &p in &[threshold * 1.5, 0.3, 0.6] {
            assert!(simp.rate(p) < std.rate(p), "p = {p}");
        }
    }

    #[test]
    fn all_formulae_non_increasing() {
        let fs: Vec<Box<dyn ThroughputFormula>> = vec![
            Box::new(Sqrt::with_rtt(1.0)),
            Box::new(PftkStandard::with_rtt(1.0)),
            Box::new(PftkSimplified::with_rtt(1.0)),
            Box::new(AimdFormula::new(1.0, 0.5)),
        ];
        for (i, f) in fs.iter().enumerate() {
            let mut prev = f.rate(1e-4);
            let mut p = 2e-4;
            while p <= 1.0 {
                let cur = f.rate(p);
                assert!(cur <= prev + 1e-12, "formula {i} not monotone at p={p}");
                prev = cur;
                p *= 1.3;
            }
        }
    }

    #[test]
    fn sqrt_is_rare_loss_limit_of_pftk() {
        // As p → 0 the PFTK timeout terms vanish relative to the √p term.
        let sq = Sqrt::with_rtt(1.0);
        let std = PftkStandard::with_rtt(1.0);
        let p = 1e-7;
        let ratio = std.rate(p) / sq.rate(p);
        assert!((ratio - 1.0).abs() < 1e-2, "ratio {ratio}");
    }

    #[test]
    fn g_and_h_are_consistent() {
        let f = PftkSimplified::with_rtt(1.0);
        for &x in &[0.5, 2.0, 10.0, 40.0] {
            assert_close(f.g(x) * f.h(x), 1.0, 1e-12);
            assert_close(f.h(x), f.rate(1.0 / x), 1e-12);
        }
    }

    #[test]
    fn rate_derivative_is_negative() {
        let f = PftkStandard::with_rtt(1.0);
        for &p in &[0.001, 0.01, 0.1, 0.3] {
            assert!(f.rate_derivative(p) < 0.0, "p = {p}");
        }
    }

    #[test]
    fn figure1_shape_spot_checks() {
        // Figure 1 (left): x → f(1/x) with r = 1, q = 4r. At x = 50
        // (p = 0.02) SQRT is above PFTK; all curves increase with x.
        let sq = Sqrt::with_rtt(1.0);
        let std = PftkStandard::with_rtt(1.0);
        assert!(sq.h(50.0) > std.h(50.0));
        assert!(sq.h(50.0) > sq.h(10.0));
        assert!(std.h(50.0) > std.h(10.0));
        // Heavy loss (x small): PFTK collapses much faster than SQRT.
        let ratio_heavy = sq.h(2.0) / std.h(2.0);
        let ratio_light = sq.h(50.0) / std.h(50.0);
        assert!(ratio_heavy > ratio_light);
    }

    #[test]
    fn aimd_coefficient_tcp_like() {
        // α = 1, β = 1/2: coefficient = √(1.5/1) = √1.5.
        assert_close(
            AimdFormula::new(1.0, 0.5).coefficient(),
            1.5_f64.sqrt(),
            1e-12,
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_p_rejected() {
        Sqrt::with_rtt(1.0).rate(0.0);
    }
}
