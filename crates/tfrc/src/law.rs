//! The TFRC rate law: one feedback report in, the new send rate out.
//!
//! The boxed [`TfrcSender`](crate::TfrcSender), the audio
//! [`AudioTfrcSender`](crate::AudioTfrcSender) and the many-flow SoA
//! bank (`ebrc-experiments`' `FlowClass`) all update their rate through
//! [`RateLaw::apply`] over a `Copy` [`RateState`]. The law is the
//! paper's: slow start until a loss interval is reported, then
//! `X = f(p̂, r)` with `p̂ = min(1, 1/θ̂)`, the domain clamp of
//! [`clamped_rate`] that `ebrc-core`'s analytic controls use. The
//! senders differ only in [`RateLaw`]'s parameters. The estimate `θ̂` is
//! the caller's: the boxed receiver reports the `L`-weighted moving
//! average, the bank still a cumulative mean.

use crate::formula_kind::FormulaKind;
use ebrc_core::control::clamped_rate;

/// Per-flow rate-control state — `Copy`, no heap, array-friendly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateState {
    /// Current allowed send rate, in the units the sender controls
    /// (packets per second, or nominal packets per second for audio).
    pub rate: f64,
    /// Still in the initial slow-start phase (no loss interval reported
    /// yet).
    pub(crate) slow_start: bool,
}

impl RateState {
    /// A fresh flow in slow start at the given initial rate.
    ///
    /// # Panics
    /// Panics unless `initial_rate > 0`.
    pub fn new(initial_rate: f64) -> Self {
        assert!(initial_rate > 0.0, "initial rate must be positive");
        Self {
            rate: initial_rate,
            slow_start: true,
        }
    }
}

/// The parameters of one sender's rate law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLaw {
    pub(crate) formula: FormulaKind,
    pub(crate) min_rate: f64,
    pub(crate) max_rate: f64,
    /// Cap the equation rate at the receive-rate limit too (RFC 3448).
    /// Slow start is capped by it whenever the report carries one.
    pub(crate) cap_equation_rate: bool,
}

impl RateLaw {
    /// A law with `formula`, bounded to `[min_rate, max_rate]`, whose
    /// receive-rate limit caps slow start only.
    pub fn new(formula: FormulaKind, min_rate: f64, max_rate: f64) -> Self {
        Self {
            formula,
            min_rate,
            max_rate,
            cap_equation_rate: false,
        }
    }

    /// Applies one feedback report: the average loss interval `θ̂` in
    /// packets (`∞` before the first loss event), the RTT for the
    /// formula, and the rate the report's window delivered in the units
    /// of [`RateState::rate`] (0 if nothing, or if the sender models no
    /// receive rate); twice that is RFC 3448's receive-rate limit.
    ///
    /// A finite `θ̂` ends slow start for good and sets the rate to
    /// `f(min(1, 1/θ̂), rtt)`. An infinite one doubles the rate in slow
    /// start and holds it afterwards. The result is clamped to the
    /// law's bounds.
    ///
    /// # Panics
    /// Panics if a finite `avg_interval` arrives with `rtt <= 0`.
    pub fn apply(&self, state: &mut RateState, avg_interval: f64, rtt: f64, recv_rate: f64) {
        let limit = if recv_rate > 0.0 {
            2.0 * recv_rate
        } else {
            f64::INFINITY
        };
        let rate = if avg_interval.is_finite() {
            state.slow_start = false;
            assert!(rtt > 0.0, "rtt must be positive");
            let eq = clamped_rate(&self.formula.instantiate(rtt), avg_interval);
            if self.cap_equation_rate {
                eq.min(limit)
            } else {
                eq
            }
        } else if state.slow_start {
            (2.0 * state.rate).min(limit)
        } else {
            state.rate
        };
        state.rate = rate.clamp(self.min_rate, self.max_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTT: f64 = 0.4;

    #[test]
    fn slow_start_doubles_until_first_loss() {
        let law = RateLaw::new(FormulaKind::Sqrt, 0.0, 1e6);
        let mut s = RateState::new(2.0);
        law.apply(&mut s, f64::INFINITY, RTT, 0.0);
        assert_eq!(s.rate, 4.0);
        assert!(s.slow_start);
        law.apply(&mut s, f64::INFINITY, RTT, 0.0);
        assert_eq!(s.rate, 8.0);
        law.apply(&mut s, 20.0, RTT, 0.0);
        assert!(!s.slow_start);
        assert_eq!(s.rate, FormulaKind::Sqrt.rate(0.05, RTT));
    }

    #[test]
    fn loss_free_report_after_slow_start_holds_rate() {
        let law = RateLaw::new(FormulaKind::Sqrt, 0.0, 1e6);
        let mut s = RateState::new(2.0);
        law.apply(&mut s, 20.0, RTT, 0.0);
        let held = s.rate;
        law.apply(&mut s, f64::INFINITY, RTT, 1e3);
        assert_eq!(s.rate, held);
        assert!(!s.slow_start, "slow start never resumes");
    }

    #[test]
    fn rate_is_bounded() {
        let law = RateLaw::new(FormulaKind::Sqrt, 5.0, 3.0e3);
        let mut s = RateState::new(2.0);
        law.apply(&mut s, f64::INFINITY, RTT, 0.0);
        assert_eq!(s.rate, 5.0, "floor");
        law.apply(&mut s, 1e9, RTT, 0.0);
        assert_eq!(s.rate, 3.0e3, "ceiling");
    }

    #[test]
    fn loss_rate_is_clamped_to_one_like_the_analytic_controls() {
        let law = RateLaw::new(FormulaKind::PftkSimplified, 0.0, 1e9);
        for theta_hat in [1e-12, 0.3, 1.0, 1.5, 8.0, 1e4] {
            let mut s = RateState::new(1.0);
            law.apply(&mut s, theta_hat, RTT, 0.0);
            let p = (1.0 / theta_hat).min(1.0);
            assert_eq!(
                s.rate,
                FormulaKind::PftkSimplified.rate(p, RTT),
                "θ̂ {theta_hat}"
            );
        }
    }

    #[test]
    fn equation_rate_tracks_formula() {
        for kind in [
            FormulaKind::Sqrt,
            FormulaKind::PftkStandard,
            FormulaKind::PftkSimplified,
        ] {
            let law = RateLaw::new(kind, 0.0, 1e9);
            let mut s = RateState::new(1.0);
            law.apply(&mut s, 50.0, RTT, 0.0);
            assert_eq!(s.rate, kind.rate(0.02, RTT));
        }
    }

    #[test]
    fn receive_limit_caps_slow_start_always_and_the_equation_on_request() {
        let mut s = RateState::new(100.0);
        let law = RateLaw::new(FormulaKind::Sqrt, 0.0, 1e9);
        law.apply(&mut s, f64::INFINITY, RTT, 30.0);
        assert_eq!(s.rate, 60.0, "slow start doubles to at most 2·x_recv");
        let eq = FormulaKind::Sqrt.rate(0.01, RTT);
        let low_recv = eq / 4.0;
        let mut uncapped = s;
        law.apply(&mut uncapped, 100.0, RTT, low_recv);
        assert_eq!(uncapped.rate, eq);
        let capped = RateLaw {
            cap_equation_rate: true,
            ..law
        };
        capped.apply(&mut s, 100.0, RTT, low_recv);
        assert_eq!(s.rate, 2.0 * low_recv);
        let mut no_delivery = RateState::new(100.0);
        capped.apply(&mut no_delivery, 100.0, RTT, 0.0);
        assert_eq!(no_delivery.rate, eq, "no delivery, no limit");
    }

    #[test]
    fn slow_start_without_delivery_doubles_uncapped() {
        let law = RateLaw::new(FormulaKind::Sqrt, 0.0, 1e9);
        let mut s = RateState::new(10.0);
        law.apply(&mut s, f64::INFINITY, RTT, 0.0);
        assert_eq!(s.rate, 20.0);
        law.apply(&mut s, f64::INFINITY, RTT, 5.0);
        assert_eq!(s.rate, 10.0, "delivery evidence caps it again");
        assert!(s.slow_start);
    }
}
