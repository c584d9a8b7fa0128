//! The basic and comprehensive controls as exact event-driven recursions.
//!
//! Both controls are *clocked by loss events*: given the sequence of
//! loss-event intervals `θ_n` produced by a [`LossProcess`], the
//! recursion computes the rate `X_n = f(1/θ̂_n)` set at each event, and
//! the real-time duration `S_n` of the interval.
//!
//! * **Basic control** (Eq. 3): the rate stays at `X_n` for the whole
//!   interval, so `S_n = θ_n / X_n` (the `θ_n` packets drain at rate
//!   `X_n`).
//! * **Comprehensive control** (Eq. 4): once the open interval `θ(t)`
//!   crosses the activation threshold `U_n`-worth of packets, the rate
//!   grows along `X(t) = f(1/θ̂(t))`. Solving the resulting ODE (proof of
//!   Proposition 3) gives the duration in closed form whenever `g = 1/f(1/·)`
//!   has an elementary antiderivative (SQRT, PFTK-simplified), and by
//!   numeric quadrature otherwise (PFTK-standard).
//!
//! The recursions record everything the theory needs — `θ_n`, `θ̂_n`,
//!   `X_n`, `S_n`, `V_n` — in a [`ControlTrace`].

use crate::estimator::IntervalEstimator;
use crate::formula::ThroughputFormula;
use crate::weights::WeightProfile;
use ebrc_dist::{LossProcess, Rng};
use ebrc_stats::{Covariance, Moments};

/// Guard against degenerate estimates: `θ̂` is clamped below by this
/// value so `f(1/θ̂)` stays well-defined even for batch loss processes
/// that can produce zero-length intervals.
const THETA_HAT_FLOOR: f64 = 1e-6;

/// The loss-event rate plugged into the formula is at most 1 (one event
/// per packet): `p̂ = min(1, 1/θ̂)`, i.e. the estimate is floored at one
/// packet when evaluating `f`. TFRC does exactly this, and without it
/// PFTK's `θ̂^{-7/2}` timeout term diverges under continuous interval
/// distributions with mass near zero.
pub const FORMULA_INPUT_FLOOR: f64 = 1.0;

/// `f(1/θ̂)` with the domain clamp `p̂ ≤ 1` — the rate the controls
/// actually set.
pub fn clamped_rate<F: ThroughputFormula + ?Sized>(f: &F, theta_hat: f64) -> f64 {
    f.h(theta_hat.max(FORMULA_INPUT_FLOOR))
}

/// `g(θ̂) = 1/f(1/θ̂)` under the same domain clamp — the form the Palm
/// throughput expressions (Propositions 1 and 3) must use to stay exact
/// identities against the clamped controls.
pub fn clamped_g<F: ThroughputFormula + ?Sized>(f: &F, theta_hat: f64) -> f64 {
    f.g(theta_hat.max(FORMULA_INPUT_FLOOR))
}

/// Shared configuration of both controls.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Weight profile of the loss-interval estimator.
    pub weights: WeightProfile,
}

impl ControlConfig {
    /// Configuration with the given weights.
    pub fn new(weights: WeightProfile) -> Self {
        Self { weights }
    }
}

/// One loss-event interval of a control trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// `θ_n`: packets sent in `[T_n, T_{n+1})`.
    pub theta: f64,
    /// `θ̂_n`: the estimate the rate was computed from at `T_n`.
    pub theta_hat: f64,
    /// `θ̂_{n+1}`: the estimate after observing `θ_n`.
    pub theta_hat_next: f64,
    /// `X_n = f(1/θ̂_n)`: rate set at the loss event (packets/second).
    pub x_rate: f64,
    /// `S_n`: real-time duration of the interval (seconds).
    pub duration: f64,
    /// `V_n` of Proposition 3 — the duration the comprehensive control
    /// *saves* relative to `θ_n / X_n` by increasing its rate; zero when
    /// no increase happened (and always zero for the basic control).
    pub v_correction: f64,
}

/// A recorded control trajectory with the statistics the paper's
/// analysis reads off it.
#[derive(Debug, Clone, Default)]
pub struct ControlTrace {
    steps: Vec<StepRecord>,
}

impl ControlTrace {
    /// Wraps recorded steps.
    pub fn from_steps(steps: Vec<StepRecord>) -> Self {
        Self { steps }
    }

    /// The recorded steps.
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Number of recorded loss events.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Long-run throughput `x̄ = Σθ / ΣS` in packets per second — the
    /// Palm inversion estimate of `E[X(0)]`.
    pub fn throughput(&self) -> f64 {
        let packets: f64 = self.steps.iter().map(|s| s.theta).sum();
        let time: f64 = self.steps.iter().map(|s| s.duration).sum();
        if time == 0.0 {
            0.0
        } else {
            packets / time
        }
    }

    /// Loss-event rate `p = 1 / E0[θ0]` (Equation 1).
    pub fn loss_event_rate(&self) -> f64 {
        let m = self.theta_moments().mean();
        if m == 0.0 {
            0.0
        } else {
            1.0 / m
        }
    }

    /// Normalized throughput `x̄ / f(p)` — the conservativeness metric of
    /// Figures 3–6: `≤ 1` means conservative.
    pub fn normalized_throughput<F: ThroughputFormula + ?Sized>(&self, f: &F) -> f64 {
        self.throughput() / f.rate(self.loss_event_rate())
    }

    /// Moments of the loss-event intervals `θ_n`.
    pub fn theta_moments(&self) -> Moments {
        let mut m = Moments::new();
        for s in &self.steps {
            m.push(s.theta);
        }
        m
    }

    /// Moments of the estimator values `θ̂_n`.
    pub fn theta_hat_moments(&self) -> Moments {
        let mut m = Moments::new();
        for s in &self.steps {
            m.push(s.theta_hat);
        }
        m
    }

    /// `cov[θ0, θ̂0]` — condition (C1) of Theorem 1.
    pub fn cov_theta_theta_hat(&self) -> f64 {
        let mut c = Covariance::new();
        for s in &self.steps {
            c.push(s.theta, s.theta_hat);
        }
        c.covariance()
    }

    /// The normalized covariance `cov[θ0, θ̂0] · p²` reported in
    /// Figures 5 and 10.
    pub fn normalized_covariance(&self) -> f64 {
        let p = self.loss_event_rate();
        self.cov_theta_theta_hat() * p * p
    }

    /// `cov[X0, S0]` — condition (C2)/(C2c) of Theorem 2.
    pub fn cov_rate_duration(&self) -> f64 {
        let mut c = Covariance::new();
        for s in &self.steps {
            c.push(s.x_rate, s.duration);
        }
        c.covariance()
    }
}

/// The basic control (Eq. 3): rate piecewise constant at `f(1/θ̂_n)`.
#[derive(Debug, Clone)]
pub struct BasicControl<F: ThroughputFormula> {
    formula: F,
    config: ControlConfig,
}

impl<F: ThroughputFormula> BasicControl<F> {
    /// Creates the control.
    pub fn new(formula: F, config: ControlConfig) -> Self {
        Self { formula, config }
    }

    /// Runs the recursion for `events` loss events, pre-seeding the
    /// estimator with `L` draws from the process.
    pub fn run<P: LossProcess>(
        &self,
        process: &mut P,
        rng: &mut Rng,
        events: usize,
    ) -> ControlTrace {
        let mut estimator = warm_estimator(&self.config.weights, process, rng);
        let mut steps = Vec::with_capacity(events);
        for _ in 0..events {
            let theta_hat = estimator.estimate().max(THETA_HAT_FLOOR);
            let x = clamped_rate(&self.formula, theta_hat);
            let theta = process.next_interval(rng);
            let duration = theta / x;
            estimator.push(theta);
            steps.push(StepRecord {
                theta,
                theta_hat,
                theta_hat_next: estimator.estimate().max(THETA_HAT_FLOOR),
                x_rate: x,
                duration,
                v_correction: 0.0,
            });
        }
        ControlTrace::from_steps(steps)
    }
}

/// The comprehensive control (Eq. 4): rate increases between loss events
/// once the open interval grows past the activation threshold.
#[derive(Debug, Clone)]
pub struct ComprehensiveControl<F: ThroughputFormula> {
    formula: F,
    config: ControlConfig,
    /// Number of Simpson sub-intervals for the numeric fallback when the
    /// formula has no closed-form `g` antiderivative.
    pub quadrature_points: usize,
}

impl<F: ThroughputFormula> ComprehensiveControl<F> {
    /// Creates the control.
    pub fn new(formula: F, config: ControlConfig) -> Self {
        Self {
            formula,
            config,
            quadrature_points: 64,
        }
    }

    /// Runs the recursion for `events` loss events.
    pub fn run<P: LossProcess>(
        &self,
        process: &mut P,
        rng: &mut Rng,
        events: usize,
    ) -> ControlTrace {
        let mut estimator = warm_estimator(&self.config.weights, process, rng);
        let w1 = self.config.weights.w1();
        let mut steps = Vec::with_capacity(events);
        for _ in 0..events {
            let theta_hat = estimator.estimate().max(THETA_HAT_FLOOR);
            let x = clamped_rate(&self.formula, theta_hat);
            let tail = estimator.tail_weighted_sum();
            let theta = process.next_interval(rng);
            let theta_hat_next = (w1 * theta + tail).max(THETA_HAT_FLOOR);

            let base_duration = theta / x;
            let (duration, v) = if theta_hat_next > theta_hat {
                // Rate increased during the interval: S_n = U_n + B_n.
                // U_n: time to send the first `threshold` packets at X_n.
                let u = (theta_hat - tail) / (w1 * x);
                let b = self.integral_of_g(theta_hat, theta_hat_next) / w1;
                let s = u + b;
                (s, base_duration - s)
            } else {
                (base_duration, 0.0)
            };

            estimator.push(theta);
            steps.push(StepRecord {
                theta,
                theta_hat,
                theta_hat_next,
                x_rate: x,
                duration,
                v_correction: v,
            });
        }
        ControlTrace::from_steps(steps)
    }

    /// `∫_{a}^{b} g(y) dy` with `g = 1/f(1/·)` under the domain clamp:
    /// below one packet `g` is held at `g(1)` (the rate is pinned at
    /// `f(1)`), above it the closed form applies when the formula
    /// provides an antiderivative, composite Simpson otherwise.
    fn integral_of_g(&self, a: f64, b: f64) -> f64 {
        debug_assert!(b >= a);
        if b <= FORMULA_INPUT_FLOOR {
            return (b - a) * self.formula.g(FORMULA_INPUT_FLOOR);
        }
        if a < FORMULA_INPUT_FLOOR {
            let flat = (FORMULA_INPUT_FLOOR - a) * self.formula.g(FORMULA_INPUT_FLOOR);
            return flat + self.integral_of_g(FORMULA_INPUT_FLOOR, b);
        }
        if let (Some(ga), Some(gb)) = (
            self.formula.g_antiderivative(a),
            self.formula.g_antiderivative(b),
        ) {
            return gb - ga;
        }
        simpson(|y| self.formula.g(y), a, b, self.quadrature_points)
    }
}

/// Composite Simpson quadrature with `n` (rounded up to even)
/// sub-intervals.
fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    if a == b {
        return 0.0;
    }
    let n = (n.max(2) + 1) & !1usize; // even, at least 2
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let coeff = if i % 2 == 1 { 4.0 } else { 2.0 };
        sum += coeff * f(a + h * i as f64);
    }
    sum * h / 3.0
}

/// Builds an estimator whose history is pre-filled with real draws from
/// the process, so the recursion starts stationary.
fn warm_estimator<P: LossProcess>(
    weights: &WeightProfile,
    process: &mut P,
    rng: &mut Rng,
) -> IntervalEstimator {
    let mut estimator = IntervalEstimator::new(weights.clone());
    for _ in 0..weights.len() {
        estimator.push(process.next_interval(rng).max(THETA_HAT_FLOOR));
    }
    estimator
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{PftkSimplified, PftkStandard, Sqrt};
    use ebrc_dist::{Deterministic, IidProcess, ShiftedExponential};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn basic_control_deterministic_fixed_point() {
        // Constant intervals: θ̂ = θ = m, rate f(1/m), throughput exactly
        // f(p): the converged case x̄ = f(p).
        let f = Sqrt::with_rtt(1.0);
        let cfg = ControlConfig::new(WeightProfile::tfrc(8));
        let mut process = IidProcess::new(Deterministic::new(100.0));
        let mut rng = Rng::seed_from(1);
        let trace = BasicControl::new(f.clone(), cfg).run(&mut process, &mut rng, 500);
        assert_close(trace.normalized_throughput(&f), 1.0, 1e-9);
        assert_close(trace.loss_event_rate(), 0.01, 1e-12);
    }

    #[test]
    fn basic_control_duration_identity() {
        // S_n = θ_n / X_n must hold exactly for every step.
        let f = PftkSimplified::with_rtt(1.0);
        let cfg = ControlConfig::new(WeightProfile::tfrc(4));
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(50.0, 0.8));
        let mut rng = Rng::seed_from(2);
        let trace = BasicControl::new(f, cfg).run(&mut process, &mut rng, 200);
        for s in trace.steps() {
            assert_close(s.duration, s.theta / s.x_rate, 1e-12);
            assert_eq!(s.v_correction, 0.0);
        }
    }

    #[test]
    fn comprehensive_equals_basic_when_estimate_never_increases() {
        // Deterministic intervals keep θ̂ constant, so the comprehensive
        // control never activates its increase and matches the basic one.
        let f = PftkSimplified::with_rtt(1.0);
        let cfg = ControlConfig::new(WeightProfile::tfrc(8));
        let mut p1 = IidProcess::new(Deterministic::new(80.0));
        let mut p2 = IidProcess::new(Deterministic::new(80.0));
        let mut r1 = Rng::seed_from(3);
        let mut r2 = Rng::seed_from(3);
        let basic = BasicControl::new(f.clone(), cfg.clone()).run(&mut p1, &mut r1, 300);
        let comp = ComprehensiveControl::new(f, cfg).run(&mut p2, &mut r2, 300);
        assert_close(basic.throughput(), comp.throughput(), 1e-9);
    }

    #[test]
    fn comprehensive_throughput_at_least_basic() {
        // Proposition 2: on the same loss sequence, the comprehensive
        // control's throughput is ≥ the basic control's.
        for seed in [4u64, 5, 6] {
            let f = PftkSimplified::with_rtt(1.0);
            let cfg = ControlConfig::new(WeightProfile::tfrc(8));
            let mut p1 = IidProcess::new(ShiftedExponential::from_mean_cv(100.0, 0.9));
            let mut p2 = IidProcess::new(ShiftedExponential::from_mean_cv(100.0, 0.9));
            let mut r1 = Rng::seed_from(seed);
            let mut r2 = Rng::seed_from(seed);
            let basic = BasicControl::new(f.clone(), cfg.clone()).run(&mut p1, &mut r1, 5_000);
            let comp = ComprehensiveControl::new(f, cfg).run(&mut p2, &mut r2, 5_000);
            assert!(
                comp.throughput() >= basic.throughput() - 1e-9,
                "seed {seed}: comp {} < basic {}",
                comp.throughput(),
                basic.throughput()
            );
        }
    }

    #[test]
    fn comprehensive_durations_shorter_when_increasing() {
        let f = Sqrt::with_rtt(1.0);
        let cfg = ControlConfig::new(WeightProfile::tfrc(4));
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(60.0, 0.9));
        let mut rng = Rng::seed_from(7);
        let trace = ComprehensiveControl::new(f, cfg).run(&mut process, &mut rng, 2_000);
        let mut increased = 0;
        for s in trace.steps() {
            if s.theta_hat_next > s.theta_hat {
                assert!(s.duration <= s.theta / s.x_rate + 1e-12);
                assert!(s.v_correction >= -1e-12, "V_n = {}", s.v_correction);
                increased += 1;
            } else {
                assert_close(s.duration, s.theta / s.x_rate, 1e-12);
            }
        }
        assert!(increased > 100, "increase branch rarely taken: {increased}");
    }

    #[test]
    fn closed_form_matches_quadrature_for_pftk_simplified() {
        // Run the comprehensive control twice on the same input: once with
        // the closed form, once forcing Simpson via a wrapper without an
        // antiderivative. Durations must agree.
        #[derive(Clone)]
        struct NoClosedForm(PftkSimplified);
        impl ThroughputFormula for NoClosedForm {
            fn rate(&self, p: f64) -> f64 {
                self.0.rate(p)
            }
        }
        let f = PftkSimplified::with_rtt(1.0);
        let cfg = ControlConfig::new(WeightProfile::tfrc(8));
        let mut p1 = IidProcess::new(ShiftedExponential::from_mean_cv(40.0, 0.9));
        let mut p2 = IidProcess::new(ShiftedExponential::from_mean_cv(40.0, 0.9));
        let mut r1 = Rng::seed_from(8);
        let mut r2 = Rng::seed_from(8);
        let exact = ComprehensiveControl::new(f.clone(), cfg.clone()).run(&mut p1, &mut r1, 1_000);
        let mut numeric_ctl = ComprehensiveControl::new(NoClosedForm(f), cfg);
        numeric_ctl.quadrature_points = 128;
        let numeric = numeric_ctl.run(&mut p2, &mut r2, 1_000);
        for (a, b) in exact.steps().iter().zip(numeric.steps()) {
            assert_close(a.duration, b.duration, 1e-6);
        }
    }

    #[test]
    fn pftk_standard_runs_via_quadrature() {
        let f = PftkStandard::with_rtt(1.0);
        let cfg = ControlConfig::new(WeightProfile::tfrc(8));
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(30.0, 0.9));
        let mut rng = Rng::seed_from(9);
        let trace = ComprehensiveControl::new(f, cfg).run(&mut process, &mut rng, 500);
        assert!(trace.throughput().is_finite());
        assert!(trace.throughput() > 0.0);
    }

    #[test]
    fn simpson_integrates_polynomials_exactly() {
        // Simpson is exact on cubics.
        let val = simpson(|x| x * x * x - 2.0 * x + 1.0, 0.0, 2.0, 2);
        assert_close(val, 4.0 - 4.0 + 2.0, 1e-12);
        assert_eq!(simpson(|x| x, 3.0, 3.0, 8), 0.0);
    }

    #[test]
    fn trace_covariances_defined() {
        let f = PftkSimplified::with_rtt(1.0);
        let cfg = ControlConfig::new(WeightProfile::tfrc(8));
        let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(100.0, 0.999));
        let mut rng = Rng::seed_from(11);
        let trace = BasicControl::new(f, cfg).run(&mut process, &mut rng, 20_000);
        // I.i.d. intervals: cov[θ0, θ̂0] ≈ 0 (Corollary 1 hypothesis).
        let p = trace.loss_event_rate();
        let norm_cov = trace.cov_theta_theta_hat() * p * p;
        assert!(norm_cov.abs() < 0.05, "normalized cov {norm_cov}");
        // The basic control's rate is set from θ̂ and the loss process is
        // independent of the rate, so cov[X0, S0] is positive here (long
        // θ at fixed X gives long S) — just assert it is finite.
        assert!(trace.cov_rate_duration().is_finite());
    }
}
