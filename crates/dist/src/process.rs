//! Loss processes: stationary-ergodic sequences of loss-event
//! intervals `θ_n`.
//!
//! The paper's theory (Section III) is stated against a
//! stationary-ergodic marked point process of loss events; this module
//! provides the three concrete families its evaluation uses:
//!
//! * [`IidProcess`] — i.i.d. intervals from any [`Distribution`]: the
//!   designed experiments of Figures 3–4, where condition (C1) holds
//!   with covariance exactly zero;
//! * [`MarkovModulated`] — intervals modulated by a two-state Markov
//!   phase (calm vs congested): the predictable loss of
//!   Section III-B.2 that flips the covariance term and can make the
//!   control *non*-conservative;
//! * [`TraceProcess`] — replay or bootstrap of a measured interval
//!   trace, closing the loop from packet-level simulation back into
//!   the analytic machinery.

use crate::distribution::Distribution;
use crate::rng::Rng;

/// A (possibly history-dependent) generator of loss-event intervals.
///
/// `next_interval` returns `θ_n`, the number of packets sent between
/// consecutive loss events; the controls consume these one at a time.
pub trait LossProcess {
    /// Draws the next loss-event interval.
    fn next_interval(&mut self, rng: &mut Rng) -> f64;
}

/// Every `&mut P` is itself a loss process — lets callers pass either
/// owned processes or borrows into the control recursions.
impl<P: LossProcess + ?Sized> LossProcess for &mut P {
    fn next_interval(&mut self, rng: &mut Rng) -> f64 {
        (**self).next_interval(rng)
    }
}

/// Independent, identically distributed intervals.
///
/// Under this process `cov[θ_0, θ̂_0] = 0` (condition (C1) of
/// Theorem 1 holds with equality), which is what makes the designed
/// experiments clean tests of the convexity mechanism alone.
#[derive(Debug, Clone)]
pub struct IidProcess<D: Distribution> {
    dist: D,
}

impl<D: Distribution> IidProcess<D> {
    /// Wraps a distribution.
    pub fn new(dist: D) -> Self {
        Self { dist }
    }
}

impl<D: Distribution> LossProcess for IidProcess<D> {
    fn next_interval(&mut self, rng: &mut Rng) -> f64 {
        self.dist.sample(rng)
    }
}

/// One phase of a [`MarkovModulated`] process.
#[derive(Debug, Clone, Copy)]
struct Phase {
    /// Mean interval while in this phase (exponentially distributed).
    mean: f64,
    /// Expected number of loss events spent in the phase per visit.
    sojourn: f64,
}

/// Two-phase Markov-modulated intervals: a calm phase with long
/// intervals and a congested phase with short ones, each holding for a
/// geometrically distributed number of events.
///
/// Long sojourns make the recent past a good predictor of the next
/// interval — `cov[θ_0, θ̂_0] > 0` — which is exactly the regime where
/// Theorem 1's sufficient condition (C1) fails and equation-based
/// control can overshoot `f(p)` (Section III-B.2).
///
/// ```
/// use ebrc_dist::{LossProcess, MarkovModulated, Rng};
/// let mut p = MarkovModulated::congestion_oscillation(60.0, 4.0, 20.0);
/// let mut rng = Rng::seed_from(1);
/// let mean = (0..50_000).map(|_| p.next_interval(&mut rng)).sum::<f64>() / 50_000.0;
/// assert!((mean - p.stationary_mean()).abs() / p.stationary_mean() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct MarkovModulated {
    phases: [Phase; 2],
    current: usize,
}

impl MarkovModulated {
    /// A general two-phase process: phase A with `(mean_a, sojourn_a)`,
    /// phase B with `(mean_b, sojourn_b)`, starting in phase A.
    ///
    /// # Panics
    /// Panics unless all means are positive and sojourns are ≥ 1
    /// event.
    pub fn two_phase(mean_a: f64, sojourn_a: f64, mean_b: f64, sojourn_b: f64) -> Self {
        for (m, s) in [(mean_a, sojourn_a), (mean_b, sojourn_b)] {
            assert!(
                m > 0.0 && m.is_finite(),
                "phase mean must be positive, got {m}"
            );
            assert!(
                s >= 1.0 && s.is_finite(),
                "phase sojourn must be ≥ 1 event, got {s}"
            );
        }
        Self {
            phases: [
                Phase {
                    mean: mean_a,
                    sojourn: sojourn_a,
                },
                Phase {
                    mean: mean_b,
                    sojourn: sojourn_b,
                },
            ],
            current: 0,
        }
    }

    /// The symmetric oscillation used by the phase ablation: calm
    /// intervals of mean `calm_mean` alternating with congested
    /// intervals of mean `congested_mean`, both phases holding for an
    /// expected `sojourn_events` loss events.
    pub fn congestion_oscillation(
        calm_mean: f64,
        congested_mean: f64,
        sojourn_events: f64,
    ) -> Self {
        Self::two_phase(calm_mean, sojourn_events, congested_mean, sojourn_events)
    }

    /// Stationary probability of being in phase A (sojourn-weighted).
    pub fn stationary_mix(&self) -> f64 {
        self.phases[0].sojourn / (self.phases[0].sojourn + self.phases[1].sojourn)
    }

    /// The stationary mean interval `E[θ]` (event-averaged over the
    /// phase chain).
    pub fn stationary_mean(&self) -> f64 {
        let mix = self.stationary_mix();
        mix * self.phases[0].mean + (1.0 - mix) * self.phases[1].mean
    }
}

impl LossProcess for MarkovModulated {
    fn next_interval(&mut self, rng: &mut Rng) -> f64 {
        let phase = self.phases[self.current];
        let theta = rng.exp(phase.mean);
        // Geometric sojourn: leave the phase with probability
        // 1/sojourn after each event.
        if rng.chance(1.0 / phase.sojourn) {
            self.current = 1 - self.current;
        }
        theta
    }
}

/// Replay mode of a [`TraceProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// Cycle through the trace in recorded order, preserving its
    /// autocovariance structure.
    Loop,
    /// Sample intervals uniformly with replacement (an i.i.d.
    /// bootstrap), destroying autocovariance so the (C1)-based theory
    /// applies to the resampled process.
    Bootstrap,
}

/// A loss process backed by a recorded interval trace — measured by a
/// TFRC receiver in a packet-level run, or loaded from a file.
#[derive(Debug, Clone)]
pub struct TraceProcess {
    intervals: Vec<f64>,
    mode: Replay,
    next: usize,
}

impl TraceProcess {
    /// Wraps a recorded trace.
    ///
    /// # Panics
    /// Panics on an empty trace.
    pub fn new(intervals: Vec<f64>, mode: Replay) -> Self {
        assert!(
            !intervals.is_empty(),
            "a trace process needs at least one interval"
        );
        Self {
            intervals,
            mode,
            next: 0,
        }
    }
}

impl LossProcess for TraceProcess {
    fn next_interval(&mut self, rng: &mut Rng) -> f64 {
        match self.mode {
            Replay::Loop => {
                let v = self.intervals[self.next];
                self.next = (self.next + 1) % self.intervals.len();
                v
            }
            Replay::Bootstrap => self.intervals[rng.below(self.intervals.len())],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{Deterministic, ShiftedExponential};

    #[test]
    fn iid_matches_distribution_mean() {
        let mut p = IidProcess::new(ShiftedExponential::from_mean_cv(40.0, 0.7));
        let mut rng = Rng::seed_from(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| p.next_interval(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 40.0).abs() / 40.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn iid_deterministic_is_constant() {
        let mut p = IidProcess::new(Deterministic::new(12.0));
        let mut rng = Rng::seed_from(2);
        for _ in 0..100 {
            assert_eq!(p.next_interval(&mut rng), 12.0);
        }
    }

    #[test]
    fn mut_ref_is_a_process() {
        fn drive<P: LossProcess>(mut p: P, rng: &mut Rng) -> f64 {
            p.next_interval(rng)
        }
        let mut p = IidProcess::new(Deterministic::new(3.0));
        let mut rng = Rng::seed_from(3);
        assert_eq!(drive(&mut p, &mut rng), 3.0);
    }

    #[test]
    fn markov_stationary_mean() {
        let mut p = MarkovModulated::congestion_oscillation(60.0, 4.0, 10.0);
        assert_eq!(p.stationary_mix(), 0.5);
        assert_eq!(p.stationary_mean(), 32.0);
        let mut rng = Rng::seed_from(4);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| p.next_interval(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 32.0).abs() / 32.0 < 0.03, "mean {mean}");
    }

    #[test]
    fn markov_asymmetric_mix() {
        let p = MarkovModulated::two_phase(100.0, 30.0, 10.0, 10.0);
        assert!((p.stationary_mix() - 0.75).abs() < 1e-12);
        assert!((p.stationary_mean() - 77.5).abs() < 1e-12);
    }

    #[test]
    fn markov_long_sojourns_correlate_neighbours() {
        // Lag-1 autocorrelation should grow with the sojourn length.
        let autocorr = |sojourn: f64| {
            let mut p = MarkovModulated::congestion_oscillation(60.0, 4.0, sojourn);
            let mut rng = Rng::seed_from(5);
            let xs: Vec<f64> = (0..100_000).map(|_| p.next_interval(&mut rng)).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            let cov = xs
                .windows(2)
                .map(|w| (w[0] - mean) * (w[1] - mean))
                .sum::<f64>()
                / (xs.len() - 1) as f64;
            cov / var
        };
        let fast = autocorr(1.5);
        let slow = autocorr(40.0);
        assert!(slow > fast + 0.1, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn trace_loop_replays_in_order() {
        let mut p = TraceProcess::new(vec![1.0, 2.0, 3.0], Replay::Loop);
        let mut rng = Rng::seed_from(6);
        let got: Vec<f64> = (0..7).map(|_| p.next_interval(&mut rng)).collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn trace_bootstrap_preserves_mean_and_decorrelates() {
        // A strongly alternating trace: loop keeps the alternation,
        // bootstrap destroys it but keeps the mean.
        let trace: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 1.0 } else { 9.0 })
            .collect();
        let mut p = TraceProcess::new(trace, Replay::Bootstrap);
        let mut rng = Rng::seed_from(7);
        let xs: Vec<f64> = (0..100_000).map(|_| p.next_interval(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let lag1 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (xs.len() - 1) as f64
            / var;
        assert!(lag1.abs() < 0.02, "bootstrap lag-1 autocorr {lag1}");
    }

    #[test]
    #[should_panic(expected = "at least one interval")]
    fn empty_trace_rejected() {
        TraceProcess::new(vec![], Replay::Loop);
    }
}
