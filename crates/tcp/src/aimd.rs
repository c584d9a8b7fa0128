//! Fixed-capacity-link fluid models (Section IV-A.2, Claim 4).
//!
//! Three models, all with round-trip time fixed to 1 and a loss event
//! declared exactly when the (total) send rate reaches the capacity `c`:
//!
//! * [`AimdFixedLink`] — an AIMD sender alone: deterministic sawtooth;
//!   its loss-event rate has the closed form `p' = 2α/((1−β²)c²)`.
//! * [`EbrcFixedLink`] — an equation-based sender (comprehensive
//!   control with the matching AIMD loss-throughput formula) alone: a
//!   deterministic recursion whose loss-event rate converges to the
//!   fixed point `p = α(1+β)/(2(1−β)c²)`.
//! * [`SharedFixedLink`] — one AIMD and one equation-based sender
//!   sharing the link with synchronized loss events (both see the event
//!   when the rate sum hits `c`): the "numerical simulations … not
//!   displayed due to space limitations" of the paper, which found the
//!   ratio "does hold, but is somewhat less pronounced" than 16/9.

use ebrc_core::estimator::IntervalEstimator;
use ebrc_core::formula::ThroughputFormula;
use ebrc_core::weights::WeightProfile;

/// AIMD sender alone on a fixed-capacity link: analytic sawtooth cycles.
#[derive(Debug, Clone, Copy)]
pub struct AimdFixedLink {
    /// Additive increase per RTT² (packets/s², RTT = 1).
    pub alpha: f64,
    /// Multiplicative decrease factor in `(0, 1)`.
    pub beta: f64,
    /// Link capacity in packets/second.
    pub capacity: f64,
}

impl AimdFixedLink {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics on non-positive `alpha`/`capacity` or `beta ∉ (0, 1)`.
    pub fn new(alpha: f64, beta: f64, capacity: f64) -> Self {
        assert!(
            alpha > 0.0 && capacity > 0.0,
            "positive parameters required"
        );
        assert!(beta > 0.0 && beta < 1.0, "beta in (0, 1)");
        Self {
            alpha,
            beta,
            capacity,
        }
    }

    /// Duration of one sawtooth cycle (`βc → c` at slope `α`).
    pub fn cycle_duration(&self) -> f64 {
        (1.0 - self.beta) * self.capacity / self.alpha
    }

    /// Packets sent per cycle (area under the ramp).
    pub fn packets_per_cycle(&self) -> f64 {
        0.5 * (1.0 + self.beta) * self.capacity * self.cycle_duration()
    }

    /// Loss-event rate `p' = 1/packets_per_cycle = 2α/((1−β²)c²)`.
    pub fn loss_event_rate(&self) -> f64 {
        1.0 / self.packets_per_cycle()
    }
}

/// Equation-based sender alone on the fixed link: the deterministic
/// comprehensive-control recursion.
#[derive(Debug)]
pub struct EbrcFixedLink {
    estimator: IntervalEstimator,
    theta_at_capacity: f64,
}

impl EbrcFixedLink {
    /// Creates the model; the estimator history is seeded at half the
    /// capacity-interval so the control starts below capacity and ramps
    /// up.
    ///
    /// # Panics
    /// Panics on non-positive capacity.
    pub fn new<F: ThroughputFormula>(formula: F, weights: WeightProfile, capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        // θ* with f(1/θ*) = c, found by bisection (h is increasing).
        let theta_at_capacity = invert_h(&formula, capacity);
        let mut estimator = IntervalEstimator::new(weights);
        estimator.seed(theta_at_capacity / 2.0);
        Self {
            estimator,
            theta_at_capacity,
        }
    }

    /// Runs `events` loss events and returns the loss-event intervals
    /// `θ_n` (the comprehensive control triggers an event each time its
    /// virtual estimate reaches `θ*`, i.e. its rate reaches capacity).
    pub fn run(&mut self, events: usize) -> Vec<f64> {
        let w1 = self.estimator.profile().w1();
        let mut intervals = Vec::with_capacity(events);
        for _ in 0..events {
            let tail = self.estimator.tail_weighted_sum();
            // Open interval needed for the virtual estimate to hit θ*.
            let theta = ((self.theta_at_capacity - tail) / w1).max(0.0);
            self.estimator.push(theta);
            intervals.push(theta);
        }
        intervals
    }

    /// Loss-event rate measured over `events` events after a warm-up of
    /// the same length.
    pub fn measured_loss_event_rate(&mut self, events: usize) -> f64 {
        let _ = self.run(events); // warm-up to the fixed point
        let intervals = self.run(events);
        let mean = intervals.iter().sum::<f64>() / intervals.len() as f64;
        1.0 / mean
    }
}

/// Inverts `h(x) = f(1/x)` at `target` by bisection (`h` is increasing).
fn invert_h<F: ThroughputFormula>(f: &F, target: f64) -> f64 {
    let mut lo = 1e-9;
    let mut hi = 1.0;
    while f.h(hi) < target {
        hi *= 2.0;
        assert!(hi < 1e18, "capacity unreachable by formula");
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if f.h(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Outcome of the shared-link simulation.
#[derive(Debug, Clone, Copy)]
pub struct SharedOutcome {
    /// AIMD loss-event rate (events per AIMD packet).
    pub aimd_loss_rate: f64,
    /// Equation-based sender's loss-event rate (events per its packet).
    pub ebrc_loss_rate: f64,
    /// AIMD average throughput.
    pub aimd_throughput: f64,
    /// Equation-based average throughput.
    pub ebrc_throughput: f64,
    /// Number of (shared) loss events.
    pub events: u64,
}

impl SharedOutcome {
    /// The ratio `p'/p` the paper discusses.
    pub fn loss_rate_ratio(&self) -> f64 {
        self.aimd_loss_rate / self.ebrc_loss_rate
    }
}

/// One AIMD and one equation-based sender sharing a fixed-capacity link.
///
/// Fluid time-stepping: AIMD ramps linearly, the equation-based rate
/// follows `f(1/θ̂(t))` with the comprehensive virtual estimate; when the
/// rate sum reaches `c` both experience a loss event (the AIMD halves,
/// the equation-based closes its interval).
#[derive(Debug)]
pub struct SharedFixedLink<F: ThroughputFormula> {
    aimd: AimdFixedLink,
    formula: F,
    estimator: IntervalEstimator,
    /// Integration step in seconds (RTT = 1).
    pub dt: f64,
}

impl<F: ThroughputFormula> SharedFixedLink<F> {
    /// Creates the shared-link model.
    pub fn new(aimd: AimdFixedLink, formula: F, weights: WeightProfile) -> Self {
        let seed_theta = invert_h(&formula, aimd.capacity / 2.0).max(1.0);
        let mut estimator = IntervalEstimator::new(weights);
        estimator.seed(seed_theta);
        Self {
            aimd,
            formula,
            estimator,
            dt: 1e-3,
        }
    }

    /// Runs until `t_end` (after discarding `warmup` time) and reports
    /// per-sender loss-event and throughput statistics.
    pub fn run(&mut self, warmup: f64, t_end: f64) -> SharedOutcome {
        assert!(t_end > warmup, "t_end must exceed warmup");
        let c = self.aimd.capacity;
        let mut x1 = self.aimd.beta * c / 2.0;
        let mut theta_open = 0.0_f64;
        let mut aimd_pkts_run = 0.0;
        let mut ebrc_pkts_run = 0.0;
        let mut events = 0u64;
        let mut t = 0.0;
        let mut measuring = false;
        while t < t_end {
            if !measuring && t >= warmup {
                measuring = true;
                aimd_pkts_run = 0.0;
                ebrc_pkts_run = 0.0;
                events = 0;
            }
            let x2 = self
                .formula
                .h(self.estimator.virtual_estimate(theta_open).max(1e-9));
            if x1 + x2 >= c {
                // Shared loss event.
                x1 *= self.aimd.beta;
                self.estimator.push(theta_open);
                theta_open = 0.0;
                if measuring {
                    events += 1;
                }
            } else {
                x1 += self.aimd.alpha * self.dt;
                theta_open += x2 * self.dt;
                if measuring {
                    aimd_pkts_run += x1 * self.dt;
                    ebrc_pkts_run += x2 * self.dt;
                }
                t += self.dt;
            }
        }
        let span = t_end - warmup;
        SharedOutcome {
            aimd_loss_rate: events as f64 / aimd_pkts_run.max(1e-12),
            ebrc_loss_rate: events as f64 / ebrc_pkts_run.max(1e-12),
            aimd_throughput: aimd_pkts_run / span,
            ebrc_throughput: ebrc_pkts_run / span,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebrc_core::formula::AimdFormula;
    use ebrc_core::theory::claim4;

    fn assert_rel(a: f64, b: f64, rel: f64) {
        assert!((a - b).abs() / b.abs().max(1e-12) < rel, "{a} vs {b}");
    }

    #[test]
    fn aimd_matches_closed_form() {
        let m = AimdFixedLink::new(1.0, 0.5, 100.0);
        assert_rel(
            m.loss_event_rate(),
            claim4::aimd_loss_event_rate(1.0, 0.5, 100.0),
            1e-12,
        );
        assert_rel(m.cycle_duration(), 50.0, 1e-12);
    }

    #[test]
    fn ebrc_converges_to_fixed_point() {
        let formula = AimdFormula::new(1.0, 0.5);
        let mut m = EbrcFixedLink::new(formula, WeightProfile::tfrc(8), 100.0);
        let measured = m.measured_loss_event_rate(5_000);
        let analytic = claim4::ebrc_loss_event_rate(1.0, 0.5, 100.0);
        assert_rel(measured, analytic, 1e-3);
    }

    #[test]
    fn isolated_ratio_is_sixteen_ninths() {
        let aimd = AimdFixedLink::new(1.0, 0.5, 80.0);
        let formula = AimdFormula::new(1.0, 0.5);
        let mut ebrc = EbrcFixedLink::new(formula, WeightProfile::tfrc(8), 80.0);
        let ratio = aimd.loss_event_rate() / ebrc.measured_loss_event_rate(5_000);
        assert_rel(ratio, 16.0 / 9.0, 1e-2);
        assert_rel(ratio, claim4::loss_event_rate_ratio(0.5), 1e-2);
    }

    #[test]
    fn shared_link_aimd_still_sees_more_loss_but_less_pronounced() {
        // The paper: "the deviation of the loss-event rates does hold,
        // but it is somewhat less pronounced" when sharing.
        let aimd = AimdFixedLink::new(1.0, 0.5, 100.0);
        let formula = AimdFormula::new(1.0, 0.5);
        let mut shared = SharedFixedLink::new(aimd, formula, WeightProfile::tfrc(8));
        let out = shared.run(200.0, 1_500.0);
        let ratio = out.loss_rate_ratio();
        assert!(ratio > 1.0, "AIMD should see more loss, got {ratio}");
        assert!(
            ratio < 16.0 / 9.0,
            "shared ratio should be less pronounced: {ratio}"
        );
        // Both senders get useful throughput.
        assert!(
            out.aimd_throughput > 0.05 * 100.0,
            "{}",
            out.aimd_throughput
        );
        assert!(
            out.ebrc_throughput > 0.05 * 100.0,
            "{}",
            out.ebrc_throughput
        );
    }

    #[test]
    fn invert_h_roundtrip() {
        let f = AimdFormula::new(1.0, 0.5);
        let theta = invert_h(&f, 50.0);
        assert_rel(f.h(theta), 50.0, 1e-9);
    }

    #[test]
    fn capacity_scaling_leaves_ratio_invariant() {
        for c in [20.0, 200.0] {
            let aimd = AimdFixedLink::new(1.0, 0.5, c);
            let mut ebrc =
                EbrcFixedLink::new(AimdFormula::new(1.0, 0.5), WeightProfile::tfrc(4), c);
            let ratio = aimd.loss_event_rate() / ebrc.measured_loss_event_rate(3_000);
            assert_rel(ratio, 16.0 / 9.0, 2e-2);
        }
    }
}
