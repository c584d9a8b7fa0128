//! Time averages of piecewise-constant trajectories.
//!
//! The paper's central tool is the Palm inversion formula (Equation 14):
//!
//! ```text
//! E[X(0)] = λ · E0_N [ ∫_0^{T1} X(s) ds ]
//! ```
//!
//! i.e. the *time* average of a process equals the loss-event intensity
//! times the *event* average of the per-cycle integral. The "viewpoint
//! matters" discussion (Feller / bus-stop paradox) in Section III-B.2 is
//! exactly the gap between [`PiecewiseConstant::time_average`] and a
//! plain mean over event instants: a random time observer over-samples
//! long inter-loss intervals.

/// Time-average accumulator for a piecewise-constant trajectory.
///
/// The send-rate process `X(t)` of the basic control is constant between
/// loss events, so its time average over `[0, T)` is the duration-weighted
/// mean of the segment values. The comprehensive control is piecewise
/// smooth; callers feed it as fine-grained segments.
#[derive(Debug, Clone, Copy, Default)]
pub struct PiecewiseConstant {
    weighted_sum: f64,
    total_time: f64,
}

impl PiecewiseConstant {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a segment of `duration` seconds during which the process
    /// held `value`. Zero-duration segments are ignored; negative
    /// durations are a caller bug.
    ///
    /// # Panics
    /// Panics if `duration` is negative or NaN.
    pub fn push(&mut self, value: f64, duration: f64) {
        assert!(duration >= 0.0, "segment duration must be non-negative");
        if duration == 0.0 {
            return;
        }
        self.weighted_sum += value * duration;
        self.total_time += duration;
    }

    /// Time average `E[X(0)]` over all recorded segments; 0 if no time has
    /// been recorded.
    pub fn time_average(&self) -> f64 {
        if self.total_time == 0.0 {
            0.0
        } else {
            self.weighted_sum / self.total_time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn time_average_weights_by_duration() {
        let mut pc = PiecewiseConstant::new();
        pc.push(10.0, 1.0);
        pc.push(0.0, 9.0);
        assert_close(pc.time_average(), 1.0, 1e-12);
    }

    #[test]
    fn zero_duration_segments_ignored() {
        let mut pc = PiecewiseConstant::new();
        pc.push(f64::INFINITY, 0.0);
        assert_eq!(pc.time_average(), 0.0);
        pc.push(2.0, 1.0);
        assert_eq!(pc.time_average(), 2.0);
    }

    #[test]
    fn feller_paradox_direction() {
        // Rate high during short intervals, low during long ones: the time
        // average must be below the event average of the rates.
        let mut pc = PiecewiseConstant::new();
        for _ in 0..100 {
            pc.push(10.0, 0.1); // high rate, short interval
            pc.push(1.0, 1.0); // low rate, long interval
        }
        let event_average = (10.0 + 1.0) / 2.0;
        assert!(pc.time_average() < event_average);
    }

    #[test]
    fn palm_inversion_on_synthetic_cycles() {
        // X = 3 on cycles of length 2, X = 1 on cycles of length 4: the
        // time average is E0[∫ cycle X] / E0[S0] = (6 + 4) / (2 + 4).
        let mut pc = PiecewiseConstant::new();
        for _ in 0..10 {
            pc.push(3.0, 2.0);
            pc.push(1.0, 4.0);
        }
        assert_close(pc.time_average(), 10.0 / 6.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let mut pc = PiecewiseConstant::new();
        pc.push(1.0, -1.0);
    }
}
