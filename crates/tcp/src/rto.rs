//! Jacobson/Karels retransmission-timeout estimation.

/// RTO estimator: exponentially weighted RTT mean and deviation with
/// exponential backoff on timeouts (Karn's rule is the *caller's* duty:
/// never feed samples from retransmitted packets).
#[derive(Debug, Clone, Copy)]
pub struct RtoEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    min_rto: f64,
    max_rto: f64,
    backoff: u32,
}

impl RtoEstimator {
    /// Creates the estimator with RTO clamps (a 200 ms floor matches the
    /// Linux kernels of the paper's era; ns-2's default is similar).
    ///
    /// # Panics
    /// Panics unless `0 < min_rto < max_rto`.
    pub fn new(min_rto: f64, max_rto: f64) -> Self {
        assert!(min_rto > 0.0 && min_rto < max_rto, "bad RTO clamps");
        Self {
            srtt: None,
            rttvar: 0.0,
            min_rto,
            max_rto,
            backoff: 0,
        }
    }

    /// Feeds one RTT measurement (seconds) and resets the backoff.
    ///
    /// # Panics
    /// Panics on non-positive samples.
    pub fn sample(&mut self, rtt: f64) {
        assert!(rtt > 0.0, "RTT sample must be positive");
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2.0;
            }
            Some(srtt) => {
                let err = rtt - srtt;
                self.rttvar += (err.abs() - self.rttvar) / 4.0;
                self.srtt = Some(srtt + err / 8.0);
            }
        }
        self.backoff = 0;
    }

    /// Smoothed RTT, if at least one sample arrived.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// Current timeout: `(srtt + 4·rttvar) · 2^backoff`, clamped.
    /// Before any sample: `min(3 s · 2^backoff, max)` (the conventional
    /// initial RTO).
    pub fn rto(&self) -> f64 {
        let base = match self.srtt {
            Some(srtt) => (srtt + 4.0 * self.rttvar).max(self.min_rto),
            None => 3.0,
        };
        (base * f64::from(1u32 << self.backoff.min(16))).min(self.max_rto)
    }

    /// Doubles the timeout after a retransmission timeout.
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }

    /// Current backoff exponent.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_is_three_seconds() {
        let e = RtoEstimator::new(0.2, 60.0);
        assert_eq!(e.rto(), 3.0);
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_seeds_both_moments() {
        let mut e = RtoEstimator::new(0.2, 60.0);
        e.sample(0.1);
        assert_eq!(e.srtt(), Some(0.1));
        // rto = srtt + 4·(srtt/2) = 3·srtt.
        assert!((e.rto() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn constant_rtt_converges_to_floor() {
        let mut e = RtoEstimator::new(0.2, 60.0);
        for _ in 0..200 {
            e.sample(0.05);
        }
        // rttvar decays toward 0, so rto hits the 0.2 floor.
        assert!((e.rto() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn variance_widens_rto() {
        let mut e = RtoEstimator::new(0.2, 60.0);
        for i in 0..200 {
            e.sample(if i % 2 == 0 { 0.05 } else { 0.15 });
        }
        assert!(e.rto() > 0.25, "rto {}", e.rto());
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = RtoEstimator::new(0.2, 60.0);
        e.sample(0.1);
        let base = e.rto();
        e.on_timeout();
        assert!((e.rto() - 2.0 * base).abs() < 1e-12);
        e.on_timeout();
        assert!((e.rto() - 4.0 * base).abs() < 1e-12);
        assert_eq!(e.backoff(), 2);
        e.sample(0.1);
        assert_eq!(e.backoff(), 0);
    }

    #[test]
    fn rto_clamped_at_max() {
        let mut e = RtoEstimator::new(0.2, 10.0);
        e.sample(0.1);
        for _ in 0..10 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), 10.0);
    }
}
