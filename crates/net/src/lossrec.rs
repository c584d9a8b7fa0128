//! Loss-event bookkeeping shared by all endpoints.
//!
//! The paper (and TFRC) distinguish packet *losses* from loss *events*:
//! all losses within one round-trip time of the first belong to the same
//! event. Every protocol endpoint measures its loss-event rate `p` the
//! same way, so the grouping logic lives here:
//!
//! * feed each detected loss with the current time and the cumulative
//!   count of packets the flow has sent;
//! * the recorder opens a new event iff the loss falls at least one RTT
//!   after the start of the previous event.

/// Groups packet losses into loss events and counts them.
#[derive(Debug, Clone)]
pub struct LossEventRecorder {
    rtt: f64,
    current_event_start: Option<f64>,
    events: u64,
}

impl LossEventRecorder {
    /// A recorder that coalesces losses within `rtt` seconds.
    ///
    /// # Panics
    /// Panics if `rtt` is not positive.
    pub fn new(rtt: f64) -> Self {
        assert!(rtt > 0.0, "rtt must be positive");
        Self {
            rtt,
            current_event_start: None,
            events: 0,
        }
    }

    /// Updates the RTT used for coalescing (endpoints refine their RTT
    /// estimate over time).
    ///
    /// # Panics
    /// Panics if `rtt` is not positive.
    pub fn set_rtt(&mut self, rtt: f64) {
        assert!(rtt > 0.0, "rtt must be positive");
        self.rtt = rtt;
    }

    /// Records a packet loss detected at `now`. Returns `true` when the
    /// loss starts a **new** loss event.
    pub fn on_loss(&mut self, now: f64) -> bool {
        if self
            .current_event_start
            .is_some_and(|start| now < start + self.rtt)
        {
            return false; // same event: coalesce
        }
        self.current_event_start = Some(now);
        self.events += 1;
        true
    }

    /// Number of loss events seen (including the one still open).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Loss-event rate `p = events / packets_sent` over the whole run —
    /// the paper's per-packet event rate.
    ///
    /// Returns 0 before any packet is sent.
    pub fn loss_event_rate(&self, packets_sent: u64) -> f64 {
        if packets_sent == 0 {
            0.0
        } else {
            self.events as f64 / packets_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn losses_within_rtt_coalesce() {
        let mut r = LossEventRecorder::new(0.1);
        assert!(r.on_loss(1.0));
        assert!(!r.on_loss(1.05));
        assert!(!r.on_loss(1.09));
        assert!(r.on_loss(1.2));
        assert_eq!(r.events(), 2);
    }

    #[test]
    fn loss_event_rate_per_packet() {
        let mut r = LossEventRecorder::new(0.01);
        r.on_loss(0.0);
        r.on_loss(1.0);
        assert!((r.loss_event_rate(200) - 0.01).abs() < 1e-12);
        assert_eq!(r.loss_event_rate(0), 0.0);
    }

    #[test]
    fn rtt_update_changes_coalescing() {
        let mut r = LossEventRecorder::new(1.0);
        r.on_loss(0.0);
        assert!(!r.on_loss(0.5)); // within 1s window
        r.set_rtt(0.1);
        assert!(r.on_loss(0.7)); // beyond the updated window
    }
}
