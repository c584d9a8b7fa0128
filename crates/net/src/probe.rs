//! Non-adaptive probe traffic: Poisson and CBR senders, and a sink that
//! measures the loss-event rate they experience.
//!
//! Figure 7 compares the loss-event rates of TFRC (`p`), TCP (`p'`) and a
//! non-adaptive Poisson source (`p''`): the Poisson probe samples the
//! "network" loss-event rate without reacting to it, so `p''` upper
//! bounds both (Claim 3).

use crate::lossrec::LossEventRecorder;
use crate::packet::{FlowId, NetEvent, Packet};
use ebrc_dist::Rng;
use ebrc_sim::{Component, ComponentId, Context};

const TIMER_SEND: u64 = 1;

/// Sends fixed-size packets with exponential inter-departure times.
///
/// Kick it off by scheduling `NetEvent::Timer(1)` at the start time.
pub struct PoissonSender {
    flow: FlowId,
    rate_pps: f64,
    packet_size: u32,
    next_hop: Option<ComponentId>,
    rng: Rng,
    seq: u64,
    t_stop: f64,
}

impl PoissonSender {
    /// A sender emitting `rate_pps` packets/second on average until
    /// `t_stop`.
    ///
    /// # Panics
    /// Panics unless rate and size are positive.
    pub fn new(flow: FlowId, rate_pps: f64, packet_size: u32, t_stop: f64, rng: Rng) -> Self {
        assert!(rate_pps > 0.0, "rate must be positive");
        assert!(packet_size > 0, "packet size must be positive");
        Self {
            flow,
            rate_pps,
            packet_size,
            next_hop: None,
            rng,
            seq: 0,
            t_stop,
        }
    }

    /// Wires the first hop.
    pub fn set_next_hop(&mut self, id: ComponentId) {
        self.next_hop = Some(id);
    }

    /// Packets emitted so far.
    pub fn sent(&self) -> u64 {
        self.seq
    }
}

impl Component<NetEvent> for PoissonSender {
    fn handle(&mut self, now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        if let NetEvent::Timer(TIMER_SEND) = event {
            if now > self.t_stop {
                return;
            }
            let next = self.next_hop.expect("poisson sender not wired");
            ctx.send(
                0.0,
                next,
                NetEvent::Packet(Packet::data(self.flow, self.seq, self.packet_size, now)),
            );
            self.seq += 1;
            let gap = -self.rng.uniform_open().ln() / self.rate_pps;
            ctx.send_self(gap, NetEvent::Timer(TIMER_SEND));
        }
    }
}

/// Sends fixed-size packets at a constant bit rate (fixed period).
///
/// Kick it off by scheduling `NetEvent::Timer(1)` at the start time.
pub struct CbrSender {
    flow: FlowId,
    period: f64,
    packet_size: u32,
    next_hop: Option<ComponentId>,
    seq: u64,
    t_stop: f64,
}

impl CbrSender {
    /// A sender emitting one packet every `period` seconds until
    /// `t_stop`.
    ///
    /// # Panics
    /// Panics unless period and size are positive.
    pub fn new(flow: FlowId, period: f64, packet_size: u32, t_stop: f64) -> Self {
        assert!(period > 0.0, "period must be positive");
        assert!(packet_size > 0, "packet size must be positive");
        Self {
            flow,
            period,
            packet_size,
            next_hop: None,
            seq: 0,
            t_stop,
        }
    }

    /// Wires the first hop.
    pub fn set_next_hop(&mut self, id: ComponentId) {
        self.next_hop = Some(id);
    }

    /// Packets emitted so far.
    pub fn sent(&self) -> u64 {
        self.seq
    }
}

impl Component<NetEvent> for CbrSender {
    fn handle(&mut self, now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        if let NetEvent::Timer(TIMER_SEND) = event {
            if now > self.t_stop {
                return;
            }
            let next = self.next_hop.expect("cbr sender not wired");
            ctx.send(
                0.0,
                next,
                NetEvent::Packet(Packet::data(self.flow, self.seq, self.packet_size, now)),
            );
            self.seq += 1;
            ctx.send_self(self.period, NetEvent::Timer(TIMER_SEND));
        }
    }
}

/// Receives probe packets in order and measures the loss-event rate from
/// sequence gaps.
///
/// The network is FIFO, so a jump in sequence numbers means the skipped
/// packets were dropped; each run of losses is fed to a
/// [`LossEventRecorder`] which coalesces within one RTT.
pub struct ProbeSink {
    expected_seq: u64,
    received: u64,
    recorder: LossEventRecorder,
}

impl ProbeSink {
    /// A sink coalescing losses within `rtt`.
    pub fn new(rtt: f64) -> Self {
        Self {
            expected_seq: 0,
            received: 0,
            recorder: LossEventRecorder::new(rtt),
        }
    }

    /// Packets received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Highest sequence number seen plus one ≈ packets sent by the probe.
    pub fn inferred_sent(&self) -> u64 {
        self.expected_seq
    }

    /// The loss-event rate `p''` experienced by the probe.
    pub fn loss_event_rate(&self) -> f64 {
        self.recorder.loss_event_rate(self.inferred_sent())
    }

    /// The underlying loss-event recorder.
    pub fn recorder(&self) -> &LossEventRecorder {
        &self.recorder
    }
}

impl Component<NetEvent> for ProbeSink {
    fn handle(&mut self, now: f64, event: NetEvent, _ctx: &mut Context<NetEvent>) {
        if let NetEvent::Packet(pkt) = event {
            if pkt.seq > self.expected_seq {
                // Skipped sequence numbers are lost packets; all of them
                // are detected now, so they form at most one loss event.
                self.recorder.on_loss(now);
            }
            self.received += 1;
            self.expected_seq = pkt.seq + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dropper::BernoulliDropper;
    use crate::sink::Sink;
    use ebrc_sim::Engine;

    #[test]
    fn poisson_rate_converges() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let src = eng.add(Box::new(PoissonSender::new(
            FlowId(1),
            100.0,
            100,
            100.0,
            Rng::seed_from(1),
        )));
        let sink = eng.add(Box::new(Sink::counting_only()));
        eng.get_mut::<PoissonSender>(src).set_next_hop(sink);
        eng.schedule(0.0, src, NetEvent::Timer(1));
        eng.run_until(100.0);
        let n = eng.get::<Sink>(sink).count();
        assert!((n as f64 - 10_000.0).abs() < 400.0, "sent {n}");
    }

    #[test]
    fn cbr_is_exactly_periodic() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let src = eng.add(Box::new(CbrSender::new(FlowId(1), 0.02, 100, 1.0)));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<CbrSender>(src).set_next_hop(sink);
        eng.schedule(0.0, src, NetEvent::Timer(1));
        eng.run_until(1.0);
        let s: &Sink = eng.get(sink);
        // t = 0.00, 0.02, …, 1.00 — 51 emissions, 50 if accumulated
        // floating-point error pushes the last tick past t_stop.
        assert!((50..=51).contains(&s.count()), "count {}", s.count());
        for w in s.arrivals.windows(2) {
            assert!((w[1].0 - w[0].0 - 0.02).abs() < 1e-9);
        }
    }

    #[test]
    fn probe_sink_measures_bernoulli_loss_rate() {
        // CBR through a Bernoulli dropper with a period longer than the
        // coalescing RTT: every loss is its own event, so the loss-event
        // rate equals the drop probability.
        let mut eng: Engine<NetEvent> = Engine::new();
        let src = eng.add(Box::new(CbrSender::new(FlowId(1), 0.02, 100, 2000.0)));
        let drop = eng.add(Box::new(BernoulliDropper::new(0.05, Rng::seed_from(2))));
        let sink = eng.add(Box::new(ProbeSink::new(0.01)));
        eng.get_mut::<CbrSender>(src).set_next_hop(drop);
        eng.get_mut::<BernoulliDropper>(drop).set_next_hop(sink);
        eng.schedule(0.0, src, NetEvent::Timer(1));
        eng.run_until(2000.0);
        let s: &ProbeSink = eng.get(sink);
        assert!(s.inferred_sent() > 90_000);
        let p = s.loss_event_rate();
        assert!((p - 0.05).abs() < 0.005, "p'' = {p}");
    }

    #[test]
    fn probe_sink_no_losses_no_events() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let src = eng.add(Box::new(CbrSender::new(FlowId(1), 0.1, 100, 10.0)));
        let sink = eng.add(Box::new(ProbeSink::new(0.05)));
        eng.get_mut::<CbrSender>(src).set_next_hop(sink);
        eng.schedule(0.0, src, NetEvent::Timer(1));
        eng.run_until(10.0);
        let s: &ProbeSink = eng.get(sink);
        assert_eq!(s.recorder().events(), 0);
        assert_eq!(s.loss_event_rate(), 0.0);
    }
}
