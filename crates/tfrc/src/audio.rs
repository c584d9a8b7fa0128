//! The audio sender of Section V-C: fixed packet clock, variable packet
//! length.
//!
//! An adaptive audio application (the paper cites Boutremans &
//! Le Boudec) keeps its packet *rate* fixed — one packet every 20 ms —
//! and applies equation-based control to the packet *lengths*. Through a
//! length-independent Bernoulli dropper, the time to the next loss event
//! is then independent of the send rate: `cov[X0, S0] = 0`, the exact
//! hypothesis of Claim 2 / Theorem 2, and the regime of Figure 6 where
//! PFTK formulas turn non-conservative under heavy loss while SQRT stays
//! conservative.

use crate::formula_kind::{FormulaKind, RttMode};
use crate::law::{RateLaw, RateState};
use ebrc_net::{FlowId, NetEvent, Packet, Report};
use ebrc_sim::{Component, ComponentId, Context};
use ebrc_stats::PiecewiseConstant;

const TIMER_TICK: u64 = 1;
/// The "start sending" kick; schedule this from the harness at the
/// flow's start time.
pub const TIMER_START: u64 = 0;

/// Fixed-clock sender with equation-controlled packet lengths.
///
/// The control variable `X` is a *rate* in nominal-packets/second; each
/// tick the sender emits one wire packet whose length encodes
/// `X · tick` nominal packets worth of data. Loss intervals are counted
/// in wire packets (each tick is one sample of the loss process), which
/// is exactly the paper's Figure 6 setup.
pub struct AudioTfrcSender {
    flow: FlowId,
    tick: f64,
    nominal_packet_bytes: f64,
    law: RateLaw,
    rtt_mode: RttMode,
    next_hop: Option<ComponentId>,
    state: RateState,
    srtt: Option<f64>,
    seq: u64,
    started: bool,
    packets_sent: u64,
    rate_trajectory: PiecewiseConstant,
    last_rate_change: f64,
}

impl AudioTfrcSender {
    /// A sender emitting one packet every `tick` seconds; `X` starts at
    /// `initial_rate` nominal packets/second.
    ///
    /// # Panics
    /// Panics unless tick, nominal size, and initial rate are positive.
    pub fn new(
        flow: FlowId,
        tick: f64,
        nominal_packet_bytes: f64,
        formula: FormulaKind,
        rtt_mode: RttMode,
        initial_rate: f64,
    ) -> Self {
        assert!(tick > 0.0, "tick must be positive");
        assert!(nominal_packet_bytes > 0.0, "nominal size must be positive");
        Self {
            flow,
            tick,
            nominal_packet_bytes,
            law: RateLaw::new(formula, 0.1, 1e9),
            rtt_mode,
            next_hop: None,
            state: RateState::new(initial_rate),
            srtt: None,
            seq: 0,
            started: false,
            packets_sent: 0,
            rate_trajectory: PiecewiseConstant::new(),
            last_rate_change: 0.0,
        }
    }

    /// Wires the first hop of the forward path.
    pub fn set_next_hop(&mut self, id: ComponentId) {
        self.next_hop = Some(id);
    }

    /// Wire packets emitted.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Current control rate `X` (nominal packets/second).
    pub fn rate(&self) -> f64 {
        self.state.rate
    }

    /// The rate trajectory with its open segment closed at `now`.
    fn trajectory_until(&self, now: f64) -> PiecewiseConstant {
        let mut trajectory = self.rate_trajectory;
        if self.started {
            trajectory.push(self.state.rate, (now - self.last_rate_change).max(0.0));
        }
        trajectory
    }

    /// Time-average `E[X(0)]` of the control rate over `[0, now]` — the
    /// numerator of Figure 6's normalized throughput. Reads only: the
    /// open segment is closed on a copy.
    pub fn rate_time_average_until(&self, now: f64) -> f64 {
        self.trajectory_until(now).time_average()
    }

    fn tick_send(&mut self, now: f64, ctx: &mut Context<NetEvent>) {
        let hop = self.next_hop.expect("audio sender not wired");
        // Length encodes the current rate; at least 1 byte on the wire.
        let size = (self.state.rate * self.tick * self.nominal_packet_bytes)
            .round()
            .clamp(1.0, u32::MAX as f64) as u32;
        ctx.send(
            0.0,
            hop,
            NetEvent::Packet(Packet::data(self.flow, self.seq, size, now)),
        );
        self.seq += 1;
        self.packets_sent += 1;
        ctx.send_self(self.tick, NetEvent::Timer(TIMER_TICK));
    }
}

impl Component<NetEvent> for AudioTfrcSender {
    fn handle(&mut self, now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        match event {
            NetEvent::Timer(TIMER_START) if !self.started => {
                self.started = true;
                self.last_rate_change = now;
                self.tick_send(now, ctx);
            }
            NetEvent::Timer(TIMER_TICK) if self.started => {
                self.tick_send(now, ctx);
            }
            NetEvent::Packet(pkt) => {
                if let Some(Report::Feedback(fb)) = pkt.report.as_deref() {
                    if !self.started {
                        return;
                    }
                    let sample = now - fb.echo_ts;
                    if sample > 0.0 && sample.is_finite() {
                        self.srtt = Some(match self.srtt {
                            None => sample,
                            Some(s) => 0.9 * s + 0.1 * sample,
                        });
                    }
                    // Close the trajectory segment at the old rate.
                    self.rate_trajectory = self.trajectory_until(now);
                    self.last_rate_change = now;
                    let rtt = self.rtt_mode.rtt(self.srtt, self.tick);
                    // Byte-based: the wire packets have variable length.
                    let recv_rate = fb.x_recv_bytes / self.nominal_packet_bytes;
                    self.law
                        .apply(&mut self.state, fb.avg_interval, rtt, recv_rate);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{TfrcReceiver, TfrcReceiverConfig};
    use ebrc_core::weights::WeightProfile;
    use ebrc_dist::Rng;
    use ebrc_net::BernoulliDropper;
    use ebrc_sim::Engine;

    /// Audio sender → Bernoulli dropper → TFRC receiver, feedback direct.
    fn audio_scenario(
        p_drop: f64,
        formula: FormulaKind,
        window: usize,
        seed: u64,
    ) -> (
        Engine<NetEvent>,
        ebrc_sim::ComponentId,
        ebrc_sim::ComponentId,
    ) {
        let mut eng: Engine<NetEvent> = Engine::new();
        let flow = FlowId(1);
        let tick = 0.02;
        let snd = eng.add(Box::new(AudioTfrcSender::new(
            flow,
            tick,
            500.0,
            formula,
            RttMode::Fixed(1.0),
            30.0,
        )));
        let drop = eng.add(Box::new(BernoulliDropper::new(
            p_drop,
            Rng::seed_from(seed),
        )));
        let rcv = eng.add(Box::new(TfrcReceiver::new(
            flow,
            TfrcReceiverConfig {
                weights: WeightProfile::tfrc(window),
                // Coalescing window below the tick: every dropped wire
                // packet is its own loss event (θ ~ geometric). Feedback
                // spans several ticks so x_recv is meaningful.
                rtt: tick / 2.0,
                comprehensive: false,
                feedback_period: 5.0 * tick,
                formula,
            },
        )));
        eng.get_mut::<AudioTfrcSender>(snd).set_next_hop(drop);
        eng.get_mut::<BernoulliDropper>(drop).set_next_hop(rcv);
        eng.get_mut::<TfrcReceiver>(rcv).set_reverse_hop(snd);
        eng.schedule(0.0, snd, NetEvent::Timer(TIMER_START));
        (eng, snd, rcv)
    }

    #[test]
    fn packet_clock_is_fixed_regardless_of_rate() {
        let (mut eng, snd, _) = audio_scenario(0.1, FormulaKind::Sqrt, 4, 1);
        eng.run_until(100.0);
        let s: &AudioTfrcSender = eng.get(snd);
        // 100 s / 20 ms = 5000 ticks, independent of the rate dynamics.
        assert!(
            (s.packets_sent() as i64 - 5000).abs() < 3,
            "{}",
            s.packets_sent()
        );
    }

    #[test]
    fn measured_loss_event_rate_matches_dropper() {
        let (mut eng, _, rcv) = audio_scenario(0.08, FormulaKind::Sqrt, 4, 2);
        eng.run_until(2_000.0);
        let r: &TfrcReceiver = eng.get(rcv);
        let p = r.loss_event_rate();
        assert!((p - 0.08).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn sqrt_is_conservative_in_audio_mode() {
        // Claim 2, first bullet: f(1/x) concave (SQRT) + cov[X,S] = 0 ⇒
        // conservative: E[X]/f(p) ≤ 1 (within noise).
        let (mut eng, snd, rcv) = audio_scenario(0.15, FormulaKind::Sqrt, 4, 3);
        eng.run_until(4_000.0);
        let s: &AudioTfrcSender = eng.get(snd);
        let r: &TfrcReceiver = eng.get(rcv);
        let p = r.loss_event_rate();
        let normalized = s.rate_time_average_until(4_000.0) / FormulaKind::Sqrt.rate(p, 1.0);
        assert!(normalized <= 1.02, "normalized {normalized}");
        assert!(normalized > 0.7, "unreasonably conservative: {normalized}");
    }

    #[test]
    fn pftk_overshoots_under_heavy_loss_in_audio_mode() {
        // Claim 2, second bullet: f(1/x) strictly convex where θ̂ lives
        // (heavy loss, PFTK) + cov[X,S] = 0 ⇒ non-conservative.
        let (mut eng, snd, rcv) = audio_scenario(0.22, FormulaKind::PftkSimplified, 4, 4);
        eng.run_until(4_000.0);
        let s: &AudioTfrcSender = eng.get(snd);
        let r: &TfrcReceiver = eng.get(rcv);
        let p = r.loss_event_rate();
        let normalized =
            s.rate_time_average_until(4_000.0) / FormulaKind::PftkSimplified.rate(p, 1.0);
        assert!(normalized > 1.0, "expected overshoot, got {normalized}");
        assert!(normalized < 1.5, "implausibly large overshoot {normalized}");
    }
}
