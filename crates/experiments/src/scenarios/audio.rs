//! Figure 6's audio scenario: a fixed-clock, variable-length audio
//! sender through a Bernoulli dropper into a TFRC receiver, with the
//! feedback straight back to the sender.

use super::Scenario;
use crate::spec::SpecOutput;
use ebrc_core::weights::WeightProfile;
use ebrc_dist::Rng;
use ebrc_net::{BernoulliDropper, FlowId, NetEvent};
use ebrc_sim::{ComponentId, Engine};
use ebrc_tfrc::audio::TIMER_START;
use ebrc_tfrc::{AudioTfrcSender, FormulaKind, RttMode, TfrcReceiver, TfrcReceiverConfig};
use ebrc_trace::PerfettoSink;

/// A built audio run; it starts sending at t = 0, so its measurement
/// window is `(0, duration)`.
pub(crate) struct AudioRun {
    engine: Engine<NetEvent>,
    formula: FormulaKind,
    snd: ComponentId,
    drop: ComponentId,
    rcv: ComponentId,
}

impl AudioRun {
    /// Wires sender → dropper (drop probability `p_drop`, seeded by
    /// `seed`) → receiver (estimator window `window`) → sender.
    pub(crate) fn build(p_drop: f64, formula: FormulaKind, window: usize, seed: u64) -> Self {
        let mut engine: Engine<NetEvent> = Engine::new();
        let flow = FlowId(1);
        let tick = 0.02;
        let snd = engine.add(Box::new(AudioTfrcSender::new(
            flow,
            tick,
            500.0,
            formula,
            RttMode::Fixed(1.0),
            30.0,
        )));
        let dropper = BernoulliDropper::new(p_drop, Rng::seed_from(seed));
        let drop = engine.add(Box::new(dropper));
        let rcv = engine.add(Box::new(TfrcReceiver::new(
            flow,
            TfrcReceiverConfig {
                weights: WeightProfile::tfrc(window),
                rtt: tick / 2.0,
                comprehensive: false,
                feedback_period: 5.0 * tick,
                formula,
            },
        )));
        engine.get_mut::<AudioTfrcSender>(snd).set_next_hop(drop);
        engine.get_mut::<BernoulliDropper>(drop).set_next_hop(rcv);
        engine.get_mut::<TfrcReceiver>(rcv).set_reverse_hop(snd);
        engine.schedule(0.0, snd, NetEvent::Timer(TIMER_START));
        Self {
            engine,
            formula,
            snd,
            drop,
            rcv,
        }
    }
}

impl Scenario for AudioRun {
    /// The sender's rate average covers the whole run, so nothing is
    /// captured at the (zero-length) warm-up's end.
    type Snapshot = ();
    type Measurements = SpecOutput;

    fn engine_mut(&mut self) -> &mut Engine<NetEvent> {
        &mut self.engine
    }

    fn snapshot(&self) {}

    /// `(measured p, normalized throughput, cv²[θ̂])` over `[0, span]`.
    fn measurements_since(&self, _: &(), span: f64) -> SpecOutput {
        let s: &AudioTfrcSender = self.engine.get(self.snd);
        let r: &TfrcReceiver = self.engine.get(self.rcv);
        let p = r.loss_event_rate();
        let normalized = if p > 0.0 {
            s.rate_time_average_until(span) / self.formula.rate(p, 1.0)
        } else {
            0.0
        };
        SpecOutput::Scalars(vec![p, normalized, r.theta_hat_moments().cv_squared()])
    }

    fn install_tracer(&mut self) {
        let mut sink = PerfettoSink::new(ebrc_net::net_event_name);
        sink.register(self.snd, "audio-snd");
        sink.register(self.drop, "dropper");
        sink.register(self.rcv, "tfrc-rcv");
        self.engine.set_tracer(Box::new(sink));
    }
}
