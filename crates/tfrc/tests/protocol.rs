//! Protocol-level integration tests of the TFRC endpoints.

use ebrc_core::weights::WeightProfile;
use ebrc_dist::Rng;
use ebrc_net::{BernoulliDropper, DelayBox, FlowId, NetEvent};
use ebrc_sim::Engine;
use ebrc_tfrc::{FormulaKind, TfrcReceiver, TfrcReceiverConfig, TfrcSender, TfrcSenderConfig};

/// A direct sender → dropper → receiver → sender loop with symmetric
/// delay.
fn pipeline(
    p_drop: f64,
    rtt: f64,
    cfg: TfrcSenderConfig,
    comprehensive: bool,
    seed: u64,
) -> (
    Engine<NetEvent>,
    ebrc_sim::ComponentId,
    ebrc_sim::ComponentId,
) {
    let mut eng: Engine<NetEvent> = Engine::new();
    let flow = FlowId(1);
    let snd = eng.add(Box::new(TfrcSender::new(flow, cfg)));
    let drop = eng.add(Box::new(BernoulliDropper::new(
        p_drop,
        Rng::seed_from(seed),
    )));
    let fwd = eng.add(Box::new(DelayBox::new(rtt / 2.0)));
    let rcv = eng.add(Box::new(TfrcReceiver::new(
        flow,
        TfrcReceiverConfig {
            weights: WeightProfile::tfrc(8),
            rtt,
            comprehensive,
            feedback_period: rtt,
            formula: FormulaKind::PftkSimplified,
        },
    )));
    let rev = eng.add(Box::new(DelayBox::new(rtt / 2.0)));
    eng.get_mut::<TfrcSender>(snd).set_next_hop(drop);
    eng.get_mut::<BernoulliDropper>(drop).set_next_hop(fwd);
    eng.get_mut::<DelayBox>(fwd).set_next_hop(rcv);
    eng.get_mut::<TfrcReceiver>(rcv).set_reverse_hop(rev);
    eng.get_mut::<DelayBox>(rev).set_next_hop(snd);
    eng.schedule(0.0, snd, NetEvent::Timer(ebrc_tfrc::sender::TIMER_START));
    (eng, snd, rcv)
}

#[test]
fn comprehensive_outruns_basic_between_loss_events() {
    // Same loss pattern, comprehensive on vs off: the comprehensive
    // control's rate rises during quiet stretches, so its long-run
    // throughput is at least the basic one's (Proposition 2 at protocol
    // level — allow noise since the loss sample paths diverge once the
    // rates do).
    let rtt = 0.04;
    let run = |comprehensive| {
        let cfg = TfrcSenderConfig::analysis(FormulaKind::PftkSimplified, rtt);
        let (mut eng, snd, _) = pipeline(0.02, rtt, cfg, comprehensive, 11);
        eng.run_until(400.0);
        let s: &TfrcSender = eng.get(snd);
        s.throughput(400.0)
    };
    let basic = run(false);
    let comp = run(true);
    assert!(
        comp > basic * 0.9,
        "comprehensive {comp} well below basic {basic}"
    );
}

#[test]
fn perceived_loss_rate_tracks_dropper() {
    let rtt = 0.04;
    let cfg = TfrcSenderConfig::analysis(FormulaKind::PftkSimplified, rtt);
    let (mut eng, _, rcv) = pipeline(0.03, rtt, cfg, true, 12);
    eng.run_until(600.0);
    let r: &TfrcReceiver = eng.get(rcv);
    let measured = r.loss_event_rate();
    let avg_interval = r.current_avg_interval();
    assert!(measured > 0.0);
    assert!(avg_interval.is_finite(), "no loss event in 600 s");
    let perceived = 1.0 / avg_interval;
    // Protocol estimate and measured event rate agree within 3× (the
    // weighted average responds to recent history, the measurement is a
    // long-run mean).
    let ratio = perceived / measured;
    assert!((0.3..3.0).contains(&ratio), "perceived/measured = {ratio}");
}

#[test]
fn cov_rate_duration_negative_for_reactive_loop() {
    // Through a *fixed* Bernoulli dropper the inter-event time is
    // inversely proportional to the send rate (S ≈ θ/X with θ
    // independent of X), so cov[X0, S0] < 0 — the (C2) regime where
    // Theorem 2's first part guarantees conservativeness for SQRT.
    let rtt = 0.04;
    let cfg = TfrcSenderConfig::analysis(FormulaKind::Sqrt, rtt);
    let (mut eng, snd, _) = pipeline(0.05, rtt, cfg, true, 13);
    eng.run_until(800.0);
    let s: &TfrcSender = eng.get(snd);
    assert!(s.stats().loss_events > 100, "too few events");
    assert!(
        s.cov_rate_duration() < 0.0,
        "cov[X,S] = {} should be negative",
        s.cov_rate_duration()
    );
}

#[test]
fn rtt_mode_fixed_vs_measured_rates_differ_when_srtt_differs() {
    // Fixed-RTT mode must ignore the measured RTT entirely.
    let rtt = 0.08;
    let fixed = TfrcSenderConfig::analysis(FormulaKind::PftkSimplified, 0.02);
    let (mut eng, snd, rcv) = pipeline(0.02, rtt, fixed, true, 14);
    eng.run_until(300.0);
    let s: &TfrcSender = eng.get(snd);
    // The formula runs at the (much smaller) fixed RTT, so the rate is
    // far above what the measured path RTT would give.
    let avg_interval = eng.get::<TfrcReceiver>(rcv).current_avg_interval();
    assert!(avg_interval.is_finite(), "no loss event in 300 s");
    let p = (1.0 / avg_interval).max(1e-4);
    let at_fixed = FormulaKind::PftkSimplified.rate(p, 0.02);
    let at_measured = FormulaKind::PftkSimplified.rate(p, s.srtt().unwrap());
    assert!(at_fixed > at_measured * 2.0);
    assert!(
        s.rate() > at_measured,
        "rate {} should reflect the fixed RTT, not the path",
        s.rate()
    );
}

#[test]
fn deterministic_replay() {
    let rtt = 0.05;
    let run = || {
        let cfg = TfrcSenderConfig::standard(rtt);
        let (mut eng, snd, rcv) = pipeline(0.04, rtt, cfg, true, 15);
        eng.run_until(120.0);
        let s: &TfrcSender = eng.get(snd);
        let r: &TfrcReceiver = eng.get(rcv);
        (s.stats().packets_sent, r.events(), s.rate())
    };
    assert_eq!(run(), run());
}
