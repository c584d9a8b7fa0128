//! TFRC receiver: loss-event detection and the average loss interval.

use crate::formula_kind::FormulaKind;
use ebrc_core::estimator::IntervalEstimator;
use ebrc_core::weights::WeightProfile;
use ebrc_net::{FeedbackInfo, FlowId, NetEvent, Packet, PacketKind};
use ebrc_sim::{Component, ComponentId, Context};
use ebrc_stats::{Covariance, Moments};

const FEEDBACK_SIZE: u32 = 40;
const TIMER_FEEDBACK: u64 = 1;

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct TfrcReceiverConfig {
    /// Estimator weights (TFRC profile of the chosen window `L`).
    pub weights: WeightProfile,
    /// Nominal RTT: coalescing window for loss events and the feedback
    /// period.
    pub rtt: f64,
    /// Include the open interval in the reported average when that
    /// increases it — the comprehensive control. The paper's lab
    /// experiments disabled this (basic control).
    pub comprehensive: bool,
    /// Interval between periodic feedback reports. Usually one RTT;
    /// scenarios with sub-RTT packet spacing (the audio mode) need a
    /// longer period so the receive-rate estimate is meaningful.
    pub feedback_period: f64,
    /// Formula used to seed the history at the *first* loss event
    /// (RFC 3448 §6.3.1 inverts the throughput equation at the measured
    /// receive rate; seeding with a raw packet count instead can start a
    /// flow thousands of times too slow after a congested start-up).
    pub formula: FormulaKind,
}

impl TfrcReceiverConfig {
    /// TFRC defaults: `L = 8`, comprehensive on.
    pub fn standard(rtt: f64) -> Self {
        Self {
            weights: WeightProfile::tfrc(8),
            rtt,
            comprehensive: true,
            feedback_period: rtt,
            formula: FormulaKind::PftkSimplified,
        }
    }
}

/// The receiving endpoint: tracks losses from sequence gaps (the
/// network is FIFO), groups them into loss events, maintains the last
/// `L` loss-event intervals, and reports the average interval plus the
/// receive rate once per RTT (and immediately on a new loss event).
pub struct TfrcReceiver {
    flow: FlowId,
    cfg: TfrcReceiverConfig,
    reverse_hop: Option<ComponentId>,
    expected_seq: u64,
    received: u64,
    received_since_fb: u64,
    bytes_since_fb: u64,
    last_fb_time: f64,
    start_time: f64,
    estimator: IntervalEstimator,
    history_len: usize,
    open_interval_start: u64, // seq at the start of the open interval
    last_event_time: f64,
    events: u64,
    last_echo_ts: f64,
    started: bool,
    // Ground-truth (θ_n, θ̂_n) pairs for the covariance statistics.
    cov: Covariance,
    intervals: Vec<f64>,
    theta_hat_moments: Moments,
}

impl TfrcReceiver {
    /// A receiver for `flow`.
    pub fn new(flow: FlowId, cfg: TfrcReceiverConfig) -> Self {
        let estimator = IntervalEstimator::new(cfg.weights.clone());
        Self {
            flow,
            cfg,
            reverse_hop: None,
            expected_seq: 0,
            received: 0,
            received_since_fb: 0,
            bytes_since_fb: 0,
            last_fb_time: 0.0,
            start_time: 0.0,
            estimator,
            history_len: 0,
            open_interval_start: 0,
            last_event_time: f64::NEG_INFINITY,
            events: 0,
            last_echo_ts: 0.0,
            started: false,
            cov: Covariance::new(),
            intervals: Vec::new(),
            theta_hat_moments: Moments::new(),
        }
    }

    /// Wires the first hop of the feedback path.
    pub fn set_reverse_hop(&mut self, id: ComponentId) {
        self.reverse_hop = Some(id);
    }

    /// Data packets received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Loss events observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Packets the sender must have emitted (highest seq + 1).
    pub fn inferred_sent(&self) -> u64 {
        self.expected_seq
    }

    /// Measured loss-event rate `p` = events per packet sent.
    pub fn loss_event_rate(&self) -> f64 {
        if self.expected_seq == 0 {
            0.0
        } else {
            self.events as f64 / self.expected_seq as f64
        }
    }

    /// Completed loss-event intervals `θ_n`.
    pub fn intervals(&self) -> &[f64] {
        &self.intervals
    }

    /// Empirical `cov[θ0, θ̂0]` over the run (condition (C1)).
    pub fn cov_theta_theta_hat(&self) -> f64 {
        self.cov.covariance()
    }

    /// Moments of the estimator values `θ̂_n` sampled at loss events —
    /// Figure 6 (bottom) plots their squared coefficient of variation.
    pub fn theta_hat_moments(&self) -> &Moments {
        &self.theta_hat_moments
    }

    /// The normalized covariance `cov[θ0, θ̂0]·p²` of Figures 5 and 10.
    pub fn normalized_covariance(&self) -> f64 {
        let p = self.loss_event_rate();
        self.cov.covariance() * p * p
    }

    /// The current average loss interval the receiver would report:
    /// `∞` before the first loss event.
    pub fn current_avg_interval(&self) -> f64 {
        if self.history_len == 0 {
            return f64::INFINITY;
        }
        let open = (self.expected_seq - self.open_interval_start) as f64;
        if self.history_len < self.estimator.window() {
            // Young history: plain average of what exists plus the open
            // interval, TFRC's bootstrap behaviour.
            let mut sum = open;
            let mut n = 1.0;
            for (i, v) in self.estimator.history().enumerate() {
                if i < self.history_len {
                    sum += v;
                    n += 1.0;
                }
            }
            return sum / n;
        }
        if self.cfg.comprehensive {
            self.estimator.virtual_estimate(open)
        } else {
            self.estimator.estimate()
        }
    }

    /// RFC 3448 §6.3.1: the synthetic first loss interval is the one
    /// that makes the equation yield the receive rate observed so far.
    fn first_interval_seed(&self, now: f64) -> f64 {
        let elapsed = (now - self.start_time).max(self.cfg.rtt);
        let x_recv = (self.received.max(1)) as f64 / elapsed;
        // Find θ with f(1/θ, rtt) = x_recv by bisection (f(1/θ) is
        // increasing in θ).
        let target = x_recv.max(0.1);
        let mut lo = 1.0_f64;
        let mut hi = 2.0_f64;
        while self.cfg.formula.rate(1.0 / hi, self.cfg.rtt) < target && hi < 1e9 {
            hi *= 2.0;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.cfg.formula.rate(1.0 / mid, self.cfg.rtt) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    fn on_loss_run(&mut self, now: f64) {
        // A gap was observed; does it open a new loss event?
        if now >= self.last_event_time + self.cfg.rtt {
            if self.events > 0 {
                // Close the previous interval.
                let theta = (self.expected_seq - self.open_interval_start) as f64;
                if self.history_len >= self.estimator.window() {
                    let est = self.estimator.estimate();
                    self.cov.push(theta, est);
                    self.theta_hat_moments.push(est);
                }
                self.intervals.push(theta);
                self.estimator.push(theta);
                self.history_len = (self.history_len + 1).min(self.estimator.window());
            }
            self.open_interval_start = self.expected_seq;
            self.last_event_time = now;
            self.events += 1;
            if self.history_len == 0 && self.events == 1 {
                // First event: seed per RFC 3448 from the receive rate.
                let seed = self.first_interval_seed(now);
                self.estimator.seed(seed);
                self.history_len = 1;
            }
        }
    }

    fn emit_feedback(&mut self, now: f64, ctx: &mut Context<NetEvent>) {
        let hop = self.reverse_hop.expect("tfrc receiver not wired");
        let elapsed = (now - self.last_fb_time).max(1e-9);
        let x_recv = self.received_since_fb as f64 / elapsed;
        // Echo a timestamp only when this window actually saw data: a
        // stale echo would make the sender log a bogus multi-second RTT
        // whenever its packets are sparse or being dropped.
        let echo_ts = if self.received_since_fb > 0 {
            self.last_echo_ts
        } else {
            f64::NAN
        };
        let info = FeedbackInfo {
            avg_interval: self.current_avg_interval(),
            x_recv,
            x_recv_bytes: self.bytes_since_fb as f64 / elapsed,
            echo_ts,
            events: self.events,
        };
        self.received_since_fb = 0;
        self.bytes_since_fb = 0;
        self.last_fb_time = now;
        ctx.send(
            0.0,
            hop,
            NetEvent::Packet(Packet {
                flow: self.flow,
                seq: 0,
                size: FEEDBACK_SIZE,
                kind: PacketKind::Feedback(Box::new(info)),
                sent_at: now,
            }),
        );
    }
}

impl Component<NetEvent> for TfrcReceiver {
    fn handle(&mut self, now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        match event {
            NetEvent::Packet(pkt) if pkt.is_data() => {
                if !self.started {
                    self.started = true;
                    self.last_fb_time = now;
                    self.start_time = now;
                    ctx.send_self(self.cfg.feedback_period, NetEvent::Timer(TIMER_FEEDBACK));
                }
                let new_event_possible = pkt.seq > self.expected_seq;
                if new_event_possible {
                    // The skipped packets were dropped upstream.
                    self.on_loss_run(now);
                }
                self.received += 1;
                self.received_since_fb += 1;
                self.bytes_since_fb += pkt.size as u64;
                self.last_echo_ts = pkt.sent_at;
                if pkt.seq >= self.expected_seq {
                    self.expected_seq = pkt.seq + 1;
                }
                if new_event_possible && now == self.last_event_time {
                    // New loss event: report immediately (RFC 3448).
                    self.emit_feedback(now, ctx);
                }
            }
            NetEvent::Timer(TIMER_FEEDBACK) => {
                self.emit_feedback(now, ctx);
                ctx.send_self(self.cfg.feedback_period, NetEvent::Timer(TIMER_FEEDBACK));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebrc_net::Sink;
    use ebrc_sim::Engine;

    fn feedbacks(eng: &Engine<NetEvent>, id: ebrc_sim::ComponentId) -> Vec<(f64, FeedbackInfo)> {
        eng.get::<Sink>(id)
            .arrivals
            .iter()
            .filter_map(|(t, p)| match &p.kind {
                PacketKind::Feedback(f) => Some((*t, **f)),
                _ => None,
            })
            .collect()
    }

    fn setup(
        comprehensive: bool,
    ) -> (
        Engine<NetEvent>,
        ebrc_sim::ComponentId,
        ebrc_sim::ComponentId,
    ) {
        let mut eng: Engine<NetEvent> = Engine::new();
        let cfg = TfrcReceiverConfig {
            weights: WeightProfile::tfrc(8),
            rtt: 0.05,
            comprehensive,
            feedback_period: 0.05,
            formula: FormulaKind::PftkSimplified,
        };
        let rcv = eng.add(Box::new(TfrcReceiver::new(FlowId(1), cfg)));
        let fb_sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<TfrcReceiver>(rcv).set_reverse_hop(fb_sink);
        (eng, rcv, fb_sink)
    }

    fn data(seq: u64, t: f64) -> NetEvent {
        NetEvent::Packet(Packet::data(FlowId(1), seq, 1500, t))
    }

    #[test]
    fn no_losses_reports_infinite_interval() {
        let (mut eng, rcv, fb) = setup(true);
        for i in 0..100u64 {
            eng.schedule(i as f64 * 0.001, rcv, data(i, 0.0));
        }
        eng.run_until(1.0);
        let fbs = feedbacks(&eng, fb);
        assert!(!fbs.is_empty());
        for (_, f) in &fbs {
            assert!(f.avg_interval.is_infinite());
            assert_eq!(f.events, 0);
        }
        assert_eq!(eng.get::<TfrcReceiver>(rcv).loss_event_rate(), 0.0);
    }

    #[test]
    fn feedback_cadence_is_one_rtt() {
        let (mut eng, rcv, fb) = setup(true);
        for i in 0..500u64 {
            eng.schedule(i as f64 * 0.001, rcv, data(i, 0.0));
        }
        eng.run_until(0.5);
        let fbs = feedbacks(&eng, fb);
        assert!(fbs.len() >= 8, "got {}", fbs.len());
        for w in fbs.windows(2) {
            assert!((w[1].0 - w[0].0 - 0.05).abs() < 1e-9);
        }
    }

    #[test]
    fn x_recv_measures_receive_rate() {
        let (mut eng, rcv, fb) = setup(true);
        for i in 0..500u64 {
            eng.schedule(i as f64 * 0.001, rcv, data(i, 0.0));
        }
        eng.run_until(0.4);
        let fbs = feedbacks(&eng, fb);
        // 1000 packets/s into the receiver.
        let (_, last) = fbs.last().unwrap();
        assert!(
            (last.x_recv - 1000.0).abs() < 50.0,
            "x_recv {}",
            last.x_recv
        );
    }

    #[test]
    fn gap_starts_loss_event_and_immediate_feedback() {
        let (mut eng, rcv, fb) = setup(true);
        // Packets 0..10, skip 10..15, then 15..30.
        let mut t = 0.0;
        for i in (0..10u64).chain(15..30) {
            eng.schedule(t, rcv, data(i, 0.0));
            t += 0.001;
        }
        eng.run_until(0.03); // before the first periodic feedback
        let fbs = feedbacks(&eng, fb);
        assert_eq!(fbs.len(), 1, "immediate feedback on the loss event");
        assert_eq!(fbs[0].1.events, 1);
        let r: &TfrcReceiver = eng.get(rcv);
        assert_eq!(r.events(), 1);
        assert_eq!(r.inferred_sent(), 30);
    }

    #[test]
    fn losses_within_rtt_are_one_event() {
        let (mut eng, rcv, _) = setup(true);
        // Three separate gaps inside 20 ms (< RTT 50 ms).
        let seqs: Vec<u64> = vec![0, 1, 3, 5, 7, 8, 9];
        for (k, seq) in seqs.into_iter().enumerate() {
            eng.schedule(k as f64 * 0.003, rcv, data(seq, 0.0));
        }
        eng.run_until(1.0);
        assert_eq!(eng.get::<TfrcReceiver>(rcv).events(), 1);
    }

    #[test]
    fn comprehensive_average_grows_with_open_interval() {
        let (mut eng, rcv, _) = setup(true);
        let mut t = 0.0;
        // Create 9 loss events 100 packets apart to fill the L=8 history.
        let mut seq = 0u64;
        for _ in 0..9 {
            for _ in 0..99 {
                eng.schedule(t, rcv, data(seq, 0.0));
                seq += 1;
                t += 0.001;
            }
            seq += 1; // drop one packet → gap
            t += 0.06; // exceed the RTT window so each gap is an event
        }
        eng.run_until(t);
        let before = eng.get::<TfrcReceiver>(rcv).current_avg_interval();
        // Long loss-free stretch: the open interval pushes the average
        // up. (Engine::schedule takes a *delay* from the current clock.)
        for k in 0..1000u64 {
            eng.schedule(k as f64 * 0.001, rcv, data(seq, 0.0));
            seq += 1;
        }
        eng.run_until(t + 2.0);
        let after = eng.get::<TfrcReceiver>(rcv).current_avg_interval();
        assert!(
            after > before,
            "comprehensive average must grow: {before} → {after}"
        );
    }

    #[test]
    fn basic_mode_average_is_flat_between_events() {
        let (mut eng, rcv, _) = setup(false);
        let mut t = 0.0;
        let mut seq = 0u64;
        for _ in 0..9 {
            for _ in 0..99 {
                eng.schedule(t, rcv, data(seq, 0.0));
                seq += 1;
                t += 0.001;
            }
            seq += 1;
            t += 0.06;
        }
        eng.run_until(t);
        // Reveal the final gap first so the loss-free stretch below has
        // no event inside it.
        eng.schedule(0.0, rcv, data(seq, 0.0));
        seq += 1;
        eng.run_until(t + 0.001);
        let before = eng.get::<TfrcReceiver>(rcv).current_avg_interval();
        for k in 0..1000u64 {
            eng.schedule(0.001 + k as f64 * 0.001, rcv, data(seq, 0.0));
            seq += 1;
        }
        eng.run_until(t + 2.0);
        let after = eng.get::<TfrcReceiver>(rcv).current_avg_interval();
        assert!((after - before).abs() < 1e-9, "basic mode must hold flat");
    }

    #[test]
    fn interval_bookkeeping_matches_gaps() {
        let (mut eng, rcv, _) = setup(true);
        let mut t = 0.0;
        let mut seq = 0u64;
        // Events at packet counts 50, 130 → interval 80.
        for _ in 0..3 {
            for _ in 0..49 {
                eng.schedule(t, rcv, data(seq, 0.0));
                seq += 1;
                t += 0.001;
            }
            seq += 1;
            t += 0.06;
            for _ in 0..29 {
                eng.schedule(t, rcv, data(seq, 0.0));
                seq += 1;
                t += 0.001;
            }
            seq += 1;
            t += 0.06;
        }
        eng.run_until(t);
        let r: &TfrcReceiver = eng.get(rcv);
        // Six gaps were created but the last has no packet after it to
        // reveal it, so five events are observable.
        assert_eq!(r.events(), 5);
        assert_eq!(r.intervals().len(), 4);
        // Intervals alternate 50, 30 (plus the dropped packet in each).
        for w in r.intervals() {
            assert!((*w - 50.0).abs() < 2.0 || (*w - 30.0).abs() < 2.0, "{w}");
        }
    }
}
