//! Window-based TCP sender (ns-2 "Sack1" flavour).
//!
//! Congestion control: slow start to `ssthresh`, congestion avoidance
//! (`+1/cwnd` per newly acked packet), SACK-driven fast recovery (halve
//! on entry, retransmit holes while the pipe allows), and retransmission
//! timeouts with exponential backoff. Loss events are recorded the way
//! the paper measures them for TCP: window reductions (recovery entries
//! and timeouts) coalesced within one smoothed RTT.
//!
//! Timestamps echo through the receiver ([`crate::receiver::TcpSink`]
//! returns the triggering packet's `sent_at`), so RTT samples are
//! per-transmission and unambiguous even for retransmitted sequence
//! numbers.

use crate::rto::RtoEstimator;
use crate::scoreboard::SackScoreboard;
use ebrc_net::{FlowId, LossEventRecorder, NetEvent, Packet, Report};
use ebrc_sim::{Component, ComponentId, Context};
use ebrc_stats::Moments;

/// The "start sending" kick; schedule this from the harness at the
/// flow's start time.
pub const TIMER_START: u64 = 0;

/// Initial congestion window (packets).
pub const INITIAL_CWND: f64 = 2.0;
/// Upper bound on the window (the tuned receiver buffer of the paper's
/// experiments — large enough not to bind).
pub const MAX_CWND: f64 = 10_000.0;
/// Duplicate-ACK / SACK threshold for entering fast recovery.
pub const DUPACK_THRESHOLD: u32 = 3;
/// RTO floor (seconds).
pub const MIN_RTO: f64 = 0.2;
/// RTO ceiling (seconds).
pub const MAX_RTO: f64 = 60.0;
/// Maximum transmissions released by one ACK or timer event. Prevents
/// line-rate bursts after recovery-entry window jumps (the burst
/// moderation real stacks apply).
pub const MAX_BURST: u32 = 6;

/// Static configuration of a sender: what the paper's scenarios vary.
/// The rest of the stack is the module's constants.
#[derive(Debug, Clone)]
pub struct TcpSenderConfig {
    /// Data packet size in bytes.
    pub packet_size: u32,
    /// Nominal RTT used to coalesce loss events before the first RTT
    /// sample arrives.
    pub nominal_rtt: f64,
}

impl Default for TcpSenderConfig {
    fn default() -> Self {
        Self {
            packet_size: 1500,
            nominal_rtt: 0.05,
        }
    }
}

/// Counters exposed after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpSenderStats {
    /// All data transmissions, including retransmissions.
    pub data_packets_sent: u64,
    /// First-time transmissions only.
    pub new_data_sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Fast-recovery entries.
    pub recoveries: u64,
    /// Time the first packet left (NaN until started).
    pub start_time: f64,
}

/// The sending endpoint of a TCP flow.
pub struct TcpSender {
    flow: FlowId,
    cfg: TcpSenderConfig,
    next_hop: Option<ComponentId>,
    sb: SackScoreboard,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    recovery_point: Option<u64>,
    rto_est: RtoEstimator,
    timer_gen: u64,
    timer_armed: bool,
    started: bool,
    /// RFC 6582-style suppression: no fast-recovery entry until the
    /// cumulative ACK passes the horizon of the last timeout, so stale
    /// SACK state cannot re-trigger recovery during post-RTO repair.
    no_fast_recovery_below: u64,
    recorder: LossEventRecorder,
    rtt_moments: Moments,
    stats: TcpSenderStats,
}

impl TcpSender {
    /// A sender for `flow` with the given configuration.
    pub fn new(flow: FlowId, cfg: TcpSenderConfig) -> Self {
        let recorder = LossEventRecorder::new(cfg.nominal_rtt);
        let rto_est = RtoEstimator::new(MIN_RTO, MAX_RTO);
        Self {
            flow,
            cwnd: INITIAL_CWND,
            ssthresh: f64::INFINITY,
            cfg,
            next_hop: None,
            sb: SackScoreboard::new(),
            dupacks: 0,
            recovery_point: None,
            rto_est,
            timer_gen: 0,
            timer_armed: false,
            started: false,
            no_fast_recovery_below: 0,
            recorder,
            rtt_moments: Moments::new(),
            stats: TcpSenderStats {
                start_time: f64::NAN,
                ..Default::default()
            },
        }
    }

    /// Wires the first hop of the forward path.
    pub fn set_next_hop(&mut self, id: ComponentId) {
        self.next_hop = Some(id);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TcpSenderStats {
        self.stats
    }

    /// Current congestion window in packets.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// The loss-event recorder (intervals, Palm statistics).
    pub fn recorder(&self) -> &LossEventRecorder {
        &self.recorder
    }

    /// Loss-event rate `p'` = events per new data packet sent.
    pub fn loss_event_rate(&self) -> f64 {
        self.recorder.loss_event_rate(self.stats.new_data_sent)
    }

    /// RTT sample moments (mean is the paper's `r'`).
    pub fn rtt_moments(&self) -> &Moments {
        &self.rtt_moments
    }

    /// Average send rate in packets/second from flow start to `now`.
    pub fn throughput(&self, now: f64) -> f64 {
        if !self.started || now <= self.stats.start_time {
            0.0
        } else {
            self.stats.new_data_sent as f64 / (now - self.stats.start_time)
        }
    }

    fn arm_timer(&mut self, ctx: &mut Context<NetEvent>) {
        self.timer_gen += 1;
        self.timer_armed = true;
        ctx.send_self(self.rto_est.rto(), NetEvent::Timer(self.timer_gen));
    }

    fn record_loss_event(&mut self, now: f64) {
        self.recorder.on_loss(now);
    }

    fn enter_recovery(&mut self, now: f64) {
        self.ssthresh = (self.sb.flight_size() as f64 / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
        self.recovery_point = Some(self.sb.high_sent());
        self.sb.mark_holes_lost();
        self.stats.recoveries += 1;
        self.record_loss_event(now);
    }

    fn on_timeout(&mut self, now: f64, ctx: &mut Context<NetEvent>) {
        self.rto_est.on_timeout();
        self.ssthresh = (self.sb.flight_size() as f64 / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dupacks = 0;
        self.recovery_point = None;
        self.no_fast_recovery_below = self.sb.high_sent();
        self.sb.mark_all_lost();
        self.stats.timeouts += 1;
        self.record_loss_event(now);
        ctx.trace_instant("timeout");
        ctx.trace_counter("cwnd", self.cwnd);
        self.try_send(now, ctx);
        self.arm_timer(ctx);
    }

    fn try_send(&mut self, now: f64, ctx: &mut Context<NetEvent>) {
        let hop = self.next_hop.expect("tcp sender not wired");
        let window = self.cwnd.floor().max(1.0) as u64;
        let mut burst = 0;
        while self.sb.pipe() < window && burst < MAX_BURST {
            burst += 1;
            let seq = match self.sb.next_retransmit() {
                Some(seq) => {
                    self.sb.note_retransmitted(seq);
                    self.stats.retransmits += 1;
                    seq
                }
                None => {
                    self.stats.new_data_sent += 1;
                    self.sb.send_new()
                }
            };
            self.stats.data_packets_sent += 1;
            ctx.send(
                0.0,
                hop,
                NetEvent::Packet(Packet::data(self.flow, seq, self.cfg.packet_size, now)),
            );
            if !self.timer_armed {
                self.arm_timer(ctx);
            }
        }
    }

    fn on_ack(&mut self, now: f64, info: &ebrc_net::AckInfo, ctx: &mut Context<NetEvent>) {
        let cwnd_before = self.cwnd;
        // RTT sample: per-transmission timestamps make this unambiguous.
        let rtt = now - info.echo_ts;
        if rtt > 0.0 && rtt.is_finite() {
            self.rto_est.sample(rtt);
            self.rtt_moments.push(rtt);
            if let Some(srtt) = self.rto_est.srtt() {
                self.recorder.set_rtt(srtt);
            }
        }
        let prev_high = self.sb.high_ack();
        let out = self.sb.on_ack(info.cum_ack, &info.sack);
        if info.cum_ack > prev_high {
            self.dupacks = 0;
            self.arm_timer(ctx);
            if let Some(rp) = self.recovery_point {
                if self.sb.high_ack() >= rp {
                    self.recovery_point = None;
                }
            }
            if self.recovery_point.is_none() {
                let n = out.newly_acked as f64;
                if self.cwnd < self.ssthresh {
                    self.cwnd = (self.cwnd + n).min(MAX_CWND);
                } else {
                    self.cwnd = (self.cwnd + n / self.cwnd).min(MAX_CWND);
                }
            }
        } else {
            self.dupacks += 1;
        }
        if self.recovery_point.is_none()
            && self.sb.high_ack() >= self.no_fast_recovery_below
            && (self.dupacks >= DUPACK_THRESHOLD
                || self.sb.sacked_count() >= DUPACK_THRESHOLD as usize)
        {
            self.enter_recovery(now);
            ctx.trace_instant("recovery");
        }
        if self.recovery_point.is_some() {
            self.sb.mark_holes_lost();
        }
        if self.cwnd != cwnd_before {
            ctx.trace_counter("cwnd", self.cwnd);
        }
        self.try_send(now, ctx);
    }
}

impl Component<NetEvent> for TcpSender {
    fn handle(&mut self, now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        match event {
            NetEvent::Timer(TIMER_START) => {
                if !self.started {
                    self.started = true;
                    self.stats.start_time = now;
                    self.try_send(now, ctx);
                }
            }
            NetEvent::Timer(gen) => {
                if gen == self.timer_gen && self.timer_armed {
                    self.timer_armed = false;
                    if self.sb.pipe() > 0 || self.sb.high_ack() < self.sb.high_sent() {
                        self.on_timeout(now, ctx);
                    }
                }
            }
            NetEvent::Packet(pkt) => {
                if let Some(Report::Ack(info)) = pkt.report.as_deref() {
                    if self.started {
                        self.on_ack(now, info, ctx);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::TcpSink;
    use ebrc_dist::Rng;
    use ebrc_net::{BernoulliDropper, DelayBox, DropTailQueue, LinkQueue};
    use ebrc_sim::Engine;

    /// One TCP flow over a bottleneck link with optional random loss.
    /// Returns (engine, sender id, sink id, link id).
    fn one_flow(
        rate_bps: f64,
        buf: usize,
        one_way: f64,
        p_drop: f64,
        seed: u64,
    ) -> (
        Engine<NetEvent>,
        ebrc_sim::ComponentId,
        ebrc_sim::ComponentId,
        ebrc_sim::ComponentId,
    ) {
        let mut eng: Engine<NetEvent> = Engine::new();
        let flow = FlowId(1);
        let snd = eng.add(Box::new(TcpSender::new(flow, TcpSenderConfig::default())));
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(buf)),
            rate_bps,
            one_way / 2.0,
            Rng::seed_from(seed),
        )));
        let dropper = eng.add(Box::new(BernoulliDropper::new(
            p_drop,
            Rng::seed_from(seed + 1),
        )));
        let fwd = eng.add(Box::new(DelayBox::new(one_way / 2.0)));
        let rcv = eng.add(Box::new(TcpSink::new(flow)));
        let rev = eng.add(Box::new(DelayBox::new(one_way)));
        eng.get_mut::<TcpSender>(snd).set_next_hop(link);
        eng.get_mut::<LinkQueue>(link).set_next_hop(dropper);
        eng.get_mut::<BernoulliDropper>(dropper).set_next_hop(fwd);
        eng.get_mut::<DelayBox>(fwd).set_next_hop(rcv);
        eng.get_mut::<TcpSink>(rcv).set_reverse_hop(rev);
        eng.get_mut::<DelayBox>(rev).set_next_hop(snd);
        eng.schedule(0.0, snd, NetEvent::Timer(TIMER_START));
        (eng, snd, rcv, link)
    }

    #[test]
    fn lossless_flow_fills_the_link() {
        // 8 Mb/s, big buffer, no random loss: TCP should saturate the
        // link (8 Mb/s / 1500 B ≈ 667 pps).
        let (mut eng, snd, rcv, _) = one_flow(8e6, 200, 0.02, 0.0, 1);
        eng.run_until(30.0);
        let s: &TcpSender = eng.get(snd);
        let tput = s.throughput(30.0);
        assert!(tput > 560.0 && tput < 700.0, "throughput {tput} pps");
        let r: &TcpSink = eng.get(rcv);
        assert!(r.received() > 15_000);
        // At most the single startup RTO (slow-start overshoot can lose
        // retransmissions in the same buffer-overflow burst).
        assert!(s.stats().timeouts <= 1, "timeouts {}", s.stats().timeouts);
    }

    #[test]
    fn slow_start_doubles_roughly_every_two_rtts() {
        // With delayed ACKs (b = 2) the window grows 1.5× per RTT in
        // slow start; after a few RTTs, cwnd must be well above initial.
        let (mut eng, snd, _, _) = one_flow(100e6, 10_000, 0.1, 0.0, 2);
        eng.run_until(1.0); // ~10 RTTs, no loss
        let s: &TcpSender = eng.get(snd);
        assert!(s.cwnd() > 30.0, "cwnd {}", s.cwnd());
    }

    #[test]
    fn random_loss_triggers_recovery_not_collapse() {
        let (mut eng, snd, rcv, _) = one_flow(8e6, 200, 0.02, 0.01, 3);
        eng.run_until(60.0);
        let s: &TcpSender = eng.get(snd);
        let st = s.stats();
        assert!(st.recoveries > 10, "recoveries {}", st.recoveries);
        assert!(st.retransmits > 10);
        // Flow keeps making progress.
        let r: &TcpSink = eng.get(rcv);
        assert!(r.cum_ack() > 10_000, "cum ack {}", r.cum_ack());
        // Loss-event rate should be near the drop rate (events
        // coalesce, so p' ≲ 0.01 but same order).
        let p = s.loss_event_rate();
        assert!(p > 0.002 && p < 0.02, "p' = {p}");
    }

    #[test]
    fn heavy_loss_forces_timeouts_and_backoff() {
        let (mut eng, snd, _, _) = one_flow(8e6, 200, 0.02, 0.25, 4);
        eng.run_until(120.0);
        let s: &TcpSender = eng.get(snd);
        assert!(s.stats().timeouts > 0, "expected RTOs under 25% loss");
        // Still alive.
        assert!(s.stats().new_data_sent > 100);
    }

    #[test]
    fn rtt_estimate_tracks_path_delay() {
        let (mut eng, snd, _, _) = one_flow(50e6, 1000, 0.08, 0.0, 5);
        eng.run_until(10.0);
        let s: &TcpSender = eng.get(snd);
        let srtt = s.rtt_moments().mean();
        // One-way 80 ms → RTT ≥ 160 ms, plus delack hold-ups ≤ 100 ms
        // and queueing.
        assert!(srtt > 0.15 && srtt < 0.40, "srtt {srtt}");
    }

    #[test]
    fn congestion_avoidance_self_induces_periodic_losses() {
        // Small buffer DropTail: TCP saws between buffer overflow events;
        // the loss-event recorder must see a steady event rate.
        let (mut eng, snd, _, link) = one_flow(2e6, 20, 0.05, 0.0, 6);
        eng.run_until(200.0);
        let s: &TcpSender = eng.get(snd);
        assert!(
            s.recorder().events() > 20,
            "events {}",
            s.recorder().events()
        );
        let l: &LinkQueue = eng.get(link);
        assert!(l.total_drops() > 10);
        // Utilization should remain decent despite the sawtooth.
        let tput = s.throughput(200.0);
        assert!(tput > 100.0, "throughput {tput} pps on a 167 pps link");
    }

    #[test]
    fn two_flows_share_a_bottleneck_roughly_fairly() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let mut senders = Vec::new();
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(60)),
            8e6,
            0.01,
            Rng::seed_from(7),
        )));
        let fwd = eng.add(Box::new(DelayBox::new(0.01)));
        let demux = eng.add(Box::new(ebrc_net::Demux::new()));
        eng.get_mut::<LinkQueue>(link).set_next_hop(fwd);
        eng.get_mut::<DelayBox>(fwd).set_next_hop(demux);
        for i in 0..2u32 {
            let flow = FlowId(i);
            let snd = eng.add(Box::new(TcpSender::new(flow, TcpSenderConfig::default())));
            let rcv = eng.add(Box::new(TcpSink::new(flow)));
            let rev = eng.add(Box::new(DelayBox::new(0.02)));
            eng.get_mut::<TcpSender>(snd).set_next_hop(link);
            eng.get_mut::<TcpSink>(rcv).set_reverse_hop(rev);
            eng.get_mut::<DelayBox>(rev).set_next_hop(snd);
            eng.get_mut::<ebrc_net::Demux>(demux).route(flow, rcv);
            eng.schedule(0.1 * i as f64, snd, NetEvent::Timer(TIMER_START));
            senders.push(snd);
        }
        eng.run_until(120.0);
        let t0 = eng.get::<TcpSender>(senders[0]).throughput(120.0);
        let t1 = eng.get::<TcpSender>(senders[1]).throughput(120.0);
        let ratio = t0.max(t1) / t0.min(t1);
        assert!(ratio < 2.0, "unfair split: {t0} vs {t1}");
        // Together they fill the link (667 pps).
        assert!(t0 + t1 > 550.0, "aggregate {}", t0 + t1);
    }
}
