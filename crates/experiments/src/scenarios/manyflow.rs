//! The many-flow dumbbell: 10²–10⁴ rate-controlled flows through one
//! bottleneck, with per-flow state in contiguous arrays.
//!
//! The paper's long-run claims are asymptotic in the flow population,
//! and the weak-convergence literature (PAPERS.md) predicts the
//! per-flow throughput distribution *concentrates* as `n` grows. The
//! per-flow boxed components of [`dumbbell`](super::dumbbell) are the
//! right fidelity at `n ≤ 32` and hopeless at `n = 10⁴`: 2·10⁴ trait
//! objects, 2·10⁴ hash-routed demux entries, and a calendar stuffed
//! with per-component timers. This module replaces the endpoint layer
//! with one [`FlowClass`] *bank* per protocol class — a single
//! [`Component`] holding N flows' control, pacing, and receiver state
//! in flat `Vec`s (structure-of-arrays), indexed by flow. The network
//! core (bottleneck [`LinkQueue`], delay boxes, demuxes) is unchanged,
//! so packet fate is computed by exactly the code the small scenarios
//! use.
//!
//! ```text
//! TFRC bank ┐                                          ┌→ (default route)
//! TCP  bank ┼─→ [bottleneck queue+link] → [delay] → [demux]─┘  back to banks
//!     ▲     ┘
//!     └──────────── [reverse delay] ← [demux ← feedback] ←──┘
//! ```
//!
//! Each bank is both ends of its flows: data packets loop through the
//! forward path back to the bank (receiver role: sequence-gap loss
//! detection with losses within one RTT coalescing into one loss
//! event, one feedback report per RTT), and feedback packets loop
//! through the reverse path back to the bank (sender role: the pure
//! batch update rules of `ebrc_tfrc::batch` / `ebrc_tcp::batch`).
//! No component draws randomness — the only nondeterminism knob is the
//! start stagger — so runs are bit-identical by construction.

use crate::series::quantile;
use ebrc_net::{
    Demux, DropTailQueue, FeedbackInfo, FlowId, LinkQueue, NetEvent, Packet, PacketKind,
};
use ebrc_sim::{Component, ComponentId, Context, Engine};
use ebrc_tcp::batch::{round_update, AimdFlowState};
use ebrc_tfrc::batch::{feedback_update, TfrcFlowState};
use ebrc_tfrc::FormulaKind;

/// Which control law a [`FlowClass`] bank runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClassKind {
    /// Equation-based flows: slow start, then `X = f(p̂, r)`.
    Tfrc(FormulaKind),
    /// Window-based AIMD flows paced at `cwnd / rtt`.
    Aimd,
}

/// N statistically identical flows behind one component, state in
/// contiguous arrays. One array slot per flow — no boxing, no per-flow
/// hash entries, no per-flow allocations after construction.
pub struct FlowClass {
    kind: ClassKind,
    base_flow: u32,
    packet_size: u32,
    nominal_rtt: f64,
    max_rate_pps: f64,
    next_hop: Option<ComponentId>,
    reverse_hop: Option<ComponentId>,
    // --- sender role, per flow ---
    tfrc: Vec<TfrcFlowState>,
    aimd: Vec<AimdFlowState>,
    aimd_seen_events: Vec<u64>,
    srtt: Vec<f64>,
    next_seq: Vec<u64>,
    sent: Vec<u64>,
    // --- receiver role, per flow ---
    next_expected: Vec<u64>,
    events: Vec<u64>,
    event_open_until: Vec<f64>,
    next_feedback: Vec<f64>,
}

impl FlowClass {
    /// A bank of `n` flows with ids `base_flow .. base_flow + n`.
    ///
    /// TFRC flows start in slow start at two packets per RTT; AIMD
    /// flows at `cwnd = 2` with the slow-start threshold at the cap.
    /// `max_rate_pps` bounds every flow (the receive-rate /
    /// receiver-window stand-in that keeps slow start from scheduling
    /// unbounded packet bursts).
    pub fn new(
        kind: ClassKind,
        base_flow: u32,
        n: usize,
        packet_size: u32,
        nominal_rtt: f64,
        max_rate_pps: f64,
    ) -> Self {
        assert!(nominal_rtt > 0.0, "rtt must be positive");
        assert!(max_rate_pps > 0.0, "rate cap must be positive");
        let initial_rate = 2.0 / nominal_rtt;
        let max_cwnd = max_rate_pps * nominal_rtt;
        Self {
            kind,
            base_flow,
            packet_size,
            nominal_rtt,
            max_rate_pps,
            next_hop: None,
            reverse_hop: None,
            tfrc: match kind {
                ClassKind::Tfrc(_) => vec![TfrcFlowState::new(initial_rate); n],
                ClassKind::Aimd => Vec::new(),
            },
            aimd: match kind {
                ClassKind::Tfrc(_) => Vec::new(),
                ClassKind::Aimd => vec![AimdFlowState::new(2.0, max_cwnd); n],
            },
            aimd_seen_events: match kind {
                ClassKind::Tfrc(_) => Vec::new(),
                ClassKind::Aimd => vec![0; n],
            },
            srtt: vec![0.0; n],
            next_seq: vec![0; n],
            sent: vec![0; n],
            next_expected: vec![0; n],
            events: vec![0; n],
            event_open_until: vec![0.0; n],
            next_feedback: vec![0.0; n],
        }
    }

    /// Flows in the bank.
    pub fn len(&self) -> usize {
        self.srtt.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.srtt.is_empty()
    }

    /// Where data packets go (the bottleneck).
    pub fn set_next_hop(&mut self, id: ComponentId) {
        self.next_hop = Some(id);
    }

    /// Where feedback reports go (the reverse delay box).
    pub fn set_reverse_hop(&mut self, id: ComponentId) {
        self.reverse_hop = Some(id);
    }

    /// Cumulative data packets sent by flow `i`.
    pub fn packets_sent(&self, i: usize) -> u64 {
        self.sent[i]
    }

    /// Cumulative loss events observed for flow `i`.
    pub fn loss_events(&self, i: usize) -> u64 {
        self.events[i]
    }

    /// Data packets flow `i`'s receiver end has accounted for (received
    /// plus inferred lost) — the loss-event-rate denominator.
    pub fn packets_seen(&self, i: usize) -> u64 {
        self.next_expected[i]
    }

    /// Flow `i`'s smoothed RTT (0 before the first feedback).
    pub fn srtt(&self, i: usize) -> f64 {
        self.srtt[i]
    }

    /// Flow `i`'s current paced send rate, packets/second.
    fn rate_pps(&self, i: usize) -> f64 {
        match self.kind {
            ClassKind::Tfrc(_) => self.tfrc[i].rate_pps,
            ClassKind::Aimd => {
                let rtt = if self.srtt[i] > 0.0 {
                    self.srtt[i]
                } else {
                    self.nominal_rtt
                };
                self.aimd[i].rate_pps(rtt).min(self.max_rate_pps)
            }
        }
    }

    /// Sender role: emit flow `i`'s next data packet and re-arm its
    /// pacing timer from the current rate.
    fn send_data(&mut self, i: usize, now: f64, ctx: &mut Context<NetEvent>) {
        let seq = self.next_seq[i];
        self.next_seq[i] += 1;
        self.sent[i] += 1;
        ctx.send(
            0.0,
            self.next_hop.expect("bank next hop not wired"),
            NetEvent::Packet(Packet::data(
                FlowId(self.base_flow + i as u32),
                seq,
                self.packet_size,
                now,
            )),
        );
        ctx.send_self(1.0 / self.rate_pps(i), NetEvent::Timer(i as u64));
    }

    /// Receiver role: sequence-gap loss detection (losses within one
    /// RTT of a loss event's start coalesce into that event) and one
    /// feedback report per RTT.
    fn receive_data(&mut self, pkt: &Packet, now: f64, ctx: &mut Context<NetEvent>) {
        let i = (pkt.flow.0 - self.base_flow) as usize;
        let expected = self.next_expected[i];
        if pkt.seq < expected {
            return; // stale duplicate; this topology cannot reorder
        }
        if pkt.seq > expected && now >= self.event_open_until[i] {
            self.events[i] += 1;
            self.event_open_until[i] = now + self.nominal_rtt;
        }
        self.next_expected[i] = pkt.seq + 1;
        if now >= self.next_feedback[i] {
            self.next_feedback[i] = now + self.nominal_rtt;
            let events = self.events[i];
            let seen = self.next_expected[i];
            let fb = FeedbackInfo {
                avg_interval: if events > 0 {
                    seen as f64 / events as f64
                } else {
                    f64::INFINITY
                },
                x_recv: 0.0,
                x_recv_bytes: 0.0,
                echo_ts: pkt.sent_at,
                events,
            };
            ctx.send(
                0.0,
                self.reverse_hop.expect("bank reverse hop not wired"),
                NetEvent::Packet(Packet {
                    flow: pkt.flow,
                    seq: 0,
                    size: 40,
                    kind: PacketKind::Feedback(Box::new(fb)),
                    sent_at: now,
                }),
            );
        }
    }

    /// Sender role: apply one feedback report through the batch rule.
    fn apply_feedback(&mut self, flow: FlowId, fb: &FeedbackInfo, now: f64) {
        let i = (flow.0 - self.base_flow) as usize;
        let sample = now - fb.echo_ts;
        self.srtt[i] = if self.srtt[i] > 0.0 {
            0.9 * self.srtt[i] + 0.1 * sample
        } else {
            sample
        };
        match self.kind {
            ClassKind::Tfrc(formula) => {
                let p = if fb.avg_interval.is_finite() && fb.avg_interval > 0.0 {
                    1.0 / fb.avg_interval
                } else {
                    0.0
                };
                feedback_update(
                    &mut self.tfrc[i],
                    formula,
                    p,
                    self.srtt[i],
                    self.max_rate_pps,
                );
            }
            ClassKind::Aimd => {
                let lost = fb.events > self.aimd_seen_events[i];
                self.aimd_seen_events[i] = fb.events;
                let max_cwnd = self.max_rate_pps * self.nominal_rtt;
                round_update(&mut self.aimd[i], lost, max_cwnd);
            }
        }
    }
}

impl Component<NetEvent> for FlowClass {
    fn handle(&mut self, now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        match event {
            NetEvent::Timer(token) => self.send_data(token as usize, now, ctx),
            NetEvent::Packet(pkt) => match pkt.kind {
                PacketKind::Data => self.receive_data(&pkt, now, ctx),
                PacketKind::Feedback(fb) => self.apply_feedback(pkt.flow, &fb, now),
                PacketKind::Ack(_) => {}
            },
            NetEvent::TxDone => {}
        }
    }
}

/// Full many-flow scenario description. Capacity scales with the
/// population — each flow's fair share is `share_pps` — so sweeping `n`
/// varies the *population*, not the per-flow operating point, which is
/// exactly the weak-convergence setting.
#[derive(Debug, Clone)]
pub struct ManyFlowConfig {
    /// Equation-based flows.
    pub n_tfrc: usize,
    /// Competing AIMD flows.
    pub n_tcp: usize,
    /// Fair share per flow, packets/second.
    pub share_pps: f64,
    /// Data packet size, bytes.
    pub packet_size: u32,
    /// One-way propagation delay per direction, seconds.
    pub one_way_delay: f64,
    /// Bottleneck DropTail buffer, packets.
    pub buffer_pkts: usize,
    /// TFRC throughput formula.
    pub formula: FormulaKind,
    /// Per-flow rate cap as a multiple of the fair share.
    pub cap_share: f64,
    /// Flow start stagger, seconds (spread over all flows).
    pub start_stagger: f64,
    /// Scenario seed — folded into the stagger pattern so replicas
    /// decorrelate (the banks draw no randomness at runtime).
    pub seed: u64,
}

impl ManyFlowConfig {
    /// The standard many-flow point: `n` TFRC + `n/10` AIMD flows at a
    /// 16 pps fair share, 1000-byte packets, 400 ms base RTT, buffer at
    /// one bandwidth-delay product.
    pub fn standard(n: usize, seed: u64) -> Self {
        let share_pps = 16.0;
        let one_way_delay = 0.2;
        let n_tcp = (n / 10).max(1);
        let total_pps = share_pps * (n + n_tcp) as f64;
        // One BDP of buffering.
        let buffer_pkts = (total_pps * 2.0 * one_way_delay).ceil() as usize;
        Self {
            n_tfrc: n,
            n_tcp,
            share_pps,
            packet_size: 1000,
            one_way_delay,
            buffer_pkts,
            formula: FormulaKind::Sqrt,
            cap_share: 8.0,
            // Spread flow starts over a fixed 2 s horizon regardless of
            // population: a fixed per-flow slot would push the last of
            // 10⁴ starts past any reasonable warmup, leaving most of
            // the population unmeasured.
            start_stagger: 2.0 / (n + n_tcp) as f64,
            seed,
        }
    }

    /// Bottleneck rate implied by the population and fair share.
    pub fn bottleneck_bps(&self) -> f64 {
        self.share_pps * (self.n_tfrc + self.n_tcp) as f64 * self.packet_size as f64 * 8.0
    }

    /// Canonical content key: every field that influences the run, in
    /// fixed order. Equal keys guarantee bit-identical runs.
    pub fn content_key(&self) -> String {
        format!(
            "ntfrc={}/ntcp={}/share={}/pkt={}/owd={}/buf={}/formula={}/cap={}/stagger={}/seed={}",
            self.n_tfrc,
            self.n_tcp,
            self.share_pps,
            self.packet_size,
            self.one_way_delay,
            self.buffer_pkts,
            self.formula.key_name(),
            self.cap_share,
            self.start_stagger,
            self.seed,
        )
    }
}

/// A built many-flow dumbbell, ready to run.
pub struct ManyFlowRun {
    /// The engine, ready to run.
    pub engine: Engine<NetEvent>,
    /// The TFRC bank.
    pub tfrc_bank: ComponentId,
    /// The AIMD bank.
    pub tcp_bank: ComponentId,
    /// The bottleneck link.
    pub bottleneck: ComponentId,
    /// The forward/reverse path hops, in topology order (for named
    /// trace tracks).
    hops: [ComponentId; 4],
    nominal_rtt: f64,
    share_pps: f64,
    formula: FormulaKind,
}

impl ManyFlowRun {
    /// Builds and wires the scenario; flow starts are staggered over
    /// `start_stagger` steps with a seed-dependent phase so replicas
    /// decorrelate without any runtime randomness.
    pub fn build(cfg: &ManyFlowConfig) -> Self {
        let nominal_rtt = 2.0 * cfg.one_way_delay;
        let n_total = cfg.n_tfrc + cfg.n_tcp;
        // 7 components. The calendar holds the timers: one pacing timer
        // per flow and the link's `TxDone`. What crosses the two delay
        // boxes — the data in flight through the forward one (rate ×
        // delay) and at most one feedback per flow in the reverse one —
        // waits in the engine's lane for that delay, reserved below.
        // The bottleneck backlog is in neither: it waits in the DropTail
        // queue's own `VecDeque`. (10⁴ flows: 11 064 + 46 264 hinted,
        // 11 001 + 43 534 measured.)
        let in_flight = (cfg.share_pps * n_total as f64 * cfg.one_way_delay).ceil() as usize;
        let mut eng: Engine<NetEvent> = Engine::with_capacity(7, n_total + 64);

        let bottleneck = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(cfg.buffer_pkts)),
            cfg.bottleneck_bps(),
            0.0,
            ebrc_dist::Rng::seed_from(cfg.seed),
        )));
        let fwd = eng.add(Box::new(ebrc_net::DelayBox::new(
            cfg.one_way_delay,
            ebrc_dist::Rng::seed_from(cfg.seed ^ 1),
        )));
        let fwd_demux = eng.add(Box::new(Demux::new()));
        let rev = eng.add(Box::new(ebrc_net::DelayBox::new(
            cfg.one_way_delay,
            ebrc_dist::Rng::seed_from(cfg.seed ^ 2),
        )));
        let rev_demux = eng.add(Box::new(Demux::new()));
        eng.get_mut::<LinkQueue>(bottleneck).set_next_hop(fwd);
        eng.get_mut::<ebrc_net::DelayBox>(fwd)
            .set_next_hop(fwd_demux);
        eng.get_mut::<ebrc_net::DelayBox>(rev)
            .set_next_hop(rev_demux);
        eng.reserve_delay_lane(cfg.one_way_delay, in_flight + n_total + 64);

        let cap_pps = cfg.cap_share * cfg.share_pps;
        let tfrc_bank = eng.add(Box::new(FlowClass::new(
            ClassKind::Tfrc(cfg.formula),
            0,
            cfg.n_tfrc,
            cfg.packet_size,
            nominal_rtt,
            cap_pps,
        )));
        let tcp_base = cfg.n_tfrc as u32;
        let tcp_bank = eng.add(Box::new(FlowClass::new(
            ClassKind::Aimd,
            tcp_base,
            cfg.n_tcp,
            cfg.packet_size,
            nominal_rtt,
            cap_pps,
        )));
        for bank in [tfrc_bank, tcp_bank] {
            eng.get_mut::<FlowClass>(bank).set_next_hop(bottleneck);
            eng.get_mut::<FlowClass>(bank).set_reverse_hop(rev);
        }
        // TFRC flows ride the O(1) default route; the (10× smaller)
        // AIMD population gets explicit per-flow entries.
        for demux in [fwd_demux, rev_demux] {
            let d = eng.get_mut::<Demux>(demux);
            d.default_route(tfrc_bank);
            for i in 0..cfg.n_tcp {
                d.route(FlowId(tcp_base + i as u32), tcp_bank);
            }
        }

        // Staggered starts with a seed-dependent phase shift: flow k
        // starts at ((k + seed) mod n_total) · stagger.
        for k in 0..n_total {
            let slot = (k as u64 + cfg.seed) % n_total as u64;
            let start = slot as f64 * cfg.start_stagger;
            let (bank, token) = if k < cfg.n_tfrc {
                (tfrc_bank, k as u64)
            } else {
                (tcp_bank, (k - cfg.n_tfrc) as u64)
            };
            eng.schedule(start, bank, NetEvent::Timer(token));
        }

        Self {
            engine: eng,
            tfrc_bank,
            tcp_bank,
            bottleneck,
            hops: [fwd, fwd_demux, rev, rev_demux],
            nominal_rtt,
            share_pps: cfg.share_pps,
            formula: cfg.formula,
        }
    }

    /// Installs a Perfetto trace sink on the engine, with the network
    /// core and both flow banks registered under named tracks. Record
    /// the run, then collect the bytes with
    /// [`ManyFlowRun::take_trace`].
    pub fn install_tracer(&mut self) {
        let mut sink = ebrc_trace::PerfettoSink::new(ebrc_net::net_event_name);
        sink.register(self.bottleneck, "bottleneck");
        let [fwd, fwd_demux, rev, rev_demux] = self.hops;
        sink.register(fwd, "fwd-delay");
        sink.register(fwd_demux, "fwd-demux");
        sink.register(rev, "rev-delay");
        sink.register(rev_demux, "rev-demux");
        sink.register(self.tfrc_bank, "tfrc-bank");
        sink.register(self.tcp_bank, "tcp-bank");
        self.engine.set_tracer(Box::new(sink));
    }

    /// Finishes a trace started by [`ManyFlowRun::install_tracer`] and
    /// returns the encoded Perfetto bytes (`None` if no tracer was
    /// installed).
    pub fn take_trace(&mut self) -> Option<Vec<u8>> {
        ebrc_trace::take_sink(&mut self.engine).map(ebrc_trace::PerfettoSink::finish)
    }

    /// Runs to `warmup`, snapshots counters, runs to `warmup + span`,
    /// and reports the population statistics. Like
    /// [`DumbbellRun::measure`](super::DumbbellRun::measure), the two
    /// legs may equivalently be driven in event-budget slices with
    /// [`ManyFlowRun::snapshot_counters`] between them — sliced
    /// execution is bit-identical by the engine's contract.
    pub fn measure(&mut self, warmup: f64, span: f64) -> ManyFlowMeasurements {
        assert!(span > 0.0, "measurement span must be positive");
        self.engine.run_until(warmup);
        let snap = self.snapshot_counters();
        self.engine.run_until(warmup + span);
        self.measurements_since(&snap, span)
    }

    /// Snapshots every flow's cumulative counters at the end of
    /// warm-up.
    pub fn snapshot_counters(&self) -> ManyFlowSnapshot {
        let grab = |bank: ComponentId| {
            let b: &FlowClass = self.engine.get(bank);
            (0..b.len())
                .map(|i| (b.packets_sent(i), b.loss_events(i), b.packets_seen(i)))
                .collect()
        };
        ManyFlowSnapshot {
            tfrc: grab(self.tfrc_bank),
            tcp: grab(self.tcp_bank),
        }
    }

    /// Computes population statistics for a span that started at
    /// `snap`; the engine must already stand at the end of the span.
    pub fn measurements_since(&self, snap: &ManyFlowSnapshot, span: f64) -> ManyFlowMeasurements {
        let per_flow = |bank: ComponentId, before: &[(u64, u64, u64)]| {
            let b: &FlowClass = self.engine.get(bank);
            before
                .iter()
                .enumerate()
                .map(|(i, &(sent0, ev0, seen0))| {
                    let sent = b.packets_sent(i) - sent0;
                    let events = b.loss_events(i) - ev0;
                    let seen = b.packets_seen(i) - seen0;
                    ManyFlowMeasure {
                        throughput: sent as f64 / span,
                        loss_event_rate: if seen > 0 {
                            events as f64 / seen as f64
                        } else {
                            0.0
                        },
                        srtt: b.srtt(i),
                    }
                })
                .collect()
        };
        ManyFlowMeasurements {
            tfrc: per_flow(self.tfrc_bank, &snap.tfrc),
            tcp: per_flow(self.tcp_bank, &snap.tcp),
            nominal_rtt: self.nominal_rtt,
            share_pps: self.share_pps,
            formula: self.formula,
        }
    }
}

/// Cumulative per-flow counters at the end of warm-up: `(sent, loss
/// events, seen)` per flow per bank. Plain owned data, so a sliced run
/// carries it across worker threads.
#[derive(Debug, Clone)]
pub struct ManyFlowSnapshot {
    tfrc: Vec<(u64, u64, u64)>,
    tcp: Vec<(u64, u64, u64)>,
}

/// Steady-state measurements of one many-flow flow.
#[derive(Debug, Clone, Copy)]
pub struct ManyFlowMeasure {
    /// Send rate over the span, packets/second.
    pub throughput: f64,
    /// Loss-event rate over the span (events per packet).
    pub loss_event_rate: f64,
    /// Smoothed RTT at the end of the span, seconds.
    pub srtt: f64,
}

/// Population statistics of one many-flow run.
#[derive(Debug, Clone)]
pub struct ManyFlowMeasurements {
    /// One entry per TFRC flow.
    pub tfrc: Vec<ManyFlowMeasure>,
    /// One entry per AIMD flow.
    pub tcp: Vec<ManyFlowMeasure>,
    /// Configured base RTT.
    pub nominal_rtt: f64,
    /// Configured fair share, packets/second.
    pub share_pps: f64,
    /// The TFRC formula in force.
    pub formula: FormulaKind,
}

impl ManyFlowMeasurements {
    /// Per-flow TFRC throughputs normalized by the fair share, sorted
    /// ascending — the empirical distribution the weak-convergence
    /// prediction is compared against.
    pub fn tfrc_normalized_shares(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .tfrc
            .iter()
            .map(|f| f.throughput / self.share_pps)
            .collect();
        xs.sort_by(f64::total_cmp);
        xs
    }

    /// The distribution summary the `ManyFlowDumbbell` spec emits, in
    /// the fixed positional layout [`summary_columns`] names: flow
    /// count, mean/cv and the {5, 25, 50, 75, 95}% quantiles of the
    /// normalized per-flow throughput, the population mean loss-event
    /// rate, mean smoothed RTT, and the formula prediction
    /// `f(p̄, r̄) / share` at the population operating point.
    pub fn summary(&self) -> Vec<f64> {
        let xs = self.tfrc_normalized_shares();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n.max(1.0);
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n.max(1.0);
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let p_mean = self.tfrc.iter().map(|f| f.loss_event_rate).sum::<f64>() / n.max(1.0);
        let rtt_mean = self.tfrc.iter().map(|f| f.srtt).sum::<f64>() / n.max(1.0);
        let predicted = if p_mean > 0.0 && rtt_mean > 0.0 {
            self.formula.rate(p_mean, rtt_mean) / self.share_pps
        } else {
            0.0
        };
        vec![
            n,
            mean,
            cv,
            quantile(&xs, 0.05),
            quantile(&xs, 0.25),
            quantile(&xs, 0.50),
            quantile(&xs, 0.75),
            quantile(&xs, 0.95),
            p_mean,
            rtt_mean,
            predicted,
        ]
    }
}

/// Column names matching [`ManyFlowMeasurements::summary`]'s layout.
pub fn summary_columns() -> Vec<&'static str> {
    vec![
        "n",
        "mean",
        "cv",
        "q05",
        "q25",
        "q50",
        "q75",
        "q95",
        "p_mean",
        "rtt_mean",
        "predicted",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_population_shares_the_link() {
        let cfg = ManyFlowConfig::standard(20, 42);
        let mut run = ManyFlowRun::build(&cfg);
        let m = run.measure(10.0, 20.0);
        assert_eq!(m.tfrc.len(), 20);
        assert_eq!(m.tcp.len(), 2);
        let total: f64 = m.tfrc.iter().chain(&m.tcp).map(|f| f.throughput).sum();
        let capacity_pps = cfg.bottleneck_bps() / (cfg.packet_size as f64 * 8.0);
        assert!(
            total > 0.5 * capacity_pps,
            "aggregate {total:.1} pps of {capacity_pps:.1}"
        );
        // The population sees losses and plausible RTTs.
        let p_mean: f64 =
            m.tfrc.iter().map(|f| f.loss_event_rate).sum::<f64>() / m.tfrc.len() as f64;
        assert!(p_mean > 0.0, "no losses at a saturated bottleneck");
        for f in &m.tfrc {
            assert!(
                f.srtt == 0.0 || (f.srtt > 0.3 && f.srtt < 3.0),
                "srtt {}",
                f.srtt
            );
        }
    }

    /// The scale target of the calendar-queue engine: 10⁴ concurrent
    /// flows over the quick measurement window. Run explicitly with
    /// `cargo test --release -- --ignored ten_thousand` — it is a
    /// multi-second release-build check, not a unit test.
    #[test]
    #[ignore = "release-mode scale check (seconds, not millis)"]
    fn ten_thousand_flows_complete_quick_window() {
        let cfg = ManyFlowConfig::standard(10_000, 42);
        let mut run = ManyFlowRun::build(&cfg);
        let m = run.measure(5.0, 10.0);
        assert_eq!(m.tfrc.len(), 10_000);
        let total: f64 = m.tfrc.iter().chain(&m.tcp).map(|f| f.throughput).sum();
        let capacity_pps = cfg.bottleneck_bps() / (cfg.packet_size as f64 * 8.0);
        assert!(
            total > 0.5 * capacity_pps,
            "aggregate {total:.1} pps of {capacity_pps:.1}"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let cfg = ManyFlowConfig::standard(30, 7);
        let a = ManyFlowRun::build(&cfg).measure(8.0, 12.0);
        let b = ManyFlowRun::build(&cfg).measure(8.0, 12.0);
        for (x, y) in a.tfrc.iter().zip(&b.tfrc) {
            assert_eq!(x.throughput.to_bits(), y.throughput.to_bits());
            assert_eq!(x.loss_event_rate.to_bits(), y.loss_event_rate.to_bits());
        }
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn replicas_decorrelate() {
        let a = ManyFlowRun::build(&ManyFlowConfig::standard(30, 1)).measure(8.0, 12.0);
        let b = ManyFlowRun::build(&ManyFlowConfig::standard(30, 2)).measure(8.0, 12.0);
        assert_ne!(
            a.tfrc.iter().map(|f| f.throughput).collect::<Vec<_>>(),
            b.tfrc.iter().map(|f| f.throughput).collect::<Vec<_>>()
        );
    }

    #[test]
    fn content_key_tracks_every_varied_field() {
        let base = ManyFlowConfig::standard(100, 1);
        assert_eq!(base.content_key(), base.clone().content_key());
        let mut other = base.clone();
        other.seed = 2;
        assert_ne!(base.content_key(), other.content_key());
        let mut other = base.clone();
        other.share_pps = 32.0;
        assert_ne!(base.content_key(), other.content_key());
        assert_ne!(
            ManyFlowConfig::standard(100, 1).content_key(),
            ManyFlowConfig::standard(200, 1).content_key()
        );
    }

    #[test]
    fn summary_layout_matches_columns() {
        let m = ManyFlowRun::build(&ManyFlowConfig::standard(10, 3)).measure(6.0, 8.0);
        assert_eq!(m.summary().len(), summary_columns().len());
        assert_eq!(m.summary()[0], 10.0);
    }
}
