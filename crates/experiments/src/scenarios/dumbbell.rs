//! The dumbbell topology: N TFRC + N TCP flows (plus an optional
//! Poisson probe) through one bottleneck.
//!
//! This is the shape of every packet-level experiment in the paper: the
//! ns-2 RED scenarios (Figures 5, 7, 8, 9), the lab testbed (DropTail
//! 64/100 and RED with a 25 ms NIST Net delay stage — Figures 10, 16,
//! 18, 19), the synthetic Internet paths (Figures 10–15), and the
//! buffer-sweep of Figure 17.
//!
//! ```text
//! TFRC senders ┐                                      ┌ TFRC receivers
//! TCP  senders ┼─→ [bottleneck queue+link] → [delay] ─┼ TCP sinks
//! Poisson probe┘                                      └ probe sink
//!        ▲                                               │
//!        └────────────── [reverse delay] ◄───────────────┘  (ACKs/feedback)
//! ```

use ebrc_dist::Rng;
use ebrc_net::{
    Demux, DropTailQueue, FlowId, LinkQueue, NetEvent, PoissonSender, ProbeSink, RedConfig,
    RedQueue,
};
use ebrc_sim::{ComponentId, Engine};
use ebrc_tcp::{TcpSender, TcpSenderConfig, TcpSink};
use ebrc_tfrc::{FormulaKind, TfrcReceiver, TfrcReceiverConfig, TfrcSender, TfrcSenderConfig};

/// Bottleneck queue discipline.
#[derive(Debug, Clone)]
pub enum QueueSpec {
    /// DropTail with the given capacity in packets.
    DropTail(usize),
    /// RED with explicit parameters.
    Red(RedConfig),
}

/// Per-flow TFRC settings.
#[derive(Debug, Clone)]
pub struct TfrcFlowSpec {
    /// Sender configuration template.
    pub sender: TfrcSenderConfig,
    /// Estimator window `L`.
    pub window: usize,
    /// Comprehensive control on/off.
    pub comprehensive: bool,
}

/// Full scenario description.
#[derive(Debug, Clone)]
pub struct DumbbellConfig {
    /// Bottleneck rate in bits/second.
    pub bottleneck_bps: f64,
    /// Bottleneck discipline.
    pub queue: QueueSpec,
    /// One-way propagation delay of each direction (seconds); the
    /// round-trip time is `2×` this plus serialization and queueing.
    pub one_way_delay: f64,
    /// Number of TFRC flows.
    pub n_tfrc: usize,
    /// Number of TCP flows.
    pub n_tcp: usize,
    /// Optional Poisson probe rate in packets/second (the Figure 7
    /// `p''` measurement).
    pub poisson_probe: Option<f64>,
    /// TFRC flow settings.
    pub tfrc: TfrcFlowSpec,
    /// TCP sender settings.
    pub tcp: TcpSenderConfig,
    /// Master seed; every component derives its own sub-stream.
    pub seed: u64,
    /// Flow start times are staggered by this much to avoid phase
    /// effects.
    pub start_stagger: f64,
}

impl DumbbellConfig {
    /// The paper's ns-2 scenario: 15 Mb/s RED bottleneck (buffer
    /// `5/2·BDP`, thresholds `1/4` and `5/4·BDP`), RTT ≈ 50 ms,
    /// `N` TFRC + `N` TCP flows, estimator window `L`.
    pub fn ns2_paper(n: usize, l: usize, seed: u64) -> Self {
        let bps = 15e6;
        let rtt = 0.05;
        let pkt_bits = 1500.0 * 8.0;
        let bdp_packets = bps * rtt / pkt_bits;
        let mean_pkt_time = pkt_bits / bps;
        let nominal_rtt = rtt;
        Self {
            bottleneck_bps: bps,
            queue: QueueSpec::Red(RedConfig::ns2_paper(bdp_packets, mean_pkt_time)),
            one_way_delay: rtt / 2.0,
            n_tfrc: n,
            n_tcp: n,
            poisson_probe: None,
            tfrc: TfrcFlowSpec {
                sender: TfrcSenderConfig::standard(nominal_rtt),
                window: l,
                comprehensive: true,
            },
            tcp: TcpSenderConfig {
                nominal_rtt,
                ..TcpSenderConfig::default()
            },
            seed,
            start_stagger: 0.211,
        }
    }

    /// The paper's lab scenario: 10 Mb/s bottleneck, 25 ms each-way
    /// delay stage, DropTail(`buf`) or RED per [`RedConfig::lab_paper`],
    /// TFRC with `L = 8`, comprehensive control **disabled**,
    /// PFTK-standard.
    pub fn lab_paper(n: usize, queue: QueueSpec, seed: u64) -> Self {
        let nominal_rtt = 0.05;
        let mut tfrc_sender = TfrcSenderConfig::standard(nominal_rtt);
        tfrc_sender.formula = FormulaKind::PftkStandard;
        Self {
            bottleneck_bps: 10e6,
            queue,
            one_way_delay: 0.025,
            n_tfrc: n,
            n_tcp: n,
            poisson_probe: None,
            tfrc: TfrcFlowSpec {
                sender: tfrc_sender,
                window: 8,
                comprehensive: false,
            },
            tcp: TcpSenderConfig {
                nominal_rtt,
                ..TcpSenderConfig::default()
            },
            seed,
            start_stagger: 0.173,
        }
    }
}

impl QueueSpec {
    /// Canonical content key of the queue discipline — every parameter
    /// that changes packet fate, in fixed order.
    pub fn content_key(&self) -> String {
        match self {
            QueueSpec::DropTail(n) => format!("droptail(limit={n})"),
            QueueSpec::Red(rc) => format!(
                "red(limit={},min_th={},max_th={},max_p={},wq={},gentle={},mpt={})",
                rc.limit, rc.min_th, rc.max_th, rc.max_p, rc.wq, rc.gentle, rc.mean_pkt_time
            ),
        }
    }
}

impl DumbbellConfig {
    /// Canonical content key: a fixed-order rendering of *every* field
    /// that influences the simulation. Two configs with equal keys are
    /// guaranteed to produce bit-identical runs (given equal
    /// measurement windows), which is what lets the experiment plan
    /// dedup shared scenario instances by hash.
    pub fn content_key(&self) -> String {
        let rtt_mode = match self.tfrc.sender.rtt_mode {
            ebrc_tfrc::RttMode::Fixed(r) => format!("fixed({r})"),
            ebrc_tfrc::RttMode::Measured => "measured".to_string(),
        };
        let probe = match self.poisson_probe {
            Some(rate) => format!("poisson({rate})"),
            None => "none".to_string(),
        };
        // `onoff=none` is constant but part of every existing key:
        // dropping it would re-address every cache entry and shard.
        format!(
            "bps={}/queue={}/owd={}/ntfrc={}/ntcp={}/probe={}/onoff=none/\
             tfrc(pkt={},formula={},rtt={},nominal={},cap={},init={},min={},max={},L={},comp={})/\
             tcp(pkt={},icwnd={},maxcwnd={},dupack={},rto=[{},{}],nominal={},burst={})/\
             seed={}/stagger={}",
            self.bottleneck_bps,
            self.queue.content_key(),
            self.one_way_delay,
            self.n_tfrc,
            self.n_tcp,
            probe,
            self.tfrc.sender.packet_size,
            self.tfrc.sender.formula.key_name(),
            rtt_mode,
            self.tfrc.sender.nominal_rtt,
            self.tfrc.sender.receive_rate_cap,
            self.tfrc.sender.initial_rate,
            self.tfrc.sender.min_rate,
            self.tfrc.sender.max_rate,
            self.tfrc.window,
            self.tfrc.comprehensive,
            self.tcp.packet_size,
            self.tcp.initial_cwnd,
            self.tcp.max_cwnd,
            self.tcp.dupack_threshold,
            self.tcp.min_rto,
            self.tcp.max_rto,
            self.tcp.nominal_rtt,
            self.tcp.max_burst,
            self.seed,
            self.start_stagger,
        )
    }
}

/// Ids of everything in a built dumbbell.
pub struct DumbbellRun {
    /// The engine, ready to run.
    pub engine: Engine<NetEvent>,
    /// TFRC (sender, receiver) pairs.
    pub tfrc: Vec<(ComponentId, ComponentId)>,
    /// TCP (sender, sink) pairs.
    pub tcp: Vec<(ComponentId, ComponentId)>,
    /// Poisson probe (sender, sink), when configured.
    pub probe: Option<(ComponentId, ComponentId)>,
    /// The bottleneck link.
    pub bottleneck: ComponentId,
    /// The forward/reverse path hops, in topology order (for named
    /// trace tracks).
    hops: [ComponentId; 4],
    nominal_rtt: f64,
    tfrc_formula: FormulaKind,
}

impl DumbbellRun {
    /// Builds and wires the scenario; flows are kicked off staggered
    /// from `t = 0`.
    pub fn build(cfg: &DumbbellConfig) -> Self {
        let mut root_rng = Rng::seed_from(cfg.seed);
        // Pre-size the engine from the topology: 5 fixed hops
        // (bottleneck, two delay boxes, two demuxes) plus an endpoint
        // pair per flow and per optional source. The calendar hint
        // covers each flow's in-flight window plus timers, so the heap
        // reaches steady state without reallocating.
        let components =
            5 + 2 * (cfg.n_tfrc + cfg.n_tcp) + if cfg.poisson_probe.is_some() { 2 } else { 0 };
        let mut eng: Engine<NetEvent> = Engine::with_capacity(components, 64 * components);

        let queue: Box<dyn ebrc_net::AqmQueue> = match &cfg.queue {
            QueueSpec::DropTail(n) => Box::new(DropTailQueue::new(*n)),
            QueueSpec::Red(rc) => Box::new(RedQueue::new(*rc)),
        };
        let bottleneck = eng.add(Box::new(LinkQueue::new(
            queue,
            cfg.bottleneck_bps,
            0.0,
            root_rng.fork("red"),
        )));
        let fwd = eng.add(Box::new(ebrc_net::DelayBox::new(
            cfg.one_way_delay,
            root_rng.fork("fwd"),
        )));
        let fwd_demux = eng.add(Box::new(Demux::new()));
        let rev = eng.add(Box::new(ebrc_net::DelayBox::new(
            cfg.one_way_delay,
            root_rng.fork("rev"),
        )));
        let rev_demux = eng.add(Box::new(Demux::new()));
        eng.get_mut::<LinkQueue>(bottleneck).set_next_hop(fwd);
        eng.get_mut::<ebrc_net::DelayBox>(fwd)
            .set_next_hop(fwd_demux);
        eng.get_mut::<ebrc_net::DelayBox>(rev)
            .set_next_hop(rev_demux);

        let nominal_rtt = 2.0 * cfg.one_way_delay;
        let mut next_flow = 0u32;
        let mut start = 0.0;

        let mut tfrc = Vec::new();
        for _ in 0..cfg.n_tfrc {
            let flow = FlowId(next_flow);
            next_flow += 1;
            let snd = eng.add(Box::new(TfrcSender::new(flow, cfg.tfrc.sender.clone())));
            let rcv = eng.add(Box::new(TfrcReceiver::new(
                flow,
                TfrcReceiverConfig {
                    weights: ebrc_core::weights::WeightProfile::tfrc(cfg.tfrc.window),
                    rtt: nominal_rtt,
                    comprehensive: cfg.tfrc.comprehensive,
                    feedback_period: nominal_rtt,
                    formula: cfg.tfrc.sender.formula,
                },
            )));
            eng.get_mut::<TfrcSender>(snd).set_next_hop(bottleneck);
            eng.get_mut::<TfrcReceiver>(rcv).set_reverse_hop(rev);
            eng.get_mut::<Demux>(fwd_demux).route(flow, rcv);
            eng.get_mut::<Demux>(rev_demux).route(flow, snd);
            eng.schedule(start, snd, NetEvent::Timer(ebrc_tfrc::sender::TIMER_START));
            start += cfg.start_stagger;
            tfrc.push((snd, rcv));
        }

        let mut tcp = Vec::new();
        for _ in 0..cfg.n_tcp {
            let flow = FlowId(next_flow);
            next_flow += 1;
            let snd = eng.add(Box::new(TcpSender::new(flow, cfg.tcp.clone())));
            let sink = eng.add(Box::new(TcpSink::new(flow, 0.1)));
            eng.get_mut::<TcpSender>(snd).set_next_hop(bottleneck);
            eng.get_mut::<TcpSink>(sink).set_reverse_hop(rev);
            eng.get_mut::<Demux>(fwd_demux).route(flow, sink);
            eng.get_mut::<Demux>(rev_demux).route(flow, snd);
            eng.schedule(start, snd, NetEvent::Timer(ebrc_tcp::sender::TIMER_START));
            start += cfg.start_stagger;
            tcp.push((snd, sink));
        }

        let probe = cfg.poisson_probe.map(|rate| {
            let flow = FlowId(next_flow);
            let snd = eng.add(Box::new(PoissonSender::new(
                flow,
                rate,
                1500,
                f64::INFINITY,
                root_rng.fork("probe"),
            )));
            let sink = eng.add(Box::new(ProbeSink::new(nominal_rtt)));
            eng.get_mut::<PoissonSender>(snd).set_next_hop(bottleneck);
            eng.get_mut::<Demux>(fwd_demux).route(flow, sink);
            eng.schedule(0.0, snd, NetEvent::Timer(1));
            (snd, sink)
        });

        Self {
            engine: eng,
            tfrc,
            tcp,
            probe,
            bottleneck,
            hops: [fwd, fwd_demux, rev, rev_demux],
            nominal_rtt,
            tfrc_formula: cfg.tfrc.sender.formula,
        }
    }

    /// Installs a Perfetto trace sink on the engine, with every
    /// component registered under a topology-meaningful track name.
    /// Record the run, then collect the bytes with
    /// [`DumbbellRun::take_trace`].
    pub fn install_tracer(&mut self) {
        let mut sink = ebrc_trace::PerfettoSink::new(ebrc_net::net_event_name);
        sink.register(self.bottleneck, "bottleneck");
        let [fwd, fwd_demux, rev, rev_demux] = self.hops;
        sink.register(fwd, "fwd-delay");
        sink.register(fwd_demux, "fwd-demux");
        sink.register(rev, "rev-delay");
        sink.register(rev_demux, "rev-demux");
        for (i, (snd, rcv)) in self.tfrc.iter().enumerate() {
            sink.register(*snd, &format!("tfrc-{i}-snd"));
            sink.register(*rcv, &format!("tfrc-{i}-rcv"));
        }
        for (i, (snd, sk)) in self.tcp.iter().enumerate() {
            sink.register(*snd, &format!("tcp-{i}-snd"));
            sink.register(*sk, &format!("tcp-{i}-sink"));
        }
        if let Some((snd, sk)) = self.probe {
            sink.register(snd, "probe-snd");
            sink.register(sk, "probe-sink");
        }
        self.engine.set_tracer(Box::new(sink));
    }

    /// Finishes a trace started by [`DumbbellRun::install_tracer`] and
    /// returns the encoded Perfetto bytes (`None` if no tracer was
    /// installed).
    pub fn take_trace(&mut self) -> Option<Vec<u8>> {
        ebrc_trace::take_sink(&mut self.engine).map(ebrc_trace::PerfettoSink::finish)
    }

    /// Runs to `warmup`, snapshots counters, runs to `warmup + span`,
    /// and reports steady-state per-flow measurements.
    ///
    /// The two run legs may equivalently be driven in event-budgeted
    /// slices via [`Engine::run_budgeted`] with
    /// [`DumbbellRun::snapshot_counters`] taken between them — the
    /// engine guarantees sliced execution is bit-identical, which is
    /// how the runner's resumable path measures the same bytes.
    pub fn measure(&mut self, warmup: f64, span: f64) -> RunMeasurements {
        assert!(span > 0.0, "measurement span must be positive");
        self.engine.run_until(warmup);
        let snap = self.snapshot_counters();
        self.engine.run_until(warmup + span);
        self.measurements_since(&snap, span)
    }

    /// Snapshots every flow's cumulative counters — taken at the end of
    /// warm-up so [`DumbbellRun::measurements_since`] can difference the
    /// measurement span out of lifetime totals.
    pub fn snapshot_counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            tfrc: self
                .tfrc
                .iter()
                .map(|(s, r)| {
                    let snd: &TfrcSender = self.engine.get(*s);
                    let rcv: &TfrcReceiver = self.engine.get(*r);
                    (snd.stats().packets_sent, rcv.events(), rcv.inferred_sent())
                })
                .collect(),
            tcp: self
                .tcp
                .iter()
                .map(|(s, _)| {
                    let snd: &TcpSender = self.engine.get(*s);
                    (snd.stats().new_data_sent, snd.recorder().events())
                })
                .collect(),
            probe: self.probe.map(|(_, sink)| {
                let s: &ProbeSink = self.engine.get(sink);
                (s.recorder().events(), s.inferred_sent())
            }),
        }
    }

    /// Computes the per-flow measurement bundle for a span that started
    /// at `snap`. The engine must already stand at the end of the span.
    pub fn measurements_since(&self, snap: &CounterSnapshot, span: f64) -> RunMeasurements {
        let CounterSnapshot {
            tfrc: tfrc_before,
            tcp: tcp_before,
            probe: probe_before,
        } = snap;
        let tfrc = self
            .tfrc
            .iter()
            .zip(tfrc_before)
            .map(|((s, r), (sent0, ev0, seen0))| {
                let snd: &TfrcSender = self.engine.get(*s);
                let rcv: &TfrcReceiver = self.engine.get(*r);
                let sent = snd.stats().packets_sent - sent0;
                let events = rcv.events() - ev0;
                let seen = rcv.inferred_sent() - seen0;
                FlowMeasure {
                    throughput: sent as f64 / span,
                    loss_event_rate: if seen > 0 {
                        events as f64 / seen as f64
                    } else {
                        0.0
                    },
                    rtt_mean: snd.rtt_moments().mean(),
                    normalized_covariance: rcv.normalized_covariance(),
                    cov_rate_duration: snd.cov_rate_duration(),
                    theta_hat_cv2: rcv.theta_hat_moments().cv_squared(),
                }
            })
            .collect();
        let tcp = self
            .tcp
            .iter()
            .zip(tcp_before)
            .map(|((s, _), (sent0, ev0))| {
                let snd: &TcpSender = self.engine.get(*s);
                let sent = snd.stats().new_data_sent - sent0;
                let events = snd.recorder().events() - ev0;
                FlowMeasure {
                    throughput: sent as f64 / span,
                    loss_event_rate: if sent > 0 {
                        events as f64 / sent as f64
                    } else {
                        0.0
                    },
                    rtt_mean: snd.rtt_moments().mean(),
                    normalized_covariance: 0.0,
                    cov_rate_duration: 0.0,
                    theta_hat_cv2: 0.0,
                }
            })
            .collect();
        let probe_loss_rate = self
            .probe
            .zip(*probe_before)
            .map(|((_, sink), (ev0, seen0))| {
                let s: &ProbeSink = self.engine.get(sink);
                let events = s.recorder().events() - ev0;
                let seen = s.inferred_sent() - seen0;
                if seen > 0 {
                    events as f64 / seen as f64
                } else {
                    0.0
                }
            });
        RunMeasurements {
            tfrc,
            tcp,
            probe_loss_rate,
            nominal_rtt: self.nominal_rtt,
            tfrc_formula: self.tfrc_formula,
        }
    }
}

/// Cumulative per-flow counters at the end of warm-up — the baseline
/// [`DumbbellRun::measurements_since`] subtracts so measurements cover
/// the span alone. Plain owned data, so a sliced run carries it across
/// worker threads with the rest of its state.
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    /// Per TFRC pair: (packets sent, loss events, inferred sent).
    tfrc: Vec<(u64, u64, u64)>,
    /// Per TCP pair: (new data sent, loss events).
    tcp: Vec<(u64, u64)>,
    /// Probe sink (loss events, inferred sent), when configured.
    probe: Option<(u64, u64)>,
}

/// Steady-state measurements of one flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowMeasure {
    /// Send rate in packets/second over the measurement span.
    pub throughput: f64,
    /// Loss-event rate (events per packet).
    pub loss_event_rate: f64,
    /// Mean measured RTT (`r` / `r'` in the paper), seconds.
    pub rtt_mean: f64,
    /// `cov[θ0, θ̂0]·p²` (TFRC flows; 0 for TCP).
    pub normalized_covariance: f64,
    /// `cov[X0, S0]` (TFRC flows; 0 for TCP).
    pub cov_rate_duration: f64,
    /// Squared CV of the estimator `θ̂` (TFRC flows; 0 for TCP).
    pub theta_hat_cv2: f64,
}

/// Per-run measurement bundle.
#[derive(Debug, Clone)]
pub struct RunMeasurements {
    /// One entry per TFRC flow.
    pub tfrc: Vec<FlowMeasure>,
    /// One entry per TCP flow.
    pub tcp: Vec<FlowMeasure>,
    /// The Poisson probe's loss-event rate `p''`, when configured.
    pub probe_loss_rate: Option<f64>,
    /// Configured base RTT (2× one-way delay).
    pub nominal_rtt: f64,
    /// The formula TFRC flows are driven by.
    pub tfrc_formula: FormulaKind,
}

impl RunMeasurements {
    /// Mean over TFRC flows of a field.
    pub fn tfrc_mean(&self, f: impl Fn(&FlowMeasure) -> f64) -> f64 {
        mean(self.tfrc.iter().map(f))
    }

    /// Mean over TCP flows of a field.
    pub fn tcp_mean(&self, f: impl Fn(&FlowMeasure) -> f64) -> f64 {
        mean(self.tcp.iter().map(f))
    }

    /// TFRC flows that actually reached steady state: saw loss events
    /// and a plausible RTT. Start-up-starved flows (possible under
    /// extreme contention, as in real TFRC) are excluded from aggregate
    /// statistics exactly as a measurement campaign would discard
    /// connections that never got going.
    pub fn tfrc_valid(&self) -> impl Iterator<Item = &FlowMeasure> {
        self.tfrc
            .iter()
            .filter(|f| f.loss_event_rate > 0.0 && f.rtt_mean > 0.0)
    }

    /// TCP flows with loss events.
    pub fn tcp_valid(&self) -> impl Iterator<Item = &FlowMeasure> {
        self.tcp
            .iter()
            .filter(|f| f.loss_event_rate > 0.0 && f.rtt_mean > 0.0)
    }

    /// Mean over valid TFRC flows of a derived quantity.
    pub fn tfrc_valid_mean(&self, f: impl Fn(&FlowMeasure) -> f64) -> f64 {
        mean(self.tfrc_valid().map(f))
    }

    /// Mean over valid TCP flows of a derived quantity.
    pub fn tcp_valid_mean(&self, f: impl Fn(&FlowMeasure) -> f64) -> f64 {
        mean(self.tcp_valid().map(f))
    }

    /// Mean per-flow normalized throughput `x_i / f(p_i, r_i)` over
    /// valid TFRC flows — the Figure 5 statistic (mean of ratios, not
    /// ratio of means: the latter is distorted by cross-flow variance).
    pub fn tfrc_normalized_throughput(&self) -> f64 {
        let k = self.tfrc_formula;
        self.tfrc_valid_mean(|f| f.throughput / k.rate(f.loss_event_rate, f.rtt_mean))
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns2_scenario_runs_and_shares_the_link() {
        let cfg = DumbbellConfig::ns2_paper(2, 8, 42);
        let mut run = DumbbellRun::build(&cfg);
        let m = run.measure(20.0, 40.0);
        // 15 Mb/s = 1250 pps; 4 flows should jointly keep it busy.
        let total: f64 = m.tfrc.iter().chain(&m.tcp).map(|f| f.throughput).sum();
        assert!(total > 800.0, "aggregate {total} pps");
        // Everyone got a nonzero share and experienced losses.
        for f in m.tfrc.iter().chain(&m.tcp) {
            assert!(f.throughput > 20.0, "starved flow: {}", f.throughput);
            assert!(f.loss_event_rate > 0.0);
            assert!(f.rtt_mean > 0.04 && f.rtt_mean < 0.3, "rtt {}", f.rtt_mean);
        }
    }

    #[test]
    fn probe_measures_nonzero_loss_when_congested() {
        let mut cfg = DumbbellConfig::ns2_paper(4, 8, 7);
        cfg.poisson_probe = Some(10.0);
        let mut run = DumbbellRun::build(&cfg);
        let m = run.measure(20.0, 40.0);
        let p2 = m.probe_loss_rate.unwrap();
        assert!(p2 > 0.0, "probe saw no loss");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let cfg = DumbbellConfig::ns2_paper(1, 8, 99);
        let m1 = DumbbellRun::build(&cfg).measure(10.0, 20.0);
        let m2 = DumbbellRun::build(&cfg).measure(10.0, 20.0);
        assert_eq!(m1.tfrc[0].throughput, m2.tfrc[0].throughput);
        assert_eq!(m1.tcp[0].loss_event_rate, m2.tcp[0].loss_event_rate);
    }

    #[test]
    fn content_key_tracks_every_varied_field() {
        let base = DumbbellConfig::ns2_paper(4, 8, 42);
        assert_eq!(base.content_key(), base.clone().content_key());
        let mut probe = base.clone();
        probe.poisson_probe = Some(5.0);
        assert_ne!(base.content_key(), probe.content_key());
        let mut reseeded = base.clone();
        reseeded.seed = 43;
        assert_ne!(base.content_key(), reseeded.content_key());
        let mut window = base.clone();
        window.tfrc.window = 16;
        assert_ne!(base.content_key(), window.content_key());
        assert_ne!(
            DumbbellConfig::lab_paper(1, QueueSpec::DropTail(64), 1).content_key(),
            DumbbellConfig::lab_paper(1, QueueSpec::DropTail(100), 1).content_key()
        );
    }

    #[test]
    fn lab_scenario_droptail_runs() {
        let cfg = DumbbellConfig::lab_paper(2, QueueSpec::DropTail(64), 3);
        let mut run = DumbbellRun::build(&cfg);
        let m = run.measure(20.0, 30.0);
        let total: f64 = m.tfrc.iter().chain(&m.tcp).map(|f| f.throughput).sum();
        // 10 Mb/s = 833 pps.
        assert!(total > 500.0, "aggregate {total}");
    }
}
