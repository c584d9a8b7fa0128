//! Closing the loop between the packet-level simulator and the
//! analytic machinery: loss-event intervals *measured* in a dumbbell
//! run are replayed through the basic control, and the theory report
//! evaluated on real network loss statistics.
//!
//! The receiver keeps only running sums, not its intervals, so the
//! trace comes from [`LossIntervalTap`]: a [`TraceSink`] that watches
//! the data packets delivered to one TFRC receiver and re-derives the
//! loss-event intervals `θ_n` with the receiver's RFC 3448 rule. Its
//! event count and loss-event rate must agree with the receiver's own,
//! which makes it an independent oracle for the receiver's loss
//! accounting.

use ebrc::core::control::BasicControl;
use ebrc::core::formula::PftkStandard;
use ebrc::core::theory::{analyze, Verdict};
use ebrc::core::weights::WeightProfile;
use ebrc::dist::{Replay, Rng, TraceProcess};
use ebrc::experiments::scenarios::{DumbbellConfig, DumbbellRun, QueueSpec};
use ebrc::net::NetEvent;
use ebrc::sim::{ComponentId, TraceSink};
use ebrc::tfrc::TfrcReceiver;

/// Re-derives one TFRC receiver's loss events from the data packets
/// delivered to it. A sequence gap opens a new loss event iff
/// `now ≥ last_event + rtt`; the event's interval `θ` is closed, when
/// the next event opens, as `expected_seq − open_start`.
struct LossIntervalTap {
    receiver: ComponentId,
    rtt: f64,
    expected_seq: u64,
    open_start: u64,
    last_event: f64,
    events: u64,
    intervals: Vec<f64>,
}

impl LossIntervalTap {
    fn new(receiver: ComponentId, rtt: f64) -> Self {
        Self {
            receiver,
            rtt,
            expected_seq: 0,
            open_start: 0,
            last_event: f64::NEG_INFINITY,
            events: 0,
            intervals: Vec::new(),
        }
    }
}

impl TraceSink<NetEvent> for LossIntervalTap {
    fn on_event(&mut self, now: f64, target: ComponentId, event: &NetEvent) {
        let NetEvent::Packet(pkt) = event else {
            return;
        };
        if target != self.receiver || !pkt.is_data() {
            return;
        }
        if pkt.seq > self.expected_seq && now >= self.last_event + self.rtt {
            if self.events > 0 {
                self.intervals
                    .push((self.expected_seq - self.open_start) as f64);
            }
            self.open_start = self.expected_seq;
            self.last_event = now;
            self.events += 1;
        }
        self.expected_seq = self.expected_seq.max(pkt.seq + 1);
    }

    fn on_counter(&mut self, _: f64, _: ComponentId, _: &'static str, _: f64) {}

    fn on_instant(&mut self, _: f64, _: ComponentId, _: &'static str) {}
}

/// Harvests a loss-interval trace from a packet-level run, checking
/// the tap against the receiver's own loss accounting.
fn harvest_trace(seed: u64) -> Vec<f64> {
    let cfg = DumbbellConfig::lab_paper(4, QueueSpec::DropTail(64), seed);
    let mut run = DumbbellRun::build(&cfg);
    let (_, rcv) = run.tfrc[0];
    let rtt = 2.0 * cfg.one_way_delay;
    run.engine
        .set_tracer(Box::new(LossIntervalTap::new(rcv, rtt)));
    run.engine.run_until(120.0);
    let tracer: Box<dyn std::any::Any> = run.engine.take_tracer().expect("tap installed");
    let tap = tracer
        .downcast::<LossIntervalTap>()
        .expect("the tap is the installed tracer");
    let r: &TfrcReceiver = run.engine.get(rcv);
    assert_eq!(tap.events, r.events(), "loss events, seed {seed}");
    assert_eq!(tap.expected_seq, r.inferred_sent(), "sent, seed {seed}");
    let p = tap.events as f64 / tap.expected_seq as f64;
    assert_eq!(p.to_bits(), r.loss_event_rate().to_bits(), "p, seed {seed}");
    tap.intervals
}

#[test]
fn measured_trace_drives_the_analytic_control() {
    let intervals = harvest_trace(3);
    assert!(
        intervals.len() > 30,
        "need a meaningful trace, got {} intervals",
        intervals.len()
    );
    // Replay the measured loss process through the basic control.
    let f = PftkStandard::with_rtt(0.05);
    let mut process = TraceProcess::new(intervals, Replay::Loop);
    let mut rng = Rng::seed_from(1);
    let trace =
        BasicControl::new(f.clone(), WeightProfile::tfrc(8)).run(&mut process, &mut rng, 5_000);
    let report = analyze(&f, &trace);
    // The report must be internally consistent on real network data.
    assert!(report.consistent(0.1), "{}", report.render());
    assert!(report.p > 0.0);
}

#[test]
fn bootstrap_replay_restores_condition_c1() {
    // Bootstrapping the same trace destroys its autocovariance, so the
    // i.i.d. machinery (Theorem 1 via (C1)) applies to the resampled
    // process even when the raw trace is correlated.
    let intervals = harvest_trace(4);
    let f = PftkStandard::with_rtt(0.05);
    let mut process = TraceProcess::new(intervals, Replay::Bootstrap);
    let mut rng = Rng::seed_from(2);
    let trace =
        BasicControl::new(f.clone(), WeightProfile::tfrc(8)).run(&mut process, &mut rng, 20_000);
    let report = analyze(&f, &trace);
    assert!(
        report.c1_normalized.abs() < 0.05,
        "bootstrap should decorrelate: {}",
        report.c1_normalized
    );
    if report.theorem1 == Verdict::Conservative {
        assert!(report.normalized_throughput <= 1.0 + 0.05);
    }
}
