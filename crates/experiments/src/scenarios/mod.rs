//! Scenario builders shared by the experiments, the network core both
//! of them route through, and the [`Scenario`] seam the spec layer
//! drives them through.

pub mod dumbbell;
pub mod manyflow;

pub use dumbbell::{
    CounterSnapshot, DumbbellConfig, DumbbellRun, FlowMeasure, QueueSpec, RunMeasurements,
    TfrcFlowSpec,
};
pub use manyflow::{
    ClassKind, FlowClass, ManyFlowConfig, ManyFlowMeasure, ManyFlowMeasurements, ManyFlowRun,
    ManyFlowSnapshot,
};

use crate::spec::SpecOutput;
use ebrc_dist::Rng;
use ebrc_net::{AqmQueue, DelayBox, Demux, LinkQueue, NetEvent};
use ebrc_sim::{ComponentId, Engine};
use ebrc_trace::PerfettoSink;

/// The five hops of a dumbbell's network core, wired in topology order:
///
/// ```text
/// senders ─→ [bottleneck] → [fwd-delay] → [fwd-demux] ─→ receivers
/// senders ←─ [rev-demux] ← [rev-delay] ←──────────────── receivers
/// ```
///
/// Endpoints send data to `bottleneck` and feedback to `rev`, and
/// register their routes on the two demuxes.
pub(crate) struct NetCore {
    /// The bottleneck queue and link.
    pub(crate) bottleneck: ComponentId,
    fwd: ComponentId,
    /// Routes data to the receivers.
    pub(crate) fwd_demux: ComponentId,
    /// The reverse path's delay box: where receivers send feedback.
    pub(crate) rev: ComponentId,
    /// Routes feedback to the senders.
    pub(crate) rev_demux: ComponentId,
}

impl NetCore {
    /// Adds the five hops to `eng` — bottleneck, forward delay, forward
    /// demux, reverse delay, reverse demux, in that id order — and wires
    /// them. `rngs` seed the link and the forward and reverse delay
    /// boxes, in that order.
    pub(crate) fn add(
        eng: &mut Engine<NetEvent>,
        queue: Box<dyn AqmQueue>,
        bottleneck_bps: f64,
        one_way_delay: f64,
        rngs: [Rng; 3],
    ) -> Self {
        let [link_rng, fwd_rng, rev_rng] = rngs;
        let bottleneck = eng.add(Box::new(LinkQueue::new(
            queue,
            bottleneck_bps,
            0.0,
            link_rng,
        )));
        let fwd = eng.add(Box::new(DelayBox::new(one_way_delay, fwd_rng)));
        let fwd_demux = eng.add(Box::new(Demux::new()));
        let rev = eng.add(Box::new(DelayBox::new(one_way_delay, rev_rng)));
        let rev_demux = eng.add(Box::new(Demux::new()));
        eng.get_mut::<LinkQueue>(bottleneck).set_next_hop(fwd);
        eng.get_mut::<DelayBox>(fwd).set_next_hop(fwd_demux);
        eng.get_mut::<DelayBox>(rev).set_next_hop(rev_demux);
        Self {
            bottleneck,
            fwd,
            fwd_demux,
            rev,
            rev_demux,
        }
    }

    /// A Perfetto sink with the five hops registered under their track
    /// names; the caller registers its endpoints after them.
    pub(crate) fn tracer(&self) -> PerfettoSink<NetEvent> {
        let mut sink = PerfettoSink::new(ebrc_net::net_event_name);
        sink.register(self.bottleneck, "bottleneck");
        sink.register(self.fwd, "fwd-delay");
        sink.register(self.fwd_demux, "fwd-demux");
        sink.register(self.rev, "rev-delay");
        sink.register(self.rev_demux, "rev-demux");
        sink
    }
}

/// Loss events per packet over a measured span; 0 when no packet was
/// seen.
fn loss_event_rate(events: u64, packets: u64) -> f64 {
    if packets > 0 {
        events as f64 / packets as f64
    } else {
        0.0
    }
}

/// A built packet-level scenario, as the spec layer sees it: an engine
/// to run to the warm-up boundary, counters to snapshot there, and
/// measurements to difference out of them at the end of the span. The
/// one sliced state machine in [`crate::spec`] is generic over this, so
/// a new scenario family is one `impl Scenario` plus one
/// [`SimSpec`](crate::SimSpec) arm.
pub trait Scenario: Send + 'static {
    /// The cumulative counters captured at the warm-up boundary.
    type Snapshot: Send;

    /// What a measured span reports; the spec output is made from it.
    type Measurements: Into<SpecOutput>;

    /// The engine to drive.
    fn engine_mut(&mut self) -> &mut Engine<NetEvent>;

    /// Snapshots the cumulative counters (taken at the end of warm-up).
    fn snapshot(&self) -> Self::Snapshot;

    /// The measurements of a `span`-second window that started at
    /// `snap`; the engine must already stand at the end of the span.
    fn measurements_since(&self, snap: &Self::Snapshot, span: f64) -> Self::Measurements;

    /// Installs a Perfetto trace sink on the engine (before the run),
    /// with the scenario's components registered under named tracks.
    fn install_tracer(&mut self);

    /// Runs to `warmup`, snapshots the counters, runs to
    /// `warmup + span`, and measures the span.
    ///
    /// The two legs may equivalently be driven in event-budget slices
    /// with [`Scenario::snapshot`] between them — sliced execution is
    /// bit-identical by the engine's contract, which is how the
    /// runner's sliced path measures the same bytes.
    fn measure(&mut self, warmup: f64, span: f64) -> Self::Measurements {
        assert!(span > 0.0, "measurement span must be positive");
        self.engine_mut().run_until(warmup);
        let snap = self.snapshot();
        self.engine_mut().run_until(warmup + span);
        self.measurements_since(&snap, span)
    }
}
