//! Scenario builders shared by the experiments, and the [`Scenario`]
//! seam the spec layer drives them through.

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
use ebrc_net::NetEvent;
use ebrc_sim::Engine;

/// A built packet-level scenario, as the spec layer sees it: an engine
/// to run to the warm-up boundary, counters to snapshot there, and a
/// spec output to difference out of them at the end of the span. The
/// one sliced state machine in [`crate::spec`] is generic over this, so
/// a new scenario family is one `impl Scenario` plus one
/// [`SimSpec`](crate::SimSpec) arm.
pub trait Scenario: Send + 'static {
    /// The cumulative counters captured at the warm-up boundary.
    type Snapshot: Send;

    /// The engine to drive.
    fn engine_mut(&mut self) -> &mut Engine<NetEvent>;

    /// Snapshots the cumulative counters (taken at the end of warm-up).
    fn snapshot(&self) -> Self::Snapshot;

    /// The spec output for a `span`-second window that started at
    /// `snap`; the engine must already stand at the end of the span.
    fn output_since(&self, snap: &Self::Snapshot, span: f64) -> SpecOutput;

    /// Installs a Perfetto trace sink on the engine (before the run),
    /// with the scenario's components registered under named tracks.
    fn install_tracer(&mut self);
}

impl Scenario for DumbbellRun {
    type Snapshot = CounterSnapshot;

    fn engine_mut(&mut self) -> &mut Engine<NetEvent> {
        &mut self.engine
    }

    fn snapshot(&self) -> CounterSnapshot {
        self.snapshot_counters()
    }

    fn output_since(&self, snap: &CounterSnapshot, span: f64) -> SpecOutput {
        SpecOutput::Run(self.measurements_since(snap, span))
    }

    fn install_tracer(&mut self) {
        DumbbellRun::install_tracer(self);
    }
}

impl Scenario for ManyFlowRun {
    type Snapshot = ManyFlowSnapshot;

    fn engine_mut(&mut self) -> &mut Engine<NetEvent> {
        &mut self.engine
    }

    fn snapshot(&self) -> ManyFlowSnapshot {
        self.snapshot_counters()
    }

    fn output_since(&self, snap: &ManyFlowSnapshot, span: f64) -> SpecOutput {
        SpecOutput::Scalars(self.measurements_since(snap, span).summary())
    }

    fn install_tracer(&mut self) {
        ManyFlowRun::install_tracer(self);
    }
}
