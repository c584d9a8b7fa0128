//! `dumbbell_long` and `manyflow_10k`.

use super::{Config, LayerValues, Pass, Workload};
use crate::gate::{check_sim, outputs_digest, Bottleneck};
use crate::probes::{self, timed};
use crate::spans::{Recorder, SelfTotals};
use ebrc_experiments::figures::lab::lab_queues;
use ebrc_experiments::scenarios::{
    CounterSnapshot, DumbbellConfig, DumbbellRun, ManyFlowConfig, ManyFlowRun, ManyFlowSnapshot,
};
use ebrc_experiments::spec::{buffer_sweep_config, manyflow_config, ns2_config, SweepMode};
use ebrc_experiments::{SimSpec, SpecOutput};
use ebrc_net::{LinkQueue, NetEvent};
use ebrc_runner::Spec;
use ebrc_sim::Engine;

/// What the harness needs of a built single sim — the two scenario
/// families expose it under the same method names but share no trait.
trait Scenario {
    type Snapshot;
    fn engine(&mut self) -> &mut Engine<NetEvent>;
    fn bottleneck(&self) -> &LinkQueue;
    fn snapshot(&self) -> Self::Snapshot;
    fn output(&self, snap: &Self::Snapshot, span: f64) -> SpecOutput;
}

impl Scenario for DumbbellRun {
    type Snapshot = CounterSnapshot;
    fn engine(&mut self) -> &mut Engine<NetEvent> {
        &mut self.engine
    }
    fn bottleneck(&self) -> &LinkQueue {
        self.engine.get(self.bottleneck)
    }
    fn snapshot(&self) -> CounterSnapshot {
        self.snapshot_counters()
    }
    fn output(&self, snap: &CounterSnapshot, span: f64) -> SpecOutput {
        SpecOutput::Run(self.measurements_since(snap, span))
    }
}

impl Scenario for ManyFlowRun {
    type Snapshot = ManyFlowSnapshot;
    fn engine(&mut self) -> &mut Engine<NetEvent> {
        &mut self.engine
    }
    fn bottleneck(&self) -> &LinkQueue {
        self.engine.get(self.bottleneck)
    }
    fn snapshot(&self) -> ManyFlowSnapshot {
        self.snapshot_counters()
    }
    fn output(&self, snap: &ManyFlowSnapshot, span: f64) -> SpecOutput {
        SpecOutput::Scalars(self.measurements_since(snap, span).summary())
    }
}

/// Runs `f`, inside a span when a recorder is given.
fn step<R>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.span(name, |_| f()),
        None => f(),
    }
}

/// A finished single sim.
struct SimDone {
    output: SpecOutput,
    pkts: u64,
    events: u64,
    verdict: Result<(), String>,
}

/// Builds and measures one sim exactly as `SimSpec::run` does — build,
/// warm-up leg, counter snapshot, span leg, measurements — keeping the
/// scenario so the bottleneck's counters can be read afterwards.
fn drive<S: Scenario>(
    mut rec: Option<&mut Recorder>,
    build: impl FnOnce() -> S,
    (warmup, span): (f64, f64),
) -> SimDone {
    let mut run = step(&mut rec, "scenarios.build", build);
    step(&mut rec, "sim.warmup", || run.engine().run_until(warmup));
    let snap = run.snapshot();
    step(&mut rec, "sim.span", || {
        run.engine().run_until(warmup + span)
    });
    let output = step(&mut rec, "scenarios.measure", || run.output(&snap, span));
    let elapsed = run.engine().now();
    let events = run.engine().events_processed();
    let link = run.bottleneck();
    let bottleneck = Bottleneck {
        queue: link.queue_stats(),
        queued: link.queue_len(),
        link: link.link_stats(),
        elapsed,
    };
    SimDone {
        verdict: check_sim(&bottleneck, &output),
        pkts: bottleneck.link.transmitted,
        events,
        output,
    }
}

/// Folds finished sims into a pass: one operation per sim plus one
/// output check.
fn pass_of_sims(sims: Vec<SimDone>, wall_s: f64) -> Pass {
    let pass = Pass {
        wall_s,
        pkts: sims.iter().map(|s| s.pkts).sum(),
        events: sims.iter().map(|s| s.events).sum(),
        digest: outputs_digest(sims.iter().map(|s| &s.output)),
        attempted: sims.len() as u64 + 1,
        ..Pass::default()
    };
    sims.into_iter()
        .fold(pass, |pass, sim| pass.checked(sim.verdict))
}

/// The per-layer rows every single sim's trace gives.
fn sim_layer_values(rec: &Recorder, traced: &Pass, untraced: &Pass) -> (LayerValues, SelfTotals) {
    let totals = SelfTotals::of(rec.spans());
    let legs = totals.secs("sim.warmup") + totals.secs("sim.span");
    let whole = legs + totals.secs("scenarios.build") + totals.secs("scenarios.measure");
    let mut v = LayerValues::new();
    v.insert("sim.events", traced.events as f64);
    v.insert("sim.events_per_s", traced.events as f64 / legs);
    v.insert("scenarios.warmup_share", totals.secs("sim.warmup") / whole);
    v.insert(
        "scenarios.measure_us",
        totals.secs_each("scenarios.measure") * 1e6,
    );
    v.insert(
        "bench.trace_overhead_ratio",
        traced.wall_s / untraced.wall_s,
    );
    (v, totals)
}

fn same_output(traced: &Pass, untraced: &Pass) -> Result<(), String> {
    if traced.digest == untraced.digest && traced.failed == 0 {
        Ok(())
    } else {
        Err(format!(
            "the traced pass produced {:016x} ({:?}), the untraced {:016x}",
            traced.digest, traced.errors, untraced.digest
        ))
    }
}

/// Two paper-length boxed-endpoint dumbbells, back to back on one
/// thread: the ns-2 RED scenario with 16+16 flows and the lab
/// DropTail(100) scenario with 4+4.
pub(super) struct DumbbellLong {
    ns2: DumbbellConfig,
    lab: DumbbellConfig,
    window: (f64, f64),
    seed: u64,
    probe_window: (f64, f64),
    probe_ops: u64,
}

/// `lab_queues()` index of DropTail(100).
const LAB_DROPTAIL_100: usize = 1;

impl DumbbellLong {
    pub(super) fn new(cfg: &Config) -> Result<Self, String> {
        let (warmup, span) = cfg.sizes.long_window;
        let rep = cfg.seed as usize;
        let seed = u64::from(cfg.seed);
        let ns2 = ns2_config(16, 8, rep, None);
        let (_, queue) = lab_queues().swap_remove(LAB_DROPTAIL_100);
        let lab = DumbbellConfig::lab_paper(4, queue, seed);
        // The configs built here must be the ones the catalogue's own
        // specs run, or the workload measures something users do not.
        let specs = [
            SimSpec::Ns2Dumbbell {
                n: 16,
                l: 8,
                rep,
                probe: None,
                warmup,
                span,
            },
            SimSpec::LabDumbbell {
                queue: LAB_DROPTAIL_100,
                n: 4,
                seed,
                warmup,
                span,
            },
        ];
        for (spec, config) in specs.iter().zip([&ns2, &lab]) {
            let want = format!(
                "dumbbell/{}/warmup={warmup}/span={span}",
                config.content_key()
            );
            if spec.key() != want {
                return Err(format!("spec {} is not config {want}", spec.key()));
            }
        }
        let scale = cfg.sizes.scale.0;
        Ok(Self {
            ns2,
            lab,
            window: cfg.sizes.long_window,
            seed,
            probe_window: (scale.sim_warmup, scale.sim_span),
            probe_ops: cfg.sizes.probe_ops,
        })
    }

    fn run(&self, mut rec: Option<&mut Recorder>) -> Pass {
        let (sims, wall_s) = timed(|| {
            vec![
                drive(
                    rec.as_deref_mut(),
                    || DumbbellRun::build(&self.ns2),
                    self.window,
                ),
                drive(rec, || DumbbellRun::build(&self.lab), self.window),
            ]
        });
        pass_of_sims(sims, wall_s)
    }
}

impl Workload for DumbbellLong {
    fn pass(&mut self) -> Pass {
        self.run(None)
    }

    fn trace(
        &mut self,
        rec: &mut Recorder,
        untraced: &Pass,
        _notes: &mut Vec<String>,
    ) -> Result<LayerValues, String> {
        let traced = self.run(Some(rec));
        same_output(&traced, untraced)?;
        let (mut v, totals) = sim_layer_values(rec, &traced, untraced);
        v.insert(
            "scenarios.dumbbell_build_us",
            totals.secs_each("scenarios.build") * 1e6,
        );

        let ops = self.probe_ops;
        let dispatch = probes::dispatch_ns(5 * ops);
        v.insert("sim.dispatch_ns", dispatch);
        v.insert("net.droptail_pkt_ns", probes::droptail_pkt_ns(ops));
        v.insert("net.red_pkt_ns", probes::red_pkt_ns(ops));
        v.insert("net.link_pkt_ns", probes::link_pkt_ns(ops / 2, dispatch));
        v.insert("tfrc.formula_ns", probes::formula_ns(ops));
        let (warmup, span) = self.probe_window;
        for (metric, mode) in [
            ("tfrc.alone_pkt_ns", SweepMode::TfrcAlone),
            ("tcp.alone_pkt_ns", SweepMode::TcpAlone),
        ] {
            let alone = buffer_sweep_config(mode, 100, self.seed);
            v.insert(metric, probes::dumbbell_pkt_ns(&alone, warmup, span));
        }
        // The ns-2 leg's config over the catalogue's window (quick: 20 s
        // + 60 s): a sim-time trace of the full 2500 s would be gigabytes.
        let cost = probes::trace_cost(&self.ns2, warmup + span)?;
        v.insert("trace.sink_overhead_ratio", cost.overhead_ratio);
        v.insert("trace.bytes_per_event", cost.bytes_per_event);
        v.insert("trace.validate_mb_per_s", cost.validate_mb_per_s);
        Ok(v)
    }
}

/// One many-flow dumbbell on one thread: `n` TFRC + `n/10` AIMD flows
/// in SoA banks.
pub(super) struct ManyFlow {
    config: ManyFlowConfig,
    window: (f64, f64),
    small: ManyFlowConfig,
    probe_ops: u64,
}

impl ManyFlow {
    pub(super) fn new(cfg: &Config) -> Self {
        let (n, window) = cfg.sizes.manyflow;
        let rep = cfg.seed as usize;
        Self {
            config: manyflow_config(n, rep),
            window,
            small: manyflow_config(n / 10, rep),
            probe_ops: cfg.sizes.probe_ops,
        }
    }

    fn run(&self, rec: Option<&mut Recorder>) -> Pass {
        let (sim, wall_s) = timed(|| drive(rec, || ManyFlowRun::build(&self.config), self.window));
        pass_of_sims(vec![sim], wall_s)
    }
}

impl Workload for ManyFlow {
    fn pass(&mut self) -> Pass {
        self.run(None)
    }

    fn trace(
        &mut self,
        rec: &mut Recorder,
        untraced: &Pass,
        _notes: &mut Vec<String>,
    ) -> Result<LayerValues, String> {
        let traced = self.run(Some(rec));
        same_output(&traced, untraced)?;
        let (mut v, totals) = sim_layer_values(rec, &traced, untraced);
        v.insert(
            "scenarios.manyflow_build_ms",
            totals.secs("scenarios.build") * 1e3,
        );
        // Population scaling: the same scenario at a tenth of the flows.
        let (warmup, span) = self.window;
        v.insert(
            "scenarios.manyflow_pkt_ns_10k",
            traced.wall_s * 1e9 / traced.pkts as f64,
        );
        v.insert(
            "scenarios.manyflow_pkt_ns_1k",
            probes::manyflow_pkt_ns(&self.small, warmup, span),
        );
        let ops = self.probe_ops;
        v.insert("sim.wheel_hold_ns_100", probes::wheel_hold_ns(100, ops));
        v.insert("sim.wheel_hold_ns_10k", probes::wheel_hold_ns(10_000, ops));
        v.insert(
            "sim.wheel_hold_ns_100k",
            probes::wheel_hold_ns(100_000, ops),
        );
        v.insert("sim.heap_hold_ns_10k", probes::heap_hold_ns(10_000, ops));
        Ok(v)
    }
}
