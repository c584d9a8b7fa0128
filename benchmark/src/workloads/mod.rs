//! The five workloads. Each drives the system only through public
//! library functions, from inputs generated from the seed: the crates
//! receive specs and configs, never the seed itself.
//!
//! A workload is built by [`setup`] (timed as `setup_s`), then asked
//! for untimed-by-the-caller [`Workload::pass`]es that time themselves,
//! and — in a traced run — for one [`Workload::trace`] that repeats a
//! pass under the span recorder and adds the layer probes it owns.

mod catalogue;
mod service;
mod single_sim;

pub use service::populate;

use crate::gate::{golden_gate, Rendered};
use crate::metrics::{
    CATALOGUE_COLD, CATALOGUE_SLICED_POPULATE, DUMBBELL_LONG, MANYFLOW_10K, SERVICE_WARM,
};
use crate::spans::Recorder;
use ebrc_experiments::{all_experiments, Experiment, Plan, Scale, SpecOutput};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// How much work one pass does. `full` is what the committed numbers
/// are measured at; `smoke` shrinks every workload for iteration and
/// its numbers are not comparable with anything.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Catalogue scale and the name the daemon knows it by.
    pub scale: (Scale, &'static str),
    /// `dumbbell_long`: (warm-up, span) simulated seconds of both sims.
    pub long_window: (f64, f64),
    /// `manyflow_10k`: TFRC population and (warm-up, span).
    pub manyflow: (usize, (f64, f64)),
    /// `service_warm`: submissions per pass.
    pub submits: usize,
    /// Iterations of each nanosecond-scale probe loop.
    pub probe_ops: u64,
}

impl Sizes {
    /// The sizes the ledger is measured at.
    pub fn full() -> Self {
        Self {
            scale: (Scale::quick(), "quick"),
            long_window: (200.0, 2_300.0),
            manyflow: (10_000, (5.0, 10.0)),
            submits: 200,
            probe_ops: 200_000,
        }
    }

    /// Every workload in about a second.
    pub fn smoke() -> Self {
        Self {
            scale: (Scale::tiny(), "tiny"),
            long_window: (4.0, 8.0),
            manyflow: (1_000, (2.0, 4.0)),
            submits: 10,
            probe_ops: 20_000,
        }
    }
}

/// What one workload run is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: &'static str,
    /// The only source of variation: `rep`/`seed` of the single sims,
    /// and the rotation of the experiment order handed to the
    /// catalogue and the daemon. At most `u32::MAX` (checked where the
    /// command line is parsed), so it is a replica index on any host.
    pub seed: u32,
    /// Pool threads where a pool is used.
    pub threads: usize,
    /// Pass sizes.
    pub sizes: Sizes,
    /// Scratch directory for caches and the daemon's socket. The
    /// process's working directory, so socket paths stay short.
    pub scratch: PathBuf,
}

/// What one pass did and found.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds the pass's work took (checks excluded).
    pub wall_s: f64,
    /// Unique sims completed (the catalogue workloads).
    pub sims: u64,
    /// Bottleneck packets transmitted (the single sims).
    pub pkts: u64,
    /// One latency per submission (`service_warm`).
    pub latencies_ms: Vec<f64>,
    /// Engine events dispatched.
    pub events: u64,
    /// Digest of what the pass computed.
    pub digest: u64,
    /// Operations attempted: sims, reduces, submissions, output checks.
    pub attempted: u64,
    /// Operations failed; all of them when any check fails.
    pub failed: u64,
    /// What failed.
    pub errors: Vec<String>,
    /// Exact counts the pass observed, for its traced run to report.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Folds a check's verdict in: a failed check fails the whole pass.
    fn checked(mut self, verdict: Result<(), String>) -> Self {
        if let Err(e) = verdict {
            self.failed = self.attempted;
            self.errors.push(e);
        }
        self
    }
}

/// Per-layer metric values by name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// A workload, set up and ready for passes.
pub trait Workload {
    /// One timed pass with the span recorder off.
    fn pass(&mut self) -> Pass;

    /// One pass under the span recorder plus the probes this workload
    /// owns. `untraced` is a pass measured just before, for ratios.
    /// Lines pushed to `notes` are printed with the result.
    fn trace(
        &mut self,
        rec: &mut Recorder,
        untraced: &Pass,
        notes: &mut Vec<String>,
    ) -> Result<LayerValues, String>;

    /// Stops whatever the workload started.
    fn teardown(self: Box<Self>) {}
}

/// Builds the workload named in `cfg`. Everything here is `setup_s`:
/// the golden gate, config and plan construction and, for the service,
/// cache population, daemon start and warm-up submissions.
pub fn setup(cfg: &Config) -> Result<Box<dyn Workload>, String> {
    // The golden gate's pool threads and the memory of 162 tiny sims
    // would otherwise sit in the workload's `peak_rss_mb`.
    spawn_self(cfg, &["gate", "--seed", &cfg.seed.to_string()])?;
    let experiments = rotated_experiments(cfg.seed);
    Ok(match cfg.workload {
        CATALOGUE_COLD => Box::new(catalogue::Catalogue::new(cfg, experiments, false)),
        CATALOGUE_SLICED_POPULATE => Box::new(catalogue::Catalogue::new(cfg, experiments, true)),
        DUMBBELL_LONG => Box::new(single_sim::DumbbellLong::new(cfg)?),
        MANYFLOW_10K => Box::new(single_sim::ManyFlow::new(cfg)),
        SERVICE_WARM => Box::new(service::Service::start(cfg, experiments)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The golden gate: the whole catalogue at tiny scale, in the seed's
/// rotated order, against the repo's golden corpus.
pub fn gate(seed: u32, threads: usize) -> Result<(), String> {
    golden_gate(&as_refs(&rotated_experiments(seed)), threads)
}

/// Runs one of this binary's set-up commands (`gate`, `populate`) in a
/// process of its own, at this run's thread count, waits for it and
/// returns what it printed: set-up work done here would count towards
/// the workload's `peak_rss_mb`.
fn spawn_self(cfg: &Config, command: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(command)
        .args(["--threads", &cfg.threads.to_string()])
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start `{}`: {e}", command[0]))?;
    if out.status.success() {
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    } else {
        Err(format!("`{}` failed ({})", command[0], out.status))
    }
}

/// The catalogue, rotated by the seed. Output must not depend on the
/// order: the golden gate runs in this order against bytes recorded in
/// catalogue order, and digests sort by table.
fn rotated_experiments(seed: u32) -> Vec<Box<dyn Experiment>> {
    let mut experiments = all_experiments();
    let by = seed as usize % experiments.len();
    experiments.rotate_left(by);
    experiments
}

fn as_refs(experiments: &[Box<dyn Experiment>]) -> Vec<&dyn Experiment> {
    experiments.iter().map(|e| e.as_ref()).collect()
}

/// Reduces and renders every experiment of a plan under spans, handing
/// each experiment's rendered tables to `each`.
fn reduce_and_render(
    rec: &mut Recorder,
    experiments: &[Box<dyn Experiment>],
    scale: Scale,
    plan: &Plan,
    outputs: &[SpecOutput],
    mut each: impl FnMut(&mut Recorder, &dyn Experiment, &[Rendered]),
) -> Vec<Rendered> {
    let mut all = Vec::new();
    for (i, exp) in experiments.iter().enumerate() {
        let subscribed = plan.subscription_outputs(i, outputs);
        let tables = rec.span("registry.reduce", |_| exp.reduce(scale, &subscribed));
        let rendered: Vec<Rendered> = rec.span("registry.render", |_| {
            tables.iter().map(Rendered::of).collect()
        });
        each(rec, exp.as_ref(), &rendered);
        all.extend(rendered);
    }
    all
}
