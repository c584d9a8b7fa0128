//! The declarative simulation vocabulary of the catalogue.
//!
//! A [`SimSpec`] is one fully-serializable simulation description —
//! scenario × parameter point × replica — with **no closures**: every
//! parameter that influences the result (including seeds and effort
//! knobs) is a field, and its [`Spec::key`](ebrc_runner::Spec::key)
//! renders them into a canonical content key. Experiments *subscribe*
//! to specs instead of owning jobs, so two figures that need the same `(n, L, rep)`
//! dumbbell instance (Figures 5, 8, and 9's `L = 8` column) hash to the
//! same spec and the simulation runs once.
//!
//! A [`SpecOutput`] is the matching serializable result. Dumbbell specs
//! return the full measurement bundle ([`RunMeasurements`]) and each
//! subscribed reducer extracts its own statistics at reduce time — that
//! is what makes the fan-out lossless. Outputs round-trip through the
//! shard interchange format ([`SpecOutput::to_value`] /
//! [`SpecOutput::from_value`]) with `f64`s encoded as exact bit
//! patterns, so a sweep merged from `k` shard files is byte-identical
//! to a single-host run.

use crate::figures::fig01;
use crate::figures::fig02;
use crate::figures::fig06::audio_point;
use crate::figures::internet::{site_config, site_table, sites};
use crate::figures::lab::lab_queues;
use crate::registry::replica_seed;
use crate::scenarios::{
    DumbbellConfig, DumbbellRun, FlowMeasure, ManyFlowConfig, ManyFlowMeasurements, ManyFlowRun,
    QueueSpec, RunMeasurements, Scenario,
};
use crate::series::Table;
use ebrc_core::control::{BasicControl, ComprehensiveControl, ControlConfig, TraceStats};
use ebrc_core::formula::{AimdFormula, PftkSimplified, PftkStandard, Sqrt, ThroughputFormula};
use ebrc_core::weights::WeightProfile;
use ebrc_dist::{IidProcess, LossProcess, MarkovModulated, Rng, ShiftedExponential};
use ebrc_net::NetEvent;
use ebrc_runner::{JobCtx, SliceStep, SlicedRun};
use ebrc_sim::{Engine, RunLimit};
use ebrc_tcp::{AimdFixedLink, EbrcFixedLink, SharedFixedLink};
use ebrc_tfrc::FormulaKind;
use serde::Value;

/// Which control law a Monte-Carlo spec runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlLaw {
    /// The basic control of Section II.
    Basic,
    /// The comprehensive control (Proposition 2).
    Comprehensive,
}

impl ControlLaw {
    fn key_name(&self) -> &'static str {
        match self {
            ControlLaw::Basic => "basic",
            ControlLaw::Comprehensive => "comprehensive",
        }
    }
}

/// Which loss-interval weight profile an estimator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightKind {
    /// The TFRC draft weights.
    Tfrc,
    /// Uniform weights.
    Uniform,
}

impl WeightKind {
    fn key_name(&self) -> &'static str {
        match self {
            WeightKind::Tfrc => "tfrc",
            WeightKind::Uniform => "uniform",
        }
    }

    fn profile(&self, l: usize) -> WeightProfile {
        match self {
            WeightKind::Tfrc => WeightProfile::tfrc(l),
            WeightKind::Uniform => WeightProfile::uniform(l),
        }
    }
}

/// Which Figure 1 panel a [`SimSpec::Functional`] spec tabulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// `x → f(1/x)`.
    Left,
    /// `x → 1/f(1/x)`.
    Right,
}

/// Which flows share the Figure 17 bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// One TCP alone.
    TcpAlone,
    /// One TFRC alone.
    TfrcAlone,
    /// One TCP and one TFRC sharing.
    Shared,
}

/// One declarative simulation of the catalogue: scenario × parameter
/// point × replica, fully serializable. Adding a scenario family means
/// adding a variant here — the plan/shard/merge machinery then covers
/// it for free.
#[derive(Debug, Clone, PartialEq)]
pub enum SimSpec {
    /// The ns-2 RED dumbbell of Figures 5/7/8/9: `n` TFRC + `n` TCP
    /// pairs, estimator window `l`, replica `rep`, optional Poisson
    /// probe (packets/second).
    Ns2Dumbbell {
        /// Flow pairs per protocol.
        n: usize,
        /// Estimator window.
        l: usize,
        /// Replica index (seeds the scenario via [`replica_seed`]).
        rep: usize,
        /// Poisson probe rate, if any (Figure 7's `p''`).
        probe: Option<f64>,
        /// Discarded warm-up, seconds.
        warmup: f64,
        /// Measurement span, seconds.
        span: f64,
    },
    /// A lab-testbed dumbbell (Figures 10/16/18–19): queue index into
    /// [`lab_queues`], `n` pairs, explicit seed.
    LabDumbbell {
        /// Index into [`lab_queues`].
        queue: usize,
        /// Flow pairs per protocol.
        n: usize,
        /// Scenario seed.
        seed: u64,
        /// Discarded warm-up, seconds.
        warmup: f64,
        /// Measurement span, seconds.
        span: f64,
    },
    /// A synthetic Internet site run (Figures 10–15): site index into
    /// [`sites`], `n` pairs.
    SiteDumbbell {
        /// Index into [`sites`].
        site: usize,
        /// Flow pairs per protocol.
        n: usize,
        /// Scenario seed.
        seed: u64,
        /// Quick scale halves the fast access links.
        quick: bool,
        /// Discarded warm-up, seconds.
        warmup: f64,
        /// Measurement span, seconds.
        span: f64,
    },
    /// The cable-modem receiver of Figure 10 (56 kb/s, small packets).
    CableModem {
        /// Scenario seed.
        seed: u64,
        /// Discarded warm-up, seconds.
        warmup: f64,
        /// Measurement span, seconds (already ×4 — the slow link needs
        /// longer for enough loss events).
        span: f64,
    },
    /// A many-flow dumbbell (the weak-convergence scaling runs): `n`
    /// TFRC + `n/10` AIMD flows in SoA banks, capacity scaled to a
    /// fixed per-flow fair share.
    ManyFlowDumbbell {
        /// TFRC flow population.
        n: usize,
        /// Replica index (seeds the scenario via [`replica_seed`]).
        rep: usize,
        /// Discarded warm-up, seconds.
        warmup: f64,
        /// Measurement span, seconds.
        span: f64,
    },
    /// A Figure 17 buffer-sweep run over DropTail(`buffer`).
    BufferSweep {
        /// Who is on the bottleneck.
        mode: SweepMode,
        /// DropTail buffer, packets.
        buffer: usize,
        /// Scenario seed.
        seed: u64,
        /// Discarded warm-up, seconds.
        warmup: f64,
        /// Measurement span, seconds.
        span: f64,
    },
    /// The Figure 6 audio sender through a Bernoulli dropper.
    Audio {
        /// Length-independent drop probability.
        p_drop: f64,
        /// Throughput formula.
        formula: FormulaKind,
        /// Estimator window.
        window: usize,
        /// Run duration, seconds.
        duration: f64,
        /// Dropper seed.
        seed: u64,
    },
    /// A Monte-Carlo control run against i.i.d. shifted-exponential
    /// loss intervals (Figures 3–4 and the control/estimator/formula
    /// ablations).
    Mc {
        /// Control law.
        control: ControlLaw,
        /// Throughput formula (instantiated at `r = 1`).
        formula: FormulaKind,
        /// Weight profile.
        weights: WeightKind,
        /// Estimator window.
        window: usize,
        /// Loss-event rate (interval mean is `1/p`).
        p: f64,
        /// Coefficient of variation of the intervals.
        cv: f64,
        /// Loss events to simulate.
        events: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Markov-modulated (phase) loss violating (C1) — the
    /// `ablate-phase` points (congestion oscillation between mean
    /// intervals 60 and 4).
    PhaseMc {
        /// Mean phase sojourn, in loss events.
        sojourn: f64,
        /// Loss events to simulate.
        events: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Claim 4, isolated: the equation-based fixed point on a fixed
    /// link (`α = 1`, capacity 100).
    Claim4Iso {
        /// AIMD decrease factor.
        beta: f64,
        /// Loss events to simulate.
        events: usize,
    },
    /// Claim 4, shared: one AIMD + one EBRC on the fluid link.
    Claim4Shared {
        /// AIMD decrease factor.
        beta: f64,
        /// Simulated time horizon, seconds.
        t_end: f64,
    },
    /// A Figure 1 panel (pure functional tabulation).
    Functional {
        /// Which panel.
        panel: Panel,
        /// Sample points.
        points: usize,
    },
    /// Figure 2's `b = 1` kink instance: curves plus the deviation
    /// ratio.
    KinkCurves {
        /// Sample points of `g`.
        points: usize,
    },
    /// Figure 2's `b = 2` deviation ratio.
    KinkRatioB2 {
        /// Sample points of `g`.
        points: usize,
    },
    /// Table I's site constants.
    SiteTable,
    /// Test-only controllable spec for harness plumbing tests: yields
    /// `value` as its single scalar, or panics on demand.
    Diagnostic {
        /// Value to return.
        value: u64,
        /// Panic instead of returning.
        fail: bool,
    },
}

/// The ns-2 scenario config shared by Figures 5/7/8/9 — the historical
/// per-point seed arithmetic lives here so every subscriber agrees on
/// the exact instance.
pub fn ns2_config(n: usize, l: usize, rep: usize, probe: Option<f64>) -> DumbbellConfig {
    let base = 0x5eed + (n as u64) * 31 + l as u64;
    let mut cfg = DumbbellConfig::ns2_paper(n, l, replica_seed(base, rep));
    cfg.poisson_probe = probe;
    cfg
}

/// The Figure 10 cable-modem scenario config.
pub fn cable_modem_config(seed: u64) -> DumbbellConfig {
    let mut cfg = DumbbellConfig::lab_paper(1, QueueSpec::DropTail(20), seed);
    cfg.bottleneck_bps = 56e3;
    cfg.tfrc.sender.packet_size = 250;
    cfg.tcp.packet_size = 250;
    cfg.one_way_delay = 0.05;
    cfg
}

/// The many-flow scenario config shared by `fig-manyflow` — the
/// per-point seed arithmetic lives here so every subscriber agrees on
/// the exact instance.
pub fn manyflow_config(n: usize, rep: usize) -> ManyFlowConfig {
    let base = 0xf10a_u64.wrapping_add((n as u64).wrapping_mul(131));
    ManyFlowConfig::standard(n, replica_seed(base, rep))
}

/// A Figure 17 buffer-sweep scenario config.
pub fn buffer_sweep_config(mode: SweepMode, buffer: usize, seed: u64) -> DumbbellConfig {
    match mode {
        SweepMode::TcpAlone => {
            let mut cfg = DumbbellConfig::lab_paper(0, QueueSpec::DropTail(buffer), seed);
            cfg.n_tcp = 1;
            cfg.n_tfrc = 0;
            cfg
        }
        SweepMode::TfrcAlone => {
            let mut cfg = DumbbellConfig::lab_paper(0, QueueSpec::DropTail(buffer), seed);
            cfg.n_tcp = 0;
            cfg.n_tfrc = 1;
            cfg
        }
        SweepMode::Shared => DumbbellConfig::lab_paper(1, QueueSpec::DropTail(buffer), seed),
    }
}

impl SimSpec {
    /// The scenario config of a dumbbell-family spec, when it has one.
    fn dumbbell_config(&self) -> Option<DumbbellConfig> {
        match *self {
            SimSpec::Ns2Dumbbell {
                n, l, rep, probe, ..
            } => Some(ns2_config(n, l, rep, probe)),
            SimSpec::LabDumbbell { queue, n, seed, .. } => {
                let (_, q) = lab_queues().remove(queue);
                Some(DumbbellConfig::lab_paper(n, q, seed))
            }
            SimSpec::SiteDumbbell {
                site,
                n,
                seed,
                quick,
                ..
            } => Some(site_config(&sites()[site], n, seed, quick)),
            SimSpec::CableModem { seed, .. } => Some(cable_modem_config(seed)),
            SimSpec::BufferSweep {
                mode, buffer, seed, ..
            } => Some(buffer_sweep_config(mode, buffer, seed)),
            _ => None,
        }
    }

    /// The `(warmup, span)` measurement window of an engine-backed spec
    /// (the dumbbell families and the many-flow dumbbell).
    fn window(&self) -> Option<(f64, f64)> {
        match *self {
            SimSpec::Ns2Dumbbell { warmup, span, .. }
            | SimSpec::LabDumbbell { warmup, span, .. }
            | SimSpec::SiteDumbbell { warmup, span, .. }
            | SimSpec::CableModem { warmup, span, .. }
            | SimSpec::BufferSweep { warmup, span, .. }
            | SimSpec::ManyFlowDumbbell { warmup, span, .. } => Some((warmup, span)),
            _ => None,
        }
    }

    /// Builds the scenario of an engine-backed spec (the dumbbell
    /// families and the many-flow dumbbell) and runs its first slice;
    /// `None` for the families that run no packet-level scenario.
    fn start_scenario(&self, ctx: &mut JobCtx, budget: u64) -> Option<SliceStep<SpecOutput>> {
        let (warmup, span) = self.window()?;
        Some(match (self.dumbbell_config(), self) {
            (Some(cfg), _) => Sliced::start(DumbbellRun::build(&cfg), warmup, span, ctx, budget),
            (None, &SimSpec::ManyFlowDumbbell { n, rep, .. }) => {
                let run = ManyFlowRun::build(&manyflow_config(n, rep));
                Sliced::start(run, warmup, span, ctx, budget)
            }
            (None, _) => unreachable!("every windowed spec builds a scenario"),
        })
    }

    /// Order-of-magnitude estimate of the work this spec dispatches —
    /// the planning hint behind `repro list` and `repro plan`, so a
    /// sweep's cost is visible *before* any shard is dispatched (the
    /// measured `events_processed` totals land in the shard artifact
    /// afterwards). Dumbbell specs estimate engine events from a busy
    /// bottleneck (packets/sec × ≈8 dispatches per delivered packet
    /// across the topology); the audio spec from its packet clock;
    /// Monte-Carlo and isolated fixed-link specs report their loss-event
    /// counts as the cost proxy, and the shared fixed link its fluid
    /// steps in those units; analytic tabulations are free.
    ///
    /// All arithmetic saturates: the estimate feeds longest-first
    /// scheduling, and a 10⁴⁺-flow spec that wrapped to a small number
    /// would poison the whole schedule. `saturating_f64_to_u64` clamps
    /// the float products (NaN and negatives to 0, overflow to
    /// `u64::MAX`), and any sum over hints must use `saturating_add`.
    pub fn events_hint(&self) -> u64 {
        /// Calendar dispatches per packet that crosses a dumbbell:
        /// sender timer, bottleneck queue, forward delay + demux,
        /// receiver, reverse delay + demux, feedback at the sender.
        const DISPATCHES_PER_PACKET: f64 = 8.0;
        if let (Some(cfg), Some((warmup, span))) = (self.dumbbell_config(), self.window()) {
            let pkt_bits = (cfg.tfrc.sender.packet_size.max(cfg.tcp.packet_size)) as f64 * 8.0;
            let pps = cfg.bottleneck_bps / pkt_bits;
            return saturating_f64_to_u64((warmup + span) * pps * DISPATCHES_PER_PACKET);
        }
        match *self {
            SimSpec::ManyFlowDumbbell {
                n, warmup, span, ..
            } => {
                let cfg = manyflow_config(n, 0);
                let pps = cfg.bottleneck_bps() / (cfg.packet_size as f64 * 8.0);
                saturating_f64_to_u64((warmup + span) * pps * DISPATCHES_PER_PACKET)
            }
            SimSpec::Audio { duration, .. } => {
                // 20 ms packet clock; sender + dropper + receiver +
                // periodic feedback per packet.
                saturating_f64_to_u64(duration / 0.02 * 4.0)
            }
            SimSpec::Mc { events, .. }
            | SimSpec::PhaseMc { events, .. }
            | SimSpec::Claim4Iso { events, .. } => events as u64,
            SimSpec::Claim4Shared { t_end, .. } => {
                saturating_f64_to_u64(t_end / FLUID_DT * FLUID_STEP_COST)
            }
            _ => 0,
        }
    }
}

/// Integration step of the Claim 4 shared-link fluid model, seconds:
/// [`SharedFixedLink`]'s default, which the spec keeps.
const FLUID_DT: f64 = 1e-3;

/// Hint units one shared-link fluid step costs, where a unit is one
/// Monte-Carlo loss event. Calibrated from `SpecTiming` on the quick
/// catalogue at one thread: a `claim4/shared` step takes 4.2 ns and an
/// `mc` loss event 77 ns (medians).
const FLUID_STEP_COST: f64 = 0.055;

/// Finishes the engine's installed trace sink, if any, and writes the
/// bytes to the ctx's trace path. Called on the final slice of a traced
/// run, so the file lands exactly once, wherever the run happened to
/// finish.
///
/// # Panics
/// Panics if the trace file cannot be written: a traced run that
/// silently dropped its trace would defeat the point of asking for one.
fn write_trace(engine: &mut Engine<NetEvent>, ctx: &JobCtx) {
    if let (Some(sink), Some(path)) = (ebrc_trace::take_sink(engine), ctx.trace_path()) {
        std::fs::write(path, sink.finish())
            .unwrap_or_else(|e| panic!("writing trace {}: {e}", path.display()));
    }
}

/// Clamps a float work estimate into `u64`: NaN and negatives to 0,
/// `u64`-overflowing values to `u64::MAX`. (Rust's float-to-int `as`
/// casts saturate too — this spelling makes the planning contract
/// explicit where hints are computed.)
fn saturating_f64_to_u64(x: f64) -> u64 {
    if x.is_nan() {
        0
    } else {
        x.clamp(0.0, u64::MAX as f64) as u64
    }
}

/// A scenario suspended between event-budget slices: the built
/// scenario, its measurement window, and which leg of the
/// warm-up–snapshot–span measurement (the shape of
/// [`DumbbellRun::measure`]) the engine is inside. Resuming drives
/// [`Engine::run_budgeted`](ebrc_sim::Engine::run_budgeted) with the
/// same horizons `measure` uses, so by the engine's sliced-execution
/// contract the finished output is bit-identical at any budget —
/// slicing only changes *where* the work runs, never what it computes.
struct Sliced<S: Scenario> {
    run: S,
    warmup: f64,
    span: f64,
    /// `None` while running to `warmup`; the counters captured there
    /// while running to `warmup + span`.
    snapshot: Option<S::Snapshot>,
}

impl<S: Scenario> Sliced<S> {
    /// Runs the first slice of a freshly built scenario, traced when
    /// the ctx asks for a trace.
    fn start(
        mut run: S,
        warmup: f64,
        span: f64,
        ctx: &mut JobCtx,
        budget: u64,
    ) -> SliceStep<SpecOutput> {
        assert!(span > 0.0, "measurement span must be positive");
        if ctx.trace_path().is_some() {
            run.install_tracer();
        }
        let state = Sliced {
            run,
            warmup,
            span,
            snapshot: None,
        };
        Box::new(state).resume(ctx, budget)
    }
}

impl<S: Scenario> SlicedRun for Sliced<S> {
    type Output = SpecOutput;

    fn resume(mut self: Box<Self>, ctx: &mut JobCtx, budget: u64) -> SliceStep<SpecOutput> {
        // One resume call spends at most `budget` events across both
        // legs, so slice granularity stays uniform even when the
        // warm-up boundary falls mid-slice.
        let mut left = budget.max(1);
        let snap = match self.snapshot.take() {
            Some(snap) => snap,
            None => {
                let limit = RunLimit::new(self.warmup, left);
                let out = self.run.engine_mut().run_budgeted(limit);
                if out.exhausted() {
                    return SliceStep::Pending(self);
                }
                left = left.saturating_sub(out.events);
                self.run.snapshot()
            }
        };
        let limit = RunLimit::new(self.warmup + self.span, left);
        if self.run.engine_mut().run_budgeted(limit).exhausted() {
            self.snapshot = Some(snap);
            return SliceStep::Pending(self);
        }
        let out = self.run.measurements_since(&snap, self.span).into();
        ctx.record_events(self.run.engine_mut().events_processed());
        write_trace(self.run.engine_mut(), ctx);
        SliceStep::Done(out)
    }
}

impl ebrc_runner::Spec for SimSpec {
    type Output = SpecOutput;

    /// Canonical content key. Dumbbell-family specs key on the *full*
    /// scenario config ([`DumbbellConfig::content_key`]) plus the
    /// measurement window, so equal keys guarantee bit-identical runs
    /// and distinct parameters can never alias.
    fn key(&self) -> String {
        if let (Some(cfg), Some((warmup, span))) = (self.dumbbell_config(), self.window()) {
            return format!("dumbbell/{}/warmup={warmup}/span={span}", cfg.content_key());
        }
        match *self {
            SimSpec::ManyFlowDumbbell {
                n,
                rep,
                warmup,
                span,
            } => {
                let cfg = manyflow_config(n, rep);
                format!("manyflow/{}/warmup={warmup}/span={span}", cfg.content_key())
            }
            SimSpec::Audio {
                p_drop,
                formula,
                window,
                duration,
                seed,
            } => format!(
                "audio/p={p_drop}/formula={}/L{window}/dur={duration}/seed={seed}",
                formula.key_name()
            ),
            SimSpec::Mc {
                control,
                formula,
                weights,
                window,
                p,
                cv,
                events,
                seed,
            } => format!(
                "mc/{}/{}/{}/L{window}/p={p}/cv={cv}/events={events}/seed={seed}",
                control.key_name(),
                formula.key_name(),
                weights.key_name()
            ),
            SimSpec::PhaseMc {
                sojourn,
                events,
                seed,
            } => format!("mc-phase/high=60/low=4/sojourn={sojourn}/events={events}/seed={seed}"),
            SimSpec::Claim4Iso { beta, events } => {
                format!("claim4/iso/alpha=1/cap=100/beta={beta}/events={events}")
            }
            SimSpec::Claim4Shared { beta, t_end } => {
                format!("claim4/shared/alpha=1/cap=100/beta={beta}/t_end={t_end}")
            }
            SimSpec::Functional { panel, points } => format!(
                "functional/{}/points={points}",
                match panel {
                    Panel::Left => "left",
                    Panel::Right => "right",
                }
            ),
            SimSpec::KinkCurves { points } => format!("convex-kink/b1/points={points}"),
            SimSpec::KinkRatioB2 { points } => format!("convex-kink/b2/points={points}"),
            SimSpec::SiteTable => "table1/sites".to_string(),
            SimSpec::Diagnostic { value, fail } => format!("diag/v{value}/fail={fail}"),
            _ => unreachable!("dumbbell specs keyed above"),
        }
    }

    /// The scheduler's cost model is the planning estimate the catalogue
    /// already prints: [`SimSpec::events_hint`]. Dumbbell sweeps mix
    /// 90-second ns-2 runs with 4× cable-modem spans, so submitting
    /// longest-first keeps the stragglers off the tail of the schedule.
    fn cost_hint(&self) -> u64 {
        self.events_hint()
    }

    /// Scenario-family specs run in resumable event-budget slices;
    /// every other family is cheap enough that one step running `run`
    /// whole is the right call.
    fn start_sliced(&self, ctx: &mut JobCtx, budget: u64) -> SliceStep<SpecOutput> {
        self.start_scenario(ctx, budget)
            .unwrap_or_else(|| SliceStep::Done(self.run(ctx)))
    }

    /// Scenario-family specs are the sliced run under an unbounded
    /// budget — one code path at every budget, so there is no
    /// monolithic variant to keep bit-identical.
    fn run(&self, ctx: &mut JobCtx) -> SpecOutput {
        if let Some(mut step) = self.start_scenario(ctx, u64::MAX) {
            loop {
                match step {
                    SliceStep::Done(out) => return out,
                    SliceStep::Pending(state) => step = state.resume(ctx, u64::MAX),
                }
            }
        }
        match *self {
            SimSpec::Audio {
                p_drop,
                formula,
                window,
                duration,
                seed,
            } => {
                let ((p, norm, cv2), events) = audio_point(p_drop, formula, window, duration, seed);
                ctx.record_events(events);
                SpecOutput::Scalars(vec![p, norm, cv2])
            }
            SimSpec::Mc { .. } => SpecOutput::Scalars(vec![self.mc_normalized()]),
            SimSpec::PhaseMc {
                sojourn,
                events,
                seed,
            } => {
                let f = Sqrt::with_rtt(1.0);
                let mut process = MarkovModulated::congestion_oscillation(60.0, 4.0, sojourn);
                let mut rng = Rng::seed_from(seed);
                let mut stats = TraceStats::new();
                BasicControl::new(f.clone(), ControlConfig::new(WeightProfile::tfrc(8))).run_into(
                    &mut process,
                    &mut rng,
                    events,
                    &mut stats,
                );
                SpecOutput::Scalars(vec![
                    stats.normalized_throughput(&f),
                    stats.normalized_covariance(),
                ])
            }
            SimSpec::Claim4Iso { beta, events } => {
                let mut ebrc = EbrcFixedLink::new(
                    AimdFormula::new(crate::figures::claim4::ALPHA, beta),
                    WeightProfile::tfrc(8),
                    crate::figures::claim4::CAPACITY,
                );
                SpecOutput::Scalars(vec![ebrc.measured_loss_event_rate(events)])
            }
            SimSpec::Claim4Shared { beta, t_end } => {
                let alpha = crate::figures::claim4::ALPHA;
                let aimd = AimdFixedLink::new(alpha, beta, crate::figures::claim4::CAPACITY);
                let mut link = SharedFixedLink::new(
                    aimd,
                    AimdFormula::new(alpha, beta),
                    WeightProfile::tfrc(8),
                );
                let out = link.run(t_end * 0.1, t_end);
                SpecOutput::Scalars(vec![
                    out.loss_rate_ratio(),
                    out.aimd_throughput,
                    out.ebrc_throughput,
                ])
            }
            SimSpec::Functional { panel, points } => SpecOutput::Table(match panel {
                Panel::Left => fig01::left_panel(points),
                Panel::Right => fig01::right_panel(points),
            }),
            SimSpec::KinkCurves { points } => {
                let (curves, ratio) = fig02::kink_instance(points);
                SpecOutput::TableAndScalars(curves, vec![ratio])
            }
            SimSpec::KinkRatioB2 { points } => SpecOutput::Scalars(vec![fig02::b2_ratio(points)]),
            SimSpec::SiteTable => SpecOutput::Table(site_table()),
            SimSpec::Diagnostic { value, fail } => {
                if fail {
                    panic!("diagnostic spec failure");
                }
                SpecOutput::Scalars(vec![value as f64])
            }
            _ => unreachable!("scenario specs run above"),
        }
    }
}

impl ebrc_runner::CacheableSpec for SimSpec {
    /// Serializes through the shard interchange encoding
    /// ([`SpecOutput::to_value`]) — floats as exact bit patterns, so a
    /// cached output is bit-identical to a fresh one.
    fn encode_output(out: &SpecOutput) -> String {
        serde_json::to_string(&out.to_value()).expect("outputs are serializable")
    }

    fn decode_output(text: &str) -> Result<SpecOutput, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        SpecOutput::from_value(&value)
    }
}

impl SimSpec {
    /// One Monte-Carlo normalized-throughput point — the body of every
    /// [`SimSpec::Mc`] spec (the historical Figures 3–4 seeds live in
    /// the spec fields, so the output is byte-compatible with the
    /// pre-plan decomposition).
    ///
    /// # Panics
    /// Panics if `self` is not a [`SimSpec::Mc`].
    fn mc_normalized(&self) -> f64 {
        let SimSpec::Mc {
            control,
            formula,
            weights,
            window,
            p,
            cv,
            events,
            seed,
        } = *self
        else {
            unreachable!("mc_normalized is only called on Mc specs");
        };
        mc_body(control, formula, (weights, window), (p, cv), events, seed)
    }
}

/// The formula-dispatched Monte-Carlo body behind
/// [`SimSpec::mc_normalized`].
fn mc_body(
    control: ControlLaw,
    formula: FormulaKind,
    (weights, window): (WeightKind, usize),
    (p, cv): (f64, f64),
    events: usize,
    seed: u64,
) -> f64 {
    fn run_one<F: ThroughputFormula + Clone>(
        f: &F,
        control: ControlLaw,
        weights: WeightProfile,
        process: &mut impl LossProcess,
        events: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = Rng::seed_from(seed);
        let cfg = ControlConfig::new(weights);
        let mut stats = TraceStats::new();
        match control {
            ControlLaw::Basic => {
                BasicControl::new(f.clone(), cfg).run_into(process, &mut rng, events, &mut stats)
            }
            ControlLaw::Comprehensive => ComprehensiveControl::new(f.clone(), cfg)
                .run_into(process, &mut rng, events, &mut stats),
        }
        stats.normalized_throughput(f)
    }
    let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(1.0 / p, cv));
    let profile = weights.profile(window);
    match formula {
        FormulaKind::Sqrt => run_one(
            &Sqrt::with_rtt(1.0),
            control,
            profile,
            &mut process,
            events,
            seed,
        ),
        FormulaKind::PftkStandard => run_one(
            &PftkStandard::with_rtt(1.0),
            control,
            profile,
            &mut process,
            events,
            seed,
        ),
        FormulaKind::PftkSimplified => run_one(
            &PftkSimplified::with_rtt(1.0),
            control,
            profile,
            &mut process,
            events,
            seed,
        ),
    }
}

/// The serializable result of one [`SimSpec`]. Reducers extract their
/// statistics from these — the same output feeds every subscriber.
#[derive(Debug, Clone)]
pub enum SpecOutput {
    /// Full dumbbell measurement bundle.
    Run(RunMeasurements),
    /// A vector of scalar results.
    Scalars(Vec<f64>),
    /// A finished table (the analytic specs).
    Table(Table),
    /// A finished table plus scalar results (Figure 2's kink instance).
    TableAndScalars(Table, Vec<f64>),
}

impl From<RunMeasurements> for SpecOutput {
    fn from(m: RunMeasurements) -> Self {
        SpecOutput::Run(m)
    }
}

/// A many-flow run emits its distribution summary.
impl From<ManyFlowMeasurements> for SpecOutput {
    fn from(m: ManyFlowMeasurements) -> Self {
        SpecOutput::Scalars(m.summary())
    }
}

impl SpecOutput {
    /// Variant name, for error messages and the shard format.
    pub fn kind(&self) -> &'static str {
        match self {
            SpecOutput::Run(_) => "run",
            SpecOutput::Scalars(_) => "scalars",
            SpecOutput::Table(_) => "table",
            SpecOutput::TableAndScalars(..) => "table+scalars",
        }
    }

    /// The measurement bundle.
    ///
    /// # Panics
    /// Panics if the output is not a [`SpecOutput::Run`] — a reducer
    /// out of sync with its plan is a bug worth failing loudly on.
    pub fn as_run(&self) -> &RunMeasurements {
        match self {
            SpecOutput::Run(m) => m,
            other => panic!("spec output mismatch: wanted run, got {}", other.kind()),
        }
    }

    /// The scalar vector.
    ///
    /// # Panics
    /// Panics if the output is not [`SpecOutput::Scalars`].
    pub fn scalars(&self) -> &[f64] {
        match self {
            SpecOutput::Scalars(v) => v,
            other => panic!("spec output mismatch: wanted scalars, got {}", other.kind()),
        }
    }

    /// The single scalar of a one-element [`SpecOutput::Scalars`].
    ///
    /// # Panics
    /// Panics unless the output is exactly one scalar.
    pub fn scalar(&self) -> f64 {
        let s = self.scalars();
        assert_eq!(s.len(), 1, "expected exactly one scalar, got {}", s.len());
        s[0]
    }

    /// The finished table.
    ///
    /// # Panics
    /// Panics if the output is not [`SpecOutput::Table`].
    pub fn as_table(&self) -> &Table {
        match self {
            SpecOutput::Table(t) => t,
            other => panic!("spec output mismatch: wanted table, got {}", other.kind()),
        }
    }

    /// The table-plus-scalars pair.
    ///
    /// # Panics
    /// Panics if the output is not [`SpecOutput::TableAndScalars`].
    pub fn as_table_and_scalars(&self) -> (&Table, &[f64]) {
        match self {
            SpecOutput::TableAndScalars(t, s) => (t, s),
            other => panic!(
                "spec output mismatch: wanted table+scalars, got {}",
                other.kind()
            ),
        }
    }

    /// Renders the output for the shard interchange format. Floats are
    /// encoded as 16-digit hex bit patterns — exact for every value
    /// including negative zero, infinities, and NaN — so a merge
    /// reduces over bit-identical inputs.
    pub fn to_value(&self) -> Value {
        let obj = |kind: &str, fields: Vec<(String, Value)>| {
            let mut all = vec![("kind".to_string(), Value::String(kind.to_string()))];
            all.extend(fields);
            Value::Object(all)
        };
        match self {
            SpecOutput::Run(m) => obj(
                "run",
                vec![
                    ("tfrc".into(), flows_to_value(&m.tfrc)),
                    ("tcp".into(), flows_to_value(&m.tcp)),
                    (
                        "probe".into(),
                        match m.probe_loss_rate {
                            Some(p) => f64_to_value(p),
                            None => Value::Null,
                        },
                    ),
                    ("nominal_rtt".into(), f64_to_value(m.nominal_rtt)),
                    (
                        "formula".into(),
                        Value::String(m.tfrc_formula.key_name().to_string()),
                    ),
                ],
            ),
            SpecOutput::Scalars(v) => obj("scalars", vec![("values".into(), floats_to_value(v))]),
            SpecOutput::Table(t) => obj("table", vec![("table".into(), table_to_value(t))]),
            SpecOutput::TableAndScalars(t, v) => obj(
                "table+scalars",
                vec![
                    ("table".into(), table_to_value(t)),
                    ("values".into(), floats_to_value(v)),
                ],
            ),
        }
    }

    /// Parses the shard interchange rendering back into an output.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("output without kind")?;
        match kind {
            "run" => {
                let probe = match v.get("probe") {
                    None | Some(Value::Null) => None,
                    Some(p) => Some(value_to_f64(p)?),
                };
                let formula = v
                    .get("formula")
                    .and_then(Value::as_str)
                    .and_then(FormulaKind::from_key_name)
                    .ok_or("run output without a known formula")?;
                Ok(SpecOutput::Run(RunMeasurements {
                    tfrc: flows_from_value(v.get("tfrc").ok_or("run without tfrc")?)?,
                    tcp: flows_from_value(v.get("tcp").ok_or("run without tcp")?)?,
                    probe_loss_rate: probe,
                    nominal_rtt: value_to_f64(v.get("nominal_rtt").ok_or("run without rtt")?)?,
                    tfrc_formula: formula,
                }))
            }
            "scalars" => Ok(SpecOutput::Scalars(floats_from_value(
                v.get("values").ok_or("scalars without values")?,
            )?)),
            "table" => Ok(SpecOutput::Table(table_from_value(
                v.get("table").ok_or("table output without table")?,
            )?)),
            "table+scalars" => Ok(SpecOutput::TableAndScalars(
                table_from_value(v.get("table").ok_or("output without table")?)?,
                floats_from_value(v.get("values").ok_or("output without values")?)?,
            )),
            other => Err(format!("unknown spec output kind {other:?}")),
        }
    }
}

/// Encodes an `f64` losslessly as its hex bit pattern.
fn f64_to_value(x: f64) -> Value {
    Value::String(format!("{:016x}", x.to_bits()))
}

/// Decodes [`f64_to_value`]'s rendering.
fn value_to_f64(v: &Value) -> Result<f64, String> {
    let s = v.as_str().ok_or("expected a hex float string")?;
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad hex float {s:?}: {e}"))
}

fn floats_to_value(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|&x| f64_to_value(x)).collect())
}

fn floats_from_value(v: &Value) -> Result<Vec<f64>, String> {
    match v {
        Value::Array(items) => items.iter().map(value_to_f64).collect(),
        _ => Err("expected an array of hex floats".into()),
    }
}

fn flows_to_value(flows: &[FlowMeasure]) -> Value {
    Value::Array(
        flows
            .iter()
            .map(|f| {
                floats_to_value(&[
                    f.throughput,
                    f.loss_event_rate,
                    f.rtt_mean,
                    f.normalized_covariance,
                    f.cov_rate_duration,
                    f.theta_hat_cv2,
                ])
            })
            .collect(),
    )
}

fn flows_from_value(v: &Value) -> Result<Vec<FlowMeasure>, String> {
    let items = match v {
        Value::Array(items) => items,
        _ => return Err("expected an array of flows".into()),
    };
    items
        .iter()
        .map(|item| {
            let f = floats_from_value(item)?;
            if f.len() != 6 {
                return Err(format!("flow with {} fields (want 6)", f.len()));
            }
            Ok(FlowMeasure {
                throughput: f[0],
                loss_event_rate: f[1],
                rtt_mean: f[2],
                normalized_covariance: f[3],
                cov_rate_duration: f[4],
                theta_hat_cv2: f[5],
            })
        })
        .collect()
}

fn table_to_value(t: &Table) -> Value {
    Value::Object(vec![
        ("name".into(), Value::String(t.name.clone())),
        ("caption".into(), Value::String(t.caption.clone())),
        (
            "columns".into(),
            Value::Array(t.columns.iter().map(|c| Value::String(c.clone())).collect()),
        ),
        (
            "rows".into(),
            Value::Array(t.rows.iter().map(|r| floats_to_value(r)).collect()),
        ),
    ])
}

fn table_from_value(v: &Value) -> Result<Table, String> {
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .ok_or("table without name")?;
    let caption = v
        .get("caption")
        .and_then(Value::as_str)
        .ok_or("table without caption")?;
    let columns: Vec<String> = match v.get("columns") {
        Some(Value::Array(cols)) => cols
            .iter()
            .map(|c| c.as_str().map(str::to_string).ok_or("non-string column"))
            .collect::<Result<_, _>>()?,
        _ => return Err("table without columns".into()),
    };
    let mut t = Table::new(name, caption, columns);
    match v.get("rows") {
        Some(Value::Array(rows)) => {
            for r in rows {
                t.push_row(floats_from_value(r)?);
            }
        }
        _ => return Err("table without rows".into()),
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebrc_runner::Spec as _;

    #[test]
    fn fig05_fig08_and_fig09_share_the_same_instance() {
        let a = SimSpec::Ns2Dumbbell {
            n: 6,
            l: 8,
            rep: 0,
            probe: None,
            warmup: 20.0,
            span: 60.0,
        };
        let b = a.clone();
        assert_eq!(a.key(), b.key());
        assert_eq!(a.hash(), b.hash());
        // The probe variant (Figure 7) is a different simulation.
        let probed = SimSpec::Ns2Dumbbell {
            n: 6,
            l: 8,
            rep: 0,
            probe: Some(5.0),
            warmup: 20.0,
            span: 60.0,
        };
        assert_ne!(a.key(), probed.key());
        // So is any other replica, window, or span.
        let ns2 = |n, l, rep, span| SimSpec::Ns2Dumbbell {
            n,
            l,
            rep,
            probe: None,
            warmup: 20.0,
            span,
        };
        for other in [ns2(6, 8, 1, 60.0), ns2(6, 2, 0, 60.0), ns2(6, 8, 0, 61.0)] {
            assert_ne!(a.key(), other.key());
        }
    }

    #[test]
    fn scalar_outputs_round_trip_exactly() {
        let out = SpecOutput::Scalars(vec![1.5, -0.0, f64::NAN, f64::INFINITY, 1e-300]);
        let back = SpecOutput::from_value(&out.to_value()).unwrap();
        let (a, b) = (out.scalars(), back.scalars());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn run_outputs_round_trip_exactly() {
        let m = RunMeasurements {
            tfrc: vec![FlowMeasure {
                throughput: 123.456,
                loss_event_rate: 0.031,
                rtt_mean: 0.052,
                normalized_covariance: -0.007,
                cov_rate_duration: 0.1,
                theta_hat_cv2: 0.2,
            }],
            tcp: vec![],
            probe_loss_rate: Some(0.05),
            nominal_rtt: 0.05,
            tfrc_formula: FormulaKind::PftkStandard,
        };
        let out = SpecOutput::Run(m);
        let back = SpecOutput::from_value(&out.to_value()).unwrap();
        let (a, b) = (out.as_run(), back.as_run());
        assert_eq!(a.tfrc.len(), b.tfrc.len());
        assert_eq!(
            a.tfrc[0].throughput.to_bits(),
            b.tfrc[0].throughput.to_bits()
        );
        assert_eq!(a.probe_loss_rate, b.probe_loss_rate);
        assert_eq!(a.tfrc_formula, b.tfrc_formula);
        // And through an actual JSON print/parse cycle.
        let text = serde_json::to_string(&out.to_value()).unwrap();
        let reparsed = SpecOutput::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(
            out.as_run().tfrc[0].rtt_mean.to_bits(),
            reparsed.as_run().tfrc[0].rtt_mean.to_bits()
        );
    }

    #[test]
    fn table_outputs_round_trip() {
        let mut t = Table::new("x/y", "cap", vec!["a", "b"]);
        t.push_row(vec![1.0, 2.5]);
        let out = SpecOutput::TableAndScalars(t, vec![1.0026]);
        let text = serde_json::to_string(&out.to_value()).unwrap();
        let back = SpecOutput::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        let (bt, bs) = back.as_table_and_scalars();
        assert_eq!(bt.name, "x/y");
        assert_eq!(bt.rows, vec![vec![1.0, 2.5]]);
        assert_eq!(bs, &[1.0026]);
    }

    /// What [`Scenario::measure`] — the `run_until`–snapshot–`run_until`
    /// body that shares no code with [`Sliced`] — makes of a scenario
    /// spec: the output, the engine's event count, and the trace bytes
    /// when `traced`.
    fn reference(spec: &SimSpec, traced: bool) -> (SpecOutput, u64, Option<Vec<u8>>) {
        fn measured<S: Scenario>(
            mut run: S,
            (warmup, span): (f64, f64),
            traced: bool,
        ) -> (SpecOutput, u64, Option<Vec<u8>>) {
            if traced {
                run.install_tracer();
            }
            let out = run.measure(warmup, span).into();
            let trace =
                ebrc_trace::take_sink(run.engine_mut()).map(ebrc_trace::PerfettoSink::finish);
            (out, run.engine_mut().events_processed(), trace)
        }
        let window = spec.window().expect("not a scenario spec");
        match (spec.dumbbell_config(), spec) {
            (Some(cfg), _) => measured(DumbbellRun::build(&cfg), window, traced),
            (None, &SimSpec::ManyFlowDumbbell { n, rep, .. }) => {
                measured(ManyFlowRun::build(&manyflow_config(n, rep)), window, traced)
            }
            (None, _) => unreachable!("every windowed spec builds a scenario"),
        }
    }

    /// Drives `spec` through `start_sliced`/`resume` to `Done` at one
    /// budget: the output, the events the ctx recorded, and the number
    /// of slices. With a trace path, checks that no slice but the last
    /// writes the file.
    fn drive(
        spec: &SimSpec,
        budget: u64,
        trace: Option<&std::path::Path>,
    ) -> (SpecOutput, u64, u64) {
        let mut ctx = JobCtx::for_label(0, spec.key());
        if let Some(path) = trace {
            ctx.set_trace_path(path.to_path_buf());
        }
        let mut step = spec.start_sliced(&mut ctx, budget);
        let mut slices = 1;
        loop {
            match step {
                SliceStep::Done(out) => return (out, ctx.events_processed(), slices),
                SliceStep::Pending(state) => {
                    assert!(
                        trace.is_none_or(|p| !p.exists()),
                        "trace written before the final slice"
                    );
                    slices += 1;
                    step = state.resume(&mut ctx, budget);
                }
            }
        }
    }

    fn bits(out: &SpecOutput) -> String {
        serde_json::to_string(&out.to_value()).unwrap()
    }

    #[test]
    fn sliced_runs_match_the_independent_measure_reference_at_every_budget() {
        let (warmup, span) = (0.5, 1.0);
        let specs = [
            SimSpec::Ns2Dumbbell {
                n: 1,
                l: 8,
                rep: 0,
                probe: None,
                warmup,
                span,
            },
            SimSpec::BufferSweep {
                mode: SweepMode::Shared,
                buffer: 20,
                seed: 7,
                warmup,
                span,
            },
            SimSpec::ManyFlowDumbbell {
                n: 50,
                rep: 0,
                warmup,
                span,
            },
        ];
        let dir = std::env::temp_dir().join(format!("ebrc-sliced-ref-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (i, spec) in specs.iter().enumerate() {
            let (want, events, _) = reference(spec, false);
            let (_, traced_events, want_trace) = reference(spec, true);
            assert_eq!(events, traced_events, "tracing changed the event count");
            assert!(events > 1_000, "{}: only {events} events", spec.key());
            for budget in [1, 257, 250_000, u64::MAX] {
                let at = format!("{} at budget {budget}", spec.key());
                let (out, recorded, slices) = drive(spec, budget, None);
                assert_eq!(bits(&out), bits(&want), "{at}");
                assert_eq!(recorded, events, "{at}");
                // Every resume but the last spends exactly `budget`
                // events across both legs; the last spends what is left
                // (nothing, when the budget divides the run: the engine
                // reports an empty budget before it looks at the horizon).
                assert_eq!(slices, events / budget + 1, "{at}");

                let path = dir.join(format!("spec{i}-budget{budget}.pftrace"));
                let (out, recorded, traced_slices) = drive(spec, budget, Some(&path));
                assert_eq!(bits(&out), bits(&want), "traced {at}");
                assert_eq!((recorded, traced_slices), (events, slices), "traced {at}");
                let trace = std::fs::read(&path).unwrap();
                assert_eq!(Some(trace), want_trace, "trace bytes of {at}");
            }
            // `run` is the same machine under an unbounded budget.
            let mut ctx = JobCtx::for_label(0, spec.key());
            assert_eq!(bits(&spec.run(&mut ctx)), bits(&want));
            assert_eq!(ctx.events_processed(), events);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_fluid_link_hints_its_steps_in_mc_event_units() {
        let spec = |t_end| SimSpec::Claim4Shared { beta: 0.5, t_end };
        // Quick scale: 1.5 M fluid steps cost as much as 82 500
        // Monte-Carlo loss events.
        assert_eq!(spec(1_500.0).events_hint(), 82_500);
        assert_eq!(spec(10_000.0).events_hint(), 550_000);
        let link = SharedFixedLink::new(
            AimdFixedLink::new(1.0, 0.5, 100.0),
            AimdFormula::new(1.0, 0.5),
            WeightProfile::tfrc(8),
        );
        assert_eq!(link.dt, FLUID_DT);
    }

    #[test]
    #[should_panic(expected = "spec output mismatch")]
    fn output_accessors_reject_the_wrong_kind() {
        let _ = SpecOutput::Scalars(vec![1.0]).as_run();
    }
}
