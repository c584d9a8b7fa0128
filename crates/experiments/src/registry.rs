//! Experiment catalogue, scaling, and the plan-based entry points.
//!
//! Every experiment is declarative: [`Experiment::specs`] lists the
//! [`SimSpec`]s its reducer consumes (scenario × parameter point ×
//! replica, in reduce order) and [`Experiment::reduce`] turns their
//! outputs into [`Table`]s. [`global_plan`] subscribes the whole
//! catalogue to one [`Plan`] whose unique, content-hashed specs feed
//! every subscribed reducer — Figures 5, 8, and 9 (at `L = 8`) share
//! one simulation per `(n, L, replica)` point instead of re-running
//! it.
//!
//! [`plan_run_catalogue`] executes a plan on the pool and reduces each
//! experiment *the moment its last subscribed spec completes* on one
//! consumer thread, which also feeds the `on_report` sink — so output
//! spools while the rest of the grid is still simulating. Tables are
//! byte-identical to the sequential [`Experiment::run`] at any thread
//! count and any shard count — the determinism contract the test suite
//! enforces.

use crate::series::Table;
use crate::spec::{SimSpec, SpecOutput};
use ebrc_runner::{
    panic_message, run_plan, CacheCounters, ExecConfig, OutputCache, Pool, RunStats, SpecFailures,
    SpecTiming, SubscriptionResult,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

/// A plan over the catalogue's concrete spec vocabulary.
pub type Plan = ebrc_runner::Plan<SimSpec>;

/// Master seed of the whole catalogue: the runner derives each spec's
/// [`JobCtx`](ebrc_runner::JobCtx) stream from `(MASTER_SEED, spec
/// key)` alone, so the stream never depends on scheduling. Every spec
/// in the catalogue seeds from its own parameters instead — equally
/// schedule-independent, and byte-compatible with the pre-runner
/// tables — so the stream is there for a spec that needs one.
pub const MASTER_SEED: u64 = 0x2002_5EED;

/// Offsets a scenario's base seed for replica `rep` of a sweep point.
///
/// Replica 0 keeps the base seed unchanged, so single-replica runs
/// reproduce the historical (pre-runner) figures exactly; further
/// replicas move by a large odd stride to keep streams apart.
pub fn replica_seed(base: u64, rep: usize) -> u64 {
    base.wrapping_add(rep as u64 * 0x0010_0003)
}

/// Effort scaling for an experiment run.
///
/// `quick` keeps everything laptop-interactive (the bench default);
/// `paper` approaches the paper's event counts and 2500 s experiment
/// durations (minutes of CPU per experiment).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Monte-Carlo loss events per parameter point.
    pub mc_events: usize,
    /// Packet-simulation warm-up (discarded), seconds.
    pub sim_warmup: f64,
    /// Packet-simulation measurement span, seconds.
    pub sim_span: f64,
    /// Replicas per box/point where spread matters.
    pub replicas: usize,
    /// Reduced parameter sweeps when set.
    pub quick: bool,
}

impl Scale {
    /// Interactive scale: every experiment in seconds. One replica per
    /// point — spread is a paper-scale concern.
    pub fn quick() -> Self {
        Self {
            mc_events: 20_000,
            sim_warmup: 20.0,
            sim_span: 60.0,
            replicas: 1,
            quick: true,
        }
    }

    /// Paper-comparable scale (the paper ran 2500 s with a 200 s
    /// truncation, 5 replicas per box).
    pub fn paper() -> Self {
        Self {
            mc_events: 200_000,
            sim_warmup: 200.0,
            sim_span: 2_300.0,
            replicas: 5,
            quick: false,
        }
    }

    /// The undocumented test scale: the whole catalogue in about a
    /// second, for CI plumbing and the test suite.
    pub fn tiny() -> Self {
        Self {
            mc_events: 1_500,
            sim_warmup: 4.0,
            sim_span: 8.0,
            replicas: 1,
            quick: true,
        }
    }

    /// Replica count, never below one.
    pub fn replica_count(&self) -> usize {
        self.replicas.max(1)
    }
}

/// One reproducible artifact of the paper, declared as a plan
/// subscription.
pub trait Experiment: Sync {
    /// Stable identifier (`fig03`, `table1`, `claim4`, `ablate01`, …).
    fn id(&self) -> &'static str;

    /// What the paper artifact shows.
    fn title(&self) -> &'static str;

    /// Where it appears in the paper.
    fn paper_ref(&self) -> &'static str;

    /// The specs this experiment's reducer consumes, in reduce order.
    /// Specs are content-addressed: listing a spec another experiment
    /// also lists costs nothing extra — the plan runs it once and fans
    /// the output out.
    fn specs(&self, scale: Scale) -> Vec<SimSpec>;

    /// Merges subscribed spec outputs — in [`Experiment::specs`] order
    /// — into the artifact's tables.
    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table>;

    /// Regenerates the artifact's data sequentially: runs every unique
    /// spec in plan order, then reduces. Byte-identical to
    /// [`plan_run_catalogue`] at any thread count.
    fn run(&self, scale: Scale) -> Vec<Table> {
        let mut plan = Plan::new();
        subscribe(&mut plan, self, scale);
        let outputs = plan.run_sequential(MASTER_SEED);
        let refs = plan.subscription_outputs(0, &outputs);
        self.reduce(scale, &refs)
    }
}

/// Why an experiment failed under the plan runner.
#[derive(Debug)]
pub struct ExperimentFailure {
    /// Experiment id.
    pub id: String,
    /// `(spec key, panic message)` for every subscribed spec that
    /// panicked; empty when the failure came from `specs()`/`reduce()`
    /// itself.
    pub failed_specs: Vec<(String, String)>,
    /// Panic message of `specs()` or `reduce()` when that is what
    /// failed.
    pub phase_error: Option<String>,
}

impl std::fmt::Display for ExperimentFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed", self.id)?;
        if let Some(e) = &self.phase_error {
            write!(f, ": {e}")?;
        }
        for (key, msg) in &self.failed_specs {
            write!(f, "; spec {key} panicked: {msg}")?;
        }
        Ok(())
    }
}

/// One experiment's outcome in a catalogue run.
pub struct ExperimentReport {
    /// Experiment id.
    pub id: &'static str,
    /// Experiment title.
    pub title: &'static str,
    /// Paper reference.
    pub paper_ref: &'static str,
    /// Tables, or what went wrong.
    pub outcome: Result<Vec<Table>, ExperimentFailure>,
}

/// Subscribes `exp` to `plan` under its id: its specs in reduce order,
/// interned by content hash. Every catalogue plan is built through
/// this one call, so each experiment owns exactly one subscription,
/// under its own id, in the order it was subscribed.
fn subscribe<E: Experiment + ?Sized>(plan: &mut Plan, exp: &E, scale: Scale) {
    plan.subscribe(exp.id(), exp.specs(scale));
}

/// Builds the merged plan of a set of experiments: unique specs
/// (content-hash deduplicated across experiments) plus one
/// subscription per experiment — callers may therefore zip
/// `experiments` with [`Plan::subscriptions`] index for index.
///
/// # Panics
/// Propagates a panicking `specs()` ([`plan_run_catalogue`] isolates
/// those per experiment instead).
pub fn global_plan(experiments: &[&dyn Experiment], scale: Scale) -> Plan {
    let mut plan = Plan::new();
    for exp in experiments {
        subscribe(&mut plan, *exp, scale);
    }
    plan
}

/// Reduces one experiment from its subscription's outcome — the spec
/// outputs in reduce order, or the spec failures that spoiled the
/// subscription — into its report. A panicking reducer fails the
/// report, not the caller. Shared by the in-process consumer thread
/// ([`plan_run_catalogue_cached`]) and `repro merge`, so a sweep
/// reduced from shard cache directories reports exactly what a direct
/// run does.
pub fn reduce_subscription(
    exp: &dyn Experiment,
    scale: Scale,
    outcome: &Result<Vec<Arc<SpecOutput>>, SpecFailures>,
) -> ExperimentReport {
    let failure = |failed_specs, phase_error| ExperimentFailure {
        id: exp.id().to_string(),
        failed_specs,
        phase_error,
    };
    let outcome = match outcome {
        Ok(outputs) => {
            let outputs: Vec<&SpecOutput> = outputs.iter().map(|a| a.as_ref()).collect();
            catch_unwind(AssertUnwindSafe(|| exp.reduce(scale, &outputs))).map_err(|p| {
                let msg = format!("reduce panicked: {}", panic_message(p.as_ref()));
                failure(Vec::new(), Some(msg))
            })
        }
        Err(failed_specs) => Err(failure(failed_specs.clone(), None)),
    };
    ExperimentReport {
        id: exp.id(),
        title: exp.title(),
        paper_ref: exp.paper_ref(),
        outcome,
    }
}

/// A catalogue run's results: per-experiment reports in catalogue
/// order plus the run's cache effectiveness (every sim a miss when no
/// cache was configured) and the engine events the executed sims
/// dispatched.
pub struct CatalogueRun {
    /// Per-experiment outcomes, in catalogue (argument) order.
    pub reports: Vec<ExperimentReport>,
    /// Cache hits vs executed sims.
    pub cache: CacheCounters,
    /// Engine events dispatched by the executed sims (zero on a fully
    /// warm run — cache hits execute nothing).
    pub events: u64,
    /// Per-executed-spec wall time, event count, and slice count,
    /// sorted by spec key ([`RunStats::timings`]; empty on a fully
    /// warm run).
    pub timings: Vec<SpecTiming>,
}

/// [`plan_run_catalogue_cached`] without a cache — the common path.
pub fn plan_run_catalogue(
    experiments: Vec<&dyn Experiment>,
    scale: Scale,
    pool: &Pool,
    progress: impl Fn(usize, usize) + Sync,
    on_report: impl FnMut(&ExperimentReport) + Send,
) -> Vec<ExperimentReport> {
    plan_run_catalogue_cached(
        experiments,
        scale,
        pool,
        None,
        ExecConfig::default(),
        progress,
        on_report,
    )
    .reports
}

/// The merged-plan execution core.
///
/// Builds one global plan (specs deduplicated across experiments),
/// executes its unique specs on the pool — serving any spec whose
/// validated output already sits in `cache` without executing it, and
/// writing fresh outputs back — and reduces each experiment on one
/// consumer thread the moment its last subscribed spec completes.
/// Finished reports stream — in completion order — through
/// `on_report` on that same thread, off the pool, so callers can spool
/// tables to disk while the grid is still running; the returned
/// reports are in catalogue (argument) order regardless. Tables are
/// byte-identical whether every output came from the cache, none did,
/// or any mix — at any thread count.
pub fn plan_run_catalogue_cached(
    experiments: Vec<&dyn Experiment>,
    scale: Scale,
    pool: &Pool,
    cache: Option<&dyn OutputCache>,
    exec: ExecConfig,
    progress: impl Fn(usize, usize) + Sync,
    mut on_report: impl FnMut(&ExperimentReport) + Send,
) -> CatalogueRun {
    // Phase 1: subscribe each experiment. A panicking `specs()` fails
    // its experiment but not the sweep; it runs before anything is
    // interned, so the plan is left as it was.
    let mut plan = Plan::new();
    let mut slots: Vec<Option<ExperimentReport>> = Vec::with_capacity(experiments.len());
    let mut exp_for_sub: Vec<usize> = Vec::new();
    for (ei, exp) in experiments.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| subscribe(&mut plan, *exp, scale))) {
            Ok(()) => {
                exp_for_sub.push(ei);
                slots.push(None);
            }
            Err(p) => slots.push(Some(ExperimentReport {
                id: exp.id(),
                title: exp.title(),
                paper_ref: exp.paper_ref(),
                outcome: Err(ExperimentFailure {
                    id: exp.id().to_string(),
                    failed_specs: Vec::new(),
                    phase_error: Some(format!("specs() panicked: {}", panic_message(p.as_ref()))),
                }),
            })),
        }
    }

    // Phase 2: execute the unique specs; reduce on completion; stream
    // reports through the sink.
    let mut stats = RunStats::default();
    std::thread::scope(|s| {
        let (ready_tx, ready_rx) = mpsc::channel::<SubscriptionResult<SimSpec>>();
        let experiments = &experiments;
        let exp_for_sub = &exp_for_sub;

        // Consumer: reduces each completed subscription, hands the
        // report to the sink, and keeps it for the caller.
        let consumer = s.spawn(move || {
            let mut done: Vec<(usize, ExperimentReport)> = Vec::new();
            for res in ready_rx {
                let ei = exp_for_sub[res.subscription];
                let report = reduce_subscription(experiments[ei], scale, &res.outcome);
                on_report(&report);
                done.push((ei, report));
            }
            done
        });

        let (_, run_stats) = run_plan(
            pool,
            MASTER_SEED,
            &plan,
            None,
            cache,
            exec,
            progress,
            |res| {
                let _ = ready_tx.send(res);
            },
        );
        stats = run_stats;
        drop(ready_tx);
        for (ei, report) in consumer.join().expect("consumer thread panicked") {
            slots[ei] = Some(report);
        }
    });

    // Every subscription fires exactly once, so every slot is filled;
    // the slots keep catalogue order.
    let reports = slots
        .into_iter()
        .map(|slot| slot.expect("every experiment reported"))
        .collect();
    CatalogueRun {
        reports,
        cache: stats.cache,
        events: stats.events,
        timings: stats.timings,
    }
}

/// Every experiment, in paper order.
pub fn all_experiments() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(crate::figures::fig01::Fig01),
        Box::new(crate::figures::fig02::Fig02),
        Box::new(crate::figures::fig03_04::Fig03),
        Box::new(crate::figures::fig03_04::Fig04),
        Box::new(crate::figures::fig05_09::Fig05),
        Box::new(crate::figures::fig06::Fig06),
        Box::new(crate::figures::fig05_09::Fig07),
        Box::new(crate::figures::fig05_09::Fig08),
        Box::new(crate::figures::fig05_09::Fig09),
        Box::new(crate::figures::fig10::Fig10),
        Box::new(crate::figures::internet::Fig11),
        Box::new(crate::figures::internet::Fig12to15),
        Box::new(crate::figures::lab::Fig16),
        Box::new(crate::figures::fig17::Fig17),
        Box::new(crate::figures::lab::Fig18to19),
        Box::new(crate::figures::internet::Table1),
        Box::new(crate::figures::claim4::Claim4),
        Box::new(crate::figures::ablations::AblateControlLaw),
        Box::new(crate::figures::ablations::AblateEstimator),
        Box::new(crate::figures::ablations::AblateFormula),
        Box::new(crate::figures::ablations::AblatePhaseLoss),
        Box::new(crate::figures::manyflow::FigManyFlow),
    ]
}

/// Finds an experiment by id.
pub fn find_experiment(id: &str) -> Option<Box<dyn Experiment>> {
    all_experiments().into_iter().find(|e| e.id() == id)
}

/// Resolves a scale name (`quick`, `paper`, or the undocumented test
/// scale `tiny`) to the scale and its canonical name. The CLI and the
/// sweep service share this so a daemon and its clients agree on what
/// a name means.
pub fn scale_by_name(name: &str) -> Option<(Scale, &'static str)> {
    match name {
        "quick" => Some((Scale::quick(), "quick")),
        "paper" => Some((Scale::paper(), "paper")),
        "tiny" => Some((Scale::tiny(), "tiny")),
        _ => None,
    }
}

/// Resolves positional experiment ids (`all` or nothing selects the
/// whole catalogue). Every id must resolve — an unknown id next to
/// `all` (e.g. a mistyped subcommand) is an error, not a silent
/// catalogue run.
pub fn select_experiments(targets: &[String]) -> Result<Vec<Box<dyn Experiment>>, String> {
    let mut out = Vec::new();
    let mut want_all = targets.is_empty();
    for id in targets {
        if id == "all" {
            want_all = true;
        } else {
            match find_experiment(id) {
                Some(e) => out.push(e),
                None => return Err(format!("unknown experiment '{id}'; try `repro list`")),
            }
        }
    }
    if want_all {
        return Ok(all_experiments());
    }
    Ok(out)
}

/// [`global_plan`] with a panicking `specs()` turned into an error.
pub fn try_global_plan(experiments: &[Box<dyn Experiment>], scale: Scale) -> Result<Plan, String> {
    let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
    catch_unwind(AssertUnwindSafe(|| global_plan(&refs, scale)))
        .map_err(|_| "plan construction panicked".to_string())
}

/// Resolves positional experiment ids at `scale` into the selected
/// experiments and their merged plan. Every CLI subcommand and the
/// sweep service resolve through this one function, so they agree on
/// what a target list means and on the plan's fingerprint.
pub fn resolve(
    targets: &[String],
    scale: Scale,
) -> Result<(Vec<Box<dyn Experiment>>, Plan), String> {
    let experiments = select_experiments(targets)?;
    let plan = try_global_plan(&experiments, scale)?;
    Ok((experiments, plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = all_experiments().iter().map(|e| e.id()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate experiment ids");
    }

    #[test]
    fn catalogue_covers_every_paper_artifact() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id()).collect();
        for required in [
            "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
            "fig10", "fig11", "fig12-15", "fig16", "fig17", "fig18-19", "table1", "claim4",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn find_by_id_works() {
        assert!(find_experiment("fig03").is_some());
        assert!(find_experiment("nope").is_none());
        assert_eq!(find_experiment("claim4").unwrap().id(), "claim4");
    }

    #[test]
    fn replica_zero_keeps_the_base_seed() {
        assert_eq!(replica_seed(0x5eed, 0), 0x5eed);
        assert_ne!(replica_seed(0x5eed, 1), 0x5eed);
        assert_ne!(replica_seed(0x5eed, 1), replica_seed(0x5eed, 2));
    }

    #[test]
    fn the_catalogue_plan_dedups_shared_simulations() {
        let experiments = all_experiments();
        let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
        let plan = global_plan(&refs, Scale::quick());
        assert!(
            plan.unique_len() < plan.subscribed_len(),
            "expected shared specs: {} unique vs {} subscribed",
            plan.unique_len(),
            plan.subscribed_len()
        );
        // Figures 5 and 8 subscribe to identical grids; Figure 9 rides
        // the L = 8 column. At quick scale that is 6 + 3 shared refs.
        assert_eq!(
            plan.subscribed_len() - plan.unique_len(),
            9,
            "quick-scale dedup changed; update this count deliberately"
        );
    }

    /// A sweep member whose specs fail in controlled ways, exercising
    /// the catch-unwind plumbing end to end.
    struct Fragile {
        broken_spec: bool,
    }

    impl Experiment for Fragile {
        fn id(&self) -> &'static str {
            "fragile"
        }
        fn title(&self) -> &'static str {
            "test double"
        }
        fn paper_ref(&self) -> &'static str {
            "none"
        }
        fn specs(&self, _scale: Scale) -> Vec<SimSpec> {
            vec![
                SimSpec::Diagnostic {
                    value: 1,
                    fail: false,
                },
                SimSpec::Diagnostic {
                    value: 2,
                    fail: self.broken_spec,
                },
            ]
        }
        fn reduce(&self, _scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
            let mut t = Table::new("fragile", "test double", vec!["v"]);
            for out in outputs {
                t.push_row(vec![out.scalar()]);
            }
            vec![t]
        }
    }

    #[test]
    fn a_panicking_spec_fails_only_its_subscribers() {
        let good = Fragile { broken_spec: false };
        let bad = Fragile { broken_spec: true };
        let reports = plan_run_catalogue(
            vec![&good as &dyn Experiment, &bad as &dyn Experiment],
            Scale::quick(),
            &Pool::new(2),
            |_, _| {},
            |_| {},
        );
        assert!(reports[0].outcome.is_ok());
        let failure = reports[1].outcome.as_ref().unwrap_err();
        assert_eq!(failure.failed_specs.len(), 1);
        assert_eq!(failure.failed_specs[0].0, "diag/v2/fail=true");
        assert!(failure.failed_specs[0]
            .1
            .contains("diagnostic spec failure"));
        assert!(failure.to_string().contains("diag/v2"));
    }

    /// A sweep member whose `specs()` panics, so it never reaches the
    /// plan.
    struct Unplannable;

    impl Experiment for Unplannable {
        fn id(&self) -> &'static str {
            "unplannable"
        }
        fn title(&self) -> &'static str {
            "test double"
        }
        fn paper_ref(&self) -> &'static str {
            "none"
        }
        fn specs(&self, _scale: Scale) -> Vec<SimSpec> {
            panic!("no specs to list")
        }
        fn reduce(&self, _scale: Scale, _outputs: &[&SpecOutput]) -> Vec<Table> {
            unreachable!("an experiment without specs is never reduced")
        }
    }

    #[test]
    fn a_panicking_specs_fails_only_its_experiment() {
        let bad = Unplannable;
        let good = Fragile { broken_spec: false };
        // The failing experiment comes first, so the healthy one's
        // subscription index (0) differs from its catalogue index (1).
        let reports = plan_run_catalogue(
            vec![&bad as &dyn Experiment, &good as &dyn Experiment],
            Scale::quick(),
            &Pool::new(2),
            |_, _| {},
            |_| {},
        );
        let failure = reports[0].outcome.as_ref().unwrap_err();
        assert!(failure.failed_specs.is_empty());
        let msg = failure.phase_error.as_deref().expect("a phase error");
        assert!(msg.starts_with("specs() panicked: "), "{msg}");
        assert!(msg.contains("no specs to list"), "{msg}");
        let solo: Vec<String> = good
            .run(Scale::quick())
            .iter()
            .map(Table::to_json)
            .collect();
        let swept = reports[1].outcome.as_ref().expect("healthy experiment");
        let swept: Vec<String> = swept.iter().map(Table::to_json).collect();
        assert_eq!(swept, solo);
    }

    #[test]
    fn pool_run_matches_sequential_run_on_a_test_double() {
        let exp = Fragile { broken_spec: false };
        let seq = exp.run(Scale::quick());
        let reports = plan_run_catalogue(
            vec![&exp as &dyn Experiment],
            Scale::quick(),
            &Pool::new(4),
            |_, _| {},
            |_| {},
        );
        let par = reports[0].outcome.as_ref().unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par) {
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    #[test]
    fn cached_catalogue_runs_are_byte_identical_and_execute_nothing() {
        let exp = Fragile { broken_spec: false };
        let dir = std::env::temp_dir().join(format!("ebrc-reg-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ebrc_runner::DirCache::new(&dir);
        let tables = |run: &CatalogueRun| -> Vec<String> {
            run.reports[0]
                .outcome
                .as_ref()
                .unwrap()
                .iter()
                .map(|t| t.to_json())
                .collect()
        };
        let run = |cache: Option<&dyn OutputCache>| {
            plan_run_catalogue_cached(
                vec![&exp as &dyn Experiment],
                Scale::quick(),
                &Pool::new(2),
                cache,
                ExecConfig::default(),
                |_, _| {},
                |_| {},
            )
        };
        let cold = run(Some(&cache));
        assert_eq!(cold.cache, CacheCounters { hits: 0, misses: 2 });
        let warm = run(Some(&cache));
        assert_eq!(warm.cache, CacheCounters { hits: 2, misses: 0 });
        let fresh = run(None);
        assert_eq!(fresh.cache, CacheCounters { hits: 0, misses: 2 });
        assert_eq!(tables(&cold), tables(&warm), "warm run diverged");
        assert_eq!(tables(&cold), tables(&fresh), "uncached run diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_stream_in_completion_order_and_return_in_catalogue_order() {
        let a = Fragile { broken_spec: false };
        let b = Fragile { broken_spec: true };
        let mut streamed: Vec<String> = Vec::new();
        let reports = plan_run_catalogue(
            vec![&a as &dyn Experiment, &b as &dyn Experiment],
            Scale::quick(),
            &Pool::new(2),
            |_, _| {},
            |report| streamed.push(format!("{}:{}", report.id, report.outcome.is_ok())),
        );
        assert_eq!(streamed.len(), 2, "every experiment streamed once");
        assert_eq!(reports.len(), 2);
        assert!(reports[0].outcome.is_ok());
        assert!(reports[1].outcome.is_err());
    }
}
