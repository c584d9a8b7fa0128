//! In-process sweeps: `repro list`, `repro plan`, and the direct run.

use super::{ensure_dir, CliError, NamedScale, Reporter};
use crate::registry::{
    plan_run_catalogue_cached, resolve, select_experiments, try_global_plan, Experiment, Plan,
};
use crate::service::{chunk_of, CatalogueBackend};
use ebrc_runner::{CacheCounters, OutputCache, Pool, TraceConfig};
use std::io::Write as _;
use std::path::Path;

/// The one-line cache report every cache-aware command prints.
pub(crate) fn report_cache(counters: CacheCounters, dir: &Path) {
    eprintln!(
        "# cache: {} hit(s), {} miss(es) in {}",
        counters.hits,
        counters.misses,
        dir.display()
    );
}

/// Resolves `--trace PATH` against the number of sims the run will
/// execute: one sim records straight into the file at PATH; more sims
/// turn PATH into a directory of per-spec `.pftrace` files. Creates
/// the needed directories; tracing forces every selected sim to
/// execute (cache hits record nothing).
pub(crate) fn trace_config(
    trace: Option<&Path>,
    unique_sims: usize,
) -> Result<Option<TraceConfig>, String> {
    let Some(path) = trace else {
        return Ok(None);
    };
    if unique_sims == 1 {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            ensure_dir(parent)?;
        }
        eprintln!("# trace: recording 1 sim to {}", path.display());
        Ok(Some(TraceConfig::single(path)))
    } else {
        ensure_dir(path)?;
        eprintln!(
            "# trace: recording {unique_sims} sims under {}",
            path.display()
        );
        Ok(Some(TraceConfig::per_spec(path)))
    }
}

/// Renders an event-count estimate compactly (`1.2M`, `340k`, `85`).
fn human_events(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.0}M", n as f64 / 1e6)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.0}k", n as f64 / 1e3)
    } else {
        format!("{n}")
    }
}

/// The summed cost hint of the plan's specs at `indices` — saturating:
/// a pathological scale must pin the estimate at `u64::MAX`, not wrap
/// into a small plausible-looking number.
fn events_hint(plan: &Plan, indices: impl IntoIterator<Item = usize>) -> u64 {
    indices.into_iter().fold(0u64, |acc, i| {
        acc.saturating_add(plan.specs()[i].events_hint())
    })
}

/// `repro list`: the catalogue with per-experiment spec counts, an
/// estimated dispatch cost (`~events`, from `SimSpec::events_hint` —
/// visible before any sim or shard is dispatched), and the plan-level
/// dedup ratio at the requested scale.
pub fn list((scale, scale_name): NamedScale) -> Result<(), CliError> {
    let (experiments, plan) = resolve(&[], scale)?;
    for (e, sub) in experiments.iter().zip(plan.subscriptions()) {
        println!(
            "{:16} {:28} {:>4} sims {:>7} ~events  {}",
            e.id(),
            e.paper_ref(),
            sub.spec_indices.len(),
            human_events(events_hint(&plan, sub.spec_indices.iter().copied())),
            e.title()
        );
    }
    println!(
        "# {} experiments, {} subscribed sims -> {} unique (dedup {:.2}x, ~{} events) at scale {}",
        experiments.len(),
        plan.subscribed_len(),
        plan.unique_len(),
        plan.dedup_ratio(),
        human_events(events_hint(&plan, 0..plan.unique_len())),
        scale_name,
    );
    Ok(())
}

/// `repro plan`: plan summary plus the deterministic shard breakdown.
pub fn plan(
    targets: &[String],
    (scale, scale_name): NamedScale,
    shards: usize,
) -> Result<(), CliError> {
    let (experiments, plan) = resolve(targets, scale)?;
    println!(
        "plan: {} experiment(s), scale {}, fingerprint {:016x}",
        experiments.len(),
        scale_name,
        plan.fingerprint()
    );
    println!(
        "sims: {} unique, {} subscribed (dedup {:.2}x)",
        plan.unique_len(),
        plan.subscribed_len(),
        plan.dedup_ratio()
    );
    for sub in plan.subscriptions() {
        println!("  {:16} {:>4} sims", sub.id, sub.spec_indices.len());
    }
    if shards > 1 {
        for shard in 0..shards {
            let indices = plan.shard_indices(shard, shards);
            println!(
                "shard {shard}/{shards}: {} sims, ~{} events",
                indices.len(),
                human_events(events_hint(&plan, indices.iter().copied())),
            );
        }
    }
    Ok(())
}

/// The direct run (`repro <ids>`): executes the experiments as one
/// merged plan on the pool, spooling each one's tables the moment it
/// reduces and printing them in catalogue order at the end.
pub fn run(
    targets: &[String],
    (scale, scale_name): NamedScale,
    backend: &CatalogueBackend,
    trace: Option<&Path>,
    progress: bool,
    mut reporter: Reporter,
) -> Result<(), CliError> {
    let experiments = select_experiments(targets)?;
    let pool = Pool::new(backend.threads);
    // A plan that fails to build still runs — the runner isolates the
    // panicking `plan()` per experiment and reports it in the summary.
    let plan = try_global_plan(&experiments, scale).ok();
    match &plan {
        Some(plan) => eprintln!(
            "# {} experiment(s), {} unique sims ({} subscribed, dedup {:.2}x), {} thread(s), scale {}",
            experiments.len(),
            plan.unique_len(),
            plan.subscribed_len(),
            plan.dedup_ratio(),
            pool.threads(),
            scale_name,
        ),
        None => eprintln!(
            "# {} experiment(s), {} thread(s), scale {}",
            experiments.len(),
            pool.threads(),
            scale_name,
        ),
    }
    // Without a plan, treat the run as many sims so --trace takes the
    // per-spec-directory shape.
    let unique_sims = plan.as_ref().map_or(usize::MAX, Plan::unique_len);
    let mut exec = backend.exec();
    exec.trace = trace_config(trace, unique_sims)?;
    let started = std::time::Instant::now();
    let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
    let cache = backend.cache();
    let run = plan_run_catalogue_cached(
        refs,
        scale,
        &pool,
        cache.as_ref().map(|c| c as &dyn OutputCache),
        exec,
        |done, total| {
            if progress {
                eprint!("\r# progress {done}/{total} sims");
                let _ = std::io::stderr().flush();
            }
        },
        // Off the pool: spool each experiment's tables the moment it
        // reduces, long before the sweep finishes.
        |report| reporter.spool(&chunk_of(report)),
    );
    if progress {
        eprintln!();
    }
    let wall = started.elapsed();
    for report in &run.reports {
        reporter.print(&chunk_of(report));
    }
    if let Some(c) = &cache {
        report_cache(run.cache, c.dir());
    }
    // Executed sims are exactly the cache misses (every sim, without
    // a cache) — the total the progress line counted to.
    let sims = run.cache.misses;
    reporter.finish(|ok, failed| {
        format!(
            "{ok} ok, {failed} failed, {sims} sims in {wall:.1?} ({:.1} sims/s, {} engine events, \
             {:.2e} events/s, {} threads)",
            sims as f64 / wall.as_secs_f64().max(1e-9),
            run.events,
            run.events as f64 / wall.as_secs_f64().max(1e-9),
            pool.threads(),
        )
    })
}
