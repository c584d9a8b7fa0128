//! Reproduction CLI: regenerate any table/figure of the paper.
//!
//! ```text
//! repro list                     # catalogue + per-experiment spec counts + dedup ratio
//! repro fig03                    # one experiment, quick scale
//! repro fig05 fig08              # several experiments, shared sims run once
//! repro fig03 --scale paper      # paper-comparable effort
//! repro all                      # everything (quick), all cores
//! repro all --threads 1          # sequential (byte-identical output)
//! repro all --progress           # live sims-completed line on stderr
//! repro fig05 --json             # machine-readable output
//! repro fig03 --trace out.pftrace  # Perfetto trace (one sim: file;
//!                                # several: per-spec files under PATH/)
//! repro all --out results/       # one JSON file per table, spooled as
//!                                # each experiment's last sim completes
//! repro all --cache-dir cache/   # content-addressed sim cache: a repeat
//!                                # run executes 0 sims (pure reduce pass)
//! repro cache stats --cache-dir cache/           # entry/byte counts
//! repro cache gc --keep-plan all --cache-dir cache/  # drop orphaned hashes
//! repro cache clear --cache-dir cache/           # empty the cache
//! repro plan all --shards 3      # inspect the plan a sweep would run
//! repro run all --shard 0/2 --shard-dir shards   # execute one shard
//! repro merge all --shard-dir shards             # reduce merged shards
//! repro dispatch all --workers 4 --cache-dir cache/
//!                                # shard workers as supervised child
//!                                # processes: timeouts, retries, auto-merge
//! repro serve --listen 127.0.0.1:7077 --cache-dir cache/
//!                                # resident sweep daemon (TCP or unix:PATH)
//! repro submit all --connect 127.0.0.1:7077      # run a sweep on the daemon
//! repro submit --connect 127.0.0.1:7077 --shutdown   # stop it
//! repro bench-runner --bench-json BENCH_runner.json
//!                                # sweep-throughput benchmark artifact
//! ```
//!
//! Experiments are *plan subscriptions*: the CLI merges the requested
//! experiments into one deduplicated plan of content-hashed sims and
//! executes its unique specs on a work-stealing pool (`--threads N`,
//! or the `EBRC_THREADS` environment variable; default: all cores).
//! Sims are submitted longest-first by each spec's cost hint, and
//! `--slice-events N` (or `EBRC_SLICE`) additionally runs dumbbell
//! sims in resumable N-event slices so a straggler can migrate across
//! workers mid-run — both are pure scheduling, with output bytes
//! unchanged.
//! Each experiment reduces the moment its last subscribed sim
//! completes, and `--out` spools its tables from a writer thread while
//! the rest of the grid is still running. With `--cache-dir DIR` (or
//! the `EBRC_CACHE` environment variable) completed sims are stored
//! under their content hash and served — validated — to later runs,
//! so a repeated sweep after a reducer-only change is a pure reduce
//! pass. Output is byte-identical at any thread count, any shard
//! count, and any cache temperature. A panicking experiment is
//! reported in the end-of-run summary and turns the exit code nonzero,
//! without taking down the rest of the sweep.

use ebrc_experiments::{
    all_experiments, global_plan, plan_run_catalogue_cached, reduce_subscription, scale_by_name,
    select_experiments, table_file_name, CatalogueBackend, Experiment, ExperimentReport, Plan,
    Scale, SpecOutput, MASTER_SEED,
};
use ebrc_runner::{
    run_plan, CacheCounters, DirCache, ExecConfig, OutputCache, Pool, Spec as _, SpecTiming,
    TraceConfig,
};
use ebrc_serve::{
    client, supervise, DispatchConfig, DispatchEvent, Event, FaultKill, ListenAddr, Request,
    Submission,
};
use serde::Value;
use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro (list | plan | run | merge | dispatch | serve | submit | \
         cache (stats|gc|clear) | bench-runner | <experiment-id>... | all) \
         [--scale quick|paper|tiny] [--json] [--out DIR] [--threads N] [--progress] \
         [--trace PATH] [--slice-events N] [--cache-dir DIR] [--keep-plan ID] [--dry-run] [--shard I/K] \
         [--shards K] [--shard-dir DIR] [--workers K] [--timeout-s N] [--retries N] \
         [--listen ADDR] [--connect ADDR] [--ping] [--server-stats] [--shutdown] \
         [--bench-json FILE] [--baseline FILE]"
    );
    ExitCode::from(2)
}

struct Options {
    scale: Scale,
    scale_name: &'static str,
    json: bool,
    out: Option<PathBuf>,
    threads: usize,
    progress: bool,
    slice_events: Option<u64>,
    trace: Option<PathBuf>,
    bench_json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    shard: (usize, usize),
    shards: usize,
    shard_dir: PathBuf,
    cache_dir: Option<PathBuf>,
    keep_plan: Vec<String>,
    dry_run: bool,
    workers: usize,
    timeout_s: u64,
    retries: u32,
    listen: String,
    connect: String,
    ping: bool,
    server_stats: bool,
    shutdown: bool,
}

impl Options {
    /// The configured cache, if any.
    fn cache(&self) -> Option<DirCache> {
        self.cache_dir.as_ref().map(DirCache::new)
    }

    /// The execution config every run path shares: sliced when
    /// `--slice-events N` (or `EBRC_SLICE`) set a budget, monolithic
    /// otherwise. Output bytes are identical either way — slicing only
    /// lets long sims migrate between workers.
    fn exec(&self) -> ExecConfig {
        ExecConfig {
            slice_events: self.slice_events,
            ..ExecConfig::default()
        }
    }

    /// Resolves `--trace PATH` against the number of sims the run will
    /// execute: one sim records straight into the file at PATH; more
    /// sims turn PATH into a directory of per-spec `.pftrace` files.
    /// Creates the needed directories; tracing forces every selected
    /// sim to execute (cache hits record nothing).
    fn trace_config(&self, unique_sims: usize) -> Result<Option<TraceConfig>, String> {
        let Some(path) = &self.trace else {
            return Ok(None);
        };
        if unique_sims == 1 {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
            eprintln!("# trace: recording 1 sim to {}", path.display());
            Ok(Some(TraceConfig::single(path)))
        } else {
            std::fs::create_dir_all(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            eprintln!(
                "# trace: recording {unique_sims} sims under {}",
                path.display()
            );
            Ok(Some(TraceConfig::per_spec(path)))
        }
    }
}

/// Thread count: `--threads` beats `EBRC_THREADS` beats all cores.
fn env_threads() -> Option<usize> {
    let raw = std::env::var("EBRC_THREADS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            eprintln!("ignoring EBRC_THREADS={raw:?} (want a positive integer)");
            None
        }
    }
}

/// Slice budget: `--slice-events` beats `EBRC_SLICE` beats monolithic.
fn env_slice_events() -> Option<u64> {
    let raw = std::env::var("EBRC_SLICE").ok()?;
    match raw.trim().parse::<u64>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            eprintln!("ignoring EBRC_SLICE={raw:?} (want a positive integer)");
            None
        }
    }
}

/// Cache directory: `--cache-dir` beats `EBRC_CACHE` beats no cache.
fn env_cache_dir() -> Option<PathBuf> {
    let raw = std::env::var("EBRC_CACHE").ok()?;
    let trimmed = raw.trim();
    (!trimmed.is_empty()).then(|| PathBuf::from(trimmed))
}

/// The one-line cache report every cache-aware command prints.
fn report_cache(counters: CacheCounters, dir: &Path) {
    eprintln!(
        "# cache: {} hit(s), {} miss(es) in {}",
        counters.hits,
        counters.misses,
        dir.display()
    );
}

/// Incremental table writer: one JSON file per table under `dir`,
/// written as each experiment's report lands. Two tables mapping to
/// the same file are reported — never silently overwritten.
struct Spooler {
    dir: PathBuf,
    /// file name → the table name that claimed it.
    seen: HashMap<String, String>,
    failures: usize,
}

impl Spooler {
    fn new(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
            seen: HashMap::new(),
            failures: 0,
        }
    }

    fn spool(&mut self, report: &ExperimentReport) {
        let Ok(tables) = &report.outcome else {
            return;
        };
        // The directory (and parents) may have vanished since argument
        // parsing; (re)create rather than failing per table.
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            eprintln!("# cannot create {}: {e}", self.dir.display());
            self.failures += tables.len();
            return;
        }
        for t in tables {
            let file = table_file_name(&t.name);
            if let Some(owner) = self.seen.get(&file) {
                eprintln!(
                    "# table {:?} collides with {:?} on {}; not overwriting",
                    t.name,
                    owner,
                    self.dir.join(&file).display()
                );
                self.failures += 1;
                continue;
            }
            self.seen.insert(file.clone(), t.name.clone());
            let path = self.dir.join(&file);
            if let Err(e) = std::fs::write(&path, t.to_json()) {
                eprintln!("# failed to write {}: {e}", path.display());
                self.failures += 1;
            }
        }
    }
}

/// Builds the merged plan, isolating a panicking `plan()` (those
/// experiments are reported by the runner itself).
fn try_global_plan(experiments: &[Box<dyn Experiment>], scale: Scale) -> Option<Plan> {
    let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
    catch_unwind(AssertUnwindSafe(|| global_plan(&refs, scale))).ok()
}

/// Prints a report set's tables to stdout in catalogue order.
fn render_reports(reports: &[ExperimentReport], opts: &Options) {
    for report in reports {
        eprintln!("# {} — {} ({})", report.id, report.title, report.paper_ref);
        if let Ok(tables) = &report.outcome {
            for t in tables {
                if opts.json {
                    println!("{}", t.to_json());
                } else {
                    println!("{}", t.render());
                }
            }
        }
    }
}

/// Prints the end-of-run summary (`detail` describes the work done —
/// execution throughput for a run, merge provenance for a merge);
/// returns `true` when every experiment succeeded.
fn summarize(reports: &[ExperimentReport], detail: &str) -> bool {
    let failed: Vec<_> = reports.iter().filter(|r| r.outcome.is_err()).collect();
    eprintln!(
        "# summary: {} ok, {} failed, {detail}",
        reports.len() - failed.len(),
        failed.len(),
    );
    for report in &failed {
        if let Err(e) = &report.outcome {
            eprintln!("#   {e}");
        }
    }
    failed.is_empty()
}

/// Runs a set of experiments as one merged plan and prints/spools the
/// results. Returns `true` when everything succeeded.
fn run_and_report(experiments: Vec<Box<dyn Experiment>>, opts: &Options) -> bool {
    let pool = Pool::new(opts.threads);
    let plan = try_global_plan(&experiments, opts.scale);
    match &plan {
        Some(plan) => eprintln!(
            "# {} experiment(s), {} unique sims ({} subscribed, dedup {:.2}x), {} thread(s), scale {}",
            experiments.len(),
            plan.unique_len(),
            plan.subscribed_len(),
            plan.dedup_ratio(),
            pool.threads(),
            opts.scale_name,
        ),
        None => eprintln!(
            "# {} experiment(s), {} thread(s), scale {}",
            experiments.len(),
            pool.threads(),
            opts.scale_name,
        ),
    }
    // An unbuildable plan (overlapping subscriptions that failed to
    // merge) still runs; treat it as many sims so --trace takes the
    // per-spec-directory shape.
    let unique_sims = plan.as_ref().map_or(usize::MAX, Plan::unique_len);
    let mut exec = opts.exec();
    match opts.trace_config(unique_sims) {
        Ok(tc) => exec.trace = tc,
        Err(e) => {
            eprintln!("# error: {e}");
            return false;
        }
    }
    let started = std::time::Instant::now();
    let show_progress = opts.progress;
    // The executed sim count, as the progress callback sees it — no
    // second decomposition pass, no way for banner and summary to
    // disagree.
    let total_sims = std::sync::atomic::AtomicUsize::new(0);
    let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
    let mut spooler = opts.out.as_deref().map(Spooler::new);
    let cache = opts.cache();
    let run = plan_run_catalogue_cached(
        refs,
        opts.scale,
        &pool,
        cache.as_ref().map(|c| c as &dyn OutputCache),
        exec,
        |done, total| {
            total_sims.store(total, std::sync::atomic::Ordering::Relaxed);
            if show_progress {
                eprint!("\r# progress {done}/{total} sims");
                let _ = std::io::stderr().flush();
            }
        },
        |report| {
            // The writer thread: spool each experiment's tables the
            // moment it reduces, long before the sweep finishes.
            if let Some(sp) = spooler.as_mut() {
                sp.spool(report);
            }
        },
    );
    if show_progress {
        eprintln!();
    }
    let wall = started.elapsed();
    let reports = run.reports;
    render_reports(&reports, opts);
    let write_failures = spooler.map_or(0, |sp| sp.failures);
    if let Some(c) = &cache {
        report_cache(run.cache, c.dir());
    }
    let sims = total_sims.into_inner();
    let ok = summarize(
        &reports,
        &format!(
            "{} sims in {:.1?} ({:.1} sims/s, {} engine events, {:.2e} events/s, {} threads)",
            sims,
            wall,
            sims as f64 / wall.as_secs_f64().max(1e-9),
            run.events,
            run.events as f64 / wall.as_secs_f64().max(1e-9),
            pool.threads(),
        ),
    );
    ok && write_failures == 0
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

/// `repro list`: the catalogue with per-experiment spec counts, an
/// estimated dispatch cost (`~events`, from [`SimSpec::events_hint`] —
/// visible before any sim or shard is dispatched), and the plan-level
/// dedup ratio at the requested scale.
fn list_catalogue(opts: &Options) -> ExitCode {
    let experiments = all_experiments();
    for e in &experiments {
        let specs = e.specs(opts.scale);
        // Saturating fold: a pathological scale must pin the estimate
        // at u64::MAX, not wrap into a small plausible-looking number.
        let hint = specs
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.events_hint()));
        println!(
            "{:16} {:28} {:>4} sims {:>7} ~events  {}",
            e.id(),
            e.paper_ref(),
            specs.len(),
            human_events(hint),
            e.title()
        );
    }
    if let Some(plan) = try_global_plan(&experiments, opts.scale) {
        let unique_hint = plan
            .specs()
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.events_hint()));
        println!(
            "# {} experiments, {} subscribed sims -> {} unique (dedup {:.2}x, ~{} events) at scale {}",
            experiments.len(),
            plan.subscribed_len(),
            plan.unique_len(),
            plan.dedup_ratio(),
            human_events(unique_hint),
            opts.scale_name,
        );
    }
    ExitCode::SUCCESS
}

/// `repro plan`: plan summary plus the deterministic shard breakdown.
fn print_plan(targets: &[String], opts: &Options) -> ExitCode {
    let experiments = match select_experiments(targets) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let Some(plan) = try_global_plan(&experiments, opts.scale) else {
        eprintln!("plan construction panicked");
        return ExitCode::FAILURE;
    };
    println!(
        "plan: {} experiment(s), scale {}, fingerprint {:016x}",
        experiments.len(),
        opts.scale_name,
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
    let k = opts.shards.max(1);
    if k > 1 {
        for shard in 0..k {
            let indices = plan.shard_indices(shard, k);
            let hint = indices.iter().fold(0u64, |acc, &i| {
                acc.saturating_add(plan.specs()[i].events_hint())
            });
            println!(
                "shard {shard}/{k}: {} sims, ~{} events",
                indices.len(),
                human_events(hint),
            );
        }
    }
    ExitCode::SUCCESS
}

/// The shard artifact path for shard `i` of `k`.
fn shard_path(dir: &Path, shard: usize, of: usize) -> PathBuf {
    dir.join(format!("shard-{shard}-of-{of}.json"))
}

/// `repro run --shard i/k`: execute one deterministic shard of the
/// plan and spool its raw spec outputs for a later `repro merge`.
fn run_shard(targets: &[String], opts: &Options) -> ExitCode {
    let experiments = match select_experiments(targets) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let Some(plan) = try_global_plan(&experiments, opts.scale) else {
        eprintln!("plan construction panicked");
        return ExitCode::FAILURE;
    };
    let (shard, of) = opts.shard;
    if shard >= of {
        eprintln!("--shard {shard}/{of} is out of range");
        return ExitCode::FAILURE;
    }
    let indices = plan.shard_indices(shard, of);
    let pool = Pool::new(opts.threads);
    eprintln!(
        "# shard {shard}/{of}: {} of {} unique sims, {} thread(s), scale {}",
        indices.len(),
        plan.unique_len(),
        pool.threads(),
        opts.scale_name,
    );
    let show_progress = opts.progress;
    let started = std::time::Instant::now();
    let cache = opts.cache();
    let mut exec = opts.exec();
    match opts.trace_config(indices.len()) {
        Ok(tc) => exec.trace = tc,
        Err(e) => {
            eprintln!("# error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let (results, stats) = run_plan(
        &pool,
        MASTER_SEED,
        &plan,
        Some(&indices),
        cache.as_ref().map(|c| c as &dyn OutputCache),
        exec,
        |done, total| {
            if show_progress {
                eprint!("\r# progress {done}/{total} sims (shard {shard}/{of})");
                let _ = std::io::stderr().flush();
            }
        },
        |_| {},
    );
    if show_progress {
        eprintln!();
    }
    if let Some(c) = &cache {
        report_cache(stats.cache, c.dir());
    }

    // Executed sims have a timing row; cache hits have none.
    let cost: HashMap<&str, &SpecTiming> =
        stats.timings.iter().map(|t| (t.key.as_str(), t)).collect();
    let mut outputs = Vec::new();
    let mut failures = Vec::new();
    for &idx in &indices {
        let key = plan.specs()[idx].key();
        let hash = plan.spec_hashes()[idx];
        let (events, wall_s) = cost
            .get(key.as_str())
            .map_or((0, 0.0), |t| (t.events, t.wall_s));
        // `run_plan` fills the slot of every index in `only`.
        match results[idx].as_ref().expect("shard spec has a result") {
            Ok(out) => outputs.push(Value::Object(vec![
                ("key".into(), Value::String(key)),
                ("hash".into(), Value::String(format!("{hash:016x}"))),
                // Engine events and wall seconds this sim cost (both 0
                // when it was served from the cache) — the measured
                // sweep cost a dispatcher can read back per experiment
                // to balance the next shard assignment.
                ("events".into(), Value::Number(events as f64)),
                ("wall_s".into(), Value::Number(wall_s)),
                ("output".into(), out.to_value()),
            ])),
            Err(msg) => failures.push(Value::Object(vec![
                ("key".into(), Value::String(key)),
                ("error".into(), Value::String(msg.clone())),
            ])),
        }
    }
    let failed = failures.len();
    let artifact = Value::Object(vec![
        (
            "plan".into(),
            Value::String(format!("{:016x}", plan.fingerprint())),
        ),
        ("scale".into(), Value::String(opts.scale_name.to_string())),
        ("shard".into(), Value::Number(shard as f64)),
        ("of".into(), Value::Number(of as f64)),
        (
            "events_processed".into(),
            Value::Number(stats.events as f64),
        ),
        ("outputs".into(), Value::Array(outputs)),
        ("failures".into(), Value::Array(failures)),
    ]);
    if let Err(e) = std::fs::create_dir_all(&opts.shard_dir) {
        eprintln!("cannot create {}: {e}", opts.shard_dir.display());
        return ExitCode::FAILURE;
    }
    let path = shard_path(&opts.shard_dir, shard, of);
    let json = serde_json::to_string_pretty(&artifact).expect("artifact is serializable");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "# shard {shard}/{of}: wrote {} ({} sims, {} failed, {} engine events) in {:.1?}",
        path.display(),
        indices.len() - failed,
        failed,
        stats.events,
        started.elapsed(),
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repro merge`: load every shard artifact, verify it against the
/// rebuilt plan, and reduce — byte-identical to a single-host run.
fn merge_shards(targets: &[String], opts: &Options) -> ExitCode {
    let experiments = match select_experiments(targets) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let Some(plan) = try_global_plan(&experiments, opts.scale) else {
        eprintln!("plan construction panicked");
        return ExitCode::FAILURE;
    };
    let fingerprint = format!("{:016x}", plan.fingerprint());

    let mut outputs: Vec<Option<SpecOutput>> = (0..plan.unique_len()).map(|_| None).collect();
    let mut events: Vec<u64> = vec![0; plan.unique_len()];
    let mut failures: HashMap<usize, String> = HashMap::new();
    let entries = match std::fs::read_dir(&opts.shard_dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot read {}: {e}", opts.shard_dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut files = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().map(|e| e != "json").unwrap_or(true) {
            continue;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if let Err(msg) = absorb_shard(
            &value,
            &plan,
            &fingerprint,
            &mut outputs,
            &mut events,
            &mut failures,
        ) {
            eprintln!("{}: {msg}", path.display());
            return ExitCode::FAILURE;
        }
        files += 1;
    }
    if files == 0 {
        eprintln!("no shard artifacts under {}", opts.shard_dir.display());
        return ExitCode::FAILURE;
    }
    let missing: Vec<usize> = (0..plan.unique_len())
        .filter(|i| outputs[*i].is_none() && !failures.contains_key(i))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "incomplete shard set: {} of {} sims missing (first missing: {})",
            missing.len(),
            plan.unique_len(),
            plan.specs()[missing[0]].key(),
        );
        return ExitCode::FAILURE;
    }

    // Reduce every subscription from the merged outputs.
    let events_total: u64 = events.iter().sum();
    eprintln!(
        "# merge: {} shard file(s), {} unique sims ({} engine events), {} experiment(s), scale {}",
        files,
        plan.unique_len(),
        events_total,
        experiments.len(),
        opts.scale_name,
    );
    // Per-experiment measured sweep cost, from the shard artifacts'
    // recorded per-sim event counts (shared sims count toward every
    // subscriber — this is each experiment's standalone cost).
    for sub in plan.subscriptions() {
        let mut distinct: Vec<usize> = sub.spec_indices.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let cost: u64 = distinct.iter().map(|&i| events[i]).sum();
        eprintln!(
            "#   {:16} {:>4} sims, {} engine events",
            sub.id,
            distinct.len(),
            cost
        );
    }
    let mut spooler = opts.out.as_deref().map(Spooler::new);
    let reports: Vec<ExperimentReport> = experiments
        .iter()
        .zip(plan.subscriptions())
        .map(|(exp, sub)| {
            let mut failed_specs: Vec<(String, String)> = Vec::new();
            let mut refs: Vec<&SpecOutput> = Vec::new();
            for &idx in &sub.spec_indices {
                match &outputs[idx] {
                    Some(out) => refs.push(out),
                    None => {
                        let key = plan.specs()[idx].key();
                        if !failed_specs.iter().any(|(k, _)| *k == key) {
                            failed_specs.push((key, failures[&idx].clone()));
                        }
                    }
                }
            }
            let inputs = if failed_specs.is_empty() {
                Ok(refs)
            } else {
                Err(failed_specs)
            };
            reduce_subscription(exp.as_ref(), opts.scale, inputs)
        })
        .collect();
    for report in &reports {
        if let Some(sp) = spooler.as_mut() {
            sp.spool(report);
        }
    }
    render_reports(&reports, opts);
    let write_failures = spooler.map_or(0, |sp| sp.failures);
    let ok = summarize(
        &reports,
        &format!(
            "{} sims merged from {files} shard file(s), {events_total} engine events",
            plan.unique_len()
        ),
    );
    if ok && write_failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Folds one shard artifact into the output table, verifying the plan
/// fingerprint and every spec key. Per-sim `events` counts (absent in
/// pre-accounting artifacts) accumulate into `events`.
fn absorb_shard(
    value: &Value,
    plan: &Plan,
    fingerprint: &str,
    outputs: &mut [Option<SpecOutput>],
    events: &mut [u64],
    failures: &mut HashMap<usize, String>,
) -> Result<(), String> {
    let found = value
        .get("plan")
        .and_then(Value::as_str)
        .ok_or("not a shard artifact (no plan fingerprint)")?;
    if found != fingerprint {
        return Err(format!(
            "shard was cut from a different plan (fingerprint {found}, want {fingerprint}) — \
             same experiments and --scale required"
        ));
    }
    let resolve = |entry: &Value| -> Result<usize, String> {
        let key = entry
            .get("key")
            .and_then(Value::as_str)
            .ok_or("entry without key")?;
        let idx = plan
            .index_of(ebrc_runner::stable_hash(key))
            .ok_or_else(|| format!("spec {key:?} is not in this plan"))?;
        if plan.specs()[idx].key() != key {
            return Err(format!("hash collision on {key:?}"));
        }
        Ok(idx)
    };
    match value.get("outputs") {
        Some(Value::Array(entries)) => {
            for entry in entries {
                let idx = resolve(entry)?;
                let out = entry.get("output").ok_or("entry without output")?;
                outputs[idx] = Some(SpecOutput::from_value(out)?);
                if let Some(n) = entry.get("events").and_then(Value::as_f64) {
                    events[idx] = n as u64;
                }
            }
        }
        _ => return Err("shard artifact without outputs".into()),
    }
    if let Some(Value::Array(entries)) = value.get("failures") {
        for entry in entries {
            let idx = resolve(entry)?;
            let msg = entry
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("sim failed");
            failures.insert(idx, msg.to_string());
        }
    }
    Ok(())
}

/// Fault-injection hook for `repro dispatch`, from the environment:
/// `EBRC_FAULT_KILL_SHARD=i` kills shard `i`'s first attempt
/// (`EBRC_FAULT_KILL_AFTER_MS` into the run, default immediately).
/// CI uses this to prove the retry path re-merges byte-identically.
fn env_fault_kill() -> Option<FaultKill> {
    let shard = std::env::var("EBRC_FAULT_KILL_SHARD")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()?;
    let after_ms = std::env::var("EBRC_FAULT_KILL_AFTER_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    Some(FaultKill {
        shard,
        after: std::time::Duration::from_millis(after_ms),
    })
}

/// `repro dispatch`: run a sweep as `--workers K` shard worker
/// *processes*, supervised with per-shard timeouts and bounded
/// exponential-backoff retries, then auto-merge the artifacts —
/// byte-identical to a single-process `repro all`. A worker that
/// crashes or hangs costs one shard retry; per-spec failures inside a
/// valid artifact ride through to the merge report instead of
/// aborting the sweep.
fn dispatch_sweep(targets: &[String], opts: &Options) -> ExitCode {
    let experiments = match select_experiments(targets) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let Some(plan) = try_global_plan(&experiments, opts.scale) else {
        eprintln!("plan construction panicked");
        return ExitCode::FAILURE;
    };
    let fingerprint = format!("{:016x}", plan.fingerprint());
    let k = opts.workers.max(1);
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the repro binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.shard_dir) {
        eprintln!("cannot create {}: {e}", opts.shard_dir.display());
        return ExitCode::FAILURE;
    }
    // Stale artifacts from an earlier dispatch (possibly at another
    // shard count) would poison the merge; clear them first.
    if let Ok(entries) = std::fs::read_dir(&opts.shard_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("shard-") && (name.ends_with(".json") || name.ends_with(".log")) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    let worker_threads = (opts.threads / k).max(1);
    let cfg = DispatchConfig {
        workers: k,
        timeout: std::time::Duration::from_secs(opts.timeout_s),
        retries: opts.retries,
        fault_kill: env_fault_kill(),
        ..DispatchConfig::default()
    };
    eprintln!(
        "# dispatch: {} unique sims across {k} shard worker(s) ({} thread(s) each), \
         plan {fingerprint}, scale {}, timeout {}s, {} retries",
        plan.unique_len(),
        worker_threads,
        opts.scale_name,
        opts.timeout_s,
        opts.retries,
    );

    let spawn = |shard: usize, attempt: u32| -> std::io::Result<std::process::Child> {
        let log_path = opts
            .shard_dir
            .join(format!("shard-{shard}-attempt-{attempt}.log"));
        let log = std::fs::File::create(&log_path)?;
        let log_err = log.try_clone()?;
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run");
        if targets.is_empty() {
            cmd.arg("all");
        } else {
            cmd.args(targets);
        }
        cmd.arg("--scale")
            .arg(opts.scale_name)
            .arg("--shard")
            .arg(format!("{shard}/{k}"))
            .arg("--shard-dir")
            .arg(&opts.shard_dir)
            .arg("--threads")
            .arg(worker_threads.to_string())
            .stdout(log)
            .stderr(log_err);
        if let Some(dir) = &opts.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        if let Some(n) = opts.slice_events {
            cmd.arg("--slice-events").arg(n.to_string());
        }
        cmd.spawn()
    };
    let accept = |shard: usize| -> Result<(), String> {
        let path = shard_path(&opts.shard_dir, shard, k);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("no artifact at {}: {e}", path.display()))?;
        let value: Value =
            serde_json::from_str(&text).map_err(|e| format!("torn artifact: {e}"))?;
        let found = value
            .get("plan")
            .and_then(Value::as_str)
            .ok_or("artifact without plan fingerprint")?;
        if found != fingerprint {
            return Err(format!(
                "artifact fingerprint {found} does not match plan {fingerprint}"
            ));
        }
        let tagged = |key: &str| value.get(key).and_then(Value::as_f64).map(|n| n as usize);
        if tagged("shard") != Some(shard) || tagged("of") != Some(k) {
            return Err("artifact is for a different shard split".into());
        }
        Ok(())
    };
    let log = |event: &DispatchEvent| match event {
        DispatchEvent::Launched { shard, attempt } => {
            eprintln!("# dispatch: shard {shard} attempt {attempt} launched");
        }
        DispatchEvent::Completed { shard, attempt } => {
            eprintln!("# dispatch: shard {shard} completed (attempt {attempt})");
        }
        DispatchEvent::Retrying {
            shard,
            attempt,
            error,
            backoff,
        } => {
            eprintln!(
                "# dispatch: shard {shard} attempt {attempt} failed ({error}); \
                 retrying in {backoff:.0?}"
            );
        }
        DispatchEvent::GaveUp {
            shard,
            attempts,
            error,
        } => {
            eprintln!(
                "# dispatch: shard {shard} failed permanently after {attempts} attempt(s): {error}"
            );
        }
        DispatchEvent::FaultInjected { shard } => {
            eprintln!("# dispatch: FAULT INJECTED — killed shard {shard} (test hook)");
        }
    };
    let reports = supervise(&cfg, k, spawn, accept, log);
    let failed: Vec<_> = reports.iter().filter(|r| r.error.is_some()).collect();
    let retried: u32 = reports.iter().map(|r| r.attempts.saturating_sub(1)).sum();
    eprintln!(
        "# dispatch: {} of {k} shard(s) ok, {} retried attempt(s)",
        k - failed.len(),
        retried,
    );
    if !failed.is_empty() {
        for r in &failed {
            eprintln!(
                "#   shard {} gave up after {} attempt(s): {}",
                r.shard,
                r.attempts,
                r.error.as_deref().unwrap_or("unknown"),
            );
        }
        eprintln!("# dispatch: not merging an incomplete shard set");
        return ExitCode::FAILURE;
    }
    merge_shards(targets, opts)
}

/// `repro serve`: the resident sweep daemon. Binds `--listen ADDR`
/// (TCP `host:port` or `unix:PATH`), keeps the `--cache-dir` warm
/// across submissions, and streams rendered tables to each client.
/// Runs until a client sends `--shutdown`.
fn serve_daemon(opts: &Options) -> ExitCode {
    let backend = CatalogueBackend {
        cache_dir: opts.cache_dir.clone(),
        threads: opts.threads,
        slice_events: opts.slice_events,
    };
    let addr = ListenAddr::parse(&opts.listen);
    match ebrc_serve::serve(&addr, &backend, |local| {
        eprintln!("# serve: listening on {local}");
        match &backend.cache_dir {
            Some(dir) => eprintln!("# serve: sharing cache {}", dir.display()),
            None => eprintln!("# serve: no --cache-dir; submissions will not dedup"),
        }
    }) {
        Ok(()) => {
            eprintln!("# serve: shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed on {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro submit`: client for a running `repro serve`. Computes the
/// plan fingerprint locally and sends it with the submission — the
/// daemon refuses on mismatch, so a version-skewed client can never
/// mislabel streamed tables. Stdout is byte-identical to running the
/// same sweep locally.
fn submit_sweep(targets: &[String], opts: &Options) -> ExitCode {
    let addr = ListenAddr::parse(&opts.connect);
    // One-shot control requests first.
    if opts.ping || opts.server_stats || opts.shutdown {
        let request = if opts.ping {
            Request::Ping
        } else if opts.server_stats {
            Request::Stats
        } else {
            Request::Shutdown
        };
        return match client::request_one(&addr, &request) {
            Ok(Event::Pong) => {
                println!("pong from {addr}");
                ExitCode::SUCCESS
            }
            Ok(Event::Stats(stats)) => {
                println!(
                    "serve {addr}: {} submission(s), {} sims executed, {} cache hit(s), \
                     {} engine events",
                    stats.submissions, stats.sims_executed, stats.cache_hits, stats.events,
                );
                ExitCode::SUCCESS
            }
            Ok(Event::Bye) => {
                eprintln!("# serve at {addr} shutting down");
                ExitCode::SUCCESS
            }
            Ok(other) => {
                eprintln!("unexpected answer from {addr}: {other:?}");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("cannot reach {addr}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Compute the local fingerprint for the end-to-end version check.
    let fingerprint = match select_experiments(targets) {
        Ok(experiments) => {
            try_global_plan(&experiments, opts.scale).map(|p| format!("{:016x}", p.fingerprint()))
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let submission = Submission {
        targets: targets.to_vec(),
        scale: opts.scale_name.to_string(),
        fingerprint,
    };
    let mut out_seen: HashMap<String, String> = HashMap::new();
    let mut write_failures = 0usize;
    let mut chunk_errors = 0usize;
    let show_progress = opts.progress;
    let mut progressed = false;
    let outcome = client::submit(&addr, submission, |event| match event {
        Event::Accepted {
            fingerprint,
            unique_sims,
            subscribed_sims,
        } => {
            eprintln!(
                "# submit: accepted at {addr} — plan {fingerprint}, {unique_sims} unique sims \
                 ({subscribed_sims} subscribed), scale {}",
                opts.scale_name,
            );
        }
        Event::Queued => eprintln!("# submit: queued behind another sweep"),
        Event::Running => eprintln!("# submit: running"),
        Event::Progress { done, total } => {
            if show_progress {
                eprint!("\r# progress {done}/{total} sims");
                let _ = std::io::stderr().flush();
                progressed = true;
            }
        }
        Event::Report(chunk) => {
            if progressed {
                eprintln!();
                progressed = false;
            }
            // Mirror render_reports byte for byte: header on stderr,
            // server-rendered tables on stdout.
            eprintln!(
                "# {} — {} ({})",
                chunk.experiment, chunk.title, chunk.paper_ref
            );
            if let Some(error) = &chunk.error {
                eprintln!("#   {error}");
                chunk_errors += 1;
            }
            for t in &chunk.tables {
                if opts.json {
                    println!("{}", t.json);
                } else {
                    println!("{}", t.render);
                }
                if let Some(dir) = &opts.out {
                    if let Some(owner) = out_seen.get(&t.file_name) {
                        eprintln!(
                            "# table {:?} collides with {:?} on {}; not overwriting",
                            t.name,
                            owner,
                            dir.join(&t.file_name).display()
                        );
                        write_failures += 1;
                        continue;
                    }
                    out_seen.insert(t.file_name.clone(), t.name.clone());
                    let path = dir.join(&t.file_name);
                    if let Err(e) = std::fs::write(&path, &t.json) {
                        eprintln!("# failed to write {}: {e}", path.display());
                        write_failures += 1;
                    }
                }
            }
        }
        Event::Done(_) | Event::Error { .. } => {}
        other => eprintln!("# submit: unexpected event {other:?}"),
    });
    if progressed {
        eprintln!();
    }
    match outcome {
        Ok(Event::Done(summary)) => {
            eprintln!(
                "# summary: {} executed, {} cache hit(s), {} engine events, {} failed \
                 in {:.1}s on the server",
                summary.executed,
                summary.cache_hits,
                summary.events,
                summary.failed,
                summary.wall_s,
            );
            if summary.failed == 0 && chunk_errors == 0 && write_failures == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(Event::Error { message }) => {
            eprintln!("submit refused: {message}");
            ExitCode::FAILURE
        }
        Ok(other) => {
            eprintln!("unexpected terminal event: {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("submit to {addr} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro cache (stats | gc --keep-plan <targets> | clear)`: inspect
/// and maintain a content-addressed sim cache.
///
/// `gc --keep-plan` rebuilds the named experiments' plan at the
/// requested `--scale` and removes every entry whose content hash the
/// plan does not reference (invalid entries included) — exactly the
/// orphans. Entries for other scales are orphans too: keep-plan
/// describes precisely what survives.
fn cache_command(targets: &[String], opts: &Options) -> ExitCode {
    let Some(cache) = opts.cache() else {
        eprintln!("cache commands need --cache-dir DIR (or EBRC_CACHE)");
        return ExitCode::FAILURE;
    };
    match targets.first().map(String::as_str) {
        Some("stats") if targets.len() == 1 => {
            let entries = cache.entries();
            let valid = entries.iter().filter(|e| e.valid).count();
            let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
            println!(
                "cache {}: {} entries ({} valid, {} invalid), {} bytes",
                cache.dir().display(),
                entries.len(),
                valid,
                entries.len() - valid,
                bytes,
            );
            // Writer residue (a killed `repro` leaves its .tmp behind)
            // and the true on-disk footprint, entries + residue.
            let temps = cache.temp_files();
            let temp_bytes: u64 = temps.iter().map(|t| t.bytes).sum();
            println!(
                "cache {}: {} temp file(s) ({} bytes), {} bytes total on disk",
                cache.dir().display(),
                temps.len(),
                temp_bytes,
                bytes + temp_bytes,
            );
            ExitCode::SUCCESS
        }
        Some("clear") if targets.len() == 1 => {
            let entries = cache.entries();
            let removed = entries.iter().filter(|e| cache.remove(e.hash)).count();
            let temps = cache.remove_temp_files();
            eprintln!(
                "# cache clear: removed {removed} of {} entries, {temps} temp file(s)",
                entries.len()
            );
            if removed == entries.len() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("gc") if targets.len() == 1 => {
            if opts.keep_plan.is_empty() {
                eprintln!("cache gc needs --keep-plan ID (repeatable; 'all' keeps the catalogue)");
                return ExitCode::FAILURE;
            }
            let experiments = match select_experiments(&opts.keep_plan) {
                Ok(e) => e,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            };
            let Some(plan) = try_global_plan(&experiments, opts.scale) else {
                eprintln!("plan construction panicked");
                return ExitCode::FAILURE;
            };
            let keep: std::collections::HashSet<u64> = plan.spec_hashes().iter().copied().collect();
            if opts.dry_run {
                // Report-only pass: same selection as the real gc,
                // zero deletions — so an operator can price a cleanup
                // before committing to it.
                let mut kept = 0usize;
                let mut doomed = 0usize;
                let mut doomed_bytes = 0u64;
                for entry in cache.entries() {
                    if entry.valid && keep.contains(&entry.hash) {
                        kept += 1;
                    } else {
                        println!(
                            "would remove {:016x} ({} bytes{})",
                            entry.hash,
                            entry.bytes,
                            if entry.valid { "" } else { ", invalid" },
                        );
                        doomed += 1;
                        doomed_bytes += entry.bytes;
                    }
                }
                for temp in cache.temp_files() {
                    println!(
                        "would remove temp {} ({} bytes)",
                        temp.path.display(),
                        temp.bytes
                    );
                    doomed += 1;
                    doomed_bytes += temp.bytes;
                }
                eprintln!(
                    "# cache gc (dry run): would keep {kept}, remove {doomed} ({doomed_bytes} \
                     bytes); nothing deleted",
                );
                return ExitCode::SUCCESS;
            }
            let mut kept = 0usize;
            let mut removed = 0usize;
            let mut stuck = 0usize;
            for entry in cache.entries() {
                if entry.valid && keep.contains(&entry.hash) {
                    kept += 1;
                } else if cache.remove(entry.hash) {
                    removed += 1;
                } else {
                    stuck += 1;
                }
            }
            let temps = cache.remove_temp_files();
            eprintln!(
                "# cache gc: kept {kept}, removed {removed} + {temps} temp file(s) \
                 (keep-plan: {} unique sims at scale {})",
                plan.unique_len(),
                opts.scale_name,
            );
            if stuck == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("# cache gc: {stuck} entries could not be removed");
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

/// `bench-runner`: times `repro all` at 1 thread and at 8-or-all-cores
/// (whichever is larger), writing wall-clock, sims/sec, engine
/// events/sec, and the plan-level dedup counters to a JSON artifact —
/// the perf trajectory CI tracks. The 8-thread entry is always
/// recorded, so the artifact answers the determinism contract's
/// companion question (how much does N buy?) on any host; the speedup
/// is only meaningful on a multi-core runner.
///
/// With `--baseline FILE` the run doubles as the regression gate: it
/// fails when the best `events_per_sec` (falling back to
/// `jobs_per_sec` for pre-events baselines) drops more than 25% below
/// the committed baseline. `UPDATE_BENCH_BASELINE=1` rewrites the
/// baseline from this run instead of comparing.
fn bench_runner(opts: &Options) -> ExitCode {
    let host_threads = ebrc_runner::default_threads();
    let thread_counts = vec![1, host_threads.max(opts.threads).max(8)];
    let (unique_sims, subscribed_sims) = match try_global_plan(&all_experiments(), opts.scale) {
        Some(plan) => (plan.unique_len(), plan.subscribed_len()),
        None => {
            eprintln!("# bench-runner: plan construction panicked; aborting");
            return ExitCode::FAILURE;
        }
    };
    let cache = opts.cache();
    let mut entries = Vec::new();
    let mut walls = Vec::new();
    let mut totals = CacheCounters::default();
    let mut events_total = 0u64;
    let mut spec_timings: Vec<SpecTiming> = Vec::new();
    let mut best = BenchRates {
        jobs_per_sec: 0.0,
        events_per_sec: 0.0,
        speedup: 1.0,
        host_threads,
    };
    for &threads in &thread_counts {
        let pool = Pool::new(threads);
        let started = std::time::Instant::now();
        let experiments = all_experiments();
        let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
        let run = plan_run_catalogue_cached(
            refs,
            opts.scale,
            &pool,
            cache.as_ref().map(|c| c as &dyn OutputCache),
            opts.exec(),
            |_, _| {},
            |_| {},
        );
        let wall = started.elapsed().as_secs_f64();
        let failed = run.reports.iter().filter(|r| r.outcome.is_err()).count();
        if failed > 0 {
            eprintln!("# bench-runner: {failed} experiment(s) failed; aborting");
            return ExitCode::FAILURE;
        }
        let events_per_sec = run.events as f64 / wall;
        eprintln!(
            "# bench-runner: {threads} thread(s): {wall:.2} s wall, {:.1} sims/s, \
             {} engine events ({:.3e} events/s), {} cache hit(s)",
            unique_sims as f64 / wall,
            run.events,
            events_per_sec,
            run.cache.hits,
        );
        walls.push(wall);
        totals.absorb(run.cache);
        events_total = events_total.max(run.events);
        best.jobs_per_sec = best.jobs_per_sec.max(unique_sims as f64 / wall);
        best.events_per_sec = best.events_per_sec.max(events_per_sec);
        // Per-spec wall time from the single-thread pass: undiluted by
        // contention, so it ranks stragglers exactly.
        if threads == 1 {
            spec_timings = run.timings;
            spec_timings.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
        }
        entries.push(format!(
            "    {{ \"threads\": {threads}, \"wall_s\": {wall:.4}, \"jobs_per_sec\": {:.4}, \
             \"events_total\": {}, \"events_per_sec\": {:.1}, \
             \"cache_hits\": {}, \"cache_misses\": {} }}",
            unique_sims as f64 / wall,
            run.events,
            events_per_sec,
            run.cache.hits,
            run.cache.misses,
        ));
    }
    if walls.len() > 1 {
        best.speedup = walls[0] / walls[walls.len() - 1];
    }
    let timing_entries: Vec<String> = spec_timings
        .iter()
        .take(STRAGGLER_TABLE_LEN)
        .map(|t| {
            format!(
                "    {{ \"key\": {}, \"wall_s\": {:.4}, \"events\": {}, \"slices\": {} }}",
                serde_json::to_string(&Value::String(t.key.clone())).expect("string serializes"),
                t.wall_s,
                t.events,
                t.slices,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"repro all --scale {}\",\n  \"jobs\": {},\n  \"unique_sims\": {},\n  \"subscribed_sims\": {},\n  \"deduped_sims\": {},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"events_total\": {},\n  \"events_per_sec\": {:.1},\n  \"jobs_per_sec\": {:.4},\n  \"host_threads\": {},\n  \"slice_events\": {},\n  \"runs\": [\n{}\n  ],\n  \"spec_timings\": [\n{}\n  ],\n  \"speedup\": {:.4}\n}}\n",
        opts.scale_name,
        unique_sims,
        unique_sims,
        subscribed_sims,
        subscribed_sims - unique_sims,
        totals.hits,
        totals.misses,
        events_total,
        best.events_per_sec,
        best.jobs_per_sec,
        host_threads,
        match opts.slice_events {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        },
        entries.join(",\n"),
        timing_entries.join(",\n"),
        best.speedup
    );
    match &opts.bench_json {
        Some(path) => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("cannot create {}: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("# bench-runner: wrote {}", path.display());
            // The human-readable straggler table rides along as a
            // sibling artifact (CI uploads both).
            let table_path = path.with_extension("stragglers.txt");
            match std::fs::write(&table_path, straggler_table(&spec_timings, opts.scale_name)) {
                Ok(()) => eprintln!("# bench-runner: wrote {}", table_path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", table_path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        None => print!("{json}"),
    }
    match &opts.baseline {
        Some(path) => bench_gate(best, &json, path),
        None => ExitCode::SUCCESS,
    }
}

/// How many stragglers the bench artifact's timing table keeps.
const STRAGGLER_TABLE_LEN: usize = 10;

/// Renders the top stragglers of a single-thread pass as a plain-text
/// table — the at-a-glance answer to "which sims bound the sweep?".
fn straggler_table(timings: &[SpecTiming], scale_name: &str) -> String {
    let mut out = format!(
        "# top {} stragglers by single-thread wall time (scale {scale_name})\n\
         # rank  wall_s    events      slices  key\n",
        timings.len().min(STRAGGLER_TABLE_LEN),
    );
    for (rank, t) in timings.iter().take(STRAGGLER_TABLE_LEN).enumerate() {
        out.push_str(&format!(
            "{:>6}  {:<8.4}  {:<10}  {:<6}  {}\n",
            rank + 1,
            t.wall_s,
            t.events,
            t.slices,
            t.key,
        ));
    }
    out
}

/// The best throughput rates a bench-runner invocation measured, plus
/// the 1-thread vs many-thread speedup and the host parallelism that
/// contextualizes it.
#[derive(Clone, Copy)]
struct BenchRates {
    jobs_per_sec: f64,
    events_per_sec: f64,
    speedup: f64,
    host_threads: usize,
}

/// How far below the committed baseline the measured throughput may
/// fall before the gate fails — generous, because CI runners vary.
const BENCH_GATE_TOLERANCE: f64 = 0.25;

/// The parallel-speedup floor at quick scale: the many-thread pass must
/// beat the single-thread pass by at least this factor. Quick-scale
/// sims are short (scheduling overhead is a visible fraction), so the
/// floor is modest; at paper scale the same machinery targets ≥3× on
/// an 8-way host. The floor only arms on hosts with at least
/// [`SPEEDUP_GATE_MIN_HOST_THREADS`] hardware threads — a 1-core
/// container cannot parallelize CPU-bound sims no matter how well the
/// scheduler does, and gating on it would only measure the hardware.
const SPEEDUP_FLOOR: f64 = 1.5;

/// Hardware threads below which the speedup floor stays disarmed.
const SPEEDUP_GATE_MIN_HOST_THREADS: usize = 4;

/// Coarse parallelism class of a host. Absolute throughput baselines
/// only compare meaningfully within a class: a number recorded on a
/// 32-way machine says nothing about a 2-core CI container, and the
/// gate's tolerance is sized for run-to-run noise, not hardware drift.
fn host_threads_class(threads: usize) -> &'static str {
    if threads < SPEEDUP_GATE_MIN_HOST_THREADS {
        "serial"
    } else if threads < 16 {
        "small-parallel"
    } else {
        "wide-parallel"
    }
}

/// The perf regression gate: compares this run's best `events_per_sec`
/// (or `jobs_per_sec`, for baselines predating event accounting)
/// against the committed baseline file, within
/// [`BENCH_GATE_TOLERANCE`]. `UPDATE_BENCH_BASELINE=1` rewrites the
/// baseline from this run's artifact instead.
fn bench_gate(measured: BenchRates, artifact_json: &str, baseline_path: &Path) -> ExitCode {
    // Value-sensitive: rewriting the committed baseline silently skips
    // the gate, so `UPDATE_BENCH_BASELINE=0` (or empty) must not count
    // as opting in.
    let update = std::env::var("UPDATE_BENCH_BASELINE")
        .map(|v| !matches!(v.trim(), "" | "0"))
        .unwrap_or(false);
    if update {
        if let Err(e) = std::fs::write(baseline_path, artifact_json) {
            eprintln!("cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "# bench-gate: baseline refreshed at {}",
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "cannot read baseline {}: {e} (set UPDATE_BENCH_BASELINE=1 to create it)",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    // Cross-class comparisons stay a warning, not a failure: the gate
    // still catches order-of-magnitude regressions, and failing CI on
    // a hardware change would just train people to refresh blindly.
    if let Some(recorded) = baseline.get("host_threads").and_then(Value::as_f64) {
        let recorded = recorded as usize;
        if host_threads_class(recorded) != host_threads_class(measured.host_threads) {
            eprintln!(
                "# bench-gate: WARNING — baseline recorded on a {}-thread host ({}), \
                 measuring on {} thread(s) ({}); absolute throughput is cross-class, \
                 refresh with UPDATE_BENCH_BASELINE=1 on a representative host",
                recorded,
                host_threads_class(recorded),
                measured.host_threads,
                host_threads_class(measured.host_threads),
            );
        }
    }
    let (metric, want, got) = match baseline.get("events_per_sec").and_then(Value::as_f64) {
        Some(want) => ("events_per_sec", want, measured.events_per_sec),
        None => match baseline.get("jobs_per_sec").and_then(Value::as_f64) {
            Some(want) => ("jobs_per_sec", want, measured.jobs_per_sec),
            None => {
                eprintln!(
                    "{}: no events_per_sec or jobs_per_sec field",
                    baseline_path.display()
                );
                return ExitCode::FAILURE;
            }
        },
    };
    let floor = want * (1.0 - BENCH_GATE_TOLERANCE);
    if got < floor {
        eprintln!(
            "# bench-gate: FAIL — {metric} {got:.1} is more than {:.0}% below baseline {want:.1} \
             (floor {floor:.1}); refresh with UPDATE_BENCH_BASELINE=1 only for deliberate changes",
            BENCH_GATE_TOLERANCE * 100.0,
        );
        return ExitCode::FAILURE;
    }
    eprintln!("# bench-gate: ok — {metric} {got:.1} vs baseline {want:.1} (floor {floor:.1})");
    if measured.host_threads < SPEEDUP_GATE_MIN_HOST_THREADS {
        eprintln!(
            "# bench-gate: speedup floor disarmed — host has {} thread(s), \
             need >= {SPEEDUP_GATE_MIN_HOST_THREADS} for a meaningful parallel run",
            measured.host_threads,
        );
        return ExitCode::SUCCESS;
    }
    if measured.speedup < SPEEDUP_FLOOR {
        eprintln!(
            "# bench-gate: FAIL — parallel speedup {:.2}x is below the {SPEEDUP_FLOOR}x floor \
             on a {}-thread host (cost-model scheduling or slicing regressed)",
            measured.speedup, measured.host_threads,
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "# bench-gate: ok — parallel speedup {:.2}x (floor {SPEEDUP_FLOOR}x, {} host threads)",
        measured.speedup, measured.host_threads,
    );
    ExitCode::SUCCESS
}

/// Parses `I/K` for `--shard`.
fn parse_shard(raw: &str) -> Option<(usize, usize)> {
    let (i, k) = raw.split_once('/')?;
    let i = i.trim().parse::<usize>().ok()?;
    let k = k.trim().parse::<usize>().ok()?;
    (k > 0 && i < k).then_some((i, k))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let mut targets: Vec<String> = Vec::new();
    let mut command: Option<String> = None;
    let mut list = false;
    let mut opts = Options {
        scale: Scale::quick(),
        scale_name: "quick",
        json: false,
        out: None,
        threads: env_threads().unwrap_or_else(ebrc_runner::default_threads),
        progress: false,
        slice_events: env_slice_events(),
        trace: None,
        bench_json: None,
        baseline: None,
        shard: (0, 1),
        shards: 1,
        shard_dir: PathBuf::from("shards"),
        cache_dir: env_cache_dir(),
        keep_plan: Vec::new(),
        dry_run: false,
        workers: 2,
        timeout_s: 600,
        retries: 2,
        listen: String::from("127.0.0.1:7077"),
        connect: String::from("127.0.0.1:7077"),
        ping: false,
        server_stats: false,
        shutdown: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => list = true,
            "--json" => opts.json = true,
            "--progress" => opts.progress = true,
            "--scale" => {
                i += 1;
                // `tiny` is the undocumented test scale: the whole
                // catalogue in ~a second, for CI plumbing and tests.
                match args.get(i).and_then(|s| scale_by_name(s)) {
                    Some((scale, name)) => {
                        opts.scale = scale;
                        opts.scale_name = name;
                    }
                    None => return usage(),
                }
            }
            "--threads" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => opts.threads = n,
                    _ => return usage(),
                }
            }
            "--slice-events" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n > 0 => opts.slice_events = Some(n),
                    _ => return usage(),
                }
            }
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(p) if !p.is_empty() => opts.trace = Some(PathBuf::from(p)),
                    _ => return usage(),
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => {
                        let dir = PathBuf::from(dir);
                        // Create the directory (and any missing
                        // parents) up front so per-table writes cannot
                        // each fail on a missing path.
                        if let Err(e) = std::fs::create_dir_all(&dir) {
                            eprintln!("cannot create {}: {e}", dir.display());
                            return ExitCode::FAILURE;
                        }
                        opts.out = Some(dir);
                    }
                    None => return usage(),
                }
            }
            "--shard" => {
                i += 1;
                match args.get(i).and_then(|s| parse_shard(s)) {
                    Some(shard) => opts.shard = shard,
                    None => return usage(),
                }
            }
            "--shards" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(k) if k > 0 => opts.shards = k,
                    _ => return usage(),
                }
            }
            "--shard-dir" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => opts.shard_dir = PathBuf::from(dir),
                    None => return usage(),
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(dir) if !dir.is_empty() => opts.cache_dir = Some(PathBuf::from(dir)),
                    _ => return usage(),
                }
            }
            "--keep-plan" => {
                i += 1;
                match args.get(i) {
                    Some(id) if !id.starts_with('-') => opts.keep_plan.push(id.clone()),
                    _ => return usage(),
                }
            }
            "--dry-run" => opts.dry_run = true,
            "--ping" => opts.ping = true,
            "--server-stats" => opts.server_stats = true,
            "--shutdown" => opts.shutdown = true,
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(k) if k > 0 => opts.workers = k,
                    _ => return usage(),
                }
            }
            "--timeout-s" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n > 0 => opts.timeout_s = n,
                    _ => return usage(),
                }
            }
            "--retries" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u32>().ok()) {
                    Some(n) => opts.retries = n,
                    None => return usage(),
                }
            }
            "--listen" => {
                i += 1;
                match args.get(i) {
                    Some(addr) if !addr.is_empty() => opts.listen = addr.clone(),
                    _ => return usage(),
                }
            }
            "--connect" => {
                i += 1;
                match args.get(i) {
                    Some(addr) if !addr.is_empty() => opts.connect = addr.clone(),
                    _ => return usage(),
                }
            }
            "--bench-json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => opts.bench_json = Some(PathBuf::from(path)),
                    None => return usage(),
                }
            }
            "--baseline" => {
                i += 1;
                match args.get(i) {
                    Some(path) => opts.baseline = Some(PathBuf::from(path)),
                    None => return usage(),
                }
            }
            s if s.starts_with('-') => return usage(),
            // A subcommand keyword only counts as the *first*
            // positional — `repro fig03 list` must not silently turn
            // into a catalogue listing (the stray word becomes an
            // unknown-experiment error instead).
            s @ ("list" | "plan" | "run" | "merge" | "dispatch" | "serve" | "submit" | "cache"
            | "bench-runner")
                if command.is_none() && targets.is_empty() =>
            {
                command = Some(s.to_string());
            }
            s => targets.push(s.to_string()),
        }
        i += 1;
    }

    if list {
        return list_catalogue(&opts);
    }
    match command.as_deref() {
        Some("list") => list_catalogue(&opts),
        Some("plan") => print_plan(&targets, &opts),
        Some("run") => run_shard(&targets, &opts),
        Some("merge") => merge_shards(&targets, &opts),
        Some("dispatch") => dispatch_sweep(&targets, &opts),
        Some("serve") => serve_daemon(&opts),
        Some("submit") => submit_sweep(&targets, &opts),
        Some("cache") => cache_command(&targets, &opts),
        Some("bench-runner") => bench_runner(&opts),
        Some(_) => usage(),
        None => {
            if targets.is_empty() {
                return usage();
            }
            match select_experiments(&targets) {
                Ok(experiments) => {
                    if run_and_report(experiments, &opts) {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colliding_tables_are_reported_not_overwritten() {
        use ebrc_experiments::Table;
        let dir = std::env::temp_dir().join(format!("repro-spool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spooler = Spooler::new(&dir);
        let mut t1 = Table::new("fig/x", "first", vec!["a"]);
        t1.push_row(vec![1.0]);
        let mut t2 = Table::new("fig x", "second", vec!["a"]);
        t2.push_row(vec![2.0]);
        let report = ExperimentReport {
            id: "t",
            title: "t",
            paper_ref: "t",
            outcome: Ok(vec![t1, t2]),
        };
        spooler.spool(&report);
        assert_eq!(spooler.failures, 1, "second table collides");
        let kept = std::fs::read_to_string(dir.join("fig_x.json")).unwrap();
        assert!(kept.contains("first"), "first writer wins: {kept}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_flag_parses() {
        assert_eq!(parse_shard("0/2"), Some((0, 2)));
        assert_eq!(parse_shard("1/3"), Some((1, 3)));
        assert_eq!(parse_shard("2/2"), None);
        assert_eq!(parse_shard("0/0"), None);
        assert_eq!(parse_shard("x/2"), None);
    }
}
