//! `repro bench-runner`: the sweep-throughput artifact and its
//! regression gate.

use super::{ensure_dir, write_file, CliError, NamedScale};
use crate::registry::{plan_run_catalogue_cached, resolve, Experiment};
use crate::service::CatalogueBackend;
use ebrc_runner::{CacheCounters, OutputCache, Pool, SpecTiming};
use serde::Value;
use std::path::Path;

/// Times `repro all` at 1 thread and at 8-or-all-cores (whichever is
/// larger; `backend.threads` can raise it further), writing
/// wall-clock, sims/sec, engine events/sec, and the plan-level dedup
/// counters to a JSON artifact — the perf trajectory CI tracks — at
/// `bench_json`, or on stdout without one. The 8-thread entry is
/// always recorded, so the artifact answers the determinism contract's
/// companion question (how much does N buy?) on any host; the speedup
/// is only meaningful on a multi-core runner.
///
/// With `baseline` the run doubles as the regression gate: it fails
/// when the best `events_per_sec` (falling back to `jobs_per_sec` for
/// pre-events baselines) drops more than 25% below the committed
/// baseline. `UPDATE_BENCH_BASELINE=1` rewrites the baseline from this
/// run instead of comparing.
pub fn bench_runner(
    (scale, scale_name): NamedScale,
    backend: &CatalogueBackend,
    bench_json: Option<&Path>,
    baseline: Option<&Path>,
) -> Result<(), CliError> {
    let host_threads = ebrc_runner::default_threads();
    let thread_counts = [1, host_threads.max(backend.threads).max(8)];
    let (experiments, plan) = resolve(&[], scale)?;
    let (unique_sims, subscribed_sims) = (plan.unique_len(), plan.subscribed_len());
    let cache = backend.cache();
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
        let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
        let run = plan_run_catalogue_cached(
            refs,
            scale,
            &pool,
            cache.as_ref().map(|c| c as &dyn OutputCache),
            backend.exec(),
            |_, _| {},
            |_| {},
        );
        let wall = started.elapsed().as_secs_f64();
        let failed = run.reports.iter().filter(|r| r.outcome.is_err()).count();
        if failed > 0 {
            return Err(format!("# bench-runner: {failed} experiment(s) failed; aborting").into());
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
    best.speedup = walls[0] / walls[1];
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
        scale_name,
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
        match backend.slice_events {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        },
        entries.join(",\n"),
        timing_entries.join(",\n"),
        best.speedup
    );
    match bench_json {
        Some(path) => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                ensure_dir(parent)?;
            }
            write_file(path, &json)?;
            eprintln!("# bench-runner: wrote {}", path.display());
            // The human-readable straggler table rides along as a
            // sibling artifact (CI uploads both).
            let table_path = path.with_extension("stragglers.txt");
            write_file(&table_path, &straggler_table(&spec_timings, scale_name))?;
            eprintln!("# bench-runner: wrote {}", table_path.display());
        }
        None => print!("{json}"),
    }
    if let Some(path) = baseline {
        bench_gate(best, &json, path)?;
    }
    Ok(())
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
fn bench_gate(
    measured: BenchRates,
    artifact_json: &str,
    baseline_path: &Path,
) -> Result<(), String> {
    // Value-sensitive: rewriting the committed baseline silently skips
    // the gate, so `UPDATE_BENCH_BASELINE=0` (or empty) must not count
    // as opting in.
    let update = std::env::var("UPDATE_BENCH_BASELINE")
        .map(|v| !matches!(v.trim(), "" | "0"))
        .unwrap_or(false);
    if update {
        write_file(baseline_path, artifact_json)?;
        eprintln!(
            "# bench-gate: baseline refreshed at {}",
            baseline_path.display()
        );
        return Ok(());
    }
    let text = std::fs::read_to_string(baseline_path).map_err(|e| {
        format!(
            "cannot read baseline {}: {e} (set UPDATE_BENCH_BASELINE=1 to create it)",
            baseline_path.display()
        )
    })?;
    let baseline =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?;
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
    let rate = |field: &str| baseline.get(field).and_then(Value::as_f64);
    let (metric, want, got) = match (rate("events_per_sec"), rate("jobs_per_sec")) {
        (Some(want), _) => ("events_per_sec", want, measured.events_per_sec),
        (None, Some(want)) => ("jobs_per_sec", want, measured.jobs_per_sec),
        (None, None) => {
            return Err(format!(
                "{}: no events_per_sec or jobs_per_sec field",
                baseline_path.display()
            ))
        }
    };
    let floor = want * (1.0 - BENCH_GATE_TOLERANCE);
    if got < floor {
        return Err(format!(
            "# bench-gate: FAIL — {metric} {got:.1} is more than {:.0}% below baseline {want:.1} \
             (floor {floor:.1}); refresh with UPDATE_BENCH_BASELINE=1 only for deliberate changes",
            BENCH_GATE_TOLERANCE * 100.0,
        ));
    }
    eprintln!("# bench-gate: ok — {metric} {got:.1} vs baseline {want:.1} (floor {floor:.1})");
    if measured.host_threads < SPEEDUP_GATE_MIN_HOST_THREADS {
        eprintln!(
            "# bench-gate: speedup floor disarmed — host has {} thread(s), \
             need >= {SPEEDUP_GATE_MIN_HOST_THREADS} for a meaningful parallel run",
            measured.host_threads,
        );
        return Ok(());
    }
    if measured.speedup < SPEEDUP_FLOOR {
        return Err(format!(
            "# bench-gate: FAIL — parallel speedup {:.2}x is below the {SPEEDUP_FLOOR}x floor \
             on a {}-thread host (cost-model scheduling or slicing regressed)",
            measured.speedup, measured.host_threads,
        ));
    }
    eprintln!(
        "# bench-gate: ok — parallel speedup {:.2}x (floor {SPEEDUP_FLOOR}x, {} host threads)",
        measured.speedup, measured.host_threads,
    );
    Ok(())
}
