//! Sharded sweeps: `repro run --shard` and `repro merge`.
//!
//! A shard is a cache directory. `run --shard i/k` executes its slice
//! of the plan into the [`DirCache`] named by `--cache-dir`; hosts
//! combine by copying entry files into one directory (names are
//! content hashes, so a union never conflicts); `merge` loads every
//! unique spec from that directory and reduces, executing nothing.
//! Each entry carries its format version, its full spec key and a
//! payload checksum, so what crosses hosts is checked by the cache's
//! own reader, and then by the payload decoder.

use super::sweep::{report_cache, trace_config};
use super::{CliError, NamedScale, Reporter};
use crate::registry::{reduce_subscription, resolve, MASTER_SEED};
use crate::service::{chunk_of, CatalogueBackend};
use crate::spec::SimSpec;
use ebrc_runner::{run_plan, CacheableSpec, DirCache, OutputCache, Pool, Spec as _, SpecResult};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

/// The cache directory a shard writes into or a merge reads from.
fn shard_cache(dir: Option<&Path>) -> Result<DirCache, CliError> {
    let dir = dir.ok_or("a shard is a cache directory: pass --cache-dir DIR (or EBRC_CACHE)")?;
    Ok(DirCache::new(dir))
}

/// `repro run --shard i/k`: execute one deterministic shard of the
/// plan into the cache directory, for a later `repro merge`.
pub fn run_shard(
    targets: &[String],
    (scale, scale_name): NamedScale,
    backend: &CatalogueBackend,
    trace: Option<&Path>,
    progress: bool,
    (shard, of): (usize, usize),
) -> Result<(), CliError> {
    let cache = shard_cache(backend.cache_dir.as_deref())?;
    let (_, plan) = resolve(targets, scale)?;
    let indices = plan.shard_indices(shard, of);
    let pool = Pool::new(backend.threads);
    eprintln!(
        "# shard {shard}/{of}: {} of {} unique sims, {} thread(s), scale {}",
        indices.len(),
        plan.unique_len(),
        pool.threads(),
        scale_name,
    );
    let started = std::time::Instant::now();
    let mut exec = backend.exec();
    let engine_sims = indices.iter().filter(|&&i| plan.specs()[i].runs_engine());
    exec.trace = trace_config(trace, engine_sims.count())?;
    let (results, stats) = run_plan(
        &pool,
        MASTER_SEED,
        &plan,
        Some(&indices),
        Some(&cache),
        exec,
        |done, total| {
            if progress {
                eprint!("\r# progress {done}/{total} sims (shard {shard}/{of})");
                let _ = std::io::stderr().flush();
            }
        },
        |_| {},
    );
    if progress {
        eprintln!();
    }
    report_cache(stats.cache, cache.dir());
    // A failed sim is never cached, so a merge of this shard reports
    // it missing.
    let failures: Vec<(usize, &String)> = indices
        .iter()
        .filter_map(|&i| Some((i, results[i].as_ref()?.as_ref().err()?)))
        .collect();
    eprintln!(
        "# shard {shard}/{of}: {} sims ({} failed, {} engine events) in {:.1?}",
        indices.len(),
        failures.len(),
        stats.events,
        started.elapsed(),
    );
    match failures.first() {
        None => Ok(()),
        Some(&(i, msg)) => Err(format!(
            "shard {shard}/{of}: {} sim(s) failed (first: {}: {msg})",
            failures.len(),
            plan.specs()[i].key(),
        )
        .into()),
    }
}

/// `repro merge`: load every unique spec of the rebuilt plan from the
/// cache directory and reduce — byte-identical to a single-host run. A
/// missing or undecodable entry fails the merge before any table is
/// written.
pub fn merge(
    targets: &[String],
    (scale, scale_name): NamedScale,
    cache_dir: Option<&Path>,
    mut reporter: Reporter,
) -> Result<(), CliError> {
    let cache = shard_cache(cache_dir)?;
    let (experiments, plan) = resolve(targets, scale)?;
    let dir = cache.dir().display();
    let mut results: Vec<SpecResult<SimSpec>> = Vec::with_capacity(plan.unique_len());
    let mut missing = Vec::new();
    for (spec, &hash) in plan.specs().iter().zip(plan.spec_hashes()) {
        let key = spec.key();
        match cache.load(hash, &key) {
            Some(payload) => {
                let output = SimSpec::decode_output(&payload)
                    .map_err(|e| format!("{dir}: entry {key:?} does not decode: {e}"))?;
                results.push(Ok(Arc::new(output)));
            }
            None => missing.push(key),
        }
    }
    if let Some(first) = missing.first() {
        return Err(format!(
            "incomplete: {} of {} sims not in {dir} (first missing: {first})",
            missing.len(),
            plan.unique_len(),
        )
        .into());
    }
    eprintln!(
        "# merge: {} unique sims from {dir}, {} experiment(s), scale {}",
        plan.unique_len(),
        experiments.len(),
        scale_name,
    );
    let chunks: Vec<_> = experiments
        .iter()
        .enumerate()
        .map(|(i, exp)| {
            let outcome = plan.gather(i, |idx| &results[idx]).outcome;
            chunk_of(&reduce_subscription(exp.as_ref(), scale, &outcome))
        })
        .collect();
    for chunk in &chunks {
        reporter.spool(chunk);
    }
    for chunk in &chunks {
        reporter.print(chunk);
    }
    reporter.finish(|ok, failed| {
        format!(
            "{ok} ok, {failed} failed, {} sims merged from {dir}",
            plan.unique_len()
        )
    })
}
