//! `catalogue_cold` and `catalogue_sliced_populate`.

use super::{as_refs, reduce_and_render, Config, LayerValues, Pass, Workload};
use crate::gate::{render_reports, tables_digest};
use crate::probes::{self, timed};
use crate::spans::{Recorder, SelfTotals};
use ebrc_experiments::spec::ns2_config;
use ebrc_experiments::{
    global_plan, plan_run_catalogue_cached, CatalogueRun, Experiment, Scale, SimSpec, MASTER_SEED,
};
use ebrc_runner::{
    CacheableSpec, DirCache, ExecConfig, JobCtx, OutputCache, Pool, SliceStep, Spec,
};
use std::path::PathBuf;

/// Slice budget of `catalogue_sliced_populate` — the value CI's
/// bench-gate and the daemon run with.
const SLICE_EVENTS: u64 = 250_000;

/// The spec families the ledger splits `SimSpec::run` time by. A
/// family's span carries its metric's name.
const SPEC_FAMILIES: [&str; 6] = [
    "spec.run_s.dumbbell_red",
    "spec.run_s.dumbbell_droptail",
    "spec.run_s.manyflow",
    "spec.run_s.mc",
    "spec.run_s.audio",
    "spec.run_s.analytic",
];

/// The family (one of [`SPEC_FAMILIES`]) of the spec with this key.
fn family_of(key: &str) -> &'static str {
    let starts = |prefixes: &[&str]| prefixes.iter().any(|p| key.starts_with(p));
    if starts(&["dumbbell/"]) {
        if key.contains("/queue=red(") {
            SPEC_FAMILIES[0]
        } else {
            SPEC_FAMILIES[1]
        }
    } else if starts(&["manyflow/"]) {
        SPEC_FAMILIES[2]
    } else if starts(&["mc/", "mc-phase/", "claim4/"]) {
        SPEC_FAMILIES[3]
    } else if starts(&["audio/"]) {
        SPEC_FAMILIES[4]
    } else {
        SPEC_FAMILIES[5]
    }
}

/// The whole catalogue on the pool: monolithic without a cache
/// (`catalogue_cold`), or sliced into a fresh cache
/// (`catalogue_sliced_populate`).
pub(super) struct Catalogue {
    experiments: Vec<Box<dyn Experiment>>,
    scale: Scale,
    threads: usize,
    sliced: bool,
    cache_dir: PathBuf,
    unique_sims: usize,
    probe_ops: u64,
}

impl Catalogue {
    pub(super) fn new(cfg: &Config, experiments: Vec<Box<dyn Experiment>>, sliced: bool) -> Self {
        let scale = cfg.sizes.scale.0;
        let plan = global_plan(&as_refs(&experiments), scale);
        Self {
            scale,
            threads: cfg.threads,
            sliced,
            cache_dir: cfg.scratch.join(format!("cache-{}", cfg.workload)),
            unique_sims: plan.unique_len(),
            probe_ops: cfg.sizes.probe_ops,
            experiments,
        }
    }

    fn run(
        &self,
        threads: usize,
        cache: Option<&DirCache>,
        exec: ExecConfig,
    ) -> (CatalogueRun, f64) {
        let pool = Pool::new(threads);
        timed(|| {
            plan_run_catalogue_cached(
                as_refs(&self.experiments),
                self.scale,
                &pool,
                cache.map(|c| c as &dyn OutputCache),
                exec,
                |_, _| {},
                |_| {},
            )
        })
    }

    fn fresh_cache(&self) -> DirCache {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        DirCache::new(&self.cache_dir)
    }

    /// Turns a finished catalogue run into a pass, checking it.
    fn pass_of(&self, run: &CatalogueRun, wall_s: f64) -> Pass {
        let failed_reports = run.reports.iter().filter(|r| r.outcome.is_err()).count();
        let mut pass = Pass {
            wall_s,
            sims: run.cache.misses as u64,
            events: run.events,
            attempted: (self.unique_sims + run.reports.len() + 1) as u64,
            failed: failed_reports as u64,
            ..Pass::default()
        };
        let slices: u32 = run.timings.iter().map(|t| t.slices).sum();
        let straggler = run.timings.iter().map(|t| t.wall_s).fold(0.0, f64::max);
        pass.counts.insert("runner.slices", f64::from(slices));
        pass.counts.insert("runner.straggler_s", straggler);
        pass.counts.insert("cache.hits", run.cache.hits as f64);
        pass.counts.insert("cache.misses", run.cache.misses as f64);
        let verdict = render_reports(&run.reports).and_then(|tables| {
            pass.digest = tables_digest(tables);
            if run.cache.hits == 0 && run.cache.misses == self.unique_sims {
                Ok(())
            } else {
                Err(format!(
                    "expected {} executed sims and no cache hits, saw {:?}",
                    self.unique_sims, run.cache
                ))
            }
        });
        pass.checked(verdict)
    }

    /// The traced pass: the harness walks the same plan itself, one
    /// span per call into a layer. Returns (events, slices, digest).
    fn walk(&self, rec: &mut Recorder, cache: Option<&DirCache>) -> (u64, u64, u64) {
        rec.span("bench.pass", |rec| {
            let refs = as_refs(&self.experiments);
            let plan = rec.span("registry.plan_build", |_| global_plan(&refs, self.scale));
            let mut events = 0;
            let mut slices = 0;
            let mut outputs = Vec::with_capacity(plan.unique_len());
            for (spec, &hash) in plan.specs().iter().zip(plan.spec_hashes()) {
                let key = spec.key();
                let mut ctx = JobCtx::for_label(MASTER_SEED, key.clone());
                let out = rec.span(family_of(&key), |_| match cache {
                    None => spec.run(&mut ctx),
                    Some(_) => {
                        let mut step = spec.start_sliced(&mut ctx, SLICE_EVENTS);
                        loop {
                            slices += 1;
                            match step {
                                SliceStep::Done(out) => break out,
                                SliceStep::Pending(state) => {
                                    step = state.resume(&mut ctx, SLICE_EVENTS);
                                }
                            }
                        }
                    }
                });
                events += ctx.events_processed();
                if let Some(cache) = cache {
                    let payload = rec.span("spec.encode", |_| SimSpec::encode_output(&out));
                    rec.span("cache.put", |_| cache.store(hash, &key, &payload));
                }
                outputs.push(out);
            }
            let tables = reduce_and_render(
                rec,
                &self.experiments,
                self.scale,
                &plan,
                &outputs,
                |_, _, _| {},
            );
            (events, slices, tables_digest(tables))
        })
    }

    /// What only `catalogue_sliced_populate`'s traced run measures: the
    /// cache write path, and what slicing costs the runner and engine.
    fn sliced_layers(
        &self,
        v: &mut LayerValues,
        totals: &SelfTotals,
        cache: &DirCache,
        slices: u64,
        untraced: &Pass,
    ) -> Result<(), String> {
        v.insert("spec.encode_us", totals.secs_each("spec.encode") * 1e6);
        v.insert("cache.put_us", totals.secs_each("cache.put") * 1e6);
        for name in ["cache.bytes", "cache.hits", "cache.misses", "runner.slices"] {
            v.insert(name, untraced.counts[name]);
        }
        if slices as f64 != untraced.counts["runner.slices"] {
            return Err(format!(
                "the traced walk took {slices} slices, the pool run {}",
                untraced.counts["runner.slices"]
            ));
        }
        let _ = std::fs::remove_dir_all(cache.dir());
        // What slicing alone costs the runner: same plan, no cache.
        let (_, sliced_s) = self.run(self.threads, None, ExecConfig::sliced(SLICE_EVENTS));
        let (_, mono_s) = self.run(self.threads, None, ExecConfig::default());
        v.insert("runner.sliced_overhead_ratio", sliced_s / mono_s);
        // And what it costs the engine: one ns-2 dumbbell, chained
        // budgets against one run_until.
        let ns2 = ns2_config(16, 8, 0, None);
        let horizon = self.scale.sim_warmup + self.scale.sim_span;
        v.insert(
            "sim.budgeted_overhead_ratio",
            probes::budgeted_overhead_ratio(&ns2, horizon, SLICE_EVENTS),
        );
        Ok(())
    }

    /// What only `catalogue_cold`'s traced run measures: the ledger row
    /// — do the layers sum to the end-to-end figure? — and the runner's
    /// own probes.
    fn ledger_layers(
        &self,
        v: &mut LayerValues,
        [spec_s, reduce_s, render_s]: [f64; 3],
        untraced: &Pass,
        notes: &mut Vec<String>,
    ) -> Result<(), String> {
        let (serial, serial_s) = self.run(1, None, ExecConfig::default());
        if self.pass_of(&serial, serial_s).digest != untraced.digest {
            return Err("the 1-thread run rendered different tables".into());
        }
        let overhead_s = serial_s - spec_s - reduce_s - render_s;
        let gap = overhead_s / serial_s;
        v.insert("runner.overhead_s", overhead_s);
        v.insert("runner.ledger_gap_share", gap);
        v.insert("runner.parallel_speedup", serial_s / untraced.wall_s);
        v.insert(
            "runner.straggler_share",
            untraced.counts["runner.straggler_s"] / untraced.wall_s,
        );
        notes.push(format!(
            "ledger: spec.run_s {spec_s:.3} + reduce {reduce_s:.3} + render {render_s:.3} \
             + runner.overhead_s {overhead_s:.3} = 1-thread wall {serial_s:.3} s \
             (runner.ledger_gap_share {:.1} %)",
            gap * 1e2
        ));
        if gap.abs() > 0.10 {
            notes.push(format!(
                "WARNING: {:.1} % of the 1-thread wall is not explained by the layer rows — \
                 the next thing to find",
                gap * 1e2
            ));
        }
        v.insert(
            "runner.pool_task_us",
            probes::pool_task_us(self.threads, 10_000),
        );
        v.insert(
            "core.mc_event_ns",
            probes::mc_event_ns(self.probe_ops as usize),
        );
        let plan = global_plan(&as_refs(&self.experiments), self.scale);
        let ((), hash_s) = timed(|| {
            for spec in plan.specs() {
                std::hint::black_box(spec.hash());
            }
        });
        v.insert("spec.key_hash_us", hash_s * 1e6 / plan.unique_len() as f64);
        Ok(())
    }
}

impl Workload for Catalogue {
    fn pass(&mut self) -> Pass {
        if !self.sliced {
            let (run, wall_s) = self.run(self.threads, None, ExecConfig::default());
            return self.pass_of(&run, wall_s);
        }
        let cache = self.fresh_cache();
        let (run, wall_s) = self.run(self.threads, Some(&cache), ExecConfig::sliced(SLICE_EVENTS));
        let mut pass = self.pass_of(&run, wall_s);
        let entries = cache.entries();
        let stored = entries.iter().filter(|e| e.valid).count();
        let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
        pass.counts.insert("cache.bytes", bytes as f64);
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        let verdict = if stored == self.unique_sims {
            Ok(())
        } else {
            Err(format!(
                "{stored} valid cache entries for {} sims",
                self.unique_sims
            ))
        };
        pass.checked(verdict)
    }

    fn trace(
        &mut self,
        rec: &mut Recorder,
        untraced: &Pass,
        notes: &mut Vec<String>,
    ) -> Result<LayerValues, String> {
        let mut v = LayerValues::new();
        let cache = self.sliced.then(|| self.fresh_cache());
        let (events, slices, digest) = self.walk(rec, cache.as_ref());
        if digest != untraced.digest {
            return Err(format!(
                "the traced walk rendered {digest:016x}, the pool run {:016x}",
                untraced.digest
            ));
        }
        let totals = SelfTotals::of(rec.spans());
        let traced_s = rec.extent_ns() as f64 / 1e9;
        let mut spec_s = 0.0;
        for family in SPEC_FAMILIES {
            v.insert(family, totals.secs(family));
            spec_s += totals.secs(family);
        }
        let reduce_s = totals.secs("registry.reduce");
        let render_s = totals.secs("registry.render");
        v.insert("sim.events", events as f64);
        v.insert("sim.events_per_s", events as f64 / spec_s);
        v.insert(
            "registry.plan_build_ms",
            totals.secs("registry.plan_build") * 1e3,
        );
        v.insert("registry.reduce_ms", reduce_s * 1e3);
        v.insert("registry.render_ms", render_s * 1e3);
        v.insert("bench.trace_overhead_ratio", traced_s / untraced.wall_s);

        match cache {
            Some(cache) => self.sliced_layers(&mut v, &totals, &cache, slices, untraced)?,
            None => self.ledger_layers(&mut v, [spec_s, reduce_s, render_s], untraced, notes)?,
        }
        Ok(v)
    }
}
