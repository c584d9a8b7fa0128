//! The catalogue plugged into the sweep service.
//!
//! [`CatalogueBackend`] implements [`SweepBackend`] over the real
//! experiment catalogue: submissions resolve through the same
//! [`global_plan`](crate::global_plan) the CLI builds, execute on the
//! cost-model pool against the daemon's shared [`DirCache`], and
//! stream each experiment's tables back the moment it reduces.
//!
//! Two invariants matter here:
//!
//! - **Catalogue order.** The run core hands reports over in
//!   *completion* order; this backend buffers them and releases the
//!   longest finished prefix in catalogue order, so every client of
//!   one daemon — and `repro all` itself — sees the same table
//!   sequence, byte for byte.
//! - **Server-side rendering.** Tables cross the wire pre-rendered
//!   (both human and JSON forms). Clients print, never re-render, so
//!   a submission's output is bit-equal to a local run regardless of
//!   the client build.

use crate::registry::{
    plan_run_catalogue_cached, resolve, scale_by_name, CatalogueRun, Experiment, ExperimentReport,
    Scale,
};
use crate::series::table_file_name;
use ebrc_runner::{CancelToken, DirCache, ExecConfig, OutputCache, Pool};
use ebrc_serve::{Event, EventSink, PlanInfo, ReportChunk, RunSummary, SweepBackend, TableChunk};
use std::path::PathBuf;
use std::sync::Mutex;

/// The experiment catalogue as a sweep-service backend.
pub struct CatalogueBackend {
    /// Shared sim cache — the dedup substrate across submissions.
    /// `None` still works but repeat submissions re-execute.
    pub cache_dir: Option<PathBuf>,
    /// Pool width per sweep.
    pub threads: usize,
    /// Resumable-slice budget (see `--slice-events`).
    pub slice_events: Option<u64>,
}

impl CatalogueBackend {
    /// The configured cache, if any.
    pub fn cache(&self) -> Option<DirCache> {
        self.cache_dir.as_ref().map(DirCache::new)
    }

    /// The execution config every run path shares: sliced when a
    /// budget is set, monolithic otherwise. Output bytes are identical
    /// either way — slicing only bounds how long a cancel waits (one
    /// slice per worker).
    pub fn exec(&self) -> ExecConfig {
        ExecConfig {
            slice_events: self.slice_events,
            ..ExecConfig::default()
        }
    }
}

/// The scale a submission names.
fn named_scale(name: &str) -> Result<Scale, String> {
    scale_by_name(name)
        .map(|(scale, _)| scale)
        .ok_or_else(|| format!("unknown scale {name:?} (quick, paper, tiny)"))
}

/// The rendered form of a report: what the daemon streams and what
/// every `repro` mode prints and spools.
pub(crate) fn chunk_of(report: &ExperimentReport) -> ReportChunk {
    let (error, tables) = match &report.outcome {
        Ok(tables) => (
            None,
            tables
                .iter()
                .map(|t| TableChunk {
                    name: t.name.clone(),
                    file_name: table_file_name(&t.name),
                    render: t.render(),
                    json: t.to_json(),
                })
                .collect(),
        ),
        Err(failure) => (Some(failure.to_string()), vec![]),
    };
    ReportChunk {
        experiment: report.id.to_string(),
        title: report.title.to_string(),
        paper_ref: report.paper_ref.to_string(),
        error,
        tables,
    }
}

/// Buffers completion-order reports and releases the longest finished
/// prefix in catalogue order.
struct OrderedEmitter<'a> {
    sink: &'a dyn EventSink,
    slots: Vec<Option<ReportChunk>>,
    next: usize,
}

impl OrderedEmitter<'_> {
    fn land(&mut self, index: usize, chunk: ReportChunk) {
        self.slots[index] = Some(chunk);
        while self.next < self.slots.len() {
            let Some(chunk) = self.slots[self.next].take() else {
                break;
            };
            self.next += 1;
            self.sink.emit(Event::Report(chunk));
        }
    }
}

impl SweepBackend for CatalogueBackend {
    fn resolve(&self, targets: &[String], scale: &str) -> Result<PlanInfo, String> {
        let (_, plan) = resolve(targets, named_scale(scale)?)?;
        Ok(PlanInfo {
            fingerprint: format!("{:016x}", plan.fingerprint()),
            unique_sims: plan.unique_len(),
            subscribed_sims: plan.subscribed_len(),
        })
    }

    fn execute(
        &self,
        targets: &[String],
        scale_name: &str,
        cancel: &CancelToken,
        sink: &dyn EventSink,
    ) -> Result<RunSummary, String> {
        let scale = named_scale(scale_name)?;
        let (experiments, _) = resolve(targets, scale)?;
        let index_of: std::collections::HashMap<&'static str, usize> = experiments
            .iter()
            .enumerate()
            .map(|(i, e)| (e.id(), i))
            .collect();
        let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();

        let pool = Pool::new(self.threads);
        let cache = self.cache();
        let exec = self.exec().with_cancel(cancel.clone());

        let emitter = Mutex::new(OrderedEmitter {
            sink,
            slots: (0..experiments.len()).map(|_| None).collect(),
            next: 0,
        });
        let run: CatalogueRun = plan_run_catalogue_cached(
            refs,
            scale,
            &pool,
            cache.as_ref().map(|c| c as &dyn OutputCache),
            exec,
            |done, total| {
                // The sink handles a dead peer itself (drops the emit
                // and trips `cancel`), so progress needs no plumbing.
                sink.emit(Event::Progress { done, total });
            },
            |report| {
                let index = index_of[report.id];
                let chunk = chunk_of(report);
                emitter
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .land(index, chunk);
            },
        );

        // Plan-phase failures never pass through the streaming sink;
        // fold them in from the catalogue-order reports so the client
        // always receives exactly one chunk per experiment.
        {
            let mut emitter = emitter.lock().unwrap_or_else(|p| p.into_inner());
            for (index, report) in run.reports.iter().enumerate() {
                if index >= emitter.next && emitter.slots[index].is_none() {
                    let chunk = chunk_of(report);
                    emitter.land(index, chunk);
                }
            }
        }

        Ok(RunSummary {
            executed: run.cache.misses,
            cache_hits: run.cache.hits,
            events: run.events,
            failed: run.reports.iter().filter(|r| r.outcome.is_err()).count(),
            wall_s: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Collect {
        events: Mutex<Vec<Event>>,
        progress: AtomicUsize,
    }

    impl EventSink for Collect {
        fn emit(&self, event: Event) -> bool {
            if matches!(event, Event::Progress { .. }) {
                self.progress.fetch_add(1, Ordering::Relaxed);
            } else {
                self.events.lock().unwrap().push(event);
            }
            true
        }
    }

    fn backend(cache_dir: Option<PathBuf>) -> CatalogueBackend {
        CatalogueBackend {
            cache_dir,
            threads: 2,
            slice_events: None,
        }
    }

    #[test]
    fn resolve_matches_the_cli_plan_fingerprint() {
        let b = backend(None);
        let targets = vec!["fig03".to_string(), "fig04".to_string()];
        let info = b.resolve(&targets, "tiny").unwrap();
        let (_, plan) = resolve(&targets, Scale::tiny()).unwrap();
        assert_eq!(info.fingerprint, format!("{:016x}", plan.fingerprint()));
        assert_eq!(info.unique_sims, plan.unique_len());
        assert!(b.resolve(&targets, "huge").is_err());
        assert!(b
            .resolve(&[String::from("not-an-experiment")], "tiny")
            .is_err());
    }

    #[test]
    fn execute_streams_chunks_in_catalogue_order_and_dedups_via_the_cache() {
        let dir = std::env::temp_dir().join(format!("ebrc-svc-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = backend(Some(dir.clone()));
        let targets = vec!["fig03".to_string(), "fig04".to_string()];
        let run = |b: &CatalogueBackend| {
            let sink = Collect {
                events: Mutex::new(Vec::new()),
                progress: AtomicUsize::new(0),
            };
            let summary = b
                .execute(&targets, "tiny", &CancelToken::new(), &sink)
                .unwrap();
            (summary, sink.events.into_inner().unwrap())
        };

        let (cold, cold_events) = run(&b);
        assert!(cold.executed > 0, "cold run executes sims");
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.failed, 0);
        let ids: Vec<&str> = cold_events
            .iter()
            .filter_map(|e| match e {
                Event::Report(c) => Some(c.experiment.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec!["fig03", "fig04"], "catalogue order");

        let (warm, warm_events) = run(&b);
        assert_eq!(warm.executed, 0, "warm run is a pure reduce pass");
        assert_eq!(warm.cache_hits, cold.executed + cold.cache_hits);
        // Byte-identical rendered tables at every cache temperature.
        let renders = |events: &[Event]| -> Vec<String> {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::Report(c) => Some(
                        c.tables
                            .iter()
                            .map(|t| t.render.clone())
                            .collect::<String>(),
                    ),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(renders(&cold_events), renders(&warm_events));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cancelled_execution_reports_failures_not_tables() {
        let b = backend(None);
        let cancel = CancelToken::new();
        cancel.cancel();
        let sink = Collect {
            events: Mutex::new(Vec::new()),
            progress: AtomicUsize::new(0),
        };
        let targets = vec!["fig03".to_string()];
        let summary = b.execute(&targets, "tiny", &cancel, &sink).unwrap();
        assert_eq!(summary.failed, 1, "cancelled sims fail the experiment");
        let events = sink.events.into_inner().unwrap();
        let Some(Event::Report(chunk)) = events.first() else {
            panic!("expected a report chunk: {events:?}");
        };
        assert!(chunk.error.as_deref().unwrap().contains("cancelled"));
    }
}
