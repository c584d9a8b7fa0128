//! `service_warm`.

use super::{as_refs, reduce_and_render, spawn_self, Config, LayerValues, Pass, Workload};
use crate::gate::{render_reports, tables_digest, Rendered};
use crate::probes::timed;
use crate::spans::{Recorder, SelfTotals};
use crate::stats::median;
use ebrc_experiments::{
    all_experiments, global_plan, plan_run_catalogue_cached, CatalogueBackend, Experiment, Scale,
    SimSpec,
};
use ebrc_runner::{CacheableSpec, CancelToken, DirCache, ExecConfig, OutputCache, Pool, Spec};
use ebrc_serve::{
    client, read_frame, serve, write_frame, Event, EventSink, ListenAddr, ReportChunk, Request,
    Submission, SweepBackend,
};
use std::path::{Path, PathBuf};

/// An in-process daemon on a Unix socket over a fully populated cache,
/// and one client submitting the catalogue back to back.
pub(super) struct Service {
    experiments: Vec<Box<dyn Experiment>>,
    scale: (Scale, &'static str),
    threads: usize,
    cache_dir: PathBuf,
    addr: ListenAddr,
    daemon: std::thread::JoinHandle<std::io::Result<()>>,
    targets: Vec<String>,
    submits: usize,
    unique_sims: usize,
    /// Digest of the tables the populating run rendered.
    reference: u64,
}

/// Swallows a submission's events.
struct Discard;

impl EventSink for Discard {
    fn emit(&self, _event: Event) -> bool {
        true
    }
}

fn backend(cache_dir: &Path, threads: usize) -> CatalogueBackend {
    CatalogueBackend {
        cache_dir: Some(cache_dir.to_path_buf()),
        threads,
        slice_events: None,
    }
}

fn rendered_chunk(chunk: &ReportChunk) -> impl Iterator<Item = Rendered> + '_ {
    chunk.tables.iter().map(|t| Rendered {
        file: t.file_name.clone(),
        text: t.render.clone(),
        json: t.json.clone(),
    })
}

/// Bytes of `event` on the wire: length prefix plus JSON.
fn wire_bytes(event: &Event) -> usize {
    4 + serde_json::to_string(&event.to_value())
        .expect("events are serializable")
        .len()
}

/// Fills the cache at `cache_dir` with the whole catalogue, in catalogue
/// order, and returns the digest of the tables that run rendered.
pub fn populate(cache_dir: &Path, threads: usize, scale: Scale) -> Result<u64, String> {
    let populate = plan_run_catalogue_cached(
        as_refs(&all_experiments()),
        scale,
        &Pool::new(threads),
        Some(&DirCache::new(cache_dir)),
        ExecConfig::default(),
        |_, _| {},
        |_| {},
    );
    render_reports(&populate.reports).map(tables_digest)
}

impl Service {
    pub(super) fn start(
        cfg: &Config,
        experiments: Vec<Box<dyn Experiment>>,
    ) -> Result<Self, String> {
        let scale = cfg.sizes.scale;
        let cache_dir = cfg.scratch.join("cache-service_warm");
        let _ = std::fs::remove_dir_all(&cache_dir);
        // Populated in catalogue order, by a process of its own (this
        // binary's `populate` command): 162 sims on the pool would
        // otherwise be what the daemon's `peak_rss_mb` shows. Submissions
        // arrive rotated.
        let printed = spawn_self(cfg, &["populate", &cache_dir.to_string_lossy(), scale.1])?;
        let reference = u64::from_str_radix(printed.trim(), 16)
            .map_err(|e| format!("populate printed {printed:?}: {e}"))?;
        let unique_sims = global_plan(&as_refs(&experiments), scale.0).unique_len();

        // Relative to the working directory (the scratch directory):
        // a Unix socket path holds about a hundred bytes.
        let addr = ListenAddr::Unix(PathBuf::from("service_warm.sock"));
        let backend = backend(&cache_dir, cfg.threads);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let listen = addr.clone();
        let daemon = std::thread::spawn(move || {
            serve(&listen, &backend, |_| {
                let _ = ready_tx.send(());
            })
        });
        if ready_rx.recv().is_err() {
            let died = daemon.join().expect("daemon thread panicked");
            return Err(format!("daemon did not start: {died:?}"));
        }
        let service = Self {
            targets: experiments.iter().map(|e| e.id().to_string()).collect(),
            experiments,
            scale,
            threads: cfg.threads,
            cache_dir,
            addr,
            daemon,
            submits: cfg.sizes.submits,
            unique_sims,
            reference,
        };
        for _ in 0..5 {
            service.submit().1?;
        }
        Ok(service)
    }

    fn submission(&self) -> Submission {
        Submission {
            targets: self.targets.clone(),
            scale: self.scale.1.to_string(),
            fingerprint: None,
        }
    }

    /// One submission: its latency in seconds, and whether the answer
    /// was the reference tables served entirely from the cache.
    fn submit(&self) -> (f64, Result<(), String>) {
        let mut tables = Vec::new();
        let mut errors = Vec::new();
        let (terminal, secs) = timed(|| {
            client::submit(&self.addr, self.submission(), |event| {
                if let Event::Report(chunk) = event {
                    tables.extend(rendered_chunk(chunk));
                    errors.extend(chunk.error.clone());
                }
            })
        });
        let verdict = match terminal {
            Ok(Event::Done(summary)) => {
                let digest = tables_digest(tables);
                if !errors.is_empty() || summary.failed != 0 {
                    Err(format!("experiments failed: {errors:?}"))
                } else if summary.executed != 0 || summary.cache_hits != self.unique_sims {
                    Err(format!("not served from the cache: {summary:?}"))
                } else if digest != self.reference {
                    Err(format!(
                        "served {digest:016x}, populated {:016x}",
                        self.reference
                    ))
                } else {
                    Ok(())
                }
            }
            Ok(other) => Err(format!("submission ended with {other:?}")),
            Err(e) => Err(format!("submission failed: {e}")),
        };
        (secs, verdict)
    }

    /// One submission's work called directly, a span per step: what the
    /// daemon and client do between them, without the socket.
    fn walk(&self, rec: &mut Recorder, cache: &DirCache) -> Result<u64, String> {
        rec.span("bench.submit", |rec| {
            let refs = as_refs(&self.experiments);
            let plan = rec.span("registry.plan_build", |_| global_plan(&refs, self.scale.0));
            let mut outputs = Vec::with_capacity(plan.unique_len());
            for (spec, &hash) in plan.specs().iter().zip(plan.spec_hashes()) {
                let key = spec.key();
                let payload = rec
                    .span("cache.get", |_| cache.load(hash, &key))
                    .ok_or_else(|| format!("cache miss on {key}"))?;
                outputs.push(rec.span("spec.decode", |_| SimSpec::decode_output(&payload))?);
            }
            let mut wire = Ok(());
            let tables = reduce_and_render(
                rec,
                &self.experiments,
                self.scale.0,
                &plan,
                &outputs,
                |rec, exp, rendered| {
                    let event = Event::Report(ReportChunk {
                        experiment: exp.id().to_string(),
                        title: exp.title().to_string(),
                        paper_ref: exp.paper_ref().to_string(),
                        error: None,
                        tables: rendered
                            .iter()
                            .map(|t| ebrc_serve::TableChunk {
                                name: t.file.clone(),
                                file_name: t.file.clone(),
                                render: t.text.clone(),
                                json: t.json.clone(),
                            })
                            .collect(),
                    });
                    let text = rec.span("serve.proto_encode", |_| {
                        serde_json::to_string(&event.to_value()).expect("events are serializable")
                    });
                    let framed = rec.span("serve.frame", |_| {
                        let mut buf = Vec::with_capacity(text.len() + 4);
                        write_frame(&mut buf, text.as_bytes())
                            .and_then(|()| read_frame(&mut buf.as_slice()))
                    });
                    let back = rec.span("serve.proto_decode", |_| {
                        serde_json::from_str(&text)
                            .map_err(|e| e.to_string())
                            .and_then(|value| Event::from_value(&value))
                    });
                    if !matches!(framed, Ok(Some(_))) || back != Ok(event) {
                        wire = Err(format!("{} did not survive the wire", exp.id()));
                    }
                },
            );
            wire.map(|()| tables_digest(tables))
        })
    }
}

impl Workload for Service {
    fn pass(&mut self) -> Pass {
        let mut pass = Pass {
            attempted: self.submits as u64,
            digest: self.reference,
            ..Pass::default()
        };
        for _ in 0..self.submits {
            let (secs, verdict) = self.submit();
            pass.wall_s += secs;
            pass.latencies_ms.push(secs * 1e3);
            if let Err(e) = verdict {
                pass.failed += 1;
                pass.errors.push(e);
            }
        }
        pass.counts.insert("cache.hits", self.unique_sims as f64);
        pass.counts.insert("cache.misses", 0.0);
        pass
    }

    fn trace(
        &mut self,
        rec: &mut Recorder,
        untraced: &Pass,
        _notes: &mut Vec<String>,
    ) -> Result<LayerValues, String> {
        let cache = DirCache::new(&self.cache_dir);
        let walks = (self.submits / 4).max(3);
        for _ in 0..walks {
            let digest = self.walk(rec, &cache)?;
            if digest != self.reference {
                return Err(format!("the traced walk rendered {digest:016x}"));
            }
        }
        let totals = SelfTotals::of(rec.spans());
        let per_submit = |name: &str| totals.secs(name) / walks as f64;
        let mut v = LayerValues::new();
        v.insert(
            "registry.plan_build_ms",
            per_submit("registry.plan_build") * 1e3,
        );
        v.insert("registry.reduce_ms", per_submit("registry.reduce") * 1e3);
        v.insert("registry.render_ms", per_submit("registry.render") * 1e3);
        v.insert("cache.get_us", totals.secs_each("cache.get") * 1e6);
        v.insert("spec.decode_us", totals.secs_each("spec.decode") * 1e6);
        v.insert(
            "serve.proto_encode_us",
            per_submit("serve.proto_encode") * 1e6,
        );
        v.insert(
            "serve.proto_decode_us",
            per_submit("serve.proto_decode") * 1e6,
        );
        v.insert(
            "bench.trace_overhead_ratio",
            rec.extent_ns() as f64 / 1e9 / walks as f64 / median(&untraced.latencies_ms) * 1e3,
        );
        v.insert("cache.hits", untraced.counts["cache.hits"]);
        v.insert("cache.misses", untraced.counts["cache.misses"]);
        let bytes: u64 = cache.entries().iter().map(|e| e.bytes).sum();
        v.insert("cache.bytes", bytes as f64);

        // Connect + framing: the round trip with nothing to execute.
        let pings: Vec<f64> = (0..self.submits)
            .map(|_| timed(|| client::request_one(&self.addr, &Request::Ping)))
            .map(|(pong, secs)| match pong {
                Ok(Event::Pong) => Ok(secs * 1e6),
                other => Err(format!("ping answered {other:?}")),
            })
            .collect::<Result<_, _>>()?;
        v.insert("serve.ping_rt_us", median(&pings));

        let payload = vec![b'x'; 64 * 1024];
        let frames: Vec<f64> = (0..self.submits)
            .map(|_| {
                let mut buf = Vec::with_capacity(payload.len() + 4);
                let (back, secs) = timed(|| {
                    write_frame(&mut buf, &payload).and_then(|()| read_frame(&mut buf.as_slice()))
                });
                match back {
                    Ok(Some(bytes)) if bytes == payload => Ok(secs * 1e6),
                    _ => Err("a 64 KiB frame did not round-trip".to_string()),
                }
            })
            .collect::<Result<_, _>>()?;
        v.insert("serve.frame_rt_us", median(&frames));

        // The backend without the socket.
        let backend = backend(&self.cache_dir, self.threads);
        let mut execs = Vec::new();
        for _ in 0..walks {
            let (summary, secs) = timed(|| {
                backend.execute(&self.targets, self.scale.1, &CancelToken::new(), &Discard)
            });
            summary?;
            execs.push(secs * 1e3);
        }

        // What one submission puts on the wire, both ways (the Done
        // event's wall-clock field zeroed so the count repeats exactly).
        let request = Request::Submit(self.submission()).to_value();
        let mut wire = 4 + serde_json::to_string(&request)
            .expect("requests are serializable")
            .len();
        client::submit(&self.addr, self.submission(), |event| {
            wire += match event {
                Event::Done(summary) => wire_bytes(&Event::Done(ebrc_serve::RunSummary {
                    wall_s: 0.0,
                    ..*summary
                })),
                other => wire_bytes(other),
            };
        })
        .map_err(|e| format!("submission failed: {e}"))?;
        v.insert("serve.backend_exec_ms", median(&execs));
        v.insert("serve.bytes_per_submit", wire as f64);
        Ok(v)
    }

    fn teardown(self: Box<Self>) {
        // A daemon that did not take the Shutdown request would never
        // return: leave its thread to the process's exit.
        let this = *self;
        let stopped = client::request_one(&this.addr, &Request::Shutdown)
            .and_then(|_| this.daemon.join().expect("daemon thread panicked"));
        if let Err(e) = stopped {
            eprintln!("service_warm: daemon shutdown: {e}");
        }
        let _ = std::fs::remove_dir_all(&this.cache_dir);
    }
}
