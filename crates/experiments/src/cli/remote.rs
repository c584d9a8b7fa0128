//! The resident sweep daemon and its client: `repro serve`, `repro
//! submit`, and the one-shot control requests.

use super::{CliError, NamedScale, Reporter};
use crate::registry::resolve;
use crate::service::CatalogueBackend;
use ebrc_serve::{client, Event, ListenAddr, PlanInfo, Request, Submission};
use std::io::Write as _;

/// `repro serve`: the resident sweep daemon. Binds `listen` (TCP
/// `host:port` or `unix:PATH`), keeps `backend.cache_dir` warm across
/// submissions, and streams rendered tables to each client. Runs until
/// a client sends a shutdown request.
pub fn serve(listen: &str, backend: &CatalogueBackend) -> Result<(), CliError> {
    let addr = ListenAddr::parse(listen);
    ebrc_serve::serve(&addr, backend, |local| {
        eprintln!("# serve: listening on {local}");
        match &backend.cache_dir {
            Some(dir) => eprintln!("# serve: sharing cache {}", dir.display()),
            None => eprintln!("# serve: no --cache-dir; submissions will not dedup"),
        }
    })
    .map_err(|e| format!("serve failed on {addr}: {e}"))?;
    eprintln!("# serve: shut down");
    Ok(())
}

/// `repro submit --ping | --server-stats | --shutdown`: one request,
/// one answer.
pub fn control(connect: &str, request: &Request) -> Result<(), CliError> {
    let addr = ListenAddr::parse(connect);
    let answer =
        client::request_one(&addr, request).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    match answer {
        Event::Pong => println!("pong from {addr}"),
        Event::Stats(stats) => println!(
            "serve {addr}: {} submission(s), {} sims executed, {} cache hit(s), \
             {} engine events",
            stats.submissions, stats.sims_executed, stats.cache_hits, stats.events,
        ),
        Event::Bye => eprintln!("# serve at {addr} shutting down"),
        other => return Err(format!("unexpected answer from {addr}: {other:?}").into()),
    }
    Ok(())
}

/// `repro submit`: run a sweep on the daemon at `connect`. Computes
/// the plan fingerprint locally and sends it with the submission — the
/// daemon refuses on mismatch, so a version-skewed client can never
/// mislabel streamed tables. Stdout is byte-identical to running the
/// same sweep locally.
pub fn submit(
    targets: &[String],
    (scale, scale_name): NamedScale,
    connect: &str,
    progress: bool,
    mut reporter: Reporter,
) -> Result<(), CliError> {
    let addr = ListenAddr::parse(connect);
    let (_, plan) = resolve(targets, scale)?;
    let submission = Submission {
        targets: targets.to_vec(),
        scale: scale_name.to_string(),
        fingerprint: Some(format!("{:016x}", plan.fingerprint())),
    };
    // Whether a `\r` progress line is waiting for its newline.
    let mut progressed = false;
    let outcome = client::submit(&addr, submission, |event| match event {
        Event::Accepted(PlanInfo {
            fingerprint,
            unique_sims,
            subscribed_sims,
        }) => {
            eprintln!(
                "# submit: accepted at {addr} — plan {fingerprint}, {unique_sims} unique sims \
                 ({subscribed_sims} subscribed), scale {scale_name}",
            );
        }
        Event::Queued => eprintln!("# submit: queued behind another sweep"),
        Event::Running => eprintln!("# submit: running"),
        Event::Progress { done, total } => {
            if progress {
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
            reporter.print(chunk);
            reporter.spool(chunk);
        }
        Event::Done(_) | Event::Error { .. } => {}
        other => eprintln!("# submit: unexpected event {other:?}"),
    });
    if progressed {
        eprintln!();
    }
    match outcome.map_err(|e| format!("submit to {addr} failed: {e}"))? {
        Event::Done(summary) => {
            reporter.finish(|_, _| {
                format!(
                    "{} executed, {} cache hit(s), {} engine events, {} failed \
                     in {:.1}s on the server",
                    summary.executed,
                    summary.cache_hits,
                    summary.events,
                    summary.failed,
                    summary.wall_s,
                )
            })?;
            match summary.failed {
                0 => Ok(()),
                n => Err(format!("{n} experiment(s) failed on the server").into()),
            }
        }
        Event::Error { message } => Err(format!("submit refused: {message}").into()),
        other => Err(format!("unexpected terminal event: {other:?}").into()),
    }
}
