//! `run` and `check`: the whole ledger in one command.
//!
//! Each workload runs in a child process of its own (this binary
//! re-executed with `--workload NAME`), so `peak_rss_mb` and thread
//! counts are clean, first untraced for the end-to-end metrics and
//! then traced for the per-layer ones.

use crate::metrics::{
    workload, EndToEndDef, CATALOGUE_COLD, CATALOGUE_SLICED_POPULATE, END_TO_END, OPS_FAILED_SHARE,
    PER_LAYER, SERVICE_WARM, WORKLOADS,
};
use crate::stats::{within_bound, worsening};
use crate::{number, object, text, Args, OUT_DIR};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The counts that must repeat exactly between two runs of one commit.
const EXACT_COUNTS: [&str; 6] = [
    "sim.events",
    "runner.slices",
    "cache.hits",
    "cache.misses",
    "cache.bytes",
    "serve.bytes_per_submit",
];

/// What one child process reported.
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    detail: Value,
}

/// One workload's two children.
struct WorkloadResult {
    name: &'static str,
    untraced: Child,
    traced: Child,
}

impl WorkloadResult {
    fn ops_failed_share(&self) -> f64 {
        (self.untraced.failed + self.traced.failed)
            / (self.untraced.attempted + self.traced.attempted)
    }

    fn digest(&self) -> &str {
        self.untraced.detail["output_digest"].as_str().unwrap_or("")
    }
}

impl Child {
    /// A metric's cell in a report table: blank when the child did not
    /// report it (a traced child whose check failed reports none).
    fn cell(&self, name: &str) -> String {
        self.metrics
            .get(name)
            .map_or_else(String::new, |v| format!("{v:.4}"))
    }
}

/// Spawns this binary on one workload and parses what it prints.
fn spawn_child(args: &Args, workload: &str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--threads", &args.threads.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start a child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_child(&stdout).map_err(|e| format!("{workload} ({}): {e}", out.status))
}

/// Parses a child's stdout: a `detail {json}` line, then the result
/// line last.
fn parse_child(stdout: &str) -> Result<Child, String> {
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("the child printed nothing")?;
    let result = serde_json::from_str(result).map_err(|e| format!("result line: {e}"))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("the child printed no detail line")?;
    let detail = serde_json::from_str(detail).map_err(|e| format!("detail line: {e}"))?;
    let Some(Value::Object(entries)) = result.get("metrics") else {
        return Err("the result line has no metrics".into());
    };
    let metrics = entries
        .iter()
        .map(|(name, entry)| {
            let value = entry["value"].as_f64().ok_or(format!("{name}: no value"))?;
            Ok((name.clone(), value))
        })
        .collect::<Result<_, String>>()?;
    Ok(Child {
        correct: result["correct"] == true,
        attempted: result["attempted"].as_f64().ok_or("no attempted count")?,
        failed: result["failed"].as_f64().ok_or("no failed count")?,
        metrics,
        detail,
    })
}

/// Runs every workload, untraced then traced. A smoke run's numbers
/// compare with nothing, so its two children run side by side.
fn run_all(args: &Args) -> Result<Vec<WorkloadResult>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            eprintln!("== {} ==", w.name);
            let (untraced, traced) = if args.smoke {
                std::thread::scope(|s| {
                    let traced = s.spawn(|| spawn_child(args, w.name, true));
                    let untraced = spawn_child(args, w.name, false);
                    (
                        untraced,
                        traced.join().expect("child-waiting thread panicked"),
                    )
                })
            } else {
                let untraced = spawn_child(args, w.name, false);
                (untraced, spawn_child(args, w.name, true))
            };
            Ok(WorkloadResult {
                name: w.name,
                untraced: untraced?,
                traced: traced?,
            })
        })
        .collect()
}

/// The rendered-table digest must be the same however the catalogue
/// was executed: cold, sliced into a cache, or served from one.
fn cross_workload_digests(results: &[WorkloadResult]) -> Result<(), String> {
    let digests: Vec<(&str, &str)> = results
        .iter()
        .filter(|r| [CATALOGUE_COLD, CATALOGUE_SLICED_POPULATE, SERVICE_WARM].contains(&r.name))
        .map(|r| (r.name, r.digest()))
        .collect();
    match digests.iter().find(|(_, d)| *d != digests[0].1) {
        Some((name, digest)) => Err(format!(
            "{name} rendered {digest}, {} rendered {}",
            digests[0].0, digests[0].1
        )),
        None => Ok(()),
    }
}

fn print_report(args: &Args, results: &[WorkloadResult]) {
    if args.smoke {
        println!("SMOKE RUN: tiny sizes, one pass — these numbers compare with nothing.");
    }
    println!("\nend-to-end (median over passes; bound = how much worse before it is a regression)");
    println!(
        "{:<28} {:<16} {:>14} {:<6} {:>6}  better",
        "workload", "metric", "value", "unit", "bound"
    );
    for (r, w) in results.iter().zip(&WORKLOADS) {
        println!("{} — {}", w.name, w.why);
        if !w.gated {
            println!(
                "{:<28} reported, not gated: its bounds are not enforced",
                r.name
            );
        }
        for def in END_TO_END.iter().filter(|d| d.home.contains(&r.name)) {
            println!(
                "{:<28} {:<16} {:>14} {:<6} {:>5.0}%  {}",
                r.name,
                def.name,
                r.untraced.cell(def.name),
                def.unit,
                def.bound * 1e2,
                def.better.name()
            );
        }
        println!(
            "{:<28} {:<16} {:>14.4} {:<6} {:>5.0}%  lower",
            r.name,
            OPS_FAILED_SHARE,
            r.ops_failed_share(),
            "share",
            0.0
        );
        let d = &r.untraced.detail;
        let count = |key: &str| d[key].as_f64().unwrap_or(0.0);
        let latencies = if count("latency_samples") > 0.0 {
            format!(
                ", latency samples {}, p95 reported at quantile {}",
                count("latency_samples"),
                count("p95_quantile")
            )
        } else {
            String::new()
        };
        println!(
            "{:<28} passes {}{latencies}; output_digest {} sim.events {}",
            "",
            count("passes"),
            r.digest(),
            count("sim.events"),
        );
    }

    println!("\nper-layer (one traced pass per workload; a layer idle on a workload is blank)");
    print!("{:<30} {:<6} {:<7}", "metric", "unit", "better");
    for r in results {
        print!(" {:>14.14}", r.name);
    }
    println!();
    for def in &PER_LAYER {
        print!("{:<30} {:<6} {:<7}", def.name, def.unit, def.better.name());
        for r in results {
            if def.measured_on.contains(&r.name) {
                print!(" {:>14}", r.traced.cell(def.name));
            } else {
                print!(" {:>14}", "");
            }
        }
        println!();
    }
    println!();
    for r in results {
        for child in [&r.untraced, &r.traced] {
            for key in ["notes", "errors"] {
                if let Value::Array(lines) = &child.detail[key] {
                    for line in lines {
                        println!("{}: {}", r.name, line.as_str().unwrap_or("?"));
                    }
                }
            }
        }
    }
}

fn command_line(program: &str, args: &[&str], dir: &str) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Writes the whole result set, with the host it was measured on.
fn write_results(args: &Args, results: &[WorkloadResult]) -> Result<PathBuf, String> {
    let metrics = |child: &Child| {
        Value::Object(
            child
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), number(*v)))
                .collect(),
        )
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let passes = results
        .first()
        .and_then(|r| r.untraced.detail["passes"].as_f64())
        .unwrap_or(0.0);
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let workloads = results
        .iter()
        .map(|r| {
            let entry = object(vec![
                (
                    "correct",
                    Value::Bool(r.untraced.correct && r.traced.correct),
                ),
                (OPS_FAILED_SHARE, number(r.ops_failed_share())),
                ("end_to_end", metrics(&r.untraced)),
                ("per_layer", metrics(&r.traced)),
                ("untraced", r.untraced.detail.clone()),
                ("traced", r.traced.detail.clone()),
            ]);
            (r.name.to_string(), entry)
        })
        .collect();
    let doc = object(vec![
        ("nproc", number(nproc as f64)),
        ("threads", number(args.threads as f64)),
        ("rustc", text(command_line("rustc", &["-V"], manifest_dir))),
        (
            "commit",
            text(command_line("git", &["rev-parse", "HEAD"], manifest_dir)),
        ),
        ("passes", number(passes)),
        ("seed", number(f64::from(args.seed))),
        ("smoke", Value::Bool(args.smoke)),
        ("comparable", Value::Bool(!args.smoke)),
        ("workloads", Value::Object(workloads)),
    ]);
    let path = PathBuf::from(OUT_DIR).join(format!("result-seed{}.json", args.seed));
    let text = serde_json::to_string_pretty(&doc).expect("results are serializable");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Whether every child of a result set checked out.
fn verdict(results: &[WorkloadResult]) -> Result<(), String> {
    for r in results {
        if !(r.untraced.correct && r.traced.correct) {
            return Err(format!("{}: a correctness check failed", r.name));
        }
    }
    cross_workload_digests(results)
}

fn run_once(args: &Args) -> Result<(Vec<WorkloadResult>, Result<(), String>), String> {
    let results = run_all(args)?;
    print_report(args, &results);
    let path = write_results(args, &results)?;
    println!("results written to {}", path.display());
    let verdict = verdict(&results);
    Ok((results, verdict))
}

fn finish(outcome: Result<Result<(), String>, String>) -> ExitCode {
    match outcome {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) | Err(e) => {
            eprintln!("ebrc-benchmark: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `run`: the whole ledger once.
pub fn run(args: &Args) -> ExitCode {
    finish(run_once(args).map(|(_, verdict)| verdict))
}

/// How far two runs of one commit are apart on one metric, as a share:
/// the worsening in whichever direction is larger.
fn disagreement(def: &EndToEndDef, a: f64, b: f64) -> f64 {
    worsening(a, b, def.better).max(worsening(b, a, def.better))
}

/// Compares two result sets of one commit: every end-to-end metric on
/// its home workloads within its own bound — printed but not held
/// against a workload that is not gated — the failure share within its
/// bound of zero, and the exact counts equal.
fn compare_sets(first: &[WorkloadResult], second: &[WorkloadResult]) -> Vec<String> {
    let mut failures = Vec::new();
    println!("\ncheck: relative difference between the two sets");
    for (a, b) in first.iter().zip(second) {
        let gated = workload(a.name).is_some_and(|w| w.gated);
        for def in END_TO_END.iter().filter(|d| d.home.contains(&a.name)) {
            let (Some(&x), Some(&y)) = (
                a.untraced.metrics.get(def.name),
                b.untraced.metrics.get(def.name),
            ) else {
                failures.push(format!("{} {} was not reported", a.name, def.name));
                continue;
            };
            let apart = disagreement(def, x, y);
            let ok = within_bound(x, y, def.better, def.bound)
                && within_bound(y, x, def.better, def.bound);
            let verdict = match (ok, gated) {
                (true, _) => "ok",
                (false, true) => "APART",
                (false, false) => "apart (not gated)",
            };
            println!(
                "{:<28} {:<16} {:>12.4} {:>12.4} {:>6.1}% of {:>2.0}% {verdict}",
                a.name,
                def.name,
                x,
                y,
                apart * 1e2,
                def.bound * 1e2,
            );
            if !ok && gated {
                failures.push(format!(
                    "{} {} differs by {:.1} %",
                    a.name,
                    def.name,
                    apart * 1e2
                ));
            }
        }
        if b.ops_failed_share() > a.ops_failed_share() {
            failures.push(format!("{} {OPS_FAILED_SHARE} rose", a.name));
        }
        let measured = |name: &str| {
            let def = PER_LAYER.iter().find(|d| d.name == name);
            def.is_some_and(|d| d.measured_on.contains(&a.name))
        };
        for name in EXACT_COUNTS.into_iter().filter(|name| measured(name)) {
            match (a.traced.metrics.get(name), b.traced.metrics.get(name)) {
                (Some(x), Some(y)) if x == y => {}
                (x, y) => failures.push(format!(
                    "{} {name} does not repeat: {x:?} then {y:?}",
                    a.name
                )),
            }
        }
        if a.digest() != b.digest() {
            failures.push(format!("{} output_digest does not repeat", a.name));
        }
    }
    failures
}

/// `check`: the whole ledger twice; the two sets must agree.
pub fn check(args: &Args) -> ExitCode {
    let both = run_once(args).and_then(|first| Ok((first, run_once(args)?)));
    finish(both.map(|((first, v1), (second, v2))| {
        let failures = compare_sets(&first, &second);
        v1.and(v2).and(if failures.is_empty() {
            println!("check: the two sets agree within the benchmark's bounds");
            Ok(())
        } else {
            Err(failures.join("; "))
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DUMBBELL_LONG;

    fn child(digest: &str, wall_s: f64) -> Child {
        let line = format!(
            "progress noise\ndetail {{\"output_digest\":\"{digest}\",\"passes\":5}}\n\
             {{\"correct\":true,\"attempted\":185,\"failed\":0,\"metrics\":{{\
             \"wall_s\":{{\"value\":{wall_s},\"unit\":\"s\"}}}}}}\n"
        );
        parse_child(&line).expect("a well-formed child")
    }

    fn result(name: &'static str, digest: &str) -> WorkloadResult {
        WorkloadResult {
            name,
            untraced: child(digest, 2.5),
            traced: child(digest, 2.5),
        }
    }

    #[test]
    fn child_output_parses() {
        let c = child("00ff", 2.5);
        assert!(c.correct);
        assert_eq!((c.attempted, c.failed), (185.0, 0.0));
        assert_eq!(c.metrics["wall_s"], 2.5);
        assert_eq!(c.detail["output_digest"], "00ff");
        assert!(parse_child("").is_err());
        assert!(parse_child("{\"correct\":true}\n").is_err());
        assert!(parse_child("detail {}\nnot json\n").is_err());
    }

    #[test]
    fn a_mismatching_digest_fails_the_run() {
        let agree = [
            result(CATALOGUE_COLD, "aa"),
            result(DUMBBELL_LONG, "something else entirely"),
            result(CATALOGUE_SLICED_POPULATE, "aa"),
            result(SERVICE_WARM, "aa"),
        ];
        assert_eq!(verdict(&agree), Ok(()));
        assert_eq!(finish(Ok(verdict(&agree))), ExitCode::SUCCESS);

        let differ = [
            result(CATALOGUE_COLD, "aa"),
            result(CATALOGUE_SLICED_POPULATE, "aa"),
            result(SERVICE_WARM, "ab"),
        ];
        let err = verdict(&differ).unwrap_err();
        assert!(err.contains("service_warm rendered ab"), "{err}");
        assert_eq!(finish(Ok(verdict(&differ))), ExitCode::FAILURE);

        let mut incorrect = result(CATALOGUE_COLD, "aa");
        incorrect.traced.correct = false;
        assert!(verdict(&[incorrect]).is_err());
    }

    #[test]
    fn a_child_without_metrics_fails_the_check_but_still_gets_a_report() {
        // `child` reports `wall_s` alone, as a traced child whose check
        // failed reports nothing: the report and the comparison must
        // say so, not die on the missing names.
        let sets = [result(CATALOGUE_COLD, "aa")];
        let args = crate::parse_args(&["run".to_string()]).unwrap();
        print_report(&args, &sets);
        let failures = compare_sets(&sets, &sets).join("; ");
        assert!(failures.contains("catalogue_cold setup_s was not reported"));
        assert!(failures.contains("catalogue_cold sim.events does not repeat: None"));
        // A count is compared where it is measured, nowhere else.
        assert!(!failures.contains("serve.bytes_per_submit"), "{failures}");
        assert!(!failures.contains("wall_s"), "{failures}");
    }

    #[test]
    fn a_workload_that_is_not_gated_cannot_fail_the_check_on_timing() {
        let set = |name, wall_s| {
            let mut r = result(name, "aa");
            r.untraced = child("aa", wall_s);
            [r]
        };
        let apart = |name| compare_sets(&set(name, 2.0), &set(name, 4.0)).join("; ");
        assert!(apart(CATALOGUE_COLD).contains("catalogue_cold wall_s differs by 100.0 %"));
        assert!(!apart(SERVICE_WARM).contains("wall_s"));
    }

    #[test]
    fn disagreement_is_symmetric_and_directional() {
        let wall = END_TO_END.iter().find(|d| d.name == "wall_s").unwrap();
        let rate = END_TO_END.iter().find(|d| d.name == "sims_per_s").unwrap();
        assert!((disagreement(wall, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((disagreement(wall, 11.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((disagreement(rate, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(disagreement(rate, 50.0, 50.0), 0.0);
    }
}
