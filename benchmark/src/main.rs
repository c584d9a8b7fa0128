//! The layered performance ledger of the ebrc reproduction.
//!
//! ```text
//! ebrc-benchmark run   [--seed N] [--threads T] [--smoke]
//! ebrc-benchmark check [--seed N] [--threads T] [--smoke]
//! ebrc-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ebrc-benchmark gate [--seed N] [--threads T]
//! ebrc-benchmark populate DIR SCALE [--threads T]
//! ```
//!
//! `run` executes the five workloads, one child process each, prints
//! every end-to-end metric with unit and regression bound, checks the
//! outputs, then makes one traced pass per workload for the per-layer
//! metrics. `check` does that twice and fails unless the two sets
//! agree within the benchmark's own bounds. The third form runs one
//! workload in this process and prints one JSON result as its last
//! line — what `run` spawns, and what `BENCHMARK.json` names as the
//! benchmark's command. `gate` runs the golden gate alone and
//! `populate` fills a sim cache with the catalogue; set-up spawns them,
//! so that a workload's process holds nothing but the workload. See
//! `README.md` next to this crate.

#![forbid(unsafe_code)]

mod gate;
mod metrics;
mod probes;
mod spans;
mod stats;
mod suite;
mod workloads;

use metrics::{listed, END_TO_END, PER_LAYER};
use probes::timed;
use serde_json::Value;
use spans::Recorder;
use stats::{median, peak_rss_mib, supported_percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Config, Pass, Sizes};

/// Where runs leave their artifacts (git-ignored).
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// How long a run measures: timed passes until their walls sum to this
/// many seconds. `BENCHMARK.json` states the same number as
/// `run_seconds`, so `run` and `check` measure what the driver measures.
const RUN_SECONDS: f64 = 12.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: Command,
    seed: u32,
    threads: usize,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Run,
    Check,
    Gate,
    /// Cache directory and scale name.
    Populate(PathBuf, String),
    Workload(&'static str),
}

/// `min(nproc, 2)`: the pool width the ledger is measured at.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut command = None;
    let mut seed = 0;
    let mut threads = default_threads();
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "run" if command.is_none() => command = Some(Command::Run),
            "check" if command.is_none() => command = Some(Command::Check),
            "gate" if command.is_none() => command = Some(Command::Gate),
            "populate" if command.is_none() => {
                let dir = PathBuf::from(value("a cache directory")?);
                command = Some(Command::Populate(dir, value("a scale name")?.to_string()));
            }
            "--workload" => {
                let name = value("a workload name")?;
                let def = metrics::workload(name).ok_or_else(|| {
                    let known: Vec<_> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {known:?}")
                })?;
                command = Some(Command::Workload(def.name));
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e} (at most {})", u32::MAX))?;
            }
            "--threads" => {
                threads = value("a number")?
                    .parse()
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or("--threads needs a positive number")?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s.is_finite() && s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        command: command.ok_or("give `run`, `check`, `gate`, `populate` or `--workload NAME`")?,
        seed,
        threads,
        seconds,
        trace,
        smoke,
    })
}

/// One workload run's result: the contract's four keys, plus what the
/// suite and a reader comparing two commits want to see.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Value,
}

fn number(x: f64) -> Value {
    Value::Number(x)
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = object(vec![("value", number(value)), ("unit", text(unit))]);
                (name.to_string(), entry)
            })
            .collect();
        let line = object(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", number(self.attempted as f64)),
            ("failed", number(self.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("results are serializable")
    }
}

/// The end-to-end metrics one untraced run reports: those
/// `BENCHMARK.json` lists plus those at home on this workload, in
/// declared order, and the quantile `submit_p95_ms` was read at (0 where
/// there are no latencies). The driver wants every listed metric from
/// every run, so off its home workloads a rate counts the pass itself —
/// passes per second, a restatement of `wall_s` the suite does not print.
fn end_to_end(
    workload: &str,
    setups_s: &[f64],
    passes: &[Pass],
    peak_rss_mib: f64,
) -> (Vec<(&'static str, f64, &'static str)>, f64) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.latencies_ms)
        .copied()
        .collect();
    let (p95, quantile) = if latencies.is_empty() {
        (0.0, 0.0)
    } else {
        supported_percentile(&latencies, 0.95)
    };
    let metrics = END_TO_END
        .iter()
        .filter(|def| listed(def.home) || def.home.contains(&workload))
        .map(|def| {
            let home = def.home.contains(&workload);
            let rate = |count: &dyn Fn(&Pass) -> f64| {
                let per_pass = |p: &Pass| if home { count(p) } else { 1.0 };
                let rates: Vec<f64> = passes.iter().map(|p| per_pass(p) / p.wall_s).collect();
                median(&rates)
            };
            let value = match def.name {
                "setup_s" => median(setups_s),
                "wall_s" => median(&walls),
                "pkts_per_s" => rate(&|p| p.pkts as f64),
                "sims_per_s" => rate(&|p| p.sims as f64),
                "submit_p50_ms" => median(&latencies),
                "submit_p95_ms" => p95,
                "submits_per_s" => rate(&|p| p.latencies_ms.len() as f64),
                "peak_rss_mb" => peak_rss_mib,
                other => unreachable!("{other} is declared but not measured"),
            };
            (def.name, value, def.unit)
        })
        .collect();
    (metrics, quantile)
}

/// Runs one workload in this process.
fn run_workload(args: &Args, workload: &'static str) -> Result<Outcome, String> {
    // One scratch directory per kind of run, so `run --smoke` can have
    // a workload's two children in flight at once.
    let kind = if args.trace { "traced" } else { "untraced" };
    let scratch = PathBuf::from(OUT_DIR).join(format!("scratch-{workload}-{kind}"));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    std::env::set_current_dir(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let cfg = Config {
        workload,
        seed: args.seed,
        threads: args.threads,
        sizes: if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        scratch,
    };

    let (first, secs) = timed(|| workloads::setup(&cfg));
    let mut w = first?;
    let mut setups_s = vec![secs];

    // The warm-up pass: checked like any other, but its wall is
    // discarded, because a process's first pass also pays for
    // first-touch page faults. `peak_rss_mb` is read right after it —
    // what one invocation of the system peaks at. Later passes add what
    // the allocator retains from earlier ones, which is the harness's
    // doing and differs from run to run (`catalogue_sliced_populate`:
    // 70 MiB after one pass, 70–128 MiB after four).
    let mut passes = vec![w.pass()];
    let peak_rss = peak_rss_mib();

    // A traced or smoke run's `setup_s` is not used, so it sets up once.
    if !(args.trace || args.smoke) {
        for _ in 1..SETUP_REPEATS {
            w.teardown();
            let (next, secs) = timed(|| workloads::setup(&cfg));
            w = next?;
            setups_s.push(secs);
        }
    }

    // A smoke run keeps its one pass. A traced run's per-layer numbers
    // come from the traced pass that follows; it needs one untraced
    // pass for its ratios.
    let mut measured = 0.0;
    loop {
        let enough = if args.trace {
            passes.len() > 1
        } else {
            measured >= args.seconds
        };
        if args.smoke || enough {
            break;
        }
        let pass = w.pass();
        measured += pass.wall_s;
        passes.push(pass);
    }
    let mut errors: Vec<String> = Vec::new();
    for pass in &mut passes {
        errors.append(&mut pass.errors);
    }
    let digest = passes[0].digest;
    if passes.iter().any(|p| p.digest != digest) {
        errors.push("passes of one run produced different output".into());
    }
    let timed_passes = if args.smoke {
        &passes[..]
    } else {
        &passes[1..]
    };

    let mut notes = Vec::new();
    let mut layers = None;
    if args.trace {
        let mut rec = Recorder::new();
        let untraced = timed_passes.last().expect("at least one pass");
        match w.trace(&mut rec, untraced, &mut notes) {
            Ok(values) => layers = Some(values),
            Err(e) => errors.push(format!("traced pass: {e}")),
        }
        let trace = spans::to_pftrace(workload, rec.spans());
        match ebrc_trace::read_trace(&trace) {
            Ok(summary) if summary.slice_begins as usize == rec.spans().len() => {
                let path = PathBuf::from(OUT_DIR).join(format!("{workload}.pftrace"));
                std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
            }
            other => errors.push(format!("span trace does not validate: {other:?}")),
        }
    }
    w.teardown();

    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    if !errors.is_empty() && failed == 0 {
        // A failed cross-pass or traced check fails the run's output check.
        failed = 1;
    }
    attempted = attempted.max(1);

    let (e2e, p95_quantile) = end_to_end(workload, &setups_s, timed_passes, peak_rss);
    let metrics = match &layers {
        _ if !args.trace => e2e,
        // What `BENCHMARK.json` lists, plus what is measured here.
        Some(values) => PER_LAYER
            .iter()
            .filter(|def| listed(def.measured_on) || def.measured_on.contains(&workload))
            .map(|def| {
                let measured = def.measured_on.contains(&workload);
                let value = values.get(def.name).copied();
                assert_eq!(
                    measured,
                    value.is_some(),
                    "{} on {workload}: measured_on disagrees with the trace",
                    def.name
                );
                (def.name, value.unwrap_or(0.0), def.unit)
            })
            .collect(),
        None => Vec::new(),
    };

    let numbers = |xs: &[f64]| Value::Array(xs.iter().copied().map(number).collect());
    let strings = |xs: &[String]| Value::Array(xs.iter().map(text).collect());
    let walls: Vec<f64> = timed_passes.iter().map(|p| p.wall_s).collect();
    let latency_samples: usize = timed_passes.iter().map(|p| p.latencies_ms.len()).sum();
    let detail = object(vec![
        ("workload", text(workload)),
        ("seed", number(f64::from(args.seed))),
        ("threads", number(args.threads as f64)),
        ("smoke", Value::Bool(args.smoke)),
        ("trace", Value::Bool(args.trace)),
        ("passes", number(timed_passes.len() as f64)),
        ("pass_wall_s", numbers(&walls)),
        ("setup_s", numbers(&setups_s)),
        ("latency_samples", number(latency_samples as f64)),
        ("p95_quantile", number(p95_quantile)),
        ("output_digest", text(format!("{digest:016x}"))),
        ("sim.events", number(passes[0].events as f64)),
        ("notes", strings(&notes)),
        ("errors", strings(&errors)),
    ]);
    Ok(Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ebrc-benchmark: {e}");
            eprintln!(
                "usage: ebrc-benchmark (run | check) [--seed N] [--threads T] [--smoke]\n       \
                 ebrc-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
                 ebrc-benchmark gate [--seed N] [--threads T]\n       \
                 ebrc-benchmark populate DIR SCALE [--threads T]"
            );
            return ExitCode::from(2);
        }
    };
    match &args.command {
        Command::Run => suite::run(&args),
        Command::Check => suite::check(&args),
        Command::Gate => match workloads::gate(args.seed, args.threads) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ebrc-benchmark: golden gate: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Populate(dir, scale) => {
            let digest = ebrc_experiments::scale_by_name(scale)
                .ok_or_else(|| format!("unknown scale {scale:?}"))
                .and_then(|(scale, _)| workloads::populate(dir, args.threads, scale));
            match digest {
                Ok(digest) => {
                    println!("{digest:016x}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("ebrc-benchmark: populate: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        &Command::Workload(workload) => match run_workload(&args, workload) {
            Ok(outcome) => {
                let d = &outcome.detail;
                eprintln!(
                    "{workload}: output_digest {} sim.events {} passes {}",
                    d["output_digest"].as_str().unwrap_or("?"),
                    d["sim.events"].as_f64().unwrap_or(0.0),
                    d["passes"].as_f64().unwrap_or(0.0)
                );
                for line in [&d["notes"], &d["errors"]] {
                    if let Value::Array(lines) = line {
                        for l in lines {
                            eprintln!("{workload}: {}", l.as_str().unwrap_or("?"));
                        }
                    }
                }
                println!(
                    "detail {}",
                    serde_json::to_string(d).expect("details are serializable")
                );
                println!("{}", outcome.result_line());
                if outcome.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("ebrc-benchmark: {workload}: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse_args(&argv(
            "--workload manyflow_10k --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.command, Command::Workload(metrics::MANYFLOW_10K));
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 12.0);
        assert!(args.trace && !args.smoke);

        let args = parse_args(&argv("run --threads 1 --smoke")).unwrap();
        assert_eq!(args.command, Command::Run);
        assert_eq!((args.threads, args.seconds), (1, RUN_SECONDS));
        assert!(args.smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope --seconds 1",
            "run --seed",
            "run --seed -1",
            "run --seed 4294967296",
            "run --threads 0",
            "run --passes 3",
            "--workload dumbbell_long --seconds 0",
            "--workload dumbbell_long --seconds nan",
            "--workload dumbbell_long --trace 2",
            "run extra",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![("wall_s", 1.2034, "s"), ("setup_s", 0.8127, "s")],
            detail: Value::Null,
        };
        assert_eq!(
            outcome.result_line(),
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\
             \"wall_s\":{\"value\":1.2034,\"unit\":\"s\"},\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn end_to_end_metrics_are_the_listed_ones_plus_those_at_home() {
        let pass = |wall_s: f64| Pass {
            wall_s,
            sims: 10,
            pkts: 1000,
            ..Pass::default()
        };
        let passes = [pass(2.0), pass(1.0), pass(4.0)];
        let listed_names = [
            "setup_s",
            "wall_s",
            "pkts_per_s",
            "sims_per_s",
            "peak_rss_mb",
        ];
        let values = |workload, passes: &[Pass]| {
            let (values, quantile) = end_to_end(workload, &[3.0, 1.0, 2.0], passes, 64.5);
            let names: Vec<_> = values.iter().map(|v| v.0).collect();
            (names, quantile, move |name: &str| {
                values.iter().find(|v| v.0 == name).unwrap().1
            })
        };

        let (names, quantile, get) = values(metrics::CATALOGUE_COLD, &passes);
        assert_eq!(names, listed_names);
        assert_eq!(quantile, 0.0);
        assert_eq!(get("setup_s"), 2.0);
        assert_eq!(get("wall_s"), 2.0);
        assert_eq!(get("peak_rss_mb"), 64.5);
        assert_eq!(get("sims_per_s"), 5.0);
        // Off its home workloads a rate restates the pass wall.
        assert_eq!(get("pkts_per_s"), 0.5);

        let (names, _, get) = values(metrics::MANYFLOW_10K, &passes);
        assert_eq!(names, listed_names);
        assert_eq!((get("pkts_per_s"), get("sims_per_s")), (500.0, 0.5));

        let served = passes.map(|p| Pass {
            latencies_ms: vec![1.0, 2.0, 3.0],
            ..p
        });
        let (names, quantile, get) = values(metrics::SERVICE_WARM, &served);
        let declared: Vec<_> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
        // Nine samples support no tail percentile: p95 falls back.
        assert_eq!(quantile, 0.5);
        assert_eq!((get("submits_per_s"), get("pkts_per_s")), (1.5, 0.5));
        assert_eq!((get("submit_p50_ms"), get("submit_p95_ms")), (2.0, 2.0));
    }
}
