//! The `repro` command line as a library.
//!
//! `bin/repro.rs` is `fn main` and nothing else: it hands its
//! arguments to [`run`], which parses them and calls the one entry
//! point backing the subcommand. Each entry point is a `pub fn` whose
//! signature names exactly the inputs it reads and which returns
//! `Result<(), CliError>` — so a new launcher, a test, or another
//! binary drives the same code the CLI does:
//!
//! | command line                    | entry point                 |
//! |---------------------------------|-----------------------------|
//! | `repro list` / `--list`         | [`sweep::list`]             |
//! | `repro plan <ids>`              | [`sweep::plan`]             |
//! | `repro <ids>` (direct run)      | [`sweep::run`]              |
//! | `repro run <ids> --shard I/K`   | [`shard::run_shard`]        |
//! | `repro merge <ids>`             | [`shard::merge`]            |
//! | `repro serve`                   | [`remote::serve`]           |
//! | `repro submit <ids>`            | [`remote::submit`]          |
//! | `repro submit --ping` (etc.)    | [`remote::control`]         |
//! | `repro cache (stats\|gc\|clear)` | [`cache::command`]          |
//!
//! Two pieces are shared by all of them: the plan resolver
//! ([`crate::resolve`], which the sweep service uses too) and the
//! report printer/spooler ([`Reporter`]). A shard is a cache
//! directory: `run --shard` writes its outputs into `--cache-dir`, and
//! `merge` reads them back from there.
//!
//! Experiments are *plan subscriptions*: the CLI merges the requested
//! experiments into one deduplicated plan of content-hashed sims and
//! executes its unique specs on a work-stealing pool (`--threads N`,
//! or the `EBRC_THREADS` environment variable; default: all cores).
//! Sims are submitted longest-first by each spec's cost hint, and
//! `--slice-events N` (or `EBRC_SLICE`) additionally runs dumbbell
//! sims in resumable N-event slices, back to back on one worker, so a
//! cancel lands within one slice — both are pure scheduling, with
//! output bytes unchanged.
//! Each experiment reduces the moment its last subscribed sim
//! completes, and `--out` spools its tables off the pool while the
//! rest of the grid is still running. With `--cache-dir DIR` (or the
//! `EBRC_CACHE` environment variable) completed sims are stored under
//! their content hash and served — validated — to later runs, so a
//! repeated sweep after a reducer-only change is a pure reduce pass.
//! Output is byte-identical at any thread count, any shard count, and
//! any cache temperature. A panicking experiment is reported in the
//! end-of-run summary and turns the exit code nonzero, without taking
//! down the rest of the sweep.

pub mod cache;
pub mod remote;
pub mod report;
pub mod shard;
pub mod sweep;

pub use report::Reporter;

use crate::registry::{scale_by_name, Scale};
use crate::service::CatalogueBackend;
use ebrc_serve::Request;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// The flag summary printed with every usage error.
pub const USAGE: &str = "usage: repro (list | plan | run | merge | serve | submit | \
     cache (stats|gc|clear) | <experiment-id>... | all) \
     [--scale quick|paper|tiny] [--json] [--out DIR] [--threads N] [--progress] \
     [--trace PATH] [--slice-events N] [--cache-dir DIR] [--keep-plan ID] [--dry-run] [--shard I/K] \
     [--shards K] [--listen ADDR] [--connect ADDR] [--ping] [--server-stats] \
     [--shutdown]";

/// Why a command did not succeed. The binary prints the message once
/// and maps the variant to its exit code.
#[derive(Debug, PartialEq)]
pub enum CliError {
    /// The command line itself is wrong (exit 2, with [`USAGE`]).
    Usage(String),
    /// The command ran and failed (exit 1).
    Failed(String),
}

impl<S: Into<String>> From<S> for CliError {
    fn from(message: S) -> Self {
        CliError::Failed(message.into())
    }
}

/// A scale and its canonical name, as [`scale_by_name`] returns them.
pub type NamedScale = (Scale, &'static str);

/// Which entry point a command line selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// No subcommand: run the positional experiment ids.
    Direct,
    List,
    Plan,
    Run,
    Merge,
    Serve,
    Submit,
    Cache,
}

impl Command {
    fn from_word(word: &str) -> Option<Self> {
        Some(match word {
            "list" => Command::List,
            "plan" => Command::Plan,
            "run" => Command::Run,
            "merge" => Command::Merge,
            "serve" => Command::Serve,
            "submit" => Command::Submit,
            "cache" => Command::Cache,
            _ => return None,
        })
    }
}

/// A parsed command line. Private to this module: entry points
/// receive the fields they read, never the whole set.
struct Invocation {
    command: Command,
    /// The positionals after the subcommand word: experiment ids, or
    /// the cache action.
    targets: Vec<String>,
    scale: NamedScale,
    json: bool,
    out: Option<PathBuf>,
    /// `--threads`, `--cache-dir`, `--slice-events`.
    backend: CatalogueBackend,
    progress: bool,
    trace: Option<PathBuf>,
    shard: (usize, usize),
    shards: usize,
    keep_plan: Vec<String>,
    dry_run: bool,
    listen: String,
    connect: String,
    /// `--ping`, `--server-stats` or `--shutdown` (the last one given).
    control: Option<Request>,
}

/// A positive integer, or nothing.
fn positive<T: FromStr + PartialOrd + Default>(raw: &str) -> Option<T> {
    raw.parse().ok().filter(|n| *n > T::default())
}

fn path(raw: &str) -> Option<PathBuf> {
    (!raw.is_empty()).then(|| PathBuf::from(raw))
}

fn word(raw: &str) -> Option<String> {
    (!raw.is_empty()).then(|| raw.to_string())
}

/// Parses `I/K` for `--shard`.
fn shard_of(raw: &str) -> Option<(usize, usize)> {
    let (i, k) = raw.split_once('/')?;
    let i = i.trim().parse::<usize>().ok()?;
    let k = k.trim().parse::<usize>().ok()?;
    (k > 0 && i < k).then_some((i, k))
}

/// The value of `flag`: the next argument, run through `parse`. A
/// missing or rejected value is a usage error naming the flag.
fn value<T>(
    flag: &str,
    raw: Option<&String>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, CliError> {
    let raw = raw.ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
    parse(raw).ok_or_else(|| CliError::Usage(format!("{flag}: bad value {raw:?}")))
}

/// A positive integer from the environment (`EBRC_THREADS`,
/// `EBRC_SLICE`); the matching flag beats it. Junk is reported and
/// ignored rather than failing every invocation in the shell.
fn env_positive<T: FromStr + PartialOrd + Default>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let parsed = positive(raw.trim());
    if parsed.is_none() {
        eprintln!("ignoring {name}={raw:?} (want a positive integer)");
    }
    parsed
}

/// Creates `dir` and any missing parents.
pub(crate) fn ensure_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn parse(args: &[String]) -> Result<Invocation, CliError> {
    let mut inv = Invocation {
        command: Command::Direct,
        targets: Vec::new(),
        scale: (Scale::quick(), "quick"),
        json: false,
        out: None,
        backend: CatalogueBackend {
            cache_dir: std::env::var("EBRC_CACHE")
                .ok()
                .and_then(|raw| path(raw.trim())),
            threads: env_positive("EBRC_THREADS").unwrap_or_else(ebrc_runner::default_threads),
            slice_events: env_positive("EBRC_SLICE"),
        },
        progress: false,
        trace: None,
        shard: (0, 1),
        shards: 1,
        keep_plan: Vec::new(),
        dry_run: false,
        listen: String::from("127.0.0.1:7077"),
        connect: String::from("127.0.0.1:7077"),
        control: None,
    };
    let mut command: Option<Command> = None;
    let mut list = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--json" => inv.json = true,
            "--progress" => inv.progress = true,
            "--dry-run" => inv.dry_run = true,
            "--ping" => inv.control = Some(Request::Ping),
            "--server-stats" => inv.control = Some(Request::Stats),
            "--shutdown" => inv.control = Some(Request::Shutdown),
            // `tiny` is the undocumented test scale: the whole
            // catalogue in ~a second, for CI plumbing and tests.
            "--scale" => inv.scale = value(arg, it.next(), scale_by_name)?,
            "--threads" => inv.backend.threads = value(arg, it.next(), positive)?,
            "--slice-events" => inv.backend.slice_events = Some(value(arg, it.next(), positive)?),
            "--trace" => inv.trace = Some(value(arg, it.next(), path)?),
            "--out" => inv.out = Some(value(arg, it.next(), path)?),
            "--shard" => inv.shard = value(arg, it.next(), shard_of)?,
            "--shards" => inv.shards = value(arg, it.next(), positive)?,
            "--cache-dir" => inv.backend.cache_dir = Some(value(arg, it.next(), path)?),
            "--keep-plan" => inv.keep_plan.push(value(arg, it.next(), |s| {
                word(s).filter(|id| !id.starts_with('-'))
            })?),
            "--listen" => inv.listen = value(arg, it.next(), word)?,
            "--connect" => inv.connect = value(arg, it.next(), word)?,
            s if s.starts_with('-') => return Err(CliError::Usage(format!("unknown flag {s}"))),
            // A subcommand keyword only counts as the *first*
            // positional — `repro fig03 list` must not silently turn
            // into a catalogue listing (the stray word becomes an
            // unknown-experiment error instead).
            s => match Command::from_word(s) {
                Some(c) if command.is_none() && inv.targets.is_empty() => command = Some(c),
                _ => inv.targets.push(s.to_string()),
            },
        }
    }
    inv.command = match command {
        _ if list => Command::List,
        Some(c) => c,
        None if inv.targets.is_empty() => {
            return Err(CliError::Usage("no command or experiment id".into()))
        }
        None => Command::Direct,
    };
    // Only a direct run and `run --shard` execute sims in this
    // process; anywhere else the flag would be silently dropped.
    if inv.trace.is_some() && !matches!(inv.command, Command::Direct | Command::Run) {
        return Err(CliError::Usage(
            "--trace records only a direct run or `run --shard`".into(),
        ));
    }
    Ok(inv)
}

/// Parses `args` (the process arguments after the program name) and
/// runs the command they name.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let f = parse(args)?;
    // `--out` is created up front, whatever the command.
    let reporter = Reporter::new(f.json, f.out.as_deref())?;
    let (targets, scale, backend, trace) =
        (&f.targets[..], f.scale, &f.backend, f.trace.as_deref());
    match f.command {
        Command::List => sweep::list(scale),
        Command::Plan => sweep::plan(targets, scale, f.shards),
        Command::Direct => sweep::run(targets, scale, backend, trace, f.progress, reporter),
        Command::Run => shard::run_shard(targets, scale, backend, trace, f.progress, f.shard),
        Command::Merge => shard::merge(targets, scale, backend.cache_dir.as_deref(), reporter),
        Command::Serve => remote::serve(&f.listen, backend),
        Command::Submit => match &f.control {
            Some(request) => remote::control(&f.connect, request),
            None => remote::submit(targets, scale, &f.connect, f.progress, reporter),
        },
        Command::Cache => cache::command(
            targets,
            backend.cache_dir.as_deref(),
            &f.keep_plan,
            scale,
            f.dry_run,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Invocation, CliError> {
        let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        parse(&args)
    }

    fn is_usage(words: &[&str]) -> bool {
        matches!(parse_words(words), Err(CliError::Usage(_)))
    }

    #[test]
    fn every_value_flag_rejects_a_missing_or_junk_value() {
        // (flag, a value it accepts, values it must reject)
        let table: [(&str, &str, &[&str]); 11] = [
            ("--scale", "tiny", &["warp", ""]),
            ("--threads", "3", &["0", "many", "-1"]),
            ("--slice-events", "50000", &["0", "x"]),
            ("--trace", "t.pftrace", &[""]),
            ("--out", "tables", &[""]),
            ("--shard", "1/3", &["2/2", "1/0", "0/0", "x/2", "nope"]),
            ("--shards", "2", &["0", "two"]),
            ("--cache-dir", "cache", &[""]),
            ("--keep-plan", "fig02", &["--dry-run", ""]),
            ("--listen", "unix:/tmp/s", &[""]),
            ("--connect", "127.0.0.1:1", &[""]),
        ];
        for (flag, good, bad) in table {
            assert!(parse_words(&["fig01", flag, good]).is_ok(), "{flag} {good}");
            assert!(is_usage(&["fig01", flag]), "{flag} without a value");
            for junk in bad {
                assert!(is_usage(&["fig01", flag, junk]), "{flag} {junk:?}");
            }
        }
        assert!(is_usage(&["fig01", "--frobnicate"]));
        for gone in [
            "--baseline",
            "--bench-json",
            "--workers",
            "--timeout-s",
            "--retries",
        ] {
            assert_eq!(
                parse_words(&["fig01", gone, "x"]).err(),
                Some(CliError::Usage(format!("unknown flag {gone}"))),
            );
        }
        assert!(is_usage(&[]));
        assert!(is_usage(&["--json"]), "flags alone select nothing");
    }

    #[test]
    fn flag_values_land_in_their_fields() {
        let inv = parse_words(&[
            "run",
            "fig05",
            "--shard",
            "1/3",
            "--scale",
            "tiny",
            "--threads",
            "3",
        ])
        .unwrap();
        assert_eq!(inv.command, Command::Run);
        assert_eq!(inv.targets, ["fig05"]);
        assert_eq!(inv.shard, (1, 3));
        assert_eq!(inv.scale.1, "tiny");
        assert_eq!(inv.backend.threads, 3);
        let inv = parse_words(&["submit", "--shutdown"]).unwrap();
        assert_eq!(inv.control, Some(Request::Shutdown));
    }

    #[test]
    fn a_subcommand_word_counts_only_as_the_first_positional() {
        let inv = parse_words(&["fig03", "list"]).unwrap();
        assert_eq!(inv.command, Command::Direct);
        assert_eq!(inv.targets, ["fig03", "list"], "`list` stays a target");
        let inv = parse_words(&["--json", "plan", "all", "plan"]).unwrap();
        assert_eq!(inv.command, Command::Plan);
        assert_eq!(inv.targets, ["all", "plan"]);
        assert_eq!(
            parse_words(&["fig03", "--list"]).unwrap().command,
            Command::List
        );
    }

    #[test]
    fn trace_is_rejected_where_nothing_records() {
        for words in [
            &["fig05", "--trace", "t"][..],
            &["run", "fig05", "--shard", "0/2", "--trace", "t"],
        ] {
            assert!(parse_words(words).is_ok(), "{words:?}");
        }
        for command in ["list", "plan", "merge", "serve", "submit", "cache"] {
            assert!(is_usage(&[command, "--trace", "t"]), "{command} --trace");
        }
        assert!(is_usage(&["fig05", "--list", "--trace", "t"]));
    }
}
