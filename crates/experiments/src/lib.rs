//! Reproduction harness: regenerates every table and figure of
//! *“On the Long-Run Behavior of Equation-Based Rate Control”*.
//!
//! Each experiment is a declarative *plan subscription*:
//! [`Experiment::specs`] lists the content-hashed [`SimSpec`]s its
//! reducer consumes (scenario × parameter point × replica, no
//! closures) and [`Experiment::reduce`] merges their outputs into
//! [`Table`]s with the same rows/series the paper reports — in a
//! fixed, thread-count-independent order. [`global_plan`] merges the
//! catalogue into one deduplicated plan (shared scenario instances run
//! once and fan out to every subscriber), which runs sequentially
//! ([`Experiment::run`]), on a work-stealing pool
//! ([`plan_run_catalogue`]), or split across hosts as
//! deterministic shards — with byte-identical output every way.
//!
//! The `repro` command line is this library's [`cli`] module — one
//! `Result`-returning entry point per subcommand ([`cli::sweep`]:
//! `list`, `plan`, the direct run; [`cli::shard`]: `run --shard`,
//! `merge`; [`cli::remote`]: `serve`, `submit`;
//! [`cli::cache`]), all over one plan resolver
//! ([`resolve`]) and one report printer/spooler — and the `repro`
//! binary is only its `main`. A shard is a cache directory: `run
//! --shard` fills one, and `merge` reduces from their copied union:
//!
//! ```text
//! cargo run -p ebrc-experiments --release --bin repro -- list
//! cargo run -p ebrc-experiments --release --bin repro -- fig03
//! cargo run -p ebrc-experiments --release --bin repro -- all --scale quick --threads 8
//! cargo run -p ebrc-experiments --release --bin repro -- plan all --shards 2
//! ```
//!
//! Scales: `quick` keeps every experiment in seconds (the bench
//! default); `paper` uses event counts, durations, and replica counts
//! comparable to the paper's (minutes of CPU).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod cli;
pub mod figures;
pub mod registry;
pub mod scenarios;
pub mod series;
pub mod service;
pub mod spec;

pub use registry::{
    all_experiments, find_experiment, global_plan, plan_run_catalogue, plan_run_catalogue_cached,
    reduce_subscription, replica_seed, resolve, scale_by_name, select_experiments, CatalogueRun,
    Experiment, ExperimentFailure, ExperimentReport, Plan, Scale, MASTER_SEED,
};
pub use series::{table_file_name, Table};
pub use service::CatalogueBackend;
pub use spec::{SimSpec, SpecOutput};
