//! Reproduction CLI: regenerate any table/figure of the paper.
//!
//! ```text
//! repro list                     # catalogue + per-experiment spec counts + dedup ratio
//! repro fig03                    # one experiment, quick scale
//! repro fig05 fig08              # several experiments, shared sims run once
//! repro fig03 --scale paper      # paper-comparable effort
//! repro all                      # everything (quick), all cores
//! repro all --threads 1          # sequential (byte-identical output)
//! repro all --progress           # live sims-completed line on stderr
//! repro fig05 --json             # machine-readable output
//! repro fig03 --trace out.pftrace  # Perfetto trace (one sim: file;
//!                                # several: per-spec files under PATH/)
//! repro all --out results/       # one JSON file per table, spooled as
//!                                # each experiment's last sim completes
//! repro all --cache-dir cache/   # content-addressed sim cache: a repeat
//!                                # run executes 0 sims (pure reduce pass)
//! repro cache stats --cache-dir cache/           # entry/byte counts
//! repro cache gc --keep-plan all --cache-dir cache/  # drop orphaned hashes
//! repro cache clear --cache-dir cache/           # empty the cache
//! repro plan all --shards 3      # inspect the plan a sweep would run
//! repro run all --shard 0/2 --cache-dir c0      # execute one shard into c0
//! repro merge all --cache-dir cu                 # reduce from copied shard caches
//! repro serve --listen 127.0.0.1:7077 --cache-dir cache/
//!                                # resident sweep daemon (TCP or unix:PATH)
//! repro submit all --connect 127.0.0.1:7077      # run a sweep on the daemon
//! repro submit --connect 127.0.0.1:7077 --shutdown   # stop it
//! ```
//!
//! Every subcommand is a library entry point: see `ebrc_experiments::cli`.

use ebrc_experiments::cli::{self, CliError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failed(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(reason)) => {
            eprintln!("{reason}\n{}", cli::USAGE);
            ExitCode::from(2)
        }
    }
}
