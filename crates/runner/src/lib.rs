//! Deterministic plan runner.
//!
//! The paper's results are Monte-Carlo sweeps over (scenario ×
//! parameter point × replica). This crate executes such a sweep as a
//! declarative [`Plan`]: each point is a content-hashed [`Spec`],
//! deduplicated across the experiments that subscribe to it, cut into
//! deterministic shards for multi-host sweeps, and reduced per
//! experiment the moment its last spec completes.
//!
//! There is one road from a spec to a worker thread. [`run_plan`] is
//! the only plan executor — whole plan or shard subset, cold or cached,
//! monolithic or sliced, cancellable, traced: each is an argument
//! ([`OutputCache`], [`ExecConfig`]), not another entry point — and it
//! runs every spec as one [`Pool`] task that drives
//! [`Spec::start_sliced`] slice after slice on the worker that took it.
//! The pool has one worker loop, built from `std` primitives only (the
//! build environment is offline).
//!
//! The contract that makes parallelism safe for a *reproduction* is
//! determinism: results land in per-spec slots, every spec's
//! randomness is a pure function of its key (the [`JobCtx`] stream is
//! derived from `(master seed, key)` alone), and a panicking spec is
//! captured per-slot rather than tearing the sweep down. Together this
//! makes the output of a sweep byte-identical at any thread count,
//! shard count, slice budget or cache temperature — `--threads 1` and
//! `--threads 8` must (and do) produce the same tables.
//!
//! The [`cache`] layer closes the loop for *incremental* re-runs: a
//! [`DirCache`] stores each completed spec's serialized output under
//! its content hash, and [`run_plan`] partitions a plan into hits
//! (validated, loaded, fed straight to subscriptions) and misses
//! (executed, then written back atomically).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fields;
pub mod job;
pub mod plan;
pub mod pool;

pub use cache::{
    CacheCounters, CacheEntry, CacheableSpec, DirCache, OutputCache, TempFile, CACHE_FORMAT,
};
pub use fields::{parse_hex16, Fields};
pub use job::JobCtx;
pub use plan::{
    run_plan, stable_hash, CancelToken, ExecConfig, Plan, RunStats, SliceStep, SlicedRun, Spec,
    SpecFailures, SpecResult, SpecTiming, Subscription, SubscriptionResult, TraceConfig, CANCELLED,
};
pub use pool::{default_threads, panic_message, Pool};
