//! The per-spec execution context: a label and its seeded RNG stream.
//!
//! Every unit of sweep work — one [`Spec`](crate::Spec) of a plan:
//! scenario × parameter point × replica — is identified by a label, its
//! content key (e.g. `"mc/basic/sqrt/tfrc/L8/p=0.01/..."`). The label
//! is the unit's *identity*: the executor hands every body a [`JobCtx`]
//! whose private stream is derived from `(master seed, label)` via
//! [`ebrc_dist::Rng::from_label`], so any randomness drawn from
//! [`JobCtx::rng`] is independent of which worker runs the body, in
//! what order, at what thread count. (A body may instead carry its own
//! parameter-derived seeds — the decomposed paper figures do, for
//! byte-compatibility with their pre-runner tables — which satisfies
//! the same contract: randomness must be a pure function of the unit's
//! identity, never of scheduling.) That is what makes parallel sweeps
//! bit-identical to sequential ones.
//!
//! The context also carries what a body reports back to the executor
//! (engine events dispatched) and what the executor asks of the body
//! (an execution-trace destination).

use ebrc_dist::Rng;
use std::path::{Path, PathBuf};

/// Per-job execution context handed to the body.
#[derive(Debug)]
pub struct JobCtx {
    label: String,
    rng: Rng,
    events: u64,
    trace_path: Option<PathBuf>,
}

impl JobCtx {
    /// Builds the context the spec with this label (its content key)
    /// receives: the label plus its `(master seed, label)` RNG stream.
    pub fn for_label(master_seed: u64, label: impl Into<String>) -> Self {
        let label = label.into();
        Self {
            rng: Rng::from_label(master_seed, &label),
            label,
            events: 0,
            trace_path: None,
        }
    }

    /// The job's full label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The job's own RNG stream, derived from `(master seed, label)`
    /// alone — identical no matter where or when the job runs.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Records discrete-event engine work done by this job — bodies
    /// that run an engine report `events_processed()` here so sweeps
    /// can account their total dispatch cost (the runner sums these
    /// into per-run and per-shard totals).
    pub fn record_events(&mut self, n: u64) {
        self.events += n;
    }

    /// Engine events this job reported via [`JobCtx::record_events`]
    /// (zero for jobs that run no discrete-event engine).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Asks the job to record an execution trace at this path. Set by
    /// the executor (from [`crate::TraceConfig`]) before the body runs;
    /// bodies that support tracing check [`JobCtx::trace_path`] and
    /// write their trace file there on completion.
    pub fn set_trace_path(&mut self, path: PathBuf) {
        self.trace_path = Some(path);
    }

    /// Where this job should write its execution trace, if tracing was
    /// requested. `None` means run untraced (the default, and the only
    /// path the ledger gates).
    pub fn trace_path(&self) -> Option<&Path> {
        self.trace_path.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_rng_depends_only_on_seed_and_label() {
        let draw = |seed: u64, label: &str| JobCtx::for_label(seed, label).rng().next_u64();
        assert_eq!(draw(42, "a/b/rep0"), draw(42, "a/b/rep0"));
        assert_ne!(draw(42, "a/b/rep0"), draw(42, "a/b/rep1"));
        assert_ne!(draw(42, "a/b/rep0"), draw(43, "a/b/rep0"));
    }
}
