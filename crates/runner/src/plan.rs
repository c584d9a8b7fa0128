//! Declarative experiment plans: content-hashed specs, subscriptions,
//! deterministic shards, completion-driven reduction.
//!
//! A [`Spec`] is the declarative replacement for an opaque job closure:
//! a serializable description of one unit of work (scenario × parameter
//! point × replica) whose identity is a canonical *content key*. Two
//! specs with the same key describe the same computation, so a [`Plan`]
//! stores each distinct spec once and lets any number of *subscriptions*
//! (one per experiment) reference it — one simulation fans out to every
//! reducer that asked for it.
//!
//! A plan is also the unit of distribution: [`Plan::shard_indices`]
//! partitions the unique specs deterministically into `k` shards that
//! can run on separate hosts, and [`Plan::fingerprint`] names the
//! whole plan, so two hosts can check they built the same one. Because a
//! spec's randomness is a pure function of its content (its key seeds
//! the [`JobCtx`] stream, and scenario specs carry their own
//! parameter-derived seeds), results are bit-identical at any thread
//! count and any shard count.
//!
//! [`run_plan`] is the one executor: it runs a plan — whole, or the
//! subset a shard owns — on a [`Pool`] and fires a callback the moment
//! the *last* spec of a subscription completes — the hook that lets
//! callers reduce and spool each experiment while the rest of the grid
//! is still running. Every run mode is an argument to it, not another
//! entry point: an [`OutputCache`] serves validated hits without
//! executing them and stores fresh outputs, and [`ExecConfig`] carries
//! slicing, cancellation and tracing. ([`Plan::run_sequential`] is the
//! deliberately separate reference the determinism tests compare it
//! against.)
//!
//! Misses are submitted *longest-first* by [`Spec::cost_hint`], so the
//! expensive sims start while the short tail backfills the workers.
//! Each spec is one pool task that runs [`Spec::start_sliced`] and its
//! continuations back to back on the worker that took it: one slice
//! when [`ExecConfig::slice_events`] is unset, bounded-event slices
//! with a cancellation check between them when it is. A sweep thus
//! holds at most one engine per worker. Scheduling moves no bytes:
//! results land in per-spec slots and reduction is completion-driven,
//! so tables stay bit-identical to the sequential path at any thread
//! count, slice budget, or submission order.

use crate::cache::{CacheCounters, CacheableSpec, OutputCache};
use crate::job::JobCtx;
use crate::pool::{panic_message, Pool};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cooperative cancellation for an in-flight sweep.
///
/// A token is shared between the party that may abort (a daemon whose
/// client disconnected, a supervisor tearing a sweep down) and the
/// executors, via [`ExecConfig::cancel`]. Cancellation is checked
/// before every slice: specs not yet started and the remaining slices
/// of sliced specs fail fast with a `"cancelled"` error instead of
/// executing, so a cancelled sweep drains in at most one slice per
/// worker. Cancelled specs are never written to the cache.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

/// The error message a cancelled spec reports.
pub const CANCELLED: &str = "cancelled";

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every clone of the token observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Wall-clock accounting of one *executed* spec, over all its slices
/// when the sliced path is active. Cache hits execute nothing and get
/// no timing row.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecTiming {
    /// The spec's content key.
    pub key: String,
    /// Wall-clock seconds spent executing this spec, first slice to
    /// last (they run back to back on one worker).
    pub wall_s: f64,
    /// Engine events the spec's run dispatched.
    pub events: u64,
    /// Number of slices the run took (1 = ran in one).
    pub slices: u32,
}

/// Execution accounting of one plan run: cache
/// effectiveness plus the discrete-event engine events the *executed*
/// specs dispatched (cache hits execute nothing, so they contribute
/// zero — `events` measures this run's compute, not its provenance).
/// `timings` carries one row per executed spec, sorted by key so the
/// vector is deterministic even though completion order is not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Cache hits vs executed specs.
    pub cache: CacheCounters,
    /// Engine events dispatched by the executed specs, as reported
    /// through [`JobCtx::record_events`].
    pub events: u64,
    /// Per-spec wall time of every executed (non-panicking) spec —
    /// what the ledger's `runner.straggler_share` is computed from.
    pub timings: Vec<SpecTiming>,
}

/// Where a traced run writes its per-spec trace files.
///
/// Tracing is an executor-level request: the executor stamps each
/// spec's [`JobCtx`] with a destination path
/// ([`JobCtx::set_trace_path`]) before the run starts, and specs that
/// support tracing write a trace file there on completion. A traced
/// run always *executes* — the cache probe is skipped for every
/// selected spec, because a cache hit would produce no trace — but the
/// outputs it computes are identical to untraced ones, so they are
/// still written back to the cache.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Destination: a single file when `single_file`, otherwise a
    /// directory receiving one file per spec.
    pub dest: PathBuf,
    /// Whether `dest` names the one output file (single-spec runs) or
    /// a directory of per-spec files.
    pub single_file: bool,
}

impl TraceConfig {
    /// Trace a single spec straight into the file at `dest`.
    pub fn single(dest: impl Into<PathBuf>) -> Self {
        Self {
            dest: dest.into(),
            single_file: true,
        }
    }

    /// Trace every spec into `dir`, one file per spec named by its
    /// content hash.
    pub fn per_spec(dir: impl Into<PathBuf>) -> Self {
        Self {
            dest: dir.into(),
            single_file: false,
        }
    }

    /// The trace file for the spec with this content key.
    pub fn path_for(&self, key: &str) -> PathBuf {
        if self.single_file {
            self.dest.clone()
        } else {
            self.dest.join(format!("{:016x}.pftrace", stable_hash(key)))
        }
    }
}

/// Execution knobs of [`run_plan`].
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    /// When set, specs that support slicing ([`Spec::start_sliced`])
    /// pause every `slice_events` engine events, and their worker polls
    /// [`ExecConfig::cancel`] before resuming them. The slices of one
    /// spec run back to back on one worker. `None` runs every spec in
    /// one slice. Output is bit-identical either way.
    pub slice_events: Option<u64>,
    /// When set, the run polls this token before every slice and fails
    /// not-yet-started specs (and the remaining slices of sliced specs)
    /// with [`CANCELLED`] instead of executing them.
    pub cancel: Option<CancelToken>,
    /// When set, every selected spec executes (cache probing is
    /// skipped) with its [`JobCtx`] trace path set, so tracing-aware
    /// specs record a trace file per [`TraceConfig::path_for`].
    pub trace: Option<TraceConfig>,
}

impl ExecConfig {
    /// Slice supporting specs every `budget` engine events.
    pub fn sliced(budget: u64) -> Self {
        Self {
            slice_events: Some(budget),
            ..Self::default()
        }
    }

    /// This config with cancellation observed from `token`.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// FNV-1a over the key bytes: a stable, platform-independent 64-bit
/// content hash. Not cryptographic — it identifies specs within a plan,
/// where the catalogue-uniqueness tests guard against collisions.
pub fn stable_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A declarative, content-addressed unit of work.
///
/// Implementations must make [`Spec::key`] a *canonical* rendering of
/// every field that influences the result (parameters, seeds, effort):
/// the key is the spec's identity for deduplication, sharding, and the
/// `(master seed, key)` RNG stream handed to [`Spec::run`]. The key
/// must not depend on field declaration order, thread count, or any
/// other ambient state.
pub trait Spec: Clone + Send + Sync {
    /// What running the spec produces. `Sync` because one output is
    /// shared with every subscribed reducer; `'static` because the
    /// sliced-run path boxes in-flight state (output included) as a
    /// `'static` trait object.
    type Output: Send + Sync + 'static;

    /// Canonical content key (also the human-readable label).
    fn key(&self) -> String;

    /// Stable content hash of the key.
    fn hash(&self) -> u64 {
        stable_hash(&self.key())
    }

    /// Executes the spec. `ctx` carries the `(master seed, key)` RNG
    /// stream; specs may instead carry their own content-derived seeds
    /// (both satisfy the determinism contract).
    fn run(&self, ctx: &mut JobCtx) -> Self::Output;

    /// Relative cost estimate used for longest-first submission (any
    /// monotone proxy works — the experiments crate returns its
    /// engine-events estimate). The default `0` keeps catalogue order.
    /// Scheduling only: the hint never touches spec identity, shard
    /// membership, or output bytes.
    fn cost_hint(&self) -> u64 {
        0
    }

    /// Starts a (possibly sliced) execution: runs the first slice under
    /// an event `budget` and either finishes or returns the paused state
    /// for the executor to resume. The default ignores the budget
    /// and runs the spec monolithically — only specs whose work is a
    /// resumable engine loop need to override this, and they must
    /// produce bit-identical output at every budget (the engine's
    /// budgeted dispatch makes that free: a sliced `run_until` is the
    /// same event sequence, just with scheduling points in it).
    fn start_sliced(&self, ctx: &mut JobCtx, budget: u64) -> SliceStep<Self::Output> {
        let _ = budget;
        SliceStep::Done(self.run(ctx))
    }
}

/// A paused sliced execution: everything a spec needs to continue its
/// run — engine, measurement phase, accumulated state — boxed so the
/// executor can hold it between slices.
pub trait SlicedRun: Send {
    /// What the finished run produces (the spec's output type).
    type Output;

    /// Runs the next slice under a fresh event `budget`. `ctx` is the
    /// same per-spec context the run started with, threaded through
    /// every slice by the executor.
    fn resume(self: Box<Self>, ctx: &mut JobCtx, budget: u64) -> SliceStep<Self::Output>;
}

/// One step of a sliced spec execution.
pub enum SliceStep<O> {
    /// The budget ran out mid-sim; resume this state for the next slice.
    Pending(Box<dyn SlicedRun<Output = O>>),
    /// The run finished.
    Done(O),
}

/// One experiment's interest in a plan: the specs it reduces, by index
/// into the plan's unique-spec list, in reduce order.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Subscriber identifier (the experiment id).
    pub id: String,
    /// Indices into [`Plan::specs`], in the order the subscriber's
    /// reducer consumes them.
    pub spec_indices: Vec<usize>,
}

/// A deduplicated set of specs plus the subscriptions that consume
/// them.
#[derive(Debug, Clone)]
pub struct Plan<S: Spec> {
    specs: Vec<S>,
    hashes: Vec<u64>,
    index: HashMap<u64, usize>,
    subs: Vec<Subscription>,
}

impl<S: Spec> Default for Plan<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Spec> Plan<S> {
    /// An empty plan.
    pub fn new() -> Self {
        Self {
            specs: Vec::new(),
            hashes: Vec::new(),
            index: HashMap::new(),
            subs: Vec::new(),
        }
    }

    /// Appends a subscription: `specs` in reduce order, interned by
    /// content hash, so a spec another subscription already lists is
    /// not added twice.
    ///
    /// # Panics
    /// Panics if two *different* keys collide to one hash — a plan must
    /// never silently alias distinct work.
    pub fn subscribe(&mut self, id: impl Into<String>, specs: Vec<S>) {
        let spec_indices = specs.into_iter().map(|s| self.intern(s)).collect();
        self.subs.push(Subscription {
            id: id.into(),
            spec_indices,
        });
    }

    /// Interns one spec, returning its index among the unique specs.
    fn intern(&mut self, spec: S) -> usize {
        let key = spec.key();
        let hash = stable_hash(&key);
        if let Some(&idx) = self.index.get(&hash) {
            assert_eq!(
                self.specs[idx].key(),
                key,
                "spec hash collision: distinct keys share hash {hash:#018x}"
            );
            return idx;
        }
        let idx = self.specs.len();
        self.specs.push(spec);
        self.hashes.push(hash);
        self.index.insert(hash, idx);
        idx
    }

    /// The unique specs, in first-subscription order.
    pub fn specs(&self) -> &[S] {
        &self.specs
    }

    /// Content hash of each unique spec (parallel to [`Plan::specs`]).
    pub fn spec_hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Index of the unique spec with this content hash, if present.
    pub fn index_of(&self, hash: u64) -> Option<usize> {
        self.index.get(&hash).copied()
    }

    /// The subscriptions, in the order they were added.
    pub fn subscriptions(&self) -> &[Subscription] {
        &self.subs
    }

    /// Number of unique specs (simulations actually executed).
    pub fn unique_len(&self) -> usize {
        self.specs.len()
    }

    /// Number of spec references across all subscriptions (simulations
    /// the old one-job-per-figure decomposition would have executed).
    pub fn subscribed_len(&self) -> usize {
        self.subs.iter().map(|s| s.spec_indices.len()).sum()
    }

    /// `subscribed / unique` — how much work deduplication saves
    /// (`1.0` when nothing is shared; `1.0` for an empty plan).
    pub fn dedup_ratio(&self) -> f64 {
        if self.specs.is_empty() {
            1.0
        } else {
            self.subscribed_len() as f64 / self.unique_len() as f64
        }
    }

    /// The unique-spec indices belonging to shard `shard` of `of`:
    /// round-robin over plan order, so shards are balanced and the
    /// union over all shards is exactly the plan.
    ///
    /// Shard membership is a function of *catalogue order only* — the
    /// longest-first submission order the executors use is a scheduling
    /// detail applied after sharding, inside each shard, and never
    /// moves a spec between shards. Keeping the cut on plan order is
    /// what lets [`Plan::fingerprint`] verify that independently built
    /// shards came from one plan, regardless of each host's cost hints.
    ///
    /// # Panics
    /// Panics unless `shard < of`.
    pub fn shard_indices(&self, shard: usize, of: usize) -> Vec<usize> {
        assert!(shard < of, "shard {shard} out of range for {of} shards");
        (shard..self.specs.len()).step_by(of).collect()
    }

    /// A stable fingerprint of the whole plan — every spec hash in
    /// order plus the subscription structure. Two hosts that build the
    /// same plan (same experiments, same scale) agree on it, so a
    /// client and a daemon can check they mean the same sweep.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &spec in &self.hashes {
            mix(spec);
        }
        for sub in &self.subs {
            mix(stable_hash(&sub.id));
            mix(sub.spec_indices.len() as u64);
            for &i in &sub.spec_indices {
                mix(self.hashes[i]);
            }
        }
        h
    }

    /// For each unique spec, the subscriptions that reference it (each
    /// subscription listed once per spec, however often it re-reads the
    /// output).
    fn subscribers_by_spec(&self) -> Vec<Vec<usize>> {
        let mut by_spec: Vec<Vec<usize>> = vec![Vec::new(); self.specs.len()];
        for (si, sub) in self.subs.iter().enumerate() {
            for &idx in &sub.spec_indices {
                if by_spec[idx].last() != Some(&si) {
                    by_spec[idx].push(si);
                }
            }
        }
        by_spec
    }

    /// Runs every unique spec in plan order on the calling thread,
    /// returning outputs parallel to [`Plan::specs`]. Panics propagate —
    /// this is the simple sequential path for single-experiment runs,
    /// and the reference the determinism tests hold [`run_plan`] to.
    pub fn run_sequential(&self, master_seed: u64) -> Vec<S::Output> {
        self.specs
            .iter()
            .map(|spec| {
                let mut ctx = JobCtx::for_label(master_seed, spec.key());
                spec.run(&mut ctx)
            })
            .collect()
    }

    /// Borrows one subscription's outputs, in reduce order, out of a
    /// unique-spec output slice (as produced by
    /// [`Plan::run_sequential`]).
    ///
    /// # Panics
    /// Panics if `outputs` is not parallel to [`Plan::specs`].
    pub fn subscription_outputs<'a>(
        &self,
        subscription: usize,
        outputs: &'a [S::Output],
    ) -> Vec<&'a S::Output> {
        assert_eq!(outputs.len(), self.specs.len(), "outputs not plan-shaped");
        self.subs[subscription]
            .spec_indices
            .iter()
            .map(|&i| &outputs[i])
            .collect()
    }

    /// What subscription `subscription`'s reducer receives once every
    /// spec it references has a result (`result_of(spec index)`): the
    /// outputs in reduce order, or each failed spec once.
    pub fn gather<'a>(
        &self,
        subscription: usize,
        result_of: impl Fn(usize) -> &'a SpecResult<S>,
    ) -> SubscriptionResult<S>
    where
        S: 'a,
    {
        let sub = &self.subs[subscription];
        let mut outputs = Vec::with_capacity(sub.spec_indices.len());
        let mut failures: SpecFailures = Vec::new();
        for &idx in &sub.spec_indices {
            match result_of(idx) {
                Ok(out) => outputs.push(Arc::clone(out)),
                Err(msg) => {
                    let key = self.specs[idx].key();
                    if !failures.iter().any(|(k, _)| *k == key) {
                        failures.push((key, msg.clone()));
                    }
                }
            }
        }
        SubscriptionResult {
            subscription,
            outcome: if failures.is_empty() {
                Ok(outputs)
            } else {
                Err(failures)
            },
        }
    }
}

/// A completed spec's shared output, or the panic message that killed
/// it.
pub type SpecResult<S> = Result<Arc<<S as Spec>::Output>, String>;

/// `(spec key, panic message)` for every failed spec a subscription
/// references.
pub type SpecFailures = Vec<(String, String)>;

/// What a subscription's reducer receives the moment its last spec
/// completes.
pub struct SubscriptionResult<S: Spec> {
    /// Index into [`Plan::subscriptions`].
    pub subscription: usize,
    /// Outputs in reduce order — or, if any subscribed spec panicked,
    /// the failures that spoiled the subscription.
    pub outcome: Result<Vec<Arc<S::Output>>, SpecFailures>,
}

/// Executes a plan's unique specs (optionally a subset) on the pool —
/// the one executor behind every run mode.
///
/// The selected specs are partitioned into *hits* — entries loaded from
/// `cache`, validated against the spec key, decoded, and fed straight
/// to their subscriptions — and *misses*, which execute on the pool
/// longest-first, one task per spec (in [`ExecConfig::slice_events`]-
/// bounded slices when set), and are written back on completion. An invalid entry (corrupt,
/// truncated, version-skewed, or key-mismatched) reads as a miss and
/// re-executes; it can never poison a reduce. With `cache: None` every
/// selected spec is a miss.
///
/// `on_ready` fires — from the completing worker's thread, or from the
/// calling thread for subscriptions served entirely by hits — as soon
/// as the last spec a subscription references has finished, with that
/// subscription's outputs in reduce order; subscriptions whose specs
/// lie partly outside `only` never fire. Per-spec results (shared via
/// [`Arc`]) are returned keyed by unique-spec index; specs outside
/// `only` yield `None`. A spec that panics fails only itself (its slot
/// and its subscribers see the message).
///
/// `progress` fires once per executed spec, never per slice, so a fully
/// warm run reports zero sims. The returned [`RunStats`] split the selected specs into
/// hits and misses, total the engine events the misses dispatched, and
/// carry one [`SpecTiming`] row per executed spec.
///
/// # Panics
/// Re-raises, once the pool has drained, the first panic of `on_ready`
/// or [`OutputCache::store`] on a worker thread (and of `progress`, via
/// the pool): those are the caller's code failing, not a spec, and a
/// subscription that silently never fired would be worse.
#[allow(clippy::too_many_arguments)]
pub fn run_plan<S: CacheableSpec>(
    pool: &Pool,
    master_seed: u64,
    plan: &Plan<S>,
    only: Option<&[usize]>,
    cache: Option<&dyn OutputCache>,
    exec: ExecConfig,
    progress: impl Fn(usize, usize) + Sync,
    on_ready: impl Fn(SubscriptionResult<S>) + Sync,
) -> (Vec<Option<SpecResult<S>>>, RunStats) {
    let n = plan.specs().len();
    // Dedup the subset (first occurrence wins) so a spec never runs —
    // and never decrements readiness counters — twice.
    let mut in_shard = vec![false; n];
    let mut selected: Vec<usize> = Vec::new();
    for &i in only.unwrap_or(&(0..n).collect::<Vec<_>>()) {
        if !in_shard[i] {
            in_shard[i] = true;
            selected.push(i);
        }
    }
    let results: Vec<OnceLock<SpecResult<S>>> = (0..n).map(|_| OnceLock::new()).collect();
    let subscribers = plan.subscribers_by_spec();
    // A subscription is ready when its last *distinct* spec completes;
    // subscriptions reaching outside the executed subset never fire.
    let remaining: Vec<Option<AtomicUsize>> = plan
        .subscriptions()
        .iter()
        .map(|sub| {
            let mut distinct: Vec<usize> = sub.spec_indices.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.iter().all(|&i| in_shard[i]) {
                Some(AtomicUsize::new(distinct.len()))
            } else {
                None
            }
        })
        .collect();

    // `gather` runs on a subscription's last decrement, and a spec
    // decrements only after `complete` filled its slot.
    let gather = |sub_idx: usize| {
        plan.gather(sub_idx, |idx| {
            results[idx].get().expect("subscribed spec complete")
        })
    };
    // Records a spec's result — a hit or a finished run — and fires the
    // subscriptions it was the last missing piece of.
    let complete = |idx: usize, result: SpecResult<S>| {
        // Each selected index is either one hit or one task, and a
        // task reports exactly once, so the slot is empty.
        assert!(results[idx].set(result).is_ok(), "spec completed twice");
        for &si in &subscribers[idx] {
            if let Some(r) = &remaining[si] {
                if r.fetch_sub(1, Ordering::AcqRel) == 1 {
                    on_ready(gather(si));
                }
            }
        }
    };

    // Subscriptions with no specs at all are ready before anything
    // runs (before hit pre-filling, which fires on the 1 → 0 counter
    // transition and would otherwise double-fire them).
    for (si, r) in remaining.iter().enumerate() {
        if let Some(r) = r {
            if r.load(Ordering::Acquire) == 0 {
                on_ready(gather(si));
            }
        }
    }

    // Partition the selection into cache hits — pre-filled into their
    // result slots, decrementing readiness like a completed run — and
    // the misses the pool actually executes. Probing is sequential on
    // the coordinating thread: a full warm probe of the quick
    // catalogue measures in tens of milliseconds, far below the cost
    // of a single sim, so parallel probing is not worth entangling
    // with the readiness counters.
    let mut to_run: Vec<usize> = Vec::with_capacity(selected.len());
    let mut counters = CacheCounters::default();
    for &idx in &selected {
        // A traced run must execute: a cache hit produces no trace.
        let hit = match cache {
            Some(cache) if exec.trace.is_none() => cache
                .load(plan.spec_hashes()[idx], &plan.specs()[idx].key())
                .and_then(|text| S::decode_output(&text).ok()),
            _ => None,
        };
        match hit {
            Some(out) => {
                counters.hits += 1;
                complete(idx, Ok(Arc::new(out)));
            }
            None => to_run.push(idx),
        }
    }
    counters.misses = to_run.len();

    // Longest-first submission: the expensive sims start immediately
    // and the short tail backfills idle workers, instead of a straggler
    // getting dequeued last and serializing the run's finish.
    let to_run = longest_first(to_run, plan.specs());

    let budget = exec.slice_events.unwrap_or(u64::MAX);
    let finish = |idx: usize, outcome: Result<S::Output, String>| {
        if let (Some(cache), Ok(out)) = (cache, &outcome) {
            let key = plan.specs()[idx].key();
            cache.store(plan.spec_hashes()[idx], &key, &S::encode_output(out));
        }
        complete(idx, outcome.map(Arc::new));
    };
    let (finish, cancel, trace) = (&finish, exec.cancel.as_ref(), exec.trace.as_ref());
    // One task per spec: its slices run back to back on the worker that
    // took it, so at most one run state per worker is ever alive.
    let tasks: Vec<_> = to_run
        .iter()
        .map(|&idx| {
            move || {
                let spec = &plan.specs()[idx];
                let key = spec.key();
                let mut ctx = JobCtx::for_label(master_seed, key.clone());
                if let Some(tc) = trace {
                    ctx.set_trace_path(tc.path_for(&key));
                }
                let started = Instant::now();
                let (outcome, slices) = run_slices(spec, &mut ctx, budget, cancel);
                let wall_s = started.elapsed().as_secs_f64();
                let timing = outcome.is_ok().then(|| SpecTiming {
                    key,
                    wall_s,
                    events: ctx.events_processed(),
                    slices,
                });
                finish(idx, outcome);
                timing
            }
        })
        .collect();
    let mut timings = Vec::with_capacity(tasks.len());
    for reported in pool.run_reporting(tasks, progress) {
        match reported {
            Ok(timing) => timings.extend(timing),
            // Spec bodies are caught inside `run_slices`, so this is
            // `finish` — `on_ready` or the cache's `store` — panicking.
            Err(payload) => resume_unwind(payload),
        }
    }
    timings.sort_by(|a, b| a.key.cmp(&b.key));
    (
        results.into_iter().map(OnceLock::into_inner).collect(),
        RunStats {
            cache: counters,
            events: timings.iter().map(|t| t.events).sum(),
            timings,
        },
    )
}

/// Runs one spec's slices back to back (budget-bounded when the spec
/// supports slicing, the whole run otherwise), polling `cancel` before
/// each, and returns the output or the failure together with the number
/// of slices executed. The cancel check before every slice is what makes
/// a cancelled sweep drain within one slice per worker, with queued
/// specs never starting at all. Panics are caught here, not left to the
/// pool's own capture, because the caller must still report a failed
/// spec: its slot gets the error and its subscribers learn of it.
fn run_slices<S: Spec>(
    spec: &S,
    ctx: &mut JobCtx,
    budget: u64,
    cancel: Option<&CancelToken>,
) -> (Result<S::Output, String>, u32) {
    let mut slices = 0;
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut state = None;
        loop {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(CANCELLED.to_string());
            }
            slices += 1;
            let step = match state.take() {
                None => spec.start_sliced(ctx, budget),
                Some(paused) => SlicedRun::resume(paused, ctx, budget),
            };
            match step {
                SliceStep::Done(out) => return Ok(out),
                SliceStep::Pending(paused) => state = Some(paused),
            }
        }
    }));
    let outcome = run.unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
    (outcome, slices)
}

/// Submission order for a miss list: longest-first by cost hint,
/// original order as the tiebreak. Pure scheduling — results land in
/// index-keyed slots, so output bytes cannot depend on this order.
fn longest_first<S: Spec>(mut to_run: Vec<usize>, specs: &[S]) -> Vec<usize> {
    to_run.sort_by_cached_key(|&i| (std::cmp::Reverse(specs[i].cost_hint()), i));
    to_run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A toy spec: doubles its value; panics on demand.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        name: &'static str,
        value: u64,
        fail: bool,
    }

    impl Spec for Toy {
        type Output = u64;
        fn key(&self) -> String {
            format!("toy/{}/v{}", self.name, self.value)
        }
        fn run(&self, ctx: &mut JobCtx) -> u64 {
            if self.fail {
                panic!("toy spec failure");
            }
            // Honor the tracing contract: specs that support tracing
            // write a trace file at the ctx's path.
            if let Some(p) = ctx.trace_path() {
                std::fs::write(p, self.key()).unwrap();
            }
            // Pretend each run dispatched `value` engine events, so the
            // accounting below is observable.
            ctx.record_events(self.value);
            self.value * 2
        }
    }

    impl CacheableSpec for Toy {
        fn encode_output(out: &u64) -> String {
            format!("{out}")
        }
        fn decode_output(text: &str) -> Result<u64, String> {
            text.parse::<u64>().map_err(|e| e.to_string())
        }
    }

    fn toy(name: &'static str, value: u64) -> Toy {
        Toy {
            name,
            value,
            fail: false,
        }
    }

    #[test]
    fn stable_hash_is_fnv1a() {
        // FNV-1a test vectors.
        assert_eq!(stable_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(stable_hash("a/b"), stable_hash("b/a"));
    }

    #[test]
    fn plans_dedup_by_content() {
        let mut plan = Plan::new();
        plan.subscribe("e1", vec![toy("a", 1), toy("b", 2)]);
        plan.subscribe("e2", vec![toy("a", 1), toy("c", 3)]);
        assert_eq!(plan.unique_len(), 3);
        assert_eq!(plan.subscribed_len(), 4);
        assert!((plan.dedup_ratio() - 4.0 / 3.0).abs() < 1e-12);
        // e2's first spec resolves to e1's interned copy.
        assert_eq!(plan.subscriptions()[1].spec_indices[0], 0);
    }

    #[test]
    fn shards_partition_the_plan() {
        let mut plan = Plan::new();
        plan.subscribe("e", (0..10).map(|i| toy("s", i)).collect());
        let mut seen: Vec<usize> = Vec::new();
        for shard in 0..3 {
            seen.extend(plan.shard_indices(shard, 3));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(plan.shard_indices(0, 1).len(), 10);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut a = Plan::new();
        a.subscribe("e", vec![toy("a", 1), toy("b", 2)]);
        let mut b = Plan::new();
        b.subscribe("e", vec![toy("a", 1), toy("b", 2)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = Plan::new();
        c.subscribe("e", vec![toy("a", 1), toy("b", 3)]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = Plan::new();
        d.subscribe("other", vec![toy("a", 1), toy("b", 2)]);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn run_plan_fires_each_subscription_once_with_ordered_outputs() {
        let mut plan = Plan::new();
        plan.subscribe("e1", vec![toy("a", 1), toy("b", 2)]);
        plan.subscribe("e2", vec![toy("b", 2), toy("a", 1)]);
        let fired = Mutex::new(vec![Vec::new(); 2]);
        let calls = AtomicUsize::new(0);
        run_plan(
            &Pool::new(4),
            0,
            &plan,
            None,
            None,
            ExecConfig::default(),
            |_, _| {},
            |res: SubscriptionResult<Toy>| {
                calls.fetch_add(1, Ordering::Relaxed);
                let outs: Vec<u64> = res.outcome.unwrap().iter().map(|o| **o).collect();
                fired.lock().unwrap()[res.subscription] = outs;
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        let fired = fired.into_inner().unwrap();
        assert_eq!(fired[0], vec![2, 4]);
        assert_eq!(fired[1], vec![4, 2], "reduce order per subscription");
    }

    #[test]
    fn a_failing_spec_fails_every_subscriber() {
        let mut plan = Plan::new();
        plan.subscribe(
            "bad",
            vec![
                toy("ok", 1),
                Toy {
                    name: "boom",
                    value: 9,
                    fail: true,
                },
            ],
        );
        plan.subscribe("good", vec![toy("ok", 1)]);
        let outcomes: Mutex<Vec<(usize, bool)>> = Mutex::new(Vec::new());
        let (results, _) = run_plan(
            &Pool::new(2),
            0,
            &plan,
            None,
            None,
            ExecConfig::default(),
            |_, _| {},
            |res: SubscriptionResult<Toy>| {
                let failed = match &res.outcome {
                    Ok(_) => false,
                    Err(fails) => {
                        assert_eq!(fails.len(), 1);
                        assert_eq!(fails[0].0, "toy/boom/v9");
                        assert!(fails[0].1.contains("toy spec failure"));
                        true
                    }
                };
                outcomes.lock().unwrap().push((res.subscription, failed));
            },
        );
        let mut outcomes = outcomes.into_inner().unwrap();
        outcomes.sort_unstable();
        assert_eq!(outcomes, vec![(0, true), (1, false)]);
        // The failure is isolated per spec in the returned results too.
        assert_eq!(**results[0].as_ref().unwrap().as_ref().unwrap(), 2);
        let err = results[1].as_ref().unwrap().as_ref().unwrap_err();
        assert!(err.contains("toy spec failure"));
    }

    #[test]
    #[should_panic(expected = "reducer hook exploded")]
    fn a_panicking_on_ready_panics_the_run_instead_of_vanishing() {
        // Subscription 0's callback panics on a worker thread. The run
        // must re-raise that — not return normally with subscription 1
        // (which shares spec `a`'s slot and counters) fired and
        // subscription 0 silently lost.
        let mut plan = Plan::new();
        plan.subscribe("e1", vec![toy("a", 1), toy("b", 2)]);
        plan.subscribe("e2", vec![toy("a", 1)]);
        run_plan(
            &Pool::new(2),
            0,
            &plan,
            None,
            None,
            ExecConfig::default(),
            |_, _| {},
            |res: SubscriptionResult<Toy>| {
                if res.subscription == 0 {
                    panic!("reducer hook exploded");
                }
            },
        );
    }

    #[test]
    fn subset_runs_skip_unready_subscriptions() {
        let mut plan = Plan::new();
        plan.subscribe("wide", vec![toy("a", 1), toy("b", 2)]);
        plan.subscribe("narrow", vec![toy("a", 1)]);
        let fired = Mutex::new(Vec::new());
        let (results, _) = run_plan(
            &Pool::new(2),
            0,
            &plan,
            Some(&[0]),
            None,
            ExecConfig::default(),
            |_, _| {},
            |res: SubscriptionResult<Toy>| fired.lock().unwrap().push(res.subscription),
        );
        assert_eq!(*fired.lock().unwrap(), vec![1], "only 'narrow' is ready");
        assert!(results[0].is_some());
        assert!(results[1].is_none(), "spec outside the shard did not run");
    }

    #[test]
    fn sequential_run_matches_pool_run() {
        let mut plan = Plan::new();
        plan.subscribe("e", (0..7).map(|i| toy("s", i)).collect());
        let seq = plan.run_sequential(0);
        let (par, _) = run_list(&Pool::new(3), &plan, None, ExecConfig::default(), |_, _| {});
        for (a, b) in seq.iter().zip(par) {
            assert_eq!(*a, b.unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_in_range() {
        let mut plan = Plan::new();
        plan.subscribe("e", vec![toy("a", 1)]);
        let _ = plan.shard_indices(2, 2);
    }

    use crate::cache::DirCache;

    fn cache_scratch(name: &str) -> DirCache {
        let dir =
            std::env::temp_dir().join(format!("ebrc-plan-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DirCache::new(dir)
    }

    /// Shorthand for the expected (cache, events) core of a run's
    /// stats — wall-clock timings are checked separately since they
    /// are not reproducible.
    fn stats(hits: usize, misses: usize, events: u64) -> (CacheCounters, u64) {
        (CacheCounters { hits, misses }, events)
    }

    /// The reproducible core of a [`RunStats`].
    fn core(s: &RunStats) -> (CacheCounters, u64) {
        (s.cache, s.events)
    }

    /// Runs the whole plan with no subscription callback, flattening
    /// the per-spec results to plain values — for tests that assert on
    /// specs as a list rather than on subscriptions.
    fn run_list<S: CacheableSpec<Output = u64>>(
        pool: &Pool,
        plan: &Plan<S>,
        cache: Option<&DirCache>,
        exec: ExecConfig,
        progress: impl Fn(usize, usize) + Sync,
    ) -> (Vec<Result<u64, String>>, RunStats) {
        let cache = cache.map(|c| c as &dyn OutputCache);
        let (results, stats) = run_plan(pool, 0, plan, None, cache, exec, progress, |_| {});
        let flat = results
            .into_iter()
            .map(|r| r.expect("every spec selected").map(|out| *out))
            .collect();
        (flat, stats)
    }

    /// (per-spec results, stats, per-subscription fired outputs).
    type CachedRun = (Vec<Option<SpecResult<Toy>>>, RunStats, Vec<Vec<u64>>);

    fn run_cached(plan: &Plan<Toy>, cache: &DirCache) -> CachedRun {
        let fired = Mutex::new(vec![Vec::new(); plan.subscriptions().len()]);
        let (results, counters) = run_plan(
            &Pool::new(3),
            0,
            plan,
            None,
            Some(cache),
            ExecConfig::default(),
            |_, _| {},
            |res: SubscriptionResult<Toy>| {
                // A failed subscription leaves its row empty.
                if let Ok(outs) = res.outcome {
                    fired.lock().unwrap()[res.subscription] = outs.iter().map(|o| **o).collect();
                }
            },
        );
        (results, counters, fired.into_inner().unwrap())
    }

    #[test]
    fn warm_plan_runs_execute_nothing_and_match_cold_runs() {
        let mut plan = Plan::new();
        plan.subscribe("e1", vec![toy("a", 1), toy("b", 2)]);
        plan.subscribe("e2", vec![toy("b", 2), toy("c", 3)]);
        let cache = cache_scratch("warm");
        let (cold, c0, fired_cold) = run_cached(&plan, &cache);
        assert_eq!(
            core(&c0),
            stats(0, 3, 6),
            "cold run executes and dispatches"
        );
        // One timing row per executed spec, sorted by key, events
        // matching what each spec reported.
        let rows: Vec<(&str, u64, u32)> = c0
            .timings
            .iter()
            .map(|t| (t.key.as_str(), t.events, t.slices))
            .collect();
        assert_eq!(
            rows,
            vec![("toy/a/v1", 1, 1), ("toy/b/v2", 2, 1), ("toy/c/v3", 3, 1)]
        );
        let (warm, c1, fired_warm) = run_cached(&plan, &cache);
        assert_eq!(core(&c1), stats(3, 0, 0), "warm run executes nothing");
        assert!(c1.timings.is_empty(), "hits get no timing rows");
        // Byte-for-byte the same outputs, and every subscription fires
        // with identical reduce-order inputs.
        for (a, b) in cold.iter().zip(&warm) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(**a.as_ref().unwrap(), **b.as_ref().unwrap());
        }
        assert_eq!(fired_cold, fired_warm);
        assert_eq!(fired_warm, vec![vec![2, 4], vec![4, 6]]);
        // Without a cache every spec is a miss, with the cold run's
        // outputs and per-spec cost rows.
        let (bare, cb) = run_list(&Pool::new(3), &plan, None, ExecConfig::default(), |_, _| {});
        assert_eq!(core(&cb), stats(0, 3, 6));
        assert_eq!(bare, vec![Ok(2), Ok(4), Ok(6)]);
        let bare_rows: Vec<(&str, u64, u32)> = cb
            .timings
            .iter()
            .map(|t| (t.key.as_str(), t.events, t.slices))
            .collect();
        assert_eq!(bare_rows, rows);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entries_re_execute_instead_of_poisoning() {
        let mut plan = Plan::new();
        plan.subscribe("e", vec![toy("a", 1), toy("b", 2)]);
        let cache = cache_scratch("corrupt");
        let _ = run_cached(&plan, &cache);
        // Truncate one entry; flip the other's payload.
        let h_a = stable_hash("toy/a/v1");
        std::fs::write(cache.entry_path(h_a), "{\"form").unwrap();
        let h_b = stable_hash("toy/b/v2");
        let text = std::fs::read_to_string(cache.entry_path(h_b)).unwrap();
        let flipped = text.replace("\"payload\":\"4\"", "\"payload\":\"5\"");
        assert_ne!(text, flipped, "payload to corrupt must be present");
        std::fs::write(cache.entry_path(h_b), flipped).unwrap();
        let (results, counters, fired) = run_cached(&plan, &cache);
        assert_eq!(core(&counters), stats(0, 2, 3));
        assert_eq!(**results[0].as_ref().unwrap().as_ref().unwrap(), 2);
        assert_eq!(fired, vec![vec![2, 4]], "reduce saw fresh outputs");
        // The re-run repaired the entries.
        let (_, repaired, _) = run_cached(&plan, &cache);
        assert_eq!(core(&repaired), stats(2, 0, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn shard_subsets_only_cache_their_own_specs() {
        let mut plan = Plan::new();
        plan.subscribe("e", (0..6).map(|i| toy("s", i)).collect());
        let cache = cache_scratch("subset");
        let shard0 = plan.shard_indices(0, 2);
        let (results, counters) = run_plan(
            &Pool::new(2),
            0,
            &plan,
            Some(&shard0),
            Some(&cache),
            ExecConfig::default(),
            |_, _| {},
            |_| {},
        );
        assert_eq!(core(&counters), stats(0, 3, 6));
        assert!(results[1].is_none(), "outside the shard");
        assert_eq!(cache.entries().len(), 3);
        // Shard 1 misses everything; a repeat of shard 0 is all hits.
        let (_, c1) = run_plan(
            &Pool::new(2),
            0,
            &plan,
            Some(&plan.shard_indices(1, 2)),
            Some(&cache),
            ExecConfig::default(),
            |_, _| {},
            |_| {},
        );
        assert_eq!(core(&c1), stats(0, 3, 9));
        let (_, c0) = run_plan(
            &Pool::new(2),
            0,
            &plan,
            Some(&shard0),
            Some(&cache),
            ExecConfig::default(),
            |_, _| {},
            |_| {},
        );
        assert_eq!(core(&c0), stats(3, 0, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn failing_specs_are_not_cached() {
        let boom = Toy {
            name: "boom",
            value: 9,
            fail: true,
        };
        let mut plan = Plan::new();
        plan.subscribe("e", vec![toy("ok", 1), boom]);
        let cache = cache_scratch("fail");
        let c0 = run_cached(&plan, &cache).1;
        assert_eq!(
            core(&c0),
            stats(0, 2, 1),
            "panicking specs contribute no events"
        );
        assert_eq!(c0.timings.len(), 1, "panicking specs get no timing row");
        // Only the successful spec was stored; the failure re-runs.
        let (results, c1, _) = run_cached(&plan, &cache);
        assert_eq!(core(&c1), stats(1, 1, 0));
        assert!(results[1].as_ref().unwrap().is_err());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    // -----------------------------------------------------------------
    // Cost-model scheduling and sliced execution.
    // -----------------------------------------------------------------

    /// A toy spec with an explicit cost hint and an optional sliced
    /// run: `work` counts down `budget` at a time, recording one event
    /// per unit, and the output is `value * 2` exactly like [`Toy`] —
    /// so sliced and monolithic paths must agree bit-for-bit.
    #[derive(Debug, Clone)]
    struct Sliceable {
        name: &'static str,
        value: u64,
        work: u64,
    }

    struct SliceableState {
        value: u64,
        left: u64,
    }

    impl SlicedRun for SliceableState {
        type Output = u64;
        fn resume(mut self: Box<Self>, ctx: &mut JobCtx, budget: u64) -> SliceStep<u64> {
            let step = self.left.min(budget.max(1));
            self.left -= step;
            ctx.record_events(step);
            if self.left == 0 {
                SliceStep::Done(self.value * 2)
            } else {
                SliceStep::Pending(self)
            }
        }
    }

    impl Spec for Sliceable {
        type Output = u64;
        fn key(&self) -> String {
            format!("sl/{}/v{}", self.name, self.value)
        }
        fn run(&self, ctx: &mut JobCtx) -> u64 {
            ctx.record_events(self.work);
            self.value * 2
        }
        fn cost_hint(&self) -> u64 {
            self.work
        }
        fn start_sliced(&self, ctx: &mut JobCtx, budget: u64) -> SliceStep<u64> {
            Box::new(SliceableState {
                value: self.value,
                left: self.work,
            })
            .resume(ctx, budget)
        }
    }

    impl CacheableSpec for Sliceable {
        fn encode_output(out: &u64) -> String {
            format!("{out}")
        }
        fn decode_output(text: &str) -> Result<u64, String> {
            text.parse::<u64>().map_err(|e| e.to_string())
        }
    }

    /// What a [`Gauged`] sweep observed: run states alive right now and
    /// at peak, specs in completion order, and slices executed.
    #[derive(Default)]
    struct Gauge {
        live: AtomicUsize,
        peak: AtomicUsize,
        completed: Mutex<Vec<u64>>,
        slices: AtomicUsize,
    }

    /// A sliceable toy whose run state is counted by a shared gauge: up
    /// in `start_sliced`, down on `Done`. With `fail_on_slice: Some(k)`
    /// its `k`-th slice panics.
    #[derive(Clone)]
    struct Gauged {
        value: u64,
        work: u64,
        fail_on_slice: Option<usize>,
        gauge: Arc<Gauge>,
    }

    struct GaugedState {
        value: u64,
        left: u64,
        slice: usize,
        fail_on_slice: Option<usize>,
        gauge: Arc<Gauge>,
    }

    impl SlicedRun for GaugedState {
        type Output = u64;
        fn resume(mut self: Box<Self>, ctx: &mut JobCtx, budget: u64) -> SliceStep<u64> {
            self.slice += 1;
            self.gauge.slices.fetch_add(1, Ordering::Relaxed);
            if self.fail_on_slice == Some(self.slice) {
                self.gauge.live.fetch_sub(1, Ordering::Relaxed);
                panic!("slice {} exploded", self.slice);
            }
            let step = self.left.min(budget.max(1));
            self.left -= step;
            ctx.record_events(step);
            if self.left > 0 {
                return SliceStep::Pending(self);
            }
            self.gauge.live.fetch_sub(1, Ordering::Relaxed);
            self.gauge.completed.lock().unwrap().push(self.value);
            SliceStep::Done(self.value * 2)
        }
    }

    impl Spec for Gauged {
        type Output = u64;
        fn key(&self) -> String {
            format!("gauged/v{}", self.value)
        }
        fn run(&self, ctx: &mut JobCtx) -> u64 {
            match self.start_sliced(ctx, u64::MAX) {
                SliceStep::Done(out) => out,
                SliceStep::Pending(_) => unreachable!("an unbounded slice finishes"),
            }
        }
        fn cost_hint(&self) -> u64 {
            self.work
        }
        fn start_sliced(&self, ctx: &mut JobCtx, budget: u64) -> SliceStep<u64> {
            let live = self.gauge.live.fetch_add(1, Ordering::Relaxed) + 1;
            self.gauge.peak.fetch_max(live, Ordering::Relaxed);
            Box::new(GaugedState {
                value: self.value,
                left: self.work,
                slice: 0,
                fail_on_slice: self.fail_on_slice,
                gauge: Arc::clone(&self.gauge),
            })
            .resume(ctx, budget)
        }
    }

    impl CacheableSpec for Gauged {
        fn encode_output(out: &u64) -> String {
            format!("{out}")
        }
        fn decode_output(text: &str) -> Result<u64, String> {
            text.parse::<u64>().map_err(|e| e.to_string())
        }
    }

    /// `n` gauged specs with repeating, tied amounts of work.
    fn gauged(n: u64, gauge: &Arc<Gauge>) -> Vec<Gauged> {
        (0..n)
            .map(|value| Gauged {
                value,
                work: 2 + (value * 7) % 5,
                fail_on_slice: None,
                gauge: Arc::clone(gauge),
            })
            .collect()
    }

    #[test]
    fn a_sliced_sweep_holds_at_most_one_live_run_per_worker() {
        for threads in [1, 2, 8] {
            let gauge = Arc::new(Gauge::default());
            let mut plan = Plan::new();
            plan.subscribe("bound", gauged(3 * threads as u64 + 1, &gauge));
            let (out, stats) = run_list(
                &Pool::new(threads),
                &plan,
                None,
                ExecConfig::sliced(1),
                |_, _| {},
            );
            assert!(out.iter().all(Result::is_ok));
            assert!(
                stats.timings.iter().all(|t| t.slices > 1),
                "every spec sliced"
            );
            let peak = gauge.peak.load(Ordering::Relaxed);
            assert!(
                peak <= threads,
                "{peak} runs alive at once on {threads} workers"
            );
            assert_eq!(gauge.live.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn one_worker_completes_specs_in_longest_first_order() {
        let probe = Arc::new(Gauge::default());
        let specs = gauged(11, &probe);
        let expected: Vec<u64> = longest_first((0..specs.len()).collect(), &specs)
            .into_iter()
            .map(|i| specs[i].value)
            .collect();
        for budget in [None, Some(1), Some(2), Some(3), Some(1000)] {
            let gauge = Arc::new(Gauge::default());
            let mut plan = Plan::new();
            plan.subscribe("order", gauged(11, &gauge));
            let exec = ExecConfig {
                slice_events: budget,
                ..ExecConfig::default()
            };
            run_list(&Pool::new(1), &plan, None, exec, |_, _| {});
            let completed = gauge.completed.lock().unwrap().clone();
            assert_eq!(completed, expected, "budget={budget:?}");
        }
    }

    #[test]
    fn a_spec_panicking_mid_run_fails_only_its_slot_and_runs_no_later_slice() {
        for threads in [1, 2] {
            let gauge = Arc::new(Gauge::default());
            let boom_gauge = Arc::new(Gauge::default());
            let specs = gauged(3, &gauge);
            let boom = Gauged {
                value: 9,
                work: 10,
                fail_on_slice: Some(3),
                gauge: Arc::clone(&boom_gauge),
            };
            let mut plan = Plan::new();
            plan.subscribe("bad", vec![specs[0].clone(), boom]);
            plan.subscribe("good", specs);
            let failed = Mutex::new(Vec::new());
            let progress_calls = AtomicUsize::new(0);
            let (results, stats) = run_plan(
                &Pool::new(threads),
                0,
                &plan,
                None,
                None,
                ExecConfig::sliced(1),
                |_, _| {
                    progress_calls.fetch_add(1, Ordering::Relaxed);
                },
                |res: SubscriptionResult<Gauged>| {
                    failed
                        .lock()
                        .unwrap()
                        .push((res.subscription, res.outcome.is_err()));
                },
            );
            let mut failed = failed.into_inner().unwrap();
            failed.sort_unstable();
            assert_eq!(failed, vec![(0, true), (1, false)]);
            assert_eq!(boom_gauge.slices.load(Ordering::Relaxed), 3);
            let err = results[1].as_ref().unwrap().as_ref().unwrap_err();
            assert_eq!(err, "slice 3 exploded");
            for idx in [0, 2, 3] {
                assert!(results[idx].as_ref().unwrap().is_ok());
            }
            assert_eq!(stats.timings.len(), 3, "the failed spec has no row");
            assert_eq!(progress_calls.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    fn progress_fires_once_per_spec_not_per_slice() {
        let gauge = Arc::new(Gauge::default());
        let mut plan = Plan::new();
        plan.subscribe("progress", gauged(6, &gauge));
        let (calls, max_seen) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let (_, stats) = run_list(
            &Pool::new(3),
            &plan,
            None,
            ExecConfig::sliced(1),
            |done, total| {
                assert!(done <= total);
                calls.fetch_add(1, Ordering::Relaxed);
                max_seen.fetch_max(done, Ordering::Relaxed);
            },
        );
        let slices: u32 = stats.timings.iter().map(|t| t.slices).sum();
        assert!(slices > 6, "specs ran sliced");
        assert_eq!(calls.load(Ordering::Relaxed), 6, "one callback per spec");
        assert_eq!(max_seen.load(Ordering::Relaxed), 6);
    }

    #[test]
    #[should_panic(expected = "progress exploded")]
    fn a_panicking_progress_callback_is_re_raised_with_its_message() {
        let gauge = Arc::new(Gauge::default());
        let mut plan = Plan::new();
        plan.subscribe("progress", gauged(4, &gauge));
        run_list(
            &Pool::new(2),
            &plan,
            None,
            ExecConfig::sliced(1),
            |done, _| {
                if done == 2 {
                    panic!("progress exploded");
                }
            },
        );
    }

    #[test]
    fn longest_first_orders_by_descending_hint_with_stable_ties() {
        let specs: Vec<Sliceable> = [(0, 5u64), (1, 9), (2, 5), (3, 0), (4, 9)]
            .iter()
            .map(|&(i, w)| Sliceable {
                name: "lf",
                value: i,
                work: w,
            })
            .collect();
        let order = longest_first((0..specs.len()).collect(), &specs);
        assert_eq!(order, vec![1, 4, 0, 2, 3]);
    }

    #[test]
    fn sliced_execution_is_bit_identical_at_any_budget_and_thread_count() {
        let mut plan = Plan::new();
        plan.subscribe(
            "big",
            (0..9u64)
                .map(|i| Sliceable {
                    name: "mix",
                    value: i,
                    work: 1 + (i * 13) % 40,
                })
                .collect(),
        );
        plan.subscribe(
            "sub",
            vec![Sliceable {
                name: "mix",
                value: 4,
                work: 1 + (4 * 13) % 40,
            }],
        );
        let sequential = plan.run_sequential(0);
        for threads in [1, 2, 8] {
            for budget in [None, Some(1), Some(7), Some(1000)] {
                let fired = Mutex::new(vec![Vec::new(); plan.subscriptions().len()]);
                let (results, stats) = run_plan(
                    &Pool::new(threads),
                    0,
                    &plan,
                    None,
                    None,
                    ExecConfig {
                        slice_events: budget,
                        ..ExecConfig::default()
                    },
                    |_, _| {},
                    |res: SubscriptionResult<Sliceable>| {
                        let outs: Vec<u64> = res.outcome.unwrap().iter().map(|o| **o).collect();
                        fired.lock().unwrap()[res.subscription] = outs;
                    },
                );
                for (seq, got) in sequential.iter().zip(&results) {
                    assert_eq!(
                        *seq,
                        **got.as_ref().unwrap().as_ref().unwrap(),
                        "threads={threads} budget={budget:?}"
                    );
                }
                // Events survive slicing: every unit of work recorded
                // exactly once no matter how the run was chopped up.
                assert_eq!(
                    stats.events,
                    (0..9u64).map(|i| 1 + (i * 13) % 40).sum::<u64>(),
                    "threads={threads} budget={budget:?}"
                );
                let fired = fired.into_inner().unwrap();
                assert_eq!(fired[0], sequential.to_vec());
                assert_eq!(fired[1], vec![sequential[4]]);
                // Slice counts line up with the budget: ceil(work/budget)
                // for sliceable specs.
                if let Some(b) = budget {
                    for t in &stats.timings {
                        let work = t.events;
                        assert_eq!(t.slices as u64, work.div_ceil(b), "key={}", t.key);
                    }
                }
            }
        }
    }

    /// The straggler test: one sim 10× longer than the rest must not
    /// bound a two-worker pool's wall-clock. The toy sims *sleep*
    /// (their cost is time, not CPU), so the comparison measures
    /// scheduling — it holds even on a single-core host.
    #[derive(Debug, Clone)]
    struct Sleeper {
        id: u64,
        ms: u64,
    }

    struct SleeperState {
        left_ms: u64,
        id: u64,
    }

    impl SlicedRun for SleeperState {
        type Output = u64;
        fn resume(mut self: Box<Self>, ctx: &mut JobCtx, budget: u64) -> SliceStep<u64> {
            let step = self.left_ms.min(budget.max(1));
            std::thread::sleep(std::time::Duration::from_millis(step));
            ctx.record_events(step);
            self.left_ms -= step;
            if self.left_ms == 0 {
                SliceStep::Done(self.id)
            } else {
                SliceStep::Pending(self)
            }
        }
    }

    impl Spec for Sleeper {
        type Output = u64;
        fn key(&self) -> String {
            format!("sleep/{}/ms{}", self.id, self.ms)
        }
        fn run(&self, ctx: &mut JobCtx) -> u64 {
            std::thread::sleep(std::time::Duration::from_millis(self.ms));
            ctx.record_events(self.ms);
            self.id
        }
        fn cost_hint(&self) -> u64 {
            self.ms
        }
        fn start_sliced(&self, ctx: &mut JobCtx, budget: u64) -> SliceStep<u64> {
            Box::new(SleeperState {
                left_ms: self.ms,
                id: self.id,
            })
            .resume(ctx, budget)
        }
    }

    impl CacheableSpec for Sleeper {
        fn encode_output(out: &u64) -> String {
            format!("{out}")
        }
        fn decode_output(text: &str) -> Result<u64, String> {
            text.parse::<u64>().map_err(|e| e.to_string())
        }
    }

    #[test]
    fn a_single_huge_spec_no_longer_bounds_wall_clock() {
        // One 120 ms straggler + twelve 12 ms sims ≈ 264 ms serial.
        // Longest-first starts the straggler at once, and the other
        // worker drains the short sims, stealing the straggler's
        // worker's share from the back of its deque: ≈ max(120, 264/2)
        // = 132 ms. We assert the generous bound of 75% of the
        // measured serial wall to stay robust under CI noise. Slicing
        // plays no part — the straggler's 6 ms slices run back to back
        // on its worker, and the bound holds monolithic too. Sleeping
        // sims parallelize even on one core, so this exercises the
        // scheduler, not the host's core count.
        let mut specs = vec![Sleeper { id: 0, ms: 120 }];
        specs.extend((1..13).map(|id| Sleeper { id, ms: 12 }));
        let mut plan = Plan::new();
        plan.subscribe("stragglers", specs);
        let exec = ExecConfig::sliced(6);
        let serial_start = Instant::now();
        let (serial_out, _) = run_list(&Pool::new(1), &plan, None, exec.clone(), |_, _| {});
        let serial = serial_start.elapsed();
        let par_start = Instant::now();
        let (par_out, _) = run_list(&Pool::new(2), &plan, None, exec, |_, _| {});
        let par = par_start.elapsed();
        assert_eq!(serial_out, par_out);
        assert!(
            par < serial.mul_f64(0.75),
            "two workers did not beat serial: serial={serial:?} par={par:?}"
        );
    }

    #[test]
    fn traced_runs_bypass_the_cache_and_stamp_trace_paths() {
        let mut plan = Plan::new();
        plan.subscribe("traced", (0..3).map(|i| toy("tr", i)).collect());
        let cache = cache_scratch("trace");
        let pool = Pool::new(2);
        // Warm the cache, then trace: every spec must re-execute (a
        // hit would produce no trace) and write its per-spec file.
        let (_, c0) = run_list(&pool, &plan, Some(&cache), ExecConfig::default(), |_, _| {});
        assert_eq!(core(&c0), stats(0, 3, 3));
        let dir = std::env::temp_dir().join(format!("ebrc-trace-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let tc = TraceConfig::per_spec(&dir);
        let exec = ExecConfig {
            trace: Some(tc.clone()),
            ..ExecConfig::default()
        };
        let (traced, c1) = run_list(&pool, &plan, Some(&cache), exec, |_, _| {});
        assert_eq!(core(&c1), stats(0, 3, 3), "tracing forces execution");
        for spec in plan.specs() {
            let path = tc.path_for(&spec.key());
            assert_eq!(std::fs::read_to_string(&path).unwrap(), spec.key());
        }
        // Traced outputs are the same computation — identical results.
        assert_eq!(traced, vec![Ok(0), Ok(2), Ok(4)]);
        // A single-file config routes every key to the one destination.
        let single = TraceConfig::single(dir.join("one.pftrace"));
        assert_eq!(single.path_for("a"), single.path_for("b"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_cancelled_run_fails_fast_without_executing_or_caching() {
        // A pre-cancelled token: no spec may execute, nothing may be
        // written to the cache, and every slot reports CANCELLED.
        let mut plan = Plan::new();
        plan.subscribe("cancelled", (0..4).map(|i| toy("cancel", i)).collect());
        let cache = cache_scratch("cancel");
        let token = CancelToken::new();
        token.cancel();
        let exec = ExecConfig::default().with_cancel(token);
        let (out, stats) = run_list(&Pool::new(2), &plan, Some(&cache), exec, |_, _| {});
        assert_eq!(stats.events, 0, "cancelled specs dispatch no events");
        assert!(stats.timings.is_empty(), "cancelled specs record no cost");
        for r in &out {
            assert_eq!(r.as_ref().unwrap_err(), CANCELLED);
        }
        assert!(cache.entries().is_empty(), "cancelled specs never cached");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_live_token_cancels_between_slices() {
        // Cancel from inside the first completing sim: with one worker
        // the remaining queued sims must fail fast as CANCELLED rather
        // than execute (their slice chain polls the token on entry).
        let token = CancelToken::new();
        let specs: Vec<Sliceable> = (0..6)
            .map(|i| Sliceable {
                name: "live",
                value: i,
                work: 4,
            })
            .collect();
        let mut plan = Plan::new();
        plan.subscribe("live", specs);
        let t = token.clone();
        let progress = move |_done: usize, _total: usize| t.cancel();
        let exec = ExecConfig::default().with_cancel(token);
        let (out, _) = run_list(&Pool::new(1), &plan, None, exec, progress);
        let cancelled = out.iter().filter(|r| r.is_err()).count();
        let finished = out.iter().filter(|r| r.is_ok()).count();
        assert_eq!(cancelled + finished, plan.unique_len());
        assert!(
            cancelled >= plan.unique_len() - 1,
            "cancellation did not drain"
        );
        for r in out.iter().filter(|r| r.is_err()) {
            assert_eq!(r.as_ref().unwrap_err(), CANCELLED);
        }
    }
}
