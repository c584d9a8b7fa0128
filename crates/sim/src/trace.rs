//! The engine's opt-in observability seam.
//!
//! A [`TraceSink`] observes the dispatch loop from inside: the engine
//! calls [`TraceSink::on_event`] for every event it delivers, and
//! components volunteer richer signals — numeric time series via
//! [`Context::trace_counter`](crate::Context::trace_counter) and
//! point-in-time markers via
//! [`Context::trace_instant`](crate::Context::trace_instant) — that
//! reach the same sink. All hooks are behind one `Option<Box<dyn
//! TraceSink>>` on the engine: when no sink is installed (the default,
//! and the only configuration the golden corpus and the ledger's gated
//! runs ever see) every hook is an inlined `None` check and the dispatch
//! loop is unchanged.
//!
//! The sink sees *simulation* time, never wall clock, so a recorded
//! trace is as deterministic as the run itself — byte-identical at any
//! thread count, shard count, or slice budget. `Any` is a supertrait
//! so a harness can downcast the sink back out after a run
//! ([`Engine::take_tracer`](crate::Engine::take_tracer)) and serialize
//! whatever it accumulated; `Send` keeps a traced engine `Send`, which
//! the runner's `SlicedRun` requires of a paused run.

use crate::engine::ComponentId;
use std::any::Any;

/// Observer of a single engine's dispatch loop.
///
/// Implementations accumulate state (an in-memory Perfetto trace, an
/// event histogram, a debug log) and are recovered by downcast via
/// [`Engine::take_tracer`](crate::Engine::take_tracer) when the run
/// ends. Methods take `&mut self` and simulation time in seconds.
pub trait TraceSink<E>: Any + Send {
    /// Called for every dispatched event, immediately before the target
    /// component's handler runs.
    fn on_event(&mut self, now: f64, target: ComponentId, event: &E);

    /// A named numeric sample attributed to `component` at time `now`
    /// (queue depths, rates, windows).
    fn on_counter(&mut self, now: f64, component: ComponentId, name: &'static str, value: f64);

    /// A named point-in-time marker attributed to `component` (loss
    /// events, timeouts, state transitions).
    fn on_instant(&mut self, now: f64, component: ComponentId, name: &'static str);
}
