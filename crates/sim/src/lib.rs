//! Deterministic discrete-event simulation engine.
//!
//! This is the ns-2 stand-in of the reproduction: a single-threaded
//! event loop over components that exchange typed events through a
//! central calendar. The design follows the event-driven discipline of
//! embedded network stacks (smoltcp-style) rather than an async runtime —
//! the workload is CPU-bound, so threads and reactors would only add
//! nondeterminism.
//!
//! * [`Engine`] owns the clock, the pending events, and the components.
//!   Events due at the clock's own instant (zero-delay hops — about
//!   half of a packet simulation's events) wait in a FIFO *same-instant
//!   lane*, events sent with a delay a component declared fixed (packets
//!   in a propagation pipe) in that delay's FIFO lane, the rest — timers
//!   — in the calendar; the dispatch loop merges them on
//!   `(time, sequence)`.
//!   The calendar is one type, [`WheelCalendar`]: a calendar queue with
//!   O(1) steady-state schedule/pop (the many-flow scaling path) that
//!   fits its ring to the pending set and refits it by one rule. It
//!   serves events in ascending `(time, sequence)` order, so
//!   simultaneous events fire in scheduling order — fully
//!   deterministic. Times are finite: the engine rejects any other
//!   delay. The [`Calendar`] trait and the binary-heap
//!   [`HeapCalendar`] remain only as the reference the wheel is tested
//!   and benchmarked against; no engine runs on them.
//! * [`Component`] is the behaviour trait: `handle(now, event, ctx)` —
//!   and, for a pipe, the fixed delay it declares — nothing else, since
//!   the `Any` supertrait provides the downcast upcast for free.
//!   Components never touch each other directly; they emit events
//!   through the [`Context`], which borrows the engine's lanes and
//!   calendar and files each event there as it is sent — an event
//!   moves once, from `send` to `handle`. This message-only discipline
//!   is what makes replays exact.
//! * The dispatch loop is allocation-free on the steady state: nothing
//!   is buffered between a handler and the lanes, and
//!   [`Engine::with_capacity`] pre-sizes the calendar and component
//!   slab from scenario-builder hints.
//! * Components are registered with [`Engine::add`] and recovered after a
//!   run with [`Engine::get`]/[`Engine::get_mut`] (by-type downcast), so
//!   experiment harnesses can read their statistics.
//!
//! The event payload type `E` is chosen by the embedding crate
//! (`ebrc-net` instantiates it with its packet/timer enum).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod engine;
mod pending;
pub mod trace;

pub use calendar::{Calendar, HeapCalendar, Scheduled, WheelCalendar};
pub use engine::{Component, ComponentId, Context, Engine, RunLimit, RunOutcome, StopReason};
pub use trace::TraceSink;
