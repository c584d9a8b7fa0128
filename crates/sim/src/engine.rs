//! The dispatch loop: clock, FIFO lanes, calendar, components.
//!
//! Pending events live in one of three places. An emission whose
//! delivery time equals the clock (`clock + delay == clock`: a zero
//! delay, or one so small the clock's `f64` absorbs it) goes to the
//! **same-instant lane**; any other whose delay some component declared
//! as its [`Component::fixed_delay`] goes to that delay's **fixed-delay
//! lane**; both are plain FIFOs. Everything else — timers, jittered
//! delays, whatever [`Engine::schedule`] files — goes to the
//! [`Calendar`]. About half of a packet simulation's events are
//! zero-delay hops (endpoint → bottleneck, link → delay box, demux →
//! endpoint) and a third to a half of the rest are packets crossing a
//! propagation delay: the lanes serve both with a `VecDeque` push and
//! pop instead of a round trip through the timer wheel, and at 10⁴
//! flows keep four fifths of the pending set out of it.
//!
//! **Lane invariant.** Every lane is sorted by `(time, seq)`, so its
//! front is its minimum: `seq` only grows, and times never shrink. In
//! the same-instant lane every time equals the clock, which never
//! moves while that lane is non-empty. In a fixed-delay lane every time
//! is `fl(clock + d)` for the lane's one `d`, whoever sent it: the
//! clock never runs backwards and `f64` addition rounds monotonically.
//! The same-instant test comes first, so a declared delay the clock
//! absorbs is a same-instant hop like any other.
//!
//! **Dispatch order.** The next event is the `(time, seq)` minimum of
//! the lane fronts and the calendar head, found with at most one probe
//! of the calendar: a [`Calendar::pop_not_after`] bounded by the
//! earliest lane front (or the horizon) answers "does the calendar come
//! first?" and "with which event?" together. Only a tie on the instant
//! needs `seq` compared, and a calendar event that loses one is pushed
//! back. (On `manyflow_10k` about 5 % of timed instants are ties — the
//! delay is 35 200 serialization times exactly, so a `TxDone` keeps
//! meeting the delivery of the packet sent that many slots earlier —
//! and the calendar loses a ninth of them.) A front at the clock's own
//! instant usually needs no probe: nothing pending lies before the
//! clock, so the calendar precedes it only with an event at that very
//! instant, which one [`Calendar::next_is_at`] per instant rules out.
//! The order is exactly the one a calendar-only engine produces.
//!
//! **Direct filing.** An event moves once, from the [`Context::send`]
//! that creates it to the `handle` that consumes it: the context
//! borrows the engine's `seq` counter, lanes and calendar, and `send`
//! files each emission straight into the queue it waits in, numbered in
//! emission order. Components stay in their slots while they run; the
//! context cannot reach them, so none can re-enter.
//!
//! The hot path is allocation-free on the steady state: dispatching an
//! event touches the heap only when the calendar or a lane has to grow
//! past its high-water mark. [`Engine::with_capacity`] reserves the
//! wheel's event slab and the component slab up front and
//! [`Engine::reserve_delay_lane`] a fixed-delay lane, so with hints
//! that cover the peak of each neither reallocates once events fire;
//! the same-instant lane starts small and grows (once) to the widest
//! fan-out any handler produces.

use crate::calendar::{Calendar, Scheduled, WheelCalendar};
use crate::trace::TraceSink;
use std::any::Any;
use std::collections::VecDeque;

/// Panics unless `delay` is a finite, non-negative number of seconds.
///
/// A NaN time would poison the `(time, seq)` total order every
/// calendar sorts by, and an infinite time names an event that can
/// never fire — both are scheduling bugs worth failing loudly on.
#[inline]
fn check_delay(delay: f64) {
    assert!(
        delay.is_finite(),
        "non-finite delay {delay}: event times must be finite or the \
         (time, seq) dispatch order breaks"
    );
    assert!(delay >= 0.0, "negative delay {delay}");
}

/// The lane for events emitted with exactly `delay`, if declared.
#[inline]
fn delay_lane<E>(
    lanes: &mut [(f64, VecDeque<Scheduled<E>>)],
    delay: f64,
) -> Option<&mut VecDeque<Scheduled<E>>> {
    let lane = lanes.iter_mut().find(|l| l.0 == delay)?;
    Some(&mut lane.1)
}

/// Identifies a component registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(usize);

impl ComponentId {
    /// The raw index (stable for the lifetime of the engine).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A simulation actor: queues, links, protocol endpoints, traffic
/// sources.
///
/// `Any` is a supertrait (automatic for `'static` types), so harnesses
/// can downcast components back out of the engine after a run via
/// [`Engine::get`]/[`Engine::get_mut`] — the upcast to `dyn Any` is
/// built in, and implementations only write their `handle` logic.
///
/// `Send` is a supertrait so a *whole engine* is `Send`: a run paused
/// mid-flight by [`Engine::run_budgeted`] can be parked and resumed on
/// a different worker thread (the runner's sliced-execution path).
/// Components are plain state plus owned RNG streams, so this costs
/// implementations nothing.
pub trait Component<E: 'static>: Any + Send {
    /// Handles one event delivered at simulation time `now`.
    ///
    /// Emit follow-up events through `ctx`; never hold references to
    /// other components.
    fn handle(&mut self, now: f64, event: E, ctx: &mut Context<E>);

    /// The one constant delay this component forwards with, if it has
    /// one — a propagation pipe does, a pacing timer does not.
    /// [`Engine::add`] reads it once: from then on an event emitted (by
    /// anyone) with exactly this delay waits in a FIFO lane, not the
    /// calendar — one delay delivers in emission order. A routing hint
    /// only: the dispatch order is the same whatever a component answers.
    fn fixed_delay(&self) -> Option<f64> {
        None
    }
}

/// Event-emission interface handed to a component while it runs.
///
/// It borrows the engine's pending state for one `handle` — the `seq`
/// counter, the lanes, the calendar — so [`Context::send`] files each
/// event where it waits (see the module docs), and the engine's tracer
/// slot (`None` unless a sink was installed), so
/// [`Context::trace_counter`]/[`Context::trace_instant`] reach the
/// same observer as the dispatch hook.
pub struct Context<'a, E> {
    now: f64,
    self_id: ComponentId,
    /// Registered components: a target's index must lie below.
    components: usize,
    seq: &'a mut u64,
    lane: &'a mut VecDeque<Scheduled<E>>,
    delay_lanes: &'a mut [(f64, VecDeque<Scheduled<E>>)],
    calendar: &'a mut dyn Calendar<E>,
    tracer: &'a mut Option<Box<dyn TraceSink<E>>>,
}

impl<E> std::fmt::Debug for Context<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .field("traced", &self.tracer.is_some())
            .finish_non_exhaustive()
    }
}

impl<E: 'static> Context<'_, E> {
    /// Schedules `event` for `target` after `delay ≥ 0` seconds: into
    /// the same-instant lane if the clock absorbs `delay`, else into the
    /// lane of a declared fixed delay, else into the calendar.
    ///
    /// # Panics
    /// Panics on negative or non-finite delays — an event in the past
    /// would corrupt the clock, and a NaN or infinite time would break
    /// the `(time, seq)` dispatch order — and on an unknown target.
    pub fn send(&mut self, delay: f64, target: ComponentId, event: E) {
        check_delay(delay);
        assert!(target.0 < self.components, "unknown component");
        let item = Scheduled {
            time: self.now + delay,
            seq: *self.seq,
            target: target.0,
            event,
        };
        *self.seq += 1;
        if item.time == self.now {
            self.lane.push_back(item);
        } else if let Some(lane) = delay_lane(self.delay_lanes, delay) {
            debug_assert!(lane.back().is_none_or(|b| b.time <= item.time));
            lane.push_back(item);
        } else {
            self.calendar.push(item);
        }
    }

    /// Schedules `event` for the current component itself (timers).
    pub fn send_self(&mut self, delay: f64, event: E) {
        let id = self.self_id;
        self.send(delay, id, event);
    }

    /// Records a named numeric sample against the current component on
    /// the installed [`TraceSink`]. A no-op (one inlined `None` check)
    /// when the engine runs untraced — instrumented components cost
    /// nothing on the ledger-gated hot path.
    #[inline]
    pub fn trace_counter(&mut self, name: &'static str, value: f64) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.on_counter(self.now, self.self_id, name, value);
        }
    }

    /// Records a named point-in-time marker against the current
    /// component on the installed [`TraceSink`]. A no-op when untraced.
    #[inline]
    pub fn trace_instant(&mut self, name: &'static str) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.on_instant(self.now, self.self_id, name);
        }
    }
}

/// Why a budgeted run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Nothing is pending: the lanes and the calendar all emptied.
    Idle,
    /// The next event lies strictly beyond the requested horizon.
    Horizon,
    /// The event budget was exhausted (the clock stays at the last
    /// dispatched event).
    Budget,
}

/// How far a [`Engine::run_budgeted`] call may go: a time horizon, an
/// event budget, or both. The constructors spell the three common
/// shapes; mix freely with struct syntax when a caller wants both
/// bounds at once (the sliced-run path does exactly that).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunLimit {
    /// Dispatch no event scheduled strictly after this time.
    pub horizon: f64,
    /// Dispatch at most this many events in this call.
    pub max_events: u64,
}

impl RunLimit {
    /// Both bounds at once: run to `horizon`, but never dispatch more
    /// than `max_events` in this call.
    pub fn new(horizon: f64, max_events: u64) -> Self {
        Self {
            horizon,
            max_events,
        }
    }

    /// Time bound only — the [`Engine::run_until`] shape.
    pub fn until(horizon: f64) -> Self {
        Self::new(horizon, u64::MAX)
    }

    /// Event bound only — the [`Engine::run_to_completion`] shape.
    pub fn events(max_events: u64) -> Self {
        Self::new(f64::INFINITY, max_events)
    }
}

/// What a [`Engine::run_budgeted`] call did: how many events it
/// dispatched and why it returned. Replaces the old `(u64, StopReason)`
/// tuple so call sites name what they read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "inspect the stop reason — Budget means the run is unfinished"]
pub struct RunOutcome {
    /// Events dispatched by this call (not the engine lifetime total).
    pub events: u64,
    /// Why the loop stopped.
    pub reason: StopReason,
}

impl RunOutcome {
    /// True when the run stopped because the event budget ran out — the
    /// caller should resume with a fresh budget to make progress.
    pub fn exhausted(&self) -> bool {
        self.reason == StopReason::Budget
    }
}

/// How many distinct declared delays get a FIFO lane (first come); a
/// later declaration leaves that delay's events on the calendar.
const MAX_DELAY_LANES: usize = 4;

/// The discrete-event engine: clock + same-instant lane + fixed-delay
/// lanes + calendar + components.
///
/// The whole pending set — lanes included — is owned state, so a run
/// paused by [`Engine::run_budgeted`] carries it along when the engine
/// moves to another worker thread.
///
/// Generic over its [`Calendar`] implementation; the default
/// [`WheelCalendar`] gives O(1) steady-state schedule/pop, and
/// [`crate::calendar::HeapCalendar`] remains available (via
/// [`Engine::with_calendar`]) as the reference the wheel is
/// property-tested against. Every calendar serves events in the same
/// `(time, seq)` total order, so swapping one for another changes no
/// output bit.
pub struct Engine<E: 'static, C: Calendar<E> = WheelCalendar<E>> {
    clock: f64,
    seq: u64,
    /// Events due at exactly `clock`, in ascending `seq` (see the
    /// module docs for the invariant).
    lane: VecDeque<Scheduled<E>>,
    /// Per declared [`Component::fixed_delay`] (at most
    /// [`MAX_DELAY_LANES`]): the events emitted with exactly that delay,
    /// in emission order.
    delay_lanes: Vec<(f64, VecDeque<Scheduled<E>>)>,
    queue: C,
    components: Vec<Box<dyn Component<E>>>,
    processed: u64,
    /// Opt-in dispatch observer, borrowed by the [`Context`] per
    /// dispatch. `None` (the default) keeps every trace hook a single
    /// inlined branch.
    tracer: Option<Box<dyn TraceSink<E>>>,
}

impl<E: 'static, C: Calendar<E>> std::fmt::Debug for Engine<E, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("clock", &self.clock)
            .field("seq", &self.seq)
            .field("processed", &self.processed)
            .field("lane_len", &self.lane.len())
            .field(
                "delay_lanes_len",
                &self.delay_lanes.iter().map(|l| l.1.len()).sum::<usize>(),
            )
            .field("calendar_len", &self.queue.len())
            .field("components", &self.components.len())
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl<E: 'static, C: Calendar<E>> Default for Engine<E, C> {
    fn default() -> Self {
        Self::with_calendar(C::with_capacity(0), 0)
    }
}

impl<E: 'static> Engine<E> {
    /// Creates an engine at time zero with an empty calendar.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Creates an engine pre-sized for `components` registered actors
    /// and `calendar` pending events. Scenario builders that know
    /// their topology pass hints here: the calendar hint reserves (but
    /// does not touch) the wheel's event slab, so a hint that covers
    /// the peak pending set means the calendar never reallocates
    /// mid-run.
    pub fn with_capacity(components: usize, calendar: usize) -> Self {
        Self::with_calendar(WheelCalendar::with_capacity(calendar), components)
    }
}

impl<E: 'static, C: Calendar<E>> Engine<E, C> {
    /// Creates an engine around an explicit calendar implementation,
    /// pre-sized for `components` registered actors. This is how the
    /// property tests and probes run the same workload on the heap
    /// and the wheel.
    pub fn with_calendar(calendar: C, components: usize) -> Self {
        Self {
            clock: 0.0,
            seq: 0,
            lane: VecDeque::with_capacity(8),
            delay_lanes: Vec::new(),
            queue: calendar,
            components: Vec::with_capacity(components),
            processed: 0,
            tracer: None,
        }
    }

    /// Installs a [`TraceSink`] that observes every dispatch from now
    /// on. Replaces any previously installed sink.
    pub fn set_tracer(&mut self, tracer: Box<dyn TraceSink<E>>) {
        self.tracer = Some(tracer);
    }

    /// Removes and returns the installed [`TraceSink`], if any — the
    /// post-run recovery point. Downcast it (via `Box<dyn Any>`) to the
    /// concrete sink type to read what it recorded.
    pub fn take_tracer(&mut self) -> Option<Box<dyn TraceSink<E>>> {
        self.tracer.take()
    }

    /// Registers a component, returning its id, and opens the FIFO lane
    /// of its [`Component::fixed_delay`], if it declares a new one.
    pub fn add(&mut self, component: Box<dyn Component<E>>) -> ComponentId {
        if let Some(delay) = component.fixed_delay() {
            // A zero delay always lands on the clock's own instant.
            let new = delay > 0.0 && delay_lane(&mut self.delay_lanes, delay).is_none();
            if new && self.delay_lanes.len() < MAX_DELAY_LANES {
                self.delay_lanes.push((delay, VecDeque::new()));
            }
        }
        self.components.push(component);
        ComponentId(self.components.len() - 1)
    }

    /// Reserves exactly `events` slots in the FIFO lane of the declared
    /// delay `delay` (rate × delay for a pipe) — what
    /// [`Engine::with_capacity`] does for the calendar; unreserved, the
    /// lane doubles its way up. A no-op if nobody declared `delay`.
    pub fn reserve_delay_lane(&mut self, delay: f64, events: usize) {
        if let Some(lane) = delay_lane(&mut self.delay_lanes, delay) {
            lane.reserve_exact(events);
        }
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Whether nothing is pending, in a lane or the calendar.
    pub fn is_idle(&self) -> bool {
        self.fifo_front().is_none() && self.queue.is_empty()
    }

    /// Schedules an event from outside any component (experiment setup).
    ///
    /// Always files into the calendar, even at `delay == 0.0` or a
    /// declared delay between two budgeted slices: the dispatch loop
    /// orders the calendar head against the lanes on `(time, seq)`, so
    /// the event fires after every same-instant event already pending.
    ///
    /// # Panics
    /// Panics on a negative or non-finite delay, or an unknown target.
    pub fn schedule(&mut self, delay: f64, target: ComponentId, event: E) {
        check_delay(delay);
        assert!(target.0 < self.components.len(), "unknown component");
        let seq = self.next_seq();
        self.queue.push(Scheduled {
            time: self.clock + delay,
            seq,
            target: target.0,
            event,
        });
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// The `(time, seq)` minimum over the FIFO lanes — each front is
    /// its own lane's — and the delay lane it waits in (`None`: the
    /// same-instant lane).
    #[inline]
    fn fifo_front(&self) -> Option<(f64, u64, Option<usize>)> {
        let mut best = self.lane.front().map(|f| (f.time, f.seq, None));
        for (i, lane) in self.delay_lanes.iter().enumerate() {
            if let Some(f) = lane.1.front() {
                if best.is_none_or(|(time, seq, _)| (f.time, f.seq) < (time, seq)) {
                    best = Some((f.time, f.seq, Some(i)));
                }
            }
        }
        best
    }

    /// Takes the front [`Engine::fifo_front`] just reported.
    #[inline]
    fn pop_fifo(&mut self, lane: Option<usize>) -> Scheduled<E> {
        let queue = match lane {
            Some(i) => &mut self.delay_lanes[i].1,
            None => &mut self.lane,
        };
        queue.pop_front().expect("peeked")
    }

    /// Dispatches events until nothing is pending or the next event
    /// lies strictly beyond `t_end`; the clock finishes at `t_end` (or at
    /// the last event, whichever is later). Returns the number of events
    /// dispatched by this call.
    ///
    /// Convenience forwarder for
    /// `run_budgeted(RunLimit::until(t_end))` — prefer the budgeted
    /// core when the caller also needs a stop reason or an event bound.
    pub fn run_until(&mut self, t_end: f64) -> u64 {
        self.run_budgeted(RunLimit::until(t_end)).events
    }

    /// The single dispatch loop behind every run entry point: dispatches
    /// events until nothing is pending, the next event lies strictly
    /// beyond `limit.horizon`, or `limit.max_events` have been
    /// dispatched by this call — whichever comes first.
    ///
    /// [`Engine::run_until`] and [`Engine::run_to_completion`] are thin
    /// forwarders over this core (one bound each); callers that need both bounds — the runner's
    /// sliced-run path hands a sim a time horizon *and* an event budget
    /// so one straggler costs a bounded slice of a worker instead of
    /// pinning it — pass a full [`RunLimit`]. On [`StopReason::Budget`]
    /// the clock stays at the last dispatched event, so resuming with a
    /// fresh budget and the same horizon continues bit-exactly where
    /// the previous slice stopped; otherwise the clock finishes at the
    /// horizon (or the last event, whichever is later).
    pub fn run_budgeted(&mut self, limit: RunLimit) -> RunOutcome {
        let RunLimit {
            horizon: t_end,
            max_events,
        } = limit;
        let before = self.processed;
        // Whether the calendar head is known to lie strictly after the
        // clock. Whatever a handler sends the calendar is strictly
        // later too, so once learned this holds until the clock moves.
        let mut calendar_is_later = false;
        let reason = loop {
            if self.processed - before >= max_events {
                break StopReason::Budget;
            }
            let fifo = self.fifo_front();
            let item = match fifo {
                // A front at the clock's own instant, and nothing in
                // the calendar there to order it against: no probe.
                Some((time, _, lane))
                    if time == self.clock
                        && (calendar_is_later || !self.queue.next_is_at(time)) =>
                {
                    if time > t_end {
                        break StopReason::Horizon;
                    }
                    calendar_is_later = true;
                    self.pop_fifo(lane)
                }
                // Else one probe, bounded by what its head has to beat.
                _ => {
                    let bound = fifo.map_or(t_end, |(time, ..)| time.min(t_end));
                    match self.queue.pop_not_after(bound) {
                        Some(head) => {
                            calendar_is_later = false;
                            match fifo {
                                // A tie on the instant, lost on scheduling
                                // order: the calendar keeps its event.
                                Some((time, seq, lane)) if head.time == time && head.seq > seq => {
                                    self.queue.push(head);
                                    self.pop_fifo(lane)
                                }
                                _ => head,
                            }
                        }
                        None => match fifo {
                            // The calendar holds nothing up to `time`,
                            // about to be the clock.
                            Some((time, _, lane)) if time <= t_end => {
                                calendar_is_later = true;
                                self.pop_fifo(lane)
                            }
                            None if self.queue.is_empty() => break StopReason::Idle,
                            _ => break StopReason::Horizon,
                        },
                    }
                }
            };
            debug_assert!(item.time >= self.clock, "time went backwards");
            debug_assert!(
                self.lane.is_empty() || item.time == self.clock,
                "clock moved while the lane held same-instant events"
            );
            self.clock = item.time;
            self.dispatch(item);
        };
        if !matches!(reason, StopReason::Budget) && t_end.is_finite() && self.clock < t_end {
            debug_assert!(self.lane.is_empty(), "clock moved past a non-empty lane");
            self.clock = t_end;
        }
        RunOutcome {
            events: self.processed - before,
            reason,
        }
    }

    /// Drains every pending event (up to `max_events`), returning
    /// the number of events dispatched. Use for scenarios whose sources
    /// stop on their own; the budget guards against the ones that don't.
    ///
    /// Convenience forwarder for
    /// `run_budgeted(RunLimit::events(max_events))`.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        self.run_budgeted(RunLimit::events(max_events)).events
    }

    fn dispatch(&mut self, item: Scheduled<E>) {
        self.processed += 1;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.on_event(self.clock, ComponentId(item.target), &item.event);
        }
        let mut ctx = Context {
            now: self.clock,
            self_id: ComponentId(item.target),
            components: self.components.len(),
            seq: &mut self.seq,
            lane: &mut self.lane,
            delay_lanes: &mut self.delay_lanes,
            calendar: &mut self.queue,
            tracer: &mut self.tracer,
        };
        self.components[item.target].handle(self.clock, item.event, &mut ctx);
    }

    /// Immutable downcast access to a component's concrete type.
    ///
    /// # Panics
    /// Panics if the id is unknown or the type does not match.
    pub fn get<T: Component<E>>(&self, id: ComponentId) -> &T {
        let component: &dyn Any = &*self.components[id.0];
        component
            .downcast_ref::<T>()
            .expect("component type mismatch")
    }

    /// Mutable downcast access to a component's concrete type.
    ///
    /// # Panics
    /// Panics if the id is unknown or the type does not match.
    pub fn get_mut<T: Component<E>>(&mut self, id: ComponentId) -> &mut T {
        let component: &mut dyn Any = &mut *self.components[id.0];
        component
            .downcast_mut::<T>()
            .expect("component type mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Ping(u32),
        Tick,
    }

    /// Records every event it sees with its arrival time.
    struct Recorder {
        log: Vec<(f64, Ev)>,
    }

    impl Component<Ev> for Recorder {
        fn handle(&mut self, now: f64, event: Ev, _ctx: &mut Context<Ev>) {
            self.log.push((now, event));
        }
    }

    /// The `Ping` ids `rec` logged, in arrival order (`u32::MAX` for a
    /// `Tick`).
    fn pings(eng: &Engine<Ev>, rec: ComponentId) -> Vec<u32> {
        eng.get::<Recorder>(rec)
            .log
            .iter()
            .map(|(_, e)| match e {
                Ev::Ping(n) => *n,
                Ev::Tick => u32::MAX,
            })
            .collect()
    }

    /// Emits a Tick to a peer every `period` until `t_stop`.
    struct Ticker {
        period: f64,
        t_stop: f64,
        peer: ComponentId,
        fired: u32,
    }

    impl Component<Ev> for Ticker {
        fn handle(&mut self, now: f64, _event: Ev, ctx: &mut Context<Ev>) {
            self.fired += 1;
            ctx.send(0.0, self.peer, Ev::Tick);
            if now + self.period <= self.t_stop {
                ctx.send_self(self.period, Ev::Tick);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        eng.schedule(3.0, rec, Ev::Ping(3));
        eng.schedule(1.0, rec, Ev::Ping(1));
        eng.schedule(2.0, rec, Ev::Ping(2));
        eng.run_until(10.0);
        assert_eq!(pings(&eng, rec), vec![1, 2, 3]);
        assert_eq!(eng.now(), 10.0);
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        for i in 0..10 {
            eng.schedule(5.0, rec, Ev::Ping(i));
        }
        eng.run_until(5.0);
        assert_eq!(pings(&eng, rec), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        eng.schedule(1.0, rec, Ev::Ping(1));
        eng.schedule(100.0, rec, Ev::Ping(2));
        assert_eq!(eng.run_until(50.0), 1);
        assert!(!eng.is_idle());
        assert_eq!(eng.run_until(150.0), 1);
        assert!(eng.is_idle());
    }

    #[test]
    fn ticker_self_schedules() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let ticker = eng.add(Box::new(Ticker {
            period: 1.0,
            t_stop: 5.0,
            peer: rec,
            fired: 0,
        }));
        eng.schedule(0.0, ticker, Ev::Tick);
        eng.run_until(10.0);
        // Fires at t = 0, 1, 2, 3, 4, 5.
        assert_eq!(eng.get::<Ticker>(ticker).fired, 6);
        assert_eq!(eng.get::<Recorder>(rec).log.len(), 6);
    }

    #[test]
    fn event_budget_caps_dispatch_count() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        for i in 0..5 {
            eng.schedule(i as f64, rec, Ev::Ping(i));
        }
        assert_eq!(eng.run_budgeted(RunLimit::events(3)).events, 3);
        assert_eq!(eng.get::<Recorder>(rec).log.len(), 3);
        assert_eq!(eng.now(), 2.0, "clock stays at the last event");
        assert_eq!(eng.run_budgeted(RunLimit::events(10)).events, 2);
        assert_eq!(eng.now(), 4.0, "idle run leaves the clock at the tail");
    }

    #[test]
    fn clock_is_monotone_across_zero_delay_chains() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let ticker = eng.add(Box::new(Ticker {
            period: 0.0,
            t_stop: -1.0, // never reschedules
            peer: rec,
            fired: 0,
        }));
        eng.schedule(2.0, ticker, Ev::Tick);
        eng.run_until(2.0);
        let r: &Recorder = eng.get(rec);
        assert_eq!(r.log.len(), 1);
        assert_eq!(r.log[0].0, 2.0);
    }

    #[test]
    fn get_mut_allows_post_run_mutation() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        eng.schedule(0.0, rec, Ev::Ping(7));
        eng.run_until(1.0);
        eng.get_mut::<Recorder>(rec).log.clear();
        assert!(eng.get::<Recorder>(rec).log.is_empty());
    }

    #[test]
    fn run_budgeted_stops_on_each_reason() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        for i in 0..5 {
            eng.schedule(i as f64, rec, Ev::Ping(i));
        }
        // Budget first: only 2 of the 3 events at t ≤ 2 fit.
        let out = eng.run_budgeted(RunLimit::new(2.0, 2));
        assert_eq!(
            out,
            RunOutcome {
                events: 2,
                reason: StopReason::Budget
            }
        );
        assert!(out.exhausted());
        assert_eq!(eng.now(), 1.0, "clock stays at the last event on Budget");
        // Horizon next: one event left at t = 2.
        let out = eng.run_budgeted(RunLimit::new(3.5, 10));
        assert_eq!(
            out,
            RunOutcome {
                events: 2,
                reason: StopReason::Horizon
            }
        );
        assert!(!out.exhausted());
        assert_eq!(eng.now(), 3.5);
        // Idle last: drain the rest.
        let out = eng.run_budgeted(RunLimit::new(100.0, 10));
        assert_eq!(
            out,
            RunOutcome {
                events: 1,
                reason: StopReason::Idle
            }
        );
        assert_eq!(eng.now(), 100.0);
    }

    #[test]
    fn run_to_completion_drains_without_inventing_a_clock() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        eng.schedule(1.0, rec, Ev::Ping(1));
        eng.schedule(7.5, rec, Ev::Ping(2));
        assert_eq!(eng.run_to_completion(u64::MAX), 2);
        assert!(eng.is_idle());
        assert_eq!(eng.now(), 7.5, "clock ends at the last event, not ∞");
    }

    #[test]
    fn run_to_completion_respects_the_event_budget() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let ticker = eng.add(Box::new(Ticker {
            period: 1.0,
            t_stop: f64::INFINITY, // never stops on its own
            peer: rec,
            fired: 0,
        }));
        eng.schedule(0.0, ticker, Ev::Tick);
        // Ticker + recorder each consume one dispatch per period.
        assert_eq!(eng.run_to_completion(50), 50);
        assert!(!eng.is_idle(), "budget must stop a runaway source");
    }

    #[test]
    fn run_until_matches_budgeted_with_unlimited_budget() {
        let build = || {
            let mut eng = Engine::new();
            let rec = eng.add(Box::new(Recorder { log: vec![] }));
            let ticker = eng.add(Box::new(Ticker {
                period: 0.5,
                t_stop: 20.0,
                peer: rec,
                fired: 0,
            }));
            eng.schedule(0.0, ticker, Ev::Tick);
            eng
        };
        let mut a = build();
        let mut b = build();
        let na = a.run_until(13.0);
        let out = b.run_budgeted(RunLimit::until(13.0));
        assert_eq!(na, out.events);
        assert_eq!(out.reason, StopReason::Horizon);
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut plain = Engine::new();
        let mut sized = Engine::with_capacity(4, 64);
        for eng in [&mut plain, &mut sized] {
            let rec = eng.add(Box::new(Recorder { log: vec![] }));
            let ticker = eng.add(Box::new(Ticker {
                period: 0.5,
                t_stop: 10.0,
                peer: rec,
                fired: 0,
            }));
            eng.schedule(0.0, ticker, Ev::Tick);
            eng.run_until(10.0);
        }
        assert_eq!(plain.events_processed(), sized.events_processed());
        assert_eq!(plain.now(), sized.now());
        assert_eq!(
            plain.get::<Recorder>(ComponentId(0)).log,
            sized.get::<Recorder>(ComponentId(0)).log
        );
    }

    /// A component whose handler emits `fan` events at once, every one
    /// filed into the calendar from inside the handler.
    struct FanOut {
        fan: u32,
        peer: ComponentId,
    }

    impl Component<Ev> for FanOut {
        fn handle(&mut self, _now: f64, _event: Ev, ctx: &mut Context<Ev>) {
            for i in 0..self.fan {
                ctx.send(0.5 + f64::from(i), self.peer, Ev::Ping(i));
            }
        }
    }

    #[test]
    fn fan_out_bursts_land_once_each_in_order() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let fan = eng.add(Box::new(FanOut { fan: 32, peer: rec }));
        // Two bursts: every emission must land exactly once, in
        // deterministic order.
        eng.schedule(0.0, fan, Ev::Tick);
        eng.schedule(100.0, fan, Ev::Tick);
        eng.run_until(300.0);
        let ids = pings(&eng, rec);
        assert_eq!(ids.len(), 64);
        assert_eq!(ids[..32], (0..32).collect::<Vec<_>>());
        assert_eq!(eng.events_processed(), 66);
    }

    /// Forwards each event to `peer` with `delay` — zero for a lane
    /// hop, tiny for an fp-absorbed one.
    struct Hop {
        delay: f64,
        peer: ComponentId,
    }

    impl Component<Ev> for Hop {
        fn handle(&mut self, _now: f64, event: Ev, ctx: &mut Context<Ev>) {
            ctx.send(self.delay, self.peer, event);
        }
    }

    #[test]
    fn lane_events_count_as_pending_work() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let hop = eng.add(Box::new(Hop {
            delay: 0.0,
            peer: rec,
        }));
        eng.schedule(1.0, hop, Ev::Ping(1));
        let out = eng.run_budgeted(RunLimit::events(1));
        assert_eq!(out.reason, StopReason::Budget);
        // The only pending event sits in the lane, not the calendar.
        assert!(!eng.is_idle());
        assert!(format!("{eng:?}").contains("lane_len: 1"));
        // A horizon before the clock leaves it there, clock untouched.
        let out = eng.run_budgeted(RunLimit::until(0.5));
        assert_eq!((out.events, out.reason), (0, StopReason::Horizon));
        assert_eq!(eng.now(), 1.0);
        let out = eng.run_budgeted(RunLimit::until(2.0));
        assert_eq!((out.events, out.reason), (1, StopReason::Idle));
        assert!(eng.is_idle());
        assert_eq!(eng.get::<Recorder>(rec).log, vec![(1.0, Ev::Ping(1))]);
    }

    #[test]
    fn same_instant_ties_between_lane_and_calendar_resolve_by_seq() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let hop = eng.add(Box::new(Hop {
            delay: 0.0,
            peer: rec,
        }));
        // Two timers at one instant: the hop's emission (lane) is
        // younger than the second timer (calendar), so it fires last.
        eng.schedule(1.0, hop, Ev::Ping(1));
        eng.schedule(1.0, rec, Ev::Ping(2));
        assert_eq!(eng.run_budgeted(RunLimit::events(1)).events, 1);
        // Filed from outside while the lane holds Ping(1): same
        // instant, largest seq — fires after both.
        eng.schedule(0.0, rec, Ev::Ping(3));
        eng.run_until(5.0);
        assert_eq!(pings(&eng, rec), vec![2, 1, 3]);
        assert!(eng.get::<Recorder>(rec).log.iter().all(|(t, _)| *t == 1.0));
    }

    /// [`Hop`] that declares its delay, as a propagation pipe does.
    struct Pipe {
        delay: f64,
        peer: ComponentId,
    }

    impl Component<Ev> for Pipe {
        fn handle(&mut self, _now: f64, event: Ev, ctx: &mut Context<Ev>) {
            ctx.send(self.delay, self.peer, event);
        }

        fn fixed_delay(&self) -> Option<f64> {
            Some(self.delay)
        }
    }

    /// How many events wait in the same-instant lane, in each delay
    /// lane and in the calendar.
    fn lens(eng: &Engine<Ev>) -> (usize, Vec<usize>, usize) {
        let delay_lanes = eng.delay_lanes.iter().map(|l| l.1.len()).collect();
        (eng.lane.len(), delay_lanes, eng.queue.len())
    }

    #[test]
    fn delay_lane_ties_with_the_calendar_resolve_by_seq() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let pipe = eng.add(Box::new(Pipe {
            delay: 1.0,
            peer: rec,
        }));
        // Three events due at t = 2: a timer older than the pipe's
        // delivery, the delivery, and a timer filed after it.
        eng.schedule(2.0, rec, Ev::Ping(1));
        eng.schedule(1.0, pipe, Ev::Ping(2));
        eng.run_until(1.5);
        assert_eq!(lens(&eng), (0, vec![1], 1));
        eng.schedule(0.5, rec, Ev::Ping(3));
        eng.run_until(5.0);
        assert_eq!(pings(&eng, rec), vec![1, 2, 3]);
        assert!(eng.get::<Recorder>(rec).log.iter().all(|(t, _)| *t == 2.0));

        // The same tie met from an earlier clock, with nothing older in
        // the calendar: the probe pops the younger timer and loses.
        eng.schedule(1.0, pipe, Ev::Ping(4));
        eng.run_until(6.5);
        eng.schedule(0.5, rec, Ev::Ping(5));
        eng.run_until(9.0);
        assert_eq!(pings(&eng, rec)[3..], [4, 5]);
        assert!(eng.is_idle());
    }

    #[test]
    fn two_delay_lanes_and_the_calendar_merge_at_one_instant() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let [slow, fast] = [1.0, 0.25].map(|delay| eng.add(Box::new(Pipe { delay, peer: rec })));
        // Everything below is due at t = 2, filed in the order of the
        // ids: calendar, slow lane, calendar, fast lane twice, calendar.
        eng.schedule(2.0, rec, Ev::Ping(0));
        eng.schedule(1.0, slow, Ev::Ping(1));
        eng.run_until(1.0);
        eng.schedule(1.0, rec, Ev::Ping(2));
        eng.schedule(0.75, fast, Ev::Ping(3));
        eng.schedule(0.75, fast, Ev::Ping(4));
        eng.run_until(1.75);
        eng.schedule(0.25, rec, Ev::Ping(5));
        assert_eq!(lens(&eng), (0, vec![1, 2], 3));
        eng.run_until(2.0);
        assert_eq!(pings(&eng, rec), (0..6).collect::<Vec<_>>());
        assert!(eng.get::<Recorder>(rec).log.iter().all(|(t, _)| *t == 2.0));
    }

    #[test]
    fn delay_lane_events_count_as_pending_work() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let pipe = eng.add(Box::new(Pipe {
            delay: 1.0,
            peer: rec,
        }));
        eng.schedule(1.0, pipe, Ev::Ping(1));
        assert_eq!(eng.run_budgeted(RunLimit::events(1)).events, 1);
        assert_eq!(lens(&eng), (0, vec![1], 0));
        assert!(!eng.is_idle());
        // Short of the delivery: not due, and the clock takes the horizon.
        let out = eng.run_budgeted(RunLimit::until(1.5));
        assert_eq!((out.events, out.reason), (0, StopReason::Horizon));
        assert_eq!(eng.now(), 1.5);
        let out = eng.run_budgeted(RunLimit::until(5.0));
        assert_eq!((out.events, out.reason), (1, StopReason::Idle));
        assert!(eng.is_idle());
        assert_eq!(eng.get::<Recorder>(rec).log, vec![(2.0, Ev::Ping(1))]);
    }

    #[test]
    fn schedule_with_a_declared_delay_keeps_its_place_in_line() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let pipe = eng.add(Box::new(Pipe {
            delay: 1.0,
            peer: rec,
        }));
        // Between two slices at t = 1, file an event with the pipe's
        // own delay: due at t = 2 after the delivery already in the
        // lane and before the one that enters it next.
        eng.schedule(1.0, pipe, Ev::Ping(1));
        assert_eq!(eng.run_budgeted(RunLimit::events(1)).events, 1);
        eng.schedule(1.0, rec, Ev::Ping(2));
        eng.schedule(0.0, pipe, Ev::Ping(3));
        eng.run_until(5.0);
        assert_eq!(pings(&eng, rec), vec![1, 2, 3]);
    }

    #[test]
    fn declarations_past_the_lane_cap_stay_on_the_calendar() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        // A zero delay needs no lane, a repeated one no second lane.
        let delays = [0.0, 0.5, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0];
        let pipes = delays.map(|delay| eng.add(Box::new(Pipe { delay, peer: rec })));
        for (i, pipe) in pipes.into_iter().enumerate() {
            eng.schedule(1.0, pipe, Ev::Ping(i as u32));
        }
        eng.run_until(1.0);
        assert_eq!(MAX_DELAY_LANES, 4);
        assert_eq!(lens(&eng), (0, vec![2, 1, 1, 1], 2));
        eng.run_until(5.0);
        assert_eq!(pings(&eng, rec), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fp_absorbed_delays_ride_the_lane_in_order() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let hop = eng.add(Box::new(Pipe {
            delay: 1e-12,
            peer: rec,
        }));
        // At t = 1e7 a picosecond is below the clock's resolution:
        // the hop's output lands on the same instant, after the timer
        // scheduled before it.
        eng.schedule(1e7, hop, Ev::Ping(1));
        eng.schedule(1e7, rec, Ev::Ping(2));
        assert_eq!(eng.run_budgeted(RunLimit::events(1)).events, 1);
        // Declared or not, an absorbed delay is a same-instant hop.
        assert_eq!(lens(&eng), (1, vec![0], 1));
        eng.run_until(2e7);
        assert_eq!(pings(&eng, rec), vec![2, 1]);
        assert_eq!(eng.get::<Recorder>(rec).log[1].0, 1e7);
    }

    #[test]
    fn paused_engine_carries_its_lane_across_threads() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let fan = eng.add(Box::new(FanOut { fan: 3, peer: rec }));
        let hop = eng.add(Box::new(Hop {
            delay: 0.0,
            peer: fan,
        }));
        let pipe = eng.add(Box::new(Pipe {
            delay: 2.0,
            peer: rec,
        }));
        eng.schedule(1.0, pipe, Ev::Ping(9));
        eng.schedule(1.0, hop, Ev::Tick);
        let out = eng.run_budgeted(RunLimit::events(2));
        assert_eq!((out.events, out.reason), (2, StopReason::Budget));
        // Paused with one event in each lane and none in the calendar.
        assert_eq!(lens(&eng), (1, vec![1], 0));
        let eng = std::thread::spawn(move || {
            eng.run_until(10.0);
            eng
        })
        .join()
        .expect("resumed run");
        // The fan's pings land at 1.5, 2.5 and 3.5, the pipe's at 3.
        assert_eq!(pings(&eng, rec), vec![0, 1, 9, 2]);
    }

    #[test]
    #[should_panic(expected = "negative delay")]
    fn negative_delay_rejected() {
        let mut eng: Engine<Ev> = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        eng.schedule(-1.0, rec, Ev::Tick);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_downcast_panics() {
        let mut eng: Engine<Ev> = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let _: &Ticker = eng.get(rec);
    }

    #[test]
    #[should_panic(expected = "non-finite delay")]
    fn nan_delay_rejected_by_schedule() {
        let mut eng: Engine<Ev> = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        eng.schedule(f64::NAN, rec, Ev::Tick);
    }

    #[test]
    #[should_panic(expected = "non-finite delay")]
    fn infinite_delay_rejected_by_schedule() {
        let mut eng: Engine<Ev> = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        eng.schedule(f64::INFINITY, rec, Ev::Tick);
    }

    #[test]
    #[should_panic(expected = "non-finite delay")]
    fn negative_infinite_delay_rejected_by_schedule() {
        let mut eng: Engine<Ev> = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        eng.schedule(f64::NEG_INFINITY, rec, Ev::Tick);
    }

    /// Emits one event with a NaN delay — `Context::send` must reject
    /// it before it can reach the calendar.
    struct NanEmitter {
        peer: ComponentId,
    }

    impl Component<Ev> for NanEmitter {
        fn handle(&mut self, _now: f64, _event: Ev, ctx: &mut Context<Ev>) {
            ctx.send(f64::NAN, self.peer, Ev::Tick);
        }
    }

    #[test]
    #[should_panic(expected = "non-finite delay")]
    fn nan_delay_rejected_by_context_send() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let bad = eng.add(Box::new(NanEmitter { peer: rec }));
        eng.schedule(1.0, bad, Ev::Tick);
        eng.run_until(2.0);
    }

    /// Sends `Ping(id)` to `peer` with each `(delay, id)` of its script,
    /// in order, all from one dispatch.
    struct Script {
        sends: Vec<(f64, u32)>,
        peer: ComponentId,
    }

    impl Component<Ev> for Script {
        fn handle(&mut self, _now: f64, _event: Ev, ctx: &mut Context<Ev>) {
            for &(delay, id) in &self.sends {
                ctx.send(delay, self.peer, Ev::Ping(id));
            }
        }
    }

    #[test]
    fn one_dispatch_files_into_every_queue_in_emission_order() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        eng.add(Box::new(Pipe {
            delay: 1.0,
            peer: rec,
        }));
        // Not the declared delay, so the calendar's — but from t = 1 it
        // rounds onto t = 2, tying with the pipe lane's deliveries.
        let near = 1.0 + f64::EPSILON;
        assert_eq!(1.0 + near, 2.0);
        // Ids are arrival order: the two same-instant hops at t = 1, then
        // an older timer and the rest by emission at t = 2.
        let sends = vec![(0.0, 0), (1.0, 3), (near, 4), (0.0, 1), (1.0, 5), (near, 6)];
        let script = eng.add(Box::new(Script { sends, peer: rec }));
        eng.schedule(2.0, rec, Ev::Ping(2));
        eng.schedule(1.0, script, Ev::Tick);
        assert_eq!(eng.run_budgeted(RunLimit::events(1)).events, 1);
        assert_eq!(lens(&eng), (2, vec![2], 3));
        eng.run_until(5.0);
        assert_eq!(pings(&eng, rec), (0..7).collect::<Vec<_>>());
        let times: Vec<f64> = eng.get::<Recorder>(rec).log.iter().map(|e| e.0).collect();
        assert_eq!(times, [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "unknown component")]
    fn context_send_to_an_unknown_component_panics() {
        let mut eng = Engine::new();
        let stray = eng.add(Box::new(Hop {
            delay: 0.5,
            peer: ComponentId(7),
        }));
        eng.schedule(0.0, stray, Ev::Tick);
        eng.run_until(1.0);
    }

    /// A sink that logs everything it observes, for the hook tests.
    #[derive(Default)]
    struct LogSink {
        events: Vec<(f64, usize, String)>,
        counters: Vec<(f64, usize, &'static str, f64)>,
        instants: Vec<(f64, usize, &'static str)>,
    }

    impl crate::trace::TraceSink<Ev> for LogSink {
        fn on_event(&mut self, now: f64, target: ComponentId, event: &Ev) {
            self.events
                .push((now, target.index(), format!("{event:?}")));
        }
        fn on_counter(&mut self, now: f64, component: ComponentId, name: &'static str, value: f64) {
            self.counters.push((now, component.index(), name, value));
        }
        fn on_instant(&mut self, now: f64, component: ComponentId, name: &'static str) {
            self.instants.push((now, component.index(), name));
        }
    }

    /// Emits a counter and an instant on every dispatch.
    struct Instrumented;

    impl Component<Ev> for Instrumented {
        fn handle(&mut self, now: f64, _event: Ev, ctx: &mut Context<Ev>) {
            ctx.trace_counter("depth", now * 2.0);
            ctx.trace_instant("handled");
        }
    }

    #[test]
    fn tracer_observes_dispatches_counters_and_instants() {
        let mut eng = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        let ins = eng.add(Box::new(Instrumented));
        eng.set_tracer(Box::new(LogSink::default()));
        eng.schedule(1.0, rec, Ev::Ping(1));
        eng.schedule(2.0, ins, Ev::Tick);
        eng.run_until(5.0);
        let sink = eng.take_tracer().expect("tracer installed");
        assert!(eng.take_tracer().is_none());
        let any: Box<dyn std::any::Any> = sink;
        let sink = any.downcast::<LogSink>().expect("concrete sink type");
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0], (1.0, rec.index(), "Ping(1)".to_string()));
        assert_eq!(sink.counters, vec![(2.0, ins.index(), "depth", 4.0)]);
        assert_eq!(sink.instants, vec![(2.0, ins.index(), "handled")]);
    }

    #[test]
    fn untraced_trace_calls_are_noops() {
        let mut eng = Engine::new();
        let ins = eng.add(Box::new(Instrumented));
        eng.schedule(0.5, ins, Ev::Tick);
        // No tracer installed: instrumented handlers must run unchanged.
        assert_eq!(eng.run_until(1.0), 1);
        assert!(eng.take_tracer().is_none());
    }
}
