//! The engine-facing sink: turns dispatch-loop callbacks into a
//! Perfetto trace.
//!
//! [`PerfettoSink`] implements [`ebrc_sim::TraceSink`]: install it
//! with `Engine::set_tracer` and every dispatched event becomes a
//! zero-duration slice on its component's track (begin and end at the
//! same simulated nanosecond — durations inside a discrete-event sim
//! are attributions, not measurements), every
//! `Context::trace_counter` sample a point on a per-`(component,
//! name)` counter track nested under the component, and every
//! `Context::trace_instant` a named instant marker. Scenario builders
//! pre-register component names ([`PerfettoSink::register`]) so the
//! Perfetto UI shows "bottleneck" and "tfrc-snd-0" instead of raw slab
//! indices; unregistered components get a `component-N` track lazily.
//!
//! Everything the sink writes is keyed by simulation time and arrives
//! in dispatch order, so the recorded bytes are exactly as
//! deterministic as the run: byte-identical at any thread count,
//! shard count, or slice budget.

use crate::writer::TraceWriter;
use ebrc_sim::{ComponentId, TraceSink};
use std::collections::HashMap;

/// Converts simulation seconds to trace nanoseconds.
fn ts_ns(now: f64) -> u64 {
    debug_assert!(now >= 0.0 && now.is_finite());
    (now * 1e9).round() as u64
}

/// A [`TraceSink`] that records a Perfetto trace of an engine run.
///
/// Generic over the engine's event type; the `namer` function maps
/// each event to the static label its slices carry (e.g.
/// `ebrc_net::net_event_name`).
pub struct PerfettoSink<E> {
    writer: TraceWriter,
    namer: fn(&E) -> &'static str,
    root: u64,
    /// Component slab index → event track uuid, created on first use.
    tracks: HashMap<usize, u64>,
    /// `(component, counter name)` → counter track uuid.
    counters: HashMap<(usize, &'static str), u64>,
}

impl<E> PerfettoSink<E> {
    /// A sink whose slices are labelled by `namer`. The root track is
    /// named `sim`; component tracks nest under it.
    pub fn new(namer: fn(&E) -> &'static str) -> Self {
        let mut writer = TraceWriter::new();
        let root = writer.add_track("sim", None);
        Self {
            writer,
            namer,
            root,
            tracks: HashMap::new(),
            counters: HashMap::new(),
        }
    }

    /// Names `component`'s track and declares it immediately, so
    /// registration order (the scenario builder's wiring order) fixes
    /// the descriptor order in the file.
    pub fn register(&mut self, component: ComponentId, name: &str) {
        let uuid = self.writer.add_track(name, Some(self.root));
        self.tracks.insert(component.index(), uuid);
    }

    fn track_for(&mut self, component: ComponentId) -> u64 {
        let idx = component.index();
        if let Some(&t) = self.tracks.get(&idx) {
            return t;
        }
        let name = format!("component-{idx}");
        let uuid = self.writer.add_track(&name, Some(self.root));
        self.tracks.insert(idx, uuid);
        uuid
    }

    fn counter_track_for(&mut self, component: ComponentId, name: &'static str) -> u64 {
        let parent = self.track_for(component);
        let idx = component.index();
        if let Some(&t) = self.counters.get(&(idx, name)) {
            return t;
        }
        let uuid = self.writer.add_counter_track(name, Some(parent));
        self.counters.insert((idx, name), uuid);
        uuid
    }

    /// The finished trace bytes.
    pub fn finish(self) -> Vec<u8> {
        self.writer.finish()
    }

    /// Bytes recorded so far.
    pub fn len(&self) -> usize {
        self.writer.len()
    }

    /// Whether nothing has been recorded yet (a fresh sink still holds
    /// its root track descriptor, so this is false after `new`).
    pub fn is_empty(&self) -> bool {
        self.writer.is_empty()
    }
}

impl<E: 'static> TraceSink<E> for PerfettoSink<E> {
    fn on_event(&mut self, now: f64, target: ComponentId, event: &E) {
        let name = (self.namer)(event);
        let track = self.track_for(target);
        let ts = ts_ns(now);
        // Zero-duration slice: a dispatch is a point in simulated time.
        self.writer.slice_begin(track, ts, name);
        self.writer.slice_end(track, ts);
    }

    fn on_counter(&mut self, now: f64, component: ComponentId, name: &'static str, value: f64) {
        let track = self.counter_track_for(component, name);
        self.writer.counter(track, ts_ns(now), value);
    }

    fn on_instant(&mut self, now: f64, component: ComponentId, name: &'static str) {
        let track = self.track_for(component);
        self.writer.instant(track, ts_ns(now), name);
    }
}

/// Recovers a [`PerfettoSink`] previously installed on `engine` with
/// `Engine::set_tracer`. Returns `None` when no tracer is installed
/// or it is some other sink type.
pub fn take_sink<E: 'static>(engine: &mut ebrc_sim::Engine<E>) -> Option<PerfettoSink<E>> {
    let tracer = engine.take_tracer()?;
    let any: Box<dyn std::any::Any> = tracer;
    any.downcast::<PerfettoSink<E>>().ok().map(|b| *b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_trace;
    use ebrc_sim::{Component, Context, Engine};

    #[derive(Debug)]
    enum Ev {
        Ping,
        Pong,
    }

    fn name(e: &Ev) -> &'static str {
        match e {
            Ev::Ping => "ping",
            Ev::Pong => "pong",
        }
    }

    /// Re-arms itself `remaining` times, emitting a counter each
    /// dispatch and an instant at the end.
    struct Bouncer {
        remaining: u32,
    }

    impl Component<Ev> for Bouncer {
        fn handle(&mut self, _now: f64, _event: Ev, ctx: &mut Context<Ev>) {
            ctx.trace_counter("remaining", f64::from(self.remaining));
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send_self(0.5, Ev::Pong);
            } else {
                ctx.trace_instant("done");
            }
        }
    }

    fn traced_run(register: bool) -> Vec<u8> {
        let mut eng = Engine::new();
        let a = eng.add(Box::new(Bouncer { remaining: 3 }));
        let mut sink = PerfettoSink::new(name as fn(&Ev) -> &'static str);
        if register {
            sink.register(a, "bouncer");
        }
        eng.set_tracer(Box::new(sink));
        eng.schedule(1.0, a, Ev::Ping);
        eng.run_until(10.0);
        take_sink(&mut eng).expect("sink recoverable").finish()
    }

    #[test]
    fn engine_run_records_a_valid_trace() {
        let bytes = traced_run(true);
        let s = read_trace(&bytes).expect("recorded trace must validate");
        // sim root + bouncer + one counter track.
        assert_eq!(s.tracks, 3);
        assert_eq!(s.counter_tracks, 1);
        // 4 dispatches: Ping at t=1 then 3 self-Pongs.
        assert_eq!(s.slice_begins, 4);
        assert_eq!(s.slice_ends, 4);
        assert_eq!(s.counters, 4);
        assert_eq!(s.instants, 1);
        assert_eq!(s.min_ts, Some(1_000_000_000));
        assert_eq!(s.max_ts, Some(2_500_000_000));
    }

    #[test]
    fn identical_runs_record_identical_bytes() {
        assert_eq!(traced_run(true), traced_run(true));
    }

    #[test]
    fn unregistered_components_get_lazy_tracks() {
        let bytes = traced_run(false);
        let s = read_trace(&bytes).expect("valid");
        assert_eq!(s.tracks, 3, "root + lazy component track + counter");
        assert_eq!(s.slice_begins, 4);
    }

    #[test]
    fn take_sink_is_none_without_a_tracer() {
        let mut eng: Engine<Ev> = Engine::new();
        assert!(take_sink(&mut eng).is_none());
    }
}
