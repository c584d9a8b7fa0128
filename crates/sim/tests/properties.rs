//! Property tests: the engine delivers events in time order,
//! deterministically, exactly once.

use ebrc_sim::{Component, ComponentId, Context, Engine, RunLimit};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

struct Recorder {
    log: Vec<(f64, u32)>,
}

impl Component<u32> for Recorder {
    fn handle(&mut self, now: f64, ev: u32, _ctx: &mut Context<u32>) {
        self.log.push((now, ev));
    }
}

/// Follow-up rule shared by the [`Echo`] component and the naive
/// reference model: every third event id re-emits `id + 1` after a
/// deterministic delay (the chain stops immediately, since `id + 1` is
/// never divisible by three).
fn follow_up(ev: u32) -> Option<(f64, u32)> {
    ev.is_multiple_of(3)
        .then(|| ((ev % 7) as f64 * 0.1, ev + 1))
}

/// Records deliveries and re-emits per [`follow_up`] — so interleaved
/// run calls exercise events a handler files through its `Context`,
/// not just externally scheduled ones.
struct Echo {
    log: Vec<(f64, u32)>,
}

impl Component<u32> for Echo {
    fn handle(&mut self, now: f64, ev: u32, ctx: &mut Context<u32>) {
        self.log.push((now, ev));
        if let Some((delay, next)) = follow_up(ev) {
            ctx.send_self(delay, next);
        }
    }
}

/// What one event emits: `(delay, event)` pairs, in emission order.
type React<T> = Box<dyn Fn(&T) -> Vec<(f64, T)>>;

/// A naive reference engine: a flat `Vec` calendar scanned for the
/// `(time, seq)` minimum on every dispatch, no lanes, no wheel.
/// Quadratic and obviously correct — the oracle the real engine's run
/// paths are compared against. `react` is every component's handler
/// at once: the `(delay, event)` pairs an event emits, in order.
struct NaiveEngine<T> {
    clock: f64,
    seq: u64,
    pending: Vec<(f64, u64, T)>,
    /// `(time, seq, event)` per dispatch.
    log: Vec<(f64, u64, T)>,
    processed: u64,
    react: React<T>,
}

impl<T: Copy> NaiveEngine<T> {
    fn new(react: impl Fn(&T) -> Vec<(f64, T)> + 'static) -> Self {
        Self {
            clock: 0.0,
            seq: 0,
            pending: Vec::new(),
            log: Vec::new(),
            processed: 0,
            react: Box::new(react),
        }
    }

    fn schedule(&mut self, delay: f64, ev: T) {
        let time = self.clock + delay;
        let seq = self.seq;
        self.seq += 1;
        self.pending.push((time, seq, ev));
    }

    /// Index of the earliest pending event (ties by scheduling order).
    fn head(&self) -> Option<usize> {
        (0..self.pending.len()).reduce(|best, i| {
            let (bt, bs, _) = self.pending[best];
            let (t, s, _) = self.pending[i];
            if (t, s) < (bt, bs) {
                i
            } else {
                best
            }
        })
    }

    fn dispatch_head(&mut self, idx: usize) {
        let (time, seq, ev) = self.pending.remove(idx);
        self.clock = time;
        self.processed += 1;
        self.log.push((time, seq, ev));
        for (delay, next) in (self.react)(&ev) {
            self.schedule(delay, next);
        }
    }

    fn run_budgeted(&mut self, t_end: f64, max_events: u64) {
        let mut n = 0;
        let mut budget_hit = false;
        loop {
            if n >= max_events {
                budget_hit = true;
                break;
            }
            match self.head() {
                Some(idx) if self.pending[idx].0 <= t_end => {
                    self.dispatch_head(idx);
                    n += 1;
                }
                _ => break,
            }
        }
        if !budget_hit && t_end.is_finite() && self.clock < t_end {
            self.clock = t_end;
        }
    }

    fn run_until(&mut self, t_end: f64) {
        self.run_budgeted(t_end, u64::MAX);
    }

    fn run_events(&mut self, n: u64) {
        self.run_budgeted(f64::INFINITY, n);
    }
}

/// The naive model of a world of [`Echo`]s.
fn naive_echo() -> NaiveEngine<u32> {
    NaiveEngine::new(|&ev| follow_up(ev).into_iter().collect())
}

/// An event of the random component graphs: `id` mirrors the engine's
/// private `seq` (see [`Mirror`]), `ttl` bounds the cascade.
#[derive(Debug, Clone, Copy)]
struct Hop {
    id: u64,
    ttl: u8,
}

/// How an event came to be pending, as far as its sender can tell.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Road {
    /// Filed from outside, or sent with a delay nobody declared.
    Undeclared,
    /// Sent with the first declared delay, the one that has the lane.
    Lane,
    /// Sent with a delay declared after the first, so on the calendar.
    Later,
    /// Sent with a declared delay the clock absorbed (`1e-12` at `1e7`).
    Absorbed,
}

/// Test-side bookkeeping shared by every node of one graph run.
///
/// The engine assigns `seq` in the exact order `schedule`/`send` are
/// called, so counting those calls reproduces every event's `seq` —
/// which lets the log be checked against the full `(time, seq)`
/// dispatch order rather than time alone.
#[derive(Default)]
struct Mirror {
    /// The distinct positive delays declared to the engine, first come
    /// first.
    declared: Vec<f64>,
    /// Every event ever scheduled, by id.
    roads: Mutex<Vec<Road>>,
    /// `(time bits, id)` per dispatch; times are non-negative, so the
    /// bit patterns order like the times.
    log: Mutex<Vec<(u64, u64)>>,
}

impl Mirror {
    fn hop(&self, ttl: u8, road: Road) -> Hop {
        let mut roads = self.roads.lock().expect("roads lock");
        roads.push(road);
        Hop {
            id: roads.len() as u64 - 1,
            ttl,
        }
    }
}

/// A graph node: logs each arrival, then forwards one hop along every
/// out-edge until the ttl runs out.
struct Node {
    edges: Vec<(f64, ComponentId)>,
    mirror: Arc<Mirror>,
}

impl Component<Hop> for Node {
    fn handle(&mut self, now: f64, ev: Hop, ctx: &mut Context<Hop>) {
        let mut log = self.mirror.log.lock().expect("log lock");
        log.push((now.to_bits(), ev.id));
        if ev.ttl > 0 {
            for &(delay, target) in &self.edges {
                let road = match self.mirror.declared.iter().position(|d| *d == delay) {
                    None => Road::Undeclared,
                    Some(_) if now + delay == now => Road::Absorbed,
                    Some(0) => Road::Lane,
                    Some(_) => Road::Later,
                };
                ctx.send(delay, target, self.mirror.hop(ev.ttl - 1, road));
            }
        }
    }
}

/// Forwards nothing; exists to declare one [`Component::fixed_delay`].
struct Declarer(f64);

impl Component<Hop> for Declarer {
    fn handle(&mut self, _now: f64, _ev: Hop, _ctx: &mut Context<Hop>) {}

    fn fixed_delay(&self) -> Option<f64> {
        Some(self.0)
    }
}

/// One step of a graph run: file an event from outside, or dispatch a
/// 1–3 event slice.
#[derive(Debug, Clone)]
enum GraphOp {
    Schedule { delay: f64, node: usize, ttl: u8 },
    Slice(u64),
}

/// Delays that stress the lane/calendar boundary: exact zeros (lane),
/// a picosecond (lane at a large clock, calendar at a small one),
/// quarter-second multiples (distinct paths that land on one instant,
/// so the calendar holds same-instant events older than the lane's)
/// and arbitrary positive delays.
fn arb_delay() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => Just(0.0),
        1 => Just(1e-12),
        2 => (1u32..6).prop_map(|k| f64::from(k) * 0.25),
        2 => 0.001f64..2.0,
    ]
}

/// Runs `ops` on a graph of `edges.len()` nodes, with each of `declare`
/// declared to the engine as some component's fixed delay, drains it,
/// and returns the dispatch log plus the road of every event ever
/// scheduled. `start` pre-advances the clock (to 1e7 for the
/// fp-absorption cases).
fn run_graph(
    edges: &[Vec<(f64, usize)>],
    declare: &[f64],
    ops: &[GraphOp],
    start: f64,
) -> (Vec<(u64, u64)>, Vec<Road>) {
    let mut mirror = Mirror::default();
    for &delay in declare {
        if delay > 0.0 && !mirror.declared.contains(&delay) {
            mirror.declared.push(delay);
        }
    }
    let mirror = Arc::new(mirror);
    let mut eng: Engine<Hop> = Engine::with_capacity(edges.len(), 16);
    let ids: Vec<ComponentId> = edges
        .iter()
        .map(|_| {
            eng.add(Box::new(Node {
                edges: Vec::new(),
                mirror: Arc::clone(&mirror),
            }))
        })
        .collect();
    for (id, out) in ids.iter().zip(edges) {
        eng.get_mut::<Node>(*id).edges =
            out.iter().map(|&(d, t)| (d, ids[t % ids.len()])).collect();
    }
    for &delay in declare {
        eng.add(Box::new(Declarer(delay)));
    }
    eng.run_until(start);
    for op in ops {
        match *op {
            GraphOp::Schedule { delay, node, ttl } => {
                let hop = mirror.hop(ttl, Road::Undeclared);
                eng.schedule(delay, ids[node % ids.len()], hop);
            }
            GraphOp::Slice(n) => {
                let _ = eng.run_budgeted(RunLimit::events(n));
            }
        }
    }
    eng.run_to_completion(u64::MAX);
    assert!(eng.is_idle());
    let log = std::mem::take(&mut *mirror.log.lock().expect("log lock"));
    let roads = std::mem::take(&mut *mirror.roads.lock().expect("roads lock"));
    (log, roads)
}

/// [`run_graph`]'s dispatch log from the naive reference engine: the
/// same graph, ops and start, an event being a `(node, ttl)` pair and
/// its `seq` the id [`Mirror`] gives it.
fn naive_graph(edges: &[Vec<(f64, usize)>], ops: &[GraphOp], start: f64) -> Vec<(u64, u64)> {
    let nodes = edges.len();
    let out: Vec<Vec<(f64, usize)>> = edges
        .iter()
        .map(|out| out.iter().map(|&(d, t)| (d, t % nodes)).collect())
        .collect();
    let mut naive = NaiveEngine::new(move |&(node, ttl): &(usize, u8)| match ttl {
        0 => Vec::new(),
        _ => out[node].iter().map(|&(d, t)| (d, (t, ttl - 1))).collect(),
    });
    naive.run_until(start);
    for op in ops {
        match *op {
            GraphOp::Schedule { delay, node, ttl } => naive.schedule(delay, (node % nodes, ttl)),
            GraphOp::Slice(n) => naive.run_events(n),
        }
    }
    naive.run_events(u64::MAX);
    naive
        .log
        .iter()
        .map(|&(t, seq, _)| (t.to_bits(), seq))
        .collect()
}

/// One step of an interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    Schedule(f64, u32),
    RunEvents(u64),
    RunUntil(f64),
    RunBudgeted(f64, u64),
}

/// Interleaved schedule and run calls: besides single events it
/// generates same-timestamp bursts (several events at an identical
/// delay, so FIFO-within-timestamp is actually exercised) and
/// far-future outliers that land outside any reasonable wheel window
/// and reach the wheel's overflow path.
fn arb_calendar_op() -> impl Strategy<Value = Vec<Op>> {
    let one = prop_oneof![
        4 => (0.0f64..20.0, 0u32..100).prop_map(|(d, e)| vec![Op::Schedule(d, e)]),
        // Same-timestamp burst: k events at one exact delay.
        2 => (0.0f64..20.0, 0u32..100, 2usize..6).prop_map(|(d, e, k)| {
            (0..k).map(|i| Op::Schedule(d, e.wrapping_add(i as u32))).collect()
        }),
        // Far-future outlier: forces wheel-level wrap / overflow handling.
        1 => (1.0e4f64..1.0e7, 0u32..100).prop_map(|(d, e)| vec![Op::Schedule(d, e)]),
        2 => (0u64..12).prop_map(|n| vec![Op::RunEvents(n)]),
        2 => (0.0f64..40.0).prop_map(|t| vec![Op::RunUntil(t)]),
        2 => ((0.0f64..40.0), 0u64..8).prop_map(|(t, n)| vec![Op::RunBudgeted(t, n)]),
    ];
    proptest::collection::vec(one, 1..50).prop_map(|chunks| chunks.concat())
}

proptest! {
    #[test]
    fn delivery_in_time_order_exactly_once(delays in proptest::collection::vec(0.0_f64..100.0, 1..200)) {
        let mut eng: Engine<u32> = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        for (i, d) in delays.iter().enumerate() {
            eng.schedule(*d, rec, i as u32);
        }
        eng.run_until(1000.0);
        let r: &Recorder = eng.get(rec);
        prop_assert_eq!(r.log.len(), delays.len(), "exactly once");
        // Non-decreasing delivery times.
        for w in r.log.windows(2) {
            prop_assert!(w[1].0 >= w[0].0);
        }
        // Every event id delivered.
        let mut ids: Vec<u32> = r.log.iter().map(|(_, e)| *e).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..delays.len() as u32).collect::<Vec<_>>());
        // Ties broken by scheduling order.
        for w in r.log.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn replay_is_bitwise_identical(delays in proptest::collection::vec(0.0_f64..50.0, 1..100)) {
        let run = |ds: &[f64]| {
            let mut eng: Engine<u32> = Engine::new();
            let rec = eng.add(Box::new(Recorder { log: vec![] }));
            for (i, d) in ds.iter().enumerate() {
                eng.schedule(*d, rec, i as u32);
            }
            eng.run_until(100.0);
            eng.get::<Recorder>(rec).log.clone()
        };
        prop_assert_eq!(run(&delays), run(&delays));
    }

    #[test]
    fn run_until_boundary_is_inclusive_and_clock_monotone(
        delays in proptest::collection::vec(0.0_f64..10.0, 1..50),
        cut in 0.0_f64..10.0,
    ) {
        let mut eng: Engine<u32> = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        for (i, d) in delays.iter().enumerate() {
            eng.schedule(*d, rec, i as u32);
        }
        eng.run_until(cut);
        let delivered = eng.get::<Recorder>(rec).log.len();
        let expected = delays.iter().filter(|d| **d <= cut).count();
        prop_assert_eq!(delivered, expected);
        prop_assert!(eng.now() >= cut);
    }

    /// Property: under any interleaving of `schedule`, `run_until`,
    /// and `run_budgeted` with either bound or both — including
    /// handler-emitted follow-ups filed straight into the lanes and
    /// calendar, same-timestamp bursts and far-future outliers — the
    /// real engine's clock and `events_processed` match the naive
    /// reference engine after every single step, and its dispatch log
    /// (bitwise times) matches once both are drained.
    #[test]
    fn any_run_interleaving_matches_the_naive_reference(ops in arb_calendar_op()) {
        let mut eng: Engine<u32> = Engine::new();
        let echo = eng.add(Box::new(Echo { log: vec![] }));
        let mut reference = naive_echo();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Schedule(delay, ev) => {
                    eng.schedule(delay, echo, ev);
                    reference.schedule(delay, ev);
                }
                Op::RunEvents(n) => {
                    let _ = eng.run_budgeted(RunLimit::events(n));
                    reference.run_events(n);
                }
                Op::RunUntil(t) => {
                    eng.run_until(t);
                    reference.run_until(t);
                }
                Op::RunBudgeted(t, n) => {
                    let _ = eng.run_budgeted(RunLimit::new(t, n));
                    reference.run_budgeted(t, n);
                }
            }
            prop_assert_eq!(
                eng.now().to_bits(),
                reference.clock.to_bits(),
                "clock diverged after step {} ({:?})", step, op
            );
            prop_assert_eq!(
                eng.events_processed(),
                reference.processed,
                "events_processed diverged after step {} ({:?})", step, op
            );
        }
        // Drain both to the end: every pending event (including the
        // far-future overflow tail) must fire in the same order.
        eng.run_until(f64::INFINITY);
        reference.run_until(f64::INFINITY);
        let log = &eng.get::<Echo>(echo).log;
        prop_assert_eq!(log.len(), reference.log.len(), "drain lengths differ");
        for (i, (a, b)) in log.iter().zip(&reference.log).enumerate() {
            prop_assert_eq!(a.0.to_bits(), b.0.to_bits(), "time diverged at dispatch {}", i);
            prop_assert_eq!(a.1, b.2, "event diverged at dispatch {}", i);
        }
    }

    /// Property: chunking one `run_until(t)` into budgeted slices —
    /// `run_budgeted(RunLimit::new(t, budget))` repeated until the stop
    /// reason is no longer `Budget` — reaches a bit-identical final
    /// state (clock, dispatch log, lifetime event count). This is the
    /// engine-level contract the runner's sliced-run path rests on.
    #[test]
    fn sliced_run_until_is_bit_identical_to_monolithic(
        delays in proptest::collection::vec(0.0_f64..10.0, 1..60),
        cut in 0.0_f64..12.0,
        budget in 1u64..7,
    ) {
        let build = |ds: &[f64]| {
            let mut eng: Engine<u32> = Engine::new();
            let echo = eng.add(Box::new(Echo { log: vec![] }));
            for (i, d) in ds.iter().enumerate() {
                eng.schedule(*d, echo, i as u32);
            }
            (eng, echo)
        };
        let (mut mono, em) = build(&delays);
        let (mut sliced, es) = build(&delays);
        let n_mono = mono.run_until(cut);
        let mut n_sliced = 0;
        loop {
            let out = sliced.run_budgeted(RunLimit::new(cut, budget));
            n_sliced += out.events;
            if !out.exhausted() {
                break;
            }
        }
        prop_assert_eq!(n_mono, n_sliced);
        prop_assert_eq!(mono.now().to_bits(), sliced.now().to_bits());
        prop_assert_eq!(mono.events_processed(), sliced.events_processed());
        prop_assert_eq!(&mono.get::<Echo>(em).log, &sliced.get::<Echo>(es).log);
    }
}

thread_local! {
    /// What the cases of `lane_order_cases` (which run on the calling
    /// test's thread) reached: `[events sent down the fixed-delay lane,
    /// sent with a later declared delay, sent with a declared delay the
    /// clock absorbed, neighbours in the log at one instant of which
    /// only the older rode the lane, of which only the younger did]`.
    static REACHED: std::cell::Cell<[u64; 5]> = const { std::cell::Cell::new([0; 5]) };
}

proptest! {
    // Ties between a lane front and the calendar need volume; the
    // vendored stand-in defaults to 256 cases and reads no environment.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    // Not a `#[test]` itself:
    // `lane_and_calendar_dispatch_in_time_seq_order_exactly_once` runs
    // the cases, then checks what they reached.
    fn lane_order_cases(
        edges in proptest::collection::vec(
            proptest::collection::vec((arb_delay(), 0usize..6, any::<bool>()), 0..3),
            1..6,
        ),
        // Declared by components nobody sends through: they take the
        // lane before the edges' own declarations can.
        decoys in proptest::collection::vec(arb_delay(), 0..6),
        ops in proptest::collection::vec(
            prop_oneof![
                2 => (arb_delay(), 0usize..6, 0u8..5)
                    .prop_map(|(delay, node, ttl)| GraphOp::Schedule { delay, node, ttl }),
                3 => (1u64..4).prop_map(GraphOp::Slice),
            ],
            1..40,
        ),
        start in prop_oneof![Just(0.0), Just(1e7)],
    ) {
        let declare: Vec<f64> = decoys
            .iter()
            .copied()
            .chain(edges.iter().flatten().filter(|e| e.2).map(|e| e.0))
            .collect();
        let edges: Vec<Vec<(f64, usize)>> = edges
            .iter()
            .map(|out| out.iter().map(|&(d, t, _)| (d, t)).collect())
            .collect();
        // The reference: the naive engine, every event on one flat list.
        let log = naive_graph(&edges, &ops, start);
        let (plain, _) = run_graph(&edges, &[], &ops, start);
        prop_assert_eq!(&plain, &log, "the engine diverged from the naive reference");
        let (lanes, roads) = run_graph(&edges, &declare, &ops, start);
        prop_assert_eq!(&lanes, &log, "declared delays moved the engine's order");
        for w in log.windows(2) {
            prop_assert!(w[0] < w[1], "dispatch order broke (time, seq): {:?}", w);
        }
        let mut ids: Vec<u64> = log.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..roads.len() as u64).collect::<Vec<_>>(), "exactly once");

        let sent = |road| roads.iter().filter(|r| **r == road).count() as u64;
        let tie = |older, younger| {
            let rode_lane = |i: usize| roads[log[i].1 as usize] == Road::Lane;
            (1..log.len())
                .filter(|&i| log[i - 1].0 == log[i].0)
                .filter(|&i| (rode_lane(i - 1), rode_lane(i)) == (older, younger))
                .count() as u64
        };
        let case = [
            sent(Road::Lane),
            sent(Road::Later),
            sent(Road::Absorbed),
            tie(true, false),
            tie(false, true),
        ];
        REACHED.with(|seen| seen.set(std::array::from_fn(|i| seen.get()[i] + case[i])));
    }
}

/// Property — the order oracle for the lanes + single-probe loop: over
/// random component graphs mixing zero-delay chains, positive delays,
/// same-instant ties between lanes and calendar, events filed from
/// outside at the current instant between 1–3 event slices, and
/// picosecond delays at `t = 1e7`, with a random subset of the edge
/// delays (often several, so all but the first ride the calendar)
/// declared as some component's fixed delay: every scheduled event is
/// dispatched exactly once, the dispatch log is strictly increasing in
/// `(time, seq)`, and it is the naive reference engine's log, with the
/// declarations and without them.
#[test]
fn lane_and_calendar_dispatch_in_time_seq_order_exactly_once() {
    lane_order_cases();
    let reached = REACHED.with(std::cell::Cell::get);
    assert!(
        reached.iter().all(|&n| n > 0),
        "the generator went vacuous: [sent down the lane, later declared, absorbed, \
         ties only the older rode the lane into, ties only the younger did] = {reached:?}"
    );
}
