//! Microbenchmarks of the discrete-event core's hot loop — the
//! dispatch path the zero-allocation refactor optimizes. Four shapes
//! stress different parts of it:
//!
//! * `dispatch-only` — a two-component ping-pong: pure pop → handle →
//!   push traffic with one in-flight event, the floor of per-event
//!   cost through the calendar.
//! * `zero-delay chain` — a four-component ring with three zero-delay
//!   hops and one timed hop per round, the dumbbell's per-packet
//!   pattern (endpoint → bottleneck, link → delay box, demux →
//!   endpoint): three of four events ride the engine's same-instant
//!   lane and never touch the calendar.
//! * `fan-out storm` — one handler emits a burst of events per
//!   dispatch, exercising the scratch-buffer drain and the calendar
//!   under load.
//! * `timer-heavy` — many self-scheduling tickers interleaved in one
//!   calendar, the shape of a wide dumbbell (every sender and receiver
//!   holding its own timer).
//!
//! The CI-tracked absolute sweep numbers come from
//! `repro bench-runner` (`BENCH_runner.json`, gated against
//! `BENCH_baseline.json`); these benches watch the engine's own
//! overhead in isolation.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ebrc_sim::{
    Calendar, Component, ComponentId, Context, Engine, HeapCalendar, Scheduled, WheelCalendar,
};

/// Forwards every event to a peer after `delay` — the minimal hot
/// loop.
struct Forwarder {
    peer: Option<ComponentId>,
    delay: f64,
    remaining: u64,
}

impl Component<u32> for Forwarder {
    fn handle(&mut self, _now: f64, ev: u32, ctx: &mut Context<u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let peer = self.peer.expect("forwarder not wired");
            ctx.send(self.delay, peer, ev.wrapping_add(1));
        }
    }
}

/// Emits `fan` events per dispatch toward a sink until `bursts` runs
/// out — the scratch buffer's stress shape.
struct Storm {
    fan: u32,
    bursts: u64,
    sink: ComponentId,
}

impl Component<u32> for Storm {
    fn handle(&mut self, _now: f64, _ev: u32, ctx: &mut Context<u32>) {
        for i in 0..self.fan {
            ctx.send(0.01 + f64::from(i) * 1e-6, self.sink, i);
        }
        if self.bursts > 0 {
            self.bursts -= 1;
            ctx.send_self(0.02, 0);
        }
    }
}

/// Swallows events.
struct Sink {
    seen: u64,
}

impl Component<u32> for Sink {
    fn handle(&mut self, _now: f64, _ev: u32, _ctx: &mut Context<u32>) {
        self.seen += 1;
    }
}

/// A self-scheduling periodic timer — wide dumbbells are full of
/// these.
struct Ticker {
    period: f64,
    remaining: u64,
}

impl Component<u32> for Ticker {
    fn handle(&mut self, _now: f64, _ev: u32, ctx: &mut Context<u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_self(self.period, 0);
        }
    }
}

const EVENTS: u64 = 100_000;

fn bench_dispatch_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine-core");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("dispatch_only_100k", |b| {
        b.iter(|| {
            let mut eng: Engine<u32> = Engine::with_capacity(2, 16);
            let a = eng.add(Box::new(Forwarder {
                peer: None,
                delay: 0.001,
                remaining: EVENTS / 2,
            }));
            let z = eng.add(Box::new(Forwarder {
                peer: Some(a),
                delay: 0.001,
                remaining: EVENTS / 2,
            }));
            eng.get_mut::<Forwarder>(a).peer = Some(z);
            eng.schedule(0.0, a, 0);
            eng.run_to_completion(u64::MAX);
            black_box(eng.events_processed())
        })
    });
    g.finish();
}

fn bench_zero_delay_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine-core");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("zero_delay_chain_3of4_100k", |b| {
        b.iter(|| {
            let mut eng: Engine<u32> = Engine::with_capacity(4, 16);
            let ring: Vec<ComponentId> = [0.0, 0.0, 0.0, 0.001]
                .into_iter()
                .map(|delay| {
                    eng.add(Box::new(Forwarder {
                        peer: None,
                        delay,
                        remaining: EVENTS / 4,
                    }))
                })
                .collect();
            for (i, &id) in ring.iter().enumerate() {
                eng.get_mut::<Forwarder>(id).peer = Some(ring[(i + 1) % ring.len()]);
            }
            eng.schedule(0.0, ring[0], 0);
            eng.run_to_completion(u64::MAX);
            black_box(eng.events_processed())
        })
    });
    g.finish();
}

fn bench_fan_out_storm(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine-core");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("fan_out_storm_64x_100k", |b| {
        b.iter(|| {
            let mut eng: Engine<u32> = Engine::with_capacity(2, 128);
            let sink = eng.add(Box::new(Sink { seen: 0 }));
            let storm = eng.add(Box::new(Storm {
                fan: 64,
                bursts: EVENTS / 65,
                sink,
            }));
            eng.schedule(0.0, storm, 0);
            eng.run_to_completion(u64::MAX);
            black_box(eng.events_processed())
        })
    });
    g.finish();
}

fn bench_timer_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine-core");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("timer_heavy_256_tickers_100k", |b| {
        const TICKERS: u64 = 256;
        b.iter(|| {
            let mut eng: Engine<u32> = Engine::with_capacity(TICKERS as usize, TICKERS as usize);
            for i in 0..TICKERS {
                let t = eng.add(Box::new(Ticker {
                    // Co-prime-ish periods keep the calendar interleaved
                    // instead of firing in lockstep.
                    period: 0.01 + (i as f64) * 1e-4,
                    remaining: EVENTS / TICKERS,
                }));
                eng.schedule(0.0, t, 0);
            }
            eng.run_to_completion(u64::MAX);
            black_box(eng.events_processed())
        })
    });
    g.finish();
}

/// Schedule/pop throughput of a calendar backend under the classic
/// "hold model": fill to `pending` events, then for each measured
/// element pop the head and push a replacement a pseudo-random offset
/// into the future. This is the steady-state shape of a many-flow
/// dumbbell — a large stable population of pending timers churning at
/// the head — and the workload where the timer wheel's O(1)
/// schedule/pop separates from the binary heap's O(log n).
fn bench_calendar_hold<C: Calendar<u64>>(c: &mut Criterion, label: &str) {
    const PENDING: usize = 100_000;
    let mut g = c.benchmark_group("calendar-hold-100k");
    g.throughput(Throughput::Elements(EVENTS));
    // Fill once outside the timed loop — the hold model measures the
    // steady-state schedule/pop churn at a stable population, not the
    // one-time construction cost.
    let mut cal = C::with_capacity(PENDING);
    let mut seq = 0u64;
    // Deterministic LCG offsets spread the population over ~10
    // simulated seconds, like staggered per-flow pacing timers.
    let mut state = 0x2002_5eed_u64;
    let mut next_offset = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as f64 / u32::MAX as f64 * 10.0
    };
    for _ in 0..PENDING {
        cal.push(Scheduled {
            time: next_offset(),
            seq,
            target: 0,
            event: seq,
        });
        seq += 1;
    }
    // Touch the head so lazy calibration happens before timing starts.
    cal.next_time();
    g.bench_function(label, |b| {
        b.iter(|| {
            for _ in 0..EVENTS {
                let head = cal.pop().expect("population is stable");
                cal.push(Scheduled {
                    time: head.time + next_offset(),
                    seq,
                    target: 0,
                    event: seq,
                });
                seq += 1;
            }
            black_box(cal.len())
        })
    });
    g.finish();
}

fn bench_calendar_heap(c: &mut Criterion) {
    bench_calendar_hold::<HeapCalendar<u64>>(c, "heap");
}

fn bench_calendar_wheel(c: &mut Criterion) {
    bench_calendar_hold::<WheelCalendar<u64>>(c, "wheel");
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_dispatch_only, bench_zero_delay_chain, bench_fan_out_storm, bench_timer_heavy,
        bench_calendar_heap, bench_calendar_wheel
}
criterion_main!(benches);
