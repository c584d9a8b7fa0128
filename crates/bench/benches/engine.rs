//! Microbenchmarks of the discrete-event core's hot loop — the
//! dispatch path the zero-allocation refactor optimizes. Three shapes
//! stress different parts of it:
//!
//! * `zero-delay chain` — a four-component ring with three zero-delay
//!   hops and one timed hop per round, the dumbbell's per-packet
//!   pattern (endpoint → bottleneck, link → delay box, demux →
//!   endpoint): three of four events ride the engine's same-instant
//!   lane and never touch the calendar.
//! * `fan-out storm` — one handler emits a burst of events per
//!   dispatch, exercising `Context::send`'s direct filing and the
//!   calendar under load.
//! * `timer-heavy` — many self-scheduling tickers interleaved in one
//!   calendar, the shape of a wide dumbbell (every sender and receiver
//!   holding its own timer).
//!
//! These are the engine shapes the ledger (`benchmark/`) has no probe
//! for yet; the ping-pong floor and the calendar hold model are its
//! `sim.dispatch_ns` and `sim.*_hold_ns_*` rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ebrc_sim::{Component, ComponentId, Context, Engine};

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
/// out — the widest fan-out a single dispatch files.
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

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_zero_delay_chain, bench_fan_out_storm, bench_timer_heavy
}
criterion_main!(benches);
