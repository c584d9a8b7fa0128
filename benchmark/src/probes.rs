//! Layer probes: small timed loops over one public function of one
//! crate, giving the per-layer rows a workload's own trace cannot — a
//! dispatch costs tens of nanoseconds, far below what a span around it
//! could resolve. Each probe repeats its loop and reports the median.

use crate::stats::median;
use ebrc_dist::Rng;
use ebrc_experiments::scenarios::{DumbbellConfig, DumbbellRun, ManyFlowConfig, ManyFlowRun};
use ebrc_experiments::spec::{ControlLaw, WeightKind};
use ebrc_experiments::{SimSpec, MASTER_SEED};
use ebrc_net::{
    AqmQueue, CbrSender, DropTailQueue, FlowId, LinkQueue, NetEvent, Packet, RedConfig, RedQueue,
    Sink,
};
use ebrc_runner::{JobCtx, Pool, Spec};
use ebrc_sim::{
    Calendar, Component, ComponentId, Context, Engine, HeapCalendar, RunLimit, Scheduled,
    WheelCalendar,
};
use ebrc_tfrc::FormulaKind;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each probe loop; the median is reported.
const REPS: usize = 5;

/// Seconds `f` takes.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median over [`REPS`] runs of `f`, which returns the cost it
/// measured.
fn median_of_reps(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&samples)
}

/// Forwards every event to its peer: the minimal two-party hot loop.
struct Forwarder {
    peer: Option<ComponentId>,
    remaining: u64,
}

impl Component<u32> for Forwarder {
    fn handle(&mut self, _now: f64, ev: u32, ctx: &mut Context<u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(
                0.001,
                self.peer.expect("forwarder wired"),
                ev.wrapping_add(1),
            );
        }
    }
}

/// `sim.dispatch_ns`: pop → handle → push with one event in flight.
pub fn dispatch_ns(events: u64) -> f64 {
    median_of_reps(|| {
        let mut eng: Engine<u32> = Engine::with_capacity(2, 16);
        let a = eng.add(Box::new(Forwarder {
            peer: None,
            remaining: events / 2,
        }));
        let z = eng.add(Box::new(Forwarder {
            peer: Some(a),
            remaining: events / 2,
        }));
        eng.get_mut::<Forwarder>(a).peer = Some(z);
        eng.schedule(0.0, a, 0);
        let (done, secs) = timed(|| eng.run_to_completion(u64::MAX));
        secs * 1e9 / done as f64
    })
}

/// `sim.{wheel,heap}_hold_ns_*`: the hold model — a stable population
/// of `pending` events, each pop followed by a push a pseudo-random
/// offset later — through the `Calendar` trait.
fn hold_ns<C: Calendar<u64>>(pending: usize, ops: u64) -> f64 {
    let mut cal = C::with_capacity(pending);
    let mut seq = 0u64;
    // Offsets over ~10 simulated seconds, like staggered pacing timers.
    let mut state = 0x2002_5eed_u64;
    let mut next_offset = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as f64 / u32::MAX as f64 * 10.0
    };
    for _ in 0..pending {
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
    median_of_reps(|| {
        let ((), secs) = timed(|| {
            for _ in 0..ops {
                let head = cal.pop().expect("population is stable");
                cal.push(Scheduled {
                    time: head.time + next_offset(),
                    seq,
                    target: 0,
                    event: seq,
                });
                seq += 1;
            }
        });
        black_box(cal.len());
        secs * 1e9 / ops as f64
    })
}

/// Hold-model cost on the default timer wheel.
pub fn wheel_hold_ns(pending: usize, ops: u64) -> f64 {
    hold_ns::<WheelCalendar<u64>>(pending, ops)
}

/// Hold-model cost on the reference binary heap.
pub fn heap_hold_ns(pending: usize, ops: u64) -> f64 {
    hold_ns::<HeapCalendar<u64>>(pending, ops)
}

/// `enqueue` + `dequeue` of one packet at a half-full queue.
fn queue_pkt_ns(mut q: impl AqmQueue, fill: usize, ops: u64) -> f64 {
    let mut rng = Rng::seed_from(1);
    let gap = 0.0008;
    let mut now = 0.0;
    let mut seq = 0u64;
    let mut offer = |q: &mut dyn AqmQueue, now: f64| {
        let _ = q.enqueue(Packet::data(FlowId(0), seq, 1500, now), now, &mut rng);
        seq += 1;
    };
    for _ in 0..fill {
        offer(&mut q, now);
    }
    median_of_reps(|| {
        let ((), secs) = timed(|| {
            for _ in 0..ops {
                now += gap;
                offer(&mut q, now);
                black_box(q.dequeue(now));
            }
        });
        secs * 1e9 / ops as f64
    })
}

/// `net.droptail_pkt_ns`.
pub fn droptail_pkt_ns(ops: u64) -> f64 {
    queue_pkt_ns(DropTailQueue::new(100), 50, ops)
}

/// `net.red_pkt_ns`: the ns-2 scenario's RED, started between its
/// thresholds so the average-queue update and the drop draw both run
/// (early drops let the level settle toward `min_th`).
pub fn red_pkt_ns(ops: u64) -> f64 {
    let cfg = RedConfig::ns2_paper(62.5, 0.0008);
    let fill = ((cfg.min_th + cfg.max_th) / 2.0) as usize;
    queue_pkt_ns(RedQueue::new(cfg), fill, ops)
}

/// `net.link_pkt_ns`: a CBR source through a `LinkQueue` into a
/// counting sink, per packet, above the bare dispatch cost of the
/// events it took.
pub fn link_pkt_ns(packets: u64, dispatch_ns: f64) -> f64 {
    median_of_reps(|| {
        let period = 0.001;
        let mut eng: Engine<NetEvent> = Engine::with_capacity(3, 64);
        let src = eng.add(Box::new(CbrSender::new(
            FlowId(0),
            period,
            1000,
            period * packets as f64,
        )));
        // 10 Mb/s: a 1000-byte packet serializes in 0.8 ms, so the link
        // is 80 % busy and the queue stays short.
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(100)),
            10e6,
            0.0,
            Rng::seed_from(7),
        )));
        let sink = eng.add(Box::new(Sink::counting_only()));
        eng.get_mut::<CbrSender>(src).set_next_hop(link);
        eng.get_mut::<LinkQueue>(link).set_next_hop(sink);
        eng.schedule(0.0, src, NetEvent::Timer(1));
        let (events, secs) = timed(|| eng.run_to_completion(u64::MAX));
        let delivered = eng.get::<Sink>(sink).count();
        (secs * 1e9 - events as f64 * dispatch_ns) / delivered as f64
    })
}

/// `tfrc.formula_ns`: one PFTK-standard evaluation through
/// `FormulaKind::rate`, as the endpoints and reducers call it.
pub fn formula_ns(ops: u64) -> f64 {
    median_of_reps(|| {
        let mut p = 0.001;
        let (sum, secs) = timed(|| {
            let mut sum = 0.0;
            for _ in 0..ops {
                sum += FormulaKind::PftkStandard.rate(black_box(p), black_box(0.05));
                p = if p > 0.2 { 0.001 } else { p * 1.01 };
            }
            sum
        });
        black_box(sum);
        secs * 1e9 / ops as f64
    })
}

/// Wall nanoseconds per bottleneck packet of one boxed-endpoint
/// dumbbell run (`tfrc.alone_pkt_ns`, `tcp.alone_pkt_ns`).
pub fn dumbbell_pkt_ns(cfg: &DumbbellConfig, warmup: f64, span: f64) -> f64 {
    median_of_reps(|| {
        let (run, secs) = timed(|| {
            let mut run = DumbbellRun::build(cfg);
            black_box(run.measure(warmup, span));
            run
        });
        let sent = run.engine.get::<LinkQueue>(run.bottleneck).link_stats();
        secs * 1e9 / sent.transmitted as f64
    })
}

/// Wall nanoseconds per bottleneck packet of one many-flow run
/// (`scenarios.manyflow_pkt_ns_1k`).
pub fn manyflow_pkt_ns(cfg: &ManyFlowConfig, warmup: f64, span: f64) -> f64 {
    let (run, secs) = timed(|| {
        let mut run = ManyFlowRun::build(cfg);
        black_box(run.measure(warmup, span));
        run
    });
    let sent = run.engine.get::<LinkQueue>(run.bottleneck).link_stats();
    secs * 1e9 / sent.transmitted as f64
}

/// `core.mc_event_ns`: one Monte-Carlo control recursion per loss
/// event, through `SimSpec::Mc`.
pub fn mc_event_ns(events: usize) -> f64 {
    let spec = SimSpec::Mc {
        control: ControlLaw::Basic,
        formula: FormulaKind::PftkStandard,
        weights: WeightKind::Tfrc,
        window: 8,
        p: 0.01,
        cv: 0.9,
        events,
        seed: 0x5eed,
    };
    median_of_reps(|| {
        let mut ctx = JobCtx::for_label(MASTER_SEED, spec.key());
        let (out, secs) = timed(|| spec.run(&mut ctx));
        black_box(out);
        secs * 1e9 / events as f64
    })
}

/// `runner.pool_task_us`: scheduling cost per task of `Pool::run` over
/// empty tasks.
pub fn pool_task_us(threads: usize, tasks: usize) -> f64 {
    let pool = Pool::new(threads);
    median_of_reps(|| {
        let batch: Vec<_> = (0..tasks).map(|i| move || i).collect();
        let (done, secs) = timed(|| pool.run(batch));
        black_box(done);
        secs * 1e6 / tasks as f64
    })
}

/// Seconds one `run_until(horizon)` of a freshly built dumbbell takes.
fn run_until_s(cfg: &DumbbellConfig, horizon: f64) -> f64 {
    median_of_reps(|| {
        let mut run = DumbbellRun::build(cfg);
        timed(|| run.engine.run_until(horizon)).1
    })
}

/// `sim.budgeted_overhead_ratio`: one dumbbell driven to `horizon` by
/// chained `run_budgeted(budget)` calls against one `run_until`.
pub fn budgeted_overhead_ratio(cfg: &DumbbellConfig, horizon: f64, budget: u64) -> f64 {
    let whole = run_until_s(cfg, horizon);
    let sliced = median_of_reps(|| {
        let mut run = DumbbellRun::build(cfg);
        let ((), secs) = timed(|| {
            while run
                .engine
                .run_budgeted(RunLimit::new(horizon, budget))
                .exhausted()
            {}
        });
        secs
    });
    sliced / whole
}

/// What recording a sim-time Perfetto trace costs.
pub struct TraceCost {
    /// Traced wall over untraced wall of the same run.
    pub overhead_ratio: f64,
    /// Trace bytes per dispatched engine event.
    pub bytes_per_event: f64,
    /// `read_trace` validation throughput, MB/s.
    pub validate_mb_per_s: f64,
}

/// `trace.*`: the same dumbbell with and without `install_tracer`.
pub fn trace_cost(cfg: &DumbbellConfig, horizon: f64) -> Result<TraceCost, String> {
    let plain = run_until_s(cfg, horizon);
    let mut run = DumbbellRun::build(cfg);
    run.install_tracer();
    let (events, traced) = timed(|| run.engine.run_until(horizon));
    let bytes = run.take_trace().expect("a tracer was installed");
    let (summary, secs) = timed(|| ebrc_trace::read_trace(&bytes));
    summary.map_err(|e| format!("recorded trace does not validate: {e:?}"))?;
    Ok(TraceCost {
        overhead_ratio: traced / plain,
        bytes_per_event: bytes.len() as f64 / events as f64,
        validate_mb_per_s: bytes.len() as f64 / 1e6 / secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_finite_costs() {
        let dispatch = dispatch_ns(2_000);
        for ns in [
            dispatch,
            wheel_hold_ns(100, 2_000),
            heap_hold_ns(100, 2_000),
            droptail_pkt_ns(2_000),
            red_pkt_ns(2_000),
            formula_ns(2_000),
            mc_event_ns(500),
            pool_task_us(2, 100),
        ] {
            assert!(ns.is_finite() && ns > 0.0, "{ns}");
        }
        assert!(link_pkt_ns(2_000, 0.0) > 0.0);
    }
}
