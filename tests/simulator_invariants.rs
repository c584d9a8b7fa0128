//! Cross-crate simulator invariants: determinism, packet conservation,
//! and measurement sanity of the packet-level substrate.

use ebrc::dist::Rng;
use ebrc::experiments::scenarios::{DumbbellConfig, DumbbellRun, QueueSpec};
use ebrc::net::{
    AqmQueue, DropTailQueue, FlowId, LinkQueue, NetEvent, Packet, RedConfig, RedQueue, Sink,
};
use ebrc::sim::Engine;
use proptest::prelude::*;

/// The whole dumbbell, twice, same seed: identical measurements
/// (bit-for-bit).
#[test]
fn dumbbell_bitwise_determinism() {
    let run = |seed| {
        let cfg = DumbbellConfig::ns2_paper(3, 4, seed);
        let mut r = DumbbellRun::build(&cfg);
        let m = r.measure(10.0, 25.0);
        (
            m.tfrc.iter().map(|f| f.throughput).collect::<Vec<_>>(),
            m.tcp.iter().map(|f| f.loss_event_rate).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78), "different seeds should differ");
}

/// Different queue disciplines conserve packets: offered = forwarded +
/// dropped + queued.
#[test]
fn link_conserves_packets() {
    for queue in [
        QueueSpec::DropTail(40),
        QueueSpec::Red(RedConfig::ns2_paper(60.0, 0.0008)),
    ] {
        let cfg = DumbbellConfig::lab_paper(3, queue, 5);
        let mut run = DumbbellRun::build(&cfg);
        run.engine.run_until(30.0);
        let total_offered: u64 = {
            let l: &LinkQueue = run.engine.get(run.bottleneck);
            let s = l.queue_stats();
            s.enqueued + s.dropped
        };
        let l: &LinkQueue = run.engine.get(run.bottleneck);
        let s = l.queue_stats();
        assert_eq!(s.enqueued, s.dequeued + l.queue_len() as u64);
        assert!(total_offered > 1000, "scenario too idle to be meaningful");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DropTail conservation under arbitrary interleavings of enqueue
    /// and dequeue.
    #[test]
    fn droptail_conservation(ops in proptest::collection::vec(any::<bool>(), 1..400), cap in 1_usize..32) {
        let mut q = DropTailQueue::new(cap);
        let mut rng = Rng::seed_from(1);
        let mut dropped = 0u64;
        let mut dequeued = 0u64;
        let mut offered = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if *op {
                offered += 1;
                if q.enqueue(Packet::data(FlowId(0), i as u64, 100, 0.0), 0.0, &mut rng).is_err() {
                    dropped += 1;
                }
            } else if q.dequeue(0.0).is_some() {
                dequeued += 1;
            }
            prop_assert!(q.len() <= cap);
        }
        prop_assert_eq!(offered, dropped + dequeued + q.len() as u64);
        let s = q.stats();
        prop_assert_eq!(s.enqueued, offered - dropped);
        prop_assert_eq!(s.dequeued, dequeued);
    }

    /// RED never exceeds its hard limit and never reports negative
    /// averages, under arbitrary bursty arrivals.
    #[test]
    fn red_limits_respected(
        bursts in proptest::collection::vec(1_usize..30, 1..50),
        limit in 10_usize..80,
        seed in 0_u64..500,
    ) {
        let cfg = RedConfig {
            limit,
            min_th: 2.0,
            max_th: (limit as f64 * 0.8).max(3.0),
            wq: 0.02,
            mean_pkt_time: 0.001,
        };
        let mut q = RedQueue::new(cfg);
        let mut rng = Rng::seed_from(seed);
        let mut t = 0.0;
        let mut seq = 0u64;
        for burst in bursts {
            for _ in 0..burst {
                let _ = q.enqueue(Packet::data(FlowId(0), seq, 1500, t), t, &mut rng);
                seq += 1;
                prop_assert!(q.len() <= limit);
                prop_assert!(q.average() >= 0.0);
            }
            // Drain a few.
            for _ in 0..burst / 2 {
                q.dequeue(t);
            }
            t += 0.05;
        }
        let s = q.stats();
        prop_assert_eq!(s.enqueued, s.dequeued + q.len() as u64);
    }

    /// A link delivers every accepted packet exactly once, in order,
    /// regardless of arrival pattern.
    #[test]
    fn link_fifo_delivery(gaps in proptest::collection::vec(0.0_f64..0.01, 1..120)) {
        let mut eng: Engine<NetEvent> = Engine::new();
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(1000)),
            1e7,
            0.001,
            Rng::seed_from(3),
        )));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<LinkQueue>(link).set_next_hop(sink);
        let mut t = 0.0;
        for (i, g) in gaps.iter().enumerate() {
            t += g;
            eng.schedule(t, link, NetEvent::Packet(Packet::data(FlowId(0), i as u64, 500, t)));
        }
        eng.run_until(t + 10.0);
        let s: &Sink = eng.get(sink);
        prop_assert_eq!(s.count() as usize, gaps.len());
        let seqs: Vec<u64> = s.arrivals.iter().map(|(_, p)| p.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(seqs, sorted);
    }
}

/// The Lindley recursion for one FIFO server with `cap` waiting places
/// — the reference the engine-driven [`LinkQueue`] +
/// [`DropTailQueue`] pair is checked against. Arrivals are offered in
/// scheduling order; a departure at an arrival's own instant is still
/// in the system then, because the link files its `TX_DONE` after every
/// arrival was scheduled.
struct Lindley {
    cap: usize,
    bps: f64,
    /// Departure times of the accepted packets, increasing.
    departures: Vec<f64>,
}

impl Lindley {
    /// `D_n = max(A_n, D_{n−1}) + size·8/bps` in the link's float
    /// order, or `None` when `cap` packets wait behind the one in
    /// service.
    fn offer(&mut self, arrival: f64, size: u32) -> Option<f64> {
        let in_system = self
            .departures
            .iter()
            .rev()
            .take_while(|&&d| d >= arrival)
            .count();
        if in_system > self.cap {
            return None;
        }
        let start = self.departures.last().map_or(arrival, |&d| d.max(arrival));
        let departure = start + f64::from(size) * 8.0 / self.bps;
        self.departures.push(departure);
        Some(departure)
    }
}

/// When the next packet arrives: a gap after the previous arrival (zero
/// for an equal-time arrival), or exactly at the latest departure.
#[derive(Debug, Clone, Copy)]
enum Arrive {
    After(f64),
    AtLastDeparture,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Link + DropTail ≡ Lindley: over random arrival scripts with
    /// equal-time arrivals, arrivals at a departure's own instant, idle
    /// gaps and mixed sizes, the link's departure times match the
    /// recursion bit for bit, and it drops exactly the packets that
    /// found `cap` waiting.
    #[test]
    fn link_droptail_matches_the_lindley_recursion(
        script in proptest::collection::vec(
            (
                prop_oneof![
                    3 => Just(Arrive::After(0.0)),
                    4 => (0.0f64..0.004).prop_map(Arrive::After),
                    1 => (0.01f64..0.1).prop_map(Arrive::After),
                    2 => Just(Arrive::AtLastDeparture),
                ],
                40u32..1500,
            ),
            1..200,
        ),
        cap in 1usize..6,
        bps in prop_oneof![Just(1e6), Just(1.5e6), Just(3.3e6), 1e5f64..1e7],
    ) {
        let mut reference = Lindley { cap, bps, departures: Vec::new() };
        let mut arrivals = Vec::with_capacity(script.len());
        let mut expected = Vec::new();
        let mut t = 0.0;
        for (seq, &(arrive, size)) in script.iter().enumerate() {
            t = match arrive {
                Arrive::After(gap) => t + gap,
                Arrive::AtLastDeparture => reference.departures.last().map_or(t, |&d| d.max(t)),
            };
            arrivals.push((t, size));
            if let Some(departure) = reference.offer(t, size) {
                expected.push((seq as u64, departure.to_bits()));
            }
        }

        let mut eng: Engine<NetEvent> = Engine::new();
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(cap)),
            bps,
            0.0,
            Rng::seed_from(4),
        )));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<LinkQueue>(link).set_next_hop(sink);
        for (seq, &(time, size)) in arrivals.iter().enumerate() {
            let pkt = Packet::data(FlowId(0), seq as u64, size, time);
            eng.schedule(time, link, NetEvent::Packet(pkt));
        }
        eng.run_to_completion(u64::MAX);
        let s: &Sink = eng.get(sink);
        let departed: Vec<(u64, u64)> =
            s.arrivals.iter().map(|(t, p)| (p.seq, t.to_bits())).collect();
        prop_assert_eq!(departed, expected);
        let l: &LinkQueue = eng.get(link);
        prop_assert_eq!(l.total_drops() as usize, arrivals.len() - s.arrivals.len());
    }
}
