//! An output-queued link: queue discipline + serializing transmitter +
//! propagation delay.

use crate::packet::{NetEvent, Packet, TX_DONE};
use crate::queue::{AqmQueue, QueueStats};
use ebrc_dist::Rng;
use ebrc_sim::{Component, ComponentId, Context};

/// Aggregate link counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets put on the wire.
    pub transmitted: u64,
    /// Bytes put on the wire.
    pub bytes: u64,
    /// Cumulative busy (serializing) time in seconds.
    pub busy_time: f64,
}

/// The bottleneck-router model: packets arrive, pass the queue
/// discipline, are serialized at `rate_bps`, and exit after
/// `prop_delay` toward `next_hop`.
///
/// Counters are aggregate only ([`LinkStats`], [`QueueStats`],
/// [`LinkQueue::total_drops`]): the per-packet path keys nothing by
/// flow, and per-flow throughput and loss are the endpoints' to report.
pub struct LinkQueue {
    queue: Box<dyn AqmQueue>,
    rate_bps: f64,
    prop_delay: f64,
    next_hop: Option<ComponentId>,
    rng: Rng,
    in_flight: Option<Packet>,
    tx_started: f64,
    stats: LinkStats,
    /// Packets the discipline refused, across all flows.
    total_drops: u64,
}

impl LinkQueue {
    /// Creates a link with the given discipline, rate (bits/second) and
    /// one-way propagation delay (seconds). Set the downstream hop with
    /// [`LinkQueue::set_next_hop`] before the first packet arrives.
    ///
    /// # Panics
    /// Panics unless `rate_bps > 0` and `prop_delay ≥ 0`.
    pub fn new(queue: Box<dyn AqmQueue>, rate_bps: f64, prop_delay: f64, rng: Rng) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive");
        assert!(prop_delay >= 0.0, "propagation delay must be non-negative");
        Self {
            queue,
            rate_bps,
            prop_delay,
            next_hop: None,
            rng,
            in_flight: None,
            tx_started: 0.0,
            stats: LinkStats::default(),
            total_drops: 0,
        }
    }

    /// Wires the downstream component (post-construction, because ids are
    /// only known once everything is registered).
    pub fn set_next_hop(&mut self, id: ComponentId) {
        self.next_hop = Some(id);
    }

    /// Transmission time of a packet on this link.
    pub fn tx_time(&self, pkt: &Packet) -> f64 {
        pkt.bits() / self.rate_bps
    }

    /// Discipline counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Link counters.
    pub fn link_stats(&self) -> LinkStats {
        self.stats
    }

    /// Packets dropped across all flows.
    pub fn total_drops(&self) -> u64 {
        self.total_drops
    }

    /// Current queue occupancy in packets.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn start_tx(&mut self, now: f64, ctx: &mut Context<NetEvent>) {
        if self.in_flight.is_some() {
            return;
        }
        if let Some(pkt) = self.queue.dequeue(now) {
            let t = self.tx_time(&pkt);
            self.tx_started = now;
            self.in_flight = Some(pkt);
            ctx.send_self(t, NetEvent::Timer(TX_DONE));
        }
    }
}

impl Component<NetEvent> for LinkQueue {
    fn handle(&mut self, now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        match event {
            NetEvent::Packet(pkt) => match self.queue.enqueue(pkt, now, &mut self.rng) {
                Ok(()) => {
                    self.start_tx(now, ctx);
                    ctx.trace_counter("qlen", self.queue.len() as f64);
                }
                Err(_dropped) => {
                    self.total_drops += 1;
                    ctx.trace_counter("drops", self.total_drops as f64);
                }
            },
            NetEvent::Timer(TX_DONE) => {
                let pkt = self
                    .in_flight
                    .take()
                    .expect("TX_DONE without a packet in flight");
                self.stats.transmitted += 1;
                self.stats.bytes += pkt.size.get() as u64;
                self.stats.busy_time += now - self.tx_started;
                let next = self.next_hop.expect("link next hop not wired");
                ctx.send(self.prop_delay, next, NetEvent::Packet(pkt));
                self.start_tx(now, ctx);
                ctx.trace_counter("qlen", self.queue.len() as f64);
            }
            NetEvent::Timer(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::queue::DropTailQueue;
    use crate::sink::Sink;
    use ebrc_sim::Engine;

    fn pkt(seq: u64, size: u32) -> Packet {
        Packet::data(FlowId(1), seq, size, 0.0)
    }

    #[test]
    fn serialization_and_propagation_delay() {
        // 1 Mb/s link, 10 ms propagation: a 1250-byte packet (10 kbit)
        // takes 10 ms to serialize, arriving at 20 ms.
        let mut eng: Engine<NetEvent> = Engine::new();
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(10)),
            1e6,
            0.010,
            Rng::seed_from(1),
        )));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<LinkQueue>(link).set_next_hop(sink);
        eng.schedule(0.0, link, NetEvent::Packet(pkt(0, 1250)));
        eng.run_until(1.0);
        let s: &Sink = eng.get(sink);
        assert_eq!(s.arrivals.len(), 1);
        assert!((s.arrivals[0].0 - 0.020).abs() < 1e-12);
    }

    #[test]
    fn back_to_back_packets_serialize_sequentially() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(10)),
            1e6,
            0.0,
            Rng::seed_from(2),
        )));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<LinkQueue>(link).set_next_hop(sink);
        for i in 0..3 {
            eng.schedule(0.0, link, NetEvent::Packet(pkt(i, 1250)));
        }
        eng.run_until(1.0);
        let s: &Sink = eng.get(sink);
        let times: Vec<f64> = s.arrivals.iter().map(|(t, _)| *t).collect();
        assert_eq!(times.len(), 3);
        assert!((times[0] - 0.010).abs() < 1e-12);
        assert!((times[1] - 0.020).abs() < 1e-12);
        assert!((times[2] - 0.030).abs() < 1e-12);
        // FIFO order preserved.
        let seqs: Vec<u64> = s.arrivals.iter().map(|(_, p)| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn overload_drops_and_counts() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(5)),
            1e6,
            0.0,
            Rng::seed_from(3),
        )));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<LinkQueue>(link).set_next_hop(sink);
        // 20 simultaneous arrivals into a 5-packet queue: 1 in service +
        // 5 queued accepted, the rest dropped.
        for i in 0..20 {
            eng.schedule(0.0, link, NetEvent::Packet(pkt(i, 1250)));
        }
        eng.run_until(10.0);
        let l: &LinkQueue = eng.get(link);
        assert_eq!(l.link_stats().transmitted, 6);
        assert_eq!(l.total_drops(), 14);
        assert_eq!(l.queue_stats().dropped, 14);
        let s: &Sink = eng.get(sink);
        assert_eq!(s.arrivals.len(), 6);
        // Conservation: transmitted + dropped = offered.
        assert_eq!(l.link_stats().transmitted + l.total_drops(), 20);
    }

    #[test]
    fn utilization_accounting() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(100)),
            1e6,
            0.0,
            Rng::seed_from(4),
        )));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<LinkQueue>(link).set_next_hop(sink);
        for i in 0..8 {
            eng.schedule(0.0, link, NetEvent::Packet(pkt(i, 1250)));
        }
        eng.run_until(1.0);
        let l: &LinkQueue = eng.get(link);
        assert!((l.link_stats().busy_time - 0.080).abs() < 1e-9);
        assert_eq!(l.link_stats().bytes, 8 * 1250);
    }

    /// A timer token other than [`TX_DONE`] is not the link's: it
    /// neither ends the transmission in progress early nor starts one
    /// on an idle link.
    #[test]
    fn a_foreign_timer_token_is_ignored() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(10)),
            1e6,
            0.0,
            Rng::seed_from(5),
        )));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<LinkQueue>(link).set_next_hop(sink);
        eng.schedule(0.0, link, NetEvent::Timer(7));
        eng.schedule(0.001, link, NetEvent::Packet(pkt(0, 1250)));
        eng.schedule(0.005, link, NetEvent::Timer(0));
        eng.schedule(0.020, link, NetEvent::Timer(TX_DONE - 1));
        eng.run_until(0.0105);
        assert_eq!(eng.get::<LinkQueue>(link).link_stats().transmitted, 0);
        eng.run_until(1.0);
        let l: &LinkQueue = eng.get(link);
        assert_eq!(l.link_stats().transmitted, 1);
        assert!((l.link_stats().busy_time - 0.010).abs() < 1e-12);
        assert!(eng.is_idle());
        let s: &Sink = eng.get(sink);
        assert_eq!(s.arrivals.len(), 1);
        assert!((s.arrivals[0].0 - 0.011).abs() < 1e-12);
    }
}
