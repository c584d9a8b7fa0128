//! Delayed-ACK TCP receiver with SACK generation.

use ebrc_net::{AckInfo, FlowId, NetEvent, Packet, Report};
use ebrc_sim::{Component, ComponentId, Context};
use std::collections::BTreeSet;

const ACK_SIZE: u32 = 40;
/// Token space for the delayed-ACK timer (generation-counted).
const TIMER_DELACK_BASE: u64 = 1 << 32;
/// How long a lone segment waits for a second one before it is
/// acknowledged alone, seconds.
const DELACK_TIMEOUT: f64 = 0.1;

/// The receiving endpoint of a TCP flow: delivers cumulative +
/// selective acknowledgments, delaying ACKs so that one ACK covers two
/// segments (`b = 2`, the PFTK parameterization the paper uses), with a
/// timer so a lone segment is still acknowledged promptly.
pub struct TcpSink {
    flow: FlowId,
    reverse_hop: Option<ComponentId>,
    cum_ack: u64,
    out_of_order: BTreeSet<u64>,
    pending_acks: u32,
    delack_gen: u64,
    delack_armed: bool,
    received: u64,
    acks_sent: u64,
    last_echo: (u64, f64),
}

impl TcpSink {
    /// A receiver for `flow`, acknowledging every second segment or
    /// after 100 ms.
    pub fn new(flow: FlowId) -> Self {
        Self {
            flow,
            reverse_hop: None,
            cum_ack: 0,
            out_of_order: BTreeSet::new(),
            pending_acks: 0,
            delack_gen: 0,
            delack_armed: false,
            received: 0,
            acks_sent: 0,
            last_echo: (0, 0.0),
        }
    }

    /// Wires the first hop of the reverse (ACK) path.
    pub fn set_reverse_hop(&mut self, id: ComponentId) {
        self.reverse_hop = Some(id);
    }

    /// Data packets received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Current cumulative acknowledgment point.
    pub fn cum_ack(&self) -> u64 {
        self.cum_ack
    }

    fn sack_blocks(&self) -> Vec<(u64, u64)> {
        let mut blocks = Vec::new();
        let mut iter = self.out_of_order.iter().copied().peekable();
        while let Some(start) = iter.next() {
            let mut end = start + 1;
            while iter.peek() == Some(&end) {
                iter.next();
                end += 1;
            }
            blocks.push((start, end));
            if blocks.len() == 3 {
                break;
            }
        }
        blocks
    }

    fn emit_ack(&mut self, now: f64, ctx: &mut Context<NetEvent>) {
        let hop = self.reverse_hop.expect("tcp sink reverse hop not wired");
        let info = AckInfo {
            cum_ack: self.cum_ack,
            sack: self.sack_blocks(),
            echo_seq: self.last_echo.0,
            echo_ts: self.last_echo.1,
        };
        self.acks_sent += 1;
        self.pending_acks = 0;
        self.delack_armed = false;
        self.delack_gen += 1;
        ctx.send(
            0.0,
            hop,
            NetEvent::Packet(Packet::report(
                self.flow,
                self.acks_sent,
                ACK_SIZE,
                Report::Ack(info),
                now,
            )),
        );
    }

    fn on_data(&mut self, now: f64, pkt: &Packet, ctx: &mut Context<NetEvent>) {
        self.received += 1;
        self.last_echo = (pkt.seq, pkt.sent_at);
        let in_order = pkt.seq == self.cum_ack;
        let had_buffered_gap = !self.out_of_order.is_empty();
        if in_order && !had_buffered_gap {
            // The common case: nothing buffered, next expected segment.
            // Skips an insert + remove on an empty set (a tree-node
            // allocation and free per data packet).
            self.cum_ack += 1;
        } else if pkt.seq >= self.cum_ack {
            self.out_of_order.insert(pkt.seq);
            // Advance the cumulative point over any filled prefix.
            while self.out_of_order.remove(&self.cum_ack) {
                self.cum_ack += 1;
            }
        }
        if !in_order || had_buffered_gap {
            // Out-of-order, duplicate, or gap-filling data: ACK now (the
            // immediate ACKs generate the duplicates fast retransmit
            // needs, and gap fills must unblock the sender promptly).
            self.emit_ack(now, ctx);
        } else {
            self.pending_acks += 1;
            if self.pending_acks >= 2 {
                self.emit_ack(now, ctx);
            } else if !self.delack_armed {
                self.delack_armed = true;
                let gen = self.delack_gen;
                ctx.send_self(DELACK_TIMEOUT, NetEvent::Timer(TIMER_DELACK_BASE + gen));
            }
        }
    }
}

impl Component<NetEvent> for TcpSink {
    fn handle(&mut self, now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        match event {
            NetEvent::Packet(pkt) if pkt.is_data() => self.on_data(now, &pkt, ctx),
            // Stale generations are ignored (the ACK already went out).
            NetEvent::Timer(token)
                if token >= TIMER_DELACK_BASE
                    && self.delack_armed
                    && token - TIMER_DELACK_BASE == self.delack_gen =>
            {
                if self.pending_acks > 0 {
                    self.emit_ack(now, ctx);
                } else {
                    self.delack_armed = false;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebrc_net::Sink;
    use ebrc_sim::Engine;

    fn setup() -> (
        Engine<NetEvent>,
        ebrc_sim::ComponentId,
        ebrc_sim::ComponentId,
    ) {
        let mut eng: Engine<NetEvent> = Engine::new();
        let sink = eng.add(Box::new(TcpSink::new(FlowId(1))));
        let ack_sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<TcpSink>(sink).set_reverse_hop(ack_sink);
        (eng, sink, ack_sink)
    }

    fn data(seq: u64, t: f64) -> NetEvent {
        NetEvent::Packet(Packet::data(FlowId(1), seq, 1500, t))
    }

    fn acks(eng: &Engine<NetEvent>, id: ebrc_sim::ComponentId) -> Vec<AckInfo> {
        eng.get::<Sink>(id)
            .arrivals
            .iter()
            .filter_map(|(_, p)| match p.report.as_deref() {
                Some(Report::Ack(a)) => Some(a.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn acks_every_second_segment() {
        let (mut eng, sink, ack_sink) = setup();
        for i in 0..6u64 {
            eng.schedule(i as f64 * 0.001, sink, data(i, 0.0));
        }
        eng.run_until(0.05); // before the delack timer could fire
        let a = acks(&eng, ack_sink);
        assert_eq!(a.len(), 3);
        assert_eq!(a.last().unwrap().cum_ack, 6);
    }

    #[test]
    fn lone_segment_acked_by_timer() {
        let (mut eng, sink, ack_sink) = setup();
        eng.schedule(0.0, sink, data(0, 0.0));
        eng.run_until(0.05);
        assert!(acks(&eng, ack_sink).is_empty(), "ACK before timer");
        eng.run_until(0.2);
        let a = acks(&eng, ack_sink);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].cum_ack, 1);
    }

    #[test]
    fn gap_triggers_immediate_duplicate_acks_with_sack() {
        let (mut eng, sink, ack_sink) = setup();
        // 0, 1 in order; 2 lost; 3, 4, 5 arrive.
        for (t, seq) in [(0.0, 0u64), (0.001, 1), (0.003, 3), (0.004, 4), (0.005, 5)] {
            eng.schedule(t, sink, data(seq, 0.0));
        }
        eng.run_until(0.01);
        let a = acks(&eng, ack_sink);
        // One delayed ack for (0,1), then three immediate dupacks.
        assert_eq!(a.len(), 4);
        for dup in &a[1..] {
            assert_eq!(dup.cum_ack, 2);
            assert_eq!(dup.sack[0].0, 3);
        }
        assert_eq!(a[3].sack[0], (3, 6));
    }

    #[test]
    fn retransmission_fills_gap_and_jumps_cum_ack() {
        let (mut eng, sink, ack_sink) = setup();
        for (t, seq) in [(0.0, 0u64), (0.001, 1), (0.002, 3), (0.003, 2)] {
            eng.schedule(t, sink, data(seq, 0.0));
        }
        eng.run_until(0.01);
        let a = acks(&eng, ack_sink);
        let last = a.last().unwrap();
        assert_eq!(last.cum_ack, 4);
        assert!(last.sack.is_empty());
    }

    #[test]
    fn echo_carries_latest_data_timestamp() {
        let (mut eng, sink, ack_sink) = setup();
        eng.schedule(0.5, sink, data(0, 0.4));
        eng.schedule(0.6, sink, data(1, 0.45));
        eng.run_until(1.0);
        let a = acks(&eng, ack_sink);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].echo_seq, 1);
        assert!((a[0].echo_ts - 0.45).abs() < 1e-12);
    }

    #[test]
    fn sack_blocks_capped_at_three() {
        let (mut eng, sink, ack_sink) = setup();
        // Gaps at 0, 2, 4, 6, 8: received 1, 3, 5, 7, 9.
        for (i, seq) in [1u64, 3, 5, 7, 9].into_iter().enumerate() {
            eng.schedule(i as f64 * 0.001, sink, data(seq, 0.0));
        }
        eng.run_until(0.01);
        let a = acks(&eng, ack_sink);
        let last = a.last().unwrap();
        assert_eq!(last.sack.len(), 3);
        assert_eq!(last.sack[0], (1, 2));
    }
}
