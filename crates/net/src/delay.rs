//! Pure propagation delay — the NIST Net emulator stand-in.

use crate::packet::NetEvent;
use ebrc_sim::{Component, ComponentId, Context};

/// Forwards every packet to `next_hop` after a fixed delay.
///
/// The lab experiments of the paper inserted 25 ms each way with NIST
/// Net; one `DelayBox` per direction reproduces that.
///
/// The box is a FIFO pipe — packets leave in the order they entered —
/// and says so through [`Component::fixed_delay`], so the engine keeps
/// its packets in flight in a queue, not the calendar.
pub struct DelayBox {
    delay: f64,
    next_hop: Option<ComponentId>,
}

impl DelayBox {
    /// A fixed-delay box.
    ///
    /// # Panics
    /// Panics if `delay` is negative.
    pub fn new(delay: f64) -> Self {
        assert!(delay >= 0.0, "delay must be non-negative");
        Self {
            delay,
            next_hop: None,
        }
    }

    /// Wires the downstream component.
    pub fn set_next_hop(&mut self, id: ComponentId) {
        self.next_hop = Some(id);
    }
}

impl Component<NetEvent> for DelayBox {
    fn handle(&mut self, _now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        if let NetEvent::Packet(pkt) = event {
            let next = self.next_hop.expect("delay box next hop not wired");
            ctx.send(self.delay, next, NetEvent::Packet(pkt));
        }
    }

    fn fixed_delay(&self) -> Option<f64> {
        Some(self.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use crate::sink::Sink;
    use ebrc_sim::{Engine, RunLimit};

    #[test]
    fn forwards_after_fixed_delay() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(DelayBox::new(0.025)));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<DelayBox>(d).set_next_hop(sink);
        eng.schedule(
            1.0,
            d,
            NetEvent::Packet(Packet::data(FlowId(0), 0, 100, 1.0)),
        );
        eng.run_until(2.0);
        let s: &Sink = eng.get(sink);
        assert_eq!(s.arrivals.len(), 1);
        assert!((s.arrivals[0].0 - 1.025).abs() < 1e-12);
    }

    /// How many events `eng` holds in its calendar and in its
    /// fixed-delay lane, as its `Debug` form reports.
    fn calendar_and_lane_lens(eng: &Engine<NetEvent>) -> (usize, usize) {
        let debug = format!("{eng:?}");
        let len = |field: &str| {
            let (_, rest) = debug.split_once(field).expect("reported");
            let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
            digits.and_then(|d| d.parse().ok()).expect("a count")
        };
        (len("calendar_len: "), len("delay_lane_len: "))
    }

    #[test]
    fn the_first_boxs_deliveries_never_reach_the_calendar() {
        // 50 packets, all sent at t = 0, through two boxes in a row
        // (5 ms, then 7 ms) into a sink. The first box declares the
        // engine's one fixed delay; the second's deliveries wait in the
        // calendar.
        let packets = 50;
        let mut eng: Engine<NetEvent> = Engine::with_capacity(3, 0);
        let a = eng.add(Box::new(DelayBox::new(0.005)));
        let b = eng.add(Box::new(DelayBox::new(0.007)));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<DelayBox>(a).set_next_hop(b);
        eng.get_mut::<DelayBox>(b).set_next_hop(sink);
        for i in 0..packets {
            let pkt = Packet::data(FlowId(0), i as u64, 100, 0.0);
            eng.schedule(0.0, a, NetEvent::Packet(pkt));
        }
        // Once the first box has taken them all, every packet it holds
        // waits in the lane.
        let _ = eng.run_budgeted(RunLimit::events(packets as u64));
        assert_eq!(calendar_and_lane_lens(&eng), (0, packets));
        let mut peak = (0, 0);
        while eng.run_budgeted(RunLimit::events(1)).events == 1 {
            let (calendar, lane) = calendar_and_lane_lens(&eng);
            peak = (peak.0.max(calendar), peak.1.max(lane));
        }
        assert_eq!(peak, (packets, packets - 1));
        let s: &Sink = eng.get(sink);
        assert_eq!(s.arrivals.len(), packets);
        for (i, (t, p)) in s.arrivals.iter().enumerate() {
            assert_eq!(p.seq, i as u64, "a pipe delivers in order");
            assert!((t - p.sent_at - 0.012).abs() < 1e-12);
        }
    }

    #[test]
    fn ignores_non_packet_events() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(DelayBox::new(0.01)));
        eng.schedule(0.0, d, NetEvent::Timer(0));
        eng.run_until(1.0); // must not panic on unwired next hop
    }
}
