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

    /// How many events `eng` holds in its calendar, as its `Debug`
    /// form reports.
    fn calendar_len(eng: &Engine<NetEvent>) -> usize {
        let debug = format!("{eng:?}");
        let (_, rest) = debug.split_once("calendar_len: ").expect("reported");
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
        digits.and_then(|d| d.parse().ok()).expect("a count")
    }

    /// `packets` packets, all sent at t = 0, through two boxes in a row
    /// (5 ms, then 7 ms) into a sink. Returns the most events the
    /// calendar held once the first box had taken them all — what the
    /// boxes filed there themselves.
    fn calendar_peak_of_a_two_box_pipeline(packets: usize) -> usize {
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
        let _ = eng.run_budgeted(RunLimit::events(packets as u64));
        let mut peak = calendar_len(&eng);
        while eng.run_budgeted(RunLimit::events(1)).events == 1 {
            peak = peak.max(calendar_len(&eng));
        }
        let s: &Sink = eng.get(sink);
        assert_eq!(s.arrivals.len(), packets);
        for (i, (t, p)) in s.arrivals.iter().enumerate() {
            assert_eq!(p.seq, i as u64, "a pipe delivers in order");
            assert!((t - p.sent_at - 0.012).abs() < 1e-12);
        }
        peak
    }

    #[test]
    fn deliveries_never_reach_the_calendar() {
        assert_eq!(calendar_peak_of_a_two_box_pipeline(50), 0);
    }

    #[test]
    fn ignores_non_packet_events() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(DelayBox::new(0.01)));
        eng.schedule(0.0, d, NetEvent::Timer(0));
        eng.run_until(1.0); // must not panic on unwired next hop
    }
}
