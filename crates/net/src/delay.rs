//! Pure propagation delay — the NIST Net emulator stand-in.

use crate::packet::NetEvent;
use ebrc_sim::{Component, ComponentId, Context};

/// Forwards every packet to `next_hop` after a fixed delay, optionally
/// perturbed per-packet by a bounded jitter drawn uniformly from
/// `[0, jitter)` (kept small enough in practice not to reorder).
///
/// The lab experiments of the paper inserted 25 ms each way with NIST
/// Net; one `DelayBox` per direction reproduces that.
///
/// Without jitter the box is a FIFO pipe — packets leave in the order
/// they entered — and says so through [`Component::fixed_delay`], so
/// the engine keeps its packets in flight in a queue, not the calendar.
pub struct DelayBox {
    delay: f64,
    jitter: f64,
    next_hop: Option<ComponentId>,
    rng: ebrc_dist::Rng,
}

impl DelayBox {
    /// A fixed-delay box.
    ///
    /// # Panics
    /// Panics if `delay` is negative.
    pub fn new(delay: f64, rng: ebrc_dist::Rng) -> Self {
        assert!(delay >= 0.0, "delay must be non-negative");
        Self {
            delay,
            jitter: 0.0,
            next_hop: None,
            rng,
        }
    }

    /// Adds uniform per-packet jitter in `[0, jitter)` seconds.
    ///
    /// # Panics
    /// Panics if `jitter` is negative.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!(jitter >= 0.0, "jitter must be non-negative");
        self.jitter = jitter;
        self
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
            let extra = if self.jitter > 0.0 {
                self.rng.range(0.0, self.jitter)
            } else {
                0.0
            };
            ctx.send(self.delay + extra, next, NetEvent::Packet(pkt));
        }
    }

    /// The base delay, unless jitter makes every packet's its own.
    fn fixed_delay(&self) -> Option<f64> {
        (self.jitter == 0.0).then_some(self.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use crate::sink::Sink;
    use ebrc_dist::Rng;
    use ebrc_sim::{Calendar, Engine, Scheduled, WheelCalendar};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn forwards_after_fixed_delay() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(DelayBox::new(0.025, Rng::seed_from(1))));
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

    #[test]
    fn jitter_stays_bounded() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(
            DelayBox::new(0.010, Rng::seed_from(2)).with_jitter(0.002),
        ));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<DelayBox>(d).set_next_hop(sink);
        for i in 0..100 {
            eng.schedule(
                i as f64,
                d,
                NetEvent::Packet(Packet::data(FlowId(0), i as u64, 100, i as f64)),
            );
        }
        eng.run_until(200.0);
        let s: &Sink = eng.get(sink);
        for (t, p) in &s.arrivals {
            let lat = t - p.sent_at;
            assert!((0.010..0.012).contains(&lat), "latency {lat}");
        }
    }

    /// A wheel that counts what reaches it.
    struct CountingCalendar {
        inner: WheelCalendar<NetEvent>,
        pushes: Arc<AtomicUsize>,
    }

    impl Calendar<NetEvent> for CountingCalendar {
        fn with_capacity(events: usize) -> Self {
            Self {
                inner: Calendar::with_capacity(events),
                pushes: Arc::default(),
            }
        }
        fn push(&mut self, item: Scheduled<NetEvent>) {
            self.pushes.fetch_add(1, Ordering::Relaxed);
            self.inner.push(item);
        }
        fn pop(&mut self) -> Option<Scheduled<NetEvent>> {
            self.inner.pop()
        }
        fn next_key(&mut self) -> Option<(f64, u64)> {
            self.inner.next_key()
        }
        fn next_is_at(&mut self, time: f64) -> bool {
            self.inner.next_is_at(time)
        }
        fn pop_not_after(&mut self, horizon: f64) -> Option<Scheduled<NetEvent>> {
            self.inner.pop_not_after(horizon)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    /// `packets` packets, 1 ms apart, through two boxes in a row (5 ms,
    /// then 7 ms plus `jitter`) into a sink. Returns the calendar
    /// pushes beyond the externally scheduled packets themselves.
    fn pushes_of_a_two_box_pipeline(packets: usize, jitter: f64) -> usize {
        let calendar = CountingCalendar::with_capacity(0);
        let pushes = Arc::clone(&calendar.pushes);
        let mut eng = Engine::with_calendar(calendar, 3);
        let a = eng.add(Box::new(DelayBox::new(0.005, Rng::seed_from(4))));
        let b = eng.add(Box::new(
            DelayBox::new(0.007, Rng::seed_from(5)).with_jitter(jitter),
        ));
        let sink = eng.add(Box::new(Sink::new()));
        eng.get_mut::<DelayBox>(a).set_next_hop(b);
        eng.get_mut::<DelayBox>(b).set_next_hop(sink);
        for i in 0..packets {
            let at = i as f64 * 1e-3;
            let pkt = Packet::data(FlowId(0), i as u64, 100, at);
            eng.schedule(at, a, NetEvent::Packet(pkt));
        }
        eng.run_until(1.0);
        assert!(eng.is_idle());
        let s: &Sink = eng.get(sink);
        assert_eq!(s.arrivals.len(), packets);
        for (i, (t, p)) in s.arrivals.iter().enumerate() {
            assert_eq!(p.seq, i as u64, "a pipe delivers in order");
            let lat = t - p.sent_at;
            assert!((0.012 - 1e-12..0.012 + jitter + 1e-12).contains(&lat));
        }
        pushes.load(Ordering::Relaxed) - packets
    }

    #[test]
    fn zero_jitter_deliveries_never_reach_the_calendar() {
        assert_eq!(pushes_of_a_two_box_pipeline(50, 0.0), 0);
    }

    #[test]
    fn a_jittered_box_declares_no_fixed_delay() {
        let plain = DelayBox::new(0.007, Rng::seed_from(5));
        assert_eq!(plain.fixed_delay(), Some(0.007));
        assert_eq!(plain.with_jitter(1e-4).fixed_delay(), None);
        // Its deliveries are timed one by one: the calendar's job.
        assert_eq!(pushes_of_a_two_box_pipeline(50, 1e-4), 50);
    }

    #[test]
    fn ignores_non_packet_events() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(DelayBox::new(0.01, Rng::seed_from(3))));
        eng.schedule(0.0, d, NetEvent::Timer(0));
        eng.run_until(1.0); // must not panic on unwired next hop
    }
}
