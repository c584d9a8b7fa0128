//! Bernoulli packet dropper — the Figure 6 loss module.

use crate::packet::NetEvent;
use ebrc_dist::Rng;
use ebrc_sim::{Component, ComponentId, Context};

/// Drops each packet with a fixed probability, independent of its
/// length or the traffic history.
///
/// This models "RED operating in the packet mode" with a constant drop
/// probability, the setting of Section V-C: a sender that modulates its
/// packet *lengths* through this dropper has `cov[X0, S0] = 0`, the
/// hypothesis of Claim 2.
pub struct BernoulliDropper {
    p_drop: f64,
    next_hop: Option<ComponentId>,
    rng: Rng,
    offered: u64,
    dropped: u64,
}

impl BernoulliDropper {
    /// A dropper with the given per-packet drop probability.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p_drop < 1` (a dropper at 1 would black-hole
    /// the flow and deadlock rate control).
    pub fn new(p_drop: f64, rng: Rng) -> Self {
        assert!((0.0..1.0).contains(&p_drop), "p_drop must be in [0, 1)");
        Self {
            p_drop,
            next_hop: None,
            rng,
            offered: 0,
            dropped: 0,
        }
    }

    /// Wires the downstream component.
    pub fn set_next_hop(&mut self, id: ComponentId) {
        self.next_hop = Some(id);
    }

    /// Packets offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Component<NetEvent> for BernoulliDropper {
    fn handle(&mut self, _now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        if let NetEvent::Packet(pkt) = event {
            self.offered += 1;
            if self.rng.chance(self.p_drop) {
                self.dropped += 1;
            } else {
                let next = self.next_hop.expect("dropper next hop not wired");
                ctx.send(0.0, next, NetEvent::Packet(pkt));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use crate::sink::Sink;
    use ebrc_sim::Engine;

    #[test]
    fn drop_rate_converges_to_p() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(BernoulliDropper::new(0.1, Rng::seed_from(1))));
        let sink = eng.add(Box::new(Sink::counting_only()));
        eng.get_mut::<BernoulliDropper>(d).set_next_hop(sink);
        for i in 0..50_000u64 {
            eng.schedule(
                i as f64 * 1e-3,
                d,
                NetEvent::Packet(Packet::data(FlowId(0), i, 100, 0.0)),
            );
        }
        eng.run_until(100.0);
        let dr: &BernoulliDropper = eng.get(d);
        let drop_rate = dr.dropped() as f64 / dr.offered() as f64;
        assert!((drop_rate - 0.1).abs() < 0.01, "{drop_rate}");
        let s: &Sink = eng.get(sink);
        assert_eq!(s.count() + dr.dropped(), dr.offered());
    }

    #[test]
    fn zero_probability_forwards_everything() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(BernoulliDropper::new(0.0, Rng::seed_from(2))));
        let sink = eng.add(Box::new(Sink::counting_only()));
        eng.get_mut::<BernoulliDropper>(d).set_next_hop(sink);
        for i in 0..100u64 {
            eng.schedule(
                0.0,
                d,
                NetEvent::Packet(Packet::data(FlowId(0), i, 100, 0.0)),
            );
        }
        eng.run_until(1.0);
        assert_eq!(eng.get::<Sink>(sink).count(), 100);
    }

    #[test]
    #[should_panic(expected = "p_drop")]
    fn certain_drop_rejected() {
        BernoulliDropper::new(1.0, Rng::seed_from(0));
    }
}
