//! Per-flow demultiplexer.

use crate::packet::{FlowId, NetEvent};
use ebrc_sim::{Component, ComponentId, Context};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One-multiplication hasher for [`FlowId`] keys. Flow ids come from
/// the scenario builder, never from outside input, so SipHash's
/// collision resistance buys nothing here and costs its rounds twice
/// per packet round trip. The Fibonacci multiplier mixes dense ids
/// (0, 1, 2, …) and sparse ones like `u32::MAX` into the high bits; the
/// fold brings them down to the low bits the table indexes by.
#[derive(Debug, Default, Clone, Copy)]
struct FlowHasher(u64);

impl Hasher for FlowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, id: u32) {
        let h = (self.0 ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Routes each packet to the endpoint registered for its flow id —
/// the "last hop" fan-out of a dumbbell topology.
#[derive(Debug, Default)]
pub struct Demux {
    routes: HashMap<FlowId, ComponentId, BuildHasherDefault<FlowHasher>>,
    default_route: Option<ComponentId>,
}

impl Demux {
    /// An empty demux; register endpoints with [`Demux::route`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the endpoint for a flow.
    pub fn route(&mut self, flow: FlowId, target: ComponentId) {
        self.routes.insert(flow, target);
    }

    /// Registers a fallback endpoint for flows with no per-flow route.
    ///
    /// Batch components (e.g. a many-flow `FlowClass` bank) own
    /// thousands of flows behind one `ComponentId`; a default route
    /// forwards all of them in O(1) without one hash entry per flow.
    pub fn default_route(&mut self, target: ComponentId) {
        self.default_route = Some(target);
    }
}

impl Component<NetEvent> for Demux {
    fn handle(&mut self, _now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        if let NetEvent::Packet(pkt) = event {
            let target = self
                .routes
                .get(&pkt.flow)
                .copied()
                .or(self.default_route)
                .unwrap_or_else(|| panic!("no route for flow {:?}", pkt.flow));
            ctx.send(0.0, target, NetEvent::Packet(pkt));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkQueue;
    use crate::packet::Packet;
    use crate::queue::DropTailQueue;
    use crate::sink::Sink;
    use ebrc_dist::Rng;
    use ebrc_sim::Engine;

    #[test]
    fn routes_by_flow() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(Demux::new()));
        let a = eng.add(Box::new(Sink::counting_only()));
        let b = eng.add(Box::new(Sink::counting_only()));
        {
            let demux = eng.get_mut::<Demux>(d);
            demux.route(FlowId(1), a);
            demux.route(FlowId(2), b);
        }
        for i in 0..10u64 {
            let flow = if i % 3 == 0 { FlowId(1) } else { FlowId(2) };
            eng.schedule(0.0, d, NetEvent::Packet(Packet::data(flow, i, 100, 0.0)));
        }
        eng.run_until(1.0);
        assert_eq!(eng.get::<Sink>(a).count(), 4);
        assert_eq!(eng.get::<Sink>(b).count(), 6);
    }

    #[test]
    fn default_route_catches_unregistered_flows() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(Demux::new()));
        let a = eng.add(Box::new(Sink::counting_only()));
        let bank = eng.add(Box::new(Sink::counting_only()));
        {
            let demux = eng.get_mut::<Demux>(d);
            demux.route(FlowId(1), a);
            demux.default_route(bank);
        }
        for i in 0..10u64 {
            let flow = if i % 5 == 0 {
                FlowId(1)
            } else {
                FlowId(100 + i as u32)
            };
            eng.schedule(0.0, d, NetEvent::Packet(Packet::data(flow, i, 100, 0.0)));
        }
        eng.run_until(1.0);
        assert_eq!(eng.get::<Sink>(a).count(), 2);
        assert_eq!(eng.get::<Sink>(bank).count(), 8);
    }

    /// Neither the link (which keys nothing by flow) nor the demux's
    /// route table may assume small flow ids.
    #[test]
    fn out_of_band_flow_id_crosses_link_and_demux() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(2)),
            1e6,
            0.001,
            Rng::seed_from(1),
        )));
        let d = eng.add(Box::new(Demux::new()));
        let small = eng.add(Box::new(Sink::counting_only()));
        let background = eng.add(Box::new(Sink::counting_only()));
        eng.get_mut::<LinkQueue>(link).set_next_hop(d);
        {
            let demux = eng.get_mut::<Demux>(d);
            demux.route(FlowId(0), small);
            demux.route(FlowId(u32::MAX), background);
        }
        // Six simultaneous arrivals into a 2-packet queue: one in
        // service + two queued pass, three drop.
        eng.schedule(
            0.0,
            link,
            NetEvent::Packet(Packet::data(FlowId(0), 0, 1250, 0.0)),
        );
        for i in 0..5u64 {
            let pkt = Packet::data(FlowId(u32::MAX), i, 1250, 0.0);
            eng.schedule(0.0, link, NetEvent::Packet(pkt));
        }
        eng.run_until(1.0);
        assert_eq!(eng.get::<LinkQueue>(link).total_drops(), 3);
        assert_eq!(eng.get::<Sink>(small).count(), 1);
        assert_eq!(eng.get::<Sink>(background).count(), 2);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unknown_flow_panics() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(Demux::new()));
        eng.schedule(
            0.0,
            d,
            NetEvent::Packet(Packet::data(FlowId(9), 0, 100, 0.0)),
        );
        eng.run_until(1.0);
    }
}
