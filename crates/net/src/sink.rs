//! A terminal sink that records arrivals.

use crate::packet::{NetEvent, Packet};
use ebrc_sim::{Component, Context};

/// Swallows packets, recording `(arrival_time, packet)` pairs and
/// aggregate counters. Useful as the terminal hop of probe flows and in
/// tests.
#[derive(Debug, Default)]
pub struct Sink {
    /// Recorded arrivals in order; disable with
    /// [`Sink::counting_only`] for long runs.
    pub arrivals: Vec<(f64, Packet)>,
    counting_only: bool,
    count: u64,
    bytes: u64,
}

impl Sink {
    /// A sink that records every arrival.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink that keeps only counters (no per-packet log).
    pub fn counting_only() -> Self {
        Self {
            counting_only: true,
            ..Self::default()
        }
    }

    /// Packets received.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Component<NetEvent> for Sink {
    fn handle(&mut self, now: f64, event: NetEvent, _ctx: &mut Context<NetEvent>) {
        if let NetEvent::Packet(pkt) = event {
            self.count += 1;
            self.bytes += pkt.size.get() as u64;
            if !self.counting_only {
                self.arrivals.push((now, pkt));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use ebrc_sim::Engine;

    #[test]
    fn records_and_counts() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let s = eng.add(Box::new(Sink::new()));
        for i in 0..5u64 {
            eng.schedule(
                i as f64,
                s,
                NetEvent::Packet(Packet::data(FlowId(0), i, 100, i as f64)),
            );
        }
        eng.run_until(10.0);
        let sink: &Sink = eng.get(s);
        assert_eq!(sink.count(), 5);
        assert_eq!(sink.bytes(), 500);
        assert_eq!(sink.arrivals.len(), 5);
        assert_eq!(sink.arrivals[4].0, 4.0);
    }

    #[test]
    fn counting_only_skips_log() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let s = eng.add(Box::new(Sink::counting_only()));
        eng.schedule(
            0.0,
            s,
            NetEvent::Packet(Packet::data(FlowId(0), 0, 64, 0.0)),
        );
        eng.run_until(1.0);
        let sink: &Sink = eng.get(s);
        assert_eq!(sink.count(), 1);
        assert!(sink.arrivals.is_empty());
    }
}
