//! Packets and the shared network event type.

use std::num::NonZeroU32;

/// Identifies a flow (one sender/receiver pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

/// TCP acknowledgment payload: cumulative ACK plus SACK blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct AckInfo {
    /// Next sequence number expected by the receiver (all `< cum_ack`
    /// delivered).
    pub cum_ack: u64,
    /// Selectively acknowledged ranges above `cum_ack`, as half-open
    /// `[start, end)` pairs, lowest first, at most three (as on the
    /// wire).
    pub sack: Vec<(u64, u64)>,
    /// Sequence number of the data packet that triggered this ACK (for
    /// Karn-compliant RTT sampling at the sender).
    pub echo_seq: u64,
    /// That packet's send timestamp, echoed back.
    pub echo_ts: f64,
}

/// TFRC receiver report payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackInfo {
    /// Average loss interval `θ̂` computed by the receiver (packets);
    /// `f64::INFINITY` before the first loss event.
    pub avg_interval: f64,
    /// Receive rate over the last feedback period (packets/second).
    pub x_recv: f64,
    /// Receive rate in bytes/second (RFC 3448 measures X_recv in bytes;
    /// the variable-packet-length audio mode needs this form).
    pub x_recv_bytes: f64,
    /// Echo of the sender timestamp for RTT measurement.
    pub echo_ts: f64,
    /// Total loss events the receiver has observed (lets the sender
    /// notice new events for its own Palm bookkeeping).
    pub events: u64,
}

/// What a non-data packet reports back to its sender.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    /// TCP acknowledgment.
    Ack(AckInfo),
    /// TFRC feedback report.
    Feedback(FeedbackInfo),
}

/// A simulated packet: 32 bytes, pinned by the size test below.
///
/// Every packet in flight is one of these: queued in a RED buffer, or
/// the payload of a pending [`NetEvent`], which the engine keeps in 48
/// bytes in a lane and in a 64-byte calendar slot. A DropTail buffer
/// keeps all but its report in 24 bytes, and at 10⁴ flows holds ~70 000
/// of them. A report rides in one 48-byte box behind a nullable pointer
/// (`None` is data), so a packet pays 8 bytes for its payload where a
/// tagged `Data | Ack(Box) | Feedback(Box)` paid 16, and inline the
/// 48-byte [`AckInfo`] would make every pending event 96 bytes. The
/// price is one small allocation per ACK or feedback, the cheaper side:
/// on the ledger (`benchmark/`, 2-vCPU host, medians of 4 alternating
/// pairs) boxing took `dumbbell_long`, the ACK-heaviest workload, from
/// 2.42 to 2.24 s of wall time. The size's one invalid value, 0, is the
/// niche that holds [`NetEvent`]'s tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Per-flow sequence number (data packets count monotonically).
    pub seq: u64,
    /// Size on the wire in bytes; every packet carries at least one.
    pub size: NonZeroU32,
    /// The report this packet carries back to its sender; `None` for
    /// a data packet.
    pub report: Option<Box<Report>>,
    /// Simulation time at which the origin endpoint emitted it.
    pub sent_at: f64,
}

impl Packet {
    /// A data packet.
    ///
    /// # Panics
    /// Panics if `size` is 0.
    pub fn data(flow: FlowId, seq: u64, size: u32, sent_at: f64) -> Self {
        Self::new(flow, seq, size, None, sent_at)
    }

    /// A packet carrying `report` back to its sender.
    ///
    /// # Panics
    /// Panics if `size` is 0.
    pub fn report(flow: FlowId, seq: u64, size: u32, report: Report, sent_at: f64) -> Self {
        Self::new(flow, seq, size, Some(Box::new(report)), sent_at)
    }

    fn new(flow: FlowId, seq: u64, size: u32, report: Option<Box<Report>>, sent_at: f64) -> Self {
        Self {
            flow,
            seq,
            size: NonZeroU32::new(size).expect("a packet carries at least one byte"),
            report,
            sent_at,
        }
    }

    /// Size in bits (what a link serializes).
    pub fn bits(&self) -> f64 {
        self.size.get() as f64 * 8.0
    }

    /// Whether this is a data packet.
    pub fn is_data(&self) -> bool {
        self.report.is_none()
    }
}

/// The [`NetEvent::Timer`] token a [`LinkQueue`](crate::LinkQueue)
/// arms for itself when it finishes serializing its head packet. No
/// component's own tokens reach it: they are generation counters, small
/// constants and flow indices, all far below `u64::MAX`.
pub const TX_DONE: u64 = u64::MAX;

/// The single event type all network components exchange.
///
/// Two variants keep it at 32 bytes: [`Packet`]'s zero-size niche holds
/// the tag, and a third variant would need a second niche value and a
/// word of its own.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent {
    /// A packet arriving at the component.
    Packet(Packet),
    /// A component-private timer; the token's meaning is local to the
    /// component that scheduled it, except [`TX_DONE`], which only a
    /// link sends itself.
    Timer(u64),
}

/// A static display label for `event`, for trace slices: which kind of
/// event a component is handling, without per-event allocation.
pub fn net_event_name(event: &NetEvent) -> &'static str {
    match event {
        NetEvent::Packet(p) => match p.report.as_deref() {
            None => "packet:data",
            Some(Report::Ack(_)) => "packet:ack",
            Some(Report::Feedback(_)) => "packet:feedback",
        },
        NetEvent::Timer(TX_DONE) => "txdone",
        NetEvent::Timer(_) => "timer",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_event_names_cover_every_variant() {
        assert_eq!(
            net_event_name(&NetEvent::Packet(Packet::data(FlowId(0), 0, 100, 0.0))),
            "packet:data"
        );
        assert_eq!(net_event_name(&NetEvent::Timer(3)), "timer");
        let fb = NetEvent::Packet(Packet::report(
            FlowId(0),
            0,
            40,
            Report::Feedback(FeedbackInfo {
                avg_interval: f64::INFINITY,
                x_recv: 0.0,
                x_recv_bytes: 0.0,
                echo_ts: 0.0,
                events: 0,
            }),
            0.0,
        ));
        assert_eq!(net_event_name(&fb), "packet:feedback");
    }

    /// Traces name the link's own timer `txdone`; every other token is
    /// a plain timer.
    #[test]
    fn only_the_tx_done_token_is_named_txdone() {
        assert_eq!(net_event_name(&NetEvent::Timer(TX_DONE)), "txdone");
        for token in [0, 1, 1 << 32, TX_DONE - 1] {
            assert_eq!(net_event_name(&NetEvent::Timer(token)), "timer");
        }
    }

    /// Every packet in flight is a `Packet` in a queue or the payload
    /// of a pending `NetEvent` in a lane or a calendar slot, and the
    /// calendar's trait moves it as a `Scheduled<NetEvent>`; growing a
    /// packet payload grows them all. Shrink or box the new field
    /// instead of raising these bounds. (`ebrc-sim` pins the engine's
    /// own records for a 32-byte payload, `queue.rs` DropTail's.)
    #[test]
    fn packets_in_flight_stay_compact() {
        let packet = std::mem::size_of::<Packet>();
        assert!(packet <= 32, "Packet grew to {packet} bytes");
        let event = std::mem::size_of::<NetEvent>();
        assert!(event <= 32, "NetEvent grew to {event} bytes");
        let size = std::mem::size_of::<ebrc_sim::Scheduled<NetEvent>>();
        assert!(size <= 56, "Scheduled<NetEvent> grew to {size} bytes");
    }

    #[test]
    fn data_packet_constructor() {
        let p = Packet::data(FlowId(3), 17, 1500, 2.5);
        assert!(p.is_data());
        assert_eq!(p.bits(), 12_000.0);
        assert_eq!(p.flow, FlowId(3));
        assert_eq!(p.seq, 17);
        assert_eq!(p.sent_at, 2.5);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn an_empty_packet_is_refused() {
        Packet::data(FlowId(0), 0, 0, 0.0);
    }

    #[test]
    fn ack_is_not_data() {
        let p = Packet::report(
            FlowId(0),
            0,
            40,
            Report::Ack(AckInfo {
                cum_ack: 5,
                sack: vec![(7, 9)],
                echo_seq: 8,
                echo_ts: 0.0,
            }),
            0.0,
        );
        assert!(!p.is_data());
        assert_eq!(p.bits(), 320.0);
    }
}
