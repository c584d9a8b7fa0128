//! Packets and the shared network event type.

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

/// What a packet carries.
///
/// The two reports are boxed. Every pending event is one
/// `Scheduled<NetEvent>` in a lane or a calendar slot: inline, the
/// 48-byte [`AckInfo`] makes each of them 96 bytes; boxed, each fits
/// one 64-byte cache line (pinned by the size test below). The price
/// is one small allocation per ACK or feedback, and it is the cheaper
/// side: on the ledger (`benchmark/`, 2-vCPU host, medians of 4
/// alternating pairs) boxing took `dumbbell_long`, the ACK-heaviest
/// workload, from 2.42 to 2.24 s of wall time and `manyflow_10k` from
/// 1.03 to 0.88 s.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// Payload data.
    Data,
    /// TCP acknowledgment.
    Ack(Box<AckInfo>),
    /// TFRC feedback report.
    Feedback(Box<FeedbackInfo>),
}

/// A simulated packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Per-flow sequence number (data packets count monotonically).
    pub seq: u64,
    /// Size on the wire in bytes.
    pub size: u32,
    /// Payload kind.
    pub kind: PacketKind,
    /// Simulation time at which the origin endpoint emitted it.
    pub sent_at: f64,
}

impl Packet {
    /// A data packet.
    pub fn data(flow: FlowId, seq: u64, size: u32, sent_at: f64) -> Self {
        Self {
            flow,
            seq,
            size,
            kind: PacketKind::Data,
            sent_at,
        }
    }

    /// Size in bits (what a link serializes).
    pub fn bits(&self) -> f64 {
        self.size as f64 * 8.0
    }

    /// Whether this is a data packet.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data)
    }
}

/// The single event type all network components exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent {
    /// A packet arriving at the component.
    Packet(Packet),
    /// The component's link finished serializing the head packet.
    TxDone,
    /// A component-private timer; the token's meaning is local to the
    /// component that scheduled it.
    Timer(u64),
}

/// A static display label for `event`, for trace slices: which kind of
/// event a component is handling, without per-event allocation.
pub fn net_event_name(event: &NetEvent) -> &'static str {
    match event {
        NetEvent::Packet(p) => match p.kind {
            PacketKind::Data => "packet:data",
            PacketKind::Ack(_) => "packet:ack",
            PacketKind::Feedback(_) => "packet:feedback",
        },
        NetEvent::TxDone => "txdone",
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
        assert_eq!(net_event_name(&NetEvent::TxDone), "txdone");
        assert_eq!(net_event_name(&NetEvent::Timer(3)), "timer");
        let fb = NetEvent::Packet(Packet {
            flow: FlowId(0),
            seq: 0,
            size: 40,
            kind: PacketKind::Feedback(Box::new(FeedbackInfo {
                avg_interval: f64::INFINITY,
                x_recv: 0.0,
                x_recv_bytes: 0.0,
                echo_ts: 0.0,
                events: 0,
            })),
            sent_at: 0.0,
        });
        assert_eq!(net_event_name(&fb), "packet:feedback");
    }

    /// Every pending event is one `Scheduled<NetEvent>` in a lane or a
    /// calendar slot; growing a packet payload grows them all. Shrink or
    /// box the new field instead of raising these bounds.
    #[test]
    fn scheduled_net_event_fits_one_cache_line() {
        let packet = std::mem::size_of::<Packet>();
        assert!(packet <= 40, "Packet grew to {packet} bytes");
        let size = std::mem::size_of::<ebrc_sim::Scheduled<NetEvent>>();
        assert!(size <= 64, "Scheduled<NetEvent> grew to {size} bytes");
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
    fn ack_is_not_data() {
        let p = Packet {
            flow: FlowId(0),
            seq: 0,
            size: 40,
            kind: PacketKind::Ack(Box::new(AckInfo {
                cum_ack: 5,
                sack: vec![(7, 9)],
                echo_seq: 8,
                echo_ts: 0.0,
            })),
            sent_at: 0.0,
        };
        assert!(!p.is_data());
    }
}
