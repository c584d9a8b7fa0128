//! Packet-level network substrate — the ns-2/lab-testbed stand-in.
//!
//! Builds on the [`ebrc_sim`] engine with one event type, [`NetEvent`],
//! and a small set of network components:
//!
//! * [`LinkQueue`] — an output-queued link: a queue discipline
//!   ([`DropTailQueue`] or [`RedQueue`]) feeding a serializing
//!   transmitter of a given rate, followed by propagation delay. This is
//!   the bottleneck router of every scenario in the paper.
//! * [`DelayBox`] — pure propagation delay, the NIST Net emulator
//!   stand-in used in the lab experiments (25 ms each way).
//! * [`BernoulliDropper`] — drops each packet with a fixed probability
//!   independent of its length: the loss module of the Figure 6
//!   variable-packet-length experiment ("RED operating in packet mode").
//! * [`Demux`] — routes packets to per-flow endpoints by flow id.
//! * [`PoissonSender`], [`CbrSender`], [`ProbeSink`] — the non-adaptive
//!   probe traffic of Figure 7 (the `p''` measurement) with loss-event
//!   detection (losses within one RTT coalesce into one event, as TFRC
//!   measures them).
//!
//! Endpoint protocols (TCP, TFRC) live in their own crates and plug into
//! the same event type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod demux;
pub mod dropper;
pub mod link;
pub mod lossrec;
pub mod packet;
pub mod probe;
pub mod queue;
pub mod sink;

pub use delay::DelayBox;
pub use demux::Demux;
pub use dropper::BernoulliDropper;
pub use link::{LinkQueue, LinkStats};
pub use lossrec::LossEventRecorder;
pub use packet::{
    net_event_name, AckInfo, FeedbackInfo, FlowId, NetEvent, Packet, Report, TX_DONE,
};
pub use probe::{CbrSender, PoissonSender, ProbeSink};
pub use queue::{AqmQueue, DropTailQueue, QueueStats, RedConfig, RedQueue};
pub use sink::Sink;
