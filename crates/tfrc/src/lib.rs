//! TFRC protocol endpoints — the equation-based rate control protocol
//! the paper analyzes, as a packet-level implementation.
//!
//! * [`receiver`] — detects loss events (losses within one RTT
//!   coalesce), keeps the last `L` loss-event intervals, and computes
//!   the average loss interval with TFRC's weighted average *including
//!   the open interval* when that increases the estimate — that inclusion
//!   **is** the comprehensive control of Section II-B, and it can be
//!   disabled to get the basic control (the paper's lab configuration).
//! * [`sender`] — a rate-paced sender: slow start until the first loss
//!   report, then `X = f(p̂, r)` on every feedback, with the optional
//!   RFC 3448 receive-rate cap.
//! * [`formula_kind`] — the three throughput formulae evaluated with
//!   either a fixed RTT (the analysis hypothesis) or the measured
//!   smoothed RTT (protocol fidelity).
//! * [`audio`] — the Section V-C sender: fixed packet clock, rate
//!   controlled by modulating packet *lengths* (the Claim 2 / Figure 6
//!   scenario, `cov[X0, S0] = 0` through a Bernoulli dropper).
//! * [`law`] — the rate-update law as a pure function over `Copy`
//!   per-flow state: both senders above and the many-flow SoA banks
//!   call it, so there is one feedback → rate rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audio;
pub mod formula_kind;
pub mod law;
pub mod receiver;
pub mod sender;

pub use audio::AudioTfrcSender;
pub use formula_kind::{FormulaKind, RttMode};
pub use law::{RateLaw, RateState};
pub use receiver::{TfrcReceiver, TfrcReceiverConfig};
pub use sender::{TfrcSender, TfrcSenderConfig, TfrcSenderStats};
