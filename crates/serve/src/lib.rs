//! Sweep service for the EBRC reproduction: a resident daemon that
//! keeps the sim cache warm across clients.
//!
//! [`service::serve`] runs a long-running daemon on TCP or a Unix
//! socket speaking length-prefixed JSON ([`frame`], [`proto`]).
//! Clients submit plan fingerprints; the daemon dedups work across
//! clients through the shared on-disk cache and streams reduced tables
//! back. Repeat submissions of a warm plan execute zero sims.
//!
//! Everything here is `std`-only and experiment-agnostic: the actual
//! catalogue plugs in through [`backend::SweepBackend`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod frame;
pub mod proto;
pub mod service;

pub use backend::{EventSink, SweepBackend};
pub use ebrc_runner::CancelToken;
pub use frame::{read_frame, read_value, write_frame, write_value, MAX_FRAME};
pub use proto::{
    Event, PlanInfo, ReportChunk, Request, RunSummary, ServiceStats, Submission, TableChunk,
};
pub use service::{connect, serve, Conn, ListenAddr};
