//! # ebrc — equation-based rate control, reproduced
//!
//! A full Rust reproduction of *“On the Long-Run Behavior of
//! Equation-Based Rate Control”* (Vojnović & Le Boudec, ACM SIGCOMM
//! 2002): the theory as an executable library, every substrate the
//! paper's evaluation needed (discrete-event simulator, packet network
//! with DropTail/RED, TCP, TFRC), and a harness that regenerates every
//! table and figure.
//!
//! This crate re-exports the workspace members under stable paths:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `ebrc-core` | formulae, estimator, basic & comprehensive controls, Theorems 1–2, Claim 4 |
//! | [`stats`] | `ebrc-stats` | Palm calculus statistics |
//! | [`dist`] | `ebrc-dist` | distributions & loss processes |
//! | [`convex`] | `ebrc-convex` | convex closure, conjugation, curvature |
//! | [`sim`] | `ebrc-sim` | discrete-event engine |
//! | [`trace`] | `ebrc-trace` | Perfetto trace recording (std-only protobuf writer/reader) |
//! | [`net`] | `ebrc-net` | links, queues, droppers, probes |
//! | [`tcp`] | `ebrc-tcp` | TCP Sack1-style endpoints, AIMD fluid models |
//! | [`tfrc`] | `ebrc-tfrc` | TFRC endpoints (incl. the audio mode) |
//! | [`runner`] | `ebrc-runner` | deterministic runner: work-stealing pool + declarative plans (specs, shards) |
//! | [`experiments`] | `ebrc-experiments` | figure/table reproduction harness (plan subscriptions) |
//!
//! # Quick start
//!
//! ```
//! use ebrc::core::control::{BasicControl, ControlConfig};
//! use ebrc::core::formula::{PftkSimplified, ThroughputFormula};
//! use ebrc::core::weights::WeightProfile;
//! use ebrc::dist::{IidProcess, Rng, ShiftedExponential};
//!
//! // An equation-based sender facing i.i.d. loss intervals with mean
//! // 50 packets (p = 2 %) — Theorem 1 says it must be conservative.
//! let formula = PftkSimplified::with_rtt(0.1);
//! let mut losses = IidProcess::new(ShiftedExponential::from_mean_cv(50.0, 0.9));
//! let trace = BasicControl::new(formula.clone(), ControlConfig::new(WeightProfile::tfrc(8)))
//!     .run(&mut losses, &mut Rng::seed_from(1), 10_000);
//! assert!(trace.normalized_throughput(&formula) <= 1.0);
//! ```
//!
//! To regenerate the paper's artifacts:
//!
//! ```text
//! cargo run --release -p ebrc-experiments --bin repro -- list
//! cargo run --release -p ebrc-experiments --bin repro -- all
//! ```

#![forbid(unsafe_code)]

pub use ebrc_convex as convex;
pub use ebrc_core as core;
pub use ebrc_dist as dist;
pub use ebrc_experiments as experiments;
pub use ebrc_net as net;
pub use ebrc_runner as runner;
pub use ebrc_sim as sim;
pub use ebrc_stats as stats;
pub use ebrc_tcp as tcp;
pub use ebrc_tfrc as tfrc;
pub use ebrc_trace as trace;

/// Convenience prelude: the types most sessions start with.
///
/// ```
/// use ebrc::prelude::*;
/// let f = PftkSimplified::with_rtt(0.1);
/// let _ = f.rate(0.01);
/// ```
pub mod prelude {
    pub use ebrc_core::control::{BasicControl, ComprehensiveControl, ControlConfig, ControlTrace};
    pub use ebrc_core::estimator::IntervalEstimator;
    pub use ebrc_core::formula::{PftkSimplified, PftkStandard, Sqrt, ThroughputFormula};
    pub use ebrc_core::theory::{analyze, Verdict};
    pub use ebrc_core::weights::WeightProfile;
    pub use ebrc_dist::{Distribution, IidProcess, LossProcess, Rng, ShiftedExponential};
    pub use ebrc_experiments::{all_experiments, Scale, Table};
}
