//! Distributions, random-number generation, and loss processes for the
//! equation-based rate control reproduction.
//!
//! Everything stochastic in the workspace flows through this crate so
//! that runs are deterministic functions of their seeds:
//!
//! * [`Rng`] — a seedable xoshiro256++ generator with labelled
//!   [`Rng::fork`] sub-streams (one master seed per scenario, one
//!   stream per component);
//! * [`Distribution`] — sampleable positive laws with known moments:
//!   [`Deterministic`] and the paper's [`ShiftedExponential`]
//!   parameterized by mean and coefficient of variation;
//! * [`LossProcess`] — sequences of loss-event intervals `θ_n`:
//!   [`IidProcess`] (condition (C1) holds exactly),
//!   [`MarkovModulated`] (predictable phase loss that violates (C1)),
//!   and [`TraceProcess`] (replay/bootstrap of measured traces).
//!
//! # Example
//!
//! ```
//! use ebrc_dist::{Distribution, IidProcess, LossProcess, Rng, ShiftedExponential};
//!
//! // Mean interval 50 packets → loss-event rate p = 2 %.
//! let d = ShiftedExponential::from_mean_cv(50.0, 0.9);
//! let mut process = IidProcess::new(d);
//! let mut rng = Rng::seed_from(7);
//! let theta = process.next_interval(&mut rng);
//! assert!(theta >= 5.0); // never below the shift m(1 − cv)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod process;
pub mod rng;

pub use distribution::{Deterministic, Distribution, ShiftedExponential};
pub use process::{IidProcess, LossProcess, MarkovModulated, Replay, TraceProcess};
pub use rng::Rng;
