//! Equation-based rate control: the primary contribution of
//! *“On the Long-Run Behavior of Equation-Based Rate Control”*
//! (Vojnović & Le Boudec, SIGCOMM 2002), as an executable library.
//!
//! An equation-based sender adjusts its rate to `f(p̂, r)` where `f` is a
//! TCP throughput formula, `p̂` an on-line estimate of the loss-event
//! rate, and `r` the average round-trip time. This crate implements:
//!
//! * [`formula`] — the three loss-throughput formulae of Section II-C:
//!   SQRT (Eq. 5), PFTK-standard (Eq. 6) and PFTK-simplified (Eq. 7),
//!   behind the [`formula::ThroughputFormula`] trait;
//! * [`weights`] — moving-average weight profiles, including the TFRC
//!   profile (flat first half, linearly decaying second half);
//! * [`estimator`] — the unbiased loss-interval estimator `θ̂_n` of
//!   Equation (2) plus the *virtual* estimate `θ̂(t)` with activation set
//!   `A_t` of Section II-B;
//! * [`control`] — exact event-driven recursions of the **basic** control
//!   (Eq. 3) and the **comprehensive** control (Eq. 4), including the
//!   closed-form inter-loss durations of Proposition 3;
//! * [`throughput`] — the Palm throughput expressions (Propositions 1–3);
//! * [`theory`] — executable statements of the conditions (F1), (F2),
//!   (F2c), (C1), (C2), (C3), (V), Theorems 1–2, the Equation (10)
//!   bound, Proposition 4's overshoot bound, and the Claim 4
//!   fixed-capacity analysis (`p'/p = 4/(1−β)²`).
//!
//! # Quick start
//!
//! ```
//! use ebrc_core::formula::{PftkSimplified, ThroughputFormula};
//! use ebrc_core::control::BasicControl;
//! use ebrc_core::weights::WeightProfile;
//! use ebrc_dist::{IidProcess, Rng, ShiftedExponential};
//!
//! // Loss-event intervals: mean 100 packets (p = 0.01), cv 0.999.
//! let mut process = IidProcess::new(ShiftedExponential::from_mean_cv(100.0, 0.999));
//! let formula = PftkSimplified::with_rtt(1.0);
//! let weights = WeightProfile::tfrc(8);
//! let mut rng = Rng::seed_from(7);
//!
//! let trace = BasicControl::new(formula.clone(), weights)
//!     .run(&mut process, &mut rng, 20_000);
//! let p = trace.loss_event_rate();
//! let normalized = trace.throughput() / formula.rate(p);
//! // Theorem 1: (F1) holds for PFTK-simplified and the intervals are
//! // i.i.d. (so (C1) holds) — the control must be conservative.
//! assert!(normalized <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod estimator;
pub mod formula;
pub mod theory;
pub mod throughput;
pub mod weights;

pub use control::{BasicControl, ComprehensiveControl, ControlTrace, StepRecord};
pub use estimator::IntervalEstimator;
pub use formula::{Formula, PftkSimplified, PftkStandard, Sqrt, ThroughputFormula};
pub use weights::WeightProfile;
