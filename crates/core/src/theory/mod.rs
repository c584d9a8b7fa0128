//! Executable statements of the paper's analytical results.
//!
//! * [`conditions`] — the hypotheses (F1), (F2), (F2c) on the formula
//!   and (C3) on logged steps; (C1), (C2), (C2c) and (V) are read off a
//!   run's [`TraceStats`](crate::control::TraceStats);
//! * [`theorems`] — Theorem 1 and Theorem 2 verdicts, the Equation (10)
//!   throughput bound, and Proposition 4's overshoot bound via the
//!   convex-closure deviation ratio;
//! * [`report`] — one-call [`analyze`] of a run's statistics, combining
//!   every check into a [`ConservativenessReport`];
//! * [`claim4`] — the fixed-capacity-link analysis of Section IV-A.2:
//!   AIMD vs. equation-based loss-event rates and their `4/(1+β)²`
//!   ratio (see the erratum note in that module: the paper's display
//!   says `(1−β)²` but its own numbers give `(1+β)²`).

pub mod claim4;
pub mod conditions;
pub mod report;
pub mod theorems;

pub use claim4::{aimd_loss_event_rate, ebrc_loss_event_rate, loss_event_rate_ratio};
pub use conditions::{condition_c3, condition_f1, condition_f2, condition_f2c};
pub use report::{analyze, ConservativenessReport};
pub use theorems::{equation10_bound, prop4_overshoot_bound, theorem1, theorem2, Verdict};
