//! Palm-calculus statistics substrate for the `ebrc` workspace.
//!
//! The paper's analysis lives in the world of *Palm calculus*: expectations
//! taken at loss-event instants (`E0_N`, event averages) versus expectations
//! taken at an arbitrary point in time (`E`, time averages). Every empirical
//! quantity reported in the paper — throughput `x̄`, loss-event rate `p`,
//! the normalized covariance `cov[θ0, θ̂0]·p²`, coefficients of variation —
//! is an estimator of one of these two kinds of expectation.
//!
//! This crate provides the estimators:
//!
//! * [`moments`] — numerically stable running moments (mean, variance,
//!   coefficient of variation) via Welford updates.
//! * [`cov`] — running covariance and autocovariance at a set of lags.
//! * [`palm`] — time averages of piecewise-constant trajectories.
//! * [`summary`] — five-number/quartile summaries used for the box plots of
//!   Figure 10.
//!
//! Everything is `f64`-based, allocation-light, and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cov;
pub mod moments;
pub mod palm;
pub mod summary;

pub use cov::{Autocovariance, Covariance};
pub use moments::Moments;
pub use palm::PiecewiseConstant;
pub use summary::FiveNumber;
