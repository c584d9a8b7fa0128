//! The TCP-friendliness breakdown (Section I-A / Figures 12–15, 18–19).
//!
//! TCP-friendliness `x̄ ≤ x̄'` factors into four sub-conditions, each a
//! ratio the paper plots against the loss-event rate:
//!
//! 1. **conservativeness** `x̄ / f(p, r) ≤ 1`,
//! 2. **loss-event rates** `p' / p ≥ 1`,
//! 3. **round-trip times** `r' / r ≥ 1`,
//! 4. **TCP's obedience** `x̄' / f(p', r') ≥ 1`,
//!
//! where unprimed quantities belong to the equation-based flow and
//! primed ones to TCP. Their product bounds `x̄/x̄'`; breaking the
//! comparison down reveals *which* factor caused an observed deviation
//! — the paper's central methodological point.

use crate::figures::pooled_row;
use crate::scenarios::RunMeasurements;
use crate::spec::SpecOutput;

/// The four sub-condition ratios plus the headline comparison.
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    /// Loss-event rate of the equation-based flow, `p` (the x-axis of
    /// the paper's breakdown plots).
    pub p: f64,
    /// `x̄ / f(p, r)` — sub-condition 1 (≤ 1 means conservative).
    pub conservativeness: f64,
    /// `p' / p` — sub-condition 2 (≥ 1 means TCP sees more loss events).
    pub loss_rate_ratio: f64,
    /// `r' / r` — sub-condition 3.
    pub rtt_ratio: f64,
    /// `x̄' / f(p', r')` — sub-condition 4 (≥ 1 means TCP achieves its
    /// formula).
    pub tcp_obedience: f64,
    /// The headline `x̄ / x̄'` (≤ 1 means TCP-friendly).
    pub friendliness: f64,
}

impl Breakdown {
    /// Computes the breakdown from a dumbbell run's measurements,
    /// averaging across flows of each kind.
    ///
    /// Returns `None` if either side had no flows or no loss events (the
    /// ratios would be undefined).
    pub fn from_measurements(m: &RunMeasurements) -> Option<Breakdown> {
        if m.tfrc_valid().next().is_none() || m.tcp_valid().next().is_none() {
            return None;
        }
        let x = m.tfrc_valid_mean(|f| f.throughput);
        let p = m.tfrc_valid_mean(|f| f.loss_event_rate);
        let r = m.tfrc_valid_mean(|f| f.rtt_mean);
        let x_tcp = m.tcp_valid_mean(|f| f.throughput);
        let p_tcp = m.tcp_valid_mean(|f| f.loss_event_rate);
        let r_tcp = m.tcp_valid_mean(|f| f.rtt_mean);
        if p <= 0.0 || p_tcp <= 0.0 || r <= 0.0 || r_tcp <= 0.0 {
            return None;
        }
        let f_tfrc = m.tfrc_formula.rate(p, r);
        let f_tcp = m.tfrc_formula.rate(p_tcp, r_tcp);
        Some(Breakdown {
            p,
            conservativeness: x / f_tfrc,
            loss_rate_ratio: p_tcp / p,
            rtt_ratio: r_tcp / r,
            tcp_obedience: x_tcp / f_tcp,
            friendliness: x / x_tcp,
        })
    }

    /// The columns of a breakdown table: the sweep's pair count, then
    /// [`Breakdown::row`].
    pub(crate) const COLUMNS: [&'static str; 7] = [
        "pairs",
        "p",
        "conservativeness",
        "loss_rate_ratio",
        "rtt_ratio",
        "tcp_obedience",
        "friendliness",
    ];

    /// `p` and the five ratios, in [`Breakdown::COLUMNS`] order.
    pub(crate) fn row(&self) -> [f64; 6] {
        [
            self.p,
            self.conservativeness,
            self.loss_rate_ratio,
            self.rtt_ratio,
            self.tcp_obedience,
            self.friendliness,
        ]
    }
}

/// A breakdown table's row for `n` pairs: the replica means over every
/// replica whose breakdown is defined.
pub(crate) fn breakdown_row(n: usize, outputs: &[&SpecOutput]) -> Option<Vec<f64>> {
    let rows = outputs
        .iter()
        .filter_map(|o| Breakdown::from_measurements(o.as_run()))
        .map(|b| b.row());
    pooled_row(&[n as f64], rows)
}

/// A `pairs, p, throughput_ratio` row for `n` pairs: the replica means
/// of `p` and `x̄/x̄'` over the replicas where TFRC saw losses and TCP
/// got through.
pub(crate) fn friendliness_row(n: usize, outputs: &[&SpecOutput]) -> Option<Vec<f64>> {
    let rows = outputs.iter().filter_map(|o| {
        let m = o.as_run();
        let p = m.tfrc_valid_mean(|f| f.loss_event_rate);
        let x_tcp = m.tcp_valid_mean(|f| f.throughput);
        (x_tcp > 0.0 && p > 0.0).then(|| [p, m.tfrc_valid_mean(|f| f.throughput) / x_tcp])
    });
    pooled_row(&[n as f64], rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{DumbbellConfig, DumbbellRun};

    #[test]
    fn breakdown_from_ns2_run_is_sane() {
        let cfg = DumbbellConfig::ns2_paper(2, 8, 11);
        let mut run = DumbbellRun::build(&cfg);
        let m = run.measure(25.0, 50.0);
        let b = Breakdown::from_measurements(&m).expect("flows saw losses");
        assert!(b.p > 0.0 && b.p < 0.3, "p = {}", b.p);
        assert!(b.conservativeness > 0.1 && b.conservativeness < 2.5);
        assert!(b.loss_rate_ratio > 0.2 && b.loss_rate_ratio < 6.0);
        assert!(b.rtt_ratio > 0.5 && b.rtt_ratio < 2.0);
        assert!(b.tcp_obedience > 0.1 && b.tcp_obedience < 3.0);
        assert!(b.friendliness > 0.05 && b.friendliness < 10.0);
    }

    #[test]
    fn consistency_of_factors() {
        let cfg = DumbbellConfig::ns2_paper(3, 8, 12);
        let mut run = DumbbellRun::build(&cfg);
        let m = run.measure(25.0, 50.0);
        let b = Breakdown::from_measurements(&m).unwrap();
        let r = m.tfrc_mean(|f| f.rtt_mean);
        let r_tcp = m.tcp_mean(|f| f.rtt_mean);
        // The friendliness bound from the four factors:
        // `x̄/x̄' = conservativeness × 1/obedience × f(p,r)/f(p',r')`. Not
        // exact when averaging across flows, but within measurement noise.
        let f = |p, r| m.tfrc_formula.rate(p, r);
        let product =
            b.conservativeness / b.tcp_obedience * f(b.p, r) / f(b.p * b.loss_rate_ratio, r_tcp);
        let rel = (product - b.friendliness).abs() / b.friendliness;
        assert!(
            rel < 0.05,
            "product {product} vs friendliness {}",
            b.friendliness
        );
    }

    #[test]
    fn empty_measurements_give_none() {
        let m = RunMeasurements {
            tfrc: vec![],
            tcp: vec![],
            probe_loss_rate: None,
            nominal_rtt: 0.05,
            tfrc_formula: ebrc_tfrc::FormulaKind::PftkSimplified,
        };
        assert!(Breakdown::from_measurements(&m).is_none());
    }
}
