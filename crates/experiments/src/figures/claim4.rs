//! Section IV-A.2: the fixed-capacity-link analysis behind Claim 4,
//! including the "not displayed" shared-link simulation.
//!
//! Each β point yields two specs: the isolated fixed-point measurement
//! and the shared-link fluid simulation.

use crate::figures::{cross, point_outputs, point_specs};
use crate::registry::{Experiment, Scale};
use crate::series::Table;
use crate::spec::{SimSpec, SpecOutput};
use ebrc_core::theory::claim4;
use ebrc_tcp::AimdFixedLink;

pub(crate) const CAPACITY: f64 = 100.0;
pub(crate) const ALPHA: f64 = 1.0;

fn beta_list(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.25, 0.5, 0.75]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    }
}

/// Claim 4's `(shared link, β)` points, in spec order: every β
/// isolated, then every β shared.
fn points(quick: bool) -> Vec<(bool, f64)> {
    cross([false, true], &beta_list(quick))
}

/// Claim 4 reproduction.
pub struct Claim4;

impl Experiment for Claim4 {
    fn id(&self) -> &'static str {
        "claim4"
    }

    fn title(&self) -> &'static str {
        "fixed-capacity link: AIMD vs equation-based loss-event rates (ratio 16/9)"
    }

    fn paper_ref(&self) -> &'static str {
        "Section IV-A.2 / Claim 4"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        let events = if scale.quick { 3_000 } else { 30_000 };
        let t_end = if scale.quick { 1_500.0 } else { 10_000.0 };
        point_specs(&points(scale.quick), 1, |(shared, beta), _| {
            if shared {
                SimSpec::Claim4Shared { beta, t_end }
            } else {
                SimSpec::Claim4Iso { beta, events }
            }
        })
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut iso = Table::new(
            "claim4/isolated",
            "analytic p' and p, measured fixed-point p, and the ratio 4/(1+β)²",
            vec![
                "beta",
                "p_aimd_analytic",
                "p_ebrc_analytic",
                "p_ebrc_measured",
                "ratio_analytic",
                "ratio_measured",
            ],
        );
        let mut shared = Table::new(
            "claim4/shared",
            "one AIMD + one EBRC sharing the link (fluid simulation): the gap holds, less pronounced",
            vec!["beta", "ratio_shared", "aimd_tput", "ebrc_tput"],
        );
        for ((shared_link, beta), outs) in point_outputs(&points(scale.quick), 1, outputs) {
            let s = outs[0].scalars();
            if shared_link {
                shared.push_row(vec![beta, s[0], s[1], s[2]]);
            } else {
                let aimd = AimdFixedLink::new(ALPHA, beta, CAPACITY);
                iso.push_row(vec![
                    beta,
                    aimd.loss_event_rate(),
                    claim4::ebrc_loss_event_rate(ALPHA, beta, CAPACITY),
                    s[0],
                    claim4::loss_event_rate_ratio(beta),
                    aimd.loss_event_rate() / s[0],
                ]);
            }
        }
        vec![iso, shared]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_ratio_matches_sixteen_ninths_at_half() {
        let tables = Claim4.run(Scale::quick());
        let iso = &tables[0];
        let row = iso.rows.iter().find(|r| (r[0] - 0.5).abs() < 1e-9).unwrap();
        assert!((row[4] - 16.0 / 9.0).abs() < 1e-9, "analytic {}", row[4]);
        assert!((row[5] - 16.0 / 9.0).abs() < 0.05, "measured {}", row[5]);
    }

    #[test]
    fn shared_gap_positive_but_smaller() {
        let tables = Claim4.run(Scale::quick());
        let iso = &tables[0];
        let shared = &tables[1];
        for (i, s) in shared.rows.iter().enumerate() {
            assert!(s[1] > 1.0, "β {}: shared ratio {} ≤ 1", s[0], s[1]);
            assert!(
                s[1] < iso.rows[i][4],
                "β {}: shared {} not below isolated {}",
                s[0],
                s[1],
                iso.rows[i][4]
            );
        }
    }
}
