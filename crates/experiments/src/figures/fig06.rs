//! Figure 6: the audio sender through a Bernoulli dropper (Claim 2).
//!
//! A sender with a fixed 20 ms packet clock modulates packet lengths by
//! the equation; packets traverse a dropper with a fixed, length-
//! independent drop probability. Then `cov[X0, S0] = 0` and Theorem 2
//! decides by the convexity of `f(1/x)`:
//!
//! * SQRT (concave everywhere): conservative at every `p`;
//! * PFTK formulas: conservative at small `p`, **non-conservative** at
//!   heavy loss (the convex region) — normalized throughput above 1.

use crate::figures::{indexed, point_outputs, point_specs};
use crate::registry::{Experiment, Scale};
use crate::series::Table;
use crate::spec::{SimSpec, SpecOutput};
use ebrc_tfrc::FormulaKind;

fn drop_list(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.05, 0.15, 0.25]
    } else {
        (1..=10).map(|i| 0.025 * i as f64).collect()
    }
}

const FORMULAE: [(&str, FormulaKind, u64); 3] = [
    ("sqrt", FormulaKind::Sqrt, 0),
    ("pftk-standard", FormulaKind::PftkStandard, 100),
    ("pftk-simplified", FormulaKind::PftkSimplified, 200),
];

/// Figure 6 reproduction.
pub struct Fig06;

impl Experiment for Fig06 {
    fn id(&self) -> &'static str {
        "fig06"
    }

    fn title(&self) -> &'static str {
        "audio sender (fixed clock, variable length) through a Bernoulli dropper"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 6 / Claim 2"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        // Audio loss events arrive at ~p·50/s; size the run for enough
        // events.
        let duration = if scale.quick { 3_000.0 } else { 20_000.0 };
        let points = indexed(&drop_list(scale.quick));
        point_specs(&points, FORMULAE.len(), |(i, p_drop), k| {
            let (_, formula, seed_offset) = FORMULAE[k];
            SimSpec::Audio {
                p_drop,
                formula,
                window: 4,
                duration,
                seed: 60 + i as u64 + seed_offset,
            }
        })
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut top = Table::new(
            "fig06/top",
            "normalized throughput E[X]/f(p) vs p, L = 4",
            vec!["p", "sqrt", "pftk_standard", "pftk_simplified"],
        );
        let mut bottom = Table::new(
            "fig06/bottom",
            "squared CV of the estimator θ̂ vs p",
            vec!["p", "sqrt", "pftk_standard", "pftk_simplified"],
        );
        for (_, outs) in point_outputs(&indexed(&drop_list(scale.quick)), FORMULAE.len(), outputs) {
            let s: Vec<&[f64]> = outs.iter().map(|o| o.scalars()).collect();
            // The x coordinate is SQRT's measured p (first formula).
            top.push_row(vec![s[0][0], s[0][1], s[1][1], s[2][1]]);
            bottom.push_row(vec![s[0][0], s[0][2], s[1][2], s[2][2]]);
        }
        vec![top, bottom]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqrt_conservative_pftk_not_at_heavy_loss() {
        let tables = Fig06.run(Scale::quick());
        let top = &tables[0];
        // SQRT stays at or below 1 everywhere.
        for row in &top.rows {
            assert!(row[1] <= 1.05, "SQRT non-conservative: {}", row[1]);
        }
        // PFTK-simplified exceeds 1 at the heaviest loss point.
        let last = top.rows.last().unwrap();
        assert!(
            last[3] > 1.0,
            "expected PFTK overshoot at p = {}: {}",
            last[0],
            last[3]
        );
    }

    #[test]
    fn estimator_cv_positive_and_bounded() {
        let tables = Fig06.run(Scale::quick());
        for row in &tables[1].rows {
            for v in &row[1..] {
                assert!(*v > 0.0 && *v < 1.0, "cv² {v}");
            }
        }
    }
}
