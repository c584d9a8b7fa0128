//! Ablations: the design choices the analysis isolates.
//!
//! * `ablate-control` — basic vs comprehensive control on the same loss
//!   process (Proposition 2's gap);
//! * `ablate-estimator` — TFRC vs uniform weights per window `L`;
//! * `ablate-formula` — the formula choice at heavy loss (the
//!   throughput-drop effect of Claim 1);
//! * `ablate-phase` — Markov-modulated (phase) loss that violates (C1):
//!   a predictable loss process turns the covariance term into a
//!   throughput *boost*, the non-conservative regime of Section III-B.2.
//!
//! Every Monte-Carlo point (one control law, one weight profile, one
//! formula, one sojourn) is its own declarative spec.

use crate::figures::{indexed, point_outputs, point_specs, scalar_row};
use crate::registry::{Experiment, Scale};
use crate::series::Table;
use crate::spec::{ControlLaw, SimSpec, SpecOutput, WeightKind};
use ebrc_core::weights::WeightProfile;
use ebrc_tfrc::FormulaKind;

/// Basic vs comprehensive control.
pub struct AblateControlLaw;

const CONTROL_PS: [f64; 5] = [0.02, 0.05, 0.1, 0.2, 0.4];
const CONTROLS: [ControlLaw; 2] = [ControlLaw::Basic, ControlLaw::Comprehensive];

impl Experiment for AblateControlLaw {
    fn id(&self) -> &'static str {
        "ablate-control"
    }

    fn title(&self) -> &'static str {
        "basic vs comprehensive control on identical loss statistics"
    }

    fn paper_ref(&self) -> &'static str {
        "Proposition 2 / Section V-B remark"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        point_specs(&indexed(&CONTROL_PS), CONTROLS.len(), |(i, p), k| {
            SimSpec::Mc {
                control: CONTROLS[k],
                formula: FormulaKind::PftkSimplified,
                weights: WeightKind::Tfrc,
                window: 8,
                p,
                cv: 0.9,
                events: scale.mc_events,
                seed: 400 + i as u64,
            }
        })
    }

    fn reduce(&self, _scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut t = Table::new(
            "ablate-control",
            "normalized throughput of both control laws vs p (PFTK-simplified, L = 8)",
            vec!["p", "basic", "comprehensive"],
        );
        for ((_, p), outs) in point_outputs(&indexed(&CONTROL_PS), CONTROLS.len(), outputs) {
            t.push_row(scalar_row(p, outs));
        }
        vec![t]
    }
}

/// Estimator window and weight profile.
pub struct AblateEstimator;

const ESTIMATOR_LS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const WEIGHTS: [WeightKind; 2] = [WeightKind::Tfrc, WeightKind::Uniform];

impl Experiment for AblateEstimator {
    fn id(&self) -> &'static str {
        "ablate-estimator"
    }

    fn title(&self) -> &'static str {
        "estimator window L and weight profile (TFRC vs uniform)"
    }

    fn paper_ref(&self) -> &'static str {
        "Claim 1, second bullet"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        // p = 0.1 reproduces the historical mean-10 intervals exactly
        // (1.0/0.1 rounds to 10.0).
        point_specs(&indexed(&ESTIMATOR_LS), WEIGHTS.len(), |(i, l), k| {
            SimSpec::Mc {
                control: ControlLaw::Basic,
                formula: FormulaKind::PftkSimplified,
                weights: WEIGHTS[k],
                window: l,
                p: 0.1,
                cv: 0.999,
                events: scale.mc_events,
                seed: 500 + i as u64,
            }
        })
    }

    fn reduce(&self, _scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut t = Table::new(
            "ablate-estimator",
            "normalized throughput vs L for TFRC and uniform weights (PFTK-simplified, p = 0.1, cv ≈ 1)",
            vec!["L", "tfrc_weights", "uniform_weights", "effective_window_tfrc"],
        );
        for ((_, l), outs) in point_outputs(&indexed(&ESTIMATOR_LS), WEIGHTS.len(), outputs) {
            let mut row = scalar_row(l as f64, outs);
            row.push(WeightProfile::tfrc(l).effective_window());
            t.push_row(row);
        }
        vec![t]
    }
}

/// Formula choice at heavy loss.
pub struct AblateFormula;

const FORMULA_PS: [f64; 4] = [0.02, 0.1, 0.25, 0.4];
const FORMULA_NAMES: [&str; 3] = ["sqrt", "pftk-standard", "pftk-simplified"];

impl Experiment for AblateFormula {
    fn id(&self) -> &'static str {
        "ablate-formula"
    }

    fn title(&self) -> &'static str {
        "SQRT vs PFTK formulas across the loss range (throughput-drop effect)"
    }

    fn paper_ref(&self) -> &'static str {
        "Claim 1 application / Section VI"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        point_specs(&indexed(&FORMULA_PS), FORMULA_NAMES.len(), |(i, p), k| {
            SimSpec::Mc {
                control: ControlLaw::Basic,
                formula: FormulaKind::from_key_name(FORMULA_NAMES[k]).expect("known formula"),
                weights: WeightKind::Tfrc,
                window: 8,
                p,
                cv: 0.999,
                events: scale.mc_events,
                seed: 600 + i as u64,
            }
        })
    }

    fn reduce(&self, _scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut t = Table::new(
            "ablate-formula",
            "normalized throughput vs p per formula (basic control, L = 8, cv ≈ 1)",
            vec!["p", "sqrt", "pftk_standard", "pftk_simplified"],
        );
        for ((_, p), outs) in point_outputs(&indexed(&FORMULA_PS), FORMULA_NAMES.len(), outputs) {
            t.push_row(scalar_row(p, outs));
        }
        vec![t]
    }
}

/// Phase-modulated (predictable) loss violating (C1).
pub struct AblatePhaseLoss;

const SOJOURNS: [f64; 4] = [1.5, 5.0, 20.0, 80.0];

impl Experiment for AblatePhaseLoss {
    fn id(&self) -> &'static str {
        "ablate-phase"
    }

    fn title(&self) -> &'static str {
        "phase-modulated loss: predictability flips the covariance term"
    }

    fn paper_ref(&self) -> &'static str {
        "Section III-B.2 (when the sufficient conditions do not hold)"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        point_specs(&indexed(&SOJOURNS), 1, |(i, sojourn), _| SimSpec::PhaseMc {
            sojourn,
            events: scale.mc_events,
            seed: 700 + i as u64,
        })
    }

    fn reduce(&self, _scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut t = Table::new(
            "ablate-phase",
            "normalized throughput and cov[θ0,θ̂0]p² vs phase sojourn (SQRT, L = 8)",
            vec![
                "sojourn_events",
                "normalized_throughput",
                "normalized_covariance",
            ],
        );
        for ((_, sojourn), outs) in point_outputs(&indexed(&SOJOURNS), 1, outputs) {
            let s = outs[0].scalars();
            t.push_row(vec![sojourn, s[0], s[1]]);
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comprehensive_at_least_basic() {
        let t = &AblateControlLaw.run(Scale::quick())[0];
        for row in &t.rows {
            assert!(
                row[2] >= row[1] - 0.03,
                "comprehensive {} below basic {} at p = {}",
                row[2],
                row[1],
                row[0]
            );
        }
    }

    #[test]
    fn uniform_weights_less_conservative_than_tfrc_at_same_l() {
        // Uniform weights smooth more (larger effective window) so the
        // Jensen penalty is smaller; at L = 16 the gap should be visible.
        let t = &AblateEstimator.run(Scale::quick())[0];
        let row = t.rows.iter().find(|r| r[0] == 16.0).unwrap();
        assert!(
            row[2] >= row[1] - 0.02,
            "uniform {} vs tfrc {}",
            row[2],
            row[1]
        );
    }

    #[test]
    fn pftk_drops_harder_than_sqrt_at_heavy_loss() {
        let t = &AblateFormula.run(Scale::quick())[0];
        let heavy = t.rows.last().unwrap();
        assert!(
            heavy[3] < heavy[1],
            "pftk {} vs sqrt {}",
            heavy[3],
            heavy[1]
        );
    }

    #[test]
    fn slow_phases_raise_covariance_and_throughput() {
        let t = &AblatePhaseLoss.run(Scale::quick())[0];
        let fast = &t.rows[0];
        let slow = t.rows.last().unwrap();
        assert!(
            slow[2] > fast[2],
            "covariance should grow with sojourn: {} vs {}",
            slow[2],
            fast[2]
        );
        assert!(
            slow[1] > fast[1],
            "predictability should boost throughput: {} vs {}",
            slow[1],
            fast[1]
        );
    }
}
