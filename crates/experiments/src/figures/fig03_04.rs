//! Figures 3 and 4: the designed numerical experiments validating
//! Claim 1.
//!
//! Loss-event intervals are i.i.d. shifted-exponential (so condition
//! (C1) holds with covariance 0); the basic control's normalized
//! throughput `x̄/f(p)` is Monte-Carlo-estimated:
//!
//! * Figure 3: `cv[θ0] = 1 − 1/1000` fixed, sweep `p`, for SQRT and
//!   PFTK-simplified, `L ∈ {1, 2, 4, 8, 16}` (TFRC weights). PFTK grows
//!   sharply more conservative with `p` (the throughput-drop effect);
//!   SQRT is invariant in `p`.
//! * Figure 4: `p` fixed to 1/100 or 1/10, sweep `cv[θ0]`: the more
//!   variable the estimator, the more conservative the control.

use crate::figures::{cross, point_outputs, point_specs, scalar_row};
use crate::registry::{Experiment, Scale};
use crate::series::Table;
use crate::spec::{ControlLaw, SimSpec, SpecOutput, WeightKind};
use ebrc_tfrc::FormulaKind;

fn window_list(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16]
    }
}

/// A table with the x column `x` then one column per window.
fn window_table(name: String, caption: String, x: &str, ls: &[usize]) -> Table {
    let mut cols: Vec<String> = vec![x.into()];
    cols.extend(ls.iter().map(|l| format!("L{l}")));
    Table::new(name, caption, cols)
}

/// The basic-control Monte-Carlo spec at window `ls[k]`, seeded
/// `seed + k`.
fn mc_spec(
    scale: Scale,
    formula: FormulaKind,
    (p, cv): (f64, f64),
    seed: u64,
    k: usize,
) -> SimSpec {
    SimSpec::Mc {
        control: ControlLaw::Basic,
        formula,
        weights: WeightKind::Tfrc,
        window: window_list(scale.quick)[k],
        p,
        cv,
        events: scale.mc_events,
        seed: seed + k as u64,
    }
}

/// Figure 3's formulae: table name, formula, and the seed of its first
/// window.
const FIG03_FORMULAE: [(&str, FormulaKind, u64); 2] = [
    ("sqrt", FormulaKind::Sqrt, 1000),
    ("pftk-simplified", FormulaKind::PftkSimplified, 2000),
];

/// Figure 3's fixed `cv[θ0]`.
const FIG03_CV: f64 = 1.0 - 1.0 / 1000.0;

/// Figure 3's rows, in table order: `(formula index, p)`, each row
/// running every window.
fn fig03_rows(quick: bool) -> Vec<(usize, f64)> {
    let ps: Vec<f64> = if quick {
        vec![0.02, 0.1, 0.2, 0.4]
    } else {
        (1..=16).map(|i| 0.025 * i as f64).collect()
    };
    cross(0..FIG03_FORMULAE.len(), &ps)
}

/// Figure 3 reproduction.
pub struct Fig03;

impl Experiment for Fig03 {
    fn id(&self) -> &'static str {
        "fig03"
    }

    fn title(&self) -> &'static str {
        "normalized throughput vs p (cv fixed to 1 − 1/1000), basic control"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 3"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        let ls = window_list(scale.quick).len();
        point_specs(&fig03_rows(scale.quick), ls, |(fi, p), k| {
            let (_, formula, seed) = FIG03_FORMULAE[fi];
            mc_spec(scale, formula, (p, FIG03_CV), seed, k)
        })
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let ls = window_list(scale.quick);
        let mut tables: Vec<Table> = FIG03_FORMULAE
            .iter()
            .map(|(formula, _, _)| {
                let caption = format!("x̄/f(p) vs p, {formula}, cv[θ0] = {FIG03_CV}");
                window_table(format!("fig03/{formula}"), caption, "p", &ls)
            })
            .collect();
        for ((fi, p), outs) in point_outputs(&fig03_rows(scale.quick), ls.len(), outputs) {
            tables[fi].push_row(scalar_row(p, outs));
        }
        tables
    }
}

/// Figure 4's fixed loss-event rates, one table each.
const FIG04_PS: [f64; 2] = [0.01, 0.1];

/// Figure 4's rows, in table order: `(p index, cv)`, each row running
/// every window.
fn fig04_rows(quick: bool) -> Vec<(usize, f64)> {
    let cvs: Vec<f64> = if quick {
        vec![0.2, 0.5, 0.8, 0.999]
    } else {
        (1..=10).map(|i| (0.1 * i as f64).min(0.999)).collect()
    };
    cross(0..FIG04_PS.len(), &cvs)
}

/// Figure 4 reproduction.
pub struct Fig04;

impl Experiment for Fig04 {
    fn id(&self) -> &'static str {
        "fig04"
    }

    fn title(&self) -> &'static str {
        "normalized throughput vs cv[θ0] (p fixed), basic control, PFTK-simplified"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 4"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        let ls = window_list(scale.quick).len();
        point_specs(&fig04_rows(scale.quick), ls, |(pi, cv), k| {
            mc_spec(
                scale,
                FormulaKind::PftkSimplified,
                (FIG04_PS[pi], cv),
                3000,
                k,
            )
        })
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let ls = window_list(scale.quick);
        let mut tables: Vec<Table> = FIG04_PS
            .iter()
            .map(|p| {
                let caption = format!("x̄/f(p) vs cv[θ0], PFTK-simplified, p = {p}");
                window_table(format!("fig04/p{}", p), caption, "cv", &ls)
            })
            .collect();
        for ((pi, cv), outs) in point_outputs(&fig04_rows(scale.quick), ls.len(), outputs) {
            tables[pi].push_row(scalar_row(cv, outs));
        }
        tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_pftk_more_conservative_with_heavier_loss() {
        let tables = Fig03.run(Scale::quick());
        let pftk = &tables[1];
        // Claim 1: throughput drop with p for PFTK-simplified. At L = 1
        // with cv ≈ 1 the control is already crushed at every p (the
        // excessive-conservativeness floor), so the drop is read off the
        // smoothed windows.
        let l1 = pftk.column("L1").unwrap();
        assert!(
            l1.iter().all(|v| *v < 0.25),
            "L1 should sit at the excessive-conservativeness floor: {l1:?}"
        );
        for col in ["L4", "L16"] {
            let ys = pftk.column(col).unwrap();
            assert!(
                ys.first().unwrap() > ys.last().unwrap(),
                "no throughput drop in {col}: {ys:?}"
            );
        }
        let l4 = pftk.column("L4").unwrap();
        assert!(*l4.last().unwrap() < 0.4, "drop too weak: {l4:?}");
        // Everything conservative (Theorem 1 applies).
        for row in &pftk.rows {
            for v in &row[1..] {
                assert!(*v <= 1.0 + 0.03, "non-conservative point {v}");
            }
        }
    }

    #[test]
    fn fig03_sqrt_invariant_in_p() {
        let tables = Fig03.run(Scale::quick());
        let sqrt = &tables[0];
        let l4 = sqrt.column("L4").unwrap();
        let spread = l4.iter().cloned().fold(f64::MIN, f64::max)
            - l4.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.06, "SQRT should be flat in p, spread {spread}");
    }

    #[test]
    fn fig03_larger_window_less_conservative() {
        let tables = Fig03.run(Scale::quick());
        for t in &tables {
            for row in &t.rows {
                // L16 ≥ L1 at every p (smoothing reduces the Jensen
                // penalty).
                let l1 = row[1];
                let l16 = *row.last().unwrap();
                assert!(l16 >= l1 - 0.02, "L16 {l16} < L1 {l1}");
            }
        }
    }

    #[test]
    fn fig04_more_variability_more_conservative() {
        let tables = Fig04.run(Scale::quick());
        for t in &tables {
            let l1 = t.column("L1").unwrap();
            assert!(
                l1.first().unwrap() > l1.last().unwrap(),
                "cv sweep not decreasing: {:?}",
                l1
            );
        }
    }
}
