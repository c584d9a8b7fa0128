//! `fig-manyflow`: per-flow throughput distribution as the flow
//! population grows — the weak-convergence check.
//!
//! Not a figure of the source paper: PAPERS.md's "The Weak Convergence
//! of TCP Bandwidth Sharing" predicts that as the population `n` grows
//! (with capacity scaled so the per-flow fair share is fixed), the
//! per-flow throughput distribution *concentrates* around a
//! deterministic limit. This experiment runs the SoA many-flow
//! dumbbell at n ∈ {10², 10³} (plus 10⁴ at paper scale), and tabulates
//! the quantiles and coefficient of variation of the normalized
//! per-flow TFRC throughput next to the formula prediction
//! `f(p̄, r̄) / share` at the population operating point. Concentration
//! shows up as the CV shrinking with `n` and the quantile spread
//! tightening around the prediction.

use crate::figures::{point_outputs, point_specs, pooled_row};
use crate::registry::{Experiment, Scale};
use crate::series::Table;
use crate::spec::{SimSpec, SpecOutput};

/// TFRC populations per scale. The 10⁴ point only runs at paper scale
/// — and there with the quick measurement window, because 10⁴ flows ×
/// the full paper span is days of simulated transmission the
/// distribution estimate does not need.
fn populations(quick: bool) -> Vec<usize> {
    if quick {
        vec![100, 1000]
    } else {
        vec![100, 1000, 10_000]
    }
}

/// Measurement window for one population at this scale.
fn window(scale: Scale, n: usize) -> (f64, f64) {
    if n >= 10_000 {
        // ~10 RTTs of warmup and a 10 s span: a 10⁴-flow population
        // pushes ~10⁷ events through this window, which keeps the
        // point inside single-digit seconds while still giving every
        // flow ~160 packets for the distribution snapshot.
        (5.0, 10.0)
    } else {
        (scale.sim_warmup, scale.sim_span)
    }
}

/// Replicas per population, capped at two.
fn replicas(scale: Scale) -> usize {
    scale.replica_count().min(2)
}

/// The many-flow weak-convergence experiment.
pub struct FigManyFlow;

impl Experiment for FigManyFlow {
    fn id(&self) -> &'static str {
        "fig-manyflow"
    }

    fn title(&self) -> &'static str {
        "per-flow throughput distribution vs population size (weak convergence)"
    }

    fn paper_ref(&self) -> &'static str {
        "beyond the paper: weak-convergence scaling (PAPERS.md)"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        point_specs(&populations(scale.quick), replicas(scale), |n, rep| {
            let (warmup, span) = window(scale, n);
            SimSpec::ManyFlowDumbbell {
                n,
                rep,
                warmup,
                span,
            }
        })
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut table = Table::new(
            "fig-manyflow/distribution",
            "normalized per-flow TFRC throughput distribution vs population",
            crate::scenarios::manyflow::summary_columns(),
        );
        for (n, outs) in point_outputs(&populations(scale.quick), replicas(scale), outputs) {
            // Average the replica summaries column-wise; quantiles of
            // i.i.d. replicas average meaningfully at fixed n.
            let mut row = pooled_row(&[], outs.iter().map(|o| o.scalars())).expect("replicas ≥ 1");
            row[0] = n as f64; // population is exact, not averaged
            table.push_row(row);
        }
        vec![table]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_table_is_structurally_sane() {
        // Tiny scale keeps this a seconds-long smoke check. The actual
        // weak-convergence claim (CV shrinking with n) needs the long
        // paper-scale window — short windows give each flow only a
        // handful of loss events, so sampling noise dominates the
        // cross-population comparison.
        let tables = FigManyFlow.run(Scale::tiny());
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 2, "tiny scale runs n = 100 and 1000");
        let mean = t.column("mean").unwrap();
        let cv = t.column("cv").unwrap();
        let q05 = t.column("q05").unwrap();
        let q50 = t.column("q50").unwrap();
        let q95 = t.column("q95").unwrap();
        let predicted = t.column("predicted").unwrap();
        for (i, row) in t.rows.iter().enumerate() {
            assert!(mean[i] > 0.0, "population starved: {row:?}");
            assert!(cv[i].is_finite() && cv[i] >= 0.0, "bad cv: {row:?}");
            assert!(
                q05[i] <= q50[i] && q50[i] <= q95[i],
                "quantiles out of order: {row:?}"
            );
            assert!(predicted[i] > 0.0, "no formula prediction: {row:?}");
        }
        let n = t.column("n").unwrap();
        assert_eq!(n, vec![100.0, 1000.0]);
    }
}
