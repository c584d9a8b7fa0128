//! Figure 17: loss-event-rate ratio `p'/p` over a DropTail bottleneck,
//! versus the buffer size.
//!
//! Left panel: one TCP **or** one TFRC alone on the bottleneck — the
//! few-flows regime of Claim 4 where TCP's sawtooth hits the buffer far
//! more often than TFRC's smooth rate. Right panel: one TCP **and** one
//! TFRC sharing. Both show `p'/p > 1`: TFRC sees fewer loss events.
//!
//! Each protocol-alone run and each sharing run is its own job (three
//! jobs per `(buffer, replica)` point).

use crate::figures::{indexed, point_outputs, point_specs, pooled_row};
use crate::registry::{replica_seed, Experiment, Scale};
use crate::series::Table;
use crate::spec::{SimSpec, SpecOutput, SweepMode};

fn buffers(quick: bool) -> Vec<usize> {
    if quick {
        vec![25, 100]
    } else {
        vec![10, 25, 50, 100, 150, 200, 250]
    }
}

/// The three runs of each `(buffer, replica)`: mode, seed base, and
/// seed offset (the two alone runs seed one apart from one base).
const RUNS: [(SweepMode, u64, u64); 3] = [
    (SweepMode::TcpAlone, 170, 0),
    (SweepMode::TfrcAlone, 170, 1),
    (SweepMode::Shared, 270, 0),
];

/// A `buffer, p_tcp, p_tfrc, ratio` row pooled over the replicas' `(p',
/// p)` pairs where TFRC saw losses; the ratio is a mean of per-replica
/// ratios.
fn ratio_row(buffer: usize, pairs: impl Iterator<Item = (f64, f64)>) -> Option<Vec<f64>> {
    let valid = pairs.filter(|&(_, pf)| pf > 0.0);
    pooled_row(&[buffer as f64], valid.map(|(pt, pf)| [pt, pf, pt / pf]))
}

/// Figure 17 reproduction.
pub struct Fig17;

impl Experiment for Fig17 {
    fn id(&self) -> &'static str {
        "fig17"
    }

    fn title(&self) -> &'static str {
        "p'/p over a DropTail bottleneck vs buffer size: isolation and sharing"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 17 / Claim 4"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        let per_point = RUNS.len() * scale.replica_count();
        let points = indexed(&buffers(scale.quick));
        point_specs(&points, per_point, |(i, buffer), k| {
            let (mode, base, offset) = RUNS[k % RUNS.len()];
            SimSpec::BufferSweep {
                mode,
                buffer,
                seed: replica_seed(base + i as u64 * 3, k / RUNS.len()) + offset,
                warmup: scale.sim_warmup,
                span: scale.sim_span,
            }
        })
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut iso = Table::new(
            "fig17/isolation",
            "each protocol alone on the bottleneck",
            vec!["buffer", "p_tcp", "p_tfrc", "ratio"],
        );
        let mut shared = Table::new(
            "fig17/sharing",
            "one TCP and one TFRC sharing the bottleneck",
            vec!["buffer", "p_tcp", "p_tfrc", "ratio"],
        );
        let p_tcp = |o: &SpecOutput| o.as_run().tcp_mean(|f| f.loss_event_rate);
        let p_tfrc = |o: &SpecOutput| o.as_run().tfrc_mean(|f| f.loss_event_rate);
        let per_point = RUNS.len() * scale.replica_count();
        for ((_, b), outs) in point_outputs(&indexed(&buffers(scale.quick)), per_point, outputs) {
            let reps = outs.chunks(RUNS.len());
            let iso_reps = reps.clone().map(|r| (p_tcp(r[0]), p_tfrc(r[1])));
            if let Some(row) = ratio_row(b, iso_reps) {
                iso.push_row(row);
            }
            if let Some(row) = ratio_row(b, reps.map(|r| (p_tcp(r[2]), p_tfrc(r[2])))) {
                shared.push_row(row);
            }
        }
        vec![iso, shared]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_sees_more_loss_events_than_tfrc() {
        let tables = Fig17.run(Scale::quick());
        for t in &tables {
            assert!(!t.is_empty(), "{} produced no rows", t.name);
            for row in &t.rows {
                let ratio = row[3];
                assert!(
                    ratio > 1.0,
                    "{}: buffer {} has p'/p = {ratio} ≤ 1",
                    t.name,
                    row[0]
                );
            }
        }
    }
}
