//! The lab-testbed experiments: Figure 16 (TCP-friendliness check) and
//! Figures 18–19 (breakdown), for DropTail(100) and RED bottlenecks.
//!
//! Setup per the paper: 10 Mb/s bottleneck, 25 ms each-way delay stage,
//! PFTK-standard, `L = 8`, comprehensive control disabled, N TFRC + N
//! TCP with N ∈ {1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36}.
//!
//! Each `(queue, N, replica)` point is one runner job; reducers average
//! over `Scale::replicas`.

use crate::breakdown::{breakdown_row, friendliness_row, Breakdown};
use crate::figures::{cross, group_tables, point_specs};
use crate::registry::{replica_seed, Experiment, Scale};
use crate::scenarios::QueueSpec;
use crate::series::Table;
use crate::spec::{SimSpec, SpecOutput};
use ebrc_net::RedConfig;

fn n_list(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 9, 25]
    } else {
        vec![1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36]
    }
}

/// The two lab queue configurations of Figures 16, 18–19 (plus
/// DropTail 64 for Figure 10).
pub fn lab_queues() -> Vec<(&'static str, QueueSpec)> {
    let mean_pkt_time = 1500.0 * 8.0 / 10e6;
    vec![
        ("droptail64", QueueSpec::DropTail(64)),
        ("droptail100", QueueSpec::DropTail(100)),
        ("red", QueueSpec::Red(RedConfig::lab_paper(mean_pkt_time))),
    ]
}

/// The two queues of Figures 16 and 18–19 (DropTail 100 and RED), in
/// table order: `lab_queues()` from index 1.
fn figure_queues() -> impl Iterator<Item = &'static str> {
    lab_queues().into_iter().skip(1).map(|(name, _)| name)
}

/// The `(table, N)` points of Figures 16 and 18–19, in table order;
/// table `g` runs queue `g + 1` of [`lab_queues`].
fn points(quick: bool) -> Vec<(usize, usize)> {
    cross(0..figure_queues().count(), &n_list(quick))
}

/// Every replica of every point; replica `rep` of `(table, N)` seeds
/// from `base + N`.
fn lab_specs(scale: Scale, base: u64) -> Vec<SimSpec> {
    let points = points(scale.quick);
    point_specs(&points, scale.replica_count(), |(g, n), rep| {
        SimSpec::LabDumbbell {
            queue: g + 1,
            n,
            seed: replica_seed(base + n as u64, rep),
            warmup: scale.sim_warmup,
            span: scale.sim_span,
        }
    })
}

/// Figure 16 reproduction.
pub struct Fig16;

impl Experiment for Fig16 {
    fn id(&self) -> &'static str {
        "fig16"
    }

    fn title(&self) -> &'static str {
        "lab: TFRC/TCP throughput ratio vs p (DropTail 100, RED)"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 16"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        lab_specs(scale, 16_000)
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let tables = figure_queues().map(|name| {
            Table::new(
                format!("fig16/{name}"),
                format!("x̄/x̄' vs p over {name}"),
                vec!["pairs", "p", "throughput_ratio"],
            )
        });
        let points = points(scale.quick);
        group_tables(scale, tables, &points, outputs, friendliness_row)
    }
}

/// Figures 18–19 reproduction.
pub struct Fig18to19;

impl Experiment for Fig18to19 {
    fn id(&self) -> &'static str {
        "fig18-19"
    }

    fn title(&self) -> &'static str {
        "lab: breakdown of the TCP-friendliness condition (DropTail 100, RED)"
    }

    fn paper_ref(&self) -> &'static str {
        "Figures 18, 19"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        lab_specs(scale, 18_000)
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let tables = figure_queues().map(|name| {
            Table::new(
                format!("fig18-19/{name}"),
                format!("breakdown over {name}: x̄/f(p,r), p'/p, r'/r, x̄'/f(p',r')"),
                Breakdown::COLUMNS.to_vec(),
            )
        });
        let points = points(scale.quick);
        group_tables(scale, tables, &points, outputs, breakdown_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{DumbbellConfig, DumbbellRun};

    #[test]
    fn lab_breakdown_is_sane_on_red() {
        let (_, red) = lab_queues().into_iter().nth(2).unwrap();
        let scale = Scale::quick();
        let cfg = DumbbellConfig::lab_paper(4, red, 5);
        let m = DumbbellRun::build(&cfg).measure(scale.sim_warmup, scale.sim_span);
        let b = Breakdown::from_measurements(&m).expect("losses expected");
        // Lab runs disable the comprehensive control; conservativeness
        // should be visible (≤ about 1).
        assert!(
            b.conservativeness < 1.3,
            "conservativeness {}",
            b.conservativeness
        );
        assert!(b.p > 0.001, "p {}", b.p);
    }

    #[test]
    fn three_lab_queues_defined() {
        let qs = lab_queues();
        assert_eq!(qs.len(), 3);
        assert_eq!(qs[0].0, "droptail64");
    }
}
