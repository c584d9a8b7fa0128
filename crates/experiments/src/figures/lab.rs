//! The lab-testbed experiments: Figure 16 (TCP-friendliness check) and
//! Figures 18–19 (breakdown), for DropTail(100) and RED bottlenecks.
//!
//! Setup per the paper: 10 Mb/s bottleneck, 25 ms each-way delay stage,
//! PFTK-standard, `L = 8`, comprehensive control disabled, N TFRC + N
//! TCP with N ∈ {1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36}.
//!
//! Each `(queue, N, replica)` point is one runner job; reducers average
//! over `Scale::replicas`.

use crate::breakdown::Breakdown;
use crate::figures::mean;
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

/// The `(queue index, N, replica)` grid of Figures 16 and 18–19 (the
/// two Figure-16 queues: DropTail 100 and RED), in table order.
fn grid(scale: Scale) -> Vec<(usize, usize, usize)> {
    let mut points = Vec::new();
    for qi in 1..lab_queues().len() {
        for &n in &n_list(scale.quick) {
            for rep in 0..scale.replica_count() {
                points.push((qi, n, rep));
            }
        }
    }
    points
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
        grid(scale)
            .into_iter()
            .map(|(qi, n, rep)| SimSpec::LabDumbbell {
                queue: qi,
                n,
                seed: replica_seed(16_000 + n as u64, rep),
                warmup: scale.sim_warmup,
                span: scale.sim_span,
            })
            .collect()
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut values = outputs.iter().map(|o| {
            let m = o.as_run();
            (
                m.tfrc_valid_mean(|f| f.loss_event_rate),
                m.tfrc_valid_mean(|f| f.throughput),
                m.tcp_valid_mean(|f| f.throughput),
            )
        });
        let mut tables = Vec::new();
        for (name, _) in lab_queues().into_iter().skip(1) {
            let mut t = Table::new(
                format!("fig16/{name}"),
                format!("x̄/x̄' vs p over {name}"),
                vec!["pairs", "p", "throughput_ratio"],
            );
            for &n in &n_list(scale.quick) {
                let reps: Vec<(f64, f64)> = (0..scale.replica_count())
                    .map(|_| values.next().expect("grid/result length mismatch"))
                    .filter(|(p, _, x_tcp)| *x_tcp > 0.0 && *p > 0.0)
                    .map(|(p, x, x_tcp)| (p, x / x_tcp))
                    .collect();
                if !reps.is_empty() {
                    let p = mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>());
                    let ratio = mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>());
                    t.push_row(vec![n as f64, p, ratio]);
                }
            }
            tables.push(t);
        }
        tables
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
        grid(scale)
            .into_iter()
            .map(|(qi, n, rep)| SimSpec::LabDumbbell {
                queue: qi,
                n,
                seed: replica_seed(18_000 + n as u64, rep),
                warmup: scale.sim_warmup,
                span: scale.sim_span,
            })
            .collect()
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut values = outputs.iter().map(|o| {
            Breakdown::from_measurements(o.as_run()).map(|b| {
                [
                    b.p,
                    b.conservativeness,
                    b.loss_rate_ratio,
                    b.rtt_ratio,
                    b.tcp_obedience,
                    b.friendliness,
                ]
            })
        });
        let mut tables = Vec::new();
        for (name, _) in lab_queues().into_iter().skip(1) {
            let mut t = Table::new(
                format!("fig18-19/{name}"),
                format!("breakdown over {name}: x̄/f(p,r), p'/p, r'/r, x̄'/f(p',r')"),
                vec![
                    "pairs",
                    "p",
                    "conservativeness",
                    "loss_rate_ratio",
                    "rtt_ratio",
                    "tcp_obedience",
                    "friendliness",
                ],
            );
            for &n in &n_list(scale.quick) {
                let reps: Vec<[f64; 6]> = (0..scale.replica_count())
                    .filter_map(|_| values.next().expect("grid/result length mismatch"))
                    .collect();
                if reps.is_empty() {
                    continue;
                }
                let mut row = vec![n as f64];
                for c in 0..6 {
                    row.push(mean(&reps.iter().map(|r| r[c]).collect::<Vec<_>>()));
                }
                t.push_row(row);
            }
            tables.push(t);
        }
        tables
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
