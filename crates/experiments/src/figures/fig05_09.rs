//! Figures 5, 7, 8, 9: the ns-2 RED-bottleneck experiments.
//!
//! N TFRC + N TCP Sack flows share a 15 Mb/s RED link (RTT ≈ 50 ms);
//! sweeping N sweeps the loss-event rate. The same runs produce:
//!
//! * Figure 5 — TFRC's normalized throughput `x̄/f(p, r)` and the
//!   normalized covariance `cov[θ0, θ̂0]p²` versus `p`, per window `L`;
//! * Figure 7 — the loss-event-rate ordering `p' (TCP) ≤ p (TFRC) ≤ p''
//!   (Poisson)` versus the number of connections (Claim 3);
//! * Figure 8 — the TFRC/TCP throughput ratio versus N;
//! * Figure 9 — TCP against its own formula (obedience).
//!
//! Figures 5 and 8 subscribe to the *same* [`SimSpec::Ns2Dumbbell`]
//! grid, and Figure 9 rides its `L = 8` column — the plan runs each
//! `(L, N, replica)` instance once and fans the measurements out to
//! every reducer. Figure 7's runs carry the Poisson probe, a different
//! simulation, so they stay separate specs.

use crate::figures::{cross, point_outputs, point_specs, pooled_row};
use crate::registry::{Experiment, Scale};
use crate::series::Table;
use crate::spec::{SimSpec, SpecOutput};

fn n_list(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 6, 16]
    } else {
        vec![1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36]
    }
}

fn l_list(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 8]
    } else {
        vec![2, 4, 8, 16]
    }
}

/// The `(L, N)` points shared by Figures 5, 7 and 8, in table order.
fn points(quick: bool) -> Vec<(usize, usize)> {
    cross(l_list(quick), &n_list(quick))
}

/// Every replica of every `(L, N)` point, each with the Poisson probe
/// when `probe` is set.
fn ns2_specs(scale: Scale, points: &[(usize, usize)], probe: bool) -> Vec<SimSpec> {
    point_specs(points, scale.replica_count(), |(l, n), rep| {
        SimSpec::Ns2Dumbbell {
            n,
            l,
            rep,
            probe: probe.then_some(5.0),
            warmup: scale.sim_warmup,
            span: scale.sim_span,
        }
    })
}

/// Figure 5 reproduction.
pub struct Fig05;

impl Experiment for Fig05 {
    fn id(&self) -> &'static str {
        "fig05"
    }

    fn title(&self) -> &'static str {
        "TFRC over a RED bottleneck: normalized throughput and cov[θ0,θ̂0]p² vs p"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 5"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        ns2_specs(scale, &points(scale.quick), false)
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut tput = Table::new(
            "fig05/top",
            "normalized throughput x̄/f(p, r) vs loss-event rate p",
            vec!["L", "n_pairs", "p", "normalized_throughput"],
        );
        let mut cov = Table::new(
            "fig05/bottom",
            "normalized covariance cov[θ0, θ̂0]·p² vs p",
            vec!["L", "n_pairs", "p", "normalized_covariance"],
        );
        let points = points(scale.quick);
        for ((l, n), outs) in point_outputs(&points, scale.replica_count(), outputs) {
            // Only replicas that saw losses contribute (matching the
            // per-run validity rule).
            let reps = outs.iter().map(|o| {
                let m = o.as_run();
                [
                    m.tfrc_valid_mean(|f| f.loss_event_rate),
                    m.tfrc_normalized_throughput(),
                    m.tfrc_valid_mean(|f| f.normalized_covariance),
                ]
            });
            let row = pooled_row(&[l as f64, n as f64], reps.filter(|r| r[0] > 0.0));
            if let Some(&[l, n, p, tp, c]) = row.as_deref() {
                tput.push_row(vec![l, n, p, tp]);
                cov.push_row(vec![l, n, p, c]);
            }
        }
        vec![tput, cov]
    }
}

/// Figure 7 reproduction.
pub struct Fig07;

impl Experiment for Fig07 {
    fn id(&self) -> &'static str {
        "fig07"
    }

    fn title(&self) -> &'static str {
        "loss-event rates of TFRC (p), TCP (p'), Poisson (p'') vs number of connections"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 7 / Claim 3"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        ns2_specs(scale, &points(scale.quick), true)
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut t = Table::new(
            "fig07",
            "p' ≤ p ≤ p'' ordering in the many-sources regime",
            vec!["L", "connections", "p_tfrc", "p_tcp", "p_poisson"],
        );
        let points = points(scale.quick);
        for ((l, n), outs) in point_outputs(&points, scale.replica_count(), outputs) {
            let reps = outs.iter().map(|o| {
                let m = o.as_run();
                [
                    m.tfrc_valid_mean(|f| f.loss_event_rate),
                    m.tcp_valid_mean(|f| f.loss_event_rate),
                    m.probe_loss_rate.unwrap_or(0.0),
                ]
            });
            t.push_row(pooled_row(&[l as f64, (2 * n) as f64], reps).expect("replicas ≥ 1"));
        }
        vec![t]
    }
}

/// Figure 8 reproduction.
pub struct Fig08;

impl Experiment for Fig08 {
    fn id(&self) -> &'static str {
        "fig08"
    }

    fn title(&self) -> &'static str {
        "TFRC/TCP throughput ratio vs number of connections"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 8"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        // The exact grid Figure 5 subscribes to — zero extra sims.
        ns2_specs(scale, &points(scale.quick), false)
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut t = Table::new(
            "fig08",
            "x̄(TFRC)/x̄'(TCP) vs connections, per estimator window L",
            vec!["L", "connections", "throughput_ratio"],
        );
        let points = points(scale.quick);
        for ((l, n), outs) in point_outputs(&points, scale.replica_count(), outputs) {
            let ratios = outs.iter().filter_map(|o| {
                let m = o.as_run();
                let x_tcp = m.tcp_valid_mean(|f| f.throughput);
                (x_tcp > 0.0).then(|| [m.tfrc_valid_mean(|f| f.throughput) / x_tcp])
            });
            if let Some(r) = pooled_row(&[l as f64, (2 * n) as f64], ratios) {
                t.push_row(r);
            }
        }
        vec![t]
    }
}

/// Figure 9 reproduction.
pub struct Fig09;

impl Experiment for Fig09 {
    fn id(&self) -> &'static str {
        "fig09"
    }

    fn title(&self) -> &'static str {
        "TCP throughput vs the PFTK prediction f(p', r') (obedience)"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 9"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        // The L = 8 column of the shared grid: at any scale whose
        // l_list contains 8 these specs dedup against Figures 5/8.
        let points: Vec<_> = n_list(scale.quick).into_iter().map(|n| (8, n)).collect();
        ns2_specs(scale, &points, false)
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut t = Table::new(
            "fig09",
            "per-run mean TCP throughput against f(p', r') — below the diagonal means TCP underperforms its formula",
            vec!["connections", "f_predicted", "measured"],
        );
        let ns = n_list(scale.quick);
        for (n, outs) in point_outputs(&ns, scale.replica_count(), outputs) {
            for m in outs.iter().map(|o| o.as_run()) {
                for f in &m.tcp {
                    if f.loss_event_rate > 0.0 && f.rtt_mean > 0.0 {
                        let predicted = m.tfrc_formula.rate(f.loss_event_rate, f.rtt_mean);
                        t.push_row(vec![(2 * n) as f64, predicted, f.throughput]);
                    }
                }
            }
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::global_plan;
    use crate::scenarios::DumbbellRun;
    use crate::spec::ns2_config;

    /// Shared quick-scale smoke test covering the Claim 3 ordering.
    #[test]
    fn many_sources_ordering_holds_roughly() {
        let scale = Scale::quick();
        let m = DumbbellRun::build(&ns2_config(8, 8, 0, Some(5.0)))
            .measure(scale.sim_warmup, scale.sim_span);
        let p_tfrc = m.tfrc_mean(|f| f.loss_event_rate);
        let p_tcp = m.tcp_mean(|f| f.loss_event_rate);
        let p_poisson = m.probe_loss_rate.unwrap();
        // With many connections, the smoother TFRC should not see fewer
        // loss events than the Poisson probe sees... rather: p'' ≥ p and
        // p ≥ p' (Claim 3), allowing simulation noise.
        assert!(p_poisson >= p_tfrc * 0.7, "p'' {p_poisson} vs p {p_tfrc}");
        assert!(p_tfrc >= p_tcp * 0.5, "p {p_tfrc} vs p' {p_tcp}");
    }

    #[test]
    fn fig05_produces_conservative_points() {
        let tables = Fig05.run(Scale::quick());
        let tput = &tables[0];
        assert!(!tput.is_empty());
        for row in &tput.rows {
            let norm = row[3];
            assert!(norm > 0.1 && norm < 1.6, "normalized throughput {norm}");
        }
    }

    #[test]
    fn replicated_scale_pools_the_same_grid() {
        // Two replicas of the cheapest point: the spec grid doubles and
        // the reduce still emits one row per (L, n).
        let mut scale = Scale::quick();
        scale.replicas = 2;
        let specs = Fig05.specs(scale);
        assert_eq!(
            specs.len(),
            2 * l_list(true).len() * n_list(true).len(),
            "one spec per (L, n, replica)"
        );
        let plan = global_plan(&[&Fig05 as &dyn Experiment], scale);
        assert_eq!(plan.unique_len(), specs.len(), "replicas never collide");
    }

    #[test]
    fn fig05_fig08_fig09_share_one_grid() {
        let scale = Scale::quick();
        let plan = global_plan(
            &[
                &Fig05 as &dyn Experiment,
                &Fig08 as &dyn Experiment,
                &Fig09 as &dyn Experiment,
            ],
            scale,
        );
        // fig08 adds nothing; fig09's three L = 8 points ride along.
        assert_eq!(plan.unique_len(), Fig05.specs(scale).len());
        assert_eq!(
            plan.subscribed_len(),
            Fig05.specs(scale).len() + Fig08.specs(scale).len() + Fig09.specs(scale).len()
        );
        // fig07 carries the probe and shares nothing with the others.
        let with_probe = global_plan(
            &[&Fig05 as &dyn Experiment, &Fig07 as &dyn Experiment],
            scale,
        );
        assert_eq!(
            with_probe.unique_len(),
            Fig05.specs(scale).len() + Fig07.specs(scale).len()
        );
    }
}
