//! Figure 10: the normalized covariance `cov[θ0, θ̂0]·p²` across
//! environments.
//!
//! Box summaries over replicas for: the three lab queue configurations
//! (DropTail 64, DropTail 100, RED), the four synthetic Internet sites,
//! and the cable-modem receiver (a 56 kb/s bottleneck). The paper finds
//! the normalized covariance "mostly near to zero" — the empirical basis
//! of condition (C1) — with noticeably negative values where losses come
//! in batches (UMELB, cable-modem).
//!
//! Every `(environment, replica)` pair is one runner job; the reducer
//! pools each environment's replica samples into its box summary.

use crate::figures::internet::sites;
use crate::figures::lab::lab_queues;
use crate::figures::{point_outputs, point_specs};
use crate::registry::{Experiment, Scale};
use crate::series::Table;
use crate::spec::{SimSpec, SpecOutput};
use ebrc_stats::FiveNumber;

/// One Figure-10 environment: a lab queue or an Internet site (by
/// index), or the 56 kb/s cable-modem receiver.
#[derive(Clone, Copy)]
enum Env {
    Lab(usize),
    Site(usize),
    CableModem,
}

/// The environments, in figure order.
fn environments() -> Vec<Env> {
    let labs = (0..lab_queues().len()).map(Env::Lab);
    let internet = (0..sites().len()).map(Env::Site);
    labs.chain(internet).chain([Env::CableModem]).collect()
}

fn env_name(env: Env) -> String {
    match env {
        Env::Lab(qi) => format!("lab/{}", lab_queues()[qi].0),
        Env::Site(si) => format!("internet/{}", sites()[si].name),
        Env::CableModem => "cable-modem".into(),
    }
}

/// Replica `rep` of one environment.
fn env_spec(scale: Scale, env: Env, rep: usize) -> SimSpec {
    let rep = rep as u64;
    match env {
        Env::Lab(queue) => SimSpec::LabDumbbell {
            queue,
            n: 4,
            seed: 100 + rep * 7,
            warmup: scale.sim_warmup,
            span: scale.sim_span,
        },
        Env::Site(site) => SimSpec::SiteDumbbell {
            site,
            n: 2,
            seed: 200 + rep * 13,
            quick: scale.quick,
            warmup: scale.sim_warmup,
            span: scale.sim_span,
        },
        Env::CableModem => SimSpec::CableModem {
            seed: 300 + rep * 17,
            warmup: scale.sim_warmup,
            // The slow link needs a longer span for enough loss events.
            span: scale.sim_span * 4.0,
        },
    }
}

/// Figure 10 reproduction.
pub struct Fig10;

impl Experiment for Fig10 {
    fn id(&self) -> &'static str {
        "fig10"
    }

    fn title(&self) -> &'static str {
        "normalized covariance cov[θ0, θ̂0]·p² across lab and Internet environments"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 10"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        point_specs(&environments(), scale.replica_count(), |env, rep| {
            env_spec(scale, env, rep)
        })
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        let mut t = Table::new(
            "fig10",
            "box summaries (min, q1, median, q3, max) of cov[θ0, θ̂0]p² per environment",
            vec!["env_index", "min", "q1", "median", "q3", "max"],
        );
        let envs = environments();
        let points = point_outputs(&envs, scale.replica_count(), outputs);
        for (idx, (env, outs)) in points.enumerate() {
            // Lab and Internet environments pool every valid flow's
            // covariance; the cable modem contributes its per-run mean.
            let mut samples = Vec::new();
            for m in outs.iter().map(|o| o.as_run()) {
                match env {
                    Env::CableModem => samples.push(m.tfrc_valid_mean(|f| f.normalized_covariance)),
                    _ => samples.extend(m.tfrc_valid().map(|f| f.normalized_covariance)),
                }
            }
            if let Some(b) = FiveNumber::of(&samples) {
                t.push_row(vec![idx as f64, b.min, b.q1, b.median, b.q3, b.max]);
            }
        }
        let names: Vec<String> = envs.into_iter().map(env_name).collect();
        t.caption = format!("{} — envs: {}", t.caption, names.join(", "));
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covariances_mostly_near_zero() {
        let tables = Fig10.run(Scale::quick());
        let t = &tables[0];
        assert!(t.len() >= 6, "expected most environments to report");
        // The paper's qualitative claim: medians concentrated near zero
        // (|median| small relative to the ±0.4 plot range).
        let medians: Vec<f64> = t.rows.iter().map(|r| r[3]).collect();
        let near_zero = medians.iter().filter(|m| m.abs() < 0.25).count();
        assert!(
            near_zero * 2 >= medians.len(),
            "medians not concentrated near zero: {medians:?}"
        );
    }

    #[test]
    fn eight_environments_enumerate() {
        let names: Vec<String> = environments().into_iter().map(env_name).collect();
        assert_eq!(names.len(), 8);
        assert_eq!(names[0], "lab/droptail64");
        assert_eq!(names[7], "cable-modem");
    }
}
