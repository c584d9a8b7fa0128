//! The synthetic Internet experiments: Table I sites, Figure 11
//! (TCP-friendliness check) and Figures 12–15 (the per-site breakdown).
//!
//! The paper ran TFRC/TCP pairs from EPFL to four receivers (Table I).
//! We substitute synthetic wide-area paths: per-site access rate and
//! base RTT from Table I, a DropTail access-link bottleneck, and a
//! Poisson background load that stands in for Internet cross-traffic
//! (30 % of capacity). UMELB gets a small buffer relative to its huge
//! bandwidth-delay product, reproducing its bursty (batchy) losses.
//!
//! Each `(site, pair count, replica)` point is one runner job; reducers
//! average the per-replica measurements.

use crate::breakdown::Breakdown;
use crate::figures::mean;
use crate::registry::{replica_seed, Experiment, Scale};
use crate::scenarios::{DumbbellConfig, QueueSpec};
use crate::series::Table;
use crate::spec::{SimSpec, SpecOutput};
use ebrc_tfrc::FormulaKind;

/// A synthetic Table-I site.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    /// Site label.
    pub name: &'static str,
    /// Access rate (the paper's column 2), bits/second.
    pub access_bps: f64,
    /// Path hop count (descriptive only).
    pub hops: u32,
    /// Base RTT, seconds.
    pub rtt: f64,
    /// Bottleneck buffer, packets.
    pub buffer: usize,
    /// Background Poisson load as a fraction of capacity.
    pub background: f64,
}

/// The four receivers of Table I.
pub fn sites() -> [Site; 4] {
    [
        Site {
            name: "INRIA",
            access_bps: 100e6,
            hops: 13,
            rtt: 0.030,
            buffer: 120,
            background: 0.3,
        },
        Site {
            name: "UMASS",
            access_bps: 100e6,
            hops: 15,
            rtt: 0.097,
            buffer: 160,
            background: 0.3,
        },
        Site {
            name: "KTH",
            access_bps: 10e6,
            hops: 20,
            rtt: 0.046,
            buffer: 80,
            background: 0.3,
        },
        Site {
            name: "UMELB",
            access_bps: 10e6,
            hops: 24,
            rtt: 0.350,
            // Deliberately small against the large BDP: drops arrive in
            // bursts, the paper's "loss-events occurring in batches".
            buffer: 40,
            background: 0.3,
        },
    ]
}

/// Builds a site scenario with `n` TFRC + `n` TCP pairs.
pub fn site_config(site: &Site, n: usize, seed: u64, quick: bool) -> DumbbellConfig {
    // Quick scale halves the fast access links so the event count stays
    // interactive; the shape (who wins, orderings) is rate-invariant.
    let bps = if quick && site.access_bps > 20e6 {
        20e6
    } else {
        site.access_bps
    };
    let mut cfg = DumbbellConfig::ns2_paper(n, 8, seed);
    cfg.bottleneck_bps = bps;
    cfg.queue = QueueSpec::DropTail(site.buffer);
    cfg.one_way_delay = site.rtt / 2.0;
    cfg.tfrc.sender.formula = FormulaKind::PftkStandard;
    cfg.tfrc.sender.nominal_rtt = site.rtt;
    cfg.tcp.nominal_rtt = site.rtt;
    // Poisson cross-traffic at the site's background fraction. (On/off
    // bursts crush TCP into timeout regimes and flip the loss-event
    // comparison away from the paper's measured Internet behaviour —
    // TFRC keeps sampling through bursts while TCP stops — so the
    // smoother Poisson load is the faithful stand-in here.)
    cfg.poisson_probe = Some(site.background * bps / (1500.0 * 8.0));
    cfg
}

fn pair_list(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 6, 8, 10]
    }
}

/// The Table I constants as a table — the body of the `table1` spec.
pub(crate) fn site_table() -> Table {
    let mut t = Table::new(
        "table1",
        "site parameters: access Mb/s, hops, base RTT (ms), buffer (pkts)",
        vec!["site_index", "mbps", "hops", "rtt_ms", "buffer"],
    );
    for (i, s) in sites().iter().enumerate() {
        t.push_row(vec![
            i as f64,
            s.access_bps / 1e6,
            s.hops as f64,
            s.rtt * 1e3,
            s.buffer as f64,
        ]);
    }
    t
}

/// The `(site, pairs, replica)` grid shared by Figures 11 and 12–15, in
/// table order.
fn grid(scale: Scale) -> Vec<(usize, usize, usize)> {
    let mut points = Vec::new();
    for si in 0..sites().len() {
        for &n in &pair_list(scale.quick) {
            for rep in 0..scale.replica_count() {
                points.push((si, n, rep));
            }
        }
    }
    points
}

/// Table I reproduction.
pub struct Table1;

impl Experiment for Table1 {
    fn id(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "receiver hosts and connections (synthetic stand-ins)"
    }

    fn paper_ref(&self) -> &'static str {
        "Table I"
    }

    fn specs(&self, _scale: Scale) -> Vec<SimSpec> {
        vec![SimSpec::SiteTable]
    }

    fn reduce(&self, _scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        outputs.iter().map(|o| o.as_table().clone()).collect()
    }
}

/// Figure 11 reproduction.
pub struct Fig11;

impl Experiment for Fig11 {
    fn id(&self) -> &'static str {
        "fig11"
    }

    fn title(&self) -> &'static str {
        "Internet sites: TFRC/TCP throughput ratio vs p"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 11"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        grid(scale)
            .into_iter()
            .map(|(si, n, rep)| {
                let base = 7_000 + si as u64 * 97 + n as u64;
                SimSpec::SiteDumbbell {
                    site: si,
                    n,
                    seed: replica_seed(base, rep),
                    quick: scale.quick,
                    warmup: scale.sim_warmup,
                    span: scale.sim_span,
                }
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
        for site in &sites() {
            let mut t = Table::new(
                format!("fig11/{}", site.name),
                format!("x̄/x̄' vs p at {}", site.name),
                vec!["pairs", "p", "throughput_ratio"],
            );
            for &n in &pair_list(scale.quick) {
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

/// Figures 12–15 reproduction (the four-ratio breakdown per site).
pub struct Fig12to15;

impl Experiment for Fig12to15 {
    fn id(&self) -> &'static str {
        "fig12-15"
    }

    fn title(&self) -> &'static str {
        "Internet sites: breakdown of the TCP-friendliness condition"
    }

    fn paper_ref(&self) -> &'static str {
        "Figures 12, 13, 14, 15"
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        grid(scale)
            .into_iter()
            .map(|(si, n, rep)| {
                let base = 8_000 + si as u64 * 131 + n as u64;
                SimSpec::SiteDumbbell {
                    site: si,
                    n,
                    seed: replica_seed(base, rep),
                    quick: scale.quick,
                    warmup: scale.sim_warmup,
                    span: scale.sim_span,
                }
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
        for site in &sites() {
            let mut t = Table::new(
                format!("fig12-15/{}", site.name),
                format!(
                    "breakdown at {}: x̄/f(p,r), p'/p, r'/r, x̄'/f(p',r') vs p",
                    site.name
                ),
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
            for &n in &pair_list(scale.quick) {
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
    use crate::scenarios::DumbbellRun;

    #[test]
    fn four_sites_match_table1() {
        let s = sites();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].name, "INRIA");
        assert!((s[1].rtt - 0.097).abs() < 1e-12);
        assert!((s[3].rtt - 0.350).abs() < 1e-12);
        assert_eq!(s[2].access_bps, 10e6);
    }

    #[test]
    fn kth_site_runs_and_breaks_down() {
        let site = sites()[2]; // KTH: 10 Mb/s — cheap to simulate
        let scale = Scale::quick();
        let cfg = site_config(&site, 2, 1234, scale.quick);
        let m = DumbbellRun::build(&cfg).measure(scale.sim_warmup, scale.sim_span);
        let b = Breakdown::from_measurements(&m).expect("losses expected");
        assert!(b.p > 0.0 && b.p < 0.3);
        assert!(b.friendliness > 0.05 && b.friendliness < 20.0);
    }
}
