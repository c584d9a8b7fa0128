//! The correctness gate. A benchmark number for wrong output is worth
//! nothing, so every run checks what the system computed:
//!
//! * the whole catalogue at `Scale::tiny()` must reproduce the repo's
//!   golden corpus byte for byte (read from the repo, so a PR that
//!   refreshes the corpus on purpose stays consistent);
//! * rendered tables are reduced to one order-independent digest that
//!   must agree across passes, workloads and every served submission;
//! * a finished single sim must satisfy the queue and link
//!   conservation laws and report only finite measurements.

use ebrc_experiments::{
    plan_run_catalogue, table_file_name, Experiment, ExperimentReport, Scale, SpecOutput, Table,
};
use ebrc_net::{LinkStats, QueueStats};
use ebrc_runner::{stable_hash, Pool};
use std::collections::BTreeMap;

/// The repo's golden corpus: one JSON file per catalogue table.
const GOLDEN_DIR: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../crates/experiments/tests/golden"
);

/// One rendered table as it leaves the system: file stem, aligned
/// text, JSON.
pub struct Rendered {
    pub file: String,
    pub text: String,
    pub json: String,
}

impl Rendered {
    /// Renders `table` the way the CLI spools it and the daemon ships it.
    pub fn of(table: &Table) -> Self {
        Self {
            file: table_file_name(&table.name),
            text: table.render(),
            json: table.to_json(),
        }
    }
}

/// Renders every table of a catalogue run, or names the experiments
/// that failed.
pub fn render_reports(reports: &[ExperimentReport]) -> Result<Vec<Rendered>, String> {
    let mut out = Vec::new();
    let mut failures = Vec::new();
    for report in reports {
        match &report.outcome {
            Ok(tables) => out.extend(tables.iter().map(Rendered::of)),
            Err(e) => failures.push(e.to_string()),
        }
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(failures.join("; "))
    }
}

/// FNV-1a digest of a set of rendered tables, independent of the order
/// the experiments were handed over in.
pub fn tables_digest(mut tables: Vec<Rendered>) -> u64 {
    tables.sort_by(|a, b| a.file.cmp(&b.file));
    let mut text = String::new();
    for t in &tables {
        text.push_str(&t.file);
        text.push('\n');
        text.push_str(&t.text);
        text.push_str(&t.json);
        text.push('\n');
    }
    stable_hash(&text)
}

/// FNV-1a digest of spec outputs through the repo's own bit-exact
/// interchange encoding.
pub fn outputs_digest<'a>(outputs: impl IntoIterator<Item = &'a SpecOutput>) -> u64 {
    let text: Vec<String> = outputs
        .into_iter()
        .map(|o| serde_json::to_string(&o.to_value()).expect("outputs are serializable"))
        .collect();
    stable_hash(&text.join("\n"))
}

/// Runs the catalogue at `Scale::tiny()` through the library, in the
/// order given, and compares every table with the golden corpus.
pub fn golden_gate(experiments: &[&dyn Experiment], threads: usize) -> Result<(), String> {
    let reports = plan_run_catalogue(
        experiments.to_vec(),
        Scale::tiny(),
        &Pool::new(threads),
        |_, _| {},
        |_| {},
    );
    let got: BTreeMap<String, String> = render_reports(&reports)?
        .into_iter()
        .map(|t| (t.file, t.json))
        .collect();
    let mut want = BTreeMap::new();
    let dir = std::fs::read_dir(GOLDEN_DIR).map_err(|e| format!("{GOLDEN_DIR}: {e}"))?;
    for entry in dir {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let name = path.file_name().expect("a .json file has a name");
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            want.insert(name.to_string_lossy().into_owned(), text);
        }
    }
    compare_corpus(&want, &got)
}

fn compare_corpus(
    want: &BTreeMap<String, String>,
    got: &BTreeMap<String, String>,
) -> Result<(), String> {
    if want.is_empty() {
        return Err("golden corpus is empty".into());
    }
    if !want.keys().eq(got.keys()) {
        return Err(format!(
            "golden corpus has {} tables, the run produced {}",
            want.len(),
            got.len()
        ));
    }
    match want.iter().find(|(file, text)| got[*file] != **text) {
        Some((file, _)) => Err(format!("{file} diverged from the golden corpus")),
        None => Ok(()),
    }
}

/// What a finished single sim left at its bottleneck.
pub struct Bottleneck {
    pub queue: QueueStats,
    pub queued: usize,
    pub link: LinkStats,
    /// Simulated seconds elapsed.
    pub elapsed: f64,
}

/// Physical invariants of a finished single sim.
pub fn check_sim(b: &Bottleneck, output: &SpecOutput) -> Result<(), String> {
    if b.queue.enqueued != b.queue.dequeued + b.queued as u64 {
        return Err(format!(
            "queue lost packets: enqueued {} != dequeued {} + queued {}",
            b.queue.enqueued, b.queue.dequeued, b.queued
        ));
    }
    if b.link.busy_time > b.elapsed {
        return Err(format!(
            "link busy {} s of {} s elapsed",
            b.link.busy_time, b.elapsed
        ));
    }
    if b.link.transmitted == 0 {
        return Err("the bottleneck transmitted nothing".into());
    }
    let finite = match output {
        SpecOutput::Run(m) => {
            m.tfrc.iter().chain(&m.tcp).all(|f| {
                [
                    f.throughput,
                    f.loss_event_rate,
                    f.rtt_mean,
                    f.normalized_covariance,
                    f.cov_rate_duration,
                    f.theta_hat_cv2,
                ]
                .iter()
                .all(|x| x.is_finite())
            }) && m.nominal_rtt.is_finite()
                && m.probe_loss_rate.is_none_or(f64::is_finite)
        }
        SpecOutput::Scalars(v) => v.iter().all(|x| x.is_finite()),
        other => return Err(format!("a sim produced a {} output", other.kind())),
    };
    if finite {
        Ok(())
    } else {
        Err("a measurement is not finite".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(entries: &[(&str, &str)]) -> BTreeMap<String, String> {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn corpus_comparison_names_the_offender() {
        let want = corpus(&[("a", "1"), ("b", "2")]);
        assert_eq!(compare_corpus(&want, &want.clone()), Ok(()));
        let err = compare_corpus(&want, &corpus(&[("a", "1"), ("b", "3")])).unwrap_err();
        assert!(err.contains("b diverged"), "{err}");
        assert!(compare_corpus(&want, &corpus(&[("a", "1")])).is_err());
        assert!(compare_corpus(&corpus(&[]), &corpus(&[])).is_err());
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let t = |file: &str, text: &str| Rendered {
            file: file.into(),
            text: text.into(),
            json: "{}".into(),
        };
        let ab = tables_digest(vec![t("a", "x"), t("b", "y")]);
        assert_eq!(ab, tables_digest(vec![t("b", "y"), t("a", "x")]));
        assert_ne!(ab, tables_digest(vec![t("a", "x"), t("b", "z")]));
    }

    #[test]
    fn sim_invariants_reject_lost_packets_and_non_finite_output() {
        let ok = Bottleneck {
            queue: QueueStats {
                enqueued: 10,
                dequeued: 8,
                dropped: 1,
                forced_drops: 1,
            },
            queued: 2,
            link: LinkStats {
                transmitted: 8,
                bytes: 8000,
                busy_time: 0.5,
            },
            elapsed: 1.0,
        };
        let out = SpecOutput::Scalars(vec![1.0, 2.0]);
        assert_eq!(check_sim(&ok, &out), Ok(()));
        assert!(check_sim(&ok, &SpecOutput::Scalars(vec![f64::NAN])).is_err());
        let lost = Bottleneck { queued: 1, ..ok };
        assert!(check_sim(&lost, &out).unwrap_err().contains("lost packets"));
        let lost = Bottleneck { queued: 2, ..lost };
        let busy = Bottleneck {
            elapsed: 0.4,
            ..lost
        };
        assert!(check_sim(&busy, &out).unwrap_err().contains("busy"));
    }
}
