//! Sharded sweeps: the shard artifact, `repro run --shard` and `repro
//! merge`.

use super::sweep::{report_cache, trace_config};
use super::{ensure_dir, write_file, CliError, NamedScale, Reporter};
use crate::registry::{reduce_subscription, resolve, Experiment, Plan, MASTER_SEED};
use crate::service::{chunk_of, CatalogueBackend};
use crate::spec::{SimSpec, SpecOutput};
use ebrc_runner::{parse_hex16, Fields};
use ebrc_runner::{run_plan, stable_hash, OutputCache, Pool, Spec as _, SpecResult, SpecTiming};
use serde::Value;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One completed sim inside a [`ShardArtifact`].
#[derive(Debug, Clone)]
pub struct ShardOutput {
    /// The spec's content key.
    pub key: String,
    /// Engine events and wall seconds this sim cost (both 0 when it
    /// was served from the cache); `merge` sums the events per
    /// experiment.
    pub events: u64,
    /// See [`ShardOutput::events`].
    pub wall_s: f64,
    /// What the sim produced.
    pub output: Arc<SpecOutput>,
}

/// What `repro run --shard i/k` leaves behind for `repro merge`: the
/// raw outputs of one deterministic shard of a plan. This type is the
/// file format — written by `run`, validated and folded by `merge` —
/// and its field names are spelled nowhere else.
#[derive(Debug, Clone)]
pub struct ShardArtifact {
    /// Fingerprint of the plan the shard was cut from.
    pub plan: u64,
    /// Name of the scale the plan was built at (informational — the
    /// fingerprint already covers it).
    pub scale: String,
    /// Shard index.
    pub shard: usize,
    /// Shard count.
    pub of: usize,
    /// Engine events the shard's executed sims dispatched.
    pub events_processed: u64,
    /// The sims that completed.
    pub outputs: Vec<ShardOutput>,
    /// `(spec key, error)` of the sims that failed.
    pub failures: Vec<(String, String)>,
}

/// The unique-spec index `key` has in `plan`.
fn spec_index(plan: &Plan, key: &str) -> Result<usize, String> {
    let idx = plan
        .index_of(stable_hash(key))
        .ok_or_else(|| format!("spec {key:?} is not in this plan"))?;
    if plan.specs()[idx].key() != key {
        return Err(format!("hash collision on {key:?}"));
    }
    Ok(idx)
}

impl ShardArtifact {
    /// Renders the artifact for the shard file.
    pub fn to_value(&self) -> Value {
        let string = |s: &str| Value::String(s.to_string());
        let outputs = self.outputs.iter().map(|o| {
            Value::Object(vec![
                ("key".into(), string(&o.key)),
                (
                    "hash".into(),
                    Value::String(format!("{:016x}", stable_hash(&o.key))),
                ),
                ("events".into(), Value::Number(o.events as f64)),
                ("wall_s".into(), Value::Number(o.wall_s)),
                ("output".into(), o.output.to_value()),
            ])
        });
        let failures = self.failures.iter().map(|(key, error)| {
            Value::Object(vec![
                ("key".into(), string(key)),
                ("error".into(), string(error)),
            ])
        });
        Value::Object(vec![
            ("plan".into(), Value::String(format!("{:016x}", self.plan))),
            ("scale".into(), string(&self.scale)),
            ("shard".into(), Value::Number(self.shard as f64)),
            ("of".into(), Value::Number(self.of as f64)),
            (
                "events_processed".into(),
                Value::Number(self.events_processed as f64),
            ),
            ("outputs".into(), Value::Array(outputs.collect())),
            ("failures".into(), Value::Array(failures.collect())),
        ])
    }

    /// Parses [`ShardArtifact::to_value`]'s rendering. Every member
    /// is required, and an unknown or duplicated member, a count that
    /// is not a whole number, a negative wall time, a split with
    /// `shard >= of`, or an output whose `hash` is not its key's are
    /// errors.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let mut f = Fields::of(v, "shard artifact")?;
        let plan = parse_hex16(f.string("plan")?).ok_or("shard artifact: bad plan fingerprint")?;
        let scale = f.string("scale")?.to_string();
        let (shard, of) = (f.count("shard")?, f.count("of")?);
        if shard >= of {
            return Err(format!("shard artifact: no shard {shard} of {of}"));
        }
        let events_processed = f.count("events_processed")?;
        let outputs = f.array("outputs")?.iter().map(|entry| {
            let mut o = Fields::of(entry, "output")?;
            let key = o.string("key")?.to_string();
            if o.string("hash")? != format!("{:016x}", stable_hash(&key)) {
                return Err(format!("output {key:?}: hash is not its key's"));
            }
            let events = o.count("events")?;
            let wall_s = o.number("wall_s")?;
            if !wall_s.is_finite() || wall_s.is_sign_negative() {
                return Err(format!("output {key:?}: wall_s {wall_s} is not a duration"));
            }
            let output = Arc::new(SpecOutput::from_value(o.value("output")?)?);
            o.done(ShardOutput {
                key,
                events,
                wall_s,
                output,
            })
        });
        let outputs = outputs.collect::<Result<_, String>>()?;
        let failures = f.array("failures")?.iter().map(|entry| {
            let mut e = Fields::of(entry, "failure")?;
            let failure = (e.string("key")?.to_string(), e.string("error")?.to_string());
            e.done(failure)
        });
        let failures = failures.collect::<Result<_, String>>()?;
        f.done(Self {
            plan,
            scale,
            shard,
            of,
            events_processed,
            outputs,
            failures,
        })
    }

    /// Reads the artifact at `path` and verifies it against `plan`:
    /// same fingerprint, and every spec key a member of the plan that
    /// the artifact's own shard owns. Errors name the file.
    pub fn load(path: &Path, plan: &Plan) -> Result<Self, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::decode(&bytes, plan).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn decode(bytes: &[u8], plan: &Plan) -> Result<Self, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let artifact = Self::from_value(&value)?;
        let want = plan.fingerprint();
        if artifact.plan != want {
            return Err(format!(
                "shard was cut from a different plan (fingerprint {:016x}, want {want:016x}) — \
                 same experiments and --scale required",
                artifact.plan
            ));
        }
        let (shard, of) = (artifact.shard, artifact.of);
        let keys = artifact.outputs.iter().map(|o| &o.key);
        for key in keys.chain(artifact.failures.iter().map(|(key, _)| key)) {
            let owner = spec_index(plan, key)? % of;
            if owner != shard {
                return Err(format!("spec {key:?} belongs to shard {owner}"));
            }
        }
        Ok(artifact)
    }
}

/// The shard artifact path for shard `i` of `k`.
fn shard_path(dir: &Path, shard: usize, of: usize) -> PathBuf {
    dir.join(format!("shard-{shard}-of-{of}.json"))
}

/// `repro run --shard i/k`: execute one deterministic shard of the
/// plan and spool its raw spec outputs for a later `repro merge`.
pub fn run_shard(
    targets: &[String],
    (scale, scale_name): NamedScale,
    backend: &CatalogueBackend,
    trace: Option<&Path>,
    progress: bool,
    (shard, of): (usize, usize),
    shard_dir: &Path,
) -> Result<(), CliError> {
    let (_, plan) = resolve(targets, scale)?;
    let indices = plan.shard_indices(shard, of);
    let pool = Pool::new(backend.threads);
    eprintln!(
        "# shard {shard}/{of}: {} of {} unique sims, {} thread(s), scale {}",
        indices.len(),
        plan.unique_len(),
        pool.threads(),
        scale_name,
    );
    let started = std::time::Instant::now();
    let cache = backend.cache();
    let mut exec = backend.exec();
    let engine_sims = indices.iter().filter(|&&i| plan.specs()[i].runs_engine());
    exec.trace = trace_config(trace, engine_sims.count())?;
    let (results, stats) = run_plan(
        &pool,
        MASTER_SEED,
        &plan,
        Some(&indices),
        cache.as_ref().map(|c| c as &dyn OutputCache),
        exec,
        |done, total| {
            if progress {
                eprint!("\r# progress {done}/{total} sims (shard {shard}/{of})");
                let _ = std::io::stderr().flush();
            }
        },
        |_| {},
    );
    if progress {
        eprintln!();
    }
    if let Some(c) = &cache {
        report_cache(stats.cache, c.dir());
    }

    // Executed sims have a timing row; cache hits have none.
    let cost: HashMap<&str, &SpecTiming> =
        stats.timings.iter().map(|t| (t.key.as_str(), t)).collect();
    let mut artifact = ShardArtifact {
        plan: plan.fingerprint(),
        scale: scale_name.to_string(),
        shard,
        of,
        events_processed: stats.events,
        outputs: Vec::new(),
        failures: Vec::new(),
    };
    for &idx in &indices {
        let key = plan.specs()[idx].key();
        // `run_plan` fills the slot of every index in `only`.
        match results[idx].as_ref().expect("shard spec has a result") {
            Ok(output) => {
                let (events, wall_s) = cost
                    .get(key.as_str())
                    .map_or((0, 0.0), |t| (t.events, t.wall_s));
                artifact.outputs.push(ShardOutput {
                    key,
                    events,
                    wall_s,
                    output: Arc::clone(output),
                });
            }
            Err(msg) => artifact.failures.push((key, msg.clone())),
        }
    }
    ensure_dir(shard_dir)?;
    let path = shard_path(shard_dir, shard, of);
    let json =
        serde_json::to_string_pretty(&artifact.to_value()).expect("artifact is serializable");
    write_file(&path, &json)?;
    let failed = artifact.failures.len();
    eprintln!(
        "# shard {shard}/{of}: wrote {} ({} sims, {} failed, {} engine events) in {:.1?}",
        path.display(),
        indices.len() - failed,
        failed,
        stats.events,
        started.elapsed(),
    );
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("shard {shard}/{of}: {failed} sim(s) failed").into())
    }
}

/// `repro merge`: load every shard artifact under `shard_dir`, verify
/// it against the rebuilt plan, and reduce — byte-identical to a
/// single-host run.
pub fn merge(
    targets: &[String],
    scale: NamedScale,
    shard_dir: &Path,
    reporter: Reporter,
) -> Result<(), CliError> {
    let (experiments, plan) = resolve(targets, scale.0)?;
    let listing = std::fs::read_dir(shard_dir)
        .map_err(|e| format!("cannot read {}: {e}", shard_dir.display()))?;
    let mut artifacts = Vec::new();
    for entry in listing.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "json") {
            artifacts.push(ShardArtifact::load(&path, &plan)?);
        }
    }
    if artifacts.is_empty() {
        return Err(format!("no shard artifacts under {}", shard_dir.display()).into());
    }
    merge_artifacts(&experiments, &plan, scale, artifacts, reporter)
}

/// Folds validated artifacts into one output per unique spec and
/// reduces every subscription from them.
fn merge_artifacts(
    experiments: &[Box<dyn Experiment>],
    plan: &Plan,
    (scale, scale_name): NamedScale,
    artifacts: Vec<ShardArtifact>,
    mut reporter: Reporter,
) -> Result<(), CliError> {
    let files = artifacts.len();
    // One result per unique spec; a completed output beats a failure
    // recorded for the same spec by another shard file.
    let mut results: Vec<Option<SpecResult<SimSpec>>> = vec![None; plan.unique_len()];
    let mut events: Vec<u64> = vec![0; plan.unique_len()];
    for artifact in artifacts {
        for out in artifact.outputs {
            let idx = spec_index(plan, &out.key)?;
            results[idx] = Some(Ok(out.output));
            events[idx] = out.events;
        }
        for (key, error) in artifact.failures {
            results[spec_index(plan, &key)?].get_or_insert(Err(error));
        }
    }
    let missing: Vec<usize> = (0..plan.unique_len())
        .filter(|&i| results[i].is_none())
        .collect();
    if let Some(&first) = missing.first() {
        return Err(format!(
            "incomplete shard set: {} of {} sims missing (first missing: {})",
            missing.len(),
            plan.unique_len(),
            plan.specs()[first].key(),
        )
        .into());
    }
    let results: Vec<SpecResult<SimSpec>> = results.into_iter().flatten().collect();

    let events_total: u64 = events.iter().sum();
    eprintln!(
        "# merge: {} shard file(s), {} unique sims ({} engine events), {} experiment(s), scale {}",
        files,
        plan.unique_len(),
        events_total,
        experiments.len(),
        scale_name,
    );
    // Per-experiment measured sweep cost, from the shard artifacts'
    // recorded per-sim event counts (shared sims count toward every
    // subscriber — this is each experiment's standalone cost).
    for sub in plan.subscriptions() {
        let mut distinct: Vec<usize> = sub.spec_indices.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let cost: u64 = distinct.iter().map(|&i| events[i]).sum();
        eprintln!(
            "#   {:16} {:>4} sims, {} engine events",
            sub.id,
            distinct.len(),
            cost
        );
    }
    let chunks: Vec<_> = experiments
        .iter()
        .enumerate()
        .map(|(i, exp)| {
            let outcome = plan.gather(i, |idx| &results[idx]).outcome;
            chunk_of(&reduce_subscription(exp.as_ref(), scale, &outcome))
        })
        .collect();
    for chunk in &chunks {
        reporter.spool(chunk);
    }
    for chunk in &chunks {
        reporter.print(chunk);
    }
    reporter.finish(|ok, failed| {
        format!(
            "{ok} ok, {failed} failed, {} sims merged from {files} shard file(s), \
             {events_total} engine events",
            plan.unique_len()
        )
    })
}

#[cfg(test)]
#[path = "../../../runner/tests/support/arb_value.rs"]
mod arb_value;

#[cfg(test)]
mod tests {
    use super::arb_value::arb_value;
    use super::*;
    use crate::scenarios::{FlowMeasure, RunMeasurements};
    use crate::series::Table;
    use crate::spec::SimSpec;
    use ebrc_tfrc::FormulaKind;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn diagnostic_plan(id: &str, values: std::ops::Range<u64>) -> Plan {
        let specs = values.map(|value| SimSpec::Diagnostic { value, fail: false });
        let mut plan = Plan::new();
        plan.subscribe(id, specs.collect());
        plan
    }

    /// Floats whose bits a lossy codec would not survive.
    const AWKWARD: [f64; 5] = [-0.0, f64::NAN, f64::INFINITY, 5e-324, 0.1];

    /// One output of every [`SpecOutput`] kind.
    fn one_of_each_kind() -> Vec<SpecOutput> {
        let flow = FlowMeasure {
            throughput: AWKWARD[0],
            loss_event_rate: AWKWARD[1],
            rtt_mean: AWKWARD[2],
            normalized_covariance: AWKWARD[3],
            cov_rate_duration: AWKWARD[4],
            theta_hat_cv2: 1.0,
        };
        let mut table = Table::new("fig/x \"q\"", "θ-hat", vec!["a", "b"]);
        table.push_row(vec![AWKWARD[0], AWKWARD[1]]);
        vec![
            SpecOutput::Run(RunMeasurements {
                tfrc: vec![flow],
                tcp: vec![flow],
                probe_loss_rate: Some(AWKWARD[3]),
                nominal_rtt: 0.05,
                tfrc_formula: FormulaKind::PftkStandard,
            }),
            SpecOutput::Scalars(AWKWARD.to_vec()),
            SpecOutput::Table(table.clone()),
            SpecOutput::TableAndScalars(table, AWKWARD.to_vec()),
        ]
    }

    /// A valid single-shard artifact of `plan`: one output of each
    /// kind, and the remaining spec failed.
    fn artifact_of(plan: &Plan) -> ShardArtifact {
        let mut keys = plan.specs().iter().map(|s| s.key());
        let outputs = one_of_each_kind()
            .into_iter()
            .zip(&mut keys)
            .enumerate()
            .map(|(i, (output, key))| ShardOutput {
                key,
                events: 1_000_003 * i as u64,
                wall_s: 0.1 * i as f64,
                output: Arc::new(output),
            })
            .collect();
        ShardArtifact {
            plan: plan.fingerprint(),
            scale: "tiny".into(),
            shard: 0,
            of: 1,
            events_processed: 3_000_009,
            outputs,
            failures: keys.map(|key| (key, "boom \"quoted\"".into())).collect(),
        }
    }

    fn file_bytes(artifact: &ShardArtifact) -> Vec<u8> {
        serde_json::to_string_pretty(&artifact.to_value())
            .unwrap()
            .into_bytes()
    }

    #[test]
    fn an_artifact_round_trips_bit_exactly_through_its_file_form() {
        let plan = diagnostic_plan("t", 0..5);
        let written = artifact_of(&plan);
        assert_eq!((written.outputs.len(), written.failures.len()), (4, 1));
        let bytes = file_bytes(&written);
        let read = ShardArtifact::decode(&bytes, &plan).unwrap();
        // `SpecOutput` has no `PartialEq` (NaN payloads); its hex-float
        // rendering is the bit-exact comparison.
        assert_eq!(read.to_value(), written.to_value());
        assert_eq!(file_bytes(&read), bytes);
        assert_eq!(read.outputs[3].events, 3_000_009);
        assert_eq!(read.failures, written.failures);
    }

    #[test]
    fn load_rejects_what_does_not_belong_to_the_plan() {
        let plan = diagnostic_plan("t", 0..5);
        let artifact = artifact_of(&plan);
        let bytes = file_bytes(&artifact);
        let rejected = |bytes: &[u8], plan: &Plan| ShardArtifact::decode(bytes, plan).unwrap_err();

        assert!(ShardArtifact::decode(&bytes, &plan).is_ok());
        let foreign = diagnostic_plan("t", 0..6);
        assert!(rejected(&bytes, &foreign).contains("different plan"));
        // Right fingerprint, but an entry the plan never listed — as an
        // output and as a failure.
        let mut stray = artifact.clone();
        stray.outputs[0].key = "diag/v99/fail=false".into();
        assert!(rejected(&file_bytes(&stray), &plan).contains("not in this plan"));
        let mut stray = artifact;
        stray.failures[0].0 = "diag/v99/fail=false".into();
        assert!(rejected(&file_bytes(&stray), &plan).contains("not in this plan"));

        // And through the file: errors name it.
        let path = std::env::temp_dir().join(format!("repro-shard-{}.json", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        assert!(ShardArtifact::load(&path, &plan).is_ok());
        let err = ShardArtifact::load(&path, &foreign).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        std::fs::remove_file(&path).unwrap();
        assert!(ShardArtifact::load(&path, &plan).is_err());
    }

    /// The member or element at `path` (keys, or indices spelled as
    /// numbers) inside `v`, for hand-editing an artifact's rendering.
    fn at<'v>(v: &'v mut Value, path: &[&str]) -> &'v mut Value {
        path.iter().fold(v, |v, step| match v {
            Value::Object(members) => &mut members.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Value::Array(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => panic!("nothing at {step:?}"),
        })
    }

    /// `artifact`'s file bytes after `edit` has changed its rendering.
    fn edited(artifact: &ShardArtifact, edit: impl FnOnce(&mut Value)) -> Vec<u8> {
        let mut v = artifact.to_value();
        edit(&mut v);
        serde_json::to_string_pretty(&v).unwrap().into_bytes()
    }

    #[test]
    fn a_malformed_table_is_an_error_not_a_panic() {
        let plan = diagnostic_plan("t", 0..5);
        let artifact = artifact_of(&plan);
        let rejected = |bytes: Vec<u8>| ShardArtifact::decode(&bytes, &plan).unwrap_err();
        // A hand-built table output in place of the artifact's own.
        let hand_built = |columns: Vec<&str>, row: Vec<f64>| {
            let string = |s: &str| Value::String(s.into());
            let hex = |x: f64| string(&format!("{:016x}", x.to_bits()));
            let table = Value::Object(vec![
                ("name".into(), string("fig/x")),
                ("caption".into(), string("c")),
                (
                    "columns".into(),
                    Value::Array(columns.into_iter().map(string).collect()),
                ),
                (
                    "rows".into(),
                    Value::Array(vec![Value::Array(row.into_iter().map(hex).collect())]),
                ),
            ]);
            let output = Value::Object(vec![
                ("kind".into(), string("table")),
                ("table".into(), table),
            ]);
            edited(&artifact, |v| *at(v, &["outputs", "2", "output"]) = output)
        };
        let err = rejected(hand_built(vec!["a", "b", "c", "d"], vec![1.0, 2.0, 3.0]));
        assert!(
            err.contains("table \"fig/x\": row width 3 vs 4 columns"),
            "{err}"
        );
        let err = rejected(hand_built(vec![], vec![]));
        assert!(err.contains("table \"fig/x\" has no columns"), "{err}");
        // The writer's own table with one float cut from its row.
        let short = edited(&artifact, |v| {
            let row = at(v, &["outputs", "2", "output", "table", "rows", "0"]);
            let Value::Array(row) = row else {
                panic!("a row is an array")
            };
            row.pop();
        });
        let err = rejected(short);
        assert!(err.contains("row width 1 vs 2 columns"), "{err}");
    }

    #[test]
    fn a_duplicated_member_is_rejected() {
        let plan = diagnostic_plan("t", 0..5);
        let bytes = String::from_utf8(file_bytes(&artifact_of(&plan))).unwrap();
        let doubled = bytes.replacen("\"shard\": 0,", "\"shard\": 0, \"shard\": 0,", 1);
        assert_ne!(doubled, bytes);
        let err = ShardArtifact::decode(doubled.as_bytes(), &plan).unwrap_err();
        assert!(err.contains("\"shard\" appears twice"), "{err}");
    }

    #[test]
    fn an_output_hash_that_is_not_its_keys_is_rejected() {
        let plan = diagnostic_plan("t", 0..5);
        let other = Value::String(format!("{:016x}", stable_hash("diag/v99/fail=false")));
        let bytes = edited(&artifact_of(&plan), |v| {
            *at(v, &["outputs", "1", "hash"]) = other
        });
        let err = ShardArtifact::decode(&bytes, &plan).unwrap_err();
        assert!(err.contains("hash is not its key's"), "{err}");
    }

    #[test]
    fn entries_from_another_shard_are_rejected() {
        let plan = diagnostic_plan("t", 0..5);
        let keys: Vec<String> = plan.specs().iter().map(|s| s.key()).collect();
        let decode = |artifact: &ShardArtifact| ShardArtifact::decode(&file_bytes(artifact), &plan);
        // Shard 0 of 2 owns the even spec indices only.
        let mut split = artifact_of(&plan);
        split.of = 2;
        let err = decode(&split).unwrap_err();
        assert!(
            err.contains(&format!("{:?} belongs to shard 1", keys[1])),
            "{err}"
        );
        split
            .outputs
            .retain(|o| o.key != keys[1] && o.key != keys[3]);
        split.failures = vec![(keys[3].clone(), "boom".into())];
        let err = decode(&split).unwrap_err();
        assert!(
            err.contains(&format!("{:?} belongs to shard 1", keys[3])),
            "{err}"
        );
        split.failures = vec![(keys[4].clone(), "boom".into())];
        assert!(decode(&split).is_ok());
        split.shard = 2;
        let err = ShardArtifact::decode(&file_bytes(&split), &plan).unwrap_err();
        assert!(err.contains("no shard 2 of 2"), "{err}");
    }

    #[test]
    fn costs_that_are_not_counts_or_durations_are_rejected() {
        let plan = diagnostic_plan("t", 0..5);
        let artifact = artifact_of(&plan);
        let cases: [(&[&str], f64, &str); 5] = [
            (
                &["outputs", "1", "events"],
                -1.0,
                "\"events\" is not a count",
            ),
            (
                &["outputs", "1", "events"],
                1.5,
                "\"events\" is not a count",
            ),
            (
                &["events_processed"],
                -3.0,
                "\"events_processed\" is not a count",
            ),
            (
                &["events_processed"],
                0.5,
                "\"events_processed\" is not a count",
            ),
            (
                &["outputs", "1", "wall_s"],
                -0.1,
                "wall_s -0.1 is not a duration",
            ),
        ];
        for (path, n, want) in cases {
            let bytes = edited(&artifact, |v| *at(v, path) = Value::Number(n));
            let err = ShardArtifact::decode(&bytes, &plan).unwrap_err();
            assert!(err.contains(want), "{path:?} = {n}: {err}");
        }
    }

    /// The artifact's own vocabulary, so a generated value gets past
    /// the first field lookup and into the nested parsers.
    const KEYS: [&str; 12] = [
        "plan", "scale", "shard", "of", "outputs", "failures", "key", "output", "events", "error",
        "kind", "values",
    ];
    const STRINGS: [&str; 6] = ["", "run", "table", "00000000000000ff", "zz", "diag/v0"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Nothing but an artifact of this plan loads: arbitrary JSON
        /// is an error, never a panic and never a guess.
        #[test]
        fn arbitrary_values_never_load(value in arb_value(3, &KEYS, &STRINGS)) {
            let plan = diagnostic_plan("t", 0..5);
            let _ = ShardArtifact::from_value(&value);
            let text = serde_json::to_string(&value).unwrap();
            prop_assert!(ShardArtifact::decode(text.as_bytes(), &plan).is_err());
        }

        #[test]
        fn arbitrary_bytes_never_load(bytes in vec(any::<u8>(), 0..256)) {
            let plan = diagnostic_plan("t", 0..5);
            prop_assert!(ShardArtifact::decode(&bytes, &plan).is_err());
        }

        /// A torn write — any strict prefix of a valid file — is an
        /// error, so a killed worker's artifact cannot be accepted.
        #[test]
        fn a_truncated_artifact_never_loads(cut in 0usize..10_000) {
            let plan = diagnostic_plan("t", 0..5);
            let bytes = file_bytes(&artifact_of(&plan));
            let cut = cut % bytes.len();
            prop_assert!(ShardArtifact::decode(&bytes[..cut], &plan).is_err());
        }
    }
}
