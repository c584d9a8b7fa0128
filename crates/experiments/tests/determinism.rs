//! The plan runner's contract: `repro`-level tables are byte-identical
//! at any thread count *and any shard count* — and, since the
//! content-addressed cache landed, at any cache temperature — and spec
//! content keys (the RNG identities) never collide.
//!
//! The committed golden corpus under `tests/golden/` is the single
//! source of truth all of those paths are compared against:
//! `UPDATE_GOLDEN=1 cargo test -p ebrc-experiments --test determinism`
//! regenerates it after a *deliberate* output change.
//!
//! The full-catalogue comparisons run at a tiny scale so the whole
//! grid — including a replicated one — stays in test-suite territory;
//! CI's `runner-determinism`, `shard-smoke`, and `cache-smoke` jobs
//! repeat the comparisons at quick scale through the real binary.

use ebrc_dist::Rng;
use ebrc_experiments::{
    all_experiments, global_plan, plan_run_catalogue, plan_run_catalogue_cached, table_file_name,
    Experiment, ExperimentReport, Scale, SimSpec, SpecOutput, MASTER_SEED,
};
use ebrc_runner::{run_plan, CacheCounters, DirCache, ExecConfig, Pool, Spec as _};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A scale small enough to run the whole catalogue several times over.
fn tiny(replicas: usize) -> Scale {
    Scale {
        replicas,
        ..Scale::tiny()
    }
}

fn tables_json(exp: &dyn Experiment, scale: Scale, pool: &Pool) -> Vec<String> {
    plan_run_catalogue(vec![exp], scale, pool, |_, _| {}, |_| {})
        .remove(0)
        .outcome
        .unwrap_or_else(|e| panic!("{e}"))
        .iter()
        .map(|t| t.to_json())
        .collect()
}

#[test]
fn catalogue_tables_identical_at_one_and_eight_threads() {
    let one = Pool::new(1);
    let eight = Pool::new(8);
    let scale = tiny(1);
    for exp in all_experiments() {
        let sequential: Vec<String> = exp.run(scale).iter().map(|t| t.to_json()).collect();
        let t1 = tables_json(exp.as_ref(), scale, &one);
        let t8 = tables_json(exp.as_ref(), scale, &eight);
        assert_eq!(t1, t8, "{}: 1 vs 8 threads diverged", exp.id());
        assert_eq!(
            sequential,
            t1,
            "{}: sequential run vs pool diverged",
            exp.id()
        );
    }
}

#[test]
fn replicated_grids_identical_across_thread_counts() {
    // Two replicas exercise the replica grids off the rep-0 path; the
    // subset covers the three replica-reduce shapes (per-point
    // averaging with validity filters, heterogeneous spec kinds per
    // point, option-valued rows).
    let scale = tiny(2);
    let one = Pool::new(1);
    let five = Pool::new(5);
    for id in ["fig05", "fig17", "fig11"] {
        let exp = ebrc_experiments::find_experiment(id).unwrap();
        let a = tables_json(exp.as_ref(), scale, &one);
        let b = tables_json(exp.as_ref(), scale, &five);
        assert_eq!(a, b, "{id}: replicated grid diverged");
    }
}

#[test]
fn spec_keys_are_unique_and_collision_free_across_the_catalogue() {
    for scale in [tiny(1), tiny(3), Scale::quick(), Scale::paper()] {
        let experiments = all_experiments();
        let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
        let plan = global_plan(&refs, scale);
        let mut keys = std::collections::HashSet::new();
        let mut streams = std::collections::HashSet::new();
        for spec in plan.specs() {
            let key = spec.key();
            // The key *is* the RNG identity: keys must be pairwise
            // distinct over the whole deduplicated grid, and so must
            // the first draws of their label-derived streams.
            let first = Rng::from_label(MASTER_SEED, &key).next_u64();
            assert!(streams.insert(first), "RNG stream collision at {key}");
            assert!(keys.insert(key), "duplicate unique-spec key");
        }
        assert!(keys.len() > 100, "suspiciously small grid: {}", keys.len());
        // Dedup is real work saved, not an id-packing artifact.
        assert!(plan.subscribed_len() > plan.unique_len(), "no sharing");
    }
}

/// Runs the catalogue split into `k` deterministic shards — each shard
/// executed as a subset of the plan, exactly like `repro run --shard`
/// — then merges the outputs and reduces every experiment. Returns
/// each experiment's tables, in catalogue order.
fn tables_via_shards(scale: Scale, k: usize, pool: &Pool) -> Vec<Vec<ebrc_experiments::Table>> {
    let experiments = all_experiments();
    let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
    let plan = global_plan(&refs, scale);
    let mut outputs: Vec<Option<SpecOutput>> = (0..plan.unique_len()).map(|_| None).collect();
    for shard in 0..k {
        let indices = plan.shard_indices(shard, k);
        let (results, _) = run_plan(
            pool,
            MASTER_SEED,
            &plan,
            Some(&indices),
            None,
            ExecConfig::default(),
            |_, _| {},
            |_| {},
        );
        for (idx, result) in results.into_iter().enumerate() {
            assert_eq!(result.is_some(), indices.contains(&idx), "shard membership");
            let Some(result) = result else { continue };
            // Round-trip through the shard interchange encoding, so the
            // test covers exactly what crosses host boundaries.
            let encoded = result.expect("spec panicked").to_value();
            outputs[idx] = Some(SpecOutput::from_value(&encoded).expect("output round-trips"));
        }
    }
    let outputs: Vec<SpecOutput> = outputs.into_iter().map(Option::unwrap).collect();
    refs.iter()
        .zip(plan.subscriptions())
        .enumerate()
        .map(|(si, (exp, _))| {
            let refs = plan.subscription_outputs(si, &outputs);
            exp.reduce(scale, &refs)
        })
        .collect()
}

/// Each experiment's table JSONs, in catalogue order.
fn shard_jsons(tables: &[Vec<ebrc_experiments::Table>]) -> Vec<Vec<String>> {
    tables
        .iter()
        .map(|ts| ts.iter().map(|t| t.to_json()).collect())
        .collect()
}

#[test]
fn merged_shard_runs_are_byte_identical_to_one_shard() {
    let scale = tiny(1);
    let pool = Pool::new(4);
    let whole = shard_jsons(&tables_via_shards(scale, 1, &pool));
    for k in [2, 3] {
        let sharded = shard_jsons(&tables_via_shards(scale, k, &pool));
        assert_eq!(whole, sharded, "{k}-shard merge diverged from 1-shard");
    }
    // And the 1-shard path matches the ordinary sequential runs.
    for (exp, tables) in all_experiments().iter().zip(&whole) {
        let direct: Vec<String> = exp.run(scale).iter().map(|t| t.to_json()).collect();
        assert_eq!(&direct, tables, "{}: shard path diverged", exp.id());
    }
}

// ---------------------------------------------------------------------
// The golden-output corpus.
// ---------------------------------------------------------------------

/// The committed corpus directory: one JSON file per catalogue table,
/// named exactly as `repro all --scale tiny --out` would spool it.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// `file name → table JSON` for a full-catalogue report set.
fn corpus_from_reports(reports: &[ExperimentReport]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for report in reports {
        let tables = report.outcome.as_ref().unwrap_or_else(|e| panic!("{e}"));
        for t in tables {
            let file = table_file_name(&t.name);
            assert!(
                out.insert(file.clone(), t.to_json()).is_none(),
                "two catalogue tables map to {file}"
            );
        }
    }
    out
}

/// The committed corpus, as written.
fn corpus_on_disk() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let dir = golden_dir();
    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| {
        panic!(
            "no golden corpus at {} ({e}); run UPDATE_GOLDEN=1",
            dir.display()
        )
    });
    for entry in entries {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".json") {
            out.insert(name, std::fs::read_to_string(entry.path()).unwrap());
        }
    }
    out
}

/// Asserts two corpora are byte-identical, naming the first offender.
fn assert_corpus_eq(golden: &BTreeMap<String, String>, got: &BTreeMap<String, String>, what: &str) {
    let golden_files: Vec<&String> = golden.keys().collect();
    let got_files: Vec<&String> = got.keys().collect();
    assert_eq!(golden_files, got_files, "{what}: table file set changed");
    for (file, want) in golden {
        assert_eq!(
            want, &got[file],
            "{what}: {file} diverged from the golden corpus"
        );
    }
}

/// The acceptance gate: fresh, warm-cache, and 2-shard-merged runs of
/// the whole catalogue are all byte-identical to the committed golden
/// corpus — so a cache hit, a shard merge, and a plain run can never
/// silently drift apart. `UPDATE_GOLDEN=1` rewrites the corpus after a
/// deliberate output change.
#[test]
fn golden_corpus_gates_fresh_warm_cache_and_sharded_runs() {
    let scale = Scale::tiny();
    let pool = Pool::new(4);
    let run_catalogue = |cache: Option<&dyn ebrc_runner::OutputCache>| {
        let experiments = all_experiments();
        let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
        let run = plan_run_catalogue_cached(
            refs,
            scale,
            &pool,
            cache,
            ExecConfig::default(),
            |_, _| {},
            |_| {},
        );
        (corpus_from_reports(&run.reports), run.cache)
    };
    let (fresh, _) = run_catalogue(None);

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let dir = golden_dir();
        std::fs::create_dir_all(&dir).unwrap();
        // Remove stale files so the corpus is exactly the fresh run.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.ends_with(".json") && !fresh.contains_key(&name) {
                std::fs::remove_file(&path).unwrap();
            }
        }
        for (file, json) in &fresh {
            std::fs::write(dir.join(file), json).unwrap();
        }
        eprintln!("golden corpus regenerated: {} tables", fresh.len());
        return;
    }

    let golden = corpus_on_disk();
    assert_corpus_eq(&golden, &fresh, "fresh run");

    // Warm-cache: a cold run populates, the warm run executes nothing —
    // and both reduce to the golden bytes.
    let experiments = all_experiments();
    let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
    let unique = global_plan(&refs, scale).unique_len();
    let cache_root = std::env::temp_dir().join(format!("ebrc-golden-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_root);
    let cache = DirCache::new(&cache_root);
    let (cold, cold_counters) = run_catalogue(Some(&cache));
    assert_eq!(
        cold_counters,
        CacheCounters {
            hits: 0,
            misses: unique
        },
        "cold cache"
    );
    let (warm, warm_counters) = run_catalogue(Some(&cache));
    assert_eq!(
        warm_counters,
        CacheCounters {
            hits: unique,
            misses: 0
        },
        "warm run executed sims"
    );
    assert_corpus_eq(&golden, &cold, "cache-populating run");
    assert_corpus_eq(&golden, &warm, "warm-cache run");
    let _ = std::fs::remove_dir_all(&cache_root);

    // 2-shard-merged: through the interchange encoding, same bytes.
    let sharded: BTreeMap<String, String> = tables_via_shards(scale, 2, &pool)
        .iter()
        .flatten()
        .map(|t| (table_file_name(&t.name), t.to_json()))
        .collect();
    assert_corpus_eq(&golden, &sharded, "2-shard merge");
}

/// Slicing and cost-model scheduling are pure scheduling: a catalogue
/// run with a tiny per-slice event budget — forcing every dumbbell sim
/// through many pause/resume cycles, submitted longest-first — still
/// reduces to the committed golden bytes at any thread count.
#[test]
fn sliced_catalogue_runs_match_the_golden_corpus_at_any_thread_count() {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        return; // the corpus is being rewritten by the gate test
    }
    let scale = Scale::tiny();
    let golden = corpus_on_disk();
    for threads in [1usize, 2, 8] {
        let pool = Pool::new(threads);
        let experiments = all_experiments();
        let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
        let run = plan_run_catalogue_cached(
            refs,
            scale,
            &pool,
            None,
            ExecConfig::sliced(2_000),
            |_, _| {},
            |_| {},
        );
        let got = corpus_from_reports(&run.reports);
        assert_corpus_eq(&golden, &got, &format!("sliced run, {threads} thread(s)"));
        // The straggler table covers every executed sim, regardless of
        // how many slices or workers each one crossed.
        assert_eq!(
            run.timings.len(),
            run.cache.misses,
            "every executed sim reports a timing row"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: for any thread count, a cheap analytic experiment and
    /// a stochastic Monte-Carlo experiment reduce to the same bytes.
    #[test]
    fn any_thread_count_reproduces_fig01_and_ablate_phase(threads in 1usize..12) {
        let pool = Pool::new(threads);
        let scale = tiny(1);
        for id in ["fig01", "ablate-phase", "claim4"] {
            let exp = ebrc_experiments::find_experiment(id).unwrap();
            let seq: Vec<String> = exp.run(scale).iter().map(|t| t.to_json()).collect();
            let par = tables_json(exp.as_ref(), scale, &pool);
            prop_assert_eq!(&seq, &par, "{} diverged at {} threads", id, threads);
        }
    }

    /// Property: a spec's content hash is a pure function of its field
    /// values — invariant under source-level field-order permutation,
    /// cloning, and the thread that computes it.
    #[test]
    fn spec_hashes_stable_across_field_order_and_threads(
        n in 1usize..40,
        l in 1usize..17,
        rep in 0usize..5,
        threads in 2usize..8,
    ) {
        let spec = SimSpec::Ns2Dumbbell {
            n,
            l,
            rep,
            probe: None,
            warmup: 4.0,
            span: 8.0,
        };
        // Same content, fields written in a different order.
        let permuted = SimSpec::Ns2Dumbbell {
            span: 8.0,
            probe: None,
            rep,
            warmup: 4.0,
            l,
            n,
        };
        prop_assert_eq!(spec.hash(), permuted.hash());
        prop_assert_eq!(spec.hash(), spec.clone().hash());
        // The hash agrees no matter which (or how many) threads
        // compute it.
        let baseline = spec.hash();
        let hashes: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let spec = spec.clone();
                    s.spawn(move || spec.hash())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for h in hashes {
            prop_assert_eq!(baseline, h);
        }
        // And any single-field change moves it.
        let other = SimSpec::Ns2Dumbbell {
            n: n + 1,
            l,
            rep,
            probe: None,
            warmup: 4.0,
            span: 8.0,
        };
        prop_assert_ne!(baseline, other.hash());
    }
}
