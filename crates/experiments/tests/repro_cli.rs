//! End-to-end checks of the `repro` binary: flag parsing, the
//! plan/run/merge sharding workflow over cache directories, output
//! spooling (directory creation included), and exit codes.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    // The ambient environment must not reconfigure the binary under
    // test (or leak test sims into a developer's real cache).
    cmd.env_remove("EBRC_CACHE").env_remove("EBRC_THREADS");
    cmd
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn list_names_the_catalogue_with_dedup_stats() {
    for args in [vec!["--list"], vec!["list"]] {
        let out = repro().args(&args).output().unwrap();
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        for id in ["fig03", "table1", "claim4", "ablate-phase"] {
            assert!(text.contains(id), "{args:?} missing {id}");
        }
        assert!(text.contains("sims"), "{args:?} missing spec counts");
        assert!(text.contains("dedup"), "{args:?} missing the dedup ratio");
    }
}

#[test]
fn plan_reports_dedup_and_shards() {
    let out = repro()
        .args(["plan", "fig05", "fig08", "--shards", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("6 unique, 12 subscribed (dedup 2.00x)"),
        "plan output: {text}"
    );
    assert!(text.contains("shard 0/2: 3 sims"), "plan output: {text}");
    assert!(text.contains("fingerprint"), "plan output: {text}");
}

#[test]
fn unknown_experiment_exits_nonzero() {
    let out = repro().arg("does-not-exist").output().unwrap();
    assert!(!out.status.success());
    // A subcommand keyword after a target is a stray word, not a
    // silent command switch — and `all` does not mask it. A word that
    // is no subcommand is an id nobody registered.
    for args in [
        vec!["fig03", "list"],
        vec!["all", "plan"],
        vec!["bench-runner"],
    ] {
        let out = repro().args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail loudly");
        let err = String::from_utf8_lossy(&out.stderr);
        let stray = args.last().unwrap();
        assert!(
            err.contains(&format!("unknown experiment '{stray}'; try `repro list`")),
            "stderr: {err}"
        );
    }
}

#[test]
fn bad_flags_exit_with_usage() {
    for args in [
        vec!["--scale", "warp"],
        vec!["--threads", "0"],
        vec!["--threads", "many"],
        vec!["--frobnicate"],
        vec!["run", "fig01", "--shard", "0/1", "--shard-dir", "shards"],
        vec!["run", "--shard", "2/2"],
        vec!["run", "--shard", "nope"],
        vec!["plan", "--shards", "0"],
        // `--trace` where no sim runs in this process would be
        // silently dropped; it is rejected, naming the flag.
        vec!["list", "--trace", "t"],
        vec!["plan", "fig05", "--trace", "t"],
        vec!["merge", "fig05", "--trace", "t"],
        vec!["serve", "--trace", "t"],
        vec!["submit", "fig05", "--trace", "t"],
        vec!["cache", "stats", "--cache-dir", "nowhere", "--trace", "t"],
    ] {
        let out = repro().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        if args.contains(&"--trace") {
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("--trace records"), "args {args:?}: {err}");
        }
    }
}

#[test]
fn out_dir_is_created_with_parents() {
    // A nested path that does not exist: the CLI must create it instead
    // of printing a write error per table.
    let dir = scratch("nested").join("deep/ly/nested");
    let out = repro().args(["fig01", "--out"]).arg(&dir).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, vec!["fig01_left.json", "fig01_right.json"]);
    let _ = std::fs::remove_dir_all(scratch("nested"));
}

#[test]
fn single_experiment_is_thread_count_invariant() {
    // fig01 + fig02 are analytic (milliseconds); the heavyweight
    // whole-catalogue comparison lives in the determinism test and the
    // `runner-determinism` CI job.
    for id in ["fig01", "fig02"] {
        let one = repro()
            .args([id, "--json", "--threads", "1"])
            .output()
            .unwrap();
        let eight = repro()
            .args([id, "--json", "--threads", "8"])
            .output()
            .unwrap();
        assert!(one.status.success() && eight.status.success());
        assert_eq!(one.stdout, eight.stdout, "{id} diverged across threads");
    }
}

#[test]
fn multiple_experiments_share_sims_and_concatenate_output() {
    // fig05 + fig08 subscribe to the same grid: the banner proves the
    // dedup and stdout equals the two single runs back to back.
    let scale = ["--scale", "tiny"];
    let combined = repro()
        .args(["fig05", "fig08"])
        .args(scale)
        .output()
        .unwrap();
    assert!(combined.status.success());
    let banner = String::from_utf8_lossy(&combined.stderr);
    assert!(
        banner.contains("6 unique sims (12 subscribed, dedup 2.00x)"),
        "stderr: {banner}"
    );
    let f5 = repro().arg("fig05").args(scale).output().unwrap();
    let f8 = repro().arg("fig08").args(scale).output().unwrap();
    let mut expected = f5.stdout.clone();
    expected.extend_from_slice(&f8.stdout);
    assert_eq!(combined.stdout, expected, "combined run changed tables");
}

#[test]
fn env_var_sets_the_thread_count() {
    let out = repro()
        .args(["fig01"])
        .env("EBRC_THREADS", "3")
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("3 thread(s)"), "stderr: {err}");
}

#[test]
fn progress_line_reports_sim_completion() {
    let out = repro()
        .args(["fig01", "--progress", "--threads", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("# progress 2/2 sims"), "stderr: {err}");
}

/// The whole sharding workflow through the real binary: a subset
/// catalogue split 1, 2, and 3 ways, each shard into its own cache
/// directory, merges from the copied union to byte-identical tables.
#[test]
fn shard_runs_merge_byte_identically() {
    let ids = ["fig02", "fig05", "fig08", "fig09", "claim4"];
    let scale = ["--scale", "tiny"];
    let base = scratch("shards");

    let direct = repro().args(ids).args(scale).output().unwrap();
    assert!(direct.status.success());

    for k in [1usize, 2, 3] {
        let union = base.join(format!("k{k}"));
        std::fs::create_dir_all(&union).unwrap();
        for shard in 0..k {
            let dir = base.join(format!("k{k}-shard{shard}"));
            let out = repro()
                .arg("run")
                .args(ids)
                .args(scale)
                .args(["--shard", &format!("{shard}/{k}"), "--cache-dir"])
                .arg(&dir)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "shard {shard}/{k}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            // Combining hosts is copying entry files into one directory.
            for entry in std::fs::read_dir(&dir).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), union.join(entry.file_name())).unwrap();
            }
        }
        let merged = repro()
            .arg("merge")
            .args(ids)
            .args(scale)
            .arg("--cache-dir")
            .arg(&union)
            .output()
            .unwrap();
        assert!(
            merged.status.success(),
            "merge k={k}: {}",
            String::from_utf8_lossy(&merged.stderr)
        );
        assert_eq!(
            merged.stdout, direct.stdout,
            "{k}-shard merge diverged from the direct run"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Runs `repro merge ID --scale tiny --cache-dir CACHE --out …`;
/// returns its exit code, its stderr, and whether it wrote any table.
fn merge_from(id: &str, cache: &std::path::Path) -> (Option<i32>, String, bool) {
    let tables = scratch(&format!("merged-{id}"));
    let out = repro()
        .args(["merge", id, "--scale", "tiny", "--cache-dir"])
        .arg(cache)
        .arg("--out")
        .arg(&tables)
        .output()
        .unwrap();
    let wrote = std::fs::read_dir(&tables).map_or(0, |d| d.count()) > 0;
    let _ = std::fs::remove_dir_all(&tables);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), err, wrote)
}

#[test]
fn merge_rejects_foreign_or_missing_shards() {
    let dir = scratch("mismatch");
    let run_shard = |shard: &str| {
        let out = repro()
            .args(["run", "fig01", "--scale", "tiny", "--shard", shard])
            .arg("--cache-dir")
            .arg(&dir)
            .output()
            .unwrap();
        assert!(out.status.success(), "shard {shard}");
    };
    run_shard("0/2");

    // A different experiment set finds none of its sims — and must not
    // leave partial tables behind.
    let (code, err, wrote) = merge_from("fig02", &dir);
    assert_eq!(code, Some(1));
    assert!(err.contains("incomplete"), "stderr: {err}");
    assert!(!wrote, "mismatched merge wrote tables");

    // Same plan but shard 1/2 never ran → incomplete. The exit code
    // is pinned: scripts piping `repro merge` must be able to trust
    // that missing sims fail the command, not just print a complaint.
    let (code, err, wrote) = merge_from("fig01", &dir);
    assert_eq!(code, Some(1), "missing sims must exit 1");
    assert!(err.contains("incomplete: 1 of 2 sims"), "stderr: {err}");
    assert!(!wrote, "an incomplete merge wrote tables");

    // Complete, it merges; one truncated entry fails it, naming the
    // entry's spec key.
    run_shard("1/2");
    assert_eq!(merge_from("fig01", &dir).0, Some(0));
    let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
    let text = std::fs::read_to_string(entry.path()).unwrap();
    let key = text.split("\"key\":\"").nth(1).unwrap();
    let key = &key[..key.find('"').unwrap()];
    std::fs::write(entry.path(), &text[..text.len() / 2]).unwrap();
    let (code, err, wrote) = merge_from("fig01", &dir);
    assert_eq!(code, Some(1), "a torn entry must exit 1");
    assert!(err.contains(key), "stderr names {key:?}: {err}");
    assert!(!wrote, "a merge with a torn entry wrote tables");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_shard_fails_without_writing_a_cache_entry() {
    let dir = scratch("oor-shard");
    for shard in ["3/2", "2/2", "1/0"] {
        let out = repro()
            .args(["run", "fig01", "--scale", "tiny", "--shard", shard])
            .arg("--cache-dir")
            .arg(&dir)
            .output()
            .unwrap();
        assert!(!out.status.success(), "--shard {shard} must fail");
        assert!(!dir.exists(), "--shard {shard} wrote a cache entry");
    }
}

/// A shard is a cache directory: without one, `run --shard` and
/// `merge` have nowhere to write or read, so they fail naming the flag
/// and create nothing.
#[test]
fn shard_and_merge_without_a_cache_dir_fail_and_create_nothing() {
    let dir = scratch("no-cache-dir");
    std::fs::create_dir_all(&dir).unwrap();
    for args in [
        &["run", "fig01", "--scale", "tiny", "--shard", "0/1"][..],
        &["merge", "fig01", "--scale", "tiny"],
    ] {
        let out = repro().args(args).current_dir(&dir).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--cache-dir"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let created = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(created, 0, "nothing is created");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_dir_makes_the_second_run_a_pure_reduce_pass() {
    let base = scratch("cache-ux");
    let cdir = base.join("cache");
    let args = ["fig02", "claim4", "--scale", "tiny", "--cache-dir"];
    let cold = repro().args(args).arg(&cdir).output().unwrap();
    assert!(cold.status.success());
    let err = String::from_utf8_lossy(&cold.stderr);
    assert!(
        err.contains("# cache: 0 hit(s), 8 miss(es)"),
        "stderr: {err}"
    );

    // Second invocation: zero sims executed, every sim a hit, and the
    // tables are byte-identical.
    let warm = repro().args(args).arg(&cdir).output().unwrap();
    assert!(warm.status.success());
    let err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        err.contains("# cache: 8 hit(s), 0 miss(es)"),
        "stderr: {err}"
    );
    assert!(err.contains("0 sims in"), "stderr: {err}");
    assert_eq!(cold.stdout, warm.stdout, "warm run changed tables");

    // `cache stats` agrees with the run counters.
    let stats = repro()
        .args(["cache", "stats", "--cache-dir"])
        .arg(&cdir)
        .output()
        .unwrap();
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(
        text.contains("8 entries (8 valid, 0 invalid)"),
        "stats: {text}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn cache_gc_removes_exactly_the_orphaned_hashes() {
    let base = scratch("cache-gc");
    let cdir = base.join("cache");
    let entry_count = || {
        std::fs::read_dir(&cdir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .count()
    };
    let run = |id: &str| {
        let out = repro()
            .args([id, "--scale", "tiny", "--cache-dir"])
            .arg(&cdir)
            .output()
            .unwrap();
        assert!(out.status.success(), "{id} failed");
    };
    run("fig02");
    let fig02_entries = entry_count();
    run("claim4");
    let both_entries = entry_count();
    assert!(both_entries > fig02_entries, "claim4 added no entries");

    let gc = repro()
        .args([
            "cache",
            "gc",
            "--keep-plan",
            "fig02",
            "--scale",
            "tiny",
            "--cache-dir",
        ])
        .arg(&cdir)
        .output()
        .unwrap();
    assert!(
        gc.status.success(),
        "{}",
        String::from_utf8_lossy(&gc.stderr)
    );
    let err = String::from_utf8_lossy(&gc.stderr);
    assert!(
        err.contains(&format!(
            "kept {fig02_entries}, removed {}",
            both_entries - fig02_entries
        )),
        "stderr: {err}"
    );
    assert_eq!(entry_count(), fig02_entries, "gc removed the wrong set");

    // Everything fig02 needs survived: a repeat run is all hits.
    let warm = repro()
        .args(["fig02", "--scale", "tiny", "--cache-dir"])
        .arg(&cdir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&warm.stderr);
    assert!(err.contains("0 miss(es)"), "gc evicted a live entry: {err}");

    // `cache clear` empties the directory.
    let clear = repro()
        .args(["cache", "clear", "--cache-dir"])
        .arg(&cdir)
        .output()
        .unwrap();
    assert!(clear.status.success());
    assert_eq!(entry_count(), 0, "clear left entries behind");
    let _ = std::fs::remove_dir_all(&base);
}

/// An entry whose header and `check` hold but whose payload does not
/// decode is no use to a run, so `cache stats` counts it invalid and
/// `cache gc` deletes it, even though the plan it keeps references it.
#[test]
fn an_entry_that_does_not_decode_is_invalid_to_stats_and_gc() {
    use ebrc_experiments::SimSpec;
    use ebrc_runner::{CacheableSpec, DirCache, OutputCache};
    let base = scratch("cache-undecodable");
    let cdir = base.join("cache");
    let cache_cmd = |args: &[&str]| {
        let out = repro().args(args).arg("--cache-dir").arg(&cdir).output();
        let out = out.unwrap();
        assert!(out.status.success(), "{args:?}");
        let text = [out.stdout, out.stderr].concat();
        String::from_utf8_lossy(&text).into_owned()
    };
    cache_cmd(&["fig01", "--scale", "tiny"]);
    let cache = DirCache::new(&cdir);
    let entries = cache.entries();
    assert_eq!(entries.len(), 2);
    // Cut one cell from the first row of a table; `store` recomputes
    // the `check`, as a careless writer would.
    let (hash, key) = (entries[0].hash, entries[0].key.clone().unwrap());
    let payload = cache.load(hash, &key).unwrap();
    let row = payload.find("\"rows\":[[").unwrap() + 9;
    let cell = row + payload[row..].find("\",\"").unwrap() + 1;
    let end = cell + 2 + payload[cell + 2..].find('"').unwrap() + 1;
    let short = format!("{}{}", &payload[..cell], &payload[end..]);
    let err = SimSpec::decode_output(&short).unwrap_err();
    assert!(err.contains("row width"), "{err}");
    cache.store(hash, &key, &short);
    assert!(cache.entries().iter().all(|e| e.valid), "the header holds");

    let stats = cache_cmd(&["cache", "stats"]);
    assert!(stats.contains("2 entries (1 valid, 1 invalid)"), "{stats}");
    let gc = cache_cmd(&["cache", "gc", "--keep-plan", "fig01", "--scale", "tiny"]);
    assert!(gc.contains("kept 1, removed 1"), "{gc}");
    let left: Vec<u64> = cache.entries().iter().map(|e| e.hash).collect();
    assert_eq!(
        left,
        vec![entries[1].hash],
        "gc deleted the undecodable entry"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn env_var_sets_the_cache_dir() {
    let base = scratch("cache-env");
    let cdir = base.join("cache");
    for _ in 0..2 {
        let out = repro()
            .args(["fig01", "--scale", "tiny"])
            .env("EBRC_CACHE", &cdir)
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let out = repro()
        .args(["fig01", "--scale", "tiny"])
        .env("EBRC_CACHE", &cdir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("hit(s), 0 miss(es)") && err.contains(&cdir.display().to_string()),
        "stderr: {err}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn cache_command_requires_a_directory_and_known_action() {
    let no_dir = repro().args(["cache", "stats"]).output().unwrap();
    assert!(!no_dir.status.success());
    let err = String::from_utf8_lossy(&no_dir.stderr);
    assert!(err.contains("--cache-dir"), "stderr: {err}");

    let bad = repro()
        .args(["cache", "defrag", "--cache-dir", "nowhere"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2), "unknown action must hit usage");

    let no_keep = repro()
        .args(["cache", "gc", "--cache-dir", "nowhere"])
        .output()
        .unwrap();
    assert!(!no_keep.status.success());
    let err = String::from_utf8_lossy(&no_keep.stderr);
    assert!(err.contains("--keep-plan"), "stderr: {err}");
}

#[test]
fn cache_gc_dry_run_prints_the_removals_without_deleting() {
    let base = scratch("gc-dry");
    let cdir = base.join("cache");
    let run = repro()
        .args(["fig02", "--scale", "tiny", "--cache-dir"])
        .arg(&cdir)
        .output()
        .unwrap();
    assert!(run.status.success());
    let entry_count = || {
        std::fs::read_dir(&cdir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .count()
    };
    let before = entry_count();
    assert!(before > 0);

    // Keep claim4 only: every fig02 entry is a candidate — but the dry
    // run must delete none of them.
    let dry = repro()
        .args([
            "cache",
            "gc",
            "--dry-run",
            "--keep-plan",
            "claim4",
            "--scale",
            "tiny",
            "--cache-dir",
        ])
        .arg(&cdir)
        .output()
        .unwrap();
    assert!(
        dry.status.success(),
        "{}",
        String::from_utf8_lossy(&dry.stderr)
    );
    let text = String::from_utf8_lossy(&dry.stdout);
    assert_eq!(
        text.lines()
            .filter(|l| l.starts_with("would remove"))
            .count(),
        before,
        "stdout: {text}"
    );
    let err = String::from_utf8_lossy(&dry.stderr);
    assert!(err.contains("nothing deleted"), "stderr: {err}");
    assert_eq!(entry_count(), before, "--dry-run deleted entries");

    // `cache stats` reports the on-disk footprint (entries + temps).
    let stats = repro()
        .args(["cache", "stats", "--cache-dir"])
        .arg(&cdir)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(
        text.contains("0 temp file(s)") && text.contains("bytes total on disk"),
        "stats: {text}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// How many files in `dir` have a name ending in `suffix` (none when
/// the directory does not exist yet).
fn files_ending(dir: &std::path::Path, suffix: &str) -> usize {
    std::fs::read_dir(dir).map_or(0, |listing| {
        listing
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
            .count()
    })
}

/// A cached run killed mid-sweep leaves only complete entries behind,
/// so the same command run again resumes from them: it executes only
/// the sims the killed run had not banked and prints the uncached
/// run's bytes.
#[test]
fn a_killed_cached_run_resumes_from_its_cache() {
    // The whole catalogue on one thread runs for about a second and
    // banks its first 8 sims in well under half of it, so the kill
    // lands with most of the sweep still to go.
    let ids = ["all", "--scale", "tiny"];
    let base = scratch("resume");
    let cdir = base.join("cache");
    let cached = || {
        let mut cmd = repro();
        cmd.args(ids)
            .args(["--threads", "1", "--cache-dir"])
            .arg(&cdir);
        cmd
    };

    let plan = repro().arg("plan").args(ids).output().unwrap();
    let unique: usize = String::from_utf8_lossy(&plan.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("sims: ")?.split(' ').next()?.parse().ok())
        .expect("`plan` names its unique sim count");
    let direct = repro().args(ids).output().unwrap();
    assert!(direct.status.success());

    let mut child = cached()
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    // Several entries, not one: on one thread the sims finish in the
    // same order every run, so a single banked entry would be one
    // fixed sim, and a cache that served only some entries could pass.
    while files_ending(&cdir, ".json") < 8 {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("the run exited ({status}) before it banked 8 cache entries");
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    child.kill().unwrap();
    let status = child.wait().unwrap();
    assert_eq!(
        status.code(),
        None,
        "the run finished ({status}) before the kill landed: nothing was resumed"
    );
    let banked = files_ending(&cdir, ".json");
    assert!(banked < unique, "the killed run banked the whole plan");

    let rerun = cached().output().unwrap();
    let err = String::from_utf8_lossy(&rerun.stderr);
    assert!(rerun.status.success(), "stderr: {err}");
    let (hits, misses): (usize, usize) = err
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix("# cache: ")?;
            let (hits, rest) = rest.split_once(" hit(s), ")?;
            let (misses, _) = rest.split_once(" miss(es)")?;
            Some((hits.parse().ok()?, misses.parse().ok()?))
        })
        .unwrap_or_else(|| panic!("no cache line: {err}"));
    assert_eq!(hits + misses, unique, "stderr: {err}");
    assert!(hits >= 1, "stderr: {err}");
    assert_eq!(hits, banked, "every entry the kill left behind is a hit");
    assert_eq!(rerun.stdout, direct.stdout, "the resumed run diverged");

    // A writer killed mid-store leaves only its temp file behind,
    // which gc sweeps.
    let gc = repro()
        .args(["cache", "gc", "--keep-plan", "all", "--scale", "tiny"])
        .arg("--cache-dir")
        .arg(&cdir)
        .output()
        .unwrap();
    assert!(
        gc.status.success(),
        "{}",
        String::from_utf8_lossy(&gc.stderr)
    );
    let temps = std::fs::read_dir(&cdir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."));
    assert_eq!(temps.count(), 0, "gc left a temp file");
    assert_eq!(files_ending(&cdir, ".json"), unique);
    let _ = std::fs::remove_dir_all(&base);
}

/// `dispatch` is no subcommand: `repro dispatch all` is a direct run
/// of an unknown experiment id, which fails before anything is
/// written.
#[test]
fn dispatch_is_an_unknown_experiment_id() {
    let dir = scratch("dispatch");
    std::fs::create_dir_all(&dir).unwrap();
    let out = repro()
        .args(["dispatch", "all", "--scale", "tiny"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown experiment 'dispatch'; try `repro list`"),
        "stderr: {err}"
    );
    assert!(out.stdout.is_empty());
    let created = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(created, 0, "no shard directory or anything else");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The resident service end to end through the real binary: daemon up,
/// two submissions sharing one cache (the second executes zero sims),
/// stdout byte-identical to the local run, clean shutdown.
#[test]
fn serve_and_submit_round_trip_with_cache_dedup() {
    use std::io::BufRead as _;

    let ids = ["fig02", "fig05", "claim4"];
    let scale = ["--scale", "tiny"];
    let base = scratch("serve");
    let cdir = base.join("cache");
    std::fs::create_dir_all(&cdir).unwrap();

    let direct = repro().args(ids).args(scale).output().unwrap();
    assert!(direct.status.success());

    let mut daemon = repro()
        .args(["serve", "--listen", "127.0.0.1:0", "--cache-dir"])
        .arg(&cdir)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The daemon prints the resolved port once bound; read until then.
    let mut stderr = std::io::BufReader::new(daemon.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert_ne!(stderr.read_line(&mut line).unwrap(), 0, "daemon died");
        if let Some(rest) = line.trim().strip_prefix("# serve: listening on ") {
            break rest.to_string();
        }
    };

    let submit = |connect: &str| {
        repro()
            .arg("submit")
            .args(ids)
            .args(scale)
            .args(["--connect", connect])
            .output()
            .unwrap()
    };
    let first = submit(&addr);
    let err = String::from_utf8_lossy(&first.stderr);
    assert!(first.status.success(), "first submit: {err}");
    assert_eq!(first.stdout, direct.stdout, "streamed tables diverged");
    assert!(err.contains("# submit: accepted"), "stderr: {err}");

    // Same fingerprint again: the daemon's cache serves every sim.
    let second = submit(&addr);
    assert!(second.status.success());
    assert_eq!(second.stdout, first.stdout, "repeat submission diverged");
    let err = String::from_utf8_lossy(&second.stderr);
    assert!(
        err.contains("# summary: 0 executed"),
        "dedup failed — second submission executed sims: {err}"
    );

    let ping = repro()
        .args(["submit", "--ping", "--connect", &addr])
        .output()
        .unwrap();
    assert!(ping.status.success());
    assert!(String::from_utf8_lossy(&ping.stdout).contains("pong"));

    let down = repro()
        .args(["submit", "--shutdown", "--connect", &addr])
        .output()
        .unwrap();
    assert!(down.status.success());
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exited uncleanly");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn submit_against_nothing_fails_cleanly() {
    // Port 1 on localhost: connection refused, not a hang.
    let out = repro()
        .args(["submit", "fig02", "--connect", "127.0.0.1:1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("127.0.0.1:1"), "stderr: {err}");
}

/// `--trace` end to end through the real binary: per-spec traces in a
/// directory for a multi-sim run, stdout byte-identical to the
/// untraced run (tables must not change because observability is on),
/// and trace bytes invariant under thread count.
#[test]
fn traced_runs_keep_stdout_identical_and_traces_thread_invariant() {
    let base = scratch("trace");
    let ids = ["fig05", "--scale", "tiny"];

    let plain = repro().args(ids).output().unwrap();
    assert!(plain.status.success());

    let t1 = base.join("t1");
    let traced = repro()
        .args(ids)
        .args(["--threads", "1", "--trace"])
        .arg(&t1)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&traced.stderr);
    assert!(traced.status.success(), "stderr: {err}");
    assert!(err.contains("# trace: recording 6 sims"), "stderr: {err}");
    assert_eq!(
        traced.stdout, plain.stdout,
        "tracing changed the table output"
    );
    let mut files: Vec<PathBuf> = std::fs::read_dir(&t1)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 6, "one trace per unique sim: {files:?}");

    let t8 = base.join("t8");
    let retraced = repro()
        .args(ids)
        .args(["--threads", "8", "--trace"])
        .arg(&t8)
        .output()
        .unwrap();
    assert!(retraced.status.success());
    assert_eq!(retraced.stdout, plain.stdout);
    for f in &files {
        let other = t8.join(f.file_name().unwrap());
        assert_eq!(
            std::fs::read(f).unwrap(),
            std::fs::read(&other).unwrap(),
            "trace {} differs between 1 and 8 threads",
            f.display()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A single-sim run records straight into the named file (no
/// directory), creating parent directories as needed.
#[test]
fn single_sim_trace_writes_the_named_file() {
    let base = scratch("trace-single");
    let path = base.join("deep/one.pftrace");
    let out = repro()
        .args(["run", "fig05", "--scale", "tiny", "--shard", "0/6"])
        .arg("--cache-dir")
        .arg(base.join("cache"))
        .arg("--trace")
        .arg(&path)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {err}");
    assert!(err.contains("# trace: recording 1 sim to"), "stderr: {err}");
    let bytes = std::fs::read(&path).unwrap();
    assert!(!bytes.is_empty());
    let _ = std::fs::remove_dir_all(&base);
}

/// Analytic sims run no engine and so record nothing: a traced run of
/// only those fails before it creates the trace directory.
#[test]
fn trace_of_engineless_sims_fails_and_creates_nothing() {
    let base = scratch("trace-engineless");
    let out = repro()
        .args(["fig03", "--scale", "tiny", "--trace"])
        .arg(&base)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("no selected sim runs an engine"), "{err}");
    assert!(!base.exists(), "{} was created", base.display());
}

#[test]
fn trace_without_a_path_is_a_usage_error() {
    let out = repro().args(["fig05", "--trace"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
