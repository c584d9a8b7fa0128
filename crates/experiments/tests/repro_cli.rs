//! End-to-end checks of the `repro` binary: flag parsing, the
//! plan/run/merge sharding workflow, output spooling (directory
//! creation included), and exit codes.

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
        vec!["run", "--shard", "2/2"],
        vec!["run", "--shard", "nope"],
        vec!["plan", "--shards", "0"],
        // `--trace` where no sim runs in this process would be
        // silently dropped; it is rejected, naming the flag.
        vec!["list", "--trace", "t"],
        vec!["plan", "fig05", "--trace", "t"],
        vec!["merge", "fig05", "--trace", "t"],
        vec!["dispatch", "fig05", "--trace", "t"],
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
/// catalogue split 1, 2, and 3 ways merges to byte-identical tables.
#[test]
fn shard_runs_merge_byte_identically() {
    let ids = ["fig02", "fig05", "fig08", "fig09", "claim4"];
    let scale = ["--scale", "tiny"];
    let base = scratch("shards");

    let direct = repro().args(ids).args(scale).output().unwrap();
    assert!(direct.status.success());

    for k in [1usize, 2, 3] {
        let dir = base.join(format!("k{k}"));
        for shard in 0..k {
            let out = repro()
                .arg("run")
                .args(ids)
                .args(scale)
                .args(["--shard", &format!("{shard}/{k}"), "--shard-dir"])
                .arg(&dir)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "shard {shard}/{k}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(dir.join(format!("shard-{shard}-of-{k}.json")).exists());
        }
        let merged = repro()
            .arg("merge")
            .args(ids)
            .args(scale)
            .arg("--shard-dir")
            .arg(&dir)
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

#[test]
fn merge_rejects_foreign_or_missing_shards() {
    let dir = scratch("mismatch");
    let out = repro()
        .args([
            "run",
            "fig01",
            "--scale",
            "tiny",
            "--shard",
            "0/2",
            "--shard-dir",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Different experiment set → different plan fingerprint — and a
    // fingerprint mismatch must not leave partial tables behind.
    let tables = scratch("mismatch-tables");
    let foreign = repro()
        .args(["merge", "fig02", "--scale", "tiny", "--shard-dir"])
        .arg(&dir)
        .arg("--out")
        .arg(&tables)
        .output()
        .unwrap();
    assert!(!foreign.status.success());
    let err = String::from_utf8_lossy(&foreign.stderr);
    assert!(err.contains("different plan"), "stderr: {err}");
    let written: Vec<_> = std::fs::read_dir(&tables)
        .map(|d| d.flatten().collect())
        .unwrap_or_default();
    assert!(written.is_empty(), "mismatched merge wrote tables");

    // Same plan but shard 1/2 never ran → incomplete. The exit code
    // is pinned: scripts piping `repro merge` must be able to trust
    // that missing sims fail the command, not just print a complaint.
    let partial = repro()
        .args(["merge", "fig01", "--scale", "tiny", "--shard-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(partial.status.code(), Some(1), "missing sims must exit 1");
    let err = String::from_utf8_lossy(&partial.stderr);
    assert!(err.contains("incomplete shard set"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&tables);
}

#[test]
fn out_of_range_shard_fails_without_writing_an_artifact() {
    let dir = scratch("oor-shard");
    for shard in ["3/2", "2/2", "1/0"] {
        let out = repro()
            .args([
                "run",
                "fig01",
                "--scale",
                "tiny",
                "--shard",
                shard,
                "--shard-dir",
            ])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(!out.status.success(), "--shard {shard} must fail");
        assert!(
            !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
            "--shard {shard} wrote an artifact"
        );
    }
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

/// The dispatcher end to end through the real binary: shard worker
/// processes, a fault-injected mid-run kill, retry, and an auto-merge
/// byte-identical to the single-process run.
#[test]
fn dispatch_retries_a_killed_worker_and_merges_byte_identically() {
    // The whole catalogue, so a shard worker is reliably still
    // mid-run when the fault hook kills it (a too-small sweep could
    // finish before the supervisor's first poll).
    let ids = ["all"];
    let scale = ["--scale", "tiny"];
    let dir = scratch("dispatch");

    let direct = repro().args(ids).args(scale).output().unwrap();
    assert!(direct.status.success());

    let dispatched = repro()
        .arg("dispatch")
        .args(ids)
        .args(scale)
        .args(["--workers", "2", "--shard-dir"])
        .arg(&dir)
        .env("EBRC_FAULT_KILL_SHARD", "1")
        .env("EBRC_FAULT_KILL_AFTER_MS", "0")
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&dispatched.stderr);
    assert!(dispatched.status.success(), "stderr: {err}");
    assert!(err.contains("FAULT INJECTED"), "hook never fired: {err}");
    assert!(
        err.contains("shard 1 attempt 0 failed"),
        "kill not observed: {err}"
    );
    assert!(
        err.contains("shard 1 completed (attempt 1)"),
        "retry never completed: {err}"
    );
    assert_eq!(
        dispatched.stdout, direct.stdout,
        "retried dispatch diverged from the direct run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dispatch_gives_up_after_the_retry_budget_and_does_not_merge() {
    // The fault hook only fires once, so guaranteed permanent failure
    // needs a zero retry budget: kill attempt 0, no attempt 1. The
    // full catalogue keeps the worker alive long enough to be killed.
    let dir = scratch("dispatch-fail");
    let out = repro()
        .args(["dispatch", "all", "--scale", "tiny"])
        .args(["--workers", "1", "--retries", "0", "--shard-dir"])
        .arg(&dir)
        .env("EBRC_FAULT_KILL_SHARD", "0")
        .env("EBRC_FAULT_KILL_AFTER_MS", "0")
        .output()
        .unwrap();
    assert!(!out.status.success(), "a dead shard must fail the dispatch");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("failed permanently"), "stderr: {err}");
    assert!(err.contains("not merging"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "no tables from an incomplete sweep");
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

/// More shard workers than threads must never spawn a 0-thread worker:
/// the per-worker allocation is `(threads / k).max(1)`, and the banner
/// pins it so a refactor cannot silently reintroduce `threads / k == 0`
/// (which `Pool::new(0)` would reject in every child at once).
#[test]
fn dispatch_floors_per_worker_threads_at_one() {
    // 4 workers sharing 2 threads: floor(2/4) = 0 must become 1.
    let dir = scratch("dispatch-floor");
    let out = repro()
        .args(["dispatch", "claim4", "--scale", "tiny"])
        .args(["--workers", "4", "--threads", "2", "--shard-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {err}");
    assert!(
        err.contains("4 shard worker(s) (1 thread(s) each)"),
        "banner: {err}"
    );
    for shard in 0..4 {
        assert!(
            err.contains(&format!("shard {shard} completed")),
            "shard {shard} never completed: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The even case still divides: 2 workers over 8 threads get 4 each.
    let dir = scratch("dispatch-even");
    let out = repro()
        .args(["dispatch", "claim4", "--scale", "tiny"])
        .args(["--workers", "2", "--threads", "8", "--shard-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {err}");
    assert!(
        err.contains("2 shard worker(s) (4 thread(s) each)"),
        "banner: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
        .args(["--shard-dir"])
        .arg(base.join("shards"))
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

#[test]
fn trace_without_a_path_is_a_usage_error() {
    let out = repro().args(["fig05", "--trace"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
