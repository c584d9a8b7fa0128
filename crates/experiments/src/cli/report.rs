//! Report output: the one printer and the one table spooler.
//!
//! A direct run, `merge` and `submit` all hand their reports here in
//! the rendered form the daemon streams ([`ReportChunk`]), so stdout
//! and `--out` files are the same bytes whichever way a sweep ran.

use super::{ensure_dir, CliError};
use crate::series::table_file_name;
use ebrc_serve::ReportChunk;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Prints reports to stdout and spools their tables under `--out`.
pub struct Reporter {
    json: bool,
    out: Option<PathBuf>,
    /// file name → the table name that claimed it.
    seen: HashMap<String, String>,
    write_failures: usize,
    printed: usize,
    /// The error of every failed report printed so far.
    errors: Vec<String>,
}

impl Reporter {
    /// A reporter printing JSON or human tables, spooling one JSON
    /// file per table under `out` when given. The directory (and any
    /// missing parents) is created up front so per-table writes cannot
    /// each fail on a missing path.
    pub fn new(json: bool, out: Option<&Path>) -> Result<Self, CliError> {
        if let Some(dir) = out {
            ensure_dir(dir)?;
        }
        Ok(Self {
            json,
            out: out.map(Path::to_path_buf),
            seen: HashMap::new(),
            write_failures: 0,
            printed: 0,
            errors: Vec::new(),
        })
    }

    /// Writes the report's tables under `--out`, if set. The file name
    /// is derived here from the table name — never taken from the
    /// chunk, which may have crossed the wire — so nothing lands
    /// outside the directory. Two tables mapping to the same file are
    /// reported, never silently overwritten: the first writer wins.
    pub fn spool(&mut self, chunk: &ReportChunk) {
        let Some(dir) = &self.out else {
            return;
        };
        if chunk.tables.is_empty() {
            return;
        }
        // The directory may have vanished since `new`; (re)create
        // rather than failing per table.
        if let Err(e) = ensure_dir(dir) {
            eprintln!("# {e}");
            self.write_failures += chunk.tables.len();
            return;
        }
        for t in &chunk.tables {
            let file = table_file_name(&t.name);
            let path = dir.join(&file);
            if let Some(owner) = self.seen.get(&file) {
                eprintln!(
                    "# table {:?} collides with {:?} on {}; not overwriting",
                    t.name,
                    owner,
                    path.display()
                );
                self.write_failures += 1;
                continue;
            }
            self.seen.insert(file, t.name.clone());
            if let Err(e) = std::fs::write(&path, &t.json) {
                eprintln!("# failed to write {}: {e}", path.display());
                self.write_failures += 1;
            }
        }
    }

    /// Prints the report: its header on stderr, its tables on stdout.
    pub fn print(&mut self, chunk: &ReportChunk) {
        eprintln!(
            "# {} — {} ({})",
            chunk.experiment, chunk.title, chunk.paper_ref
        );
        for t in &chunk.tables {
            println!("{}", if self.json { &t.json } else { &t.render });
        }
        self.printed += 1;
        self.errors.extend(chunk.error.clone());
    }

    /// Prints the end-of-run summary — `summary(ok, failed)` words the
    /// line: execution throughput for a run, provenance for a merge,
    /// the daemon's accounting for a submission — then every failed
    /// report's error. Fails when any report failed or any table could
    /// not be written.
    pub fn finish(self, summary: impl FnOnce(usize, usize) -> String) -> Result<(), CliError> {
        let failed = self.errors.len();
        eprintln!("# summary: {}", summary(self.printed - failed, failed));
        for e in &self.errors {
            eprintln!("#   {e}");
        }
        if failed == 0 && self.write_failures == 0 {
            Ok(())
        } else {
            let unwritten = self.write_failures;
            Err(format!("{failed} experiment(s) failed, {unwritten} table(s) not written").into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebrc_serve::TableChunk;

    fn chunk(tables: &[(&str, &str, &str)]) -> ReportChunk {
        ReportChunk {
            experiment: "t".into(),
            title: "t".into(),
            paper_ref: "t".into(),
            error: None,
            tables: tables
                .iter()
                .map(|(name, file_name, json)| TableChunk {
                    name: name.to_string(),
                    file_name: file_name.to_string(),
                    render: String::new(),
                    json: json.to_string(),
                })
                .collect(),
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repro-spool-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn files_under(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn colliding_tables_are_reported_not_overwritten() {
        let dir = scratch("collide");
        let mut reporter = Reporter::new(true, Some(&dir)).unwrap();
        reporter.spool(&chunk(&[
            ("fig/x", "fig_x.json", "first"),
            ("fig x", "fig_x.json", "second"),
        ]));
        assert_eq!(reporter.write_failures, 1, "second table collides");
        let kept = std::fs::read_to_string(dir.join("fig_x.json")).unwrap();
        assert_eq!(kept, "first", "first writer wins");
        assert!(
            reporter.finish(|_, _| String::new()).is_err(),
            "a lost table fails the run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A skewed or hostile daemon controls `file_name`; the spooler
    /// must not let it choose where a table lands.
    #[test]
    fn a_wire_supplied_file_name_never_escapes_the_spool_dir() {
        let base = scratch("escape");
        let dir = base.join("out");
        let absolute = base.join("absolute.json");
        let mut reporter = Reporter::new(true, Some(&dir)).unwrap();
        reporter.spool(&chunk(&[
            ("fig/a", "../escape.json", "a"),
            ("fig/b", absolute.to_str().unwrap(), "b"),
        ]));
        assert_eq!(reporter.write_failures, 0);
        assert_eq!(files_under(&dir), vec!["fig_a.json", "fig_b.json"]);
        assert_eq!(files_under(&base), vec!["out"], "nothing beside the dir");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn finish_fails_exactly_when_a_report_failed() {
        let mut ok = Reporter::new(false, None).unwrap();
        ok.print(&chunk(&[]));
        assert_eq!(
            ok.finish(|ok, failed| format!("{ok} ok, {failed} failed")),
            Ok(())
        );

        let mut bad = Reporter::new(false, None).unwrap();
        bad.print(&chunk(&[]));
        bad.print(&ReportChunk {
            error: Some("fig03 failed".into()),
            ..chunk(&[])
        });
        assert!(matches!(
            bad.finish(|ok, failed| format!("{ok} ok, {failed} failed")),
            Err(CliError::Failed(_))
        ));
    }
}
