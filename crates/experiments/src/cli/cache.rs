//! `repro cache (stats | gc --keep-plan <ids> | clear)`: inspect and
//! maintain a content-addressed sim cache.

use super::{CliError, NamedScale};
use crate::registry::resolve;
use ebrc_runner::{CacheEntry, DirCache};
use std::collections::HashSet;
use std::path::Path;

/// Runs the cache action named by `action` (exactly one word) against
/// the cache at `cache_dir`. `keep_plan`, `scale` and `dry_run` are
/// read by `gc` only.
pub fn command(
    action: &[String],
    cache_dir: Option<&Path>,
    keep_plan: &[String],
    scale: NamedScale,
    dry_run: bool,
) -> Result<(), CliError> {
    let Some(dir) = cache_dir else {
        return Err("cache commands need --cache-dir DIR (or EBRC_CACHE)".into());
    };
    let cache = DirCache::new(dir);
    match action {
        [word] if word == "stats" => {
            stats(&cache);
            Ok(())
        }
        [word] if word == "clear" => clear(&cache),
        [word] if word == "gc" => gc(&cache, keep_plan, scale, dry_run),
        _ => Err(CliError::Usage(
            "cache wants one action: stats, gc or clear".into(),
        )),
    }
}

fn stats(cache: &DirCache) {
    let entries = cache.entries();
    let valid = entries.iter().filter(|e| e.valid).count();
    let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
    println!(
        "cache {}: {} entries ({} valid, {} invalid), {} bytes",
        cache.dir().display(),
        entries.len(),
        valid,
        entries.len() - valid,
        bytes,
    );
    // Writer residue (a killed `repro` leaves its .tmp behind) and the
    // true on-disk footprint, entries + residue.
    let temps = cache.temp_files();
    let temp_bytes: u64 = temps.iter().map(|t| t.bytes).sum();
    println!(
        "cache {}: {} temp file(s) ({} bytes), {} bytes total on disk",
        cache.dir().display(),
        temps.len(),
        temp_bytes,
        bytes + temp_bytes,
    );
}

fn clear(cache: &DirCache) -> Result<(), CliError> {
    let entries = cache.entries();
    let removed = entries.iter().filter(|e| cache.remove(e.hash)).count();
    let temps = cache.remove_temp_files();
    eprintln!(
        "# cache clear: removed {removed} of {} entries, {temps} temp file(s)",
        entries.len()
    );
    if removed == entries.len() {
        Ok(())
    } else {
        let stuck = entries.len() - removed;
        Err(format!("cache clear: {stuck} entries could not be removed").into())
    }
}

/// Splits the cache's entries into those a gc keeping `keep` removes
/// and the number it keeps: every entry whose content hash the plan
/// does not reference goes, invalid entries included.
fn gc_selection(cache: &DirCache, keep: &HashSet<u64>) -> (Vec<CacheEntry>, usize) {
    let (kept, doomed): (Vec<_>, Vec<_>) = cache
        .entries()
        .into_iter()
        .partition(|e| e.valid && keep.contains(&e.hash));
    (doomed, kept.len())
}

/// `gc --keep-plan` rebuilds the named experiments' plan at `scale`
/// and removes exactly its orphans. Entries for other scales are
/// orphans too: keep-plan describes precisely what survives. With
/// `dry_run` the same selection is printed and nothing is deleted — so
/// an operator can price a cleanup before committing to it.
fn gc(
    cache: &DirCache,
    keep_plan: &[String],
    (scale, scale_name): NamedScale,
    dry_run: bool,
) -> Result<(), CliError> {
    if keep_plan.is_empty() {
        return Err("cache gc needs --keep-plan ID (repeatable; 'all' keeps the catalogue)".into());
    }
    let (_, plan) = resolve(keep_plan, scale)?;
    let keep: HashSet<u64> = plan.spec_hashes().iter().copied().collect();
    let (doomed, kept) = gc_selection(cache, &keep);
    if dry_run {
        for entry in &doomed {
            println!(
                "would remove {:016x} ({} bytes{})",
                entry.hash,
                entry.bytes,
                if entry.valid { "" } else { ", invalid" },
            );
        }
        let temps = cache.temp_files();
        for temp in &temps {
            println!(
                "would remove temp {} ({} bytes)",
                temp.path.display(),
                temp.bytes
            );
        }
        let bytes: u64 = doomed.iter().map(|e| e.bytes).sum::<u64>()
            + temps.iter().map(|t| t.bytes).sum::<u64>();
        eprintln!(
            "# cache gc (dry run): would keep {kept}, remove {} ({bytes} bytes); nothing deleted",
            doomed.len() + temps.len(),
        );
        return Ok(());
    }
    let removed = doomed.iter().filter(|e| cache.remove(e.hash)).count();
    let temps = cache.remove_temp_files();
    eprintln!(
        "# cache gc: kept {kept}, removed {removed} + {temps} temp file(s) \
         (keep-plan: {} unique sims at scale {scale_name})",
        plan.unique_len(),
    );
    if removed == doomed.len() {
        Ok(())
    } else {
        let stuck = doomed.len() - removed;
        Err(format!("cache gc: {stuck} entries could not be removed").into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Scale;
    use ebrc_runner::{stable_hash, OutputCache as _, Spec as _};

    #[test]
    fn gc_dry_run_selects_exactly_what_the_real_pass_removes() {
        let dir = std::env::temp_dir().join(format!("repro-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DirCache::new(&dir);
        let scale = (Scale::tiny(), "tiny");
        let keep_plan = vec!["fig01".to_string()];
        let (_, plan) = resolve(&keep_plan, scale.0).unwrap();
        // One live entry, two orphans, one entry that fails validation.
        let live = plan.specs()[0].key();
        cache.store(stable_hash(&live), &live, "payload");
        for key in ["orphan/a", "orphan/b"] {
            cache.store(stable_hash(key), key, "payload");
        }
        std::fs::write(dir.join(format!("{:016x}.json", 7)), "torn").unwrap();
        let hashes = |entries: Vec<CacheEntry>| -> HashSet<u64> {
            entries.into_iter().map(|e| e.hash).collect()
        };
        let before = hashes(cache.entries());
        assert_eq!(before.len(), 4);

        let keep: HashSet<u64> = plan.spec_hashes().iter().copied().collect();
        let selected = hashes(gc_selection(&cache, &keep).0);
        assert_eq!(selected.len(), 3, "two orphans and the torn entry");

        gc(&cache, &keep_plan, scale, true).unwrap();
        assert_eq!(hashes(cache.entries()), before, "--dry-run deleted");

        gc(&cache, &keep_plan, scale, false).unwrap();
        let after = hashes(cache.entries());
        let removed: HashSet<u64> = before.difference(&after).copied().collect();
        assert_eq!(removed, selected, "the real pass removed another set");
        assert_eq!(after, HashSet::from([stable_hash(&live)]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
