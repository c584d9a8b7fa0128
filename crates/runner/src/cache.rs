//! Content-addressed output cache: incremental re-runs as pure reduce
//! passes.
//!
//! A plan's unique specs are already keyed by content hash (the
//! [`Spec::key`] contract), so a completed spec's
//! serialized output can be stored under that hash and served to any
//! later run of the *same* spec — a repeated sweep after a
//! reducer-only change then executes zero simulations and reduces
//! straight from the cache.
//!
//! The correctness bar is exactly the runner's determinism contract: a
//! warm-cache run must be **byte-identical** to a cold run. Three
//! defenses keep a cache from ever poisoning a reduce:
//!
//! 1. every entry records the cache **format version** — an entry
//!    written by an older (or newer) layout is treated as a miss;
//! 2. every entry records the full **spec key** and a lookup validates
//!    it against the requested key, so an FNV collision (or a renamed
//!    spec vocabulary) can never alias distinct work;
//! 3. every entry records a **hash of its payload contents** that the
//!    load path re-verifies, so a truncated or bit-flipped file is
//!    rejected (and silently re-executed) instead of decoded.
//!
//! Writes go through a per-process temp file and an atomic rename, so
//! concurrent shard processes sharing one cache directory cannot
//! observe torn entries; because entries are content-addressed,
//! last-writer-wins races replace identical bytes.

use crate::plan::{stable_hash, Spec};
use serde::Value;
use std::path::{Path, PathBuf};

/// Version of the on-disk entry layout *and* of the payload encodings
/// feeding it. Bump whenever either changes shape — stale entries then
/// read as misses and re-execute instead of decoding garbage.
pub const CACHE_FORMAT: u32 = 1;

/// Cache effectiveness of one run: `hits` were served from the cache,
/// `misses` were actually executed (every sim is a miss when no cache
/// is configured).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Specs whose output was loaded (and validated) from the cache.
    pub hits: usize,
    /// Specs that had to be executed.
    pub misses: usize,
}

/// A store of serialized spec outputs keyed by content hash.
///
/// `Sync` because completed workers store entries concurrently. Both
/// methods are infallible by design: a failed load is a miss and a
/// failed store is skipped — the cache is an optimization, never a
/// correctness dependency.
pub trait OutputCache: Sync {
    /// The validated payload stored for `(hash, key)`, or `None` on a
    /// miss — including a corrupt, truncated, version-skewed, or
    /// key-mismatched entry.
    fn load(&self, hash: u64, key: &str) -> Option<String>;

    /// Stores `payload` for `(hash, key)`, best effort.
    fn store(&self, hash: u64, key: &str, payload: &str);
}

/// A [`Spec`] whose output serializes losslessly to text — the
/// round-trip (`decode ∘ encode = id`, bit-exact for every float) is
/// what licenses serving cached outputs in place of fresh runs.
pub trait CacheableSpec: Spec {
    /// Serializes an output. Must be deterministic: equal outputs must
    /// encode to equal bytes.
    fn encode_output(out: &Self::Output) -> String;

    /// Parses [`CacheableSpec::encode_output`]'s rendering; an `Err`
    /// is treated as a cache miss.
    fn decode_output(text: &str) -> Result<Self::Output, String>;
}

/// What a [`DirCache`] directory scan found for one entry file.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Content hash from the file name.
    pub hash: u64,
    /// The spec key recorded in the entry, when the header parses.
    pub key: Option<String>,
    /// Entry file size in bytes.
    pub bytes: u64,
    /// Whether the entry passes every validation a load would apply.
    pub valid: bool,
}

/// A directory of cache entries, one JSON file per spec output:
/// `<dir>/<hash:016x>.json` containing
/// `{"format": N, "key": "<spec key>", "check": "<payload hash>",
/// "payload": "<encoded output>"}` (compact, no trailing newline, so
/// every byte is load-bearing for the integrity check). The payload is
/// embedded as a JSON *string* — the codec's exact bytes, escaped —
/// so the checksum covers the verbatim encoding and a load can never
/// return anything the codec did not produce (re-serializing an
/// embedded JSON *value* would quietly normalize numbers instead).
#[derive(Debug, Clone)]
pub struct DirCache {
    dir: PathBuf,
}

impl DirCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file for a content hash.
    pub fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.json"))
    }

    /// Parses and validates one entry's text against its file-name
    /// hash, returning `(key, payload)` — every check a load applies,
    /// minus the caller's key comparison.
    fn parse_entry(hash: u64, text: &str) -> Option<(String, String)> {
        let value = serde_json::from_str(text).ok()?;
        if value.get("format")?.as_f64()? != f64::from(CACHE_FORMAT) {
            return None;
        }
        let key = value.get("key")?.as_str()?;
        // The entry must live under its own key's hash — a mismatch
        // means a renamed file or a hash collision, never serve it.
        if stable_hash(key) != hash {
            return None;
        }
        let check = value.get("check")?.as_str()?;
        let payload = value.get("payload")?.as_str()?;
        // The checksum covers the codec's verbatim bytes.
        if format!("{:016x}", stable_hash(payload)) != check {
            return None;
        }
        Some((key.to_string(), payload.to_string()))
    }

    /// Scans the directory for entry files (16-hex-digit `.json`
    /// names), validating each — the substrate for `cache stats` and
    /// `cache gc`. A missing directory is an empty cache.
    pub fn entries(&self) -> Vec<CacheEntry> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in dir.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(stem) = name.strip_suffix(".json") else {
                continue;
            };
            if stem.len() != 16 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
                continue;
            }
            let Ok(hash) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let parsed = std::fs::read_to_string(entry.path())
                .ok()
                .and_then(|text| Self::parse_entry(hash, &text));
            out.push(CacheEntry {
                hash,
                key: parsed.as_ref().map(|(k, _)| k.clone()),
                bytes,
                valid: parsed.is_some(),
            });
        }
        out.sort_by_key(|e| e.hash);
        out
    }

    /// Removes the entry for `hash`; `true` if a file was deleted.
    pub fn remove(&self, hash: u64) -> bool {
        std::fs::remove_file(self.entry_path(hash)).is_ok()
    }

    /// Scans for orphaned temp files (`<hash:016x>.tmp.<pid>`) left by
    /// writers that died between write and rename. Live writers hold a
    /// temp file only for the instant before the atomic rename, so
    /// anything a scan observes is almost certainly a crash residue;
    /// the load path never looks at temp files, they only waste disk.
    pub fn temp_files(&self) -> Vec<TempFile> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in dir.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some((stem, pid)) = name.split_once(".tmp.") else {
                continue;
            };
            if stem.len() != 16
                || !stem.bytes().all(|b| b.is_ascii_hexdigit())
                || pid.is_empty()
                || !pid.bytes().all(|b| b.is_ascii_digit())
            {
                continue;
            }
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            out.push(TempFile {
                path: entry.path(),
                bytes,
            });
        }
        out.sort();
        out
    }

    /// Deletes every orphaned temp file, returning how many were
    /// removed. Safe against concurrent writers: a racing rename makes
    /// this delete a no-op, and a racing writer that loses its temp
    /// file fails its (best-effort) store without corrupting anything.
    pub fn remove_temp_files(&self) -> usize {
        self.temp_files()
            .iter()
            .filter(|t| std::fs::remove_file(&t.path).is_ok())
            .count()
    }
}

/// An orphaned writer temp file found by [`DirCache::temp_files`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TempFile {
    /// Full path of the temp file.
    pub path: PathBuf,
    /// Its size in bytes.
    pub bytes: u64,
}

impl OutputCache for DirCache {
    fn load(&self, hash: u64, key: &str) -> Option<String> {
        let text = std::fs::read_to_string(self.entry_path(hash)).ok()?;
        let (stored_key, payload) = Self::parse_entry(hash, &text)?;
        (stored_key == key).then_some(payload)
    }

    fn store(&self, hash: u64, key: &str, payload: &str) {
        // Embed the payload verbatim as a JSON string: string escaping
        // round-trips any text exactly, so the load path hands the
        // codec back its own bytes and the checksum covers them all.
        // (Re-serializing the payload as an embedded JSON *value*
        // would normalize it — e.g. integers above 2^53 through f64 —
        // and then vouch for the altered bytes.)
        let escape = |s: &str| {
            serde_json::to_string(&Value::String(s.to_string())).expect("strings serialize")
        };
        let mut text = String::with_capacity(payload.len() + key.len() + 64);
        text.push_str(&format!("{{\"format\":{CACHE_FORMAT},\"key\":"));
        text.push_str(&escape(key));
        text.push_str(&format!(",\"check\":\"{:016x}\"", stable_hash(payload)));
        text.push_str(",\"payload\":");
        text.push_str(&escape(payload));
        text.push('}');
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        // Unique per (entry, process): concurrent shard processes
        // writing the same hash race only at the atomic rename, and
        // content addressing makes the competing bytes identical.
        let tmp = self
            .dir
            .join(format!("{hash:016x}.tmp.{}", std::process::id()));
        if std::fs::write(&tmp, &text).is_err() {
            return;
        }
        if std::fs::rename(&tmp, self.entry_path(hash)).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ebrc-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload() -> String {
        "{\"kind\":\"scalars\",\"values\":[\"3ff8000000000000\"]}".to_string()
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = DirCache::new(scratch("round"));
        let key = "toy/a/v1";
        let hash = stable_hash(key);
        assert_eq!(cache.load(hash, key), None, "cold cache misses");
        cache.store(hash, key, &payload());
        assert_eq!(cache.load(hash, key), Some(payload()));
        // Wrong key for the same hash: never served.
        assert_eq!(cache.load(hash, "toy/b/v2"), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn version_skew_reads_as_a_miss() {
        let cache = DirCache::new(scratch("skew"));
        let key = "toy/a/v1";
        let hash = stable_hash(key);
        cache.store(hash, key, &payload());
        let text = std::fs::read_to_string(cache.entry_path(hash)).unwrap();
        let skewed = text.replace(
            &format!("\"format\":{CACHE_FORMAT}"),
            &format!("\"format\":{}", CACHE_FORMAT + 1),
        );
        assert_ne!(text, skewed, "the format field must be present");
        std::fs::write(cache.entry_path(hash), skewed).unwrap();
        assert_eq!(cache.load(hash, key), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncation_and_corruption_read_as_misses() {
        let cache = DirCache::new(scratch("corrupt"));
        let key = "toy/a/v1";
        let hash = stable_hash(key);
        cache.store(hash, key, &payload());
        let text = std::fs::read_to_string(cache.entry_path(hash)).unwrap();
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            std::fs::write(cache.entry_path(hash), &text[..cut]).unwrap();
            assert_eq!(cache.load(hash, key), None, "truncated at {cut}");
        }
        // A single flipped payload bit fails the contents check.
        let flipped = text.replace("3ff8", "3ff9");
        assert_ne!(text, flipped);
        std::fs::write(cache.entry_path(hash), flipped).unwrap();
        assert_eq!(cache.load(hash, key), None, "bit flip served");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_deeply_nested_entry_reads_as_a_miss() {
        // Parsed by recursion, 100 000 levels would overflow the stack
        // and abort the process instead of missing.
        let cache = DirCache::new(scratch("deep"));
        let key = "toy/a/v1";
        let hash = stable_hash(key);
        cache.store(hash, key, &payload());
        std::fs::write(cache.entry_path(hash), "[".repeat(100_000)).unwrap();
        assert_eq!(cache.load(hash, key), None);
        assert!(!cache.entries()[0].valid);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn renamed_entries_are_never_served() {
        // An entry copied under another spec's hash (bad sync script,
        // fs corruption) must fail the key-hash consistency check.
        let cache = DirCache::new(scratch("rename"));
        let key = "toy/a/v1";
        cache.store(stable_hash(key), key, &payload());
        let other = stable_hash("toy/b/v2");
        std::fs::rename(cache.entry_path(stable_hash(key)), cache.entry_path(other)).unwrap();
        assert_eq!(cache.load(other, "toy/b/v2"), None);
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].valid);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entries_lists_and_remove_deletes() {
        let cache = DirCache::new(scratch("scan"));
        assert!(cache.entries().is_empty(), "missing dir is empty");
        let keys = ["toy/a/v1", "toy/b/v2", "toy/c/v3"];
        for key in keys {
            cache.store(stable_hash(key), key, &payload());
        }
        // Non-entry files are ignored by the scan.
        std::fs::write(cache.dir().join("notes.txt"), "hi").unwrap();
        std::fs::write(cache.dir().join("beef.json"), "{}").unwrap();
        let entries = cache.entries();
        assert_eq!(entries.len(), keys.len());
        assert!(entries.iter().all(|e| e.valid && e.bytes > 0));
        let mut listed: Vec<&str> = entries.iter().filter_map(|e| e.key.as_deref()).collect();
        listed.sort_unstable();
        assert_eq!(listed, keys);
        assert!(cache.remove(stable_hash("toy/a/v1")));
        assert!(!cache.remove(stable_hash("toy/a/v1")), "already gone");
        assert_eq!(cache.entries().len(), keys.len() - 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn killed_writer_residue_is_rejected_then_repaired() {
        // Simulate a writer killed mid-store: a stale temp file from a
        // dead pid plus a truncated entry (the kill landed inside
        // fs::write on a filesystem without atomic visibility).
        let cache = DirCache::new(scratch("killed"));
        let key = "toy/a/v1";
        let hash = stable_hash(key);
        cache.store(hash, key, &payload());
        let full = std::fs::read_to_string(cache.entry_path(hash)).unwrap();
        std::fs::write(cache.entry_path(hash), &full[..full.len() / 2]).unwrap();
        let stale = cache.dir().join(format!("{hash:016x}.tmp.99999"));
        std::fs::write(&stale, &full[..full.len() / 3]).unwrap();

        // Reads reject both: the truncated entry fails validation and
        // the temp file is never consulted.
        assert_eq!(cache.load(hash, key), None, "truncated entry served");
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].valid);
        let temps = cache.temp_files();
        assert_eq!(temps.len(), 1);
        assert_eq!(temps[0].path, stale);
        assert!(temps[0].bytes > 0);

        // Re-execution (a fresh store) repairs the entry in place.
        cache.store(hash, key, &payload());
        assert_eq!(cache.load(hash, key), Some(payload()));
        assert!(cache.entries()[0].valid);

        // gc's temp sweep removes the orphan and nothing else.
        assert_eq!(cache.remove_temp_files(), 1);
        assert!(cache.temp_files().is_empty());
        assert_eq!(cache.load(hash, key), Some(payload()), "entry survived gc");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn temp_scan_ignores_non_writer_files() {
        let cache = DirCache::new(scratch("tempscan"));
        cache.store(stable_hash("toy/a/v1"), "toy/a/v1", &payload());
        // Decoys: wrong stem length, non-numeric pid, unrelated names.
        std::fs::write(cache.dir().join("beef.tmp.123"), "x").unwrap();
        std::fs::write(cache.dir().join("0123456789abcdef.tmp.pid"), "x").unwrap();
        std::fs::write(cache.dir().join("notes.txt"), "x").unwrap();
        assert!(cache.temp_files().is_empty());
        assert_eq!(cache.remove_temp_files(), 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn payloads_are_opaque_text_served_verbatim() {
        // The cache never interprets the codec's bytes — whatever was
        // stored (escaping-hostile characters included) comes back
        // exactly; decoding is the codec's concern.
        let cache = DirCache::new(scratch("opaque"));
        let key = "toy/a/v1";
        let hash = stable_hash(key);
        let payload = "not json: \"quotes\" \\slashes\\ and\nnewlines";
        cache.store(hash, key, payload);
        assert_eq!(cache.load(hash, key).as_deref(), Some(payload));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
