//! The strict field reader and the cache-entry header against hostile
//! JSON: whatever the input, a read is an error or an exact round trip
//! (the writer renders back what was read, up to member order), and it
//! never panics.

#[path = "support/arb_value.rs"]
mod arb_value;

use arb_value::{arb_value, around, same};
use ebrc_runner::{stable_hash, DirCache, Fields, OutputCache, CACHE_FORMAT};
use proptest::prelude::*;
use serde::Value;

/// A record with one field of every kind the reader hands out.
#[derive(Debug)]
struct Record {
    name: String,
    n: u64,
    x: f64,
    tags: Vec<String>,
    note: Option<String>,
    items: Vec<Value>,
    inner: u32,
}

const KEYS: [&str; 9] = ["name", "n", "x", "tags", "note", "items", "inner", "k", "z"];
const STRINGS: [&str; 4] = ["", "a", "run", "00000000000000ff"];

fn read(v: &Value) -> Result<Record, String> {
    let mut f = Fields::of(v, "record")?;
    let mut inner = f.object("inner")?;
    let record = Record {
        name: f.string("name")?.to_string(),
        n: f.count("n")?,
        x: f.number("x")?,
        tags: f.strings("tags")?,
        note: f.or_null("note", Fields::string)?.map(str::to_string),
        items: f.array("items")?.to_vec(),
        inner: inner.count("k")?,
    };
    inner.done(())?;
    f.done(record)
}

fn write(r: &Record) -> Value {
    let s = |s: &str| Value::String(s.into());
    Value::Object(vec![
        ("name".into(), s(&r.name)),
        ("n".into(), Value::Number(r.n as f64)),
        ("x".into(), Value::Number(r.x)),
        (
            "tags".into(),
            Value::Array(r.tags.iter().map(|t| s(t)).collect()),
        ),
        ("note".into(), r.note.as_deref().map_or(Value::Null, s)),
        ("items".into(), Value::Array(r.items.clone())),
        (
            "inner".into(),
            Value::Object(vec![("k".into(), Value::Number(f64::from(r.inner)))]),
        ),
    ])
}

fn valid_records() -> Vec<Value> {
    let record = |note: Option<&str>, n: u64| Record {
        name: "a".into(),
        n,
        x: -0.5,
        tags: vec!["run".into(), "".into()],
        note: note.map(str::to_string),
        items: vec![Value::Null, Value::Bool(true)],
        inner: 7,
    };
    vec![write(&record(None, 0)), write(&record(Some("x"), 1 << 53))]
}

/// A valid cache entry's header members around `payload`, spelled as
/// `DirCache::store` writes them.
fn valid_entry(key: &str, payload: &str) -> Value {
    let s = |s: &str| Value::String(s.into());
    Value::Object(vec![
        ("format".into(), Value::Number(f64::from(CACHE_FORMAT))),
        ("key".into(), s(key)),
        ("check".into(), s(&format!("{:016x}", stable_hash(payload)))),
        ("payload".into(), s(payload)),
    ])
}

const ENTRY_KEY: &str = "toy/a/v1";
const PAYLOAD: &str = "{\"kind\":\"scalars\",\"values\":[\"3ff8000000000000\"]}";
const ENTRY_KEYS: [&str; 5] = ["format", "key", "check", "payload", "extra"];
const ENTRY_STRINGS: [&str; 4] = ["", ENTRY_KEY, "toy/b/v2", PAYLOAD];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_reader_rejects_or_round_trips_exactly(
        arbitrary in arb_value(3, &KEYS, &STRINGS),
        near in around(valid_records(), &KEYS, &STRINGS),
    ) {
        for v in [arbitrary, near] {
            if let Ok(record) = read(&v) {
                prop_assert!(same(&write(&record), &v), "{v:?} read as {record:?}");
            }
        }
    }

    /// Header members that are arbitrary values, dropped, doubled or
    /// joined by strays around a valid payload: the entry is a miss or
    /// is exactly the header `store` writes.
    #[test]
    fn cache_headers_reject_or_round_trip_exactly(
        near in around(vec![valid_entry(ENTRY_KEY, PAYLOAD)], &ENTRY_KEYS, &ENTRY_STRINGS),
    ) {
        let dir = std::env::temp_dir().join(format!("ebrc-codec-props-{}", std::process::id()));
        let cache = DirCache::new(&dir);
        let hash = stable_hash(ENTRY_KEY);
        cache.store(hash, ENTRY_KEY, PAYLOAD);
        std::fs::write(cache.entry_path(hash), serde_json::to_string(&near).unwrap()).unwrap();
        let loaded = cache.load(hash, ENTRY_KEY);
        let listed = cache.entries();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(listed.len(), 1);
        prop_assert_eq!(listed[0].valid, loaded.is_some());
        if let Some(payload) = loaded {
            prop_assert_eq!(payload.as_str(), PAYLOAD);
            prop_assert!(same(&near, &valid_entry(ENTRY_KEY, PAYLOAD)), "{near:?} served");
        }
    }
}
