//! Property tests for the content-addressed sim cache.
//!
//! The cache's license to exist is a round-trip guarantee: *any*
//! [`SpecOutput`] written through [`DirCache`] must come back with
//! exactly the same bits (NaN payloads, negative zero, and subnormals
//! included), and *any* damaged entry — truncated at an arbitrary
//! point, or with an arbitrary byte flipped — must read as a miss and
//! re-execute rather than feeding a reducer corrupted numbers.

use ebrc_experiments::scenarios::{FlowMeasure, RunMeasurements};
use ebrc_experiments::{SimSpec, SpecOutput, Table};
use ebrc_runner::{
    run_plan, stable_hash, CacheCounters, CacheableSpec, DirCache, ExecConfig, OutputCache, Plan,
    Pool,
};
use ebrc_tfrc::FormulaKind;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ebrc-cache-props-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Any bit pattern at all: finite values of every scale, ±0, ±∞,
/// signalling and quiet NaNs, subnormals.
fn arb_bits() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
}

fn arb_flow() -> impl Strategy<Value = FlowMeasure> {
    vec(arb_bits(), 6..7).prop_map(|v| FlowMeasure {
        throughput: v[0],
        loss_event_rate: v[1],
        rtt_mean: v[2],
        normalized_covariance: v[3],
        cov_rate_duration: v[4],
        theta_hat_cv2: v[5],
    })
}

fn arb_run() -> impl Strategy<Value = SpecOutput> {
    (
        vec(arb_flow(), 0..3),
        vec(arb_flow(), 0..3),
        vec(arb_bits(), 0..2),
        arb_bits(),
        0u8..3,
    )
        .prop_map(|(tfrc, tcp, probe, nominal_rtt, formula)| {
            SpecOutput::Run(RunMeasurements {
                tfrc,
                tcp,
                probe_loss_rate: probe.first().copied(),
                nominal_rtt,
                tfrc_formula: match formula {
                    0 => FormulaKind::Sqrt,
                    1 => FormulaKind::PftkStandard,
                    _ => FormulaKind::PftkSimplified,
                },
            })
        })
}

/// Table names stress the JSON escaping: slashes, spaces, quotes,
/// backslashes, newlines, unicode.
const NAMES: [&str; 6] = [
    "fig/x",
    "a b",
    "q\"uote",
    "back\\slash",
    "line\nbreak",
    "θ-hat",
];

fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..4, vec(arb_bits(), 0..13), 0usize..NAMES.len()).prop_map(|(cols, values, name)| {
        let mut t = Table::new(
            NAMES[name],
            NAMES[(name + 1) % NAMES.len()],
            (0..cols).map(|c| format!("c{c}")).collect::<Vec<_>>(),
        );
        for row in values.chunks_exact(cols) {
            t.push_row(row.to_vec());
        }
        t
    })
}

fn arb_output() -> impl Strategy<Value = SpecOutput> {
    prop_oneof![
        vec(arb_bits(), 0..6).prop_map(SpecOutput::Scalars),
        arb_run(),
        arb_table().prop_map(SpecOutput::Table),
        (arb_table(), vec(arb_bits(), 0..4)).prop_map(|(t, s)| SpecOutput::TableAndScalars(t, s)),
    ]
}

fn encode(out: &SpecOutput) -> String {
    <SimSpec as CacheableSpec>::encode_output(out)
}

/// Stores `out` under an arbitrary key, returning the entry path.
fn store(cache: &DirCache, key: &str, out: &SpecOutput) -> PathBuf {
    let hash = stable_hash(key);
    cache.store(hash, key, &encode(out));
    let path = cache.entry_path(hash);
    assert!(path.exists(), "store failed for {key}");
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property: every output variant survives write → read through a
    /// `DirCache` with exact f64 bits.
    #[test]
    fn any_output_round_trips_bit_exactly(out in arb_output(), salt in 0u64..1_000_000) {
        let cache = DirCache::new(scratch("round"));
        let key = format!("prop/round/{salt}");
        store(&cache, &key, &out);
        let loaded = cache.load(stable_hash(&key), &key).expect("fresh entry loads");
        let back = <SimSpec as CacheableSpec>::decode_output(&loaded).expect("fresh entry decodes");
        // The encoding renders every float as its exact bit pattern, so
        // encoded equality *is* bit equality — including NaN payloads.
        prop_assert_eq!(encode(&out), encode(&back));
        prop_assert_eq!(out.kind(), back.kind());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Property: a truncated entry is rejected, never decoded.
    #[test]
    fn truncated_entries_read_as_misses(out in arb_output(), frac in 0.0f64..1.0) {
        let cache = DirCache::new(scratch("trunc"));
        let key = "prop/trunc";
        let path = store(&cache, key, &out);
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(cut < bytes.len());
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert_eq!(cache.load(stable_hash(key), key), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Property: an entry with any single byte flipped is rejected —
    /// the contents check (or the JSON/header validation upstream of
    /// it) catches every position.
    #[test]
    fn bit_flipped_entries_read_as_misses(
        out in arb_output(),
        frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let cache = DirCache::new(scratch("flip"));
        let key = "prop/flip";
        let path = store(&cache, key, &out);
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = ((bytes.len() as f64) * frac) as usize;
        bytes[idx] ^= flip; // flip != 0, so the byte really changes
        std::fs::write(&path, &bytes).unwrap();
        prop_assert_eq!(
            cache.load(stable_hash(key), key),
            None,
            "flip {flip:#04x} at byte {idx} of {} was served",
            bytes.len()
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}

/// A damaged entry does not poison the reduce: the runner treats it as
/// a miss, re-executes the spec, and repairs the cache in passing. Two
/// damages: a flipped payload byte, which the cache's own `check`
/// catches, and a payload with a short table row under a valid header
/// and `check`, which only the decoder refuses.
#[test]
fn corrupted_entries_re_run_instead_of_poisoning() {
    let cache = DirCache::new(scratch("rerun"));
    let pool = Pool::new(2);
    let mut plan = Plan::new();
    plan.subscribe(
        "rerun",
        vec![
            SimSpec::Diagnostic {
                value: 7,
                fail: false,
            },
            SimSpec::Diagnostic {
                value: 9,
                fail: false,
            },
        ],
    );
    let run = || {
        let exec = ExecConfig::default();
        run_plan(&pool, 0, &plan, None, Some(&cache), exec, |_, _| {}, |_| {})
    };
    let (cold, c0) = run();
    assert_eq!(c0.cache, CacheCounters { hits: 0, misses: 2 });
    let key = "diag/v7/fail=false";
    let hash = stable_hash(key);
    let flip_a_payload_byte = || {
        let text = std::fs::read_to_string(cache.entry_path(hash)).unwrap();
        let pos = text.find("\"payload\"").unwrap() + 12;
        let mut bytes = text.into_bytes();
        bytes[pos] ^= 0x20;
        std::fs::write(cache.entry_path(hash), &bytes).unwrap();
        assert_eq!(cache.load(hash, key), None, "the check refuses it");
    };
    let store_a_short_row = || {
        let short = r#"{"kind":"table","table":{"name":"fig/x","caption":"c","columns":["a","b"],"rows":[["3ff0000000000000"]]}}"#;
        cache.store(hash, key, short);
        assert_eq!(cache.load(hash, key).as_deref(), Some(short));
        let err = <SimSpec as CacheableSpec>::decode_output(short).unwrap_err();
        assert!(err.contains("row width 1 vs 2 columns"), "{err}");
    };
    let damages: [&dyn Fn(); 2] = [&flip_a_payload_byte, &store_a_short_row];
    for damage in damages {
        damage();
        let (warm, c1) = run();
        assert_eq!(
            c1.cache,
            CacheCounters { hits: 1, misses: 1 },
            "damaged entry must re-run, intact one must hit"
        );
        for (a, b) in cold.iter().zip(&warm) {
            let a = a.as_ref().unwrap().as_ref().unwrap();
            let b = b.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(encode(a), encode(b), "reduce inputs diverged");
        }
        // The re-run repaired the entry.
        let (_, c2) = run();
        assert_eq!(c2.cache, CacheCounters { hits: 2, misses: 0 });
        assert_eq!(c2.events, 0);
        assert!(c2.timings.is_empty(), "hits must not report timings");
    }
    let _ = std::fs::remove_dir_all(cache.dir());
}
