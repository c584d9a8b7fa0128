//! Arbitrary JSON trees for the property tests of every JSON reader in
//! the workspace: the strict field reader and the cache-entry header
//! (`ebrc-runner`), the daemon protocol (`ebrc-serve`) and the shard
//! artifact (`ebrc-experiments`). Each test includes this file with
//! `#[path]`, so the generator exists once without becoming library
//! API.

#![allow(dead_code)]

use proptest::collection::vec;
use proptest::prelude::*;
use serde::Value;

/// JSON trees of depth ≤ `depth` whose object keys come from `keys`
/// and whose string leaves come from `strings`, so a generated value
/// gets past the first field lookup and into the nested readers.
pub fn arb_value(
    depth: u32,
    keys: &'static [&'static str],
    strings: &'static [&'static str],
) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (0u64..u64::MAX).prop_map(|bits| Value::Number(f64::from_bits(bits))),
        (-3i64..70).prop_map(|n| Value::Number(n as f64)),
        (0usize..strings.len()).prop_map(move |i| Value::String(strings[i].into())),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let member = (0usize..keys.len(), arb_value(depth - 1, keys, strings));
    prop_oneof![
        1 => leaf,
        2 => vec(arb_value(depth - 1, keys, strings), 0..4).prop_map(Value::Array),
        4 => vec(member, 0..8).prop_map(move |fields| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (keys[k].to_string(), v))
                    .collect(),
            )
        }),
    ]
    .boxed()
}

/// Objects near one of `valid`: each member is kept, dropped, doubled
/// or replaced by an arbitrary value; a stray member may be added; the
/// order is rotated. Most draws stay close enough to valid that a
/// reader accepts some and must reject the rest.
pub fn around(
    valid: Vec<Value>,
    keys: &'static [&'static str],
    strings: &'static [&'static str],
) -> BoxedStrategy<Value> {
    const MAX: usize = 8;
    (
        0..valid.len(),
        vec(0u8..16, MAX..MAX + 1),
        vec(arb_value(2, keys, strings), MAX..MAX + 1),
        vec((0..keys.len(), arb_value(1, keys, strings)), 0..2),
        0..MAX,
    )
        .prop_map(move |(pick, ops, values, stray, rotate)| {
            let Value::Object(members) = &valid[pick] else {
                return valid[pick].clone();
            };
            let mut out = Vec::new();
            for (i, (k, v)) in members.iter().enumerate() {
                match ops[i % MAX] {
                    0 => {}
                    1 => out.push((k.clone(), values[i % MAX].clone())),
                    2 => out.extend([(k.clone(), v.clone()), (k.clone(), v.clone())]),
                    _ => out.push((k.clone(), v.clone())),
                }
            }
            out.extend(stray.into_iter().map(|(k, v)| (keys[k].to_string(), v)));
            let len = out.len().max(1);
            out.rotate_left(rotate % len);
            Value::Object(out)
        })
        .boxed()
}

/// Equality up to object member order, with numbers compared bit for
/// bit (so `NaN` equals itself and `-0` differs from `0`): what an
/// exact round trip through a reader and its writer must preserve.
pub fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && sorted(xs)
                    .into_iter()
                    .zip(sorted(ys))
                    .all(|(x, y)| x.0 == y.0 && same(&x.1, &y.1))
        }
        _ => a == b,
    }
}

fn sorted(members: &[(String, Value)]) -> Vec<&(String, Value)> {
    let mut members: Vec<_> = members.iter().collect();
    members.sort_by(|p, q| p.0.cmp(&q.0));
    members
}
