//! The frame codec against hostile bytes: whatever a peer sends,
//! `read_frame` and `read_value` answer `Ok` or `Err` and never panic
//! or abort the reading process.

use ebrc_serve::{read_frame, read_value, write_frame, write_value, MAX_FRAME};
use proptest::prelude::*;
use serde::Value;
use std::io::{Cursor, ErrorKind};

/// Bytes drawn from JSON's structural alphabet, so the parser sees
/// deep nesting, broken escapes and stray quotes rather than only
/// invalid UTF-8.
fn jsonish(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"[]{}\",:\\u0123456789.eE+-truefalsn \xc3\xa9";
    proptest::collection::vec(0..ALPHABET.len(), 0..max_len)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, payload).unwrap();
    wire
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = read_frame(&mut Cursor::new(&bytes));
        let _ = read_value(&mut Cursor::new(&bytes));
    }

    #[test]
    fn arbitrary_payloads_are_values_or_invalid_data(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        text in jsonish(256),
    ) {
        for p in [&payload, &text] {
            match read_value(&mut Cursor::new(framed(p))) {
                Ok(v) => prop_assert!(v.is_some()),
                Err(e) => prop_assert_eq!(e.kind(), ErrorKind::InvalidData),
            }
        }
    }

    #[test]
    fn truncated_frames_are_errors_except_at_zero(text in jsonish(48)) {
        let v = Value::Object(vec![
            ("type".into(), Value::String("report".into())),
            ("text".into(), Value::String(String::from_utf8_lossy(&text).into_owned())),
        ]);
        let mut wire = Vec::new();
        write_value(&mut wire, &v).unwrap();
        for cut in 0..wire.len() {
            let prefix = &wire[..cut];
            if cut == 0 {
                prop_assert!(read_frame(&mut Cursor::new(prefix)).unwrap().is_none());
                prop_assert!(read_value(&mut Cursor::new(prefix)).unwrap().is_none());
            } else {
                prop_assert!(read_frame(&mut Cursor::new(prefix)).is_err(), "cut at {}", cut);
                prop_assert!(read_value(&mut Cursor::new(prefix)).is_err(), "cut at {}", cut);
            }
        }
        prop_assert_eq!(read_value(&mut Cursor::new(&wire)).unwrap(), Some(v));
    }
}

#[test]
fn length_prefix_limit_is_inclusive() {
    // Exactly MAX_FRAME is a legal length: the read fails only for want
    // of the payload the prefix promised.
    let at = (MAX_FRAME as u32).to_be_bytes();
    let err = read_frame(&mut Cursor::new(at)).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    // One byte more is refused before anything is allocated.
    let over = (MAX_FRAME as u32 + 1).to_be_bytes();
    let err = read_frame(&mut Cursor::new(over)).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

#[test]
fn deeply_nested_frame_is_invalid_data_not_an_abort() {
    // 100 000 `[` is a 100 kB frame, far below MAX_FRAME; parsed by
    // recursion on a handler thread's stack it would abort the daemon.
    let wire = framed("[".repeat(100_000).as_bytes());
    let err = read_value(&mut Cursor::new(wire)).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}
