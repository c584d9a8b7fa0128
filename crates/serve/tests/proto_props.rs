//! The daemon protocol against hostile values: whatever a peer sends,
//! `Request::from_value` and `Event::from_value` answer an error or a
//! message whose rendering is exactly what was read (up to member
//! order), and never panic.

#[path = "../../runner/tests/support/arb_value.rs"]
mod arb_value;

use arb_value::{arb_value, around, same};
use ebrc_serve::{
    Event, PlanInfo, ReportChunk, Request, RunSummary, ServiceStats, Submission, TableChunk,
};
use proptest::prelude::*;
use serde::Value;

const KEYS: [&str; 16] = [
    "type",
    "targets",
    "scale",
    "fingerprint",
    "unique_sims",
    "done",
    "total",
    "error",
    "tables",
    "name",
    "json",
    "executed",
    "events",
    "wall_s",
    "message",
    "submissions",
];
const STRINGS: [&str; 10] = [
    "",
    "ping",
    "submit",
    "accepted",
    "progress",
    "report",
    "done",
    "service_stats",
    "bye",
    "quick",
];

fn valid_requests() -> Vec<Value> {
    let submit = |fingerprint: Option<&str>| {
        Request::Submit(Submission {
            targets: vec!["fig03".into(), "all".into()],
            scale: "quick".into(),
            fingerprint: fingerprint.map(str::to_string),
        })
    };
    [
        Request::Ping,
        Request::Shutdown,
        submit(None),
        submit(Some("00ff00ff00ff00ff")),
    ]
    .iter()
    .map(Request::to_value)
    .collect()
}

fn valid_events() -> Vec<Value> {
    let table = TableChunk {
        name: "fig03".into(),
        file_name: "fig03.json".into(),
        render: "a  b\n".into(),
        json: "{}".into(),
    };
    [
        Event::Accepted(PlanInfo {
            fingerprint: "abcd".into(),
            unique_sims: 160,
            subscribed_sims: 169,
        }),
        Event::Progress { done: 3, total: 9 },
        Event::Report(ReportChunk {
            experiment: "fig03".into(),
            title: "CoV".into(),
            paper_ref: "Fig. 3".into(),
            error: None,
            tables: vec![table],
        }),
        Event::Done(RunSummary {
            executed: 12,
            cache_hits: 148,
            events: 1 << 53,
            failed: 0,
            wall_s: -0.0,
        }),
        Event::Error {
            message: "no".into(),
        },
        Event::Stats(ServiceStats {
            submissions: 2,
            sims_executed: 160,
            cache_hits: 160,
            events: 99,
        }),
        Event::Bye,
    ]
    .iter()
    .map(Event::to_value)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_reject_or_round_trip_exactly(
        arbitrary in arb_value(3, &KEYS, &STRINGS),
        near in around(valid_requests(), &KEYS, &STRINGS),
    ) {
        for v in [arbitrary, near] {
            if let Ok(request) = Request::from_value(&v) {
                prop_assert!(same(&request.to_value(), &v), "{v:?} read as {request:?}");
            }
        }
    }

    #[test]
    fn events_reject_or_round_trip_exactly(
        arbitrary in arb_value(3, &KEYS, &STRINGS),
        near in around(valid_events(), &KEYS, &STRINGS),
    ) {
        for v in [arbitrary, near] {
            if let Ok(event) = Event::from_value(&v) {
                prop_assert!(same(&event.to_value(), &v), "{v:?} read as {event:?}");
            }
        }
    }
}
