//! The sweep-service wire vocabulary.
//!
//! Requests flow client → daemon, events flow back. Every message is
//! one JSON object frame with a `"type"` discriminator; both sides
//! `to_value`/`from_value` through the vendored JSON tree, and every
//! parser rejects rather than guesses — a version-skewed peer gets a
//! clean error, never a silently misread field.
//!
//! The submission protocol is deliberately *plan-shaped*: a client
//! sends experiment ids + scale + the plan fingerprint it computed
//! locally, and the daemon re-derives the plan from its own catalogue
//! and refuses on mismatch. The fingerprint is thus an end-to-end
//! version check — a client built from a different spec vocabulary
//! cannot receive tables it would mislabel.

use ebrc_runner::Fields;
use serde::Value;

/// What a client can ask of the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Event::Pong`].
    Ping,
    /// Service counters; answered with [`Event::Stats`].
    Stats,
    /// Graceful daemon shutdown; answered with [`Event::Bye`].
    Shutdown,
    /// Run a sweep and stream results back.
    Submit(Submission),
}

/// A sweep submission: which experiments, at which scale, and the plan
/// fingerprint the client expects (daemon-side mismatch is refused).
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Experiment ids (`all` or empty selects the whole catalogue).
    pub targets: Vec<String>,
    /// Scale name (`quick`, `paper`, `tiny`).
    pub scale: String,
    /// The plan fingerprint (`{:016x}`) the client computed locally,
    /// if it could; `None` skips the end-to-end version check.
    pub fingerprint: Option<String>,
}

/// What the daemon streams back.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The submission resolved against the daemon's catalogue to this
    /// plan.
    Accepted(PlanInfo),
    /// Another sweep holds the executor; this one waits its turn
    /// (FIFO admission — concurrent clients serialize on the shared
    /// cache so overlapping sims are paid for once).
    Queued,
    /// The sweep started executing.
    Running,
    /// Executed-sim progress (cache hits never count).
    Progress {
        /// Sims completed so far.
        done: usize,
        /// Sims this run will execute.
        total: usize,
    },
    /// One experiment's reduced result, streamed in catalogue order.
    Report(ReportChunk),
    /// The sweep finished; terminal for a submission.
    Done(RunSummary),
    /// The request failed; terminal for a submission.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`]: service counters since start.
    Stats(ServiceStats),
    /// Answer to [`Request::Shutdown`].
    Bye,
}

/// One experiment's reduced tables, rendered server-side in both
/// human and JSON form so every client of one daemon receives
/// byte-identical artifacts (clients never re-render floats).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportChunk {
    /// Experiment id.
    pub experiment: String,
    /// Experiment title.
    pub title: String,
    /// Paper reference.
    pub paper_ref: String,
    /// Error message when the experiment failed (no tables then).
    pub error: Option<String>,
    /// The tables, present on success.
    pub tables: Vec<TableChunk>,
}

/// One rendered table inside a [`ReportChunk`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableChunk {
    /// Table name.
    pub name: String,
    /// Sanitized file name for `--out` spooling.
    pub file_name: String,
    /// Human-readable rendering (what `repro` prints to stdout).
    pub render: String,
    /// Machine-readable JSON rendering.
    pub json: String,
}

/// End-of-sweep accounting streamed with [`Event::Done`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunSummary {
    /// Sims actually executed (cache misses).
    pub executed: usize,
    /// Sims served from the shared cache.
    pub cache_hits: usize,
    /// Engine events the executed sims dispatched.
    pub events: u64,
    /// Experiments whose outcome was a failure.
    pub failed: usize,
    /// Wall-clock seconds the daemon spent on this sweep.
    pub wall_s: f64,
}

/// What a submission resolves to before execution: the plan identity
/// a backend derives from targets + scale, sent back as
/// [`Event::Accepted`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanInfo {
    /// Plan fingerprint, rendered `{:016x}`.
    pub fingerprint: String,
    /// Unique sims after content-hash dedup.
    pub unique_sims: usize,
    /// Subscribed sims before dedup.
    pub subscribed_sims: usize,
}

/// Daemon-lifetime counters, for [`Event::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceStats {
    /// Completed submissions.
    pub submissions: u64,
    /// Sims executed across all submissions.
    pub sims_executed: u64,
    /// Sims served from the cache across all submissions.
    pub cache_hits: u64,
    /// Engine events dispatched across all submissions.
    pub events: u64,
}

// ---------------------------------------------------------------------
// Value codecs. Hand-rolled writers; parsers read through `Fields`.
// ---------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn s(text: &str) -> Value {
    Value::String(text.to_string())
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

impl Request {
    /// Renders the request for the wire.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Ping => obj(vec![("type", s("ping"))]),
            Request::Stats => obj(vec![("type", s("stats"))]),
            Request::Shutdown => obj(vec![("type", s("shutdown"))]),
            Request::Submit(sub) => obj(vec![
                ("type", s("submit")),
                (
                    "targets",
                    Value::Array(sub.targets.iter().map(|t| s(t)).collect()),
                ),
                ("scale", s(&sub.scale)),
                (
                    "fingerprint",
                    sub.fingerprint.as_deref().map_or(Value::Null, s),
                ),
            ]),
        }
    }

    /// Parses a wire value; unknown, malformed or extra members are
    /// errors.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        let mut f = Fields::of(v, "request")?;
        let request = match f.string("type")? {
            "ping" => Request::Ping,
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            "submit" => Request::Submit(Submission {
                targets: f.strings("targets")?,
                scale: f.string("scale")?.to_string(),
                fingerprint: f.or_null("fingerprint", Fields::string)?.map(Into::into),
            }),
            other => return Err(format!("unknown request type {other:?}")),
        };
        f.done(request)
    }
}

impl RunSummary {
    fn fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("executed", num(self.executed as f64)),
            ("cache_hits", num(self.cache_hits as f64)),
            ("events", num(self.events as f64)),
            ("failed", num(self.failed as f64)),
            ("wall_s", num(self.wall_s)),
        ]
    }
}

impl Event {
    /// Renders the event for the wire.
    pub fn to_value(&self) -> Value {
        match self {
            Event::Accepted(plan) => obj(vec![
                ("type", s("accepted")),
                ("fingerprint", s(&plan.fingerprint)),
                ("unique_sims", num(plan.unique_sims as f64)),
                ("subscribed_sims", num(plan.subscribed_sims as f64)),
            ]),
            Event::Queued => obj(vec![("type", s("queued"))]),
            Event::Running => obj(vec![("type", s("running"))]),
            Event::Progress { done, total } => obj(vec![
                ("type", s("progress")),
                ("done", num(*done as f64)),
                ("total", num(*total as f64)),
            ]),
            Event::Report(chunk) => obj(vec![
                ("type", s("report")),
                ("experiment", s(&chunk.experiment)),
                ("title", s(&chunk.title)),
                ("paper_ref", s(&chunk.paper_ref)),
                ("error", chunk.error.as_deref().map_or(Value::Null, s)),
                (
                    "tables",
                    Value::Array(chunk.tables.iter().map(TableChunk::to_value).collect()),
                ),
            ]),
            Event::Done(summary) => {
                let mut fields = vec![("type", s("done"))];
                fields.extend(summary.fields());
                obj(fields)
            }
            Event::Error { message } => obj(vec![("type", s("error")), ("message", s(message))]),
            Event::Pong => obj(vec![("type", s("pong"))]),
            Event::Stats(stats) => obj(vec![
                ("type", s("service_stats")),
                ("submissions", num(stats.submissions as f64)),
                ("sims_executed", num(stats.sims_executed as f64)),
                ("cache_hits", num(stats.cache_hits as f64)),
                ("events", num(stats.events as f64)),
            ]),
            Event::Bye => obj(vec![("type", s("bye"))]),
        }
    }

    /// Parses a wire value; unknown, malformed or extra members are
    /// errors.
    pub fn from_value(v: &Value) -> Result<Event, String> {
        let mut f = Fields::of(v, "event")?;
        let event = match f.string("type")? {
            "accepted" => Event::Accepted(PlanInfo {
                fingerprint: f.string("fingerprint")?.to_string(),
                unique_sims: f.count("unique_sims")?,
                subscribed_sims: f.count("subscribed_sims")?,
            }),
            "queued" => Event::Queued,
            "running" => Event::Running,
            "progress" => Event::Progress {
                done: f.count("done")?,
                total: f.count("total")?,
            },
            "report" => Event::Report(ReportChunk {
                experiment: f.string("experiment")?.to_string(),
                title: f.string("title")?.to_string(),
                paper_ref: f.string("paper_ref")?.to_string(),
                error: f.or_null("error", Fields::string)?.map(str::to_string),
                tables: f
                    .array("tables")?
                    .iter()
                    .map(TableChunk::parse)
                    .collect::<Result<_, _>>()?,
            }),
            "done" => Event::Done(RunSummary {
                executed: f.count("executed")?,
                cache_hits: f.count("cache_hits")?,
                events: f.count("events")?,
                failed: f.count("failed")?,
                wall_s: f.number("wall_s")?,
            }),
            "error" => Event::Error {
                message: f.string("message")?.to_string(),
            },
            "pong" => Event::Pong,
            "service_stats" => Event::Stats(ServiceStats {
                submissions: f.count("submissions")?,
                sims_executed: f.count("sims_executed")?,
                cache_hits: f.count("cache_hits")?,
                events: f.count("events")?,
            }),
            "bye" => Event::Bye,
            other => return Err(format!("unknown event type {other:?}")),
        };
        f.done(event)
    }
}

impl TableChunk {
    fn to_value(&self) -> Value {
        obj(vec![
            ("name", s(&self.name)),
            ("file_name", s(&self.file_name)),
            ("render", s(&self.render)),
            ("json", s(&self.json)),
        ])
    }

    fn parse(v: &Value) -> Result<TableChunk, String> {
        let mut f = Fields::of(v, "table chunk")?;
        let chunk = TableChunk {
            name: f.string("name")?.to_string(),
            file_name: f.string("file_name")?.to_string(),
            render: f.string("render")?.to_string(),
            json: f.string("json")?.to_string(),
        };
        f.done(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let wire = serde_json::to_string(&req.to_value()).unwrap();
        let back = Request::from_value(&serde_json::from_str(&wire).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    fn round_trip_event(ev: Event) {
        let wire = serde_json::to_string(&ev.to_value()).unwrap();
        let back = Event::from_value(&serde_json::from_str(&wire).unwrap()).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Submit(Submission {
            targets: vec!["fig03".into(), "all".into()],
            scale: "quick".into(),
            fingerprint: Some("00ff00ff00ff00ff".into()),
        }));
        round_trip_request(Request::Submit(Submission {
            targets: vec![],
            scale: "tiny".into(),
            fingerprint: None,
        }));
    }

    #[test]
    fn events_round_trip() {
        round_trip_event(Event::Accepted(PlanInfo {
            fingerprint: "abcd".into(),
            unique_sims: 160,
            subscribed_sims: 169,
        }));
        round_trip_event(Event::Queued);
        round_trip_event(Event::Running);
        round_trip_event(Event::Progress { done: 3, total: 9 });
        round_trip_event(Event::Report(ReportChunk {
            experiment: "fig03".into(),
            title: "CoV".into(),
            paper_ref: "Fig. 3".into(),
            error: None,
            tables: vec![TableChunk {
                name: "fig03".into(),
                file_name: "fig03.json".into(),
                render: "a  b\n1  2\n".into(),
                json: "{\"rows\":[[1,2]]}".into(),
            }],
        }));
        round_trip_event(Event::Report(ReportChunk {
            experiment: "fig04".into(),
            title: "t".into(),
            paper_ref: "r".into(),
            error: Some("spec panicked".into()),
            tables: vec![],
        }));
        round_trip_event(Event::Done(RunSummary {
            executed: 12,
            cache_hits: 148,
            events: 1_000_000,
            failed: 0,
            wall_s: 3.25,
        }));
        round_trip_event(Event::Error {
            message: "unknown experiment".into(),
        });
        round_trip_event(Event::Pong);
        round_trip_event(Event::Stats(ServiceStats {
            submissions: 2,
            sims_executed: 160,
            cache_hits: 160,
            events: 99,
        }));
        round_trip_event(Event::Bye);
    }

    #[test]
    fn malformed_messages_are_rejected() {
        let bad = serde_json::from_str("{\"type\":\"submit\"}").unwrap();
        assert!(Request::from_value(&bad).is_err());
        let unknown = serde_json::from_str("{\"type\":\"warp\"}").unwrap();
        assert!(Request::from_value(&unknown).is_err());
        assert!(Event::from_value(&unknown).is_err());
        let no_type = serde_json::from_str("{}").unwrap();
        assert!(Request::from_value(&no_type).is_err());
        let bad_done = serde_json::from_str("{\"type\":\"done\",\"executed\":-1}").unwrap();
        assert!(Event::from_value(&bad_done).is_err());
        // Every member is read once: strays and duplicates are errors.
        for text in [
            r#"{"type":"ping","extra":1}"#,
            r#"{"type":"ping","type":"ping"}"#,
        ] {
            let v = serde_json::from_str(text).unwrap();
            assert!(Request::from_value(&v).is_err(), "{text}");
        }
    }

    #[test]
    fn count_fields_reject_instead_of_rewriting() {
        let stats = |events: &str| {
            let wire = format!(
                "{{\"type\":\"service_stats\",\"submissions\":1,\"sims_executed\":2,\
                 \"cache_hits\":3,\"events\":{events}}}"
            );
            Event::from_value(&serde_json::from_str(&wire).unwrap())
        };
        for bad in ["1.5", "1e30", "-1", "9007199254740994"] {
            let err = stats(bad).unwrap_err();
            assert!(err.contains("\"events\""), "{bad}: {err}");
        }
        let exact = |events| {
            Event::Stats(ServiceStats {
                submissions: 1,
                sims_executed: 2,
                cache_hits: 3,
                events,
            })
        };
        assert_eq!(stats("0").unwrap(), exact(0));
        assert_eq!(stats("9007199254740992").unwrap(), exact(1 << 53));
    }
}
