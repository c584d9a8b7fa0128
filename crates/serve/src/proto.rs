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
    /// The submission resolved against the daemon's catalogue.
    Accepted {
        /// Plan fingerprint the daemon computed.
        fingerprint: String,
        /// Unique sims after content-hash dedup.
        unique_sims: usize,
        /// Subscribed sims before dedup.
        subscribed_sims: usize,
    },
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
/// a backend derives from targets + scale. Mirrors the fields of
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
// Value codecs. Hand-rolled both ways; parsers validate every field.
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

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Largest count a wire number (an `f64`) carries exactly: 2^53.
const MAX_EXACT_COUNT: f64 = 9_007_199_254_740_992.0;

/// A count field: an integral number in `0..=2^53`. Anything else —
/// a fraction, a negative, a value past `f64`'s exact integers — is an
/// error, never rounded or saturated into some other count.
fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    let n = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))?;
    if n.fract() == 0.0 && (0.0..=MAX_EXACT_COUNT).contains(&n) {
        Ok(n as u64)
    } else {
        Err(format!("field {key:?} is not a count in 0..=2^53: {n}"))
    }
}

fn field_usize(v: &Value, key: &str) -> Result<usize, String> {
    field_u64(v, key).map(|n| n as usize)
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
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
                    match &sub.fingerprint {
                        Some(fp) => s(fp),
                        None => Value::Null,
                    },
                ),
            ]),
        }
    }

    /// Parses a wire value; unknown or malformed requests are errors.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        match field_str(v, "type")?.as_str() {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let targets = match v.get("targets") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|t| {
                            t.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "non-string target".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("submit without targets array".into()),
                };
                let fingerprint = match v.get("fingerprint") {
                    None | Some(Value::Null) => None,
                    Some(fp) => Some(
                        fp.as_str()
                            .map(str::to_string)
                            .ok_or("non-string fingerprint")?,
                    ),
                };
                Ok(Request::Submit(Submission {
                    targets,
                    scale: field_str(v, "scale")?,
                    fingerprint,
                }))
            }
            other => Err(format!("unknown request type {other:?}")),
        }
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

    fn parse(v: &Value) -> Result<RunSummary, String> {
        Ok(RunSummary {
            executed: field_usize(v, "executed")?,
            cache_hits: field_usize(v, "cache_hits")?,
            events: field_u64(v, "events")?,
            failed: field_usize(v, "failed")?,
            wall_s: field_f64(v, "wall_s")?,
        })
    }
}

impl Event {
    /// Renders the event for the wire.
    pub fn to_value(&self) -> Value {
        match self {
            Event::Accepted {
                fingerprint,
                unique_sims,
                subscribed_sims,
            } => obj(vec![
                ("type", s("accepted")),
                ("fingerprint", s(fingerprint)),
                ("unique_sims", num(*unique_sims as f64)),
                ("subscribed_sims", num(*subscribed_sims as f64)),
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
                (
                    "error",
                    match &chunk.error {
                        Some(e) => s(e),
                        None => Value::Null,
                    },
                ),
                (
                    "tables",
                    Value::Array(
                        chunk
                            .tables
                            .iter()
                            .map(|t| {
                                obj(vec![
                                    ("name", s(&t.name)),
                                    ("file_name", s(&t.file_name)),
                                    ("render", s(&t.render)),
                                    ("json", s(&t.json)),
                                ])
                            })
                            .collect(),
                    ),
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

    /// Parses a wire value; unknown or malformed events are errors.
    pub fn from_value(v: &Value) -> Result<Event, String> {
        match field_str(v, "type")?.as_str() {
            "accepted" => Ok(Event::Accepted {
                fingerprint: field_str(v, "fingerprint")?,
                unique_sims: field_usize(v, "unique_sims")?,
                subscribed_sims: field_usize(v, "subscribed_sims")?,
            }),
            "queued" => Ok(Event::Queued),
            "running" => Ok(Event::Running),
            "progress" => Ok(Event::Progress {
                done: field_usize(v, "done")?,
                total: field_usize(v, "total")?,
            }),
            "report" => {
                let tables = match v.get("tables") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|t| {
                            Ok(TableChunk {
                                name: field_str(t, "name")?,
                                file_name: field_str(t, "file_name")?,
                                render: field_str(t, "render")?,
                                json: field_str(t, "json")?,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                    _ => return Err("report without tables array".into()),
                };
                let error = match v.get("error") {
                    None | Some(Value::Null) => None,
                    Some(e) => Some(e.as_str().map(str::to_string).ok_or("non-string error")?),
                };
                Ok(Event::Report(ReportChunk {
                    experiment: field_str(v, "experiment")?,
                    title: field_str(v, "title")?,
                    paper_ref: field_str(v, "paper_ref")?,
                    error,
                    tables,
                }))
            }
            "done" => RunSummary::parse(v).map(Event::Done),
            "error" => Ok(Event::Error {
                message: field_str(v, "message")?,
            }),
            "pong" => Ok(Event::Pong),
            "service_stats" => Ok(Event::Stats(ServiceStats {
                submissions: field_u64(v, "submissions")?,
                sims_executed: field_u64(v, "sims_executed")?,
                cache_hits: field_u64(v, "cache_hits")?,
                events: field_u64(v, "events")?,
            })),
            "bye" => Ok(Event::Bye),
            other => Err(format!("unknown event type {other:?}")),
        }
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
        round_trip_event(Event::Accepted {
            fingerprint: "abcd".into(),
            unique_sims: 160,
            subscribed_sims: 169,
        });
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
