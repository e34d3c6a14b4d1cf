//! The wire protocol between `swifi submit` and `swifi serve`.
//!
//! One campaign submission is one TCP connection carrying line-delimited
//! JSON: the client sends a single request line, the server streams back
//! one event object per line and closes. Keeping the protocol at one
//! self-describing line per message means a session can be replayed from
//! a capture file, debugged with `nc`, and parsed without a streaming
//! JSON reader on either side.

use serde::Value;
use swifi_campaign::MergeSummary;

/// Most shards one submission may ask for. Each shard is a checkpoint
/// path and a worker pass, built before any work starts, so the bound
/// keeps a hostile submission from exhausting memory. The repository's
/// own scales use at most 3.
pub const MAX_SHARDS: u64 = 1024;

/// Most inputs per fault (or per mutant) one submission may ask for:
/// every input is generated up front. The paper's full scale is 300.
pub const MAX_INPUTS: u64 = 100_000;

/// A client request: exactly one per connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Event::Pong`].
    Ping,
    /// Stop accepting connections once in-flight campaigns finish.
    Shutdown,
    /// Run a sharded campaign and stream progress events back.
    Submit(CampaignRequest),
}

/// Which experiment driver a submission runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Binary class-based campaign (paper §6, `swifi campaign`).
    Class,
    /// Source-level G-SWFIT mutation campaign (`swifi source-campaign`).
    Source,
}

impl Driver {
    /// Wire name of the driver.
    pub fn name(self) -> &'static str {
        match self {
            Driver::Class => "class",
            Driver::Source => "source",
        }
    }

    fn from_name(s: &str) -> Result<Driver, String> {
        match s {
            "class" => Ok(Driver::Class),
            "source" => Ok(Driver::Source),
            other => Err(format!("unknown driver `{other}` (class, source)")),
        }
    }
}

/// One campaign submission: driver, target, seed, scale, shard plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// Experiment driver to run.
    pub driver: Driver,
    /// Roster program name (see `swifi list`).
    pub target: String,
    /// Campaign seed.
    pub seed: u64,
    /// Inputs per fault / per mutant.
    pub inputs: usize,
    /// Mutant budget ([`Driver::Source`] only).
    pub mutants: usize,
    /// Number of shards to split the run schedule into.
    pub shards: u64,
    /// Worker-pool width: shards in flight at once (process mode).
    pub pool: usize,
    /// Collect per-shard Chrome traces and stream the merged trace back.
    pub want_trace: bool,
    /// Collect per-shard metrics and stream the merged registry back.
    pub want_metrics: bool,
}

impl CampaignRequest {
    /// Human tag naming this campaign in paths and progress output: the
    /// driver, target, seed and input count. Two in-flight submissions
    /// with equal tags would share shard files, so the server refuses the
    /// second.
    pub fn tag(&self) -> String {
        let (driver, target) = (self.driver.name(), &self.target);
        format!("{driver}-{target}-s{}-i{}", self.seed, self.inputs)
    }
}

/// A server-to-client progress record. The stream for a submission ends
/// with exactly one [`Event::Done`] or [`Event::Error`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Submission validated; shard fan-out is starting.
    Accepted {
        /// The campaign tag ([`CampaignRequest::tag`]).
        campaign: String,
        /// Shard count the schedule was split into.
        shards: u64,
    },
    /// A shard pass started (worker spawned or in-process run begun).
    ShardStart {
        /// Shard index, `0 .. shards`.
        shard: u64,
    },
    /// A shard pass finished. `ok = false` is not fatal: the shard's
    /// missing records are re-executed by the merge pass.
    ShardDone {
        /// Shard index.
        shard: u64,
        /// Whether the shard pass completed cleanly.
        ok: bool,
        /// Failure detail when `ok` is false (exit status, stderr tail).
        detail: String,
    },
    /// Shard checkpoints merged into one campaign checkpoint.
    Merged {
        /// Shard files read.
        shards_read: u64,
        /// Shard files missing or empty (recovered by the final pass).
        shards_missing: u64,
        /// Distinct run records in the merged checkpoint.
        records: u64,
        /// Records present in more than one shard file.
        duplicates: u64,
    },
    /// Per-phase run count in the merged campaign.
    Phase {
        /// Phase name (e.g. `assign`, `check`, `mutants`).
        name: String,
        /// Run records in the phase.
        runs: u64,
    },
    /// An abnormal run record in the merged campaign.
    Abnormal {
        /// Phase the item belonged to.
        phase: String,
        /// Item index within the phase.
        index: u64,
        /// Caught panic or failure message.
        message: String,
        /// Driver description of the work item.
        detail: String,
    },
    /// The final report, byte-identical to the single-process CLI output.
    Report {
        /// Rendered report text.
        text: String,
    },
    /// Merged metrics-registry snapshot (when requested).
    Metrics {
        /// Registry JSON, as written by `--metrics-out`.
        text: String,
    },
    /// Merged Chrome trace (when requested).
    Trace {
        /// Trace JSON, as written by `--trace-out`.
        text: String,
    },
    /// Submission completed; the connection closes after this line.
    Done,
    /// Submission failed; the connection closes after this line.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Reply to [`Request::Ping`].
    Pong,
}

impl Event {
    /// A [`Event::Merged`] from the checkpoint-merge summary.
    pub fn merged(s: &MergeSummary) -> Event {
        Event::Merged {
            shards_read: s.shards_read as u64,
            shards_missing: s.shards_missing as u64,
            records: s.records as u64,
            duplicates: s.duplicates as u64,
        }
    }

    /// Render the event as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let fields = match self {
            Event::Accepted { campaign, shards } => vec![
                ("event", str_v("accepted")),
                ("campaign", str_v(campaign)),
                ("shards", u64_v(*shards)),
            ],
            Event::ShardStart { shard } => {
                vec![("event", str_v("shard_start")), ("shard", u64_v(*shard))]
            }
            Event::ShardDone { shard, ok, detail } => vec![
                ("event", str_v("shard_done")),
                ("shard", u64_v(*shard)),
                ("ok", Value::Bool(*ok)),
                ("detail", str_v(detail)),
            ],
            Event::Merged {
                shards_read,
                shards_missing,
                records,
                duplicates,
            } => vec![
                ("event", str_v("merged")),
                ("shards_read", u64_v(*shards_read)),
                ("shards_missing", u64_v(*shards_missing)),
                ("records", u64_v(*records)),
                ("duplicates", u64_v(*duplicates)),
            ],
            Event::Phase { name, runs } => vec![
                ("event", str_v("phase")),
                ("name", str_v(name)),
                ("runs", u64_v(*runs)),
            ],
            Event::Abnormal {
                phase,
                index,
                message,
                detail,
            } => vec![
                ("event", str_v("abnormal")),
                ("phase", str_v(phase)),
                ("index", u64_v(*index)),
                ("message", str_v(message)),
                ("detail", str_v(detail)),
            ],
            Event::Report { text } => vec![("event", str_v("report")), ("text", str_v(text))],
            Event::Metrics { text } => vec![("event", str_v("metrics")), ("text", str_v(text))],
            Event::Trace { text } => vec![("event", str_v("trace")), ("text", str_v(text))],
            Event::Done => vec![("event", str_v("done"))],
            Event::Error { message } => {
                vec![("event", str_v("error")), ("message", str_v(message))]
            }
            Event::Pong => vec![("event", str_v("pong"))],
        };
        render_obj(fields)
    }

    /// Parse one event line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn parse(line: &str) -> Result<Event, String> {
        let v: Value =
            serde_json::from_str(line.trim()).map_err(|e| format!("bad event line: {e}"))?;
        let obj = v.as_object().ok_or("event line is not an object")?;
        let kind = get_str(obj, "event")?;
        match kind.as_str() {
            "accepted" => Ok(Event::Accepted {
                campaign: get_str(obj, "campaign")?,
                shards: get_u64(obj, "shards")?,
            }),
            "shard_start" => Ok(Event::ShardStart {
                shard: get_u64(obj, "shard")?,
            }),
            "shard_done" => Ok(Event::ShardDone {
                shard: get_u64(obj, "shard")?,
                ok: get_bool(obj, "ok")?,
                detail: get_str(obj, "detail")?,
            }),
            "merged" => Ok(Event::Merged {
                shards_read: get_u64(obj, "shards_read")?,
                shards_missing: get_u64(obj, "shards_missing")?,
                records: get_u64(obj, "records")?,
                duplicates: get_u64(obj, "duplicates")?,
            }),
            "phase" => Ok(Event::Phase {
                name: get_str(obj, "name")?,
                runs: get_u64(obj, "runs")?,
            }),
            "abnormal" => Ok(Event::Abnormal {
                phase: get_str(obj, "phase")?,
                index: get_u64(obj, "index")?,
                message: get_str(obj, "message")?,
                detail: get_str(obj, "detail")?,
            }),
            "report" => Ok(Event::Report {
                text: get_str(obj, "text")?,
            }),
            "metrics" => Ok(Event::Metrics {
                text: get_str(obj, "text")?,
            }),
            "trace" => Ok(Event::Trace {
                text: get_str(obj, "text")?,
            }),
            "done" => Ok(Event::Done),
            "error" => Ok(Event::Error {
                message: get_str(obj, "message")?,
            }),
            "pong" => Ok(Event::Pong),
            other => Err(format!("unknown event `{other}`")),
        }
    }
}

/// Render a request as one JSON line (no trailing newline).
pub fn render_request(req: &Request) -> String {
    match req {
        Request::Ping => render_obj(vec![("type", str_v("ping"))]),
        Request::Shutdown => render_obj(vec![("type", str_v("shutdown"))]),
        Request::Submit(c) => render_obj(vec![
            ("type", str_v("submit")),
            ("driver", str_v(c.driver.name())),
            ("target", str_v(&c.target)),
            ("seed", u64_v(c.seed)),
            ("inputs", u64_v(c.inputs as u64)),
            ("mutants", u64_v(c.mutants as u64)),
            ("shards", u64_v(c.shards)),
            ("pool", u64_v(c.pool as u64)),
            ("want_trace", Value::Bool(c.want_trace)),
            ("want_metrics", Value::Bool(c.want_metrics)),
        ]),
    }
}

/// Parse one request line.
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field; the server
/// streams it back as [`Event::Error`] so a hand-typed `nc` session gets
/// a diagnosis, not a dropped connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v: Value =
        serde_json::from_str(line.trim()).map_err(|e| format!("bad request line: {e}"))?;
    let obj = v.as_object().ok_or("request line is not an object")?;
    let kind = get_str(obj, "type")?;
    match kind.as_str() {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            let req = CampaignRequest {
                driver: Driver::from_name(&get_str(obj, "driver")?)?,
                target: get_str(obj, "target")?,
                seed: get_u64(obj, "seed")?,
                inputs: get_bounded(obj, "inputs", MAX_INPUTS)?.max(1) as usize,
                mutants: get_u64(obj, "mutants")?.max(1) as usize,
                shards: get_bounded(obj, "shards", MAX_SHARDS)?,
                pool: get_u64(obj, "pool")?.max(1) as usize,
                want_trace: get_bool(obj, "want_trace")?,
                want_metrics: get_bool(obj, "want_metrics")?,
            };
            if req.shards == 0 {
                return Err("shards must be at least 1".to_string());
            }
            Ok(Request::Submit(req))
        }
        other => Err(format!(
            "unknown request `{other}` (ping, shutdown, submit)"
        )),
    }
}

fn str_v(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn u64_v(n: u64) -> Value {
    Value::U64(n)
}

fn render_obj(fields: Vec<(&str, Value)>) -> String {
    let v = Value::Object(
        fields
            .into_iter()
            .map(|(k, x)| (k.to_string(), x))
            .collect(),
    );
    serde_json::to_string(&v).expect("protocol objects serialize")
}

fn get_str(obj: &[(String, Value)], key: &str) -> Result<String, String> {
    match serde::field(obj, key) {
        Ok(Value::Str(s)) => Ok(s.clone()),
        Ok(_) => Err(format!("field `{key}` must be a string")),
        Err(_) => Err(format!("missing field `{key}`")),
    }
}

fn get_u64(obj: &[(String, Value)], key: &str) -> Result<u64, String> {
    match serde::field(obj, key) {
        Ok(Value::U64(n)) => Ok(*n),
        Ok(Value::I64(n)) if *n >= 0 => Ok(*n as u64),
        Ok(_) => Err(format!("field `{key}` must be a non-negative integer")),
        Err(_) => Err(format!("missing field `{key}`")),
    }
}

fn get_bounded(obj: &[(String, Value)], key: &str, max: u64) -> Result<u64, String> {
    let n = get_u64(obj, key)?;
    if n > max {
        return Err(format!("field `{key}` is {n}, above the limit of {max}"));
    }
    Ok(n)
}

fn get_bool(obj: &[(String, Value)], key: &str) -> Result<bool, String> {
    match serde::field(obj, key) {
        Ok(Value::Bool(b)) => Ok(*b),
        Ok(_) => Err(format!("field `{key}` must be a boolean")),
        Err(_) => Err(format!("missing field `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> CampaignRequest {
        CampaignRequest {
            driver: Driver::Class,
            target: "SOR".to_string(),
            seed: 2024,
            inputs: 2,
            mutants: 6,
            shards: 3,
            pool: 2,
            want_trace: true,
            want_metrics: false,
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Ping,
            Request::Shutdown,
            Request::Submit(sample_request()),
        ] {
            let line = render_request(&req);
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(parse_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn events_round_trip() {
        let events = vec![
            Event::Accepted {
                campaign: "class-SOR-s2024".to_string(),
                shards: 3,
            },
            Event::ShardStart { shard: 1 },
            Event::ShardDone {
                shard: 1,
                ok: false,
                detail: "exit status: 101".to_string(),
            },
            Event::Merged {
                shards_read: 2,
                shards_missing: 1,
                records: 40,
                duplicates: 0,
            },
            Event::Phase {
                name: "assign".to_string(),
                runs: 30,
            },
            Event::Abnormal {
                phase: "telemetry".to_string(),
                index: 0,
                message: "cannot merge histogram `x`".to_string(),
                detail: "metrics merge on shard import".to_string(),
            },
            Event::Report {
                text: "total runs: 60\nline two\n".to_string(),
            },
            Event::Metrics {
                text: "{\n}".to_string(),
            },
            Event::Trace {
                text: "[\n]\n".to_string(),
            },
            Event::Done,
            Event::Error {
                message: "unknown program `nope`".to_string(),
            },
            Event::Pong,
        ];
        for e in events {
            let line = e.render();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Event::parse(&line).unwrap(), e);
        }
    }

    #[test]
    fn over_bound_submissions_are_refused() {
        let mut req = sample_request();
        req.shards = MAX_SHARDS + 1;
        let err = parse_request(&render_request(&Request::Submit(req))).unwrap_err();
        assert!(err.contains("`shards`") && err.contains("limit"), "{err}");
        let mut req = sample_request();
        req.inputs = MAX_INPUTS as usize + 1;
        let err = parse_request(&render_request(&Request::Submit(req))).unwrap_err();
        assert!(err.contains("`inputs`") && err.contains("limit"), "{err}");
        let huge = render_request(&Request::Submit(sample_request()))
            .replace("\"shards\":3", "\"shards\":1000000000000");
        assert!(parse_request(&huge).unwrap_err().contains("limit"));
    }

    #[test]
    fn submissions_at_the_bounds_are_accepted() {
        let mut req = sample_request();
        req.shards = MAX_SHARDS;
        req.inputs = MAX_INPUTS as usize;
        let line = render_request(&Request::Submit(req.clone()));
        assert_eq!(parse_request(&line).unwrap(), Request::Submit(req));
    }

    /// Bytes a mutation writes: JSON punctuation and digits (to grow
    /// numbers past the bounds) as often as arbitrary bytes.
    const ALPHABET: &[u8] = b"0123456789{}[]\":,-.e+ \\tnuf";

    /// One byte-level edit of a request line: overwrite, insert or delete
    /// at a position, or duplicate a span in place.
    #[derive(Debug, Clone)]
    enum Edit {
        Overwrite(usize, u8),
        Insert(usize, u8),
        Delete(usize),
        Duplicate(usize, usize),
    }

    fn arb_byte() -> impl proptest::Strategy<Value = u8> {
        use proptest::prelude::*;
        prop_oneof![(0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), any::<u8>(),]
    }

    fn arb_edit() -> impl proptest::Strategy<Value = Edit> {
        use proptest::prelude::*;
        prop_oneof![
            (any::<usize>(), arb_byte()).prop_map(|(at, b)| Edit::Overwrite(at, b)),
            (any::<usize>(), arb_byte()).prop_map(|(at, b)| Edit::Insert(at, b)),
            any::<usize>().prop_map(Edit::Delete),
            (any::<usize>(), 1usize..16).prop_map(|(at, n)| Edit::Duplicate(at, n)),
        ]
    }

    fn apply(line: &mut Vec<u8>, edit: &Edit) {
        let len = line.len();
        match *edit {
            Edit::Overwrite(at, b) if len > 0 => line[at % len] = b,
            Edit::Insert(at, b) => line.insert(at % (len + 1), b),
            Edit::Delete(at) if len > 0 => {
                line.remove(at % len);
            }
            Edit::Duplicate(at, n) if len > 0 => {
                let start = at % len;
                let span = line[start..(start + n).min(len)].to_vec();
                line.splice(start..start, span);
            }
            _ => {}
        }
    }

    fn valid_line(i: usize, shards: u64, inputs: u64) -> String {
        let mut req = sample_request();
        req.shards = shards;
        req.inputs = inputs as usize;
        req.driver = [Driver::Class, Driver::Source][i % 2];
        let reqs = [Request::Ping, Request::Shutdown, Request::Submit(req)];
        render_request(&reqs[i % reqs.len()])
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// A byte-mutated valid request line never panics the parser,
        /// and every submission it accepts is within the bounds.
        #[test]
        fn mutated_request_lines_parse_or_fail_cleanly(
            which in 0usize..6,
            shards in 1u64..=MAX_SHARDS,
            inputs in 1u64..=MAX_INPUTS,
            edits in proptest::collection::vec(arb_edit(), 1..8),
        ) {
            let mut line = valid_line(which, shards, inputs).into_bytes();
            for e in &edits {
                apply(&mut line, e);
            }
            let text = String::from_utf8_lossy(&line);
            if let Ok(Request::Submit(req)) = parse_request(&text) {
                proptest::prop_assert!((1..=MAX_SHARDS).contains(&req.shards), "{text}");
                proptest::prop_assert!((1..=MAX_INPUTS as usize).contains(&req.inputs), "{text}");
            }
        }
    }

    #[test]
    fn malformed_lines_are_named_errors() {
        let err = parse_request("not json").unwrap_err();
        assert!(err.contains("bad request line"), "{err}");
        let err = parse_request("{\"type\":\"warp\"}").unwrap_err();
        assert!(err.contains("unknown request"), "{err}");
        let err = parse_request("{\"type\":\"submit\",\"driver\":\"class\"}").unwrap_err();
        assert!(err.contains("missing field `target`"), "{err}");
        let err = parse_request("{\"type\":\"submit\",\"driver\":\"binary\",\"target\":\"SOR\"}")
            .unwrap_err();
        assert!(err.contains("unknown driver"), "{err}");
        let err = Event::parse("{\"event\":\"shard_done\",\"shard\":1}").unwrap_err();
        assert!(err.contains("missing field `ok`"), "{err}");
    }
}
