//! Structured trace events in the Chrome trace-event data model.
//!
//! Every event renders to one JSON object compatible with the Trace Event
//! Format consumed by `chrome://tracing` and Perfetto: `name`, a phase
//! letter `ph` (`"X"` complete span with `dur`, `"i"` instant), a
//! microsecond timestamp `ts` relative to the campaign epoch, and
//! `pid`/`tid` lane identifiers. Campaign-specific payloads ride in
//! `args`. The exporter (see [`crate::telemetry::Telemetry`]) writes one
//! event per line so the file doubles as JSONL for line-oriented tooling.

use serde::Value;

/// The process id used for every lane: the whole campaign is one process.
pub const TRACE_PID: u64 = 1;

/// One Chrome trace event.
///
/// Construct through [`TraceEvent::complete`] / [`TraceEvent::instant`];
/// render with [`TraceEvent::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (`run`, `fork_hit`, `phase:assign`, ...).
    pub name: String,
    /// Chrome phase letter: `'X'` complete span, `'i'` instant.
    pub ph: char,
    /// Microseconds since the campaign epoch.
    pub ts: u64,
    /// Span duration in microseconds (only rendered for `'X'` events).
    pub dur: u64,
    /// Lane: worker index as allocated by the telemetry hub, 0 = engine.
    pub tid: u64,
    /// Event payload, rendered as the Chrome `args` object.
    pub args: Vec<(String, Value)>,
}

impl TraceEvent {
    /// A completed span (`ph = "X"`): `[ts, ts + dur]` on lane `tid`.
    pub fn complete(
        name: impl Into<String>,
        ts: u64,
        dur: u64,
        tid: u64,
        args: Vec<(String, Value)>,
    ) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            ph: 'X',
            ts,
            dur,
            tid,
            args,
        }
    }

    /// A zero-duration instant (`ph = "i"`, thread scope) on lane `tid`.
    pub fn instant(
        name: impl Into<String>,
        ts: u64,
        tid: u64,
        args: Vec<(String, Value)>,
    ) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            ph: 'i',
            ts,
            dur: 0,
            tid,
            args,
        }
    }

    /// Render as one Chrome trace-event JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut obj = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("ph".to_string(), Value::Str(self.ph.to_string())),
            ("ts".to_string(), Value::U64(self.ts)),
            ("pid".to_string(), Value::U64(TRACE_PID)),
            ("tid".to_string(), Value::U64(self.tid)),
        ];
        if self.ph == 'X' {
            obj.push(("dur".to_string(), Value::U64(self.dur)));
        }
        if self.ph == 'i' {
            // Chrome requires a scope for instants; "t" pins the tick to
            // its thread lane instead of a process-wide line.
            obj.push(("s".to_string(), Value::Str("t".to_string())));
        }
        if !self.args.is_empty() {
            obj.push(("args".to_string(), Value::Object(self.args.clone())));
        }
        serde_json::to_string(&Value::Object(obj)).expect("trace events always serialize")
    }

    /// Parse an event back out of its [`TraceEvent::to_json`] object (the
    /// shard→hub direction: merging per-shard trace files into one
    /// campaign view).
    ///
    /// # Errors
    ///
    /// Reports the first missing or malformed field.
    pub fn from_value(v: &Value) -> Result<TraceEvent, String> {
        let obj = v.as_object().ok_or("trace event is not an object")?;
        let get = |k: &str| obj.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let name = match get("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("trace event missing string `name`".to_string()),
        };
        let ph = match get("ph") {
            Some(Value::Str(s)) if s.len() == 1 => s.chars().next().unwrap(),
            _ => return Err(format!("trace event `{name}` missing 1-char `ph`")),
        };
        let uint = |k: &str| match get(k) {
            Some(Value::U64(u)) => Ok(*u),
            Some(Value::I64(i)) if *i >= 0 => Ok(*i as u64),
            None => Err(format!("trace event `{name}` missing `{k}`")),
            _ => Err(format!("trace event `{name}` has non-integer `{k}`")),
        };
        let ts = uint("ts")?;
        let tid = uint("tid")?;
        let dur = if ph == 'X' { uint("dur")? } else { 0 };
        let args = match get("args") {
            Some(Value::Object(fields)) => fields.clone(),
            Some(_) => return Err(format!("trace event `{name}` has non-object `args`")),
            None => Vec::new(),
        };
        Ok(TraceEvent {
            name,
            ph,
            ts,
            dur,
            tid,
            args,
        })
    }
}

/// Convenience for building `args` payloads: an unsigned numeric field.
pub fn arg_u64(name: &str, v: u64) -> (String, Value) {
    (name.to_string(), Value::U64(v))
}

/// Convenience for building `args` payloads: a string field.
pub fn arg_str(name: &str, v: impl Into<String>) -> (String, Value) {
    (name.to_string(), Value::Str(v.into()))
}

/// The event names the tracing layer emits, in one place so the schema
/// validator (`swifi trace-validate`) and the emitters cannot drift.
pub const EVENT_NAMES: &[&str] = &[
    // Spans.
    "campaign",
    "phase",
    "run",
    "golden_pass",
    // Injection lifecycle instants.
    "fault_arm",
    "trigger_fire",
    "watchdog_hang",
    // Prefix-fork cache instants.
    "fork_hit",
    "fork_miss",
    "dormant_short_circuit",
    "golden_hit",
    // Block-translation instants.
    "block_translate",
    "block_invalidate",
    // Engine instants.
    "checkpoint_flush",
    "worker_panic",
    "worker_retire",
    "metrics_merge_error",
    // Service-boundary instants (shard lifecycle on the server).
    "shard_spawn",
    "shard_done",
    "shard_merge",
];

/// Whether `name` is a known schema event. Phase spans embed the phase
/// name for readable Perfetto labels (`phase:assign`), so any
/// `phase:`-prefixed name is part of the schema.
pub fn known_event(name: &str) -> bool {
    EVENT_NAMES.contains(&name) || name.starts_with("phase:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_event_renders_chrome_fields() {
        let e = TraceEvent::complete("run", 12, 34, 3, vec![arg_u64("retired", 99)]);
        let json = e.to_json();
        let v: Value = serde_json::from_str(&json).unwrap();
        let obj = v.as_object().unwrap();
        let get = |k: &str| obj.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(get("name"), Some(Value::Str("run".into())));
        assert_eq!(get("ph"), Some(Value::Str("X".into())));
        assert_eq!(get("ts"), Some(Value::U64(12)));
        assert_eq!(get("dur"), Some(Value::U64(34)));
        assert_eq!(get("pid"), Some(Value::U64(TRACE_PID)));
        assert_eq!(get("tid"), Some(Value::U64(3)));
        let args = get("args").unwrap();
        let args = args.as_object().unwrap();
        assert_eq!(args[0], ("retired".to_string(), Value::U64(99)));
    }

    #[test]
    fn instant_event_has_thread_scope_and_no_dur() {
        let e = TraceEvent::instant("fork_hit", 5, 1, vec![]);
        let json = e.to_json();
        assert!(json.contains("\"s\":\"t\""), "{json}");
        assert!(!json.contains("dur"), "{json}");
    }

    #[test]
    fn schema_covers_all_emitted_names() {
        assert!(known_event("run"));
        assert!(known_event("watchdog_hang"));
        assert!(known_event("metrics_merge_error"));
        assert!(known_event("shard_merge"));
        assert!(!known_event("made_up"));
    }

    #[test]
    fn events_round_trip_through_json() {
        let span = TraceEvent::complete("run", 12, 34, 3, vec![arg_u64("retired", 99)]);
        let instant = TraceEvent::instant("fork_hit", 5, 1, vec![arg_str("why", "x")]);
        for e in [span, instant] {
            let v: Value = serde_json::from_str(&e.to_json()).unwrap();
            assert_eq!(TraceEvent::from_value(&v).unwrap(), e);
        }
    }

    #[test]
    fn from_value_rejects_malformed_events() {
        let bad: Value = serde_json::from_str(r#"{"ph":"i","ts":1,"tid":0}"#).unwrap();
        assert!(TraceEvent::from_value(&bad).unwrap_err().contains("name"));
        let bad: Value = serde_json::from_str(r#"{"name":"run","ph":"X","ts":1,"tid":0}"#).unwrap();
        assert!(TraceEvent::from_value(&bad).unwrap_err().contains("dur"));
    }
}
