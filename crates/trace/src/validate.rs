//! Schema validation for exported traces (`swifi trace-validate`,
//! `scripts/trace_smoke.sh`).
//!
//! The exporter writes a strictly valid Chrome trace-event JSON array
//! with one event per line; the validator checks both readings — the
//! whole file parses as a JSON array, and each line parses on its own
//! (after stripping the array brackets and separators) — plus the event
//! schema: the required Chrome fields, read by [`TraceEvent::from_value`]
//! (the reader shard merge uses too), known event names, and the
//! structural expectations a campaign trace must meet.

use serde::Value;

use crate::event::{known_event, TraceEvent};

/// What a validated trace contained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events in the file.
    pub events: usize,
    /// Completed spans (`ph == "X"`).
    pub spans: usize,
    /// Instants (`ph == "i"`).
    pub instants: usize,
    /// `run` spans.
    pub runs: usize,
    /// `phase:*` spans.
    pub phases: usize,
    /// Distinct lanes (`tid`s) seen.
    pub lanes: usize,
}

/// Validate one event against what the reader does not decide: a known
/// name and a phase the exporter writes.
fn validate_event(
    e: &TraceEvent,
    line_no: usize,
    summary: &mut TraceSummary,
) -> Result<(), String> {
    if !known_event(&e.name) {
        return Err(format!("line {line_no}: unknown event name `{}`", e.name));
    }
    match e.ph {
        'X' => {
            summary.spans += 1;
            if e.name == "run" {
                summary.runs += 1;
            }
            if e.name.starts_with("phase:") {
                summary.phases += 1;
            }
        }
        'i' => summary.instants += 1,
        other => return Err(format!("line {line_no}: unsupported phase `{other}`")),
    }
    summary.events += 1;
    Ok(())
}

/// Validate an exported trace file's contents.
///
/// # Errors
///
/// Returns a message naming the first offending line when the file is
/// not a well-formed Chrome trace-event array, an event violates the
/// schema, or the trace lacks the structure every campaign trace has
/// (at least one `phase:*` span and one `run` span).
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    // Reading 1: the whole file is strict JSON.
    let whole: Value =
        serde_json::from_str(text).map_err(|e| format!("file is not valid JSON: {}", e.0))?;
    if whole.as_array().is_none() {
        return Err("top-level JSON value is not an array".to_string());
    }

    // Reading 2: line-oriented — brackets on their own lines, each event
    // parseable in isolation (what makes the file consumable as JSONL).
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, first) = lines.next().ok_or("empty trace file")?;
    if first.trim() != "[" {
        return Err(format!("first line must be `[`, got `{first}`"));
    }
    let mut summary = TraceSummary::default();
    let mut lanes = std::collections::BTreeSet::new();
    let mut closed = false;
    let mut prev_ts: Option<u64> = None;
    for (i, line) in lines {
        let line_no = i + 1;
        let trimmed = line.trim();
        if closed {
            return Err(format!("line {line_no}: content after closing `]`"));
        }
        if trimmed == "]" {
            closed = true;
            continue;
        }
        let event_src = trimmed.strip_suffix(',').unwrap_or(trimmed);
        let v: Value = serde_json::from_str(event_src)
            .map_err(|e| format!("line {line_no}: not a JSON object: {}", e.0))?;
        let event = TraceEvent::from_value(&v).map_err(|e| format!("line {line_no}: {e}"))?;
        validate_event(&event, line_no, &mut summary)?;
        lanes.insert(event.tid);
        // The exporter sorts by timestamp before rendering (late-drained
        // worker-retire buffers land out of hub order); reject files that
        // regress to unsorted output.
        let ts = event.ts;
        if let Some(prev) = prev_ts {
            if ts < prev {
                return Err(format!(
                    "line {line_no}: timestamp {ts} is out of order (previous event at {prev})"
                ));
            }
        }
        prev_ts = Some(ts);
    }
    if !closed {
        return Err("missing closing `]`".to_string());
    }
    summary.lanes = lanes.len();
    if summary.events == 0 {
        return Err("trace contains no events".to_string());
    }
    if summary.phases == 0 {
        return Err("trace contains no `phase:*` span".to_string());
    }
    if summary.runs == 0 {
        return Err("trace contains no `run` span".to_string());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::arg_u64;
    use crate::telemetry::{Telemetry, TelemetryConfig, ENGINE_TID};

    fn traced_hub() -> std::sync::Arc<Telemetry> {
        Telemetry::shared(TelemetryConfig {
            trace: true,
            ..TelemetryConfig::default()
        })
    }

    fn minimal_trace() -> String {
        let hub = traced_hub();
        hub.engine_event(TraceEvent::complete(
            "phase:assign",
            0,
            100,
            ENGINE_TID,
            vec![],
        ));
        {
            let mut w = hub.worker();
            w.complete("run", 10, vec![arg_u64("retired", 42)]);
            w.instant("fork_hit", vec![]);
        }
        hub.render_chrome_trace()
    }

    #[test]
    fn exporter_output_validates() {
        let text = minimal_trace();
        let summary = validate_chrome_trace(&text).unwrap();
        assert!(summary.events >= 3);
        assert_eq!(summary.phases, 1);
        assert_eq!(summary.runs, 1);
        assert!(summary.lanes >= 2, "engine lane + worker lane");
    }

    #[test]
    fn rejects_unknown_event_names() {
        let text =
            "[\n{\"name\":\"bogus\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":0,\"s\":\"t\"}\n]\n";
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("unknown event name"), "{err}");
    }

    #[test]
    fn rejects_span_without_dur() {
        let text = "[\n{\"name\":\"run\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":0}\n]\n";
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("dur"), "{err}");
    }

    #[test]
    fn rejects_traces_without_campaign_structure() {
        // Valid events, but no phase span.
        let text = "[\n{\"name\":\"run\",\"ph\":\"X\",\"ts\":1,\"dur\":1,\"pid\":1,\"tid\":0}\n]\n";
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("phase"), "{err}");
    }

    #[test]
    fn rejects_non_json() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }

    #[test]
    fn rejects_out_of_order_timestamps() {
        let text = concat!(
            "[\n",
            "{\"name\":\"phase:assign\",\"ph\":\"X\",\"ts\":50,\"dur\":1,\"pid\":1,\"tid\":0},\n",
            "{\"name\":\"run\",\"ph\":\"X\",\"ts\":10,\"dur\":1,\"pid\":1,\"tid\":1}\n",
            "]\n"
        );
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn late_drained_worker_events_export_sorted_and_validate() {
        // Worker A buffers early events but drains last (retires after B
        // has already flushed later-timestamped events) — the exporter
        // must still produce a monotonic file.
        let hub = traced_hub();
        hub.engine_event(TraceEvent::complete(
            "phase:assign",
            0,
            100,
            ENGINE_TID,
            vec![],
        ));
        let mut a = hub.worker();
        let mut b = hub.worker();
        a.complete("run", 0, vec![]); // early event, held in A's buffer
        b.complete("run", 0, vec![]);
        drop(b); // B's retire marker lands in the hub first...
        std::thread::sleep(std::time::Duration::from_millis(2));
        a.instant("fork_hit", vec![]); // ...then A records a later event
        drop(a); // and drains everything after B.
        let text = hub.render_chrome_trace();
        validate_chrome_trace(&text).unwrap();
    }
}
