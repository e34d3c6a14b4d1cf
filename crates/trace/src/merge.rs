//! Merging trace views across process boundaries.
//!
//! A sharded campaign produces one Chrome trace file per shard worker
//! process, each with its own lane numbering (engine = 0, workers = 1..)
//! and its own epoch. The server folds them into a single campaign view:
//! parse each file back into [`TraceEvent`]s, remap every shard's lanes
//! into a disjoint block so Perfetto shows one row per (shard, worker),
//! and render through the one sorting renderer shared with the in-process
//! exporter.
//!
//! Timestamps stay relative to each shard's own epoch — shards start
//! within milliseconds of each other and the merged view is read for
//! shape (phase spans, run density, retire markers), not for cross-shard
//! ordering guarantees. The renderer's timestamp sort keeps the merged
//! file monotonic, which [`crate::validate::validate_chrome_trace`]
//! enforces.

use serde::Value;

use crate::event::TraceEvent;

/// Render events as a Chrome trace-event JSON array, one event per line,
/// sorted by `(ts, tid)`.
///
/// This is the single sorting point for every export path — the hub's
/// event order is not monotonic (retiring workers drain buffered events
/// after later-timestamped events from surviving workers), and neither is
/// a concatenation of shard traces.
pub fn render_events(mut events: Vec<TraceEvent>) -> String {
    events.sort_by_key(|e| (e.ts, e.tid));
    let mut out = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(&e.to_json());
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Parse an exported Chrome trace (strict JSON array of event objects)
/// back into events.
///
/// # Errors
///
/// Reports JSON parse failures and the first malformed event.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let whole: Value =
        serde_json::from_str(text).map_err(|e| format!("trace is not valid JSON: {}", e.0))?;
    let arr = whole
        .as_array()
        .ok_or("top-level trace value is not an array")?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| TraceEvent::from_value(v).map_err(|e| format!("event {i}: {e}")))
        .collect()
}

/// Merge per-shard event lists into one campaign-wide list.
///
/// Lane remapping keeps shards visually and logically separate: with
/// `stride = max tid over all shards + 1`, shard `k`'s lane `t` becomes
/// `k * stride + t`, so shard 0 keeps its numbering and every other
/// shard's engine/worker lanes land in their own disjoint block.
pub fn merge_shard_events(shards: &[Vec<TraceEvent>]) -> Vec<TraceEvent> {
    let stride = shards
        .iter()
        .flatten()
        .map(|e| e.tid)
        .max()
        .map_or(1, |m| m + 1);
    let mut merged = Vec::with_capacity(shards.iter().map(Vec::len).sum());
    for (k, events) in shards.iter().enumerate() {
        for e in events {
            let mut e = e.clone();
            e.tid += k as u64 * stride;
            merged.push(e);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::arg_u64;
    use crate::validate::validate_chrome_trace;

    fn shard_events(base_ts: u64) -> Vec<TraceEvent> {
        vec![
            TraceEvent::complete("phase:assign", base_ts, 50, 0, vec![]),
            TraceEvent::complete("run", base_ts + 5, 10, 1, vec![arg_u64("retired", 9)]),
            TraceEvent::instant("worker_retire", base_ts + 40, 1, vec![]),
        ]
    }

    #[test]
    fn render_parses_back_to_the_same_events_sorted() {
        let mut events = shard_events(0);
        events.reverse(); // deliberately unsorted input
        let text = render_events(events.clone());
        let back = parse_chrome_trace(&text).unwrap();
        events.sort_by_key(|e| (e.ts, e.tid));
        assert_eq!(back, events);
    }

    #[test]
    fn merged_shards_get_disjoint_lanes_and_validate() {
        let shards = vec![shard_events(0), shard_events(3), shard_events(7)];
        let merged = merge_shard_events(&shards);
        assert_eq!(merged.len(), 9);
        // Max tid in any shard is 1, so the stride is 2: shard k's lanes
        // are {2k, 2k+1} and never collide across shards.
        let mut lanes: Vec<u64> = merged.iter().map(|e| e.tid).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes, vec![0, 1, 2, 3, 4, 5]);
        let text = render_events(merged);
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.runs, 3);
        assert_eq!(summary.phases, 3);
        assert_eq!(summary.lanes, 6);
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
        let err = parse_chrome_trace("[{\"ph\":\"i\",\"ts\":1,\"tid\":0}]").unwrap_err();
        assert!(err.contains("event 0"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// A valid exported trace, truncated at any byte (edit kind 0),
        /// byte-flipped (1) or with a line duplicated (2), parses to `Ok`
        /// or `Err` and never panics.
        #[test]
        fn parse_survives_damaged_traces(
            edits in proptest::collection::vec(
                (0u8..3, proptest::prelude::any::<usize>(), 1u8..=255),
                1..4,
            ),
        ) {
            let mut events = merge_shard_events(&[shard_events(0), shard_events(9)]);
            events[1].args.push(crate::event::arg_str("mode", "Crash \"x\"\n\u{e9}"));
            let mut bytes = render_events(events).into_bytes();
            for &(kind, at, mask) in &edits {
                let len = bytes.len();
                match kind {
                    0 => bytes.truncate(at % (len + 1)),
                    1 if len > 0 => bytes[at % len] ^= mask,
                    2 if len > 0 => {
                        let newline = |b: &u8| *b == b'\n';
                        let start = bytes[..at % len].iter().rposition(newline);
                        let start = start.map_or(0, |i| i + 1);
                        let end = bytes[start..].iter().position(newline);
                        let end = end.map_or(len, |i| start + i + 1);
                        let line = bytes[start..end].to_vec();
                        bytes.splice(end..end, line);
                    }
                    _ => {}
                }
            }
            let _ = parse_chrome_trace(&String::from_utf8_lossy(&bytes));
        }
    }
}
