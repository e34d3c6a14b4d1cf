//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself is not instrumented): name, start, end, parent
//! and the id of the campaign they belong to. Worker threads buffer
//! their spans locally and hand them over when their phase ends, so the
//! only shared state touched per run is the span-id counter.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use swifi_campaign::SessionStats;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer (ids start at 1).
    pub id: u32,
    /// The enclosing span's id; 0 for a top-level span.
    pub parent: u32,
    /// Id of the campaign the span belongs to.
    pub campaign: u32,
    /// Layer-qualified call name, e.g. `session.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Shared span sink and clock.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Allocate a span id.
    pub fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Hand finished spans to the sink.
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans.lock().expect("span sink").extend(spans);
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u32,
        campaign: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.id();
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.extend([Span {
            id,
            parent,
            campaign,
            name,
            start_ns,
            end_ns,
        }]);
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span sink").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Which execution strategy answered one `RunSession::run` call, read
/// from the `SessionStats` delta around the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RunPath {
    /// Executed from the clean snapshot.
    Full,
    /// Resumed from a cached prefix snapshot.
    Fork,
    /// Ran the prefix, captured a snapshot, and continued.
    Capture,
    /// Answered dormant without executing.
    DormantSkip,
    /// Answered by an outcome-equivalence class without executing.
    Collapse,
    /// Paid for a def-use-traced clean run before answering.
    Trace,
}

impl RunPath {
    /// Every path, in report order.
    pub const ALL: [RunPath; 6] = [
        RunPath::Full,
        RunPath::Fork,
        RunPath::Capture,
        RunPath::DormantSkip,
        RunPath::Collapse,
        RunPath::Trace,
    ];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            RunPath::Full => "full",
            RunPath::Fork => "fork",
            RunPath::Capture => "capture",
            RunPath::DormantSkip => "dormant_skip",
            RunPath::Collapse => "collapse",
            RunPath::Trace => "trace",
        }
    }

    /// Classify one run from the counters before and after it. A run
    /// that traced is a trace run whatever answered it afterwards; the
    /// remaining counters are mutually exclusive per run.
    pub fn classify(before: &SessionStats, after: &SessionStats) -> RunPath {
        if after.prune_trace_runs > before.prune_trace_runs {
            RunPath::Trace
        } else if after.prefix_snapshots_built > before.prefix_snapshots_built {
            RunPath::Capture
        } else if after.prefix_fork_hits > before.prefix_fork_hits {
            RunPath::Fork
        } else if after.prune_collapse_hits > before.prune_collapse_hits {
            RunPath::Collapse
        } else if after.prune_dormant_skips > before.prune_dormant_skips
            || after.prefix_dormant_short_circuits > before.prefix_dormant_short_circuits
        {
            RunPath::DormantSkip
        } else {
            RunPath::Full
        }
    }
}

/// Nanoseconds of `spans` covered by the union of their intervals.
pub fn covered_ns(spans: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of `span`: its duration minus the part its children cover.
pub fn self_ns(span: &Span, all: &[Span]) -> u64 {
    let children: Vec<Span> = all
        .iter()
        .filter(|s| s.parent == span.id)
        .copied()
        .collect();
    span.dur_ns().saturating_sub(covered_ns(&children))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            campaign: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn coverage_merges_overlapping_intervals() {
        let spans = [span(1, 0, 0, 10), span(2, 0, 5, 15), span(3, 0, 20, 25)];
        assert_eq!(covered_ns(&spans), 20);
        assert_eq!(covered_ns(&[]), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let all = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50)];
        assert_eq!(self_ns(&all[0], &all), 60);
        assert_eq!(self_ns(&all[1], &all), 20);
    }

    #[test]
    fn a_trace_run_wins_over_the_answer_that_follows_it() {
        let before = SessionStats::default();
        let mut after = before;
        after.prune_trace_runs = 1;
        after.prune_dormant_skips = 1;
        assert_eq!(RunPath::classify(&before, &after), RunPath::Trace);
        after.prune_trace_runs = 0;
        assert_eq!(RunPath::classify(&before, &after), RunPath::DormantSkip);
        assert_eq!(RunPath::classify(&before, &before), RunPath::Full);
    }
}
