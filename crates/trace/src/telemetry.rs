//! The telemetry hub: one shared [`Telemetry`] per campaign, one
//! [`WorkerTelemetry`] per worker thread.
//!
//! Ownership is arranged so the run path never takes a lock: workers
//! append events to a private buffer and accumulate metrics/profile
//! samples in private structures, and everything drains into the shared
//! hub either when a buffer fills or when the worker retires (its
//! [`WorkerTelemetry`] drops — including the retire-on-panic path, where
//! the engine keeps worker state alive precisely so counters survive).
//! The hub's locks are touched once per flush, not once per event.
//!
//! When a pillar is disabled its record calls reduce to a flag test; the
//! campaign session additionally guards its instrumentation behind one
//! `Option` check per *run*, so disabled telemetry costs one pointer test
//! per run (the engine bench's `default` rung in `BENCH_engine.json`).

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Value;

use crate::event::{arg_str, TraceEvent};
use crate::metrics::{register_run_histograms, MetricsRegistry};
use crate::profile::{PcHistogram, DEFAULT_SAMPLE_EVERY};

/// Which telemetry pillars are live for a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Collect structured trace events (`--trace-out`).
    pub trace: bool,
    /// Accumulate the metrics registry (`--metrics-out`).
    pub metrics: bool,
    /// Sample guest PCs (`--profile` / `--profile-out`).
    pub profile: bool,
}

impl TelemetryConfig {
    /// Whether any pillar is enabled (a fully-disabled config is
    /// represented as *no* telemetry object at all in the campaign
    /// options, so the run path pays a single `Option` test).
    pub fn any(&self) -> bool {
        self.trace || self.metrics || self.profile
    }
}

/// Worker buffers flush to the hub when they reach this many events.
const FLUSH_AT: usize = 4096;

/// The engine/driver lane in exported traces; workers get 1, 2, ...
pub const ENGINE_TID: u64 = 0;

/// The shared, campaign-wide telemetry hub.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    metrics: Mutex<MetricsRegistry>,
    merge_errors: Mutex<Vec<String>>,
    profile: Mutex<PcHistogram>,
    next_tid: AtomicU64,
}

impl Telemetry {
    /// A hub with the given pillars enabled, epoch = now.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        let mut metrics = MetricsRegistry::new();
        if config.metrics {
            register_run_histograms(&mut metrics);
        }
        Telemetry {
            config,
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            metrics: Mutex::new(metrics),
            merge_errors: Mutex::new(Vec::new()),
            profile: Mutex::new(PcHistogram::new()),
            next_tid: AtomicU64::new(ENGINE_TID + 1),
        }
    }

    /// Shorthand for `Arc::new(Telemetry::new(config))`.
    pub fn shared(config: TelemetryConfig) -> Arc<Telemetry> {
        Arc::new(Telemetry::new(config))
    }

    /// The active configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Microseconds since the hub was created (the trace epoch).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a per-worker accumulator on its own trace lane.
    pub fn worker(self: &Arc<Self>) -> WorkerTelemetry {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let mut metrics = MetricsRegistry::new();
        if self.config.metrics {
            register_run_histograms(&mut metrics);
        }
        WorkerTelemetry {
            shared: Arc::clone(self),
            tid,
            buf: Vec::new(),
            metrics,
            profile: PcHistogram::new(),
        }
    }

    /// Emit one event on the engine lane (phase spans, checkpoint
    /// flushes, worker panics). No-op when tracing is off.
    pub fn engine_event(&self, event: TraceEvent) {
        if self.config.trace {
            self.events.lock().unwrap().push(event);
        }
    }

    /// Instant on the engine lane at the current time.
    pub fn engine_instant(&self, name: &str, args: Vec<(String, Value)>) {
        if self.config.trace {
            let e = TraceEvent::instant(name, self.now_us(), ENGINE_TID, args);
            self.events.lock().unwrap().push(e);
        }
    }

    /// Bulk-append a worker's drained buffer.
    fn absorb_events(&self, mut events: Vec<TraceEvent>) {
        if self.config.trace && !events.is_empty() {
            self.events.lock().unwrap().append(&mut events);
        }
    }

    /// Mutate the shared metrics registry (used by the exporter to set
    /// campaign-level gauges before snapshotting).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut self.metrics.lock().unwrap())
    }

    /// Merge an external registry (a retiring worker's accumulator, or a
    /// shard process's reported snapshot) into the hub. A bucket-bound
    /// mismatch is recorded as a merge error and a `metrics_merge_error`
    /// trace instant instead of aborting the campaign; the mismatched
    /// registry's histograms are dropped, its counters/gauges land.
    pub fn absorb_metrics(&self, other: &MetricsRegistry) {
        let result = self.metrics.lock().unwrap().merge(other);
        if let Err(msg) = result {
            self.engine_instant("metrics_merge_error", vec![arg_str("error", &msg)]);
            self.merge_errors.lock().unwrap().push(msg);
        }
    }

    /// Drain the metrics-merge errors recorded so far (the campaign layer
    /// surfaces these as abnormal records).
    pub fn take_merge_errors(&self) -> Vec<String> {
        std::mem::take(&mut self.merge_errors.lock().unwrap())
    }

    /// Snapshot the merged metrics registry as pretty JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics.lock().unwrap().to_json()
    }

    /// Snapshot the merged PC histogram.
    pub fn profile_snapshot(&self) -> PcHistogram {
        self.profile.lock().unwrap().clone()
    }

    /// Number of events collected so far (drained worker buffers only).
    pub fn event_count(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Render every collected event as a Chrome trace-event JSON array,
    /// one event per line (strictly valid JSON *and* line-parseable),
    /// sorted by timestamp so the file streams in Perfetto order.
    ///
    /// Hub order is *not* monotonic — a retiring worker's buffered events
    /// drain after later-timestamped events from surviving workers — so
    /// every export path funnels through [`crate::merge::render_events`],
    /// the single place that sorts.
    pub fn render_chrome_trace(&self) -> String {
        let events = self.events.lock().unwrap().clone();
        crate::merge::render_events(events)
    }

    /// Write the Chrome trace to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error message.
    pub fn write_chrome_trace(&self, path: &Path) -> Result<(), String> {
        let mut f = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        f.write_all(self.render_chrome_trace().as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// A worker thread's private telemetry accumulator.
///
/// All record methods are lock-free; everything drains to the shared hub
/// on buffer overflow and on drop (worker retirement).
#[derive(Debug)]
pub struct WorkerTelemetry {
    shared: Arc<Telemetry>,
    tid: u64,
    buf: Vec<TraceEvent>,
    metrics: MetricsRegistry,
    profile: PcHistogram,
}

impl WorkerTelemetry {
    /// This worker's trace lane.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Microseconds since the campaign epoch.
    pub fn now_us(&self) -> u64 {
        self.shared.now_us()
    }

    /// Whether trace events are being collected.
    pub fn trace_enabled(&self) -> bool {
        self.shared.config.trace
    }

    /// Whether the metrics registry is live.
    pub fn metrics_enabled(&self) -> bool {
        self.shared.config.metrics
    }

    /// Whether guest-PC sampling is on.
    pub fn profile_enabled(&self) -> bool {
        self.shared.config.profile
    }

    /// The sampling histogram and the slow-path period
    /// [`DEFAULT_SAMPLE_EVERY`], for wiring a
    /// [`crate::profile::ProfiledInspector`] around an inner inspector.
    pub fn profiler(&mut self) -> (&mut PcHistogram, u32) {
        (&mut self.profile, DEFAULT_SAMPLE_EVERY)
    }

    /// Buffer an instant event on this worker's lane.
    pub fn instant(&mut self, name: &str, args: Vec<(String, Value)>) {
        if self.shared.config.trace {
            let e = TraceEvent::instant(name, self.shared.now_us(), self.tid, args);
            self.push(e);
        }
    }

    /// Buffer a completed span that started at `start_us` and ends now.
    pub fn complete(&mut self, name: &str, start_us: u64, args: Vec<(String, Value)>) {
        if self.shared.config.trace {
            let now = self.shared.now_us();
            let e =
                TraceEvent::complete(name, start_us, now.saturating_sub(start_us), self.tid, args);
            self.push(e);
        }
    }

    fn push(&mut self, e: TraceEvent) {
        self.buf.push(e);
        if self.buf.len() >= FLUSH_AT {
            self.shared.absorb_events(std::mem::take(&mut self.buf));
        }
    }

    /// Add to a named counter (no-op when metrics are off).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if self.shared.config.metrics {
            self.metrics.counter_add(name, delta);
        }
    }

    /// Observe into a named histogram (no-op when metrics are off).
    pub fn observe(&mut self, name: &str, v: f64) {
        if self.shared.config.metrics {
            self.metrics.observe(name, v);
        }
    }
}

impl Drop for WorkerTelemetry {
    fn drop(&mut self) {
        if self.shared.config.trace {
            let e = TraceEvent::instant(
                "worker_retire",
                self.shared.now_us(),
                self.tid,
                vec![arg_str("reason", "drop")],
            );
            self.buf.push(e);
        }
        self.shared.absorb_events(std::mem::take(&mut self.buf));
        if self.shared.config.metrics {
            let mine = std::mem::take(&mut self.metrics);
            self.shared.absorb_metrics(&mine);
        }
        if self.shared.config.profile && self.profile.total() > 0 {
            let hist = std::mem::take(&mut self.profile);
            self.shared.profile.lock().unwrap().merge(&hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::arg_u64;
    use crate::metrics::{names, Histogram};

    fn all_on() -> TelemetryConfig {
        TelemetryConfig {
            trace: true,
            metrics: true,
            profile: true,
        }
    }

    #[test]
    fn worker_events_drain_on_drop() {
        let hub = Telemetry::shared(all_on());
        {
            let mut w = hub.worker();
            w.instant("fork_hit", vec![arg_u64("pc", 0x1000)]);
            w.complete("run", w.now_us(), vec![]);
            assert_eq!(hub.event_count(), 0, "buffered, not yet drained");
        }
        // Two buffered events plus the worker_retire marker.
        assert_eq!(hub.event_count(), 3);
    }

    #[test]
    fn worker_metrics_and_profile_merge_on_drop() {
        let hub = Telemetry::shared(all_on());
        {
            let mut w = hub.worker();
            w.counter_add("runs", 2);
            w.observe(names::RUN_LATENCY_US, 5.0);
            let (hist, every) = w.profiler();
            assert_eq!(every, DEFAULT_SAMPLE_EVERY);
            hist.record(0x1000, 4);
        }
        assert_eq!(hub.with_metrics(|m| m.counter("runs")), 2);
        assert_eq!(
            hub.with_metrics(|m| m.histogram(names::RUN_LATENCY_US).unwrap().count()),
            1
        );
        assert_eq!(hub.profile_snapshot().total(), 4);
    }

    #[test]
    fn disabled_pillars_record_nothing() {
        let hub = Telemetry::shared(TelemetryConfig::default());
        {
            let mut w = hub.worker();
            w.instant("fork_hit", vec![]);
            w.counter_add("runs", 1);
            w.observe(names::RUN_LATENCY_US, 1.0);
        }
        assert_eq!(hub.event_count(), 0);
        assert_eq!(hub.with_metrics(|m| m.counter("runs")), 0);
        assert_eq!(hub.profile_snapshot().total(), 0);
    }

    #[test]
    fn workers_get_distinct_lanes() {
        let hub = Telemetry::shared(all_on());
        let a = hub.worker();
        let b = hub.worker();
        assert_ne!(a.tid(), b.tid());
        assert_ne!(a.tid(), ENGINE_TID);
    }

    #[test]
    fn chrome_render_is_valid_json_sorted_by_ts() {
        let hub = Telemetry::shared(all_on());
        hub.engine_event(TraceEvent::instant(
            "checkpoint_flush",
            50,
            ENGINE_TID,
            vec![],
        ));
        hub.engine_event(TraceEvent::complete(
            "phase:assign",
            10,
            90,
            ENGINE_TID,
            vec![],
        ));
        let text = hub.render_chrome_trace();
        let v: Value = serde_json::from_str(&text).expect("strict JSON");
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        // Sorted: the ts=10 span precedes the ts=50 instant.
        let first = arr[0].as_object().unwrap();
        let name = first.iter().find(|(k, _)| k == "name").unwrap().1.clone();
        assert_eq!(name, Value::Str("phase:assign".into()));
        // One event per line between the brackets.
        assert_eq!(text.lines().count(), 2 + arr.len());
    }

    #[test]
    fn mismatched_registry_becomes_merge_error_not_panic() {
        let hub = Telemetry::shared(all_on());
        let mut bad = MetricsRegistry::new();
        bad.counter_add("runs", 1);
        bad.register_histogram(names::RUN_LATENCY_US, Histogram::new(vec![123.0]));
        hub.absorb_metrics(&bad);

        let errs = hub.take_merge_errors();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains(names::RUN_LATENCY_US), "{}", errs[0]);
        // Counters landed before the histogram mismatch; the error store
        // drains exactly once; the engine lane got a trace instant.
        assert_eq!(hub.with_metrics(|m| m.counter("runs")), 1);
        assert!(hub.take_merge_errors().is_empty());
        assert!(hub.render_chrome_trace().contains("metrics_merge_error"));
    }

    #[test]
    fn big_buffers_flush_before_drop() {
        let hub = Telemetry::shared(all_on());
        let mut w = hub.worker();
        for _ in 0..FLUSH_AT {
            w.instant("fork_hit", vec![]);
        }
        assert_eq!(hub.event_count(), FLUSH_AT, "cap flush happened");
        drop(w);
        assert_eq!(hub.event_count(), FLUSH_AT + 1, "retire marker");
    }
}
