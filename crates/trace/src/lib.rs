//! Campaign observability for the SWIFI reproduction: three pillars, all
//! compiled down to a no-op when disabled.
//!
//! 1. **Structured event tracing** ([`event`], [`telemetry`]) — spans for
//!    campaign → phase → run and instants for the injection lifecycle
//!    (fault arm, trigger fire, watchdog hang), the run planner (fork
//!    hit, capture miss, never-arrives replay, traced run, dormancy
//!    proof), block translation, and the engine (checkpoint flush,
//!    worker panic/retire). Events
//!    buffer per worker — no locks on the run path — and export as a
//!    Chrome trace-event JSON array, one event per line, loadable
//!    directly in `chrome://tracing` and Perfetto.
//! 2. **A metrics registry** ([`metrics`]) — counters, gauges, and
//!    fixed-bucket histograms (run latency, retired instructions per
//!    run) merged across workers and snapshotted to `--metrics-out`.
//! 3. **A guest hot-PC profiler** ([`profile`]) — weighted sampling on
//!    block retirement plus every-N slow-path sampling, attributed to
//!    guest functions via debug-info address ranges and rendered as a
//!    top-N table or collapsed stacks for flamegraph tooling.
//!
//! The disabled case is the design constraint (ZOFI's near-zero-probe
//! bar): a campaign without telemetry carries `None` instead of a hub,
//! so the per-run cost is one pointer test. The engine bench
//! (`BENCH_engine.json`) times the `default` rung beside the same
//! schedule with every pillar live (`default+telemetry`).
//! Telemetry never feeds report equality: the resume and sharding
//! oracles compare through `Throughput::equality_key` exactly as before.

pub mod event;
pub mod merge;
pub mod metrics;
pub mod profile;
pub mod telemetry;
pub mod validate;

pub use event::{arg_str, arg_u64, TraceEvent};
pub use merge::{merge_shard_events, parse_chrome_trace, render_events};
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{
    attribute, collapsed_stacks, top_table, FuncRange, FuncSamples, PcHistogram, ProfiledInspector,
};
pub use telemetry::{Telemetry, TelemetryConfig, WorkerTelemetry, ENGINE_TID};
pub use validate::{validate_chrome_trace, TraceSummary};
