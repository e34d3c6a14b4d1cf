//! The warm-reboot run engine: snapshot/restore machine lifecycle unified
//! behind a [`RunSession`].
//!
//! The paper's methodology demands that "the target system is rebooted
//! between injections to assure a clean state". The seed implementation
//! honoured that by building a fresh [`Machine`] per run — zeroing
//! 512 KiB of guest memory, re-copying the image, and recompiling the
//! injector's trigger tables tens of thousands of times per campaign.
//!
//! A `RunSession` keeps the reboot *semantics* while dropping the cost:
//!
//! 1. build the machine and [`Machine::load`] the program **once**;
//! 2. take a [`MachineSnapshot`](swifi_vm::MachineSnapshot) of the clean
//!    post-load state **once**;
//! 3. for every run: [`Machine::restore`] (copies only the pages the
//!    previous run dirtied), re-arm the injector with
//!    [`Injector::reset`], and run.
//!
//! The campaign drivers hold **one session per worker thread, not one per
//! run** (see [`crate::pool::parallel_map_resilient`]); the equivalence of a
//! restored machine and a freshly booted one is a tested invariant (VM
//! unit tests plus the property suite in `tests/fault_injection_properties.rs`),
//! which is exactly what licenses the reuse.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use swifi_core::fault::FaultSpec;
use swifi_core::injector::{Injector, TriggerMode};
use swifi_lang::Program;
use swifi_programs::input::TestInput;
use swifi_programs::Family;
use swifi_trace::event::{arg_str, arg_u64};
use swifi_trace::metrics::names as metric_names;
use swifi_trace::{ProfiledInspector, WorkerTelemetry};
use swifi_vm::inspect::Inspector;
use swifi_vm::machine::{FetchStop, FetchWatch, Machine, MachineSnapshot, RunOutcome};
use swifi_vm::Noop;

use crate::plan::{self, RunPlan};
use crate::prefix::{GoldenRun, PrefixCache};
use crate::runner::{campaign_config, classify_outcome, FailureMode, ModeCounts};

/// Per-session run counters, folded into a campaign-level [`Throughput`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Total runs executed by this session (clean + injected).
    pub runs: u64,
    /// Runs that had a fault set armed.
    pub injected_runs: u64,
    /// Injected runs where at least one fault fired.
    pub fired_runs: u64,
    /// Injected runs where no fault fired (dormant faults).
    pub dormant_runs: u64,
    /// Times the injector had to be rebuilt because the fault set changed
    /// (diagnostic: a low number means the reset fast path is working).
    pub injector_rebuilds: u64,
    /// Guest instructions retired across all runs (the numerator of the
    /// campaign's instructions-per-second figure).
    pub retired_instrs: u64,
    /// Translation-cache lines decoded by this session's machine.
    pub decode_lines_built: u64,
    /// Translation-cache lines invalidated by writes into the code region
    /// (injector patches, guest stores, warm-reboot restores).
    pub decode_invalidations: u64,
    /// Instructions that took the slow fetch→`on_fetch`→decode path
    /// (armed PCs, reference mode, PCs outside the cached code region).
    pub slow_fetches: u64,
    /// Rungs (fork snapshots) this session stored, at golden-pass pauses
    /// and in capture runs.
    pub prefix_snapshots_built: u64,
    /// Injected runs resumed from a cached prefix snapshot.
    pub prefix_fork_hits: u64,
    /// Guest instructions *not* executed thanks to the prefix cache
    /// (forked-over prefixes, memoized golden runs, replayed injected
    /// runs). Disjoint from `retired_instrs`, which counts only
    /// instructions actually executed.
    pub prefix_instrs_skipped: u64,
    /// Injected runs answered by the planner's never-arrives verdict (the
    /// golden run reaches the trigger fewer times than the fault's firing
    /// occurrence), without executing anything.
    pub prefix_dormant_short_circuits: u64,
    /// Clean runs answered from the memoized golden run.
    pub prefix_golden_hits: u64,
    /// Golden passes made: clean runs pausing at the first arrival of
    /// every watched trigger PC to store rungs.
    pub prefix_golden_passes: u64,
    /// Basic blocks translated by this session's machine.
    pub blocks_built: u64,
    /// Dispatches answered by executing a whole translated block.
    pub block_hits: u64,
    /// Guest instructions retired from inside translated blocks
    /// (a subset of `retired_instrs`).
    pub block_instrs: u64,
    /// Block-mode dispatches that fell back to per-instruction execution
    /// (untranslatable or pinned words, nearly-exhausted quanta).
    pub block_fallbacks: u64,
    /// Translated blocks discarded because a write touched their words.
    pub block_invalidations: u64,
    /// Always 0, and has no effect until the next benchmark change drops
    /// it: the benchmark harness still reads it.
    pub prune_trace_runs: u64,
    /// Always 0, and has no effect until the next benchmark change drops
    /// it: the benchmark harness still reads it.
    pub prune_dormant_skips: u64,
    /// Always 0, and has no effect until the next benchmark change drops
    /// it: the benchmark harness still reads it.
    pub prune_collapse_hits: u64,
}

impl SessionStats {
    /// Fold another session's counters in.
    pub fn merge(&mut self, other: &SessionStats) {
        self.runs += other.runs;
        self.injected_runs += other.injected_runs;
        self.fired_runs += other.fired_runs;
        self.dormant_runs += other.dormant_runs;
        self.injector_rebuilds += other.injector_rebuilds;
        self.retired_instrs += other.retired_instrs;
        self.decode_lines_built += other.decode_lines_built;
        self.decode_invalidations += other.decode_invalidations;
        self.slow_fetches += other.slow_fetches;
        self.prefix_snapshots_built += other.prefix_snapshots_built;
        self.prefix_fork_hits += other.prefix_fork_hits;
        self.prefix_instrs_skipped += other.prefix_instrs_skipped;
        self.prefix_dormant_short_circuits += other.prefix_dormant_short_circuits;
        self.prefix_golden_hits += other.prefix_golden_hits;
        self.prefix_golden_passes += other.prefix_golden_passes;
        self.blocks_built += other.blocks_built;
        self.block_hits += other.block_hits;
        self.block_instrs += other.block_instrs;
        self.block_fallbacks += other.block_fallbacks;
        self.block_invalidations += other.block_invalidations;
    }
}

/// Aggregate campaign throughput: run counts plus wall-clock, surfaced in
/// reports and the `swifi campaign` command.
///
/// `PartialEq` compares through [`Throughput::equality_key`], which
/// deliberately **ignores** `elapsed_secs` and the engine-level counters
/// (`retired_instrs`, `decode_*`, `slow_fetches`, `prefix_*`,
/// `block_*`): two campaigns with identical seeds must compare equal
/// even though their wall-clock differs, their sessions split the work
/// (and hence the per-worker caches) differently, and the prefix-fork
/// and block caches may or may not be enabled — the seed-determinism
/// and on/off equivalence tests rely on this.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Throughput {
    /// Total runs executed.
    pub runs: u64,
    /// Injected runs where the fault fired.
    pub fired_runs: u64,
    /// Injected runs where the fault stayed dormant.
    pub dormant_runs: u64,
    /// Wall-clock seconds for the measured region.
    pub elapsed_secs: f64,
    /// Guest instructions retired across all runs.
    pub retired_instrs: u64,
    /// Translation-cache lines decoded across all sessions.
    pub decode_lines_built: u64,
    /// Translation-cache lines invalidated across all sessions.
    pub decode_invalidations: u64,
    /// Instructions executed via the slow fetch path across all sessions.
    pub slow_fetches: u64,
    /// Rungs stored across all sessions.
    pub prefix_snapshots_built: u64,
    /// Injected runs resumed from a cached prefix snapshot.
    pub prefix_fork_hits: u64,
    /// Guest instructions skipped by the prefix cache (not part of
    /// `retired_instrs`).
    pub prefix_instrs_skipped: u64,
    /// Injected runs answered by the never-arrives verdict.
    pub prefix_dormant_short_circuits: u64,
    /// Clean runs answered from the memoized golden run.
    pub prefix_golden_hits: u64,
    /// Golden passes made across all sessions.
    pub prefix_golden_passes: u64,
    /// The most bytes the prefix cache held at once (rungs and memos).
    pub prefix_peak_bytes: u64,
    /// Basic blocks translated across all sessions.
    pub blocks_built: u64,
    /// Dispatches answered by executing a whole translated block.
    pub block_hits: u64,
    /// Guest instructions retired from inside translated blocks.
    pub block_instrs: u64,
    /// Block-mode dispatches that fell back to per-instruction execution.
    pub block_fallbacks: u64,
    /// Translated blocks discarded by code writes.
    pub block_invalidations: u64,
    /// Always 0, and has no effect until the next benchmark change drops
    /// it: the benchmark harness still reads it.
    pub prune_sample_mispredicts: u64,
}

impl PartialEq for Throughput {
    fn eq(&self, other: &Throughput) -> bool {
        self.equality_key() == other.equality_key()
    }
}

impl Throughput {
    /// The counters that define campaign equality: the run counts, and
    /// nothing else.
    ///
    /// Everything else on [`Throughput`] describes *how* the campaign
    /// executed rather than *what* it observed, and legitimately varies
    /// between equivalent campaigns: wall clock depends on the host,
    /// worker splits shuffle the per-session `decode_*`/`block_*`
    /// counters, and entire execution strategies can be toggled
    /// (`--no-prefix-fork`, `--no-block-cache`) without changing a
    /// single classified outcome. The seed-determinism, resume-equality,
    /// and strategy-on/off oracles all compare through this key — any
    /// counter added to [`Throughput`] stays out of equality unless it
    /// is appended here deliberately.
    pub fn equality_key(&self) -> (u64, u64, u64) {
        (self.runs, self.fired_runs, self.dormant_runs)
    }
    /// Aggregate the stats of the sessions that executed a measured region.
    pub fn collect(sessions: &[RunSession], elapsed: std::time::Duration) -> Throughput {
        let mut stats = SessionStats::default();
        for s in sessions {
            stats.merge(&s.stats());
        }
        Throughput {
            runs: stats.runs,
            fired_runs: stats.fired_runs,
            dormant_runs: stats.dormant_runs,
            elapsed_secs: elapsed.as_secs_f64(),
            retired_instrs: stats.retired_instrs,
            decode_lines_built: stats.decode_lines_built,
            decode_invalidations: stats.decode_invalidations,
            slow_fetches: stats.slow_fetches,
            prefix_snapshots_built: stats.prefix_snapshots_built,
            prefix_fork_hits: stats.prefix_fork_hits,
            prefix_instrs_skipped: stats.prefix_instrs_skipped,
            prefix_dormant_short_circuits: stats.prefix_dormant_short_circuits,
            prefix_golden_hits: stats.prefix_golden_hits,
            prefix_golden_passes: stats.prefix_golden_passes,
            prefix_peak_bytes: sessions
                .iter()
                .filter_map(|s| s.prefix.as_ref())
                .map(|cache| cache.peak_bytes() as u64)
                .max()
                .unwrap_or(0),
            blocks_built: stats.blocks_built,
            block_hits: stats.block_hits,
            block_instrs: stats.block_instrs,
            block_fallbacks: stats.block_fallbacks,
            block_invalidations: stats.block_invalidations,
            prune_sample_mispredicts: 0,
        }
    }

    /// Runs per wall-clock second (0 when nothing was measured).
    pub fn runs_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.runs as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Guest instructions per wall-clock second (0 when nothing was
    /// measured) — the figure the translation cache exists to raise.
    pub fn instrs_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.retired_instrs as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Fold another region's throughput in (wall-clock adds, matching the
    /// sequential composition of campaign phases).
    pub fn merge(&mut self, other: &Throughput) {
        self.runs += other.runs;
        self.fired_runs += other.fired_runs;
        self.dormant_runs += other.dormant_runs;
        self.elapsed_secs += other.elapsed_secs;
        self.retired_instrs += other.retired_instrs;
        self.decode_lines_built += other.decode_lines_built;
        self.decode_invalidations += other.decode_invalidations;
        self.slow_fetches += other.slow_fetches;
        self.prefix_snapshots_built += other.prefix_snapshots_built;
        self.prefix_fork_hits += other.prefix_fork_hits;
        self.prefix_instrs_skipped += other.prefix_instrs_skipped;
        self.prefix_dormant_short_circuits += other.prefix_dormant_short_circuits;
        self.prefix_golden_hits += other.prefix_golden_hits;
        self.prefix_golden_passes += other.prefix_golden_passes;
        self.prefix_peak_bytes = self.prefix_peak_bytes.max(other.prefix_peak_bytes);
        self.blocks_built += other.blocks_built;
        self.block_hits += other.block_hits;
        self.block_instrs += other.block_instrs;
        self.block_fallbacks += other.block_fallbacks;
        self.block_invalidations += other.block_invalidations;
    }
}

/// Cached injector, keyed by the fault set it was compiled from.
struct CachedInjector {
    specs: Vec<FaultSpec>,
    mode: TriggerMode,
    injector: Injector,
}

/// What one injected run reports, executed or replayed: the input of
/// [`RunSession::account`].
struct Ran {
    outcome: RunOutcome,
    fired: bool,
    /// Retired instructions a full run would report.
    retired: u64,
    /// Instructions this session actually executed for the run.
    executed: u64,
    /// How a [`RunPlan::Capture`] run ended: `golden` (the trigger never
    /// arrived), `captured` (this run stored a snapshot) or `vetoed` (it
    /// stored none). Empty for other plans.
    capture: &'static str,
}

/// The fork point of a single-fault set that was planned to fork or
/// capture.
fn fork_point(specs: &[FaultSpec]) -> (u32, u64) {
    specs[0]
        .fork_point()
        .expect("fork and capture plans come from a fork point")
}

/// A structured failure from the fallible run entry points
/// ([`RunSession::try_run_injected`]). The campaign generators never
/// produce fault sets that hit these, so the infallible paths panic
/// instead; callers feeding *external* fault descriptions (checkpoint
/// replay, the CLI, the server) get an error they can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The fault set cannot be compiled for the requested trigger mode
    /// (breakpoint budget exceeded, invalid spec, …).
    InjectorBuild(String),
    /// Arming the faults against the loaded machine failed — a
    /// [`swifi_core::fault::Target::Memory`] fault addresses unmapped
    /// guest memory.
    Prepare(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::InjectorBuild(e) => write!(f, "injector build failed: {e}"),
            SessionError::Prepare(e) => write!(f, "fault preparation failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A reusable run engine for one compiled program: one machine, one clean
/// snapshot, one (cached) injector — many runs.
///
/// # Examples
///
/// ```
/// use swifi_campaign::session::RunSession;
/// use swifi_lang::compile;
/// use swifi_programs::{program, Family};
///
/// let target = program("JB.team11").unwrap();
/// let compiled = compile(target.source_correct).unwrap();
/// let inputs = target.family.test_case(3, 7);
/// let mut session = RunSession::new(&compiled, target.family);
/// for input in &inputs {
///     let (mode, fired) = session.run(input, None, 0);
///     assert!(!fired);
///     assert_eq!(mode, swifi_campaign::FailureMode::Correct);
/// }
/// assert_eq!(session.stats().runs, 3);
/// ```
pub struct RunSession {
    family: Family,
    machine: Machine,
    snapshot: MachineSnapshot,
    cached: Option<CachedInjector>,
    /// Oracle outputs memoized per input. A class campaign runs every
    /// fault against the same shared input set, so each input's expected
    /// output is recomputed once per session instead of once per run —
    /// on the short JamesB runs the oracle call is a measurable slice of
    /// the per-run wall clock. When a [`PrefixCache`] is attached it acts
    /// as a shared second level behind this per-session map.
    expected: HashMap<TestInput, Arc<Vec<u8>>>,
    /// Shared prefix-fork cache; `None` disables forking entirely (every
    /// run executes from the clean snapshot).
    prefix: Option<Arc<PrefixCache>>,
    stats: SessionStats,
    started: Instant,
    /// Retired-instruction count of the most recent run, as a full
    /// (unforked) run would report it — memoized answers report the
    /// golden run's count. The forked-vs-full equivalence oracle pins
    /// this.
    last_retired: u64,
    /// Per-run wall-clock budget; armed on the machine at the start of
    /// every run when set. Expired runs come back as
    /// [`RunOutcome::Hang`] and classify as [`FailureMode::Hang`].
    watchdog: Option<Duration>,
    /// Per-worker telemetry accumulator (trace events, metrics, guest
    /// profiling). `None` — the default — is the disabled contract:
    /// every instrumentation site below is behind one `Option` test per
    /// *run* (never per instruction); the engine bench's `default` and
    /// `default+telemetry` rungs (`BENCH_engine.json`) measure both sides.
    telemetry: Option<WorkerTelemetry>,
}

impl std::fmt::Debug for RunSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSession")
            .field("family", &self.family)
            .field("stats", &self.stats)
            .finish()
    }
}

impl RunSession {
    /// Boot a machine for `family`, load `program`, and snapshot the clean
    /// state. All subsequent runs warm-reboot from that snapshot.
    pub fn new(program: &Program, family: Family) -> RunSession {
        let mut machine = Machine::new(campaign_config(family));
        machine.load(&program.image);
        let snapshot = machine.snapshot();
        RunSession {
            family,
            machine,
            snapshot,
            cached: None,
            expected: HashMap::new(),
            prefix: None,
            stats: SessionStats::default(),
            started: Instant::now(),
            last_retired: 0,
            watchdog: None,
            telemetry: None,
        }
    }

    /// Attach a shared [`PrefixCache`]. The cache must have been created
    /// for the same compiled program and machine configuration as this
    /// session — snapshots restore across sessions only between
    /// identically-built machines. `None` disables prefix forking.
    pub fn set_prefix_cache(&mut self, cache: Option<Arc<PrefixCache>>) {
        self.prefix = cache;
    }

    /// Retired-instruction count of the most recent run, as a full run
    /// would report it (memoized/forked answers included).
    pub fn last_retired(&self) -> u64 {
        self.last_retired
    }

    /// Arm a per-run wall-clock watchdog: any subsequent run still
    /// executing after `budget` wall-clock time is cut off and classified
    /// as a hang — defense in depth above the instruction budget, for runs
    /// that are pathologically *slow* rather than long. `None` disarms.
    pub fn set_watchdog(&mut self, budget: Option<Duration>) {
        self.watchdog = budget;
    }

    /// Set the machine's watchdog deadline poll interval, in scheduler
    /// rounds (`--watchdog-poll`; see
    /// [`swifi_vm::machine::Machine::set_watchdog_poll`]).
    pub fn set_watchdog_poll(&mut self, rounds: u32) {
        self.machine.set_watchdog_poll(rounds);
    }

    /// Attach this worker's telemetry accumulator (`None` detaches it —
    /// the disabled, zero-overhead default).
    pub fn set_telemetry(&mut self, telemetry: Option<WorkerTelemetry>) {
        self.telemetry = telemetry;
    }

    /// Detach and return the telemetry accumulator, so drivers that
    /// build one short-lived session per work item (the source-mutation
    /// campaign) can carry a single accumulator across items instead of
    /// opening a trace lane per mutant.
    pub fn take_telemetry(&mut self) -> Option<WorkerTelemetry> {
        self.telemetry.take()
    }

    /// Run the machine under `inner`, wrapped in a sampling guest
    /// profiler when profiling is enabled. A free-standing fn over
    /// disjoint fields so callers holding a `self.cached` borrow can
    /// still pass the machine and telemetry.
    fn machine_run<I: Inspector>(
        machine: &mut Machine,
        telemetry: &mut Option<WorkerTelemetry>,
        inner: &mut I,
    ) -> RunOutcome {
        match telemetry {
            Some(t) if t.profile_enabled() => {
                let (hist, every) = t.profiler();
                machine.run(&mut ProfiledInspector::new(inner, hist, every))
            }
            _ => machine.run(inner),
        }
    }

    /// [`Machine::run_to_watch`] with the same optional profiling wrap
    /// as [`RunSession::machine_run`] (golden passes and capture runs
    /// execute real guest instructions and should show up in profiles
    /// too).
    fn machine_run_to_watch(
        machine: &mut Machine,
        telemetry: &mut Option<WorkerTelemetry>,
        watch: &mut FetchWatch,
    ) -> FetchStop {
        match telemetry {
            Some(t) if t.profile_enabled() => {
                let (hist, every) = t.profiler();
                let mut noop = Noop;
                machine.run_to_watch(watch, &mut ProfiledInspector::new(&mut noop, hist, every))
            }
            _ => machine.run_to_watch(watch, &mut Noop),
        }
    }

    /// The program family this session runs.
    pub fn family(&self) -> Family {
        self.family
    }

    /// Counters accumulated so far, with the machine's translation-cache
    /// counters overlaid (those are cumulative in the machine itself —
    /// warm reboots do not reset them, so the machine's totals *are* the
    /// session's totals).
    pub fn stats(&self) -> SessionStats {
        let mut s = self.stats;
        let d = self.machine.decode_cache_stats();
        s.decode_lines_built = d.lines_built;
        s.decode_invalidations = d.lines_invalidated;
        s.slow_fetches = d.slow_fetches;
        let b = self.machine.block_cache_stats();
        s.blocks_built = b.blocks_built;
        s.block_hits = b.block_hits;
        s.block_instrs = b.block_instrs;
        s.block_fallbacks = b.fallback_dispatches;
        s.block_invalidations = b.blocks_invalidated;
        s
    }

    /// Run this session's machine on the seed decode-every-fetch reference
    /// interpreter (`true`) or the predecoded-cache interpreter (`false`,
    /// the default). Used by the interpreter benchmarks and differential
    /// tests; campaign drivers leave it off.
    pub fn set_reference_interp(&mut self, reference: bool) {
        self.machine.set_reference_interp(reference);
    }

    /// Enable (`true`, the default) or disable the basic-block
    /// translation layer on this session's machine. Disabling pins the
    /// PR 2 predecoded-line path (`--no-block-cache`); like prefix
    /// forking this is purely an execution strategy — runs are
    /// bit-identical either way.
    pub fn set_block_cache(&mut self, enabled: bool) {
        self.machine.set_block_interp(enabled);
    }

    /// Seconds since the session was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Warm-reboot to the clean snapshot and mount `input`.
    fn begin(&mut self, input: &TestInput) {
        self.machine.restore(&self.snapshot);
        self.machine.set_input(input.to_tape());
        self.machine
            .set_deadline(self.watchdog.map(|d| Instant::now() + d));
    }

    /// One fault-free run, answered from the shared golden memo when the
    /// prefix cache already holds this input's fault-free run. The first
    /// clean run of an input in a campaign with a watch list is its golden
    /// pass.
    pub fn run_clean(&mut self, input: &TestInput) -> RunOutcome {
        if let Some(cache) = self.prefix.clone() {
            if self.machine.num_cores() == 1 && cache.claim_pass(input) {
                let (outcome, retired) = self.golden_pass(input, &cache);
                self.stats.runs += 1;
                self.last_retired = retired;
                return outcome;
            }
            if let Some(golden) = cache.golden(input) {
                self.stats.runs += 1;
                self.stats.prefix_golden_hits += 1;
                self.stats.prefix_instrs_skipped += golden.retired;
                self.last_retired = golden.retired;
                if let Some(t) = self.telemetry.as_mut() {
                    t.instant("golden_hit", vec![arg_u64("retired", golden.retired)]);
                }
                return golden.outcome;
            }
        }
        self.begin(input);
        let outcome = Self::machine_run(&mut self.machine, &mut self.telemetry, &mut Noop);
        let retired = self.machine.retired();
        self.stats.runs += 1;
        self.stats.retired_instrs += retired;
        self.last_retired = retired;
        if let Some(cache) = &self.prefix {
            if self.golden_memoizable(&outcome) {
                let outcome = outcome.clone();
                cache.record_golden(input, GoldenRun { outcome, retired }, []);
            }
        }
        outcome
    }

    /// The golden pass for `input`: one clean run that pauses at the first
    /// arrival of every watched trigger PC and stores a rung wherever
    /// [`plan::worth_forking`] says it pays, then records the golden run
    /// and a zero trigger total for every watched PC it never reached.
    /// Returns the run's outcome and retired count.
    fn golden_pass(&mut self, input: &TestInput, cache: &PrefixCache) -> (RunOutcome, u64) {
        let span_start = self.telemetry.as_ref().map(WorkerTelemetry::now_us);
        let watched = cache.watched();
        let mut watch = FetchWatch::new(watched.iter().map(|&(pc, _)| pc), 1);
        let (mut pauses, mut rungs) = (0, 0);
        self.begin(input);
        let outcome = loop {
            match Self::machine_run_to_watch(&mut self.machine, &mut self.telemetry, &mut watch) {
                FetchStop::Finished(outcome) => break outcome,
                FetchStop::Hit(pc) => {
                    pauses += 1;
                    let uses = watched[watched.partition_point(|&(p, _)| p < pc)].1;
                    rungs += u64::from(self.store_rung(cache, input, (pc, 1), Some(uses)));
                }
            }
        };
        let retired = self.machine.retired();
        self.stats.retired_instrs += retired;
        self.stats.prefix_golden_passes += 1;
        self.stats.prefix_snapshots_built += rungs;
        if self.golden_memoizable(&outcome) {
            let run = GoldenRun {
                outcome: outcome.clone(),
                retired,
            };
            cache.record_golden(input, run, watch.pending());
        }
        if let (Some(t), Some(start)) = (self.telemetry.as_mut(), span_start) {
            t.complete(
                "golden_pass",
                start,
                vec![arg_u64("pauses", pauses), arg_u64("rungs", rungs)],
            );
        }
        (outcome, retired)
    }

    /// Store a rung of the paused machine at fork point `at` if the cost
    /// rule says it pays over `uses` forks (`None`: uncounted, judged as
    /// one). Returns whether the cache took it.
    fn store_rung(
        &self,
        cache: &PrefixCache,
        input: &TestInput,
        (pc, occ): (u32, u64),
        uses: Option<u32>,
    ) -> bool {
        let m = &self.machine;
        let pays = plan::worth_forking(
            m.retired(),
            m.dirty_pages(),
            m.dirty_code_pages(),
            uses.unwrap_or(1),
        );
        pays && cache.insert_snapshot(input, pc, occ, Arc::new(m.fork_snapshot()), uses)
    }

    /// Whether a fault-free outcome is safe to memoize: with a wall-clock
    /// watchdog armed, a `Hang` may be the (nondeterministic) deadline
    /// rather than the (deterministic) instruction budget, and must not
    /// be replayed as gospel.
    fn golden_memoizable(&self, outcome: &RunOutcome) -> bool {
        self.watchdog.is_none() || !matches!(outcome, RunOutcome::Hang { .. })
    }

    /// One run observed by a caller-supplied inspector (profilers etc.).
    pub fn run_with<I: Inspector>(&mut self, input: &TestInput, inspector: &mut I) -> RunOutcome {
        self.begin(input);
        let outcome = self.machine.run(inspector);
        self.stats.runs += 1;
        self.stats.retired_instrs += self.machine.retired();
        self.last_retired = self.machine.retired();
        outcome
    }

    /// One run with a full fault set under an explicit trigger mode.
    ///
    /// The compiled injector is cached: consecutive runs with the same
    /// fault set (the common campaign shape — one fault, many inputs)
    /// reuse it via [`Injector::reset`] instead of rebuilding the trigger
    /// routing tables.
    ///
    /// Returns the raw outcome plus whether any fault fired.
    ///
    /// # Panics
    ///
    /// Panics if the fault set does not fit `mode`'s breakpoint budget or
    /// addresses unmapped memory — campaign generators never produce
    /// either.
    pub fn run_injected(
        &mut self,
        input: &TestInput,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
    ) -> (RunOutcome, bool) {
        let plan = self.plan(input, specs);
        let ran = self
            .execute(&plan, input, specs, mode, seed)
            .expect("campaign fault sets fit their trigger mode and mapped memory");
        self.account(&plan, &ran, specs);
        (ran.outcome, ran.fired)
    }

    /// Fallible variant of [`RunSession::run_injected`] for fault sets
    /// that did not come from the campaign generators (checkpoint replay,
    /// server requests): surfaces [`SessionError`] where the infallible
    /// path would panic. Always executes [`RunPlan::Full`]; a failed
    /// attempt leaves the session's counters untouched and the session
    /// fully usable.
    ///
    /// # Errors
    ///
    /// [`SessionError::InjectorBuild`] when the fault set cannot be
    /// compiled for `mode`; [`SessionError::Prepare`] when a memory fault
    /// addresses unmapped guest memory.
    pub fn try_run_injected(
        &mut self,
        input: &TestInput,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
    ) -> Result<(RunOutcome, bool), SessionError> {
        let ran = self.execute(&RunPlan::Full, input, specs, mode, seed)?;
        self.account(&RunPlan::Full, &ran, specs);
        Ok((ran.outcome, ran.fired))
    }

    /// Decide up front how to execute one injected run. Anything but
    /// [`RunPlan::Full`] needs a prefix cache, a single-core machine (a
    /// fetch breakpoint cannot pause a multi-core scheduler) and a single
    /// fault with a [`FaultSpec::fork_point`]. A [`RunPlan::GoldenPass`]
    /// verdict is acted on here, and the run planned again.
    fn plan(&mut self, input: &TestInput, specs: &[FaultSpec]) -> RunPlan {
        let single_core = self.machine.num_cores() == 1;
        let (Some(cache), [spec], true) = (self.prefix.clone(), specs, single_core) else {
            return RunPlan::Full;
        };
        let Some((pc, occ)) = spec.fork_point() else {
            return RunPlan::Full;
        };
        match cache.plan(input, pc, occ) {
            RunPlan::GoldenPass => {
                self.golden_pass(input, &cache);
                cache.plan(input, pc, occ)
            }
            plan => plan,
        }
    }

    /// Execute one injected run as `plan` says. Touches no run counters
    /// ([`RunSession::account`] does).
    fn execute(
        &mut self,
        plan: &RunPlan,
        input: &TestInput,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
    ) -> Result<Ran, SessionError> {
        let (outcome, fired, skipped, capture) = match plan {
            RunPlan::GoldenPass => unreachable!("the golden pass is made while planning"),
            RunPlan::NeverArrives => {
                let golden = self.prefix.as_ref().and_then(|cache| cache.golden(input));
                let golden = golden.expect("trigger totals are recorded with the golden run");
                return Ok(Ran {
                    outcome: golden.outcome,
                    fired: false,
                    retired: golden.retired,
                    executed: 0,
                    capture: "",
                });
            }
            RunPlan::Full => {
                self.begin(input);
                let (outcome, fired) = self.run_armed(specs, mode, seed, 0)?;
                (outcome, fired, 0, "")
            }
            RunPlan::Fork(fork) => {
                self.machine.restore_fork(&self.snapshot, fork);
                self.machine
                    .set_deadline(self.watchdog.map(|d| Instant::now() + d));
                let seen = fork_point(specs).1 - 1;
                let (outcome, fired) = self.run_armed(specs, mode, seed, seen)?;
                (outcome, fired, fork.retired(), "")
            }
            RunPlan::Capture => {
                let cache = self.prefix.clone().expect("capture plans need a cache");
                let (pc, occ) = fork_point(specs);
                self.begin(input);
                let mut watch = FetchWatch::new([pc], occ);
                let stop =
                    Self::machine_run_to_watch(&mut self.machine, &mut self.telemetry, &mut watch);
                let retired = self.machine.retired();
                match stop {
                    // The trigger never arrived: this *is* the golden run,
                    // and it counted every arrival on the way.
                    FetchStop::Finished(outcome) => {
                        if self.golden_memoizable(&outcome) {
                            let run = GoldenRun {
                                outcome: outcome.clone(),
                                retired,
                            };
                            cache.record_golden(input, run, watch.pending());
                        }
                        (outcome, false, 0, "golden")
                    }
                    // Paused exactly at the trigger, `retired` deep: store
                    // a rung if the cost rule says it pays, then continue
                    // in place as this run.
                    FetchStop::Hit(_) => {
                        let uses = cache.capture_uses(pc, occ);
                        let stored = self.store_rung(&cache, input, (pc, occ), uses);
                        let (outcome, fired) = self.run_armed(specs, mode, seed, occ - 1)?;
                        let capture = if stored { "captured" } else { "vetoed" };
                        (outcome, fired, 0, capture)
                    }
                }
            }
        };
        let retired = self.machine.retired();
        let executed = retired - skipped;
        Ok(Ran {
            outcome,
            fired,
            retired,
            executed,
            capture,
        })
    }

    /// Arm the cached injector for `specs` as if it had already seen
    /// `seen` trigger arrivals in a forked-over prefix
    /// ([`Injector::resume_occurrences`]), and run the machine from its
    /// current state.
    fn run_armed(
        &mut self,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
        seen: u64,
    ) -> Result<(RunOutcome, bool), SessionError> {
        self.ensure_injector(specs, mode, seed)?;
        let cached = self.cached.as_mut().expect("cache populated above");
        cached.injector.reset(seed);
        if seen > 0 {
            cached.injector.resume_occurrences(0, seen);
        }
        cached
            .injector
            .prepare(&mut self.machine)
            .map_err(|e| SessionError::Prepare(format!("{e:?}")))?;
        let outcome =
            Self::machine_run(&mut self.machine, &mut self.telemetry, &mut cached.injector);
        Ok((outcome, cached.injector.any_fired()))
    }

    /// The one place an injected run is counted: run and activation
    /// counters, executed and skipped instructions, and the plan's own
    /// counter and telemetry instant.
    fn account(&mut self, plan: &RunPlan, ran: &Ran, specs: &[FaultSpec]) {
        let s = &mut self.stats;
        s.runs += 1;
        s.injected_runs += 1;
        s.fired_runs += u64::from(ran.fired);
        s.dormant_runs += u64::from(!ran.fired);
        s.retired_instrs += ran.executed;
        s.prefix_instrs_skipped += ran.retired - ran.executed;
        self.last_retired = ran.retired;
        let (event, extra) = match plan {
            RunPlan::Full | RunPlan::GoldenPass => return,
            RunPlan::NeverArrives => {
                s.prefix_dormant_short_circuits += 1;
                ("dormant_short_circuit", None)
            }
            RunPlan::Fork(_) => {
                s.prefix_fork_hits += 1;
                let skipped = ran.retired - ran.executed;
                ("fork_hit", Some(arg_u64("skipped", skipped)))
            }
            RunPlan::Capture => {
                s.prefix_snapshots_built += u64::from(ran.capture == "captured");
                ("fork_miss", Some(arg_str("result", ran.capture)))
            }
        };
        if let Some(t) = self.telemetry.as_mut() {
            let (pc, occ) = fork_point(specs);
            let mut args = vec![arg_u64("pc", pc as u64), arg_u64("occ", occ)];
            args.extend(extra);
            t.instant(event, args);
        }
    }

    /// (Re)compile the cached injector if the fault set changed.
    fn ensure_injector(
        &mut self,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
    ) -> Result<(), SessionError> {
        let reusable = self
            .cached
            .as_ref()
            .is_some_and(|c| c.mode == mode && c.specs.as_slice() == specs);
        if !reusable {
            let injector = Injector::new(specs.to_vec(), mode, seed)
                .map_err(|e| SessionError::InjectorBuild(format!("{e:?}")))?;
            self.cached = Some(CachedInjector {
                specs: specs.to_vec(),
                mode,
                injector,
            });
            self.stats.injector_rebuilds += 1;
            if let Some(t) = self.telemetry.as_mut() {
                t.instant("fault_arm", vec![arg_u64("faults", specs.len() as u64)]);
            }
        }
        Ok(())
    }

    /// One classified campaign run: at most one fault, hardware triggers —
    /// the contract of [`crate::runner::execute`], warm.
    pub fn run(
        &mut self,
        input: &TestInput,
        fault: Option<&FaultSpec>,
        seed: u64,
    ) -> (FailureMode, bool) {
        let span_start = self.telemetry.as_ref().map(WorkerTelemetry::now_us);
        let blocks_before = span_start.map(|_| self.machine.block_cache_stats());
        let outcome = match fault {
            None => (self.run_clean(input), false),
            Some(spec) => self.run_injected(
                input,
                std::slice::from_ref(spec),
                TriggerMode::Hardware,
                seed,
            ),
        };
        let (outcome, fired) = outcome;
        let mode = classify_outcome(&outcome, self.expected_for(input));
        if span_start.is_some() {
            self.observe_run(
                span_start,
                blocks_before,
                &outcome,
                mode,
                fired,
                fault.is_some(),
            );
        }
        (mode, fired)
    }

    /// One campaign work item: `fault` on every input, the run on input
    /// `j` seeded `seed_of(j)`. Returns the failure-mode counts and the
    /// number of runs where the fault stayed dormant.
    pub fn run_inputs(
        &mut self,
        inputs: &[TestInput],
        fault: &FaultSpec,
        seed_of: impl Fn(usize) -> u64,
    ) -> (ModeCounts, u64) {
        let mut counts = ModeCounts::default();
        let mut dormant = 0;
        for (j, input) in inputs.iter().enumerate() {
            let (mode, fired) = self.run(input, Some(fault), seed_of(j));
            counts.add(mode);
            dormant += u64::from(!fired);
        }
        (counts, dormant)
    }

    /// Post-run telemetry: block-cache deltas, the trigger/watchdog
    /// instants, the `run` span, and the per-run metric observations.
    /// Only called when telemetry is attached, so the disabled path pays
    /// exactly the one `Option` test in [`RunSession::run`].
    fn observe_run(
        &mut self,
        span_start: Option<u64>,
        blocks_before: Option<swifi_vm::blocks::BlockCacheStats>,
        outcome: &RunOutcome,
        mode: FailureMode,
        fired: bool,
        injected: bool,
    ) {
        let blocks = self.machine.block_cache_stats();
        let retired = self.last_retired;
        let watchdog = self.watchdog;
        let poll = self.machine.watchdog_poll();
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        if let Some(before) = &blocks_before {
            let built = blocks.blocks_built - before.blocks_built;
            if built > 0 {
                t.instant("block_translate", vec![arg_u64("blocks", built)]);
            }
            let killed = blocks.blocks_invalidated - before.blocks_invalidated;
            if killed > 0 {
                t.instant("block_invalidate", vec![arg_u64("blocks", killed)]);
            }
        }
        if fired {
            t.instant("trigger_fire", vec![arg_u64("retired", retired)]);
        }
        if matches!(outcome, RunOutcome::Hang { .. }) {
            if let Some(budget) = watchdog {
                t.instant(
                    "watchdog_hang",
                    vec![
                        arg_u64("budget_ms", budget.as_millis() as u64),
                        arg_u64("poll", poll as u64),
                    ],
                );
            }
        }
        if let Some(start) = span_start {
            t.complete(
                "run",
                start,
                vec![
                    arg_str("mode", format!("{mode:?}")),
                    arg_str("fired", if fired { "yes" } else { "no" }),
                    arg_u64("retired", retired),
                ],
            );
            t.observe(metric_names::RUN_LATENCY_US, (t.now_us() - start) as f64);
        }
        t.counter_add("runs", 1);
        if injected {
            if fired {
                t.counter_add("fired_runs", 1);
            } else {
                t.counter_add("dormant_runs", 1);
            }
        }
        t.observe(metric_names::RETIRED_INSTRS_PER_RUN, retired as f64);
    }

    /// The oracle's expected output for `input`, computed once per
    /// session — or once per *campaign* when a shared [`PrefixCache`]
    /// backs the per-session map.
    fn expected_for(&mut self, input: &TestInput) -> &[u8] {
        if !self.expected.contains_key(input) {
            let expected = match &self.prefix {
                Some(cache) => cache.expected_output(input),
                None => Arc::new(input.expected_output()),
            };
            self.expected.insert(input.clone(), expected);
        }
        self.expected[input].as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_core::locations::generate_error_set;
    use swifi_lang::compile;
    use swifi_programs::program;

    #[test]
    fn warm_session_matches_cold_execute() {
        // The equivalence contract at campaign granularity: a session run
        // over many (fault, input) pairs must agree with the cold-boot
        // `execute` for every pair, in any interleaving.
        let target = program("JB.team6").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let set = generate_error_set(&compiled.debug, 4, 4, 9);
        let faults: Vec<_> = set.assign_faults.iter().chain(&set.check_faults).collect();
        let inputs = target.family.test_case(2, 31);
        let mut session = RunSession::new(&compiled, target.family);
        for (fi, fault) in faults.iter().enumerate() {
            for (i, input) in inputs.iter().enumerate() {
                let seed = (fi as u64) << 8 | i as u64;
                let warm = session.run(input, Some(&fault.spec), seed);
                let cold = crate::runner::execute(
                    &compiled,
                    target.family,
                    input,
                    Some(&fault.spec),
                    seed,
                );
                assert_eq!(warm, cold, "fault {fi} input {i}");
            }
        }
        // Interleave clean runs too.
        for input in &inputs {
            let warm = session.run(input, None, 0);
            let cold = crate::runner::execute(&compiled, target.family, input, None, 0);
            assert_eq!(warm, cold);
        }
    }

    #[test]
    fn stats_account_for_every_run() {
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let set = generate_error_set(&compiled.debug, 2, 2, 1);
        let inputs = target.family.test_case(3, 5);
        let mut session = RunSession::new(&compiled, target.family);
        let mut expected_runs = 0u64;
        for fault in set.assign_faults.iter().chain(&set.check_faults) {
            for input in &inputs {
                session.run(input, Some(&fault.spec), 7);
                expected_runs += 1;
            }
        }
        for input in &inputs {
            session.run_clean(input);
            expected_runs += 1;
        }
        let s = session.stats();
        assert_eq!(s.runs, expected_runs);
        assert_eq!(s.injected_runs, expected_runs - inputs.len() as u64);
        assert_eq!(s.fired_runs + s.dormant_runs, s.injected_runs);
        assert!(session.elapsed_secs() >= 0.0);

        // The injected runs twice on a forking session: the first pass
        // captures prefixes, the second forks from them, and both count.
        let mut forked = RunSession::new(&compiled, target.family);
        forked.set_prefix_cache(Some(crate::prefix::PrefixCache::shared()));
        for _pass in 0..2 {
            for fault in set.assign_faults.iter().chain(&set.check_faults) {
                for input in &inputs {
                    forked.run(input, Some(&fault.spec), 7);
                }
            }
        }
        let f = forked.stats();
        assert!(f.prefix_fork_hits > 0, "second passes must fork: {f:?}");
        assert!(f.prefix_snapshots_built > 0, "{f:?}");
        assert_eq!(f.runs, 2 * s.injected_runs);
        assert_eq!(f.fired_runs + f.dormant_runs, f.injected_runs);
    }

    #[test]
    fn injector_cache_hits_on_repeated_fault() {
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let set = generate_error_set(&compiled.debug, 2, 0, 1);
        let inputs = target.family.test_case(4, 5);
        let mut session = RunSession::new(&compiled, target.family);
        // Campaign shape: outer loop faults, inner loop inputs.
        for fault in &set.assign_faults {
            for input in &inputs {
                session.run(input, Some(&fault.spec), 3);
            }
        }
        let s = session.stats();
        // One rebuild per distinct fault spec, not per run.
        assert!(
            s.injector_rebuilds as usize <= set.assign_faults.len(),
            "rebuilds {} > distinct faults {}",
            s.injector_rebuilds,
            set.assign_faults.len()
        );
        assert_eq!(
            s.injected_runs,
            (set.assign_faults.len() * inputs.len()) as u64
        );
    }

    #[test]
    fn session_stats_expose_interpreter_counters() {
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let inputs = target.family.test_case(3, 5);
        let mut session = RunSession::new(&compiled, target.family);
        for input in &inputs {
            session.run_clean(input);
        }
        let s = session.stats();
        assert!(s.retired_instrs > 0, "runs retire instructions");
        assert!(s.decode_lines_built > 0, "clean runs populate the cache");
        assert_eq!(s.slow_fetches, 0, "clean runs never take the slow path");

        // The same workload on the reference interpreter decodes nothing
        // and takes the slow path for every retired instruction.
        let mut reference = RunSession::new(&compiled, target.family);
        reference.set_reference_interp(true);
        for input in &inputs {
            reference.run_clean(input);
        }
        let r = reference.stats();
        assert_eq!(
            r.retired_instrs, s.retired_instrs,
            "same instruction stream"
        );
        assert_eq!(r.decode_lines_built, 0);
        assert_eq!(r.slow_fetches, r.retired_instrs);

        // Injected runs with memory faults invalidate the patched lines on
        // restore.
        let set = generate_error_set(&compiled.debug, 2, 2, 1);
        for fault in set.assign_faults.iter().chain(&set.check_faults) {
            for input in &inputs {
                session.run(input, Some(&fault.spec), 9);
            }
        }
        let s2 = session.stats();
        assert!(s2.retired_instrs > s.retired_instrs);

        // Throughput carries the counters through.
        let tp = Throughput::collect(
            std::slice::from_ref(&session),
            std::time::Duration::from_secs(1),
        );
        assert_eq!(tp.retired_instrs, s2.retired_instrs);
        assert!(tp.instrs_per_sec() > 0.0);
    }

    #[test]
    fn watchdog_expiry_classifies_as_hang() {
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let input = &target.family.test_case(1, 5)[0];
        let mut session = RunSession::new(&compiled, target.family);
        // A zero budget fires deterministically before execution starts.
        session.set_watchdog(Some(Duration::ZERO));
        let (mode, fired) = session.run(input, None, 0);
        assert_eq!(mode, FailureMode::Hang);
        assert!(!fired);
        // Disarming restores normal behaviour on the same warm session.
        session.set_watchdog(None);
        let (mode, _) = session.run(input, None, 0);
        assert_eq!(mode, FailureMode::Correct);
        // A generous budget leaves short runs untouched.
        session.set_watchdog(Some(Duration::from_secs(3600)));
        let (mode, _) = session.run(input, None, 0);
        assert_eq!(mode, FailureMode::Correct);
    }

    #[test]
    fn nth_firing_counts_occurrences_across_the_fork_boundary() {
        // A snapshot taken at occurrence k-1 must not double-count: the
        // resumed injector sees the pending fetch as occurrence k exactly
        // once. Sweep Nth(1..=6) over a trigger inside a loop so the
        // occurrence arithmetic is exercised on both sides of the
        // boundary, running each spec twice (capture, then fork).
        use swifi_core::fault::Firing;
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let set = generate_error_set(&compiled.debug, 4, 0, 21);
        let inputs = target.family.test_case(2, 23);

        let mut full = RunSession::new(&compiled, target.family);
        let mut forked = RunSession::new(&compiled, target.family);
        forked.set_prefix_cache(Some(crate::prefix::PrefixCache::shared()));

        for fault in &set.assign_faults {
            for k in 1..=6u64 {
                let mut spec = fault.spec;
                spec.when = Firing::Nth(k);
                for input in &inputs {
                    let want = full.run(input, Some(&spec), k);
                    for pass in ["capture", "fork-hit"] {
                        let got = forked.run(input, Some(&spec), k);
                        assert_eq!(got, want, "Nth({k}) {pass} at {:#x}", fault.site_addr);
                        assert_eq!(forked.last_retired(), full.last_retired(), "Nth({k})");
                    }
                }
            }
        }
    }

    #[test]
    fn dormant_faults_short_circuit_after_the_golden_run() {
        // Capture-run evidence: the first encounter finishes the (golden)
        // run and records the trigger total; every later encounter is
        // answered by the never-arrives verdict without executing a
        // single instruction.
        let (compiled, family, input, spec) = never_arriving_fault();
        let mut full = RunSession::new(&compiled, family);
        let mut forked = RunSession::new(&compiled, family);
        forked.set_prefix_cache(Some(crate::prefix::PrefixCache::shared()));
        let first = forked.run(&input, Some(&spec), 1);
        assert_eq!(first, full.run(&input, Some(&spec), 1));
        assert_eq!(forked.stats().prefix_dormant_short_circuits, 0);
        assert_never_arrives(&mut forked, &mut full, &input, &spec);
        assert_eq!(forked.stats().dormant_runs, 2);
    }

    #[test]
    fn golden_passes_fork_later_runs_and_drop_used_up_rungs() {
        // With the campaign's watch list, each input's first run is its
        // golden pass (a clean run's too), later runs at a stored rung
        // fork, and every answer matches a fork-free session. Each fault
        // runs each input once, so by the end every rung has served its
        // last fork and been dropped.
        let target = program("JB.team6").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let set = generate_error_set(&compiled.debug, 5, 5, 7);
        let faults: Vec<_> = set.assign_faults.iter().chain(&set.check_faults).collect();
        let inputs = target.family.test_case(3, 11);
        let cache = crate::prefix::PrefixCache::shared();
        cache.set_watch_pcs(crate::prefix::watch_pcs_of(faults.iter().map(|f| &f.spec)));
        let mut full = RunSession::new(&compiled, target.family);
        let mut forked = RunSession::new(&compiled, target.family);
        forked.set_prefix_cache(Some(cache.clone()));

        assert_eq!(forked.run_clean(&inputs[0]), full.run_clean(&inputs[0]));
        assert_eq!(forked.last_retired(), full.last_retired());
        assert_eq!(forked.stats().prefix_golden_passes, 1);
        for (fi, fault) in faults.iter().enumerate() {
            for input in &inputs {
                let want = full.run(input, Some(&fault.spec), fi as u64);
                assert_eq!(forked.run(input, Some(&fault.spec), fi as u64), want);
                assert_eq!(forked.last_retired(), full.last_retired(), "fault {fi}");
            }
        }
        let s = forked.stats();
        assert_eq!(s.prefix_golden_passes, inputs.len() as u64, "{s:?}");
        assert!(s.prefix_fork_hits > 0, "{s:?}");
        assert_eq!(cache.snapshot_count(), 0, "used-up rungs are dropped");
        assert!(cache.peak_bytes() > cache.retained_bytes());
    }

    #[test]
    fn shallow_triggers_skip_fork_capture_once_golden_is_known() {
        // A trigger at the start of the run has nothing to skip: the cost
        // rule stores no rung for it, however often the fault runs — and
        // every run still matches a fork-free session exactly.
        use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let input = &target.family.test_case(1, 37)[0];
        // The entry point: occurrence 1 has a zero-instruction prefix,
        // the shallowest trigger possible.
        let spec = FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(compiled.image.entry),
            when: Firing::Nth(1),
        };

        let mut full = RunSession::new(&compiled, target.family);
        let mut forked = RunSession::new(&compiled, target.family);
        let cache = crate::prefix::PrefixCache::shared();
        forked.set_prefix_cache(Some(cache.clone()));

        assert_eq!(forked.run_clean(input), full.run_clean(input));

        for seed in 5..8 {
            let want = full.run(input, Some(&spec), seed);
            assert_eq!(forked.run(input, Some(&spec), seed), want);
            assert_eq!(forked.last_retired(), full.last_retired());
        }
        let s = forked.stats();
        assert_eq!(s.prefix_snapshots_built, 0, "shallow prefix never captured");
        assert_eq!(s.prefix_fork_hits, 0);
        assert_eq!(cache.snapshot_count(), 0);
    }

    /// Run `spec` on `session` and check it was answered by the
    /// never-arrives verdict: outcome, `fired` and `last_retired` equal
    /// the `full` session's, and nothing executed.
    fn assert_never_arrives(
        session: &mut RunSession,
        full: &mut RunSession,
        input: &TestInput,
        spec: &FaultSpec,
    ) {
        let want = full.run(input, Some(spec), 3);
        assert!(!want.1, "the trigger occurrence never arrives");
        let before = session.stats();
        assert_eq!(session.run(input, Some(spec), 3), want);
        assert_eq!(session.last_retired(), full.last_retired());
        let after = session.stats();
        assert_eq!(
            after.prefix_dormant_short_circuits,
            before.prefix_dormant_short_circuits + 1,
            "{after:?}"
        );
        assert_eq!(
            after.retired_instrs, before.retired_instrs,
            "nothing may execute: {after:?}"
        );
    }

    /// A fault far beyond any plausible arrival count at a JB.team11
    /// site, with that program and one input.
    fn never_arriving_fault() -> (Program, Family, TestInput, FaultSpec) {
        use swifi_core::fault::{ErrorOp, Firing, Target, Trigger};
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let input = target.family.test_case(1, 29)[0].clone();
        let site = generate_error_set(&compiled.debug, 1, 0, 29).assign_faults[0].site_addr;
        let spec = FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(site),
            when: Firing::Nth(1_000_000),
        };
        (compiled, target.family, input, spec)
    }

    /// A session with a fresh prefix cache whose first run of `spec`
    /// on `input` has finished as the golden run, and the trigger total
    /// that run recorded for the never-arrives verdict.
    fn session_with_totals(
        compiled: &Program,
        family: Family,
        input: &TestInput,
        spec: &FaultSpec,
    ) -> (RunSession, u64) {
        let mut session = RunSession::new(compiled, family);
        let cache = crate::prefix::PrefixCache::shared();
        session.set_prefix_cache(Some(cache.clone()));
        let (_, fired) = session.run(input, Some(spec), 1);
        assert!(!fired);
        let s = session.stats();
        assert_eq!(s.prefix_dormant_short_circuits, 0, "first sight executes");
        assert_eq!(s.prefix_snapshots_built, 0, "the trigger never paused");
        let (pc, _) = spec.fork_point().unwrap();
        let total = cache.total_occurrences(input, pc);
        (
            session,
            total.expect("the finished capture run records the total"),
        )
    }

    #[test]
    fn never_arrives_from_a_usable_trace() {
        // The trigger total recorded by one fault's finished capture run
        // is per (input, pc): it answers a different fault at the same
        // trigger whose occurrence also lies beyond the total.
        use swifi_core::fault::{ErrorOp, Target};
        let (compiled, family, input, spec) = never_arriving_fault();
        let mut full = RunSession::new(&compiled, family);
        let (mut session, total) = session_with_totals(&compiled, family, &input, &spec);
        let other = FaultSpec {
            what: ErrorOp::Replace(0),
            target: Target::DataBusStore,
            when: swifi_core::fault::Firing::Nth(total + 1),
            ..spec
        };
        assert_never_arrives(&mut session, &mut full, &input, &other);
    }

    #[test]
    fn never_arrives_from_a_tainted_trace() {
        // A self-modifying program: the capture run's arrival count at
        // the entry point is still exact and still replays.
        use swifi_core::fault::{ErrorOp, Firing, Target, Trigger};
        let (mut compiled, family, input, _) = never_arriving_fault();
        compiled.image = swifi_vm::asm::assemble(
            "li r5, 0x38600000
             li r9, 0x110
             stw r5, 0(r9)
             ori r0, r0, 0
             halt",
        )
        .unwrap();
        let entry = compiled.image.entry;
        let spec = FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(entry),
            when: Firing::Nth(2),
        };
        let mut full = RunSession::new(&compiled, family);
        let (mut session, total) = session_with_totals(&compiled, family, &input, &spec);
        assert_eq!(total, 1);
        assert_never_arrives(&mut session, &mut full, &input, &spec);
    }

    #[test]
    fn clean_runs_hit_the_golden_memo() {
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let inputs = target.family.test_case(2, 31);
        let mut a = RunSession::new(&compiled, target.family);
        let mut b = RunSession::new(&compiled, target.family);
        let cache = crate::prefix::PrefixCache::shared();
        a.set_prefix_cache(Some(cache.clone()));
        b.set_prefix_cache(Some(cache));
        for input in &inputs {
            let first = a.run_clean(input);
            let full_retired = a.last_retired();
            // Session b shares the cache: its "run" is answered without
            // executing, but reports the same outcome and retired count.
            let memo = b.run_clean(input);
            assert_eq!(memo, first);
            assert_eq!(b.last_retired(), full_retired);
        }
        let sb = b.stats();
        assert_eq!(sb.prefix_golden_hits, inputs.len() as u64);
        assert_eq!(sb.retired_instrs, 0, "memoized runs execute nothing");
        assert_eq!(sb.runs, inputs.len() as u64, "memoized runs still count");
    }

    #[test]
    fn try_run_injected_surfaces_structured_errors() {
        use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let input = &target.family.test_case(1, 5)[0];
        let mut session = RunSession::new(&compiled, target.family);

        // A memory-resident fault addressing unmapped guest memory fails
        // at prepare time with a structured error, not a panic.
        let unmapped = FaultSpec {
            what: ErrorOp::Replace(0),
            target: Target::Memory(0xFFFF_0000),
            trigger: Trigger::OpcodeFetch(0x100),
            when: Firing::First,
        };
        let err = session
            .try_run_injected(
                input,
                std::slice::from_ref(&unmapped),
                TriggerMode::Hardware,
                1,
            )
            .unwrap_err();
        assert!(matches!(err, SessionError::Prepare(_)), "{err}");

        // A fault set exceeding the hardware breakpoint budget fails at
        // build time.
        let many: Vec<FaultSpec> = (0..4)
            .map(|i| FaultSpec {
                what: ErrorOp::Xor(1),
                target: Target::InstrBus,
                trigger: Trigger::OpcodeFetch(0x100 + 4 * i),
                when: Firing::First,
            })
            .collect();
        let err = session
            .try_run_injected(input, &many, TriggerMode::Hardware, 1)
            .unwrap_err();
        assert!(matches!(err, SessionError::InjectorBuild(_)), "{err}");
        assert!(err.to_string().contains("injector build failed"));

        // Failed attempts leave no half-counted runs behind and the
        // session stays fully usable.
        let s = session.stats();
        assert_eq!(s.runs, 0, "{s:?}");
        assert_eq!(s.injected_runs, 0, "{s:?}");
        let (mode, fired) = session.run(input, None, 0);
        assert_eq!(mode, FailureMode::Correct);
        assert!(!fired);

        // The happy path matches the infallible entry point.
        let spec = FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(compiled.image.entry),
            when: Firing::First,
        };
        let ok = session
            .try_run_injected(input, std::slice::from_ref(&spec), TriggerMode::Hardware, 9)
            .unwrap();
        let mut twin = RunSession::new(&compiled, target.family);
        let want = twin.run_injected(input, std::slice::from_ref(&spec), TriggerMode::Hardware, 9);
        assert_eq!(ok, want);
    }

    #[test]
    fn throughput_equality_ignores_wall_clock() {
        let a = Throughput {
            runs: 10,
            fired_runs: 6,
            dormant_runs: 4,
            elapsed_secs: 1.0,
            ..Throughput::default()
        };
        let b = Throughput {
            runs: 10,
            fired_runs: 6,
            dormant_runs: 4,
            elapsed_secs: 9.0,
            retired_instrs: 1234,
            slow_fetches: 55,
            ..Throughput::default()
        };
        assert_eq!(a, b, "interpreter counters do not affect equality");
        let c = Throughput { runs: 11, ..a };
        assert_ne!(a, c);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.runs, 20);
        assert!((m.elapsed_secs - 10.0).abs() < 1e-12);
        assert!(m.runs_per_sec() > 0.0);
    }
}
