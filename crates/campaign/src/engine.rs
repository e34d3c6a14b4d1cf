//! The fault-tolerant campaign engine: structured run records, JSONL
//! checkpointing, and resume.
//!
//! The paper's methodology is campaigns of 10⁴–10⁵ independent runs; a
//! reproduction that *injects* faults must also *survive* them. This layer
//! wraps every work item dispatched through
//! [`crate::pool::parallel_map_resilient`] in a [`RunRecord`]:
//!
//! - a normal completion is `RunStatus::Ok(value)`;
//! - a panicking or wedged run is `RunStatus::Abnormal { .. }` — the
//!   paper's own "abnormal outcome" bucket, carrying the panic message and
//!   a description of the (fault, input) work item — and the campaign
//!   keeps going.
//!
//! Each completed record is appended to a seeded, per-campaign JSONL
//! checkpoint the moment it arrives, so a campaign killed mid-flight
//! resumes from disk: recorded items are *replayed* (not re-run) and the
//! resumed campaign folds to a report equal to an uninterrupted one with
//! the same seed — the determinism oracle the test suite pins.
//!
//! ## Checkpoint file format
//!
//! Line 1 is a [`CheckpointHeader`] identifying the campaign (driver +
//! target), seed, scale and format version; resuming against a
//! mismatched header is an error, not silent corruption, and a file of
//! another format version is refused by name. Every further line is one
//! record:
//!
//! ```json
//! {"campaign":"section6:JB.team11","seed":7,"scale":2,"version":2}
//! {"phase":"assign","index":3,"elapsed_micros":512,"status":{"Ok":...}}
//! {"phase":"assign","index":5,"elapsed_micros":44,"status":{"Abnormal":{"message":"...","detail":"..."}}}
//! ```
//!
//! A matrix phase ([`CampaignEngine::run_matrix`]) records one
//! [`crate::matrix::TileRecord`] per tile of inputs × faults. Version 1
//! files recorded one fault's runs per record; their indices mean
//! something else, so they are refused rather than misread.
//!
//! Records appear in completion order (workers race) and key by
//! `(phase, index)`. Each line is written with its newline in one
//! `write_all`, and a line counts only once its newline is on disk: an
//! unterminated final line is the torn tail of a kill mid-write and is
//! dropped (its item reruns), while a malformed terminated line anywhere
//! is corruption and errors. [`CheckpointLog::resume`] and
//! [`crate::shard::merge_checkpoints`] both read through
//! [`read_checkpoint`], so they agree on every file.

use std::collections::btree_map::{BTreeMap, Entry};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{DeError, Deserialize, Serialize, Value};
use swifi_trace::event::{arg_str, arg_u64};
use swifi_trace::{Telemetry, TraceEvent, ENGINE_TID};

use crate::matrix::{Matrix, Tile, TileRecord};
use crate::pool::{panic_message, parallel_map_resilient};
use crate::runner::ModeCounts;
use crate::session::{RunSession, SessionStats, Throughput};

/// How one work item ended: the driver's per-item value, or the abnormal
/// bucket for a run that panicked out of the harness.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus<R> {
    /// The item completed and produced the driver's per-item result.
    Ok(R),
    /// The item's closure panicked; the campaign recorded it and went on.
    Abnormal {
        /// The panic message (`<opaque panic payload>` if not a string).
        message: String,
        /// Driver-supplied description of the work item (fault id, input).
        detail: String,
    },
}

/// One completed work item of a campaign phase — the unit of the JSONL
/// checkpoint and of the resilience accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord<R> {
    /// The campaign phase this item belongs to (e.g. `assign`, `check`,
    /// or a program name).
    pub phase: String,
    /// The item's index within its phase (stable across resume).
    pub index: u64,
    /// Wall-clock cost of the item in microseconds (diagnostic only;
    /// replayed verbatim on resume).
    pub elapsed_micros: u64,
    /// How the item ended.
    pub status: RunStatus<R>,
}

// The vendored serde_derive stand-in does not support generics, so the
// record types implement the Value-tree model by hand.
impl<R: Serialize> Serialize for RunStatus<R> {
    fn to_value(&self) -> Value {
        match self {
            RunStatus::Ok(r) => Value::Object(vec![("Ok".to_string(), r.to_value())]),
            RunStatus::Abnormal { message, detail } => Value::Object(vec![(
                "Abnormal".to_string(),
                Value::Object(vec![
                    ("message".to_string(), Value::Str(message.clone())),
                    ("detail".to_string(), Value::Str(detail.clone())),
                ]),
            )]),
        }
    }
}

impl<R: Deserialize> Deserialize for RunStatus<R> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_object()
            .filter(|p| p.len() == 1)
            .ok_or_else(|| DeError::custom(format!("bad RunStatus: {v:?}")))?;
        let (tag, payload) = &pairs[0];
        match tag.as_str() {
            "Ok" => Ok(RunStatus::Ok(R::from_value(payload)?)),
            "Abnormal" => {
                let obj = payload
                    .as_object()
                    .ok_or_else(|| DeError::custom("Abnormal payload must be an object"))?;
                Ok(RunStatus::Abnormal {
                    message: String::from_value(serde::field(obj, "message")?)?,
                    detail: String::from_value(serde::field(obj, "detail")?)?,
                })
            }
            other => Err(DeError::custom(format!("unknown RunStatus tag `{other}`"))),
        }
    }
}

impl<R: Serialize> Serialize for RunRecord<R> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("phase".to_string(), Value::Str(self.phase.clone())),
            ("index".to_string(), Value::U64(self.index)),
            (
                "elapsed_micros".to_string(),
                Value::U64(self.elapsed_micros),
            ),
            ("status".to_string(), self.status.to_value()),
        ])
    }
}

impl<R: Deserialize> Deserialize for RunRecord<R> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::custom(format!("bad RunRecord: {v:?}")))?;
        Ok(RunRecord {
            phase: String::from_value(serde::field(obj, "phase")?)?,
            index: u64::from_value(serde::field(obj, "index")?)?,
            elapsed_micros: u64::from_value(serde::field(obj, "elapsed_micros")?)?,
            status: RunStatus::from_value(serde::field(obj, "status")?)?,
        })
    }
}

/// The first line of a checkpoint file: the campaign's identity. A resume
/// against a different campaign/seed/scale is refused.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    /// Campaign identity, `driver:target` (e.g. `section6:JB.team11`).
    pub campaign: String,
    /// The campaign seed (determinism anchor).
    pub seed: u64,
    /// The campaign scale knob (driver-defined; inputs-per-fault or runs).
    pub scale: u64,
    /// Checkpoint format version.
    pub version: u32,
}

/// The checkpoint format this build writes and reads: one record per
/// tile of a matrix phase.
pub const CHECKPOINT_VERSION: u32 = 2;

impl CheckpointHeader {
    /// Build a header of the current [`CHECKPOINT_VERSION`].
    pub fn new(campaign: impl Into<String>, seed: u64, scale: u64) -> CheckpointHeader {
        CheckpointHeader {
            campaign: campaign.into(),
            seed,
            scale,
            version: CHECKPOINT_VERSION,
        }
    }

    /// Require the checkpoint at `path`, whose header is `found`, to
    /// belong to this campaign.
    pub(crate) fn require(&self, found: &CheckpointHeader, path: &Path) -> Result<(), String> {
        if found == self {
            return Ok(());
        }
        let id = |h: &CheckpointHeader| format!("{}/seed {}/scale {}", h.campaign, h.seed, h.scale);
        Err(format!(
            "checkpoint `{}` belongs to a different campaign: found {}, expected {}",
            path.display(),
            id(found),
            id(self),
        ))
    }
}

/// Records keyed by `(phase, index)`, as raw JSON trees (drivers
/// deserialize their own record type on lookup).
pub(crate) type Records = BTreeMap<(String, u64), Value>;

/// A checkpoint file as [`read_checkpoint`] found it.
pub(crate) struct Checkpoint {
    pub(crate) header: CheckpointHeader,
    pub(crate) records: Records,
    /// Records whose key an earlier line already held (the first wins).
    pub(crate) duplicates: usize,
    /// Bytes of newline-terminated lines; anything past is a torn tail.
    pub(crate) valid_len: u64,
}

impl Checkpoint {
    /// Add a record unless an earlier one holds its key: the first wins
    /// and the duplicate is counted.
    pub(crate) fn insert(&mut self, key: (String, u64), v: Value) {
        match self.records.entry(key) {
            Entry::Occupied(_) => self.duplicates += 1,
            Entry::Vacant(slot) => {
                slot.insert(v);
            }
        }
    }

    /// Write the header, then the records in key order, to `path` in one
    /// write.
    pub(crate) fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = line_of(&self.header)?;
        for v in self.records.values() {
            text.push_str(&line_of(v)?);
        }
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write checkpoint `{}`: {e}", path.display()))
    }
}

/// The fields of a record line that key it.
#[derive(Deserialize)]
struct RecordKey {
    phase: String,
    index: u64,
}

/// Read a checkpoint file: `Ok(None)` when it is missing, empty, or its
/// header line lacks a newline (a kill before the header reached disk).
/// A file of another format version is refused. Only newline-terminated
/// lines count, so an unterminated final line is a torn tail even when
/// it parses; a malformed terminated line is corruption, named by file
/// and line.
pub(crate) fn read_checkpoint(path: &Path) -> Result<Option<Checkpoint>, String> {
    let file = path.display();
    let bytes = match std::fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        read => read.map_err(|e| format!("cannot read checkpoint `{file}`: {e}"))?,
    };
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    let Some(head) = lines.next().and_then(|l| l.strip_suffix(b"\n")) else {
        return Ok(None);
    };
    let header: CheckpointHeader =
        parse(head).map_err(|e| format!("checkpoint `{file}` has a bad header: {e}"))?;
    if header.version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint `{file}` is format version {}, and this build reads only version \
             {CHECKPOINT_VERSION}; rerun the campaign without --resume",
            header.version
        ));
    }
    let mut cp = Checkpoint {
        header,
        records: Records::new(),
        duplicates: 0,
        valid_len: head.len() as u64 + 1,
    };
    for (n, line) in lines.enumerate() {
        let Some(line) = line.strip_suffix(b"\n") else {
            break; // the torn tail
        };
        let (key, v) = parse(line)
            .and_then(|v| Ok((RecordKey::from_value(&v).map_err(|e| e.to_string())?, v)))
            .map_err(|e| format!("checkpoint `{file}` line {} is corrupt: {e}", n + 2))?;
        cp.insert((key.phase, key.index), v);
        cp.valid_len += line.len() as u64 + 1;
    }
    Ok(Some(cp))
}

/// One checkpoint line's JSON as a `T`.
fn parse<T: Deserialize>(line: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// One checkpoint line, newline included: written with one `write_all`,
/// a kill leaves either the whole line or an unterminated torn tail.
fn line_of(v: &impl Serialize) -> Result<String, String> {
    let mut line = serde_json::to_string(v).map_err(|e| e.to_string())?;
    line.push('\n');
    Ok(line)
}

/// Append-only JSONL checkpoint of completed [`RunRecord`]s.
pub struct CheckpointLog {
    path: PathBuf,
    file: std::fs::File,
    /// Records loaded on resume.
    loaded: Records,
}

impl std::fmt::Debug for CheckpointLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointLog")
            .field("path", &self.path)
            .field("loaded", &self.loaded.len())
            .finish()
    }
}

impl CheckpointLog {
    /// Start a fresh checkpoint: truncate `path` and write the header.
    pub fn create(path: &Path, header: &CheckpointHeader) -> Result<CheckpointLog, String> {
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create checkpoint `{}`: {e}", path.display()))?;
        file.write_all(line_of(header)?.as_bytes())
            .map_err(|e| format!("cannot write checkpoint header: {e}"))?;
        Ok(CheckpointLog {
            path: path.to_path_buf(),
            file,
            loaded: Records::new(),
        })
    }

    /// Resume from an existing checkpoint, or start fresh where
    /// [`read_checkpoint`] finds none. The stored header must match
    /// `header` exactly. A torn tail is truncated away, so appends start
    /// on a clean line boundary.
    pub fn resume(path: &Path, header: &CheckpointHeader) -> Result<CheckpointLog, String> {
        let Some(cp) = read_checkpoint(path)? else {
            return CheckpointLog::create(path, header);
        };
        header.require(&cp.header, path)?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|f| f.set_len(cp.valid_len).map(|()| f))
            .map_err(|e| format!("cannot append to checkpoint `{}`: {e}", path.display()))?;
        Ok(CheckpointLog {
            path: path.to_path_buf(),
            file,
            loaded: cp.records,
        })
    }

    /// Number of records loaded from disk on resume.
    pub fn loaded_records(&self) -> usize {
        self.loaded.len()
    }

    /// Append one completed record.
    pub fn append<R: Serialize>(&mut self, record: &RunRecord<R>) -> Result<(), String> {
        self.file
            .write_all(line_of(record)?.as_bytes())
            .map_err(|e| format!("cannot append to checkpoint `{}`: {e}", self.path.display()))
    }

    /// Whether a record for `(phase, index)` was loaded from disk.
    pub fn has(&self, phase: &str, index: u64) -> bool {
        self.loaded.contains_key(&(phase.to_string(), index))
    }

    /// The record for `(phase, index)` loaded from disk, if any.
    pub fn recorded<R: Deserialize>(
        &self,
        phase: &str,
        index: u64,
    ) -> Result<Option<RunRecord<R>>, String> {
        match self.loaded.get(&(phase.to_string(), index)) {
            None => Ok(None),
            Some(v) => RunRecord::from_value(v)
                .map(Some)
                .map_err(|e| format!("checkpoint record {phase}#{index} is corrupt: {e}")),
        }
    }
}

/// Robustness knobs shared by every campaign driver.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Append completed run records to this JSONL checkpoint file.
    pub checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint instead of truncating it: recorded items
    /// are replayed, the rest run and append.
    pub resume: bool,
    /// Per-run wall-clock watchdog: a run exceeding this deadline is
    /// classified [`crate::FailureMode::Hang`] instead of stalling its
    /// worker (defense in depth above the instruction budget).
    pub watchdog: Option<Duration>,
    /// Harness chaos knob: panic on this injected run, to demonstrate —
    /// and test — that a mid-campaign panic becomes one `Abnormal` record,
    /// not a lost campaign. Runs are counted across the matrix phases in
    /// run order, phase by phase, fault by fault: in a phase of `n`
    /// inputs, fault `f` on input `i` is run `f·n + i` of the phase. A
    /// [`CampaignEngine::run_phase`] phase counts its items instead.
    pub chaos_panic: Option<u64>,
    /// Disable prefix forking: matrix phases make no golden passes and
    /// every injected run executes its full prefix from the clean
    /// snapshot. Reports are identical either way (forking is an
    /// execution strategy, not a semantic change); the flag exists for
    /// A/B measurement and as an escape hatch.
    pub no_prefix_fork: bool,
    /// Disable the basic-block translation layer: sessions run every
    /// instruction through `Machine::step` over the predecoded lines. Like
    /// `no_prefix_fork`, purely an execution-strategy toggle — reports
    /// are identical either way — kept for A/B measurement and as an
    /// escape hatch.
    pub no_block_cache: bool,
    /// Shared telemetry hub (trace events, metrics, guest profiling).
    /// `None` — the default — is the no-op contract: sessions carry no
    /// worker telemetry and the per-run cost is a single `Option` test.
    /// Telemetry never participates in report equality.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Run only this shard's contiguous slice of each phase's items; the
    /// rest are neither executed nor recorded. Shard checkpoints union
    /// into a whole campaign via [`crate::shard::merge_checkpoints`], and
    /// a final resume pass over the merged checkpoint reproduces the
    /// single-process report exactly (the shard-equality oracle).
    pub shard: Option<crate::shard::Shard>,
    /// Has no effect until the next benchmark change drops it: the
    /// benchmark harness still sets it.
    pub no_prune: bool,
}

impl CampaignOptions {
    /// Options with a checkpoint path set.
    pub fn with_checkpoint(path: impl Into<PathBuf>, resume: bool) -> CampaignOptions {
        CampaignOptions {
            checkpoint: Some(path.into()),
            resume,
            ..CampaignOptions::default()
        }
    }

    /// Apply the per-session knobs — watchdog deadline and block cache —
    /// to a freshly built session. Every driver's sessions funnel through
    /// here so a new knob reaches all campaigns at once.
    pub fn configure_session(&self, s: &mut RunSession) {
        s.set_watchdog(self.watchdog);
        s.set_block_cache(!self.no_block_cache);
    }

    /// A worker session for `program`, configured by
    /// [`CampaignOptions::configure_session`], on its own telemetry lane.
    pub fn session(
        &self,
        program: &swifi_lang::Program,
        family: swifi_programs::Family,
    ) -> RunSession {
        let mut s = RunSession::new(program, family);
        self.configure_session(&mut s);
        s.set_telemetry(self.telemetry.as_ref().map(|t| t.worker()));
        s
    }
}

/// Wall-clock accounting for one campaign phase, recorded by
/// [`CampaignEngine::run_phase`] and surfaced in reports so phase-level
/// throughput is visible without external timing.
///
/// `PartialEq` deliberately ignores `elapsed_secs`: phase wall-clock is
/// host-dependent diagnostics, and campaign structs that embed phase
/// times must keep satisfying the resume/shard equality oracles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseTime {
    /// The phase name passed to [`CampaignEngine::run_phase`] or
    /// [`CampaignEngine::run_matrix`].
    pub phase: String,
    /// The phase's faults (a matrix phase, whatever its tiling) or work
    /// items (a [`CampaignEngine::run_phase`] phase), replayed and
    /// executed alike.
    pub items: u64,
    /// Wall-clock seconds the phase took this process (resumed phases
    /// that replay entirely from the checkpoint report near-zero).
    pub elapsed_secs: f64,
}

impl PartialEq for PhaseTime {
    fn eq(&self, other: &PhaseTime) -> bool {
        (&self.phase, self.items) == (&other.phase, other.items)
    }
}

impl PhaseTime {
    /// Items per wall-clock second (0 when nothing was measured).
    pub fn items_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.items as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// What [`CampaignEngine::close`] hands back to the driver.
#[derive(Debug)]
pub struct CampaignClose {
    /// Run counts from the records, engine counters from the sessions.
    pub throughput: Throughput,
    /// Wall clock of every phase, in run order.
    pub phase_times: Vec<PhaseTime>,
    /// The records' abnormal runs, then one `telemetry` record per
    /// metrics merge that failed when a worker lane retired.
    pub abnormal: Vec<AbnormalRun>,
}

/// What [`CampaignEngine::run_matrix`] hands back for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRuns {
    /// Each fault's failure modes and dormant runs over the inputs, in
    /// fault order; abnormal runs are left out. In a shard pass, only the
    /// runs this process executed or replayed count.
    pub per_fault: Vec<(ModeCounts, u64)>,
    /// One record per tile lost whole, then one per run that panicked,
    /// naming its fault (`index`) and input.
    pub abnormal: Vec<AbnormalRun>,
}

impl PhaseRuns {
    /// The phase's failure modes and dormant runs, summed over its faults.
    pub fn totals(&self) -> (ModeCounts, u64) {
        let mut modes = ModeCounts::default();
        let mut dormant = 0;
        for (counts, d) in &self.per_fault {
            modes.merge(counts);
            dormant += d;
        }
        (modes, dormant)
    }
}

/// The per-campaign execution engine: owns the checkpoint log, runs
/// phases of work items through the resilient pool, and closes the
/// campaign (run totals, telemetry retirement, the `campaign` span).
#[derive(Debug)]
pub struct CampaignEngine {
    /// The campaign's identity, as its checkpoint header names it.
    label: String,
    log: Option<CheckpointLog>,
    /// When the campaign started: its wall clock and `campaign` span.
    t0: Instant,
    span_start: Option<u64>,
    telemetry: Option<Arc<Telemetry>>,
    phase_times: Vec<PhaseTime>,
    shard: Option<crate::shard::Shard>,
    chaos_panic: Option<u64>,
    /// Runs (or items) in the phases run so far: the global index of the
    /// next phase's first one, which [`CampaignOptions::chaos_panic`]
    /// counts in.
    chaos_base: u64,
    /// Whether matrix phases make golden passes to fork from.
    fork: bool,
    /// Merged counters of the matrix phases' worker sessions, and the
    /// largest ladder any of them held.
    stats: SessionStats,
    ladder_peak_bytes: u64,
}

impl CampaignEngine {
    /// Build an engine for one campaign identified by `header`, honouring
    /// the checkpoint/resume options. The campaign's wall clock and
    /// `campaign` span start here.
    pub fn new(header: CheckpointHeader, opts: &CampaignOptions) -> Result<CampaignEngine, String> {
        let log = match &opts.checkpoint {
            None => None,
            Some(path) if opts.resume => Some(CheckpointLog::resume(path, &header)?),
            Some(path) => Some(CheckpointLog::create(path, &header)?),
        };
        if let Some(shard) = &opts.shard {
            shard.validate()?;
        }
        Ok(CampaignEngine {
            label: header.campaign,
            log,
            t0: Instant::now(),
            span_start: opts.telemetry.as_deref().map(Telemetry::now_us),
            telemetry: opts.telemetry.clone(),
            phase_times: Vec::new(),
            shard: opts.shard,
            chaos_panic: opts.chaos_panic,
            chaos_base: 0,
            fork: !opts.no_prefix_fork,
            stats: SessionStats::default(),
            ladder_peak_bytes: 0,
        })
    }

    /// Records already on disk for any phase (0 without a checkpoint).
    pub fn resumed_records(&self) -> usize {
        self.log.as_ref().map_or(0, CheckpointLog::loaded_records)
    }

    /// Take ownership of the recorded phase times, for a caller that
    /// folds its campaign itself instead of calling
    /// [`CampaignEngine::close`].
    pub fn take_phase_times(&mut self) -> Vec<PhaseTime> {
        std::mem::take(&mut self.phase_times)
    }

    /// Indices of a phase's `items` that [`CampaignEngine::run_phase`]
    /// will execute in this process: its shard's slice, minus the items
    /// the checkpoint already records.
    pub fn executes(&self, phase: &str, items: usize) -> Vec<usize> {
        let mine = self.shard.map_or(0..items, |s| s.range(items));
        mine.filter(|&i| {
            self.log
                .as_ref()
                .is_none_or(|log| !log.has(phase, i as u64))
        })
        .collect()
    }

    /// Run one phase: every item either replays from the checkpoint or is
    /// executed on the resilient pool, recorded, and appended.
    ///
    /// `f(state, index, item)` produces the per-item value; `describe`
    /// labels the item for `Abnormal` records. Returns the phase's records
    /// in item order plus the worker states that actually ran (empty when
    /// everything replayed). The item [`CampaignOptions::chaos_panic`]
    /// names, counted across phases in run order, panics before `f` runs.
    #[allow(clippy::type_complexity)]
    pub fn run_phase<T, S, R, I, F, D>(
        &mut self,
        phase: &str,
        items: &[T],
        init: I,
        f: F,
        describe: D,
    ) -> Result<(Vec<RunRecord<R>>, Vec<S>), String>
    where
        T: Sync,
        S: Send,
        R: Serialize + Deserialize + Clone + Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
        D: Fn(usize, &T) -> String + Sync,
    {
        let t0 = Instant::now();
        let span_start = self.telemetry.as_deref().map(Telemetry::now_us);
        let (chaos, base) = (self.chaos_panic, self.chaos_base);
        self.chaos_base += items.len() as u64;
        let chaotic = |state: &mut S, i: usize, item: &T| {
            if chaos == Some(base + i as u64) {
                panic!("chaos-panic injected at campaign item {}", base + i as u64);
            }
            f(state, i, item)
        };
        let (records, states, executed) = self.dispatch(phase, items, init, chaotic, describe)?;
        self.finish_phase(phase, items.len(), items.len(), executed, t0, span_start);
        Ok((records, states))
    }

    /// Run one input-major phase: every fault of `matrix` on every input,
    /// tile by tile ([`Matrix::tiles`]) across the resilient pool. A tile
    /// replays from the checkpoint or runs on a worker session from
    /// `session`: for each of its inputs the worker holds the input's
    /// golden pass ([`RunSession::hold_ladder`], unless
    /// [`CampaignOptions::no_prefix_fork`]) and runs the tile's faults
    /// against it, fault `f` on input `i` seeded `seed_of(f, i)`. Each
    /// tile appends one [`TileRecord`] to the checkpoint.
    ///
    /// A run that panics costs that one run: it becomes an abnormal
    /// record naming the phase, the fault (`index` is `f`, and the detail
    /// starts with `describe(f)`) and the input, and its session is
    /// replaced before the tile goes on. [`CampaignOptions::chaos_panic`]
    /// counts runs here.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O failures, and recorded tiles that do not match the
    /// phase's tiling.
    pub fn run_matrix<S, R, D>(
        &mut self,
        phase: &str,
        matrix: &Matrix,
        session: S,
        seed_of: R,
        describe: D,
    ) -> Result<PhaseRuns, String>
    where
        S: Fn() -> RunSession + Sync,
        R: Fn(usize, usize) -> u64 + Sync,
        D: Fn(usize) -> String + Sync,
    {
        let t0 = Instant::now();
        let span_start = self.telemetry.as_deref().map(Telemetry::now_us);
        let (faults, inputs) = (matrix.faults, matrix.inputs);
        let (chaos, base) = (self.chaos_panic, self.chaos_base);
        self.chaos_base += (faults.len() * inputs.len()) as u64;
        let (fork, telemetry) = (self.fork, self.telemetry.clone());
        // A worker's sessions: the last one runs, the others panicked.
        let run_tile = |w: &mut Vec<RunSession>, _: usize, tile: &Tile| {
            let mut record = TileRecord::new(tile.faults.len());
            for (k, f, i) in matrix.runs(tile) {
                let run = base + (f * inputs.len() + i) as u64;
                let current = w.last_mut().expect("a worker holds a session");
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    if chaos == Some(run) {
                        panic!("chaos-panic injected at campaign run {run}");
                    }
                    matrix.run(current, fork, f, i, seed_of(f, i))
                }));
                match ran {
                    Ok((mode, fired)) => record.add(k, mode, fired),
                    Err(payload) => {
                        let message = panic_message(payload.as_ref());
                        if let Some(t) = &telemetry {
                            let (index, text) = (arg_u64("index", f as u64), &message);
                            let args =
                                vec![arg_str("phase", phase), index, arg_str("message", text)];
                            t.engine_instant("worker_panic", args);
                        }
                        record.abnormal.push((f as u64, i as u64, message));
                        w.push(session());
                    }
                }
            }
            record
        };
        let tiles = matrix.tiles();
        let (records, workers, executed) = self.dispatch(
            phase,
            &tiles,
            || vec![session()],
            run_tile,
            |k, tile| {
                let (f, i) = (&tile.faults, &tile.inputs);
                format!("{phase} tile #{k}: faults {f:?} in trigger order, inputs {i:?}")
            },
        )?;
        for s in workers.iter().flatten() {
            self.stats.merge(&s.stats());
            self.ladder_peak_bytes = self.ladder_peak_bytes.max(s.ladder_peak_bytes());
        }
        let (recorded, abnormal) = split_records(records);
        let mut runs = PhaseRuns {
            per_fault: vec![(ModeCounts::default(), 0); faults.len()],
            abnormal,
        };
        for (index, t) in recorded {
            let tile = &tiles[index as usize];
            let fits = t.counts.len() == tile.faults.len()
                && (t.abnormal.iter())
                    .all(|&(f, i, _)| f < faults.len() as u64 && i < inputs.len() as u64);
            if !fits {
                let e = format!("checkpoint record {phase}#{index} does not fit tile {tile:?}");
                return Err(e);
            }
            for (k, (counts, dormant)) in t.counts.iter().enumerate() {
                let (c, d) = &mut runs.per_fault[matrix.fault_at(tile.faults.start + k)];
                c.merge(counts);
                *d += dormant;
            }
            runs.abnormal
                .extend(t.abnormal.into_iter().map(|(f, i, message)| AbnormalRun {
                    phase: phase.to_string(),
                    index: f,
                    message,
                    detail: format!("{}, input #{i}", describe(f as usize)),
                }));
        }
        self.finish_phase(phase, faults.len(), tiles.len(), executed, t0, span_start);
        Ok(runs)
    }

    /// Replay a phase's recorded items and run the rest on the resilient
    /// pool, appending each record to the checkpoint on arrival. Returns
    /// the records in item order, the worker states that ran, and how
    /// many items ran.
    #[allow(clippy::type_complexity)]
    fn dispatch<T, S, R, I, F, D>(
        &mut self,
        phase: &str,
        items: &[T],
        init: I,
        f: F,
        describe: D,
    ) -> Result<(Vec<RunRecord<R>>, Vec<S>, usize), String>
    where
        T: Sync,
        S: Send,
        R: Serialize + Deserialize + Clone + Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
        D: Fn(usize, &T) -> String + Sync,
    {
        // Recorded items replay whatever the shard (a merged checkpoint
        // may carry records from every shard, and replay is what makes the
        // final resume pass reproduce the whole campaign); another shard's
        // unrecorded items are neither run nor recorded.
        let mut records: Vec<Option<RunRecord<R>>> = (0..items.len()).map(|_| None).collect();
        if let Some(log) = &self.log {
            for (i, record) in records.iter_mut().enumerate() {
                *record = log.recorded::<R>(phase, i as u64)?;
            }
        }
        let pending: Vec<(usize, &T)> = (self.executes(phase, items.len()).into_iter())
            .map(|i| (i, &items[i]))
            .collect();

        if pending.is_empty() {
            return Ok((records.into_iter().flatten().collect(), Vec::new(), 0));
        }

        let log = &mut self.log;
        let telemetry = self.telemetry.clone();
        let mut io_error: Option<String> = None;
        let (caught, states) = parallel_map_resilient(
            &pending,
            &init,
            |state, &(i, item)| f(state, i, item),
            |j, run| {
                let (i, item) = pending[j];
                // Checkpoint on arrival so a mid-campaign kill keeps every
                // completed record.
                if let Some(log) = log.as_mut() {
                    let record = caught_to_record(phase, i as u64, run, || describe(i, item));
                    if let Err(e) = log.append(&record) {
                        io_error.get_or_insert(e);
                    }
                    if let Some(t) = &telemetry {
                        t.engine_instant(
                            "checkpoint_flush",
                            vec![arg_str("phase", phase), arg_u64("index", i as u64)],
                        );
                    }
                }
                if let (Some(t), Err(message)) = (&telemetry, &run.result) {
                    t.engine_instant(
                        "worker_panic",
                        vec![
                            arg_str("phase", phase),
                            arg_u64("index", i as u64),
                            arg_str("message", message.clone()),
                        ],
                    );
                }
            },
        );
        if let Some(e) = io_error {
            return Err(e);
        }
        for (j, run) in caught.into_iter().enumerate() {
            let (i, item) = pending[j];
            records[i] = Some(caught_to_record(phase, i as u64, &run, || {
                describe(i, item)
            }));
        }
        let records = records.into_iter().flatten().collect();
        Ok((records, states, pending.len()))
    }

    /// Close the campaign after its last phase. Call it once the worker
    /// sessions are dropped: their telemetry lanes drain on drop, and a
    /// metrics merge that fails there must land in this campaign's
    /// abnormal bucket, as a data point like any other abnormal run.
    ///
    /// `stats` are the merged counters of the sessions the driver ran
    /// itself (the matrix phases' sessions are counted already), and
    /// `runs`/`dormant` the totals folded from the records. The returned
    /// [`Throughput`] takes its run counts from the records, because on
    /// resume the replayed items never touch a session and the totals
    /// must not depend on where the previous process died; wall clock
    /// and engine counters (ignored by equality) come from the sessions.
    /// The `campaign` span closes with the checkpoint header's campaign
    /// label and the run total.
    pub fn close(
        mut self,
        stats: &SessionStats,
        runs: u64,
        dormant: u64,
        mut abnormal: Vec<AbnormalRun>,
    ) -> CampaignClose {
        self.stats.merge(stats);
        let elapsed = self.t0.elapsed();
        let mut throughput = Throughput::from_stats(&self.stats, elapsed, self.ladder_peak_bytes);
        throughput.runs = runs;
        throughput.fired_runs = runs - dormant;
        throughput.dormant_runs = dormant;
        if let Some(t) = self.telemetry.as_deref() {
            for message in t.take_merge_errors() {
                abnormal.push(AbnormalRun {
                    phase: "telemetry".to_string(),
                    index: abnormal.len() as u64,
                    message,
                    detail: "metrics merge on worker retire".to_string(),
                });
            }
            if let Some(start) = self.span_start {
                t.engine_event(TraceEvent::complete(
                    "campaign",
                    start,
                    t.now_us().saturating_sub(start),
                    ENGINE_TID,
                    vec![arg_str("campaign", &self.label), arg_u64("runs", runs)],
                ));
            }
        }
        CampaignClose {
            throughput,
            phase_times: self.phase_times,
            abnormal,
        }
    }

    /// Record the phase's wall clock over its `items`, and close its
    /// trace span: `executed` of its `units` dispatched work items ran,
    /// the rest replayed.
    fn finish_phase(
        &mut self,
        phase: &str,
        items: usize,
        units: usize,
        executed: usize,
        t0: Instant,
        span_start: Option<u64>,
    ) {
        self.phase_times.push(PhaseTime {
            phase: phase.to_string(),
            items: items as u64,
            elapsed_secs: t0.elapsed().as_secs_f64(),
        });
        if let (Some(t), Some(start)) = (&self.telemetry, span_start) {
            let end = t.now_us();
            t.engine_event(TraceEvent::complete(
                format!("phase:{phase}"),
                start,
                end.saturating_sub(start),
                ENGINE_TID,
                vec![
                    arg_u64("items", items as u64),
                    arg_u64("executed", executed as u64),
                    arg_u64("replayed", (units - executed) as u64),
                ],
            ));
        }
    }
}

/// Convert one pool result into a record (`describe` is only invoked for
/// abnormal runs).
fn caught_to_record<R: Clone>(
    phase: &str,
    index: u64,
    run: &crate::pool::CaughtRun<R>,
    describe: impl FnOnce() -> String,
) -> RunRecord<R> {
    let status = match &run.result {
        Ok(r) => RunStatus::Ok(r.clone()),
        Err(message) => RunStatus::Abnormal {
            message: message.clone(),
            detail: describe(),
        },
    };
    RunRecord {
        phase: phase.to_string(),
        index,
        elapsed_micros: run.elapsed.as_micros() as u64,
        status,
    }
}

/// One abnormal campaign item, surfaced in driver results and reports —
/// the run is data, not a process abort.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbnormalRun {
    /// Phase the item belonged to.
    pub phase: String,
    /// Item index within the phase.
    pub index: u64,
    /// The caught panic message.
    pub message: String,
    /// Driver description of the work item.
    pub detail: String,
}

/// Split a phase's records into the driver's per-item values (with their
/// indices) and the abnormal bucket.
pub fn split_records<R>(records: Vec<RunRecord<R>>) -> (Vec<(u64, R)>, Vec<AbnormalRun>) {
    let mut ok = Vec::with_capacity(records.len());
    let mut abnormal = Vec::new();
    for rec in records {
        match rec.status {
            RunStatus::Ok(r) => ok.push((rec.index, r)),
            RunStatus::Abnormal { message, detail } => abnormal.push(AbnormalRun {
                phase: rec.phase,
                index: rec.index,
                message,
                detail,
            }),
        }
    }
    (ok, abnormal)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "swifi-engine-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let rec = RunRecord {
            phase: "assign".to_string(),
            index: 7,
            elapsed_micros: 1234,
            status: RunStatus::Ok((3u64, "x".to_string())),
        };
        let line = serde_json::to_string(&rec).unwrap();
        let back: RunRecord<(u64, String)> = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);

        let ab: RunRecord<u32> = RunRecord {
            phase: "check".to_string(),
            index: 0,
            elapsed_micros: 9,
            status: RunStatus::Abnormal {
                message: "boom \"quoted\"\nline".to_string(),
                detail: "fault 0".to_string(),
            },
        };
        let line = serde_json::to_string(&ab).unwrap();
        assert_eq!(serde_json::from_str::<RunRecord<u32>>(&line).unwrap(), ab);
    }

    #[test]
    fn engine_without_checkpoint_runs_everything() {
        let items: Vec<u32> = (0..20).collect();
        let mut engine = CampaignEngine::new(
            CheckpointHeader::new("t", 1, 1),
            &CampaignOptions::default(),
        )
        .unwrap();
        let (records, states) = engine
            .run_phase(
                "p",
                &items,
                || 0u64,
                |count, _, &x| {
                    *count += 1;
                    x * 3
                },
                |i, _| format!("item {i}"),
            )
            .unwrap();
        assert_eq!(records.len(), 20);
        assert!(records
            .iter()
            .enumerate()
            .all(|(i, r)| r.status == RunStatus::Ok(i as u32 * 3)));
        assert_eq!(states.iter().sum::<u64>(), 20);
    }

    #[test]
    fn checkpoint_resume_replays_recorded_items() {
        let path = temp_path("resume");
        let header = CheckpointHeader::new("resume-test", 42, 3);
        let items: Vec<u32> = (0..10).collect();

        // First pass: record only the first 4 items, then "die".
        {
            let mut log = CheckpointLog::create(&path, &header).unwrap();
            for i in 0..4u64 {
                log.append(&RunRecord {
                    phase: "p".to_string(),
                    index: i,
                    elapsed_micros: 1,
                    status: RunStatus::Ok(i as u32 * 3),
                })
                .unwrap();
            }
        }
        // Simulate a torn final line from a kill mid-append.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"phase\":\"p\",\"ind").unwrap();
        }

        let opts = CampaignOptions::with_checkpoint(&path, true);
        let mut engine = CampaignEngine::new(header, &opts).unwrap();
        assert_eq!(engine.resumed_records(), 4);
        assert_eq!(
            engine.executes("p", items.len()),
            (4..10).collect::<Vec<_>>()
        );
        assert_eq!(engine.executes("q", 2), [0, 1], "records are per phase");
        let executed = std::sync::atomic::AtomicU64::new(0);
        let (records, _) = engine
            .run_phase(
                "p",
                &items,
                || (),
                |(), _, &x| {
                    executed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    x * 3
                },
                |i, _| format!("item {i}"),
            )
            .unwrap();
        // Only the unrecorded items actually ran; the report is whole.
        assert_eq!(executed.load(std::sync::atomic::Ordering::Relaxed), 6);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.status, RunStatus::Ok(i as u32 * 3), "item {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_against_zero_byte_checkpoint_is_a_fresh_start() {
        // A kill between `File::create` and the header write leaves an
        // empty file; resume must treat it like the missing-file path.
        let path = temp_path("empty");
        std::fs::write(&path, "").unwrap();
        let header = CheckpointHeader::new("e", 7, 1);
        let mut log = CheckpointLog::resume(&path, &header).unwrap();
        assert_eq!(log.loaded_records(), 0);
        log.append(&RunRecord {
            phase: "p".to_string(),
            index: 0,
            elapsed_micros: 1,
            status: RunStatus::Ok(1u32),
        })
        .unwrap();
        drop(log);
        // The fresh start wrote a real header, so the next resume loads.
        let log = CheckpointLog::resume(&path, &header).unwrap();
        assert_eq!(log.loaded_records(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_mode_runs_only_its_slice() {
        let items: Vec<u32> = (0..10).collect();
        let opts = CampaignOptions {
            shard: Some(crate::shard::Shard::new(1, 3).unwrap()),
            ..CampaignOptions::default()
        };
        let mut engine = CampaignEngine::new(CheckpointHeader::new("s", 1, 1), &opts).unwrap();
        assert_eq!(engine.executes("p", items.len()), [3, 4, 5]);
        let (records, _) = engine
            .run_phase(
                "p",
                &items,
                || (),
                |(), _, &x| x,
                |i, _| format!("item {i}"),
            )
            .unwrap();
        // Shard 1 of 3 over 10 items owns indices 3..6 and nothing else.
        let indices: Vec<u64> = records.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![3, 4, 5]);
    }

    #[test]
    fn invalid_shard_is_refused() {
        let opts = CampaignOptions {
            shard: Some(crate::shard::Shard { index: 5, count: 3 }),
            ..CampaignOptions::default()
        };
        let err = CampaignEngine::new(CheckpointHeader::new("s", 1, 1), &opts).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn version_1_checkpoints_are_refused_by_resume_and_merge() {
        // A fault-major file keys one fault's runs per record; read as
        // tiles it would fold to a wrong report, so both readers refuse it
        // and say which versions are involved.
        let path = temp_path("v1");
        let header = CheckpointHeader::new("section6:JB.team11", 7, 3);
        let v1 = CheckpointHeader {
            version: 1,
            ..header.clone()
        };
        let record =
            "{\"phase\":\"assign\",\"index\":0,\"elapsed_micros\":1,\"status\":{\"Ok\":0}}";
        std::fs::write(&path, format!("{}{record}\n", line_of(&v1).unwrap())).unwrap();
        let out = temp_path("v1-merged");
        let errors = [
            CheckpointLog::resume(&path, &header).unwrap_err(),
            crate::shard::merge_checkpoints(std::slice::from_ref(&path), &out).unwrap_err(),
        ];
        for err in errors {
            assert!(
                err.contains("version 1") && err.contains("version 2"),
                "{err}"
            );
        }
        assert!(!out.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_workers_compile_each_fault_once_and_lose_one_run_per_panic() {
        use crate::matrix::Matrix;
        let target = swifi_programs::program("JB.team6").unwrap();
        let compiled = swifi_lang::compile(target.source_correct).unwrap();
        let set = swifi_core::locations::generate_error_set(&compiled.debug, 3, 3, 5);
        let specs: Vec<_> = (set.assign_faults.iter().chain(&set.check_faults))
            .map(|f| f.spec)
            .collect();
        let inputs = target.family.test_case(30, 5);
        let matrix = Matrix::new(&specs, &inputs);
        let opts = CampaignOptions {
            chaos_panic: Some(7),
            ..CampaignOptions::default()
        };
        let mut engine = CampaignEngine::new(CheckpointHeader::new("m", 1, 30), &opts).unwrap();
        let runs = engine
            .run_matrix(
                "p",
                &matrix,
                || opts.session(&compiled, target.family),
                |f, i| (f * 100 + i) as u64,
                |f| format!("fault #{f}"),
            )
            .unwrap();
        // Run 7 is fault 0 on input 7: its one run is lost, no other.
        assert_eq!(runs.abnormal.len(), 1);
        let a = &runs.abnormal[0];
        assert_eq!((a.index, a.detail.as_str()), (0, "fault #0, input #7"));
        let (modes, _) = runs.totals();
        assert_eq!(modes.total(), (specs.len() * inputs.len()) as u64 - 1);
        assert_eq!(runs.per_fault[0].0.total(), inputs.len() as u64 - 1);
        // One injector per fault per worker, the panicked worker's
        // replacement session included.
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        let bound = specs.len() * (workers + 1);
        assert!(
            engine.stats.injector_rebuilds as usize <= bound,
            "{:?}",
            engine.stats
        );
        assert!(engine.stats.prefix_golden_passes >= inputs.len() as u64);
        assert!(engine.ladder_peak_bytes > 0);
    }

    #[test]
    fn resume_refuses_mismatched_header() {
        let path = temp_path("mismatch");
        CheckpointLog::create(&path, &CheckpointHeader::new("a", 1, 2)).unwrap();
        let err = CheckpointLog::resume(&path, &CheckpointHeader::new("a", 9, 2))
            .expect_err("seed mismatch must be refused");
        assert!(err.contains("different campaign"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_middle_record_is_an_error() {
        let path = temp_path("corrupt");
        let header = CheckpointHeader::new("c", 1, 1);
        {
            let mut log = CheckpointLog::create(&path, &header).unwrap();
            log.append(&RunRecord {
                phase: "p".to_string(),
                index: 0,
                elapsed_micros: 1,
                status: RunStatus::Ok(1u32),
            })
            .unwrap();
        }
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "not json at all").unwrap();
            writeln!(
                f,
                "{{\"phase\":\"p\",\"index\":1,\"elapsed_micros\":1,\"status\":{{\"Ok\":2}}}}"
            )
            .unwrap();
        }
        let err = CheckpointLog::resume(&path, &header).expect_err("corrupt");
        assert!(err.contains("corrupt"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    fn record(index: u64) -> RunRecord<u32> {
        RunRecord {
            phase: "p".to_string(),
            index,
            elapsed_micros: 1,
            status: RunStatus::Ok(index as u32),
        }
    }

    #[test]
    fn unterminated_final_record_reruns_instead_of_gluing_appends() {
        // A kill between a record and its newline leaves a complete but
        // unterminated line: it is a torn tail, so resume drops it and
        // later appends start on a fresh line.
        let path = temp_path("unterminated");
        let header = CheckpointHeader::new("u", 1, 1);
        {
            let mut log = CheckpointLog::create(&path, &header).unwrap();
            log.append(&record(0)).unwrap();
            log.append(&record(1)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.pop(), Some(b'\n'));
        std::fs::write(&path, bytes).unwrap();
        {
            let mut log = CheckpointLog::resume(&path, &header).unwrap();
            assert_eq!(log.loaded_records(), 1, "record 1 reruns");
            log.append(&record(1)).unwrap();
            log.append(&record(2)).unwrap();
        }
        let log = CheckpointLog::resume(&path, &header).unwrap();
        assert_eq!(log.loaded_records(), 3);
        let out = temp_path("unterminated-merged");
        let summary = crate::shard::merge_checkpoints(std::slice::from_ref(&path), &out).unwrap();
        assert_eq!((summary.records, summary.duplicates), (3, 0));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }

    /// One way to damage a valid checkpoint file.
    #[derive(Debug, Clone)]
    enum Damage {
        Truncate(usize),
        FlipByte(usize, u8),
        DuplicateLine(usize),
    }

    fn arb_damage() -> impl proptest::Strategy<Value = Damage> {
        use proptest::prelude::*;
        prop_oneof![
            any::<usize>().prop_map(Damage::Truncate),
            (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::FlipByte(at, mask)),
            any::<usize>().prop_map(Damage::DuplicateLine),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Resume on a truncated, bit-flipped or line-duplicated
        /// checkpoint returns `Ok` or `Err` and never panics; merging the
        /// same bytes agrees with it, and a successful resume keeps
        /// appending cleanly.
        #[test]
        fn resume_survives_corrupt_checkpoints(damage in arb_damage()) {
            let path = temp_path("fuzz");
            let header = CheckpointHeader::new("fuzz", 11, 3);
            {
                let mut log = CheckpointLog::create(&path, &header).unwrap();
                for i in 0..4u64 {
                    let status = if i == 2 {
                        RunStatus::Abnormal {
                            message: "chaos".to_string(),
                            detail: format!("item {i}"),
                        }
                    } else {
                        RunStatus::Ok((i as u32, vec![i; 3]))
                    };
                    log.append(&RunRecord {
                        phase: "p".to_string(),
                        index: i,
                        elapsed_micros: 7 * i,
                        status,
                    })
                    .unwrap();
                }
            }
            let mut bytes = std::fs::read(&path).unwrap();
            match damage {
                Damage::Truncate(at) => bytes.truncate(at % (bytes.len() + 1)),
                Damage::FlipByte(at, mask) => {
                    let at = at % bytes.len();
                    bytes[at] ^= mask;
                }
                Damage::DuplicateLine(at) => {
                    let starts: Vec<usize> = std::iter::once(0)
                        .chain(bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1))
                        .filter(|&i| i < bytes.len())
                        .collect();
                    let start = starts[at % starts.len()];
                    let end = bytes[start..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |i| start + i + 1);
                    let line = bytes[start..end].to_vec();
                    bytes.splice(end..end, line);
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            let keys = |log: CheckpointLog| log.loaded.into_keys().collect::<Vec<_>>();
            // A shard with no checkpoint merges as missing, where resume
            // starts fresh; otherwise the merged file must resume to the
            // same records.
            let out = temp_path("fuzz-merged");
            let merged = match read_checkpoint(&path) {
                Ok(None) => Ok(Vec::new()),
                _ => crate::shard::merge_checkpoints(std::slice::from_ref(&path), &out)
                    .and_then(|_| CheckpointLog::resume(&out, &header))
                    .map(keys),
            };
            let resumed = CheckpointLog::resume(&path, &header);
            match (&resumed, &merged) {
                (Ok(log), Ok(merged)) => {
                    proptest::prop_assert!(log.loaded_records() <= 4, "{damage:?}");
                    let resumed_keys: Vec<_> = log.loaded.keys().cloned().collect();
                    proptest::prop_assert_eq!(&resumed_keys, merged, "{:?}", damage);
                }
                (Err(_), Err(_)) => {}
                _ => proptest::prop_assert!(false, "{damage:?}: {resumed:?} vs {merged:?}"),
            }
            if let Ok(mut log) = resumed {
                let before = log.loaded_records();
                log.append(&record(1000)).unwrap();
                drop(log);
                let again = CheckpointLog::resume(&path, &header);
                proptest::prop_assert_eq!(
                    again.map(|l| l.loaded_records()),
                    Ok(before + 1),
                    "{:?}",
                    damage
                );
            }
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(&out).ok();
        }
    }

    #[test]
    fn abnormal_items_become_records_and_split_out() {
        let items: Vec<u32> = (0..8).collect();
        let mut engine = CampaignEngine::new(
            CheckpointHeader::new("ab", 1, 1),
            &CampaignOptions::default(),
        )
        .unwrap();
        let (records, _) = engine
            .run_phase(
                "p",
                &items,
                || (),
                |(), _, &x| {
                    if x == 5 {
                        panic!("chaos at {x}");
                    }
                    x
                },
                |i, _| format!("item {i}"),
            )
            .unwrap();
        let (ok, abnormal) = split_records(records);
        assert_eq!(ok.len(), 7);
        assert_eq!(abnormal.len(), 1);
        assert_eq!(abnormal[0].index, 5);
        assert!(abnormal[0].message.contains("chaos at 5"));
        assert_eq!(abnormal[0].detail, "item 5");
    }
}
