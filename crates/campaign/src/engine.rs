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
//! target), seed, and scale; resuming against a mismatched header is an
//! error, not silent corruption. Every further line is one record:
//!
//! ```json
//! {"campaign":"section6:JB.team11","seed":7,"scale":2,"version":1}
//! {"phase":"assign","index":3,"elapsed_micros":512,"status":{"Ok":...}}
//! {"phase":"assign","index":5,"elapsed_micros":44,"status":{"Abnormal":{"message":"...","detail":"..."}}}
//! ```
//!
//! Records appear in completion order (workers race); resume keys them by
//! `(phase, index)`. A torn final line — the kill arrived mid-write — is
//! ignored on load; a torn *middle* line is corruption and errors.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{DeError, Deserialize, Serialize, Value};
use swifi_trace::event::{arg_str, arg_u64};
use swifi_trace::{Telemetry, TraceEvent, ENGINE_TID};

use crate::pool::parallel_map_resilient;

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

impl CheckpointHeader {
    /// Build a version-1 header.
    pub fn new(campaign: impl Into<String>, seed: u64, scale: u64) -> CheckpointHeader {
        CheckpointHeader {
            campaign: campaign.into(),
            seed,
            scale,
            version: 1,
        }
    }
}

/// Append-only JSONL checkpoint of completed [`RunRecord`]s.
pub struct CheckpointLog {
    path: PathBuf,
    file: std::fs::File,
    /// Records loaded on resume, keyed by `(phase, index)`; values are the
    /// raw JSON trees, deserialized per-driver on lookup.
    loaded: HashMap<(String, u64), Value>,
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
        let line = serde_json::to_string(header).map_err(|e| e.to_string())?;
        writeln!(file, "{line}")
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot write checkpoint header: {e}"))?;
        Ok(CheckpointLog {
            path: path.to_path_buf(),
            file,
            loaded: HashMap::new(),
        })
    }

    /// Resume from an existing checkpoint (or start fresh when `path` does
    /// not exist yet). The stored header must match `header` exactly.
    ///
    /// A torn trailing line (the previous process died mid-append) is
    /// dropped *and truncated away*, so subsequent appends start on a
    /// clean line boundary; malformed lines anywhere else are corruption
    /// and error.
    pub fn resume(path: &Path, header: &CheckpointHeader) -> Result<CheckpointLog, String> {
        if !path.exists() {
            return CheckpointLog::create(path, header);
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint `{}`: {e}", path.display()))?;
        if text.is_empty() {
            // A kill between `File::create` and the header write leaves a
            // zero-byte file; that is the missing-file fresh start, not
            // corruption.
            return CheckpointLog::create(path, header);
        }
        // Walk the file by byte offset so the valid prefix length is known
        // exactly: everything past the last well-formed line is a torn
        // tail to truncate before appending.
        let line_end =
            |pos: usize| -> usize { text[pos..].find('\n').map_or(text.len(), |i| pos + i + 1) };
        let mut pos = line_end(0);
        let head_line = text[..pos].trim_end();
        let stored: CheckpointHeader = serde_json::from_str(head_line)
            .map_err(|e| format!("checkpoint `{}` has a bad header: {e}", path.display()))?;
        if &stored != header {
            return Err(format!(
                "checkpoint `{}` belongs to a different campaign: \
                 found {}/seed {}/scale {}, expected {}/seed {}/scale {}",
                path.display(),
                stored.campaign,
                stored.seed,
                stored.scale,
                header.campaign,
                header.seed,
                header.scale,
            ));
        }
        let mut valid_len = pos;
        let mut loaded = HashMap::new();
        let mut line_no = 1;
        while pos < text.len() {
            let end = line_end(pos);
            let line = text[pos..end].trim_end();
            line_no += 1;
            if !line.is_empty() {
                match serde_json::from_str::<Value>(line) {
                    Ok(v) => {
                        let obj = v.as_object().ok_or_else(|| {
                            format!("checkpoint record at line {line_no} is not an object")
                        })?;
                        let phase = String::from_value(
                            serde::field(obj, "phase").map_err(|e| e.to_string())?,
                        )
                        .map_err(|e| e.to_string())?;
                        let index =
                            u64::from_value(serde::field(obj, "index").map_err(|e| e.to_string())?)
                                .map_err(|e| e.to_string())?;
                        loaded.insert((phase, index), v);
                        valid_len = end;
                    }
                    Err(e) if end == text.len() => {
                        // Torn final line: the kill arrived mid-append. The
                        // item reruns; the tail is truncated below.
                        let _ = e;
                    }
                    Err(e) => {
                        return Err(format!(
                            "checkpoint `{}` line {line_no} is corrupt: {e}",
                            path.display(),
                        ));
                    }
                }
            }
            pos = end;
        }
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot append to checkpoint `{}`: {e}", path.display()))?;
        if valid_len < text.len() {
            file.set_len(valid_len as u64).map_err(|e| {
                format!(
                    "cannot truncate torn checkpoint tail in `{}`: {e}",
                    path.display()
                )
            })?;
        }
        Ok(CheckpointLog {
            path: path.to_path_buf(),
            file,
            loaded,
        })
    }

    /// Number of records loaded from disk on resume.
    pub fn loaded_records(&self) -> usize {
        self.loaded.len()
    }

    /// Append one completed record and flush it to disk.
    pub fn append<R: Serialize>(&mut self, record: &RunRecord<R>) -> Result<(), String> {
        let line = serde_json::to_string(record).map_err(|e| e.to_string())?;
        writeln!(self.file, "{line}")
            .and_then(|()| self.file.flush())
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
    /// Harness chaos knob: panic the worker on this campaign item (global
    /// index across phases) to demonstrate — and test — that a mid-campaign
    /// panic becomes one `Abnormal` record, not a lost campaign.
    pub chaos_panic: Option<u64>,
    /// Disable the prefix-fork cache: every injected run executes its
    /// full prefix from the clean snapshot. Reports are identical either
    /// way (forking is an execution strategy, not a semantic change);
    /// the flag exists for A/B measurement and as an escape hatch.
    pub no_prefix_fork: bool,
    /// Disable the basic-block translation layer: sessions execute on
    /// the predecoded line cache alone (the PR 2 path). Like
    /// `no_prefix_fork`, purely an execution-strategy toggle — reports
    /// are identical either way — kept for A/B measurement and as an
    /// escape hatch.
    pub no_block_cache: bool,
    /// Shared telemetry hub (trace events, metrics, guest profiling).
    /// `None` — the default — is the no-op contract: sessions carry no
    /// worker telemetry and the per-run cost is a single `Option` test.
    /// Telemetry never participates in report equality.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Scheduler rounds between watchdog deadline polls
    /// (`--watchdog-poll`); `None` keeps the machine default of
    /// [`swifi_vm::machine::DEFAULT_WATCHDOG_POLL`].
    pub watchdog_poll: Option<u32>,
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

    /// Apply the per-session knobs — watchdog deadline and poll interval,
    /// block cache, worker telemetry lane — to a freshly built worker
    /// session. Every driver's session-init closure funnels through here
    /// so a new knob reaches all campaigns at once.
    pub fn configure_session(&self, s: &mut crate::session::RunSession) {
        s.set_watchdog(self.watchdog);
        s.set_block_cache(!self.no_block_cache);
        if let Some(poll) = self.watchdog_poll {
            s.set_watchdog_poll(poll);
        }
        s.set_telemetry(self.telemetry.as_ref().map(|t| t.worker()));
    }

    /// A worker session for `program`, configured by
    /// [`CampaignOptions::configure_session`] and attached to `prefix`.
    pub fn session(
        &self,
        program: &swifi_lang::Program,
        family: swifi_programs::Family,
        prefix: Option<Arc<crate::prefix::PrefixCache>>,
    ) -> crate::session::RunSession {
        let mut s = crate::session::RunSession::new(program, family);
        self.configure_session(&mut s);
        s.set_prefix_cache(prefix);
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
    /// The phase name passed to [`CampaignEngine::run_phase`].
    pub phase: String,
    /// Work items in the phase (replayed and executed alike).
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

/// The per-campaign execution engine: owns the checkpoint log and runs
/// phases of work items through the resilient pool.
#[derive(Debug)]
pub struct CampaignEngine {
    log: Option<CheckpointLog>,
    telemetry: Option<Arc<Telemetry>>,
    phase_times: Vec<PhaseTime>,
    shard: Option<crate::shard::Shard>,
    chaos_panic: Option<u64>,
    /// Items in the phases run so far: the global index of the next
    /// phase's first item, which [`CampaignOptions::chaos_panic`] counts in.
    chaos_base: u64,
}

impl CampaignEngine {
    /// Build an engine for one campaign identified by `header`, honouring
    /// the checkpoint/resume options.
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
            log,
            telemetry: opts.telemetry.clone(),
            phase_times: Vec::new(),
            shard: opts.shard,
            chaos_panic: opts.chaos_panic,
            chaos_base: 0,
        })
    }

    /// Records already on disk for any phase (0 without a checkpoint).
    pub fn resumed_records(&self) -> usize {
        self.log.as_ref().map_or(0, CheckpointLog::loaded_records)
    }

    /// Wall-clock accounting of every phase run so far, in run order.
    pub fn phase_times(&self) -> &[PhaseTime] {
        &self.phase_times
    }

    /// Take ownership of the recorded phase times (drivers store them on
    /// the campaign result once all phases are done).
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
            let records = records.into_iter().flatten().collect();
            self.finish_phase(phase, items.len(), 0, t0, span_start);
            return Ok((records, Vec::new()));
        }

        let log = &mut self.log;
        let telemetry = self.telemetry.clone();
        let mut io_error: Option<String> = None;
        let (caught, states) = parallel_map_resilient(
            &pending,
            &init,
            |state, &(i, item)| {
                if chaos == Some(base + i as u64) {
                    panic!("chaos-panic injected at campaign item {}", base + i as u64);
                }
                f(state, i, item)
            },
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
        self.finish_phase(phase, items.len(), pending.len(), t0, span_start);
        Ok((records, states))
    }

    /// Record the phase's wall clock and close its trace span.
    fn finish_phase(
        &mut self,
        phase: &str,
        items: usize,
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
                    arg_u64("replayed", (items - executed) as u64),
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
        /// checkpoint returns `Ok` or `Err` and never panics.
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
            if let Ok(log) = CheckpointLog::resume(&path, &header) {
                proptest::prop_assert!(log.loaded_records() <= 4, "{damage:?}");
            }
            std::fs::remove_file(&path).ok();
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
