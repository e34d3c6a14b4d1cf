//! Shard orchestration for one campaign submission.
//!
//! A submission splits into `shards` contiguous slices of the run
//! schedule. Each shard pass writes its own checkpoint (and, when
//! requested, its own metrics/trace snapshot); the passes run either in
//! worker processes re-executing this binary's hidden `shard-exec`
//! subcommand, or in-process for tests and single-machine use. The
//! shard checkpoints then merge through
//! [`swifi_campaign::merge_checkpoints`] and a final `resume = true`
//! pass folds the full report — byte-identical to a single-process run
//! by the PR 4 replay invariant. A failed or killed shard is therefore
//! never fatal: its missing records are simply executed by the final
//! pass, at the cost of doing that work without the fan-out.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use swifi_campaign::engine::AbnormalRun;
use swifi_campaign::report::{class_campaign_report, source_campaign_report};
use swifi_campaign::section6::{class_campaign_with, CampaignScale};
use swifi_campaign::shard::{merged_path, shard_paths};
use swifi_campaign::source::{source_campaign_with, SourceScale};
use swifi_campaign::{merge_checkpoints, CampaignOptions, Shard};
use swifi_trace::metrics::MetricsRegistry;
use swifi_trace::{
    merge_shard_events, parse_chrome_trace, render_events, Telemetry, TelemetryConfig,
};

use crate::protocol::{CampaignRequest, Driver, Event};

/// How shard passes execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMode {
    /// Run shard passes sequentially inside the server process. Used by
    /// the integration tests and `swifi serve --in-process`; the `pool`
    /// width is ignored.
    InProcess,
    /// Spawn one worker process per shard (batched `pool` at a time),
    /// re-executing this binary's `shard-exec` subcommand. A worker
    /// that dies — any exit status, even SIGKILL — costs only its
    /// shard's records.
    Process {
        /// The binary to re-execute (normally `std::env::current_exe()`).
        exe: PathBuf,
    },
}

/// Server-side configuration for running submissions.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Directory for shard and merged checkpoints (and shard telemetry).
    pub workdir: PathBuf,
    /// How shard passes execute.
    pub mode: WorkerMode,
}

/// What one shard pass produced besides its checkpoint.
#[derive(Debug, Clone, Default)]
pub struct ShardArtifacts {
    /// Metrics-registry JSON, when the submission asked for metrics.
    pub metrics: Option<String>,
    /// Chrome-trace JSON, when the submission asked for a trace.
    pub trace: Option<String>,
}

/// Run one submission end to end, streaming progress through `emit`.
///
/// Emits everything except the terminal `done`/`error` line, which the
/// connection handler owns (an `Err` here becomes the `error` event).
///
/// # Errors
///
/// Returns unknown-target, merge, and final-pass failures. Individual
/// shard failures are *not* errors: they stream as `shard_done` with
/// `ok = false` and the final pass re-executes the missing work.
pub fn run_campaign(
    req: &CampaignRequest,
    cfg: &JobConfig,
    emit: &mut dyn FnMut(Event),
) -> Result<(), String> {
    // Validate the target before touching the filesystem so a typo'd
    // submission fails fast with the CLI's own wording.
    swifi_programs::program(&req.target)
        .ok_or_else(|| format!("unknown program `{}` (see `swifi list`)", req.target))?;
    std::fs::create_dir_all(&cfg.workdir)
        .map_err(|e| format!("cannot create workdir `{}`: {e}", cfg.workdir.display()))?;
    let tag = req.tag();
    emit(Event::Accepted {
        campaign: tag.clone(),
        shards: req.shards,
    });

    let paths = shard_paths(&cfg.workdir, &tag, req.shards);
    // A resubmission of the same campaign would otherwise merge stale
    // shard files (possibly from a different shard count) as duplicates.
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    let artifacts = match &cfg.mode {
        WorkerMode::InProcess => run_shards_in_process(req, &paths, emit),
        WorkerMode::Process { exe } => run_shards_in_workers(req, exe, &paths, emit),
    };

    let merged = merged_path(&cfg.workdir, &tag);
    let summary = merge_checkpoints(&paths, &merged)?;
    emit(Event::merged(&summary));
    for (name, runs) in summary.phases {
        emit(Event::Phase { name, runs });
    }

    // The final pass replays every merged record and executes whatever
    // failed shards left behind; it runs without telemetry so the
    // campaign view is the union of what the shards measured.
    let opts = CampaignOptions {
        checkpoint: Some(merged),
        resume: true,
        ..CampaignOptions::default()
    };
    let (text, abnormal) = drive(req, &opts)?;
    for a in abnormal {
        emit(Event::Abnormal {
            phase: a.phase,
            index: a.index,
            message: a.message,
            detail: a.detail,
        });
    }
    emit(Event::Report { text });

    if req.want_metrics {
        let snapshots: Vec<&String> = artifacts
            .iter()
            .filter_map(|a| a.metrics.as_ref())
            .collect();
        emit_merged_metrics(&snapshots, emit);
    }
    if req.want_trace {
        let traces: Vec<&String> = artifacts.iter().filter_map(|a| a.trace.as_ref()).collect();
        emit_merged_trace(&traces, emit);
    }
    Ok(())
}

/// Run one shard pass in this process: the worker half of `shard-exec`
/// and the whole story of [`WorkerMode::InProcess`].
///
/// # Errors
///
/// Propagates driver failures (the caller records the shard as failed).
pub fn run_shard(
    req: &CampaignRequest,
    shard: Shard,
    checkpoint: &Path,
) -> Result<ShardArtifacts, String> {
    let hub = (req.want_trace || req.want_metrics).then(|| {
        Telemetry::shared(TelemetryConfig {
            trace: req.want_trace,
            metrics: req.want_metrics,
            profile: false,
        })
    });
    let opts = CampaignOptions {
        checkpoint: Some(checkpoint.to_path_buf()),
        shard: Some(shard),
        telemetry: hub.clone(),
        ..CampaignOptions::default()
    };
    // The shard pass's partial report is discarded — only its checkpoint
    // records (and telemetry) survive into the merge.
    drive(req, &opts)?;
    Ok(ShardArtifacts {
        metrics: hub
            .as_ref()
            .filter(|_| req.want_metrics)
            .map(|h| h.metrics_json()),
        trace: hub
            .as_ref()
            .filter(|_| req.want_trace)
            .map(|h| h.render_chrome_trace()),
    })
}

/// Dispatch a submission to its experiment driver under `opts` and
/// render the report exactly as the single-process CLI does.
fn drive(
    req: &CampaignRequest,
    opts: &CampaignOptions,
) -> Result<(String, Vec<AbnormalRun>), String> {
    let target = swifi_programs::program(&req.target)
        .ok_or_else(|| format!("unknown program `{}` (see `swifi list`)", req.target))?;
    match req.driver {
        Driver::Class => {
            let c = class_campaign_with(
                &target,
                CampaignScale {
                    inputs_per_fault: req.inputs,
                },
                req.seed,
                opts,
            )?;
            Ok((class_campaign_report(&c), c.abnormal))
        }
        Driver::Source => {
            let c = source_campaign_with(
                &target,
                SourceScale {
                    mutant_budget: req.mutants,
                    inputs_per_mutant: req.inputs,
                },
                req.seed,
                opts,
            )?;
            Ok((source_campaign_report(&c), c.abnormal))
        }
    }
}

fn run_shards_in_process(
    req: &CampaignRequest,
    paths: &[PathBuf],
    emit: &mut dyn FnMut(Event),
) -> Vec<ShardArtifacts> {
    let mut artifacts = Vec::with_capacity(paths.len());
    for (k, path) in paths.iter().enumerate() {
        let shard = Shard {
            index: k as u64,
            count: req.shards,
        };
        emit(Event::ShardStart { shard: shard.index });
        match run_shard(req, shard, path) {
            Ok(a) => {
                emit(Event::ShardDone {
                    shard: shard.index,
                    ok: true,
                    detail: String::new(),
                });
                artifacts.push(a);
            }
            Err(e) => {
                emit(Event::ShardDone {
                    shard: shard.index,
                    ok: false,
                    detail: e,
                });
                artifacts.push(ShardArtifacts::default());
            }
        }
    }
    artifacts
}

/// Per-shard telemetry file paths in process mode (next to the shard
/// checkpoint, so one workdir holds the whole submission).
fn telemetry_paths(checkpoint: &Path, req: &CampaignRequest) -> (Option<PathBuf>, Option<PathBuf>) {
    let with_ext = |ext: &str| {
        let mut p = checkpoint.as_os_str().to_owned();
        p.push(ext);
        PathBuf::from(p)
    };
    (
        req.want_metrics.then(|| with_ext(".metrics.json")),
        req.want_trace.then(|| with_ext(".trace.json")),
    )
}

fn run_shards_in_workers(
    req: &CampaignRequest,
    exe: &Path,
    paths: &[PathBuf],
    emit: &mut dyn FnMut(Event),
) -> Vec<ShardArtifacts> {
    let mut artifacts: Vec<ShardArtifacts> = vec![ShardArtifacts::default(); paths.len()];
    // Batched fan-out: at most `pool` workers in flight. A batch joins
    // before the next spawns — the scheduling is deliberately dumb so a
    // progress stream reads in shard order batch by batch.
    for batch in (0..paths.len()).collect::<Vec<_>>().chunks(req.pool.max(1)) {
        let mut children: Vec<(usize, Result<Child, String>)> = Vec::with_capacity(batch.len());
        for &k in batch {
            emit(Event::ShardStart { shard: k as u64 });
            children.push((k, spawn_shard_worker(req, exe, k, &paths[k])));
        }
        for (k, spawned) in children {
            let outcome = spawned.and_then(|child| {
                let out = child
                    .wait_with_output()
                    .map_err(|e| format!("cannot wait for shard worker: {e}"))?;
                if out.status.success() {
                    Ok(())
                } else {
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    let tail = stderr.lines().last().unwrap_or("").trim();
                    Err(format!("worker failed ({}): {tail}", out.status))
                }
            });
            match outcome {
                Ok(()) => {
                    let (metrics_path, trace_path) = telemetry_paths(&paths[k], req);
                    artifacts[k] = ShardArtifacts {
                        metrics: metrics_path.and_then(|p| std::fs::read_to_string(p).ok()),
                        trace: trace_path.and_then(|p| std::fs::read_to_string(p).ok()),
                    };
                    emit(Event::ShardDone {
                        shard: k as u64,
                        ok: true,
                        detail: String::new(),
                    });
                }
                Err(detail) => emit(Event::ShardDone {
                    shard: k as u64,
                    ok: false,
                    detail,
                }),
            }
        }
    }
    artifacts
}

fn spawn_shard_worker(
    req: &CampaignRequest,
    exe: &Path,
    k: usize,
    checkpoint: &Path,
) -> Result<Child, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("shard-exec")
        .arg("--driver")
        .arg(req.driver.name())
        .arg("--target")
        .arg(&req.target)
        .arg("--seed")
        .arg(req.seed.to_string())
        .arg("--inputs")
        .arg(req.inputs.to_string())
        .arg("--mutants")
        .arg(req.mutants.to_string())
        .arg("--shard")
        .arg(k.to_string())
        .arg("--shards")
        .arg(req.shards.to_string())
        .arg("--checkpoint")
        .arg(checkpoint)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let (metrics_path, trace_path) = telemetry_paths(checkpoint, req);
    if let Some(p) = metrics_path {
        cmd.arg("--metrics-out").arg(p);
    }
    if let Some(p) = trace_path {
        cmd.arg("--trace-out").arg(p);
    }
    cmd.spawn()
        .map_err(|e| format!("cannot spawn shard worker `{}`: {e}", exe.display()))
}

/// The worker-process half of [`WorkerMode::Process`]: run one shard
/// pass and write its telemetry files. Called by the hidden
/// `swifi shard-exec` subcommand.
///
/// # Errors
///
/// Propagates shard-pass and file-write failures; the server surfaces
/// them as a failed shard, not a failed campaign.
pub fn shard_exec(
    req: &CampaignRequest,
    shard: Shard,
    checkpoint: &Path,
    metrics_out: Option<&Path>,
    trace_out: Option<&Path>,
) -> Result<(), String> {
    let artifacts = run_shard(req, shard, checkpoint)?;
    if let (Some(path), Some(text)) = (metrics_out, artifacts.metrics.as_ref()) {
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let (Some(path), Some(text)) = (trace_out, artifacts.trace.as_ref()) {
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Fold shard metrics snapshots into one registry and emit it. A
/// snapshot that fails to parse or merge becomes an `abnormal` record
/// in the stream — one shard's telemetry is never worth the campaign.
fn emit_merged_metrics(snapshots: &[&String], emit: &mut dyn FnMut(Event)) {
    let mut merged = MetricsRegistry::new();
    for (i, text) in snapshots.iter().enumerate() {
        let absorb = MetricsRegistry::from_json(text).and_then(|r| merged.merge(&r));
        if let Err(message) = absorb {
            emit(Event::Abnormal {
                phase: "telemetry".to_string(),
                index: i as u64,
                message,
                detail: "metrics merge on shard import".to_string(),
            });
        }
    }
    emit(Event::Metrics {
        text: merged.to_json(),
    });
}

/// Merge shard Chrome traces into one campaign trace and emit it: each
/// shard keeps its own timestamp epoch but gets a disjoint lane block,
/// and the merged stream re-sorts so it validates.
fn emit_merged_trace(traces: &[&String], emit: &mut dyn FnMut(Event)) {
    let mut shards = Vec::with_capacity(traces.len());
    for (i, text) in traces.iter().enumerate() {
        match parse_chrome_trace(text) {
            Ok(events) => shards.push(events),
            Err(message) => emit(Event::Abnormal {
                phase: "telemetry".to_string(),
                index: i as u64,
                message,
                detail: "trace parse on shard import".to_string(),
            }),
        }
    }
    emit(Event::Trace {
        text: render_events(merge_shard_events(&shards)),
    });
}

/// Convenience used by `serve` to derive the default process mode.
pub fn current_exe_mode() -> Result<WorkerMode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    Ok(WorkerMode::Process { exe })
}
