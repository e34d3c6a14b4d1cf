//! Integration tests for the fault-tolerant campaign engine: JSONL
//! checkpoint/resume, the per-run wall-clock watchdog, and
//! panic-to-`Abnormal` recovery. The seed-determinism report equality
//! (`ProgramCampaign`/`Throughput` `PartialEq`) is the oracle throughout:
//! a resumed campaign must be indistinguishable from an uninterrupted one.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;
use swifi_campaign::section6::{class_campaign_with, CampaignScale};
use swifi_campaign::shard::{merge_checkpoints, merged_path, run_sharded, shard_paths};
use swifi_campaign::source::{source_campaign_with, SourceScale};
use swifi_campaign::{CampaignOptions, Shard};
use swifi_programs::program;
use swifi_trace::{Telemetry, TelemetryConfig};

/// Campaign options with every telemetry pillar live (trace events,
/// metrics registry, guest-PC profiler) plus a non-default watchdog poll
/// interval — the most-instrumented configuration a CLI user can reach.
fn instrumented() -> CampaignOptions {
    CampaignOptions {
        telemetry: Some(Telemetry::shared(TelemetryConfig {
            trace: true,
            metrics: true,
            profile: true,
            ..TelemetryConfig::default()
        })),
        watchdog_poll: Some(16),
        ..CampaignOptions::default()
    }
}

fn temp_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "swifi-resilience-{tag}-{}-{n}.jsonl",
        std::process::id()
    ))
}

/// Keep the checkpoint header plus the first `keep` records, then append a
/// torn partial line — the on-disk state a `kill -9` mid-append leaves.
fn truncate_checkpoint(path: &PathBuf, keep: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap().to_string();
    let kept: Vec<&str> = lines.take(keep).collect();
    let mut f = std::fs::File::create(path).unwrap();
    writeln!(f, "{header}").unwrap();
    for l in kept {
        writeln!(f, "{l}").unwrap();
    }
    write!(f, "{{\"phase\":\"assign\",\"ind").unwrap();
}

#[test]
fn killed_campaign_resumes_to_an_equal_report() {
    let target = program("JB.team11").unwrap();
    let scale = CampaignScale {
        inputs_per_fault: 2,
    };
    let seed = 41;

    // The reference: one uninterrupted run, no checkpoint at all.
    let uninterrupted =
        class_campaign_with(&target, scale, seed, &CampaignOptions::default()).unwrap();

    // The same campaign recorded to a checkpoint, then "killed": only the
    // first 7 completed records (plus a torn partial line) survive.
    let path = temp_path("resume");
    let full = class_campaign_with(
        &target,
        scale,
        seed,
        &CampaignOptions::with_checkpoint(&path, false),
    )
    .unwrap();
    assert_eq!(full, uninterrupted, "checkpointing must not perturb");
    truncate_checkpoint(&path, 7);

    // Resume: the 7 recorded faults replay from disk, the rest re-run.
    let resumed = class_campaign_with(
        &target,
        scale,
        seed,
        &CampaignOptions::with_checkpoint(&path, true),
    )
    .unwrap();
    assert_eq!(resumed, uninterrupted, "resumed report must be equal");

    // A second resume replays everything and still folds to equality.
    let replayed = class_campaign_with(
        &target,
        scale,
        seed,
        &CampaignOptions::with_checkpoint(&path, true),
    )
    .unwrap();
    assert_eq!(replayed, uninterrupted);

    std::fs::remove_file(&path).ok();
}

#[test]
fn killed_source_campaign_resumes_to_an_equal_report() {
    // The same kill/resume contract holds for the source-mutation driver:
    // a campaign killed mid-append and resumed must report byte-equal to
    // an uninterrupted one (same Throughput-equality oracle — mutant
    // selection, compilation and run accounting all replay from disk).
    let target = program("JB.team11").unwrap();
    let scale = SourceScale {
        mutant_budget: 6,
        inputs_per_mutant: 2,
    };
    let seed = 41;

    let uninterrupted =
        source_campaign_with(&target, scale, seed, &CampaignOptions::default()).unwrap();

    let path = temp_path("source-resume");
    let full = source_campaign_with(
        &target,
        scale,
        seed,
        &CampaignOptions::with_checkpoint(&path, false),
    )
    .unwrap();
    assert_eq!(full, uninterrupted, "checkpointing must not perturb");
    truncate_checkpoint(&path, 3);

    // Resume: 3 mutants replay from disk, the rest recompile and re-run.
    let resumed = source_campaign_with(
        &target,
        scale,
        seed,
        &CampaignOptions::with_checkpoint(&path, true),
    )
    .unwrap();
    assert_eq!(resumed, uninterrupted, "resumed report must be equal");

    // A second resume replays everything and still folds to equality.
    let replayed = source_campaign_with(
        &target,
        scale,
        seed,
        &CampaignOptions::with_checkpoint(&path, true),
    )
    .unwrap();
    assert_eq!(replayed, uninterrupted);

    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_under_a_different_seed_is_refused() {
    let target = program("JB.team11").unwrap();
    let scale = CampaignScale {
        inputs_per_fault: 1,
    };
    let path = temp_path("seed-mismatch");
    class_campaign_with(
        &target,
        scale,
        3,
        &CampaignOptions::with_checkpoint(&path, false),
    )
    .unwrap();
    let err = class_campaign_with(
        &target,
        scale,
        4,
        &CampaignOptions::with_checkpoint(&path, true),
    )
    .unwrap_err();
    assert!(err.contains("different campaign"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn watchdog_zero_budget_classifies_every_run_as_hang() {
    let target = program("JB.team11").unwrap();
    let scale = CampaignScale {
        inputs_per_fault: 2,
    };
    let opts = CampaignOptions {
        watchdog: Some(Duration::ZERO),
        ..CampaignOptions::default()
    };
    let c = class_campaign_with(&target, scale, 9, &opts).unwrap();
    // Every run blew its (zero) wall-clock budget before retiring an
    // instruction: all hangs, nothing fired, nothing abnormal.
    assert!(c.total_runs > 0);
    assert_eq!(c.assign_modes.hang, c.assign_modes.total());
    assert_eq!(c.check_modes.hang, c.check_modes.total());
    assert_eq!(c.dormant_runs, c.total_runs);
    assert!(c.abnormal.is_empty());

    // A generous watchdog leaves the report identical to no watchdog.
    let generous = CampaignOptions {
        watchdog: Some(Duration::from_secs(3600)),
        ..CampaignOptions::default()
    };
    let a = class_campaign_with(&target, scale, 9, &generous).unwrap();
    let b = class_campaign_with(&target, scale, 9, &CampaignOptions::default()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn mid_campaign_panic_becomes_one_abnormal_record() {
    let target = program("JB.team6").unwrap();
    let scale = CampaignScale {
        inputs_per_fault: 2,
    };
    let seed = 17;
    let clean = class_campaign_with(&target, scale, seed, &CampaignOptions::default()).unwrap();

    // Chaos: the worker processing campaign item #3 panics mid-campaign.
    let opts = CampaignOptions {
        chaos_panic: Some(3),
        ..CampaignOptions::default()
    };
    let c = class_campaign_with(&target, scale, seed, &opts).unwrap();
    assert_eq!(c.abnormal.len(), 1, "exactly one abnormal record");
    assert_eq!(c.abnormal[0].phase, "assign");
    assert_eq!(c.abnormal[0].index, 3);
    assert!(
        c.abnormal[0].message.contains("chaos-panic"),
        "{:?}",
        c.abnormal[0]
    );
    assert!(!c.abnormal[0].detail.is_empty());
    // Completed results are NOT discarded: everything except the panicked
    // fault's runs is still accounted for.
    assert_eq!(
        c.total_runs,
        clean.total_runs - scale.inputs_per_fault as u64
    );
    assert_eq!(c.check_modes, clean.check_modes, "other phase untouched");
}

#[test]
fn abnormal_records_replay_on_resume() {
    let target = program("JB.team6").unwrap();
    let scale = CampaignScale {
        inputs_per_fault: 2,
    };
    let seed = 23;
    let path = temp_path("abnormal-replay");
    let chaos = CampaignOptions {
        chaos_panic: Some(2),
        ..CampaignOptions::with_checkpoint(&path, false)
    };
    let first = class_campaign_with(&target, scale, seed, &chaos).unwrap();
    assert_eq!(first.abnormal.len(), 1);

    // Resume with chaos DISABLED: the abnormal record replays from disk
    // (nothing re-runs), so the report still carries it — a resumed
    // campaign is equal to the uninterrupted one, abnormal bucket and all.
    let resumed = class_campaign_with(
        &target,
        scale,
        seed,
        &CampaignOptions::with_checkpoint(&path, true),
    )
    .unwrap();
    assert_eq!(resumed, first);
    assert_eq!(resumed.abnormal, first.abnormal);

    std::fs::remove_file(&path).ok();
}

#[test]
fn telemetry_is_a_pure_observer_of_class_campaigns() {
    // The no-op contract, in-process: a campaign with every telemetry
    // pillar live must report *equal* (run counts, failure-mode tables,
    // abnormal records — everything `PartialEq` covers) to the same seed
    // with telemetry absent. The trace/metrics/profile sinks observe;
    // they never steer.
    let target = program("JB.team11").unwrap();
    let scale = CampaignScale {
        inputs_per_fault: 2,
    };
    let seed = 41;

    let plain = class_campaign_with(&target, scale, seed, &CampaignOptions::default()).unwrap();

    let opts = instrumented();
    let hub = opts.telemetry.clone().unwrap();
    let traced = class_campaign_with(&target, scale, seed, &opts).unwrap();

    assert_eq!(traced, plain, "telemetry must not perturb the report");
    assert_eq!(
        traced.throughput.equality_key(),
        plain.throughput.equality_key()
    );

    // And the instrumentation genuinely ran: events were buffered, the
    // run-span count matches the report's run count, metrics accumulated,
    // and the profiler attributed samples.
    assert!(hub.event_count() > 0, "trace events must have been emitted");
    let trace = hub.render_chrome_trace();
    let summary = swifi_trace::validate_chrome_trace(&trace).unwrap();
    assert_eq!(summary.runs, plain.total_runs as usize);
    assert!(summary.phases >= 2, "assign + check phase spans expected");
    let metrics = hub.metrics_json();
    assert!(metrics.contains("\"run_latency_us\""), "{metrics}");
    assert!(metrics.contains("\"retired_instrs_per_run\""), "{metrics}");
    assert!(
        hub.profile_snapshot().total() > 0,
        "profiler sampled no PCs"
    );
}

#[test]
fn telemetry_is_a_pure_observer_of_source_campaigns() {
    let target = program("JB.team11").unwrap();
    let scale = SourceScale {
        mutant_budget: 6,
        inputs_per_mutant: 2,
    };
    let seed = 41;

    let plain = source_campaign_with(&target, scale, seed, &CampaignOptions::default()).unwrap();

    let opts = instrumented();
    let hub = opts.telemetry.clone().unwrap();
    let traced = source_campaign_with(&target, scale, seed, &opts).unwrap();

    assert_eq!(traced, plain, "telemetry must not perturb the report");
    assert!(hub.event_count() > 0, "trace events must have been emitted");
}

#[test]
fn resume_under_tracing_matches_uninterrupted_run() {
    // Crash-resilience and observability compose: a campaign checkpointed
    // with full telemetry on, killed, then *resumed* with full telemetry
    // on must still fold to the same report as an uninterrupted,
    // uninstrumented run. Replayed-from-disk records skip execution, so
    // the resumed trace is smaller — but the report cannot differ.
    let target = program("JB.team11").unwrap();
    let scale = CampaignScale {
        inputs_per_fault: 2,
    };
    let seed = 41;

    let uninterrupted =
        class_campaign_with(&target, scale, seed, &CampaignOptions::default()).unwrap();

    let path = temp_path("trace-resume");
    let record = CampaignOptions {
        checkpoint: Some(path.clone()),
        ..instrumented()
    };
    let full = class_campaign_with(&target, scale, seed, &record).unwrap();
    assert_eq!(
        full, uninterrupted,
        "tracing + checkpointing must not perturb"
    );
    truncate_checkpoint(&path, 7);

    let resume = CampaignOptions {
        checkpoint: Some(path.clone()),
        resume: true,
        ..instrumented()
    };
    let hub = resume.telemetry.clone().unwrap();
    let resumed = class_campaign_with(&target, scale, seed, &resume).unwrap();
    assert_eq!(resumed, uninterrupted, "traced resume must be equal");
    assert!(hub.event_count() > 0, "resume still traces re-run items");

    std::fs::remove_file(&path).ok();
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = temp_path(tag).with_extension("d");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The shard-equality oracle under arbitrary (seed, shard count):
    /// splitting a class campaign into N shard passes and folding the
    /// merged checkpoint reports *equal* — everything `PartialEq`
    /// covers — to the uninterrupted single-process run. This is the
    /// same oracle `scripts/server_smoke.sh` checks across real worker
    /// processes.
    #[test]
    fn sharded_campaigns_fold_to_the_direct_report(
        seed in 0u64..1_000_000,
        count in 1u64..6,
    ) {
        let target = program("JB.team11").unwrap();
        let scale = CampaignScale { inputs_per_fault: 1 };
        let direct =
            class_campaign_with(&target, scale, seed, &CampaignOptions::default()).unwrap();
        let dir = temp_dir("shard-prop");
        let (sharded, summary) = run_sharded(
            &CampaignOptions::default(),
            count,
            &dir,
            "prop",
            |opts| class_campaign_with(&target, scale, seed, opts),
        )
        .unwrap();
        prop_assert_eq!(&sharded, &direct, "seed {} x {} shards", seed, count);
        prop_assert_eq!(summary.duplicates, 0);
        prop_assert_eq!(summary.shards_missing, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn killed_shard_campaign_recovers_through_merge_and_resume() {
    // The server's worker-loss story, driven at the library layer: of
    // three shard passes one is "killed" (its checkpoint deleted) and
    // another is torn mid-append. The merge tolerates both, and the
    // final resume pass re-executes exactly the lost work — the report
    // is equal to an uninterrupted run's.
    let target = program("JB.team11").unwrap();
    let scale = CampaignScale {
        inputs_per_fault: 2,
    };
    let seed = 61;
    let direct = class_campaign_with(&target, scale, seed, &CampaignOptions::default()).unwrap();

    let dir = temp_dir("shard-kill");
    let paths = shard_paths(&dir, "kill", 3);
    for (k, path) in paths.iter().enumerate() {
        let opts = CampaignOptions {
            checkpoint: Some(path.clone()),
            shard: Some(Shard::new(k as u64, 3).unwrap()),
            ..CampaignOptions::default()
        };
        class_campaign_with(&target, scale, seed, &opts).unwrap();
    }
    std::fs::remove_file(&paths[1]).unwrap();
    truncate_checkpoint(&paths[2], 1);

    let merged = merged_path(&dir, "kill");
    let summary = merge_checkpoints(&paths, &merged).unwrap();
    assert_eq!(summary.shards_missing, 1, "the killed shard");
    assert_eq!(summary.shards_read, 2);

    let resumed = class_campaign_with(
        &target,
        scale,
        seed,
        &CampaignOptions::with_checkpoint(&merged, true),
    )
    .unwrap();
    assert_eq!(resumed, direct, "lost shards must cost nothing but time");
    std::fs::remove_dir_all(&dir).ok();
}
