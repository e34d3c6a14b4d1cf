//! Integration tests for the fault-tolerant campaign engine: JSONL
//! checkpoint/resume, the per-run wall-clock watchdog, and
//! panic-to-`Abnormal` recovery. The seed-determinism report equality
//! (`ProgramCampaign`/`Throughput` `PartialEq`) is the oracle throughout:
//! a resumed campaign must be indistinguishable from an uninterrupted one.
//! Class-campaign kill/resume under every tier combination is also drawn
//! by the tier-matrix oracle in `tests/fault_injection_properties.rs`,
//! which alone checks shard splits (whole, and with one shard lost and
//! another torn) against the direct run.

mod common;

use std::time::Duration;

use swifi_campaign::section6::{class_campaign_with, CampaignScale};
use swifi_campaign::source::{source_campaign_with, SourceScale};
use swifi_campaign::{AbnormalRun, CampaignOptions};
use swifi_programs::program;
use swifi_trace::metrics::names::RUN_LATENCY_US;
use swifi_trace::{parse_chrome_trace, Histogram, MetricsRegistry, Telemetry, TelemetryConfig};

use common::{temp_path, truncate_checkpoint};

/// Campaign options with every telemetry pillar live (trace events,
/// metrics registry, guest-PC profiler) — the most-instrumented
/// configuration a CLI user can reach.
fn instrumented() -> CampaignOptions {
    CampaignOptions {
        telemetry: Some(Telemetry::shared(TelemetryConfig {
            trace: true,
            metrics: true,
            profile: true,
        })),
        ..CampaignOptions::default()
    }
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

    // Chaos: injected run #3 panics mid-campaign. Runs count fault by
    // fault, so with 2 inputs that is assign fault #1 on input #1.
    let opts = CampaignOptions {
        chaos_panic: Some(3),
        ..CampaignOptions::default()
    };
    let c = class_campaign_with(&target, scale, seed, &opts).unwrap();
    assert_eq!(c.abnormal.len(), 1, "exactly one abnormal record");
    let a = &c.abnormal[0];
    assert_eq!(a.phase, "assign");
    assert_eq!(a.index, 1, "the record names the fault");
    assert!(a.message.contains("chaos-panic"), "{a:?}");
    assert!(a.detail.starts_with("assign fault #1: "), "{a:?}");
    assert!(
        a.detail.ends_with(", input #1"),
        "the record names the input: {a:?}"
    );
    // Exactly one run is lost: every other run, the panicked one's
    // neighbours on the same worker included, is still accounted for.
    assert_eq!(c.total_runs, clean.total_runs - 1);
    assert_eq!(c.assign_modes.total(), clean.assign_modes.total() - 1);
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

/// Traced, metered options whose hub already holds `run_latency_us` with
/// bucket bounds no worker lane registers, so every lane's metrics merge
/// fails when it retires.
fn mismatched_metrics() -> CampaignOptions {
    let hub = Telemetry::shared(TelemetryConfig {
        trace: true,
        metrics: true,
        profile: false,
    });
    hub.with_metrics(|m| {
        *m = MetricsRegistry::new();
        m.register_histogram(RUN_LATENCY_US, Histogram::new(vec![123.0]));
    });
    CampaignOptions {
        telemetry: Some(hub),
        ..CampaignOptions::default()
    }
}

/// The `telemetry` abnormal records must number one per retired worker
/// lane, follow the records' own abnormal runs in index order, and leave
/// the rest of the report equal to an untraced campaign's.
fn assert_one_telemetry_record_per_lane(opts: &CampaignOptions, abnormal: &[AbnormalRun]) {
    let hub = opts.telemetry.as_deref().unwrap();
    let events = parse_chrome_trace(&hub.render_chrome_trace()).unwrap();
    let lanes = events.iter().filter(|e| e.name == "worker_retire").count();
    assert!(lanes > 0, "no worker lane retired");
    let telemetry: Vec<&AbnormalRun> = abnormal.iter().filter(|a| a.phase == "telemetry").collect();
    assert_eq!(telemetry.len(), lanes, "{abnormal:?}");
    for (i, a) in abnormal.iter().enumerate() {
        assert_eq!(a.index, i as u64);
        assert!(a.message.contains(RUN_LATENCY_US), "{}", a.message);
    }
    // The close drained the hub's merge errors.
    assert!(hub.take_merge_errors().is_empty());
}

#[test]
fn metrics_merge_failures_close_every_campaign_as_telemetry_records() {
    let target = program("JB.team11").unwrap();
    let seed = 41;

    let scale = CampaignScale {
        inputs_per_fault: 2,
    };
    let opts = mismatched_metrics();
    let class = class_campaign_with(&target, scale, seed, &opts).unwrap();
    assert_one_telemetry_record_per_lane(&opts, &class.abnormal);
    let plain = class_campaign_with(&target, scale, seed, &CampaignOptions::default()).unwrap();
    assert_eq!(class.throughput, plain.throughput);
    assert_eq!(class.assign_modes, plain.assign_modes);

    let scale = SourceScale {
        mutant_budget: 6,
        inputs_per_mutant: 2,
    };
    let opts = mismatched_metrics();
    let source = source_campaign_with(&target, scale, seed, &opts).unwrap();
    assert_one_telemetry_record_per_lane(&opts, &source.abnormal);
    let plain = source_campaign_with(&target, scale, seed, &CampaignOptions::default()).unwrap();
    assert_eq!(source.throughput, plain.throughput);
    assert_eq!(source.modes, plain.modes);
}

#[test]
fn campaign_spans_name_their_checkpoint_campaign() {
    // A trace joins its checkpoint on one label: the `campaign` span of
    // each driver that closes one carries its checkpoint header's
    // `campaign` field.
    let target = program("JB.team11").unwrap();
    let traced = |path: &std::path::Path| CampaignOptions {
        checkpoint: Some(path.to_path_buf()),
        ..instrumented()
    };
    let class_path = temp_path("label-class");
    let class = traced(&class_path);
    let scale = CampaignScale {
        inputs_per_fault: 1,
    };
    class_campaign_with(&target, scale, 5, &class).unwrap();
    let source_path = temp_path("label-source");
    let source = traced(&source_path);
    let scale = SourceScale {
        mutant_budget: 3,
        inputs_per_mutant: 1,
    };
    source_campaign_with(&target, scale, 5, &source).unwrap();
    for (opts, path, label) in [
        (&class, &class_path, "section6:JB.team11"),
        (&source, &source_path, "source:JB.team11:3"),
    ] {
        let text = std::fs::read_to_string(path).unwrap();
        let header = text.lines().next().unwrap();
        assert!(
            header.contains(&format!("\"campaign\":\"{label}\"")),
            "{header}"
        );
        let hub = opts.telemetry.as_deref().unwrap();
        let events = parse_chrome_trace(&hub.render_chrome_trace()).unwrap();
        let spans: Vec<_> = events.iter().filter(|e| e.name == "campaign").collect();
        assert_eq!(spans.len(), 1, "{label}");
        let arg = spans[0].args.iter().find(|(k, _)| k == "campaign");
        assert_eq!(arg.map(|(_, v)| v.as_str()), Some(Some(label)));
        std::fs::remove_file(path).ok();
    }
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
