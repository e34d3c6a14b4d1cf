//! One §6 class campaign, rebuilt from the layers' public calls, for the
//! traced run.
//!
//! The rebuild makes the calls `class_campaign_with` (what `swifi
//! campaign` runs) makes, in the same order: `swifi_lang::compile`,
//! `BinarySwifiSource::plans`, `Family::test_case`, a fresh
//! `PrefixCache::shared` with `set_watch_pcs`, then
//! `CampaignEngine::run_phase` over worker `RunSession`s. When a
//! [`Tracer`] is passed, every call is wrapped in a span. Its result
//! equals `class_campaign_with`'s (a test pins this, and every traced
//! run checks it against the untraced one).

use std::collections::BTreeMap;
use std::time::Instant;

use swifi_campaign::engine::{split_records, CampaignEngine, CampaignOptions, CheckpointHeader};
use swifi_campaign::section6::chosen_locations;
use swifi_campaign::{
    watch_pcs_of, ModeCounts, PrefixCache, ProgramCampaign, RunSession, SessionStats, Throughput,
};
use swifi_core::locations::{choose_locations, ErrorClass, GeneratedFault};
use swifi_core::source::{BinarySwifiSource, FaultSource, PreparedFault};
use swifi_programs::{TargetProgram, TestInput};

use crate::trace::{RunPath, Span, Tracer};

/// Which campaign to run: `swifi campaign TARGET --inputs N --seed S`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Roster program.
    pub target: &'static str,
    /// Test inputs per fault.
    pub inputs: usize,
    /// Campaign seed: fault locations, test inputs and error values.
    pub seed: u64,
}

impl Spec {
    /// The roster entry.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the roster (workloads are static).
    pub fn program(&self) -> TargetProgram {
        swifi_programs::program(self.target).expect("workload programs are in the roster")
    }

    /// The campaign's test inputs, drawn as `class_campaign_with` draws them.
    pub fn test_inputs(&self) -> Vec<TestInput> {
        self.program()
            .family
            .test_case(self.inputs, self.seed ^ 0x5EED)
    }
}

/// Span sink plus the id every span of this campaign carries.
#[derive(Clone, Copy)]
pub struct Tracing<'a> {
    /// The sink.
    pub tracer: &'a Tracer,
    /// Campaign id.
    pub campaign: u32,
}

/// One worker's state: its session, plus (when tracing) locally
/// buffered spans and per-run path timings.
struct Worker {
    session: RunSession,
    first_run: Option<Instant>,
    retired: u64,
    spans: Vec<Span>,
    runs: Vec<(RunPath, u64)>,
}

/// What one campaign produced.
pub struct Run {
    /// The campaign result, folded exactly as `class_campaign_with` folds it.
    pub campaign: ProgramCampaign,
    /// Wall-clock seconds of the whole campaign.
    pub wall_s: f64,
    /// Wall-clock seconds from the campaign's start to its first injected
    /// run: compile, fault list, test case, engine and cache set-up and
    /// the first `RunSession::new`.
    pub setup_s: f64,
    /// Every `session.run` call: the path that answered it and its
    /// duration in nanoseconds (traced runs only).
    pub runs: Vec<(RunPath, u64)>,
    /// Wall-clock microseconds of each engine work item (one fault).
    pub item_micros: Vec<u64>,
    /// Worker sessions the engine ran, per phase.
    pub workers: Vec<usize>,
    /// Merged counters of every worker session.
    pub stats: SessionStats,
    /// Guest instructions of the injected runs as full runs would retire
    /// them (`RunSession::last_retired` summed): an exact count, unlike
    /// the executed count in `stats`, which depends on which worker
    /// captured or traced first.
    pub retired: u64,
    /// Snapshots held by the prefix cache at the end.
    pub snapshots: usize,
}

/// Run one campaign; with `tracing`, record a span around every call.
///
/// # Errors
///
/// Fault-source and engine errors.
///
/// # Panics
///
/// Panics if the vendored program fails to compile.
pub fn run(spec: Spec, opts: &CampaignOptions, tracing: Option<Tracing>) -> Result<Run, String> {
    let target = spec.program();
    let seed = spec.seed;
    let noop = Tracer::default();
    let (tracer, campaign) = tracing.map_or((&noop, 0), |t| (t.tracer, t.campaign));
    let traced = tracing.is_some();
    let root = tracer.id();
    let start = tracer.now();
    let t0 = Instant::now();
    let compiled = tracer.time("lang.compile", root, campaign, || {
        swifi_lang::compile(target.source_correct).expect("vendored source compiles")
    });
    let (n_assign, n_check) = chosen_locations(target.name);
    let (plan, plans) = tracer.time("core.fault_plan", root, campaign, || {
        let plan = choose_locations(&compiled.debug, n_assign, n_check, seed);
        let source = BinarySwifiSource::new(compiled.debug.clone(), n_assign, n_check);
        source.plans(seed).map(|plans| (plan, plans))
    })?;
    let mut assign_faults: Vec<GeneratedFault> = Vec::new();
    let mut check_faults: Vec<GeneratedFault> = Vec::new();
    for p in plans {
        let PreparedFault::Runtime(fault) = p.fault else {
            return Err("binary fault source yielded a baked plan".to_string());
        };
        match p.group.as_str() {
            "assign" => assign_faults.push(fault),
            _ => check_faults.push(fault),
        }
    }
    let test_inputs = tracer.time("programs.test_case", root, campaign, || spec.test_inputs());
    let header = CheckpointHeader::new(
        format!("section6:{}", target.name),
        seed,
        spec.inputs as u64,
    );
    let mut engine = CampaignEngine::new(header, opts)?;
    let prefix = (!opts.no_prefix_fork).then(PrefixCache::shared);
    if let Some(cache) = &prefix {
        cache.set_watch_pcs(watch_pcs_of(
            assign_faults.iter().chain(&check_faults).map(|f| &f.spec),
        ));
    }

    let mut sessions: Vec<RunSession> = Vec::new();
    let mut runs: Vec<(RunPath, u64)> = Vec::new();
    let mut item_micros: Vec<u64> = Vec::new();
    let mut workers: Vec<usize> = Vec::new();
    let mut first_run: Option<Instant> = None;
    let mut retired = 0;
    let mut results: Vec<(ErrorClass, ModeCounts, u64)> = Vec::new();
    let mut abnormal = Vec::new();
    for (phase, faults) in [("assign", &assign_faults), ("check", &check_faults)] {
        let phase_id = tracer.id();
        let phase_start = tracer.now();
        let (records, states) = engine.run_phase(
            phase,
            faults,
            || {
                let boot_start = tracer.now();
                let mut session = RunSession::new(&compiled, target.family);
                let mut spans = Vec::new();
                if traced {
                    spans.push(Span {
                        id: tracer.id(),
                        parent: phase_id,
                        campaign,
                        name: "vm.boot",
                        start_ns: boot_start,
                        end_ns: tracer.now(),
                    });
                }
                opts.configure_session(&mut session);
                session.set_prefix_cache(prefix.clone());
                session.set_block_cache(!opts.no_block_cache);
                Worker {
                    session,
                    first_run: None,
                    retired: 0,
                    spans,
                    runs: Vec::new(),
                }
            },
            |w: &mut Worker, _i, fault: &GeneratedFault| {
                w.first_run.get_or_insert_with(Instant::now);
                let item_id = tracer.id();
                let item_start = tracer.now();
                let mut counts = ModeCounts::default();
                let mut dormant = 0;
                for (j, input) in test_inputs.iter().enumerate() {
                    let run_seed = seed
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(fault.site_addr as u64)
                        .wrapping_add(j as u64);
                    let (mode, fired) = if traced {
                        let before = w.session.stats();
                        let start_ns = tracer.now();
                        let out = w.session.run(input, Some(&fault.spec), run_seed);
                        let end_ns = tracer.now();
                        let path = RunPath::classify(&before, &w.session.stats());
                        w.spans.push(Span {
                            id: tracer.id(),
                            parent: item_id,
                            campaign,
                            name: "session.run",
                            start_ns,
                            end_ns,
                        });
                        w.runs.push((path, end_ns - start_ns));
                        out
                    } else {
                        w.session.run(input, Some(&fault.spec), run_seed)
                    };
                    w.retired += w.session.last_retired();
                    counts.add(mode);
                    if !fired {
                        dormant += 1;
                    }
                }
                if traced {
                    w.spans.push(Span {
                        id: item_id,
                        parent: phase_id,
                        campaign,
                        name: "engine.item",
                        start_ns: item_start,
                        end_ns: tracer.now(),
                    });
                }
                (fault.error, counts, dormant)
            },
            |i, fault| {
                format!(
                    "{phase} fault #{i}: {:?} at {:#x}",
                    fault.error, fault.site_addr
                )
            },
        )?;
        if traced {
            tracer.extend([Span {
                id: phase_id,
                parent: root,
                campaign,
                name: "engine.run_phase",
                start_ns: phase_start,
                end_ns: tracer.now(),
            }]);
        }
        workers.push(states.len());
        for w in states {
            first_run = match (first_run, w.first_run) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            retired += w.retired;
            tracer.extend(w.spans);
            runs.extend(w.runs);
            sessions.push(w.session);
        }
        item_micros.extend(records.iter().map(|r| r.elapsed_micros));
        let (ok, bad) = split_records(records);
        results.extend(ok.into_iter().map(|(_, r)| r));
        abnormal.extend(bad);
    }
    let phase_times = engine.take_phase_times();

    // Fold exactly as `class_campaign_with` does: run totals from the
    // records, interpreter counters from the sessions.
    let mut throughput = Throughput::collect(&sessions, t0.elapsed());
    throughput.runs = 0;
    throughput.fired_runs = 0;
    throughput.dormant_runs = 0;
    for (_, counts, dormant) in &results {
        throughput.runs += counts.total();
        throughput.fired_runs += counts.total() - dormant;
        throughput.dormant_runs += dormant;
    }
    let mut out = ProgramCampaign {
        program: target.name.to_string(),
        plan,
        assign_fault_count: assign_faults.len(),
        check_fault_count: check_faults.len(),
        assign_modes: ModeCounts::default(),
        check_modes: ModeCounts::default(),
        by_assign_type: BTreeMap::new(),
        by_check_type: BTreeMap::new(),
        dormant_runs: 0,
        total_runs: 0,
        throughput,
        phase_times,
        abnormal,
    };
    for (err, counts, dormant) in results {
        out.dormant_runs += dormant;
        out.total_runs += counts.total();
        match err {
            ErrorClass::Assign(t) => {
                out.assign_modes.merge(&counts);
                out.by_assign_type.entry(t).or_default().merge(&counts);
            }
            ErrorClass::Check(t) => {
                out.check_modes.merge(&counts);
                out.by_check_type.entry(t).or_default().merge(&counts);
            }
        }
    }
    let mut stats = SessionStats::default();
    for s in &sessions {
        stats.merge(&s.stats());
    }
    let snapshots = prefix.as_ref().map_or(0, |c| c.snapshot_count());
    drop(sessions);
    drop(prefix);
    let wall_s = t0.elapsed().as_secs_f64();
    if traced {
        tracer.extend([Span {
            id: root,
            parent: 0,
            campaign,
            name: "campaign",
            start_ns: start,
            end_ns: tracer.now(),
        }]);
    }
    Ok(Run {
        campaign: out,
        wall_s,
        setup_s: first_run.map_or(wall_s, |f| f.duration_since(t0).as_secs_f64()),
        runs,
        item_micros,
        workers,
        stats,
        retired,
        snapshots,
    })
}
