//! Class-based fault-injection campaigns (paper §6, Tables 2 & 4,
//! Figures 7–10).
//!
//! For every Table-2 target program: enumerate all assignment/checking
//! locations, choose a random subset (the paper's per-program counts),
//! generate every applicable Table-3 error type per location, and run the
//! family's shared random test case with exactly one fault per run,
//! rebooting between runs. Outcomes aggregate into failure-mode profiles
//! per program (Figures 7–8) and per error type (Figures 9–10).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use swifi_core::locations::{choose_locations, ErrorClass, GeneratedFault, LocationPlan};
use swifi_core::source::{BinarySwifiSource, FaultSource, PreparedFault};
use swifi_lang::compile;
use swifi_odc::{AssignErrorType, CheckErrorType};
use swifi_programs::{all_programs, TargetProgram};
use swifi_trace::event::{arg_str, arg_u64};
use swifi_trace::{Telemetry, TraceEvent, ENGINE_TID};

use crate::engine::{
    split_records, AbnormalRun, CampaignEngine, CampaignOptions, CheckpointHeader, PhaseTime,
};
use crate::prefix::{watch_pcs_of, PrefixCache};
use crate::runner::ModeCounts;
use crate::session::{RunSession, Throughput};

/// Campaign sizing. The paper used 300 inputs per fault and hand-picked
/// location counts; [`CampaignScale::paper`] reproduces those counts,
/// [`CampaignScale::reduced`] keeps wall-clock reasonable (the
/// distributions converge long before 300 samples per cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignScale {
    /// Runs per generated fault (the shared test case size).
    pub inputs_per_fault: usize,
}

impl CampaignScale {
    /// The paper's scale (300 inputs per fault — hours of wall clock).
    pub fn paper() -> CampaignScale {
        CampaignScale {
            inputs_per_fault: 300,
        }
    }

    /// The default reproduction scale (kept small so the whole harness
    /// finishes in minutes on a laptop; the recorded EXPERIMENTS.md run
    /// used 25).
    pub fn reduced() -> CampaignScale {
        CampaignScale {
            inputs_per_fault: 12,
        }
    }

    /// Honour the `REPRO_FULL` environment variable.
    pub fn from_env() -> CampaignScale {
        if std::env::var_os("REPRO_FULL").is_some() {
            CampaignScale::paper()
        } else {
            CampaignScale::reduced()
        }
    }
}

/// The paper's Table 4 "chosen locations" counts, mapped onto our roster.
pub fn chosen_locations(name: &str) -> (usize, usize) {
    match name {
        "C.team1" => (8, 8),
        "C.team2" => (5, 6),
        "C.team8" => (8, 9),
        "C.team9" => (9, 9),
        "C.team10" => (9, 8),
        "JB.team6" => (5, 5),
        "JB.team11" => (5, 5),
        "SOR" => (12, 12),
        _ => (5, 5),
    }
}

/// Campaign results for one program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramCampaign {
    /// Program name.
    pub program: String,
    /// Location selection (the program's Table 4 row).
    pub plan: LocationPlan,
    /// Generated assignment faults (locations × applicable types).
    pub assign_fault_count: usize,
    /// Generated checking faults.
    pub check_fault_count: usize,
    /// Failure modes over all assignment-fault runs (Figure 7 column).
    pub assign_modes: ModeCounts,
    /// Failure modes over all checking-fault runs (Figure 8 column).
    pub check_modes: ModeCounts,
    /// Failure modes per assignment error type (Figure 9 contribution).
    pub by_assign_type: BTreeMap<AssignErrorType, ModeCounts>,
    /// Failure modes per checking error type (Figure 10 contribution).
    pub by_check_type: BTreeMap<CheckErrorType, ModeCounts>,
    /// Runs in which the injected fault never fired (dormant faults).
    pub dormant_runs: u64,
    /// Total injected-fault runs.
    pub total_runs: u64,
    /// Run-engine throughput for the whole campaign (equality ignores
    /// wall-clock; see [`Throughput`]). Run counts are folded from the
    /// per-fault records, so a resumed campaign reports the same totals
    /// as an uninterrupted one.
    pub throughput: Throughput,
    /// Per-phase wall clock (equality ignores the elapsed component; see
    /// [`PhaseTime`]).
    pub phase_times: Vec<PhaseTime>,
    /// Work items that panicked out of the harness — the paper's
    /// "abnormal outcome" bucket. The campaign completes around them.
    pub abnormal: Vec<AbnormalRun>,
}

impl ProgramCampaign {
    /// Total injected faults (Table 4 "Injected faults" ×2 columns).
    pub fn injected_assign(&self) -> u64 {
        self.assign_modes.total()
    }

    /// Total injected checking faults.
    pub fn injected_check(&self) -> u64 {
        self.check_modes.total()
    }
}

/// Run the class campaign for one program.
///
/// # Panics
///
/// Panics if the program's corrected source fails to compile (programs are
/// vendored; this is a build error, not an input error).
pub fn class_campaign(target: &TargetProgram, scale: CampaignScale, seed: u64) -> ProgramCampaign {
    class_campaign_with(target, scale, seed, &CampaignOptions::default())
        .expect("no checkpoint configured")
}

/// Run the class campaign for one program under explicit robustness
/// options: checkpoint/resume, per-run watchdog, chaos injection.
///
/// Each fault is one work item; a fault whose runs panic the harness is
/// recorded as [`AbnormalRun`] and the campaign continues. With
/// [`CampaignOptions::checkpoint`] set, every completed fault appends to
/// the JSONL checkpoint as it finishes, and with `resume` the recorded
/// faults replay from disk instead of re-running — the resumed campaign
/// compares equal (per the seed-determinism [`Throughput`]/report
/// equality) to an uninterrupted one.
///
/// # Errors
///
/// Checkpoint I/O failures and header/record corruption.
///
/// # Panics
///
/// Panics if the program's corrected source fails to compile.
pub fn class_campaign_with(
    target: &TargetProgram,
    scale: CampaignScale,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<ProgramCampaign, String> {
    let compiled = compile(target.source_correct).expect("vendored source compiles");
    let (n_assign, n_check) = chosen_locations(target.name);
    // The binary SWIFI path through the representation-agnostic boundary:
    // `BinarySwifiSource` yields the same faults in the same order as
    // `generate_error_set`, grouped into the two campaign phases.
    let fault_source = BinarySwifiSource::new(compiled.debug.clone(), n_assign, n_check);
    let plan = choose_locations(&compiled.debug, n_assign, n_check, seed);
    let mut assign_faults: Vec<GeneratedFault> = Vec::new();
    let mut check_faults: Vec<GeneratedFault> = Vec::new();
    for p in fault_source.plans(seed)? {
        let PreparedFault::Runtime(fault) = p.fault else {
            return Err("binary fault source yielded a baked plan".to_string());
        };
        match p.group.as_str() {
            "assign" => assign_faults.push(fault),
            _ => check_faults.push(fault),
        }
    }
    let inputs = target
        .family
        .test_case(scale.inputs_per_fault, seed ^ 0x5EED);

    let header = CheckpointHeader::new(
        format!("section6:{}", target.name),
        seed,
        scale.inputs_per_fault as u64,
    );
    let mut engine = CampaignEngine::new(header, opts)?;
    let t0 = std::time::Instant::now();
    let campaign_start = opts.telemetry.as_deref().map(Telemetry::now_us);
    let mut sessions: Vec<RunSession> = Vec::new();
    // One prefix-fork cache per compiled program, shared by every worker
    // session of both phases: all runs of the campaign share the same
    // input set, so each input's golden pass is paid for once. It watches
    // the triggers of the faults this process will execute.
    let prefix = (!opts.no_prefix_fork).then(PrefixCache::shared);
    if let Some(cache) = &prefix {
        let phases = [("assign", &assign_faults), ("check", &check_faults)];
        let executed = phases.iter().flat_map(|(phase, faults)| {
            let pending = engine.executes(phase, faults.len());
            pending.into_iter().map(|i| &faults[i].spec)
        });
        cache.set_watch_pcs(watch_pcs_of(executed));
    }

    // One work item per fault: runs the whole shared test case. Each
    // worker thread owns a warm-reboot session reused across all the
    // faults it processes (one session per worker, not per run).
    let mut results: Vec<(ErrorClass, ModeCounts, u64)> = Vec::new();
    let mut abnormal = Vec::new();
    for (phase, faults) in [("assign", &assign_faults), ("check", &check_faults)] {
        let (records, mut batch_sessions) = engine.run_phase(
            phase,
            faults,
            || opts.session(&compiled, target.family, prefix.clone()),
            |session, _, fault| {
                let (counts, dormant) = session.run_inputs(&inputs, &fault.spec, |j| {
                    seed.wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(fault.site_addr as u64)
                        .wrapping_add(j as u64)
                });
                (fault.error, counts, dormant)
            },
            |i, fault| {
                format!(
                    "{phase} fault #{i}: {:?} at {:#x}",
                    fault.error, fault.site_addr
                )
            },
        )?;
        sessions.append(&mut batch_sessions);
        let (ok, phase_abnormal) = split_records(records);
        results.extend(ok.into_iter().map(|(_, r)| r));
        abnormal.extend(phase_abnormal);
    }
    let phase_times = engine.take_phase_times();

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
        throughput: Throughput::collect(&sessions, t0.elapsed()),
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
    // The run totals come from the records, not the live sessions: on
    // resume the replayed faults never touch a session, and the totals
    // must not depend on where the previous process died. Wall-clock and
    // interpreter counters (ignored by `Throughput` equality) still come
    // from the sessions that actually ran.
    out.throughput.runs = out.total_runs;
    out.throughput.fired_runs = out.total_runs - out.dormant_runs;
    out.throughput.dormant_runs = out.dormant_runs;
    // Worker telemetry drains on session drop; retire the sessions now so
    // a metrics-merge failure surfaces in this campaign's abnormal bucket
    // (a data point, like any other abnormal run) instead of being lost.
    drop(sessions);
    if let Some(telemetry) = opts.telemetry.as_deref() {
        for message in telemetry.take_merge_errors() {
            out.abnormal.push(AbnormalRun {
                phase: "telemetry".to_string(),
                index: out.abnormal.len() as u64,
                message,
                detail: "metrics merge on worker retire".to_string(),
            });
        }
    }
    if let (Some(telemetry), Some(start)) = (opts.telemetry.as_deref(), campaign_start) {
        telemetry.engine_event(TraceEvent::complete(
            "campaign",
            start,
            telemetry.now_us().saturating_sub(start),
            ENGINE_TID,
            vec![
                arg_str("campaign", format!("section6:{}", target.name)),
                arg_u64("runs", out.total_runs),
            ],
        ));
    }
    Ok(out)
}

/// Run the campaign over all eight Table-2 targets.
pub fn campaign_all(scale: CampaignScale, seed: u64) -> Vec<ProgramCampaign> {
    all_programs()
        .iter()
        .filter(|p| p.section6_target)
        .map(|p| class_campaign(p, scale, seed))
        .collect()
}

/// Merge per-program results into the global per-error-type profiles of
/// Figures 9 and 10 ("all faults").
pub fn merge_by_error_type(
    campaigns: &[ProgramCampaign],
) -> (
    BTreeMap<AssignErrorType, ModeCounts>,
    BTreeMap<CheckErrorType, ModeCounts>,
) {
    let mut assign: BTreeMap<AssignErrorType, ModeCounts> = BTreeMap::new();
    let mut check: BTreeMap<CheckErrorType, ModeCounts> = BTreeMap::new();
    for c in campaigns {
        for (&t, m) in &c.by_assign_type {
            assign.entry(t).or_default().merge(m);
        }
        for (&t, m) in &c.by_check_type {
            check.entry(t).or_default().merge(m);
        }
    }
    (assign, check)
}

/// A Table-2 row: program features, measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Program name.
    pub program: String,
    /// Narrative features (from the roster).
    pub features: String,
    /// Measured non-blank, non-comment lines of code.
    pub loc: usize,
    /// Whether any function is recursive.
    pub recursive: bool,
    /// Whether the program uses heap structures.
    pub dynamic_structures: bool,
    /// Number of cores used.
    pub cores: usize,
    /// Whether a real fault was found (and corrected) in it.
    pub had_real_fault: bool,
}

/// Build Table 2 from the roster plus measured metrics.
pub fn table2() -> Vec<Table2Row> {
    all_programs()
        .iter()
        .filter(|p| p.section6_target)
        .map(|p| {
            let ast = swifi_lang::parser::parse(p.source_correct).expect("parses");
            let m = swifi_metrics::measure(p.source_correct, &ast);
            Table2Row {
                program: p.name.to_string(),
                features: p.features.to_string(),
                loc: m.loc,
                recursive: m.any_recursive(),
                dynamic_structures: m.uses_dynamic_structures(),
                cores: p.family.cores(),
                had_real_fault: p.source_faulty.is_some(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_programs::program;

    #[test]
    fn table2_covers_the_eight_targets() {
        let rows = table2();
        assert_eq!(rows.len(), 8);
        let sor = rows.iter().find(|r| r.program == "SOR").unwrap();
        assert_eq!(sor.cores, 4);
        assert!(rows.iter().all(|r| r.loc > 0));
        let t9 = rows.iter().find(|r| r.program == "C.team9").unwrap();
        assert!(t9.dynamic_structures);
        let t1 = rows.iter().find(|r| r.program == "C.team1").unwrap();
        assert!(t1.recursive);
        // SOR is the largest program (Table 2's "larger size").
        assert!(rows.iter().all(|r| r.program == "SOR" || r.loc <= sor.loc));
    }

    #[test]
    fn small_campaign_produces_full_accounting() {
        let target = program("JB.team11").unwrap();
        let scale = CampaignScale {
            inputs_per_fault: 3,
        };
        let c = class_campaign(&target, scale, 11);
        assert_eq!(c.plan.chosen_assign.len(), 5);
        assert_eq!(c.plan.chosen_check.len(), 5);
        // 5 assignment locations × 4 error types × 3 inputs.
        assert_eq!(c.injected_assign(), 5 * 4 * 3);
        assert!(c.injected_check() > 0);
        assert_eq!(c.total_runs, c.injected_assign() + c.injected_check());
        // Injected faults hit hard: not everything can stay correct.
        assert!(c.assign_modes.correct < c.assign_modes.total());
        // The per-type split accounts for every assignment run.
        let split: u64 = c.by_assign_type.values().map(ModeCounts::total).sum();
        assert_eq!(split, c.injected_assign());
    }

    #[test]
    fn campaign_is_seed_deterministic() {
        let target = program("JB.team6").unwrap();
        let scale = CampaignScale {
            inputs_per_fault: 2,
        };
        let a = class_campaign(&target, scale, 5);
        let b = class_campaign(&target, scale, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_by_error_type_sums_totals() {
        let target = program("JB.team11").unwrap();
        let scale = CampaignScale {
            inputs_per_fault: 2,
        };
        let c = class_campaign(&target, scale, 3);
        let (assign, check) = merge_by_error_type(std::slice::from_ref(&c));
        let merged: u64 = assign
            .values()
            .chain(check.values())
            .map(ModeCounts::total)
            .sum();
        assert_eq!(merged, c.total_runs);
    }
}
