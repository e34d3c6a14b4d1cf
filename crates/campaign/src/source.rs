//! Source-level G-SWFIT mutation campaigns.
//!
//! The paper's §5 verdict is that ≈44 % of field faults (ODC Algorithm +
//! Function) cannot be emulated by binary-level SWIFI. This driver closes
//! the loop: it injects faults in the *source* representation instead —
//! ODC-classified mutation operators over the MiniC AST
//! ([`swifi_lang::mutate`]) — and runs the resulting compilable mutants
//! through exactly the same warm-reboot engine, failure-mode classifier,
//! and checkpoint/resume machinery as the binary campaigns of §6.
//!
//! The mutant *budget* is apportioned across the ODC defect types by the
//! encoded field distribution ([`FieldDistribution::apportion_among`]),
//! so a source campaign injects Algorithm/Function faults in roughly the
//! proportion they occur in the field — the population binary SWIFI
//! structurally misses.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use swifi_core::source::{FaultSource, InjectionPlan, PreparedFault};
use swifi_lang::mutate::{self, Mutant};
use swifi_lang::{compile, Program};
use swifi_odc::{DefectType, FieldDistribution, MutationOperator};
use swifi_programs::TargetProgram;

use swifi_trace::event::{arg_str, arg_u64};
use swifi_trace::WorkerTelemetry;

use crate::engine::{
    split_records, AbnormalRun, CampaignEngine, CampaignOptions, CheckpointHeader, PhaseTime,
};
use crate::runner::{classify_outcome, FailureMode, ModeCounts};
use crate::session::{RunSession, SessionStats, Throughput};

/// Source-campaign sizing: how many mutants to inject and how many inputs
/// to run per mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceScale {
    /// Mutants injected per program (apportioned across defect types by
    /// the field distribution; clamped to the available sites).
    pub mutant_budget: usize,
    /// Runs per mutant (the shared test case size).
    pub inputs_per_mutant: usize,
}

impl SourceScale {
    /// Full scale, mirroring the §6 campaigns' 300 inputs per fault.
    pub fn paper() -> SourceScale {
        SourceScale {
            mutant_budget: 100,
            inputs_per_mutant: 300,
        }
    }

    /// The default reproduction scale (minutes, not hours).
    pub fn reduced() -> SourceScale {
        SourceScale {
            mutant_budget: 18,
            inputs_per_mutant: 6,
        }
    }

    /// Honour the `REPRO_FULL` environment variable.
    pub fn from_env() -> SourceScale {
        if std::env::var_os("REPRO_FULL").is_some() {
            SourceScale::paper()
        } else {
            SourceScale::reduced()
        }
    }
}

/// The source-mutation implementor of [`FaultSource`]: enumerate the
/// G-SWFIT mutants of a program, select a field-weighted subset, and
/// compile each one into a self-contained [`PreparedFault::Baked`] plan.
///
/// Mutant compilation is cached per `(program, operator, site)` — the
/// mutant id encodes the operator and site, and the cache lives with this
/// source, so re-deriving plans (a resumed campaign, a comparison driver
/// running the same program twice) recompiles nothing.
pub struct SourceMutationSource {
    base: Program,
    budget: usize,
    cache: Mutex<HashMap<String, Program>>,
}

impl std::fmt::Debug for SourceMutationSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceMutationSource")
            .field("budget", &self.budget)
            .finish()
    }
}

impl SourceMutationSource {
    /// Wrap an already-compiled base program.
    pub fn new(base: Program, budget: usize) -> SourceMutationSource {
        SourceMutationSource {
            base,
            budget,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Compile a roster program's corrected source and wrap it.
    ///
    /// # Panics
    ///
    /// Panics if the vendored source fails to compile (a build error, not
    /// an input error).
    pub fn from_target(target: &TargetProgram, budget: usize) -> SourceMutationSource {
        let base = compile(target.source_correct).expect("vendored source compiles");
        SourceMutationSource::new(base, budget)
    }

    /// Every mutant the operators can generate for this program (before
    /// budget selection).
    pub fn total_mutants(&self) -> usize {
        MutationOperator::ALL
            .iter()
            .map(|&op| mutate::count_sites(&self.base.ast, op))
            .sum()
    }
}

/// Select up to `budget` mutants, apportioning the budget across the
/// represented ODC defect types by the field distribution, choosing
/// uniformly at random within each type, then restoring the stable
/// `(operator, site)` order. Quota unused by a sparse type spills over to
/// the remaining mutants in stable order, so the budget is always met when
/// enough mutants exist.
fn select_mutants(muts: &[Mutant], budget: usize, seed: u64) -> Vec<Mutant> {
    if budget >= muts.len() {
        return muts.to_vec();
    }
    let mut by_type: BTreeMap<DefectType, Vec<usize>> = BTreeMap::new();
    for (i, m) in muts.iter().enumerate() {
        by_type.entry(m.operator.defect_type()).or_default().push(i);
    }
    let represented: Vec<DefectType> = by_type.keys().copied().collect();
    let quotas = FieldDistribution::approx_field_data().apportion_among(&represented, budget);
    let mut chosen: Vec<usize> = Vec::new();
    for (k, (ty, quota)) in quotas.iter().enumerate() {
        let pool = &by_type[ty];
        let mut order: Vec<usize> = pool.clone();
        order.shuffle(&mut StdRng::seed_from_u64(
            seed.wrapping_add(0xD1F7 * (k as u64 + 1)),
        ));
        chosen.extend(order.into_iter().take(*quota));
    }
    // Spill unused quota (types with fewer sites than their share) onto
    // the not-yet-chosen mutants in stable order.
    if chosen.len() < budget {
        let taken: std::collections::HashSet<usize> = chosen.iter().copied().collect();
        chosen.extend(
            (0..muts.len())
                .filter(|i| !taken.contains(i))
                .take(budget - chosen.len()),
        );
    }
    chosen.sort_unstable();
    chosen.into_iter().map(|i| muts[i].clone()).collect()
}

/// Stable per-plan seed salt from the mutant's identity.
fn mutant_salt(op: MutationOperator, site: usize) -> u64 {
    let oi = MutationOperator::ALL
        .iter()
        .position(|&o| o == op)
        .expect("operator is in ALL") as u64;
    (oi << 32) | site as u64
}

impl FaultSource for SourceMutationSource {
    fn representation(&self) -> &'static str {
        "source"
    }

    fn plans(&self, seed: u64) -> Result<Vec<InjectionPlan>, String> {
        let all = mutate::mutants(&self.base.ast);
        let selected = select_mutants(&all, self.budget, seed);
        let mut cache = self.cache.lock().expect("mutant cache lock");
        selected
            .into_iter()
            .map(|m| {
                let program = match cache.get(&m.id) {
                    Some(p) => p.clone(),
                    None => {
                        let p = compile(&m.source)
                            .map_err(|e| format!("mutant {} does not compile: {e:?}", m.id))?;
                        cache.insert(m.id.clone(), p.clone());
                        p
                    }
                };
                Ok(InjectionPlan {
                    id: m.id,
                    group: m.operator.id().to_string(),
                    defect_type: m.operator.defect_type(),
                    line: m.line,
                    func: m.func,
                    seed_salt: mutant_salt(m.operator, m.site),
                    fault: PreparedFault::Baked(Box::new(program)),
                })
            })
            .collect()
    }
}

/// Source-mutation campaign results for one program — the source-side
/// analogue of [`crate::section6::ProgramCampaign`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceCampaign {
    /// Program name.
    pub program: String,
    /// Mutants the operators could generate (before budget selection).
    pub total_mutants: usize,
    /// Mutants actually injected.
    pub selected_mutants: usize,
    /// Failure modes over all mutant runs.
    pub modes: ModeCounts,
    /// Failure modes per mutation operator.
    pub by_operator: BTreeMap<MutationOperator, ModeCounts>,
    /// Failure modes per ODC defect type — including the Algorithm and
    /// Function rows the binary campaigns cannot populate.
    pub by_defect_type: BTreeMap<DefectType, ModeCounts>,
    /// Runs where the mutant never diverged from the fault-free run
    /// (the source analogue of a dormant fault).
    pub dormant_runs: u64,
    /// Total mutant runs.
    pub total_runs: u64,
    /// Run-engine throughput (run counts folded from the records, so a
    /// resumed campaign reports the same totals as an uninterrupted one).
    pub throughput: Throughput,
    /// Per-phase wall clock (equality ignores the elapsed component).
    pub phase_times: Vec<PhaseTime>,
    /// Work items that panicked out of the harness.
    pub abnormal: Vec<AbnormalRun>,
}

/// Run the source-mutation campaign for one program.
///
/// # Panics
///
/// Panics if the program's corrected source fails to compile.
pub fn source_campaign(target: &TargetProgram, scale: SourceScale, seed: u64) -> SourceCampaign {
    source_campaign_with(target, scale, seed, &CampaignOptions::default())
        .expect("no checkpoint configured")
}

/// [`source_campaign`] under explicit robustness options — the same
/// checkpoint/resume, watchdog, and chaos knobs as the binary campaigns.
///
/// Each mutant is one work item running the whole shared test case; a
/// killed campaign resumes mutant-by-mutant from the JSONL checkpoint and
/// folds to a report equal to an uninterrupted one.
///
/// Activation ("fired") is observational: a run counts as activated when
/// its failure mode or output differs from the fault-free run of the base
/// program on the same input — a baked mutant has no trigger hardware to
/// report firing, so divergence *is* the signal.
///
/// # Errors
///
/// Checkpoint I/O failures, header/record corruption, and mutants that
/// fail to compile (a bug in the mutation engine, surfaced not masked).
///
/// # Panics
///
/// Panics if the program's corrected source fails to compile.
pub fn source_campaign_with(
    target: &TargetProgram,
    scale: SourceScale,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<SourceCampaign, String> {
    let source = SourceMutationSource::from_target(target, scale.mutant_budget);
    let total_mutants = source.total_mutants();
    let plans = source.plans(seed)?;
    let inputs = target
        .family
        .test_case(scale.inputs_per_mutant, seed ^ 0x5EED);

    // The activation oracle: the base program's fault-free (mode, output)
    // per input, under the same watchdog as the mutant runs.
    let base = &source.base;
    let mut ref_session = RunSession::new(base, target.family);
    opts.configure_session(&mut ref_session);
    let expected: Vec<Vec<u8>> = inputs.iter().map(|i| i.expected_output()).collect();
    let clean: Vec<(FailureMode, Vec<u8>)> = inputs
        .iter()
        .zip(&expected)
        .map(|(input, exp)| {
            let outcome = ref_session.run_clean(input);
            (classify_outcome(&outcome, exp), outcome.output().to_vec())
        })
        .collect();

    let header = CheckpointHeader::new(
        format!("source:{}:{}", target.name, scale.mutant_budget),
        seed,
        scale.inputs_per_mutant as u64,
    );
    let mut engine = CampaignEngine::new(header, opts)?;

    // One work item per mutant. Each mutant is its own compiled image, so
    // the worker builds a fresh session per item (snapshot included) and
    // folds its counters into the worker's running stats; the prefix-fork
    // cache does not apply (there is no shared base image to fork from).
    // The worker's telemetry accumulator is loaned to each per-item
    // session (so profiling and session events land on the worker's
    // lane) and reclaimed afterwards — one lane per worker, not one per
    // mutant.
    type WorkerState = (SessionStats, Option<WorkerTelemetry>);
    let (records, states) = engine.run_phase(
        "mutants",
        &plans,
        || -> WorkerState {
            (
                SessionStats::default(),
                opts.telemetry.as_ref().map(|t| t.worker()),
            )
        },
        |state, _, plan| {
            let PreparedFault::Baked(program) = &plan.fault else {
                panic!("source plans are baked mutants");
            };
            let span_start = state.1.as_ref().map(WorkerTelemetry::now_us);
            let mut session = RunSession::new(program, target.family);
            opts.configure_session(&mut session);
            // Loan the worker's lane, not a fresh one per mutant.
            session.set_telemetry(state.1.take());
            let mut counts = ModeCounts::default();
            let mut activated = 0u64;
            for (j, input) in inputs.iter().enumerate() {
                let outcome = session.run_clean(input);
                let mode = classify_outcome(&outcome, &expected[j]);
                counts.add(mode);
                let (clean_mode, clean_out) = &clean[j];
                if mode != *clean_mode || outcome.output() != clean_out.as_slice() {
                    activated += 1;
                }
            }
            state.1 = session.take_telemetry();
            if let Some(t) = state.1.as_mut() {
                if let Some(start) = span_start {
                    // One span per mutant: a baked mutant has no
                    // single-run boundary the session exposes, so the
                    // item is the traced unit.
                    t.complete(
                        "run",
                        start,
                        vec![
                            arg_str("mutant", &plan.id),
                            arg_u64("runs", counts.total()),
                            arg_u64("activated", activated),
                        ],
                    );
                }
                t.counter_add("runs", counts.total());
                t.counter_add("fired_runs", activated);
                t.counter_add("dormant_runs", counts.total() - activated);
            }
            state.0.merge(&session.stats());
            (counts, activated)
        },
        |i, plan| format!("mutant #{i}: {} ({})", plan.id, plan.group),
    )?;
    let (ok, abnormal) = split_records(records);

    // Engine counters from the workers that actually ran (and the
    // reference session); the close refolds the run totals from the
    // records (resume-safe, like §6).
    let mut stats = ref_session.stats();
    for (s, _) in &states {
        stats.merge(s);
    }
    // Retire the workers' telemetry lanes before the close.
    drop(states);
    let runs: u64 = ok.iter().map(|(_, (counts, _))| counts.total()).sum();
    let activated: u64 = ok.iter().map(|&(_, (_, activated))| activated).sum();
    let dormant = runs - activated;
    let close = engine.close(&stats, runs, dormant, abnormal);

    let mut out = SourceCampaign {
        program: target.name.to_string(),
        total_mutants,
        selected_mutants: plans.len(),
        modes: ModeCounts::default(),
        by_operator: BTreeMap::new(),
        by_defect_type: BTreeMap::new(),
        dormant_runs: dormant,
        total_runs: runs,
        throughput: close.throughput,
        phase_times: close.phase_times,
        abnormal: close.abnormal,
    };
    for (index, (counts, _)) in ok {
        let plan = &plans[index as usize];
        let op = MutationOperator::from_id(&plan.group).expect("plan group is an operator id");
        out.modes.merge(&counts);
        out.by_operator.entry(op).or_default().merge(&counts);
        out.by_defect_type
            .entry(plan.defect_type)
            .or_default()
            .merge(&counts);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_programs::program;

    #[test]
    fn source_plans_are_baked_compiled_mutants() {
        let target = program("JB.team11").unwrap();
        let source = SourceMutationSource::from_target(&target, 10);
        assert_eq!(source.representation(), "source");
        let plans = source.plans(7).unwrap();
        assert_eq!(plans.len(), 10.min(source.total_mutants()));
        for p in &plans {
            assert!(matches!(p.fault, PreparedFault::Baked(_)));
            let op = MutationOperator::from_id(&p.group).expect("group is an operator id");
            assert_eq!(op.defect_type(), p.defect_type);
        }
        // Seed determinism: same selection, same ids, same order.
        let again: Vec<String> = source.plans(7).unwrap().into_iter().map(|p| p.id).collect();
        let ids: Vec<String> = plans.into_iter().map(|p| p.id).collect();
        assert_eq!(ids, again);
    }

    #[test]
    fn source_plans_reach_inemulable_defect_types() {
        // The tentpole's point: binary plans stop at Assignment/Checking;
        // an unbudgeted source plan set covers Algorithm and Function too.
        let target = program("JB.team6").unwrap();
        let source = SourceMutationSource::from_target(&target, usize::MAX);
        let plans = source.plans(3).unwrap();
        let types: std::collections::BTreeSet<DefectType> =
            plans.iter().map(|p| p.defect_type).collect();
        assert!(types.contains(&DefectType::Algorithm), "{types:?}");
        assert!(types.contains(&DefectType::Function), "{types:?}");
        assert!(types.contains(&DefectType::Assignment), "{types:?}");
        assert!(types.contains(&DefectType::Checking), "{types:?}");
    }

    #[test]
    fn budget_selection_is_field_weighted_and_stable() {
        let target = program("JB.team6").unwrap();
        let base = compile(target.source_correct).unwrap();
        let muts = mutate::mutants(&base.ast);
        let budget = 12.min(muts.len() - 1);
        let sel = select_mutants(&muts, budget, 5);
        assert_eq!(sel.len(), budget, "budget is met when enough sites exist");
        // Stable (operator, site) order survives the per-type shuffles.
        let pos = |m: &Mutant| {
            muts.iter()
                .position(|x| x.id == m.id)
                .expect("selected from muts")
        };
        assert!(sel.windows(2).all(|w| pos(&w[0]) < pos(&w[1])));
    }

    #[test]
    fn small_source_campaign_produces_full_accounting() {
        let target = program("JB.team11").unwrap();
        let scale = SourceScale {
            mutant_budget: 8,
            inputs_per_mutant: 3,
        };
        let c = source_campaign(&target, scale, 11);
        assert_eq!(c.selected_mutants, 8);
        assert!(c.total_mutants >= c.selected_mutants);
        assert_eq!(c.total_runs, 8 * 3);
        assert_eq!(c.modes.total(), c.total_runs);
        let by_op: u64 = c.by_operator.values().map(ModeCounts::total).sum();
        assert_eq!(by_op, c.total_runs);
        let by_ty: u64 = c.by_defect_type.values().map(ModeCounts::total).sum();
        assert_eq!(by_ty, c.total_runs);
        // Mutants hit: not every run can stay correct.
        assert!(c.modes.correct < c.modes.total());
        assert_eq!(c.throughput.runs, c.total_runs);
        assert_eq!(
            c.throughput.fired_runs + c.throughput.dormant_runs,
            c.total_runs
        );
        assert_eq!(c.throughput.dormant_runs, c.dormant_runs);
        assert!(c.abnormal.is_empty());
    }

    #[test]
    fn source_campaign_is_seed_deterministic() {
        let target = program("JB.team11").unwrap();
        let scale = SourceScale {
            mutant_budget: 5,
            inputs_per_mutant: 2,
        };
        let a = source_campaign(&target, scale, 9);
        let b = source_campaign(&target, scale, 9);
        assert_eq!(a, b);
    }
}
