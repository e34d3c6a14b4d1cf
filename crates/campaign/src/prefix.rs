//! Prefix forking: share the fault-free prefix across injected runs.
//!
//! A §6 campaign runs many faults against the *same* inputs. For the
//! dominant fault shape — an [`swifi_core::fault::Trigger::OpcodeFetch`]
//! trigger with a non-memory target — every architectural effect of the
//! fault is confined to the suffix that starts at the trigger's firing
//! occurrence: the prefix up to that point is bit-identical to the
//! fault-free (golden) run. Re-executing that prefix for every injected
//! run is pure waste.
//!
//! Campaign phases run input-major ([`crate::matrix`]): the worker that
//! takes a tile makes one golden pass per input and then runs every fault
//! of the tile against that input. The pass is one clean run that pauses
//! just before each fork point `(trigger pc, firing occurrence)` of the
//! phase ([`swifi_vm::Machine::run_to_watch`]) and stores a *rung* — a
//! sparse [`ForkSnapshot`] of the paused machine — wherever
//! [`crate::plan::worth_forking`] says the prefix pays over the phase's
//! faults at that point. The rungs make up the input's ladder, which
//! the worker's [`crate::session::RunSession`] owns: a fault run restores
//! its rung ([`swifi_vm::Machine::restore_fork`]) and executes only the
//! divergent suffix.
//!
//! A pass that reaches the end of the run *is* the golden run: it records
//! the golden outcome and the arrival total of every watched PC it left
//! pending, so a fault whose occurrence never comes is answered by the
//! planner's never-arrives verdict without executing. A pass that has
//! paused at every fork point stops there: no fault of the phase needs
//! the tail.
//!
//! The session drops its ladder when the pass for its next input starts,
//! so rung memory is bounded by the structure — one input's rungs per
//! worker — and nothing is shared between workers.

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::Arc;

use swifi_core::fault::FaultSpec;
use swifi_programs::input::TestInput;
use swifi_vm::machine::RunOutcome;
use swifi_vm::ForkSnapshot;

use crate::plan::{self, RunPlan};

/// A phase's fork points, sorted: each `(trigger pc, firing occurrence)`
/// some fault of the phase forks from, with the number of the phase's
/// faults that fork there.
pub type ForkPoints = Arc<[((u32, u64), u32)]>;

/// The fork points of a fault set, for [`crate::session::RunSession::hold_ladder`].
pub fn fork_points<'a>(specs: impl IntoIterator<Item = &'a FaultSpec>) -> ForkPoints {
    let mut points: Vec<(u32, u64)> = specs
        .into_iter()
        .filter_map(FaultSpec::fork_point)
        .collect();
    points.sort_unstable();
    let mut counted: Vec<((u32, u64), u32)> = Vec::new();
    for point in points {
        match counted.last_mut() {
            Some((last, n)) if *last == point => *n += 1,
            _ => counted.push((point, 1)),
        }
    }
    counted.into()
}

/// A fault-free run of a program on one input.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// How the fault-free run ended.
    pub outcome: RunOutcome,
    /// Guest instructions the fault-free run retired.
    pub retired: u64,
}

/// One input's golden pass over a phase's fork points: the rungs it
/// stored and, when it ran to the end, the golden run with the arrival
/// totals of the points it never reached.
pub(crate) struct Ladder {
    input: TestInput,
    points: ForkPoints,
    pub(crate) rungs: HashMap<(u32, u64), Arc<ForkSnapshot>>,
    /// The golden run and the total arrivals at every watched PC whose
    /// fork points were not all reached, sorted by PC. `None` when the
    /// pass stopped at its last fork point, or its outcome may be a
    /// watchdog deadline rather than the program's.
    golden: Option<(GoldenRun, Vec<(u32, u64)>)>,
    /// Bytes the ladder holds: rungs, golden output and totals.
    pub(crate) bytes: usize,
}

impl Ladder {
    /// An empty ladder for `input` over `points`.
    pub(crate) fn new(input: &TestInput, points: &ForkPoints) -> Ladder {
        Ladder {
            input: input.clone(),
            points: points.clone(),
            rungs: HashMap::new(),
            golden: None,
            bytes: 0,
        }
    }

    /// Whether this is the ladder of `input` over `points`.
    pub(crate) fn holds(&self, input: &TestInput, points: &ForkPoints) -> bool {
        Arc::ptr_eq(&self.points, points) && self.is_for(input)
    }

    /// Whether this ladder was made on `input`. Its rungs and totals are
    /// those of `input`'s golden run, whatever phase's points it paused
    /// at.
    pub(crate) fn is_for(&self, input: &TestInput) -> bool {
        self.input == *input
    }

    /// The phase's faults that fork from `point`.
    pub(crate) fn uses(&self, point: (u32, u64)) -> u32 {
        let i = self.points.partition_point(|&(p, _)| p < point);
        self.points
            .get(i)
            .filter(|&&(p, _)| p == point)
            .map_or(0, |&(_, n)| n)
    }

    /// Store the rung of `point`.
    pub(crate) fn insert(&mut self, point: (u32, u64), snapshot: ForkSnapshot) {
        self.bytes += size_of::<((u32, u64), Arc<ForkSnapshot>)>() + snapshot.byte_count();
        self.rungs.insert(point, Arc::new(snapshot));
    }

    /// Record the golden run the pass finished as, with the arrival
    /// totals of the PCs it left pending.
    pub(crate) fn set_golden(&mut self, run: GoldenRun, totals: Vec<(u32, u64)>) {
        self.bytes += run.outcome.output().len() + totals.len() * size_of::<(u32, u64)>();
        self.golden = Some((run, totals));
    }

    /// The golden run, when the pass ran to the end.
    pub(crate) fn golden(&self) -> Option<&GoldenRun> {
        self.golden.as_ref().map(|(run, _)| run)
    }

    /// Plan the run of a fault whose fork point is `(pc, occ)`: the
    /// never-arrives verdict when the golden run proves the occurrence
    /// never comes, a fork from the stored rung, else a full run.
    pub(crate) fn plan(&self, pc: u32, occ: u64) -> RunPlan {
        if let Some(plan) = plan::never_arrives(occ, self.total(pc)) {
            return plan;
        }
        self.rungs
            .get(&(pc, occ))
            .map_or(RunPlan::Full, |rung| RunPlan::Fork(rung.clone()))
    }

    /// The golden run's total arrivals at `pc`, when the pass ran to the
    /// end with `pc` still watched.
    pub(crate) fn total(&self, pc: u32) -> Option<u64> {
        let (_, totals) = self.golden.as_ref()?;
        let i = totals.binary_search_by_key(&pc, |&(p, _)| p).ok()?;
        Some(totals[i].1)
    }
}

/// Has no effect until the next benchmark change drops it: the benchmark
/// harness still builds one. Golden passes and their rungs live in each
/// worker session's ladder (see the module docs).
#[derive(Debug, Default)]
pub struct PrefixCache;

impl PrefixCache {
    /// Has no effect (see [`PrefixCache`]).
    pub fn shared() -> Arc<PrefixCache> {
        Arc::new(PrefixCache)
    }

    /// Has no effect (see [`PrefixCache`]).
    pub fn set_watch_pcs(&self, _pcs: Vec<u32>) {}

    /// Always 0 (see [`PrefixCache`]).
    pub fn snapshot_count(&self) -> usize {
        0
    }
}

/// Has no effect until the next benchmark change drops it, with
/// [`PrefixCache::set_watch_pcs`]: the trigger PC of every fault that
/// forks from a first arrival, once per fault.
pub fn watch_pcs_of<'a>(specs: impl IntoIterator<Item = &'a FaultSpec>) -> Vec<u32> {
    specs
        .into_iter()
        .filter_map(|s| match s.fork_point() {
            Some((pc, 1)) => Some(pc),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_core::fault::{ErrorOp, Firing, Target, Trigger};
    use swifi_programs::program;
    use swifi_vm::inspect::Noop;
    use swifi_vm::machine::{Machine, MachineConfig};

    fn spec(pc: u32, when: Firing) -> FaultSpec {
        FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(pc),
            when,
        }
    }

    #[test]
    fn fork_points_count_the_faults_at_each_point() {
        let specs = [
            spec(0x104, Firing::EveryTime),
            spec(0x100, Firing::Nth(3)),
            spec(0x104, Firing::First),
            spec(0x100, Firing::Nth(0)),
            FaultSpec {
                target: Target::Memory(0x104),
                ..spec(0x104, Firing::First)
            },
        ];
        let points = fork_points(&specs);
        assert_eq!(&*points, &[((0x100, 3), 1), ((0x104, 1), 2)]);
        let input = &program("JB.team11").unwrap().family.test_case(1, 1)[0];
        let ladder = Ladder::new(input, &points);
        assert_eq!(ladder.uses((0x104, 1)), 2);
        assert_eq!(ladder.uses((0x100, 1)), 0);
        assert!(ladder.holds(input, &points));
        assert!(
            !ladder.holds(input, &fork_points(&specs)),
            "another phase's points"
        );
    }

    #[test]
    fn the_ladder_plans_never_arrives_then_forks_then_full_runs() {
        let image = swifi_vm::asm::assemble("li r3, 0\nhalt").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        m.run(&mut Noop);
        let target = program("JB.team11").unwrap();
        let input = &target.family.test_case(1, 2)[0];
        let points = fork_points(&[spec(0x100, Firing::First), spec(0x104, Firing::Nth(8))]);
        let mut ladder = Ladder::new(input, &points);
        ladder.insert((0x100, 1), m.fork_snapshot());
        assert_eq!(ladder.rungs.len(), 1);
        // Before the golden run is known, nothing is proven dormant.
        assert!(matches!(ladder.plan(0x104, 8), RunPlan::Full));
        let golden = GoldenRun {
            outcome: RunOutcome::Hang { output: Vec::new() },
            retired: 9,
        };
        ladder.set_golden(golden, vec![(0x104, 7)]);
        assert_eq!(ladder.golden().map(|g| g.retired), Some(9));
        // Occurrence 8 never arrives; occurrence 7 does, with no rung.
        assert!(matches!(ladder.plan(0x104, 8), RunPlan::NeverArrives));
        assert!(matches!(ladder.plan(0x104, 7), RunPlan::Full));
        assert!(matches!(ladder.plan(0x100, 1), RunPlan::Fork(_)));
        assert!(ladder.bytes > 0);
    }
}
