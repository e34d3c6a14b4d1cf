//! The run planner: decide up front how the session executes each
//! injected run.
//!
//! Every strategy is an exact shortcut of the paper's cold run (reboot,
//! inject, run to the end), so a [`RunPlan`] only chooses *how* a run is
//! answered, never *what* it answers:
//!
//! - **[`RunPlan::NeverArrives`]** — the golden (clean) run reaches the
//!   trigger fewer times than the fault's firing occurrence requires, so
//!   the fault never fires and the session reports the golden outcome
//!   without executing ([`never_arrives`]). The trigger totals come from
//!   capture runs that finished without reaching the trigger: such a run
//!   *is* the golden run, and it counted every arrival on the way.
//! - **[`RunPlan::Fork`]** — a cached prefix snapshot at the trigger
//!   occurrence exists: restore it and execute only the suffix.
//! - **[`RunPlan::Capture`]** — no snapshot yet: run the clean prefix to
//!   the trigger, snapshot it if [`worth_forking`] says the prefix is
//!   deep enough, and continue as the injected run.
//! - **[`RunPlan::Full`]** — execute the whole run from the warm
//!   snapshot.
//!
//! The planner needs no instrumented run of its own: every verdict is
//! read from evidence an ordinary run already left in the
//! [`crate::prefix::PrefixCache`].

use std::sync::Arc;

use swifi_vm::ForkSnapshot;

/// How the session executes one injected run.
#[derive(Debug, Clone)]
pub enum RunPlan {
    /// Report the golden run's outcome and retired count without
    /// executing: the trigger occurrence the fault waits for never
    /// arrives, so the fault never fires.
    NeverArrives,
    /// Restore this prefix snapshot, paused just before the trigger
    /// occurrence, and execute only the suffix.
    Fork(Arc<ForkSnapshot>),
    /// Run the clean prefix to the trigger occurrence, snapshot it when
    /// [`worth_forking`] allows, and continue in place as the injected
    /// run.
    Capture,
    /// Execute the whole run from the warm snapshot.
    Full,
}

/// Minimum retire depth of the fork occurrence for forking to pay:
/// restoring a snapshot is not free, so shorter prefixes are re-executed.
const MIN_FORK_DEPTH: u64 = 64;

/// A prefix must cover at least `1 / SHALLOW_DENOM` of the golden run to
/// be forked. A quarter splits the measured field cleanly: JB.team11's
/// regressing triggers sit at ~4% depth, the profitable JB.team6 /
/// C.team10 prefixes at ~28% / ~49%.
const SHALLOW_DENOM: u64 = 4;

/// The fork-depth gate: whether a prefix of `depth` retired instructions
/// is worth a snapshot, given the golden run's length when known.
///
/// Forking saves the prefix's instructions but pays a
/// [`swifi_vm::Machine::restore_fork`] (dirty-page copies) on every hit,
/// so a shallow trigger saves almost nothing and still pays full price.
/// A capture run applies the gate to its paused depth. Without a known
/// golden length the fraction is unknowable and only the absolute floor
/// applies.
pub fn worth_forking(depth: u64, golden_retired: Option<u64>) -> bool {
    depth >= MIN_FORK_DEPTH
        && golden_retired.is_none_or(|g| depth.saturating_mul(SHALLOW_DENOM) >= g)
}

/// The never-arrives verdict: a fault waiting for trigger occurrence
/// `occ` replays the golden run when the golden run reaches the trigger
/// only `total` times.
pub fn never_arrives(occ: u64, total: Option<u64>) -> Option<RunPlan> {
    (total? < occ).then_some(RunPlan::NeverArrives)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_occurrence_is_dormant_unfired() {
        // The golden run reached the trigger once: occurrence 5 never
        // arrives, occurrence 1 does, and unknown totals prove nothing.
        let replays = |occ, total| matches!(never_arrives(occ, total), Some(RunPlan::NeverArrives));
        assert!(replays(5, Some(1)));
        assert!(replays(2, Some(1)));
        assert!(!replays(1, Some(1)));
        assert!(replays(1, Some(0)));
        assert!(!replays(5, None));
    }

    #[test]
    fn depth_gate_uses_measured_occurrence_depth() {
        // Deep enough in both senses → fork.
        assert!(worth_forking(900, Some(1000)));
        assert!(worth_forking(250, Some(1000)));
        // Shallow (fails the quarter-depth fraction) → no snapshot.
        assert!(!worth_forking(100, Some(1000)));
        // Deep fraction but tiny absolute depth (MIN_FORK_DEPTH).
        assert!(!worth_forking(30, Some(40)));
        // A capture run without a known golden length keeps only the
        // absolute floor.
        assert!(worth_forking(900, None));
        assert!(!worth_forking(30, None));
    }
}
