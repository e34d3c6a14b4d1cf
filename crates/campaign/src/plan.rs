//! The run planner: decide up front how the session executes each
//! injected run.
//!
//! Every strategy is an exact shortcut of the paper's cold run (reboot,
//! inject, run to the end), so a [`RunPlan`] only chooses *how* a run is
//! answered, never *what* it answers:
//!
//! - **[`RunPlan::GoldenPass`]** — this run is the first to need an input
//!   of a campaign with a watch list: make the input's golden pass first
//!   (one clean run pausing at the first arrival of every watched trigger
//!   PC, storing rungs), then plan again.
//! - **[`RunPlan::NeverArrives`]** — the golden (clean) run reaches the
//!   trigger fewer times than the fault's firing occurrence requires, so
//!   the fault never fires and the session reports the golden outcome
//!   without executing ([`never_arrives`]).
//! - **[`RunPlan::Fork`]** — a rung at the trigger occurrence exists:
//!   restore it and execute only the suffix.
//! - **[`RunPlan::Capture`]** — no rung yet: run the clean prefix to the
//!   trigger, store a rung if [`worth_forking`] says it pays, and
//!   continue as the injected run.
//! - **[`RunPlan::Full`]** — execute the whole run from the warm
//!   snapshot.
//!
//! The evidence comes from runs the campaign makes anyway, kept in the
//! [`crate::prefix::PrefixCache`]: golden passes record the golden
//! outcome, a zero trigger total for every watched PC they never reach
//! and the rungs; capture runs that finish without reaching their
//! trigger are golden runs too and record the same memos.

use std::sync::Arc;

use swifi_vm::ForkSnapshot;

/// How the session executes one injected run.
#[derive(Debug, Clone)]
pub enum RunPlan {
    /// Make the input's golden pass, then plan the run again.
    GoldenPass,
    /// Report the golden run's outcome and retired count without
    /// executing: the trigger occurrence the fault waits for never
    /// arrives, so the fault never fires.
    NeverArrives,
    /// Restore this rung, paused just before the trigger occurrence, and
    /// execute only the suffix.
    Fork(Arc<ForkSnapshot>),
    /// Run the clean prefix to the trigger occurrence, store a rung when
    /// [`worth_forking`] allows, and continue in place as the injected
    /// run.
    Capture,
    /// Execute the whole run from the warm snapshot.
    Full,
}

// What storing and restoring a rung costs, in guest instructions the
// block interpreter retires in the same time. Measured once on a 2-vCPU
// x86-64 host over the seed-7 first-arrival rungs of JB.team6, JB.team11,
// C.team10 and C.team1, where the block interpreter retires an
// instruction in 3.5–5.5 ns.

/// Capturing one page into a rung: 120–420 ns, or 20–50 instructions.
const CAPTURE_PAGE: u64 = 48;
/// Restoring one page of a rung: 100–200 ns per rung of 1–2 data pages,
/// or 20–45 instructions a page.
const RESTORE_PAGE: u64 = 32;
/// Restoring a page that overlaps the code costs 1.1–1.3 µs more (250–300
/// instructions): the restore compares it word by word to keep decoded
/// lines and blocks coherent.
const RESTORE_CODE_PAGE: u64 = 256;
/// A restore's fixed work (cores, input tape, output; an empty warm
/// restore takes 47–58 ns).
const RESTORE_FIXED: u64 = 16;

/// The cost rule: whether a rung `depth` retired instructions deep pays
/// for itself over `uses` forks. It holds `pages` memory pages, of which
/// `code_pages` overlap the code region.
///
/// Each fork saves the prefix's `depth` instructions. The rung costs one
/// capture of its pages, and every fork restores them again. The rule is
/// absolute: how long the rest of the run is plays no part. A rung no run
/// will use never pays.
pub fn worth_forking(depth: u64, pages: usize, code_pages: usize, uses: u32) -> bool {
    let (pages, code_pages, uses) = (pages as u64, code_pages as u64, u64::from(uses));
    let capture = CAPTURE_PAGE * pages;
    let restore = RESTORE_FIXED + RESTORE_PAGE * pages + RESTORE_CODE_PAGE * code_pages;
    depth.saturating_mul(uses) > capture + uses * restore
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
        // C.team10's deep rungs (8.6M instructions, 6 pages, one over the
        // code) pay at one use, and so does its 1,690-instruction prefix
        // over 3 pages.
        assert!(worth_forking(8_604_304, 6, 1, 1));
        assert!(worth_forking(1_690, 3, 1, 1));
        // Its 65-instruction prefix over 2 data pages never pays.
        assert!(!worth_forking(65, 2, 0, 4));
        assert!(!worth_forking(65, 2, 0, 1_000));
        // A JB.team11 prefix (259 instructions, 2 pages, one over the
        // code) does not pay even for its site's four error types; a
        // JB.team6 one (223 instructions, one data page) pays at one use.
        assert!(!worth_forking(259, 2, 1, 4));
        assert!(worth_forking(223, 1, 0, 1));
        // Uses decide between the two sides: the capture is paid once.
        assert!(!worth_forking(120, 2, 0, 1));
        assert!(worth_forking(120, 2, 0, 4));
        // No use never pays, however deep.
        assert!(!worth_forking(8_604_304, 6, 1, 0));
        assert!(!worth_forking(5, 0, 0, 0));
    }
}
