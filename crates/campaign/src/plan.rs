//! The run planner: decide up front how the session executes each
//! injected run.
//!
//! Every strategy is an exact shortcut of the paper's cold run (reboot,
//! inject, run to the end), so a [`RunPlan`] only chooses *how* a run is
//! answered, never *what* it answers:
//!
//! - **[`RunPlan::Replay`]** — the run is provably the golden (clean)
//!   run, so the session reports the golden outcome without executing.
//!   Either the required trigger occurrence never arrives
//!   ([`never_arrives`], fed by the golden run's exact trigger-arrival
//!   count from whichever evidence exists: a def-use trace or a capture
//!   run that finished without reaching the trigger), or every
//!   corruption the fault would apply is proven to leave architectural
//!   state untouched ([`prove_dormant`]).
//! - **[`RunPlan::Fork`]** — a cached prefix snapshot at the trigger
//!   occurrence exists: restore it and execute only the suffix.
//! - **[`RunPlan::Capture`]** — no snapshot yet: run the clean prefix to
//!   the trigger, snapshot it if [`worth_forking`] says the prefix is
//!   deep enough, and continue as the injected run.
//! - **[`RunPlan::Full`]** — execute the whole run from the warm
//!   snapshot.
//!
//! With a [`DefUseTrace`] of the clean run on file, [`trace_plan`]
//! narrows the choice per (fault, input) from measured evidence: a
//! dormancy proof, or the exact retire depth of the trigger occurrence
//! judged by the same [`worth_forking`] gate the capture run applies to
//! its paused depth when no trace exists.
//!
//! Soundness notes. Every dormancy proof is an induction on the golden
//! instruction stream: if occurrence *k*'s corruption leaves
//! architectural state bit-identical to the golden run, the stream after
//! it — and therefore every later occurrence's pre-state — is the golden
//! one, so per-occurrence proofs compose. Proofs are only attempted on
//! untainted traces ([`DefUseTrace::usable`]), and every unprovable case
//! falls through to executing the run rather than guessing.

use std::sync::Arc;

use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
use swifi_vm::defuse::{DefUseTrace, OccEvent, OccRecord, SiteTrace};
use swifi_vm::isa::Instr;
use swifi_vm::ForkSnapshot;

/// How the session executes one injected run.
#[derive(Debug, Clone)]
pub enum RunPlan {
    /// Report the golden run's outcome and retired count without
    /// executing. `fired` is the proven activation status (corrupting a
    /// dead location still *fires*; an occurrence that never arrives
    /// does not).
    Replay {
        /// Whether the fault would have fired in the skipped run.
        fired: bool,
        /// Which evidence proved the run golden.
        why: Replay,
    },
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

/// Why a [`RunPlan::Replay`] run needs no execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// The golden run reaches the trigger fewer times than the fault's
    /// firing occurrence requires: the fault never fires.
    NeverArrives,
    /// The def-use trace proves every corruption dead or value-identical.
    ProvenDormant,
}

impl PartialEq for RunPlan {
    fn eq(&self, other: &RunPlan) -> bool {
        match (self, other) {
            (RunPlan::Replay { fired: a, why: x }, RunPlan::Replay { fired: b, why: y }) => {
                a == b && x == y
            }
            (RunPlan::Fork(a), RunPlan::Fork(b)) => Arc::ptr_eq(a, b),
            (RunPlan::Capture, RunPlan::Capture) | (RunPlan::Full, RunPlan::Full) => true,
            _ => false,
        }
    }
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
/// The planner applies the gate to the trace's measured depth; a capture
/// run applies it to its paused depth. Without a known golden length the
/// fraction is unknowable and only the absolute floor applies.
pub fn worth_forking(depth: u64, golden_retired: Option<u64>) -> bool {
    depth >= MIN_FORK_DEPTH
        && golden_retired.is_none_or(|g| depth.saturating_mul(SHALLOW_DENOM) >= g)
}

/// The never-arrives verdict: a fault waiting for trigger occurrence
/// `occ` replays the golden run when the golden run reaches the trigger
/// only `total` times.
pub fn never_arrives(occ: u64, total: Option<u64>) -> Option<RunPlan> {
    (total? < occ).then_some(RunPlan::Replay {
        fired: false,
        why: Replay::NeverArrives,
    })
}

/// `op.apply` when it is input-deterministic; `None` for
/// [`ErrorOp::ReplaceRandom`].
fn deterministic_apply(op: ErrorOp, value: u32) -> Option<u32> {
    match op {
        ErrorOp::ReplaceRandom => None,
        _ => Some(op.apply(value, 0)),
    }
}

fn is_nop(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Ori {
            rd: 0,
            ra: 0,
            imm: 0
        }
    )
}

/// What `input`'s clean-run def-use trace says about `spec`: a
/// [`RunPlan::Replay`] dormancy proof, [`RunPlan::Capture`] when the
/// trigger occurrence is deep enough to fork, or [`RunPlan::Full`]. It
/// never returns [`RunPlan::Fork`] (the session looks the snapshot up) or
/// a never-arrives verdict (the session reads the trigger totals the
/// traced run recorded, like those of any other golden run).
pub fn trace_plan(spec: &FaultSpec, trace: &DefUseTrace) -> RunPlan {
    let Trigger::OpcodeFetch(pc) = spec.trigger else {
        return RunPlan::Full;
    };
    if matches!(spec.target, Target::Memory(_)) {
        // Applied at prepare() time, before any trigger counting.
        return RunPlan::Full;
    }
    let Some(site) = trace.site(pc) else {
        return RunPlan::Full;
    };

    // A tainted stream may diverge from the static image, so only an
    // untainted trace proves anything.
    if trace.usable() {
        if let Some(fired) = prove_dormant(spec, pc, site) {
            return RunPlan::Replay {
                fired,
                why: Replay::ProvenDormant,
            };
        }
    }

    let Some((_, fork_occ)) = spec.fork_point() else {
        return RunPlan::Full;
    };
    let depth = match site.occ(fork_occ) {
        Some(rec) => rec.retired_before,
        // Occurrence beyond the recorded window: at least as deep as
        // the last recorded arrival.
        None => match site.occs.last() {
            Some(rec) => rec.retired_before,
            None => return RunPlan::Full,
        },
    };
    if worth_forking(depth, Some(trace.retired)) {
        RunPlan::Capture
    } else {
        RunPlan::Full
    }
}

/// Try to prove every required firing occurrence of `spec` leaves
/// architectural state bit-identical to the golden run. Returns the
/// proven activation status, or `None` when any occurrence resists
/// proof.
///
/// Per-target obligations:
///
/// - `DataBusStore` — the corrupted store value must be *dead*
///   (overwritten before any use; the trace's byte-granular liveness)
///   or the store must be the run-ending trap (the trap is decided by
///   the untouched address, the value never reaches memory). A
///   trigger instruction that performs no store never fires the value
///   hook at all.
/// - `Gpr(r)` — the trigger instruction's register write must define
///   `r` dead, with `r ≠ 1` (corrupting a stack-pointer write can
///   flip the stack-floor trap). Instructions not writing `r`
///   through the write-back hook never fire.
/// - `InstrBus` — the (deterministic) corrupted word must reproduce
///   the golden control flow exactly: the identical word, a dead
///   completed store replaced by NOP, or a branch whose successor
///   provably equals the recorded golden successor.
///
/// All other targets (address-bus, load-value, latched
/// `InstrMemory`) are never proven dormant here.
pub fn prove_dormant(spec: &FaultSpec, pc: u32, site: &SiteTrace) -> Option<bool> {
    let (lo, hi) = match spec.when {
        Firing::First => (1, 1),
        Firing::Nth(k) => (k, k),
        Firing::EveryTime => {
            if !site.complete() {
                return None;
            }
            (1, site.total)
        }
    };
    let mut fired = false;
    for occ in lo..=hi {
        let rec = site.occ(occ)?;
        fired |= occ_preserves(spec, pc, site, rec)?;
    }
    Some(fired)
}

/// Whether one firing occurrence provably preserves golden state;
/// the bool is whether the fault fires at it.
fn occ_preserves(spec: &FaultSpec, pc: u32, site: &SiteTrace, rec: &OccRecord) -> Option<bool> {
    match spec.target {
        Target::DataBusStore => match rec.event {
            OccEvent::Store {
                completed: true,
                dead: true,
                ..
            } => Some(true),
            // Run-ending trapped store: the value hook fired, but the
            // trap is decided by the (untouched) address and the value
            // never landed.
            OccEvent::Store {
                completed: false, ..
            } => Some(true),
            // Live store: corruption propagates.
            OccEvent::Store { .. } => None,
            // The trigger instruction performs no store, so the
            // store-value hook never fires for this spec.
            OccEvent::Branch { .. } | OccEvent::RegDef { .. } | OccEvent::Other => Some(false),
        },
        Target::Gpr(r) => match rec.event {
            OccEvent::RegDef { rd, dead } if rd == r => {
                // r1 writes interact with the stack-floor trap check,
                // which sees the corrupted value.
                if dead && r != 1 {
                    Some(true)
                } else {
                    None
                }
            }
            // Write-back of a different register, or no hooked
            // register write at all (stores, branches, compares,
            // syscalls): the fault cannot fire here.
            OccEvent::RegDef { .. }
            | OccEvent::Store { .. }
            | OccEvent::Branch { .. }
            | OccEvent::Other => Some(false),
        },
        Target::InstrBus => {
            let corrupted = deterministic_apply(spec.what, site.word)?;
            if corrupted == site.word {
                // The corruption reproduces the golden word bit-exactly.
                return Some(true);
            }
            let golden = site.instr?;
            let m = swifi_vm::isa::decode(corrupted).ok()?;
            match golden {
                // A dead, completed store elided by NOP: no
                // architectural effect either way. (A *trapping*
                // store must not be elided — the NOP would suppress
                // the crash.)
                Instr::Stw { .. } | Instr::Stb { .. }
                    if is_nop(m)
                        && matches!(
                            rec.event,
                            OccEvent::Store {
                                completed: true,
                                dead: true,
                                ..
                            }
                        ) =>
                {
                    Some(true)
                }
                // Unconditional branch: the golden successor is
                // static, so agreement is decidable without a
                // recorded event.
                Instr::B { off } => {
                    let golden_next = pc.wrapping_add((off as u32).wrapping_mul(4));
                    let predicted = match m {
                        m if is_nop(m) => pc.wrapping_add(4),
                        Instr::B { off: off2 } => pc.wrapping_add((off2 as u32).wrapping_mul(4)),
                        _ => return None,
                    };
                    (predicted == golden_next).then_some(true)
                }
                // Conditional branch: the recorded successor and
                // shadow CR decide whether the mutated word takes the
                // same edge.
                Instr::Bc { .. } => {
                    let OccEvent::Branch {
                        next_pc: Some(next),
                        cr,
                        cr_valid,
                    } = rec.event
                    else {
                        return None;
                    };
                    let predicted = match m {
                        m if is_nop(m) => pc.wrapping_add(4),
                        Instr::B { off } => pc.wrapping_add((off as u32).wrapping_mul(4)),
                        Instr::Bc {
                            crf,
                            bit,
                            expect,
                            off,
                        } => {
                            let crf = crf & 7;
                            if (cr_valid >> crf) & 1 == 0 {
                                return None;
                            }
                            let taken =
                                ((cr >> (u32::from(crf) * 4 + bit.index())) & 1 == 1) == expect;
                            if taken {
                                pc.wrapping_add((off as i32 as u32).wrapping_mul(4))
                            } else {
                                pc.wrapping_add(4)
                            }
                        }
                        _ => return None,
                    };
                    (predicted == next).then_some(true)
                }
                _ => None,
            }
        }
        // Latched (InstrMemory), address-bus, and load-value
        // corruptions propagate in ways the trace does not bound.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_vm::isa::{encode, CrBit};

    const PC: u32 = 0x10C;

    fn proven(fired: bool) -> RunPlan {
        RunPlan::Replay {
            fired,
            why: Replay::ProvenDormant,
        }
    }

    fn spec(target: Target, what: ErrorOp, when: Firing) -> FaultSpec {
        FaultSpec {
            what,
            target,
            trigger: Trigger::OpcodeFetch(PC),
            when,
        }
    }

    fn store_site(occ_flags: &[(bool, bool)], word: u32) -> SiteTrace {
        SiteTrace {
            word,
            instr: swifi_vm::isa::decode(word).ok(),
            total: occ_flags.len() as u64,
            truncated: false,
            occs: occ_flags
                .iter()
                .enumerate()
                .map(|(i, &(completed, dead))| OccRecord {
                    retired_before: 100 * (i as u64 + 1),
                    event: OccEvent::Store {
                        addr: 0x200,
                        size: 4,
                        completed,
                        dead,
                    },
                })
                .collect(),
        }
    }

    fn trace_with(pc: u32, site: SiteTrace, retired: u64) -> DefUseTrace {
        DefUseTrace::from_sites(false, retired, [(pc, site)])
    }

    fn stw_word() -> u32 {
        encode(Instr::Stw { rs: 5, ra: 9, d: 0 })
    }

    #[test]
    fn missing_occurrence_is_dormant_unfired() {
        let trace = trace_with(PC, store_site(&[(true, false)], stw_word()), 1000);
        let total = trace.site(PC).map(|s| s.total);
        assert_eq!(
            never_arrives(5, total),
            Some(RunPlan::Replay {
                fired: false,
                why: Replay::NeverArrives
            })
        );
        // The one recorded occurrence arrives; unknown totals prove
        // nothing.
        assert_eq!(never_arrives(1, total), None);
        assert_eq!(never_arrives(5, None), None);
    }

    #[test]
    fn dead_store_corruption_is_dormant_but_fired() {
        let trace = trace_with(
            PC,
            store_site(&[(true, true), (true, true)], stw_word()),
            1000,
        );
        for when in [Firing::First, Firing::EveryTime, Firing::Nth(2)] {
            let s = spec(Target::DataBusStore, ErrorOp::ReplaceRandom, when);
            assert_eq!(trace_plan(&s, &trace), proven(true), "{when:?}");
        }
    }

    #[test]
    fn live_store_is_not_pruned() {
        // Deep trigger (800 of 1000 retires) → fork; live value blocks
        // the dormancy proof.
        let mut site = store_site(&[(true, false)], stw_word());
        site.occs[0].retired_before = 800;
        let trace = trace_with(PC, site, 1000);
        let s = spec(Target::DataBusStore, ErrorOp::Add(1), Firing::First);
        assert_eq!(trace_plan(&s, &trace), RunPlan::Capture);
    }

    #[test]
    fn everytime_with_mixed_liveness_is_not_pruned() {
        let trace = trace_with(
            PC,
            store_site(&[(true, true), (true, false)], stw_word()),
            1000,
        );
        let s = spec(Target::DataBusStore, ErrorOp::Add(1), Firing::EveryTime);
        assert_ne!(
            trace_plan(&s, &trace),
            proven(true),
            "one live occurrence spoils the EveryTime proof"
        );
        // But Nth(1), targeting only the dead occurrence, prunes.
        let s1 = spec(Target::DataBusStore, ErrorOp::Add(1), Firing::Nth(1));
        assert_eq!(trace_plan(&s1, &trace), proven(true));
    }

    #[test]
    fn trapping_final_store_still_prunes_value_corruption() {
        let trace = trace_with(
            PC,
            store_site(&[(true, true), (false, false)], stw_word()),
            1000,
        );
        let s = spec(Target::DataBusStore, ErrorOp::Add(1), Firing::EveryTime);
        assert_eq!(trace_plan(&s, &trace), proven(true));
    }

    #[test]
    fn gpr_liveness_rules() {
        let mk = |rd, dead| {
            let site = SiteTrace {
                word: encode(Instr::Addi { rd, ra: 0, imm: 3 }),
                instr: None,
                total: 1,
                truncated: false,
                occs: vec![OccRecord {
                    retired_before: 10,
                    event: OccEvent::RegDef { rd, dead },
                }],
            };
            trace_with(PC, site, 1000)
        };
        // Dead def of the targeted register: dormant, fired.
        let s5 = spec(Target::Gpr(5), ErrorOp::Xor(0xFF), Firing::First);
        assert_eq!(trace_plan(&s5, &mk(5, true)), proven(true));
        // Live def: no proof (shallow depth 10 → Full).
        assert_eq!(trace_plan(&s5, &mk(5, false)), RunPlan::Full);
        // Different register written: the fault never fires.
        assert_eq!(trace_plan(&s5, &mk(7, true)), proven(false));
        // r1 writes interact with the stack-floor trap: never proven.
        let s1 = spec(Target::Gpr(1), ErrorOp::Xor(0xFF), Firing::First);
        assert_eq!(trace_plan(&s1, &mk(1, true)), RunPlan::Full);
    }

    #[test]
    fn instr_bus_branch_equivalence() {
        let golden = Instr::Bc {
            crf: 0,
            bit: CrBit::Gt,
            expect: true,
            off: -3,
        };
        // Golden run: branch not taken (falls through), cr0.gt clear.
        let site = SiteTrace {
            word: encode(golden),
            instr: Some(golden),
            total: 1,
            truncated: false,
            occs: vec![OccRecord {
                retired_before: 10,
                event: OccEvent::Branch {
                    next_pc: Some(PC + 4),
                    cr: 0,
                    cr_valid: 0xFF,
                },
            }],
        };
        let trace = trace_with(PC, site, 1000);
        let nop = encode(Instr::Ori {
            rd: 0,
            ra: 0,
            imm: 0,
        });
        // NOP agrees with a fall-through.
        let s = spec(Target::InstrBus, ErrorOp::Replace(nop), Firing::First);
        assert_eq!(trace_plan(&s, &trace), proven(true));
        // A Bc testing the same (clear) bit with expect=false takes the
        // branch — disagrees.
        let taken = encode(Instr::Bc {
            crf: 0,
            bit: CrBit::Gt,
            expect: false,
            off: -3,
        });
        let s2 = spec(Target::InstrBus, ErrorOp::Replace(taken), Firing::First);
        assert_eq!(trace_plan(&s2, &trace), RunPlan::Full);
        // Identical-word corruption is trivially equivalent (and fires).
        let s3 = spec(
            Target::InstrBus,
            ErrorOp::Replace(encode(golden)),
            Firing::First,
        );
        assert_eq!(trace_plan(&s3, &trace), proven(true));
        // ReplaceRandom can never be proven.
        let s4 = spec(Target::InstrBus, ErrorOp::ReplaceRandom, Firing::First);
        assert_eq!(trace_plan(&s4, &trace), RunPlan::Full);
    }

    #[test]
    fn depth_gate_uses_measured_occurrence_depth() {
        let mut deep = store_site(&[(true, false)], stw_word());
        deep.occs[0].retired_before = 900;
        let trace = trace_with(PC, deep, 1000);
        let s = spec(Target::DataBusStore, ErrorOp::Add(1), Firing::First);
        assert_eq!(trace_plan(&s, &trace), RunPlan::Capture);

        // Shallow (fails the fraction gate) → Full.
        let mut shallow = store_site(&[(true, false)], stw_word());
        shallow.occs[0].retired_before = 100;
        let trace = trace_with(PC, shallow, 1000);
        assert_eq!(trace_plan(&s, &trace), RunPlan::Full);

        // Deep fraction but tiny absolute depth (MIN_FORK_DEPTH) → Full.
        let mut tiny = store_site(&[(true, false)], stw_word());
        tiny.occs[0].retired_before = 30;
        let trace = trace_with(PC, tiny, 40);
        assert_eq!(trace_plan(&s, &trace), RunPlan::Full);

        // A capture run without a known golden length keeps only the
        // absolute floor.
        assert!(worth_forking(900, None));
        assert!(!worth_forking(30, None));
    }

    #[test]
    fn tainted_traces_only_gate_depth() {
        let mut site = store_site(&[(true, true)], stw_word());
        site.occs[0].retired_before = 900;
        let trace = DefUseTrace::from_sites(true, 1000, [(PC, site)]);
        let s = spec(Target::DataBusStore, ErrorOp::Add(1), Firing::First);
        // Dead-store proof is off the table, but the measured depth may
        // still elect forking.
        assert_eq!(trace_plan(&s, &trace), RunPlan::Capture);
        // And an unwatched pc plans Full.
        let other = spec(Target::DataBusStore, ErrorOp::Add(1), Firing::First);
        let empty = DefUseTrace::from_sites(false, 1000, []);
        assert_eq!(trace_plan(&other, &empty), RunPlan::Full);
    }
}
