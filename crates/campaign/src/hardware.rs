//! Hardware-fault injection baseline (paper §6.4).
//!
//! The paper observes that "the injected errors also emulate hardware
//! faults, which might explain the general small percentage of correct
//! results", and that its random fault triggers are "also typical from
//! hardware faults", citing earlier Xception and pin-level experiments
//! whose hardware faults produced large fractions of incorrect results
//! and crashes.
//!
//! This module injects *classic hardware faults* — single-bit flips at
//! uniformly random code locations, with the usual transient
//! (first-occurrence) and intermittent (every-occurrence) schedules — so
//! the software-error campaigns of §6 can be compared against the
//! hardware-fault profile the paper alludes to.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
use swifi_lang::compile;
use swifi_programs::TargetProgram;

use crate::engine::{CampaignEngine, CampaignOptions, CheckpointHeader};
use crate::matrix::Matrix;
use crate::runner::ModeCounts;
use crate::section6::CampaignScale;

/// Hardware-fault flavours injected by [`hardware_campaign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HwFaultKind {
    /// Transient bit flip on the instruction bus: one random bit of one
    /// random instruction's fetch, first execution only.
    TransientInstr,
    /// Intermittent (stuck-ish) bit flip: every fetch of that instruction.
    IntermittentInstr,
    /// Transient bit flip in a random GPR's write-back.
    TransientGpr,
}

impl HwFaultKind {
    /// All flavours.
    pub const ALL: [HwFaultKind; 3] = [
        HwFaultKind::TransientInstr,
        HwFaultKind::IntermittentInstr,
        HwFaultKind::TransientGpr,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            HwFaultKind::TransientInstr => "transient instr bit-flip",
            HwFaultKind::IntermittentInstr => "intermittent instr bit-flip",
            HwFaultKind::TransientGpr => "transient GPR bit-flip",
        }
    }
}

/// Results of one hardware-fault flavour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareRow {
    /// The fault flavour.
    pub kind: HwFaultKind,
    /// Failure modes over all runs.
    pub modes: ModeCounts,
    /// Runs where the fault never fired.
    pub dormant_runs: u64,
    /// Runs that panicked out of the harness (recorded, not fatal).
    pub abnormal: u64,
}

/// Generate `count` random hardware faults of the given kind over a
/// program's code range.
pub fn random_hw_faults(
    kind: HwFaultKind,
    code_words: usize,
    count: usize,
    seed: u64,
) -> Vec<FaultSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let addr = swifi_vm::CODE_BASE + rng.gen_range(0..code_words as u32) * 4;
            let bit: u32 = rng.gen_range(0..32);
            match kind {
                HwFaultKind::TransientInstr => FaultSpec {
                    what: ErrorOp::Xor(1 << bit),
                    target: Target::InstrBus,
                    trigger: Trigger::OpcodeFetch(addr),
                    when: Firing::First,
                },
                HwFaultKind::IntermittentInstr => FaultSpec {
                    what: ErrorOp::Xor(1 << bit),
                    target: Target::InstrBus,
                    trigger: Trigger::OpcodeFetch(addr),
                    when: Firing::EveryTime,
                },
                HwFaultKind::TransientGpr => FaultSpec {
                    what: ErrorOp::Xor(1 << bit),
                    target: Target::Gpr(rng.gen_range(0..32)),
                    trigger: Trigger::OpcodeFetch(addr),
                    when: Firing::First,
                },
            }
        })
        .collect()
}

/// Run the hardware-fault baseline: `faults_per_kind` random faults of
/// each flavour, each over the family's shared test case.
pub fn hardware_campaign(
    target: &TargetProgram,
    faults_per_kind: usize,
    scale: CampaignScale,
    seed: u64,
) -> Vec<HardwareRow> {
    hardware_campaign_with(
        target,
        faults_per_kind,
        scale,
        seed,
        &CampaignOptions::default(),
    )
    .expect("no checkpoint configured")
}

/// [`hardware_campaign`] under explicit robustness options; each fault
/// flavour is one checkpoint phase.
///
/// # Errors
///
/// Checkpoint I/O failures and header/record corruption.
pub fn hardware_campaign_with(
    target: &TargetProgram,
    faults_per_kind: usize,
    scale: CampaignScale,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<Vec<HardwareRow>, String> {
    let compiled = compile(target.source_correct).expect("vendored source compiles");
    let inputs = target
        .family
        .test_case(scale.inputs_per_fault, seed ^ 0x44D);
    let header = CheckpointHeader::new(
        format!("hardware:{}", target.name),
        seed,
        scale.inputs_per_fault as u64,
    );
    let mut engine = CampaignEngine::new(header, opts)?;
    HwFaultKind::ALL
        .iter()
        .map(|&kind| {
            let faults = random_hw_faults(kind, compiled.image.code.len(), faults_per_kind, seed);
            let runs = engine.run_matrix(
                kind.label(),
                &Matrix::new(&faults, &inputs),
                || opts.session(&compiled, target.family),
                |_, j| seed.wrapping_add(j as u64),
                |f| format!("{} fault #{f}: {:?}", kind.label(), faults[f].trigger),
            )?;
            let (modes, dormant_runs) = runs.totals();
            Ok(HardwareRow {
                kind,
                modes,
                dormant_runs,
                abnormal: runs.abnormal.len() as u64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::FailureMode;
    use swifi_programs::program;

    #[test]
    fn fault_generation_is_deterministic_and_in_range() {
        let a = random_hw_faults(HwFaultKind::TransientInstr, 100, 50, 7);
        let b = random_hw_faults(HwFaultKind::TransientInstr, 100, 50, 7);
        assert_eq!(a, b);
        for f in &a {
            match f.trigger {
                Trigger::OpcodeFetch(addr) => {
                    assert!(addr >= swifi_vm::CODE_BASE);
                    assert!(addr < swifi_vm::CODE_BASE + 400);
                }
                other => panic!("{other:?}"),
            }
            assert!(matches!(f.what, ErrorOp::Xor(m) if m.count_ones() == 1));
        }
    }

    #[test]
    fn hardware_profile_produces_crashes() {
        // Random instruction bit flips decode into wild instructions far
        // more often than semantics-preserving software errors do: the
        // crash share must be visible even in a small sample.
        let target = program("JB.team11").unwrap();
        let rows = hardware_campaign(
            &target,
            40,
            CampaignScale {
                inputs_per_fault: 3,
            },
            99,
        );
        assert_eq!(rows.len(), 3);
        let total_crashes: u64 = rows.iter().map(|r| r.modes.crash).sum();
        assert!(
            total_crashes > 0,
            "bit flips should crash sometimes: {rows:?}"
        );
        for r in &rows {
            assert!(r.modes.total() == 40 * 3);
            assert!(FailureMode::ALL.len() == 4);
        }
    }
}
