//! Empirical estimation of the fault-exposure chain (paper Figure 2).
//!
//! The paper models a software fault's path to failure as
//! `p1 · p2 · p3` — the probabilities that the faulty code is executed,
//! that its execution generates errors, and that the errors become a
//! failure. Error injection forces `p1 = p2 = 1`, which is precisely why
//! injected faults hit so much harder than real ones (§6.4).
//!
//! This module measures the chain for the *real* faults whose machine
//! footprint is addressable (emulability classes A and B): `p1` is
//! observed by profiling whether any faulty instruction executed, and the
//! combined `p2·p3` as the failure rate conditioned on execution.

use serde::{Deserialize, Serialize};
use swifi_core::emulate::{plan_emulation, EmulationVerdict};
use swifi_lang::compile;
use swifi_programs::all_programs;
use swifi_vm::inspect::Profiler;
use swifi_vm::machine::RunOutcome;

use crate::engine::{split_records, CampaignEngine, CampaignOptions, CheckpointHeader};

/// Measured exposure chain for one real fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExposureEstimate {
    /// Program name.
    pub program: String,
    /// Runs measured.
    pub runs: usize,
    /// P(faulty code executed) — the measured `p1`.
    pub p1: f64,
    /// P(failure | faulty code executed) — the combined `p2·p3`.
    pub p23: f64,
    /// Overall failure probability (should equal `p1 · p23` up to
    /// sampling noise; kept separately as a consistency check).
    pub failure_rate: f64,
}

impl ExposureEstimate {
    /// The acceleration factor error injection buys on this fault:
    /// forcing `p1 = p2 = 1` leaves `p3 ≤ p23`, so the factor is at least
    /// `1 / p1` (infinite when the fault never fails in the sample).
    pub fn min_acceleration(&self) -> Option<f64> {
        if self.failure_rate == 0.0 || self.p1 == 0.0 {
            None
        } else {
            Some(1.0 / self.p1)
        }
    }
}

/// Measure the exposure chain for every class A/B real fault over `runs`
/// random inputs per program.
pub fn estimate_exposure(runs: usize, seed: u64) -> Vec<ExposureEstimate> {
    estimate_exposure_with(runs, seed, &CampaignOptions::default())
        .expect("no checkpoint configured")
}

/// [`estimate_exposure`] under explicit robustness options; each program
/// is one checkpoint phase and each profiled run one work item. Abnormal
/// runs drop out of both numerator and denominator, keeping the measured
/// probabilities consistent.
///
/// # Errors
///
/// Checkpoint I/O failures and header/record corruption.
pub fn estimate_exposure_with(
    runs: usize,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<Vec<ExposureEstimate>, String> {
    let header = CheckpointHeader::new("exposure", seed, runs as u64);
    let mut engine = CampaignEngine::new(header, opts)?;
    let mut out = Vec::new();
    for p in all_programs() {
        let Some(faulty_src) = p.source_faulty else {
            continue;
        };
        let corrected = compile(p.source_correct).expect("compiles");
        let faulty = compile(faulty_src).expect("compiles");
        let diffs = match plan_emulation(&corrected.image, &faulty.image) {
            EmulationVerdict::Emulable { diffs } => diffs,
            EmulationVerdict::BreakpointBudgetExceeded { diffs, .. } => diffs,
            // Class C faults have no addressable footprint to profile.
            _ => continue,
        };
        let addrs: Vec<u32> = diffs.iter().map(|d| d.addr).collect();
        let inputs = p.family.test_case(runs, seed);
        let (records, _sessions) = engine.run_phase(
            p.name,
            &inputs,
            || opts.session(&faulty, p.family),
            |session, _, input| {
                let mut prof = Profiler::new();
                let outcome = session.run_with(input, &mut prof);
                let executed = addrs.iter().any(|&a| prof.executed(a));
                let failed = match outcome {
                    RunOutcome::Completed {
                        exit_code: 0,
                        output,
                    } => output != input.expected_output(),
                    _ => true,
                };
                (executed, failed)
            },
            |i, _| format!("{} profiled input #{i}", p.name),
        )?;
        let (per_run, _abnormal) = split_records(records);
        // Denominator = runs that actually completed; an abnormal run
        // contributes to neither side of a probability.
        let measured = per_run.len();
        let executed = per_run.iter().filter(|&&(_, (e, _))| e).count();
        let failed = per_run.iter().filter(|&&(_, (_, f))| f).count();
        let failed_and_executed = per_run.iter().filter(|&&(_, (e, f))| e && f).count();
        out.push(ExposureEstimate {
            program: p.name.to_string(),
            runs: measured,
            p1: executed as f64 / measured.max(1) as f64,
            p23: if executed == 0 {
                0.0
            } else {
                failed_and_executed as f64 / executed as f64
            },
            failure_rate: failed as f64 / measured.max(1) as f64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_addressable_faults() {
        let est = estimate_exposure(60, 3);
        let names: Vec<&str> = est.iter().map(|e| e.program.as_str()).collect();
        // Classes A and B: the two assignment faults and the checking one.
        assert!(names.contains(&"C.team1"));
        assert!(names.contains(&"C.team4"));
        assert!(names.contains(&"JB.team6"));
        // Class C faults are excluded.
        assert!(!names.contains(&"C.team5"));
    }

    #[test]
    fn chain_is_consistent() {
        for e in estimate_exposure(80, 9) {
            assert!((0.0..=1.0).contains(&e.p1), "{e:?}");
            assert!((0.0..=1.0).contains(&e.p23), "{e:?}");
            // failure ⊆ executed for these faults: a fault that never ran
            // cannot fail, so rate ≈ p1·p23 exactly in-sample.
            assert!(
                (e.failure_rate - e.p1 * e.p23).abs() < 1e-9,
                "inconsistent chain: {e:?}"
            );
        }
    }

    #[test]
    fn loop_faults_have_high_p1_low_p23() {
        // C.team1/C.team4's faulty instructions sit in always-executed
        // loops: p1 ≈ 1 while p2·p3 stays small — the paper's argument for
        // why trigger representativeness (not type) is the hard part.
        let est = estimate_exposure(100, 5);
        let team1 = est.iter().find(|e| e.program == "C.team1").unwrap();
        assert!(team1.p1 > 0.95, "{team1:?}");
        assert!(team1.p23 < 0.5, "{team1:?}");
    }
}
