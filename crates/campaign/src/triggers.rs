//! Trigger-sparsity ablation — the paper's *future work*, implemented.
//!
//! The paper closes: "Further research is needed to understand the fault
//! triggers required for the emulation of subtle software faults", and
//! blames the *random fault triggers* (the Which/When attributes, fired on
//! every execution) for the unrealistically strong impact of injected
//! errors (§6.4).
//!
//! This experiment varies only the **When** attribute of the same §6.3
//! error set: firing on *every* trigger occurrence (the paper's setting),
//! only the *first* occurrence, or only the *k-th* occurrence. Sparser
//! firing should shift the failure-mode profile toward *correct* — i.e.
//! toward the dormancy profile of real software faults (Table 1).

use serde::{Deserialize, Serialize};
use swifi_core::fault::{FaultSpec, Firing};
use swifi_core::locations::generate_error_set;
use swifi_lang::compile;
use swifi_programs::TargetProgram;

use crate::engine::{CampaignEngine, CampaignOptions, CheckpointHeader};
use crate::matrix::Matrix;
use crate::runner::ModeCounts;
use crate::section6::CampaignScale;

/// Results for one firing policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerRow {
    /// Human-readable policy label.
    pub policy: String,
    /// Failure modes over all runs.
    pub modes: ModeCounts,
    /// Runs where the fault never fired.
    pub dormant_runs: u64,
}

/// Run the same error set under different firing schedules, one matrix
/// phase per schedule.
///
/// # Panics
///
/// Panics if the program fails to compile, or a run panics the harness.
pub fn trigger_ablation(
    target: &TargetProgram,
    scale: CampaignScale,
    seed: u64,
) -> Vec<TriggerRow> {
    let compiled = compile(target.source_correct).expect("vendored source compiles");
    let set = generate_error_set(&compiled.debug, 8, 8, seed);
    let faults: Vec<_> = set.assign_faults.iter().chain(&set.check_faults).collect();
    let inputs = target
        .family
        .test_case(scale.inputs_per_fault, seed ^ 0x7219);

    let opts = CampaignOptions::default();
    let header = CheckpointHeader::new(
        format!("triggers:{}", target.name),
        seed,
        scale.inputs_per_fault as u64,
    );
    let mut engine = CampaignEngine::new(header, &opts).expect("no checkpoint configured");
    let policies: Vec<(String, Firing)> = vec![
        ("every occurrence (paper)".to_string(), Firing::EveryTime),
        ("first occurrence only".to_string(), Firing::First),
        ("5th occurrence only".to_string(), Firing::Nth(5)),
        ("50th occurrence only".to_string(), Firing::Nth(50)),
    ];

    policies
        .into_iter()
        .map(|(label, when)| {
            let specs: Vec<_> = (faults.iter())
                .map(|f| FaultSpec { when, ..f.spec })
                .collect();
            let runs = engine
                .run_matrix(
                    &label,
                    &Matrix::new(&specs, &inputs),
                    || opts.session(&compiled, target.family),
                    |_, i| seed.wrapping_add(i as u64),
                    |f| format!("fault #{f} at {:#x}", faults[f].site_addr),
                )
                .expect("no checkpoint configured");
            if let Some(a) = runs.abnormal.first() {
                panic!("{} run panicked: {} ({})", a.phase, a.message, a.detail);
            }
            let (modes, dormant_runs) = runs.totals();
            TriggerRow {
                policy: label,
                modes,
                dormant_runs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::FailureMode;
    use swifi_programs::program;

    #[test]
    fn sparser_triggers_soften_impact() {
        let target = program("JB.team11").unwrap();
        let rows = trigger_ablation(
            &target,
            CampaignScale {
                inputs_per_fault: 6,
            },
            11,
        );
        assert_eq!(rows.len(), 4);
        let every = &rows[0];
        let nth50 = &rows[3];
        assert_eq!(every.modes.total(), nth50.modes.total());
        // Firing only on the 50th occurrence leaves many faults dormant →
        // strictly more correct outcomes than always-on injection.
        assert!(
            nth50.modes.pct(FailureMode::Correct) > every.modes.pct(FailureMode::Correct),
            "every: {every:?}\nnth50: {nth50:?}"
        );
        // And strictly more dormancy.
        assert!(nth50.dormant_runs > every.dormant_runs);
    }

    #[test]
    fn every_policy_matches_section6_setting() {
        // At the EveryTime end, the ablation is just the §6 campaign shape:
        // few dormant faults.
        let target = program("JB.team6").unwrap();
        let rows = trigger_ablation(
            &target,
            CampaignScale {
                inputs_per_fault: 4,
            },
            7,
        );
        let every = &rows[0];
        let dormancy = every.dormant_runs as f64 / every.modes.total() as f64;
        assert!(
            dormancy < 0.5,
            "always-on triggers should rarely stay dormant: {dormancy}"
        );
    }
}
