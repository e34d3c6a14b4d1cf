//! Emulation of the seven real software faults (paper §5).
//!
//! For each real fault: diff the corrected and faulty binaries, classify
//! emulability (classes A/B/C), and — where emulation is possible —
//! *verify* it by running the corrected program with the injected fault
//! against the actual faulty program on a batch of random inputs. The
//! paper's criterion: "If the results are the same in both runs it means
//! Xception do emulate the fault accurately."

use serde::{Deserialize, Serialize};
use swifi_core::emulate::{emulation_faults, plan_emulation, EmulationStrategy, EmulationVerdict};
use swifi_core::injector::TriggerMode;
use swifi_lang::compile;
use swifi_programs::all_programs;

use crate::engine::{split_records, CampaignEngine, CampaignOptions, CheckpointHeader};

/// One §5 result row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Section5Row {
    /// Program name.
    pub program: String,
    /// ODC type of the real fault.
    pub defect_type: String,
    /// Fault description.
    pub description: String,
    /// Paper class: `A` emulable, `B` breakpoint-budget exceeded,
    /// `C` not emulable.
    pub class: char,
    /// Number of differing instruction words (0 for class C).
    pub word_diffs: usize,
    /// Distinct trigger addresses the emulation needs.
    pub required_triggers: usize,
    /// Percentage of verification runs where the emulated behaviour
    /// matched the real faulty program exactly (`None` for class C, which
    /// cannot be attempted).
    pub emulation_accuracy: Option<f64>,
    /// Trigger mode the verification used.
    pub mode: Option<String>,
}

/// Run the §5 experiment: emulability analysis plus behavioural
/// verification over `inputs_per_fault` random inputs for each fault.
pub fn section5(inputs_per_fault: usize, seed: u64) -> Vec<Section5Row> {
    section5_with(inputs_per_fault, seed, &CampaignOptions::default())
        .expect("no checkpoint configured")
}

/// [`section5`] under explicit robustness options; each program's
/// verification batch is one checkpoint phase. Abnormal runs drop out of
/// the accuracy denominator.
///
/// # Errors
///
/// Checkpoint I/O failures and header/record corruption.
pub fn section5_with(
    inputs_per_fault: usize,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<Vec<Section5Row>, String> {
    let header = CheckpointHeader::new("section5", seed, inputs_per_fault as u64);
    let mut engine = CampaignEngine::new(header, opts)?;
    let mut rows = Vec::new();
    for p in all_programs() {
        let Some(faulty_src) = p.source_faulty else {
            continue;
        };
        let fault = p.real_fault.expect("faulty implies fault");
        let corrected = compile(p.source_correct).expect("corrected compiles");
        let faulty = compile(faulty_src).expect("faulty compiles");
        let verdict = plan_emulation(&corrected.image, &faulty.image);
        let (class, diffs, required, mode) = match &verdict {
            EmulationVerdict::Identical => ('-', vec![], 0, None),
            EmulationVerdict::Emulable { diffs } => {
                ('A', diffs.clone(), diffs.len(), Some(TriggerMode::Hardware))
            }
            EmulationVerdict::BreakpointBudgetExceeded {
                diffs,
                required_triggers,
            } => (
                'B',
                diffs.clone(),
                *required_triggers,
                Some(TriggerMode::IntrusiveTraps),
            ),
            EmulationVerdict::NotEmulable { .. } => ('C', vec![], 0, None),
        };
        let accuracy = match mode {
            None => None,
            Some(trigger_mode) => {
                let specs = emulation_faults(&diffs, EmulationStrategy::FetchCorruption);
                let inputs = p.family.test_case(inputs_per_fault, seed);
                // Each worker carries a warm session pair: the corrected
                // binary (for the emulated runs) and the real faulty binary
                // (the reference), both restored between inputs.
                let (records, _sessions) = engine.run_phase(
                    p.name,
                    &inputs,
                    || {
                        let emulated = opts.session(&corrected, p.family);
                        let real = opts.session(&faulty, p.family);
                        (emulated, real)
                    },
                    |(emulated_s, real_s), _, input| {
                        // Emulated run: corrected binary + injected faults.
                        let (emulated, _) =
                            emulated_s.run_injected(input, &specs, trigger_mode, seed);
                        // Reference run: the real faulty binary.
                        let real = real_s.run_clean(input);
                        emulated.output() == real.output()
                    },
                    |i, _| format!("{} verification input #{i}", p.name),
                )?;
                let (matches, _abnormal) = split_records(records);
                let ok = matches.iter().filter(|&&(_, b)| b).count();
                Some(ok as f64 * 100.0 / matches.len().max(1) as f64)
            }
        };
        rows.push(Section5Row {
            program: p.name.to_string(),
            defect_type: fault.defect_type.to_string(),
            description: fault.description.to_string(),
            class,
            word_diffs: diffs.len(),
            required_triggers: required,
            emulation_accuracy: accuracy,
            mode: mode.map(|m| format!("{m:?}")),
        });
    }
    Ok(rows)
}

/// The §5 headline: fraction of field faults beyond SWIFI emulation
/// (≈ 44 %), computed from the encoded field distribution.
pub fn not_emulable_field_fraction() -> f64 {
    swifi_odc::FieldDistribution::approx_field_data().not_emulable_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_classes_match_the_paper() {
        let rows = section5(4, 7);
        assert_eq!(rows.len(), 7);
        let class_of = |name: &str| rows.iter().find(|r| r.program == name).unwrap().class;
        // Assignment/checking faults with point corrections: class A.
        assert_eq!(class_of("C.team1"), 'A', "checking fault is emulable");
        assert_eq!(class_of("C.team4"), 'A', "assignment fault is emulable");
        // The stack-shift fault exceeds the two breakpoint registers.
        assert_eq!(class_of("JB.team6"), 'B');
        // Algorithm faults restructure code: class C.
        for name in ["C.team2", "C.team3", "C.team5", "JB.team7"] {
            assert_eq!(class_of(name), 'C', "{name} should be class C");
        }
    }

    #[test]
    fn emulable_faults_reproduce_behaviour_exactly() {
        let rows = section5(6, 3);
        for r in &rows {
            if let Some(acc) = r.emulation_accuracy {
                assert!(
                    (acc - 100.0).abs() < f64::EPSILON,
                    "{} emulation accuracy {acc}%, expected 100%",
                    r.program
                );
            }
        }
    }

    #[test]
    fn field_fraction_is_the_44_percent_headline() {
        let f = not_emulable_field_fraction();
        assert!((f - 0.44).abs() < 0.005);
    }
}
