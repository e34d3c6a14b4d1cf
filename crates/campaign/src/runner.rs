//! Single-run execution and failure-mode classification.
//!
//! One *run* = one clean-booted machine ("the target system is rebooted
//! between injections to assure a clean state"), one input data set, and
//! at most one injected fault. The outcome is classified into the paper's
//! four failure modes (§6.2).
//!
//! [`execute`] is the cold-boot convenience entry point: it builds a
//! one-shot [`crate::session::RunSession`] per call. Campaign drivers
//! that execute thousands of runs hold a long-lived session per worker
//! instead (the warm-reboot engine) and get identical results faster.

use serde::{Deserialize, Serialize};
use swifi_core::fault::FaultSpec;
use swifi_lang::Program;
use swifi_programs::input::TestInput;
use swifi_vm::machine::{MachineConfig, RunOutcome};

use crate::session::RunSession;

/// The paper's failure modes (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureMode {
    /// Program terminated normally and the output is correct.
    Correct,
    /// Program terminated normally but the output is incorrect.
    Incorrect,
    /// Program hung (dead loop); killed on timeout.
    Hang,
    /// Program terminated abnormally with a system-detected error.
    Crash,
}

impl FailureMode {
    /// All four modes in the paper's presentation order.
    pub const ALL: [FailureMode; 4] = [
        FailureMode::Correct,
        FailureMode::Incorrect,
        FailureMode::Hang,
        FailureMode::Crash,
    ];

    /// Table/figure label.
    pub fn label(self) -> &'static str {
        match self {
            FailureMode::Correct => "Correct",
            FailureMode::Incorrect => "Incorrect",
            FailureMode::Hang => "Hang",
            FailureMode::Crash => "Crash",
        }
    }
}

/// Failure-mode counts with helpers for percentage reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeCounts {
    /// Runs with correct results.
    pub correct: u64,
    /// Runs with incorrect results.
    pub incorrect: u64,
    /// Hangs.
    pub hang: u64,
    /// Crashes.
    pub crash: u64,
}

impl ModeCounts {
    /// Record one outcome.
    pub fn add(&mut self, mode: FailureMode) {
        match mode {
            FailureMode::Correct => self.correct += 1,
            FailureMode::Incorrect => self.incorrect += 1,
            FailureMode::Hang => self.hang += 1,
            FailureMode::Crash => self.crash += 1,
        }
    }

    /// Total runs.
    pub fn total(&self) -> u64 {
        self.correct + self.incorrect + self.hang + self.crash
    }

    /// Percentage of a mode (0 when empty).
    pub fn pct(&self, mode: FailureMode) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        let n = match mode {
            FailureMode::Correct => self.correct,
            FailureMode::Incorrect => self.incorrect,
            FailureMode::Hang => self.hang,
            FailureMode::Crash => self.crash,
        };
        n as f64 * 100.0 / t as f64
    }

    /// Merge another count set in.
    pub fn merge(&mut self, other: &ModeCounts) {
        self.correct += other.correct;
        self.incorrect += other.incorrect;
        self.hang += other.hang;
        self.crash += other.crash;
    }
}

/// Machine sizing for campaign runs — smaller than the default so that
/// per-run zeroing cost stays low across tens of thousands of runs.
pub fn campaign_config(family: swifi_programs::Family) -> MachineConfig {
    MachineConfig {
        mem_size: 512 << 10,
        num_cores: family.cores(),
        stack_size: 48 << 10,
        budget: family.run_budget(),
        output_limit: 1 << 18,
        quantum: 64,
    }
}

/// Classify one raw [`RunOutcome`] against the oracle's expected output.
///
/// Abnormal exit codes count as crashes (system-detected error), matching
/// the paper's observables.
pub fn classify_outcome(outcome: &RunOutcome, expected: &[u8]) -> FailureMode {
    match outcome {
        RunOutcome::Completed {
            exit_code: 0,
            output,
        } => {
            if output.as_slice() == expected {
                FailureMode::Correct
            } else {
                FailureMode::Incorrect
            }
        }
        RunOutcome::Completed { .. } => FailureMode::Crash,
        RunOutcome::Trapped { .. } => FailureMode::Crash,
        RunOutcome::Hang { .. } => FailureMode::Hang,
    }
}

/// Execute one cold-boot run of a compiled program on `input`, optionally
/// with one injected fault, and classify the outcome.
///
/// Returns the failure mode and whether the fault actually fired
/// (injected runs only; fault-free runs report `false`).
///
/// This is a thin wrapper over a one-shot [`RunSession`]; the session's
/// warm-reboot path is observably identical (a tested invariant), so
/// campaign code uses long-lived sessions instead.
pub fn execute(
    program: &Program,
    family: swifi_programs::Family,
    input: &TestInput,
    fault: Option<&FaultSpec>,
    seed: u64,
) -> (FailureMode, bool) {
    RunSession::new(program, family).run(input, fault, seed)
}

/// The pre-session cold-boot lifecycle, kept as the reference semantics
/// every faster execution tier is checked against: a fresh machine
/// (zeroing all guest memory), a fresh image load, a freshly compiled
/// injector for every single run, the injector's exhaustive reference
/// dispatch (no hot-path filters), and the seed decode-every-fetch
/// reference interpreter (no translation cache).
///
/// Returns the same classification and fired flag as [`execute`], plus
/// the run's retired-instruction count (what
/// [`RunSession::last_retired`] reports for the same run on any tier).
pub fn execute_cold(
    program: &Program,
    family: swifi_programs::Family,
    input: &TestInput,
    fault: Option<&FaultSpec>,
    seed: u64,
) -> (FailureMode, bool, u64) {
    use swifi_core::injector::{Injector, TriggerMode};
    use swifi_vm::machine::Machine;
    use swifi_vm::Noop;

    let mut machine = Machine::new(campaign_config(family));
    machine.set_reference_interp(true);
    machine.load(&program.image);
    machine.set_input(input.to_tape());
    let expected = input.expected_output();
    let (outcome, fired) = match fault {
        None => (machine.run(&mut Noop), false),
        Some(spec) => {
            let mut injector = Injector::new(vec![*spec], TriggerMode::Hardware, seed)
                .expect("a single fault fits the hardware trigger budget");
            injector.set_reference_dispatch(true);
            injector
                .prepare(&mut machine)
                .expect("fault addresses lie in mapped memory");
            let outcome = machine.run(&mut injector);
            (outcome, injector.any_fired())
        }
    };
    (
        classify_outcome(&outcome, &expected),
        fired,
        machine.retired(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_lang::compile;
    use swifi_programs::Family;

    #[test]
    fn mode_counts_accumulate_and_percentage() {
        let mut c = ModeCounts::default();
        for m in [
            FailureMode::Correct,
            FailureMode::Correct,
            FailureMode::Crash,
        ] {
            c.add(m);
        }
        assert_eq!(c.total(), 3);
        assert!((c.pct(FailureMode::Correct) - 66.666).abs() < 0.01);
        assert_eq!(c.pct(FailureMode::Hang), 0.0);
        let mut d = ModeCounts::default();
        d.add(FailureMode::Hang);
        c.merge(&d);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn clean_run_classifies_correct() {
        let p = swifi_programs::program("JB.team11").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let input = TestInput::JamesB {
            seed: 5,
            line: b"hello".to_vec(),
        };
        let (mode, fired) = execute(&compiled, Family::JamesB, &input, None, 0);
        assert_eq!(mode, FailureMode::Correct);
        assert!(!fired);
    }

    #[test]
    fn injected_check_fault_flips_outcome() {
        use swifi_core::locations::generate_error_set;
        let p = swifi_programs::program("JB.team6").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let input = TestInput::JamesB {
            seed: 5,
            line: b"hello world".to_vec(),
        };
        let set = generate_error_set(&compiled.debug, 8, 8, 3);
        // At least one generated fault must change the outcome.
        let mut any_noncorrect = false;
        for f in set.assign_faults.iter().chain(&set.check_faults) {
            let (mode, _) = execute(&compiled, Family::JamesB, &input, Some(&f.spec), 1);
            if mode != FailureMode::Correct {
                any_noncorrect = true;
                break;
            }
        }
        assert!(any_noncorrect);
    }
}
