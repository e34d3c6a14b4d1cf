//! Intensive random testing of the faulty programs — the paper's Table 1.
//!
//! "Selected programs were intensively tested … by running the programs a
//! huge number of times with random input data sets." The observed failure
//! symptoms (Table 1) are percentages of wrong results; the paper saw no
//! hangs or crashes from real faults.

use serde::{Deserialize, Serialize};
use swifi_lang::compile;
use swifi_programs::all_programs;

use crate::engine::{split_records, CampaignEngine, CampaignOptions, CheckpointHeader};
use crate::runner::{FailureMode, ModeCounts};

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Program name (paper style).
    pub program: String,
    /// ODC type of the planted fault.
    pub defect_type: String,
    /// Outcome counts over the intensive test.
    pub counts: ModeCounts,
    /// Runs that panicked out of the harness (recorded, not fatal).
    pub abnormal: u64,
}

impl Table1Row {
    /// "% Wrong results" column.
    pub fn wrong_pct(&self) -> f64 {
        self.counts.pct(FailureMode::Incorrect)
    }

    /// "% Correct results" column.
    pub fn correct_pct(&self) -> f64 {
        self.counts.pct(FailureMode::Correct)
    }
}

/// Run the intensive test: `runs` random inputs per faulty program.
///
/// The paper used more than 10 000 runs per program; the reproduction
/// scales with `runs` (see EXPERIMENTS.md for the scale used on record).
pub fn table1(runs: usize, seed: u64) -> Vec<Table1Row> {
    table1_with(runs, seed, &CampaignOptions::default()).expect("no checkpoint configured")
}

/// [`table1`] under explicit robustness options; each faulty program is
/// one checkpoint phase and each run is one work item.
///
/// # Errors
///
/// Checkpoint I/O failures and header/record corruption.
pub fn table1_with(
    runs: usize,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<Vec<Table1Row>, String> {
    let header = CheckpointHeader::new("intensive", seed, runs as u64);
    let mut engine = CampaignEngine::new(header, opts)?;
    let mut rows = Vec::new();
    for p in all_programs() {
        let Some(faulty_src) = p.source_faulty else {
            continue;
        };
        let compiled = compile(faulty_src).expect("faulty source compiles");
        let inputs = p.family.test_case(runs, seed);
        let (records, _sessions) = engine.run_phase(
            p.name,
            &inputs,
            || opts.session(&compiled, p.family),
            |session, _, input| session.run(input, None, 0).0,
            |i, _| format!("{} input #{i}", p.name),
        )?;
        let (modes, abnormal) = split_records(records);
        let mut counts = ModeCounts::default();
        for (_, m) in modes {
            counts.add(m);
        }
        rows.push(Table1Row {
            program: p.name.to_string(),
            defect_type: p
                .real_fault
                .expect("faulty implies fault")
                .defect_type
                .to_string(),
            counts,
            abnormal: abnormal.len() as u64,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_seven_faulty_programs() {
        let rows = table1(3, 1);
        assert_eq!(rows.len(), 7);
        let names: Vec<&str> = rows.iter().map(|r| r.program.as_str()).collect();
        for expect in [
            "C.team1", "C.team2", "C.team3", "C.team4", "C.team5", "JB.team6", "JB.team7",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
        for r in &rows {
            assert_eq!(r.counts.total(), 3);
            // Real faults never hang or crash (paper observation).
            assert_eq!(r.counts.hang + r.counts.crash, 0, "{}", r.program);
        }
    }
}
