//! §6.1 ablation: steering injection without field data.
//!
//! The paper argues that when field data is unavailable, software metrics
//! can substitute for its two uses — choosing *where* to inject and *how
//! many* faults per module. This experiment compares three allocation
//! strategies on the same program and fault budget:
//!
//! - **uniform** — every function weighted equally;
//! - **metrics-guided** — weights from the complexity-based proneness
//!   score;
//! - **field-data** — externally supplied per-function weights (here a
//!   synthetic "defect history" concentrated in the most complex
//!   function, standing in for real field data).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use swifi_core::locations::{
    assign_faults_for, check_faults_for, choose_locations, restrict_to_functions, GeneratedFault,
};
use swifi_lang::compile;
use swifi_metrics::{allocate, measure, AllocationStrategy};
use swifi_programs::TargetProgram;

use crate::engine::{CampaignEngine, CampaignOptions, CheckpointHeader};
use crate::matrix::Matrix;
use crate::runner::ModeCounts;
use crate::section6::CampaignScale;

/// Results for one allocation strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Strategy label.
    pub strategy: String,
    /// Function → allocated fault-location count.
    pub allocation: Vec<(String, usize)>,
    /// Failure modes over all runs.
    pub modes: ModeCounts,
    /// Dormant (never-fired) runs — the interesting signal: locations in
    /// rarely executed functions stay dormant.
    pub dormant_runs: u64,
    /// Runs that panicked out of the harness and were recorded as
    /// abnormal instead of aborting the experiment.
    pub abnormal: u64,
}

/// Run the ablation on one program with a total budget of `budget`
/// locations per strategy.
pub fn ablation(
    target: &TargetProgram,
    budget: usize,
    scale: CampaignScale,
    seed: u64,
) -> Vec<AblationRow> {
    ablation_with(target, budget, scale, seed, &CampaignOptions::default())
        .expect("no checkpoint configured")
}

/// [`ablation`] under explicit robustness options (checkpoint/resume,
/// watchdog, chaos injection); each strategy is one checkpoint phase.
///
/// # Errors
///
/// Checkpoint I/O failures and header/record corruption.
pub fn ablation_with(
    target: &TargetProgram,
    budget: usize,
    scale: CampaignScale,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<Vec<AblationRow>, String> {
    let compiled = compile(target.source_correct).expect("vendored source compiles");
    let ast = swifi_lang::parser::parse(target.source_correct).expect("parses");
    let metrics = measure(target.source_correct, &ast);

    // Synthetic field data: defects concentrated in the highest-proneness
    // function (a stand-in with the same *shape* as real defect history).
    let field: HashMap<String, f64> = {
        let mut m = HashMap::new();
        if let Some(worst) = metrics
            .functions
            .iter()
            .max_by(|a, b| a.proneness().partial_cmp(&b.proneness()).unwrap())
        {
            m.insert(worst.name.clone(), 3.0);
        }
        for f in &metrics.functions {
            m.entry(f.name.clone()).or_insert(1.0);
        }
        m
    };

    let strategies: Vec<(String, AllocationStrategy)> = vec![
        ("uniform".to_string(), AllocationStrategy::Uniform),
        (
            "metrics-guided".to_string(),
            AllocationStrategy::MetricsGuided,
        ),
        (
            "field-data".to_string(),
            AllocationStrategy::FieldData(field),
        ),
    ];

    let inputs = target
        .family
        .test_case(scale.inputs_per_fault, seed ^ 0xAB1A);
    let header = CheckpointHeader::new(
        format!("ablation:{}", target.name),
        seed,
        scale.inputs_per_fault as u64,
    );
    let mut engine = CampaignEngine::new(header, opts)?;
    strategies
        .into_iter()
        .map(|(label, strategy)| {
            let allocation = allocate(&metrics, &strategy, budget);
            // Gather the per-function fault sets.
            let mut faults: Vec<GeneratedFault> = Vec::new();
            for (func, n) in &allocation {
                if *n == 0 {
                    continue;
                }
                let mut plan = choose_locations(&compiled.debug, *n, *n, seed);
                restrict_to_functions(&compiled.debug, &mut plan, std::slice::from_ref(func));
                // Refill up to n from this function's own sites.
                let assign_sites: Vec<usize> = compiled
                    .debug
                    .assigns
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| &s.func == func)
                    .map(|(i, _)| i)
                    .take(*n)
                    .collect();
                let check_sites: Vec<usize> = compiled
                    .debug
                    .checks
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| &s.func == func)
                    .map(|(i, _)| i)
                    .take(*n)
                    .collect();
                for i in assign_sites {
                    faults.extend(assign_faults_for(&compiled.debug.assigns[i]));
                }
                for i in check_sites {
                    faults.extend(check_faults_for(&compiled.debug.checks[i]));
                }
            }
            (label, allocation, faults)
        })
        .map(|(label, allocation, faults)| {
            let specs: Vec<_> = faults.iter().map(|f| f.spec).collect();
            let runs = engine.run_matrix(
                &label,
                &Matrix::new(&specs, &inputs),
                || opts.session(&compiled, target.family),
                |_, j| seed.wrapping_add(j as u64),
                |f| format!("fault #{f} at {:#x}", faults[f].site_addr),
            )?;
            let (modes, dormant_runs) = runs.totals();
            Ok(AblationRow {
                strategy: label,
                allocation,
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
    use swifi_programs::program;

    #[test]
    fn three_strategies_reported() {
        let target = program("JB.team11").unwrap();
        let rows = ablation(
            &target,
            4,
            CampaignScale {
                inputs_per_fault: 2,
            },
            9,
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(
                r.allocation.iter().map(|&(_, n)| n).sum::<usize>(),
                4,
                "{} must allocate the whole budget",
                r.strategy
            );
            assert!(r.modes.total() > 0, "{} ran nothing", r.strategy);
        }
    }

    #[test]
    fn strategies_differ_in_where_they_inject() {
        let target = program("SOR").unwrap();
        let rows = ablation(
            &target,
            8,
            CampaignScale {
                inputs_per_fault: 1,
            },
            2,
        );
        let uniform = &rows[0].allocation;
        let guided = &rows[1].allocation;
        assert_ne!(uniform, guided, "metrics should reshape the allocation");
    }
}
