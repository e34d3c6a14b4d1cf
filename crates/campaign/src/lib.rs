//! # swifi-campaign — experiment drivers for the reproduction
//!
//! Each module reproduces one experiment of *Madeira, Costa, Vieira —
//! "On the Emulation of Software Faults by Software Fault Injection"
//! (DSN 2000)*:
//!
//! - [`intensive`] — Table 1: failure symptoms of the seven real faults
//!   under intensive random testing;
//! - [`section5`] — §5: emulability classification (A/B/C) of each real
//!   fault plus behavioural verification of the emulations;
//! - [`section6`] — §6: class-based injection campaigns over the eight
//!   Table-2 targets (Tables 2 & 4, Figures 7–10);
//! - [`ablation`] — §6.1: uniform vs metrics-guided vs field-data
//!   injection allocation;
//! - [`exposure`] — Figure 2 made empirical: measured `p1·p2·p3` chains
//!   for the addressable real faults;
//! - [`triggers`] — the paper's closing future-work question implemented:
//!   how firing sparsity (the When attribute) shapes fault impact;
//! - [`hardware`] — the §6.4 baseline: random bit-flip (hardware) faults
//!   to compare against the rule-generated software errors;
//! - [`source`] — source-level G-SWFIT mutation campaigns: ODC-classified
//!   mutants compiled and run through the same engine, reaching the
//!   Algorithm/Function defect types binary SWIFI cannot;
//! - [`compare`] — the source-vs-binary comparison driver: both
//!   representations over the same programs, one table;
//! - [`runner`] — single-run execution and the four failure modes;
//! - [`session`] — the warm-reboot run engine: one machine + clean
//!   snapshot per worker, restored (not rebuilt) between runs;
//! - [`matrix`] — input-major campaign phases: faults × inputs cut into
//!   tiles, each worker making its inputs' golden passes;
//! - [`prefix`] — prefix forking: injected runs resume from a snapshot of
//!   the fault-free prefix at their trigger point in the ladder their
//!   worker holds, executing only the divergent suffix;
//! - [`pool`] — order-preserving parallel map over independent runs, with
//!   per-worker state carrying the warm sessions;
//! - [`report`] — paper-style text tables.
//!
//! # Quick start
//!
//! ```
//! use swifi_campaign::section6::{class_campaign, CampaignScale};
//!
//! let target = swifi_programs::program("JB.team11").unwrap();
//! let result = class_campaign(&target, CampaignScale { inputs_per_fault: 2 }, 42);
//! assert!(result.total_runs > 0);
//! // Injected faults hit much harder than real software faults:
//! assert!(result.assign_modes.correct < result.assign_modes.total());
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod compare;
pub mod engine;
pub mod exposure;
pub mod hardware;
pub mod intensive;
pub mod matrix;
pub mod plan;
pub mod pool;
pub mod prefix;
pub mod report;
pub mod runner;
pub mod section5;
pub mod section6;
pub mod session;
pub mod shard;
pub mod source;
pub mod triggers;

pub use compare::{compare_representations, comparison_table, Comparison, RepresentationRow};
pub use engine::{
    AbnormalRun, CampaignEngine, CampaignOptions, CheckpointHeader, CheckpointLog, PhaseRuns,
    PhaseTime, RunRecord, RunStatus,
};
pub use matrix::Matrix;
pub use plan::RunPlan;
pub use prefix::{watch_pcs_of, PrefixCache};
pub use runner::{classify_outcome, execute, execute_cold, FailureMode, ModeCounts};
pub use section6::{campaign_all, class_campaign, CampaignScale, ProgramCampaign};
pub use session::{RunSession, SessionError, SessionStats, Throughput};
pub use shard::{merge_checkpoints, run_sharded, MergeSummary, Shard};
pub use source::{source_campaign, SourceCampaign, SourceMutationSource, SourceScale};
