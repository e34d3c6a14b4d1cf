//! The four workloads and one timed unit of each.
//!
//! A unit is the workload's fixed campaign set, run once. In process,
//! each campaign is one `class_campaign_with` call, the function `swifi
//! campaign` runs, so it starts from a fresh `PrefixCache`. Every
//! campaign runs at [`CAMPAIGN_SEED`]; the benchmark's `--seed` does not
//! change the work (see NOTES.md).

use std::path::Path;
use std::time::Instant;

use swifi_campaign::engine::CampaignOptions;
use swifi_campaign::section6::{class_campaign_with, CampaignScale};
use swifi_campaign::ProgramCampaign;

use crate::campaign::{self, Spec, Tracing};
use crate::check::{self, Reference};
use crate::service::{self, Timeline};

/// Seed of every workload's campaigns: fault locations, test inputs and
/// error values. One draw can cost 20 times another, so the seed is
/// fixed; 7 is the seed of the reference timings the workloads were
/// sized by.
pub const CAMPAIGN_SEED: u64 = 7;

/// How a workload's campaigns run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In this process, through the engine's worker pool.
    InProcess,
    /// Submitted to a local `swifi serve` with process workers.
    Service,
}

/// One workload.
#[derive(Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Where its campaigns run.
    pub kind: Kind,
    /// Roster programs, one campaign each.
    pub programs: &'static [&'static str],
    /// Test inputs per fault.
    pub inputs: usize,
}

/// Every workload.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "deep-recursive",
        kind: Kind::InProcess,
        programs: &["C.team10"],
        inputs: 3,
    },
    Workload {
        name: "shallow-pruned",
        kind: Kind::InProcess,
        programs: &["JB.team6", "JB.team11"],
        inputs: 300,
    },
    Workload {
        name: "sor-multicore",
        kind: Kind::InProcess,
        programs: &["SOR"],
        inputs: 20,
    },
    Workload {
        name: "sharded-service",
        kind: Kind::Service,
        programs: &["JB.team6", "JB.team11"],
        inputs: 300,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The campaigns of one unit.
    pub fn specs(&self) -> Vec<Spec> {
        self.programs
            .iter()
            .map(|&target| Spec {
                target,
                inputs: self.inputs,
                seed: CAMPAIGN_SEED,
            })
            .collect()
    }
}

/// Options with every execution tier off: the reference semantics.
pub fn reference_opts() -> CampaignOptions {
    CampaignOptions {
        no_prune: true,
        no_prefix_fork: true,
        no_block_cache: true,
        ..CampaignOptions::default()
    }
}

/// The campaign as `swifi campaign` runs it.
///
/// # Errors
///
/// Campaign errors.
pub fn class_campaign(spec: Spec, opts: &CampaignOptions) -> Result<ProgramCampaign, String> {
    let scale = CampaignScale {
        inputs_per_fault: spec.inputs,
    };
    class_campaign_with(&spec.program(), scale, spec.seed, opts)
}

/// The reference for one workload, computed with every tier off. For
/// the service workload it also holds each program's in-process report
/// at default tiers, which the service's report must equal byte for
/// byte outside its wall-clock lines; an in-process run that itself
/// disagrees with the reference leaves a body no service report can
/// match.
///
/// # Errors
///
/// Campaign errors.
pub fn reference(w: &Workload) -> Result<Reference, String> {
    let mut r = Reference::default();
    for spec in w.specs() {
        let fp = check::fingerprint(&class_campaign(spec, &reference_opts())?);
        if w.kind == Kind::Service {
            let warm = class_campaign(spec, &CampaignOptions::default())?;
            let body = if check::fingerprint(&warm) == fp {
                check::report_body(&swifi_campaign::report::class_campaign_report(&warm))
            } else {
                "in-process report disagrees with the reference\n".to_string()
            };
            r.reports.push((spec.target.to_string(), body));
        }
        r.fingerprint.extend(fp);
    }
    Ok(r)
}

/// One unit's outcome.
#[derive(Default)]
pub struct Unit {
    /// Injected runs.
    pub runs: u64,
    /// Wall-clock seconds, summed over the unit's campaigns.
    pub wall_s: f64,
    /// Set-up seconds of each of the unit's campaigns, in order.
    pub setups_s: Vec<f64>,
    /// Runs counted as failed against the reference.
    pub failed: u64,
    /// The in-process campaigns' results.
    pub campaigns: Vec<ProgramCampaign>,
    /// The service submissions.
    pub timelines: Vec<Timeline>,
}

impl Unit {
    /// Set-up seconds, summed over the unit's campaigns.
    pub fn setup_s(&self) -> f64 {
        self.setups_s.iter().sum()
    }

    /// Injected runs per wall-clock second.
    pub fn runs_per_s(&self) -> f64 {
        crate::stats::ratio(self.runs as f64, self.wall_s)
    }

    /// Fingerprints of the unit's in-process campaigns.
    pub fn fingerprints(&self) -> Vec<String> {
        self.campaigns.iter().flat_map(check::fingerprint).collect()
    }

    fn add(&mut self, reference: &Reference, c: ProgramCampaign, wall_s: f64, setup_s: f64) {
        self.runs += c.total_runs;
        self.wall_s += wall_s;
        self.setups_s.push(setup_s);
        self.failed += check::failed_runs(
            &reference.of(&c.program),
            &c,
            c.throughput.prune_sample_mispredicts,
        );
        self.campaigns.push(c);
    }
}

/// Run the unit's campaigns in this process, one `class_campaign_with`
/// call each. Set-up is the call's wall-clock minus its phases' (the
/// engine's `PhaseTime`): compile, fault list, test case and engine and
/// cache set-up.
///
/// # Errors
///
/// Campaign errors.
pub fn in_process(
    specs: &[Spec],
    opts: &CampaignOptions,
    reference: &Reference,
) -> Result<Unit, String> {
    let mut unit = Unit::default();
    for &spec in specs {
        let target = spec.program();
        let scale = CampaignScale {
            inputs_per_fault: spec.inputs,
        };
        let t0 = Instant::now();
        let c = class_campaign_with(&target, scale, spec.seed, opts)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let phases_s: f64 = c.phase_times.iter().map(|p| p.elapsed_secs).sum();
        unit.add(reference, c, wall_s, wall_s - phases_s);
    }
    Ok(unit)
}

/// Run the unit's campaigns through the rebuild in [`campaign`], with a
/// span around every call when `tracing` is given (campaign `i` then
/// carries id `tracing.campaign + i`).
///
/// # Errors
///
/// Campaign errors.
pub fn rebuilt(
    specs: &[Spec],
    reference: &Reference,
    tracing: Option<Tracing>,
) -> Result<(Unit, Vec<campaign::Run>), String> {
    let mut unit = Unit::default();
    let mut runs = Vec::new();
    for (i, &spec) in specs.iter().enumerate() {
        let tracing = tracing.map(|t| Tracing {
            campaign: t.campaign + i as u32,
            ..t
        });
        let run = campaign::run(spec, &CampaignOptions::default(), tracing)?;
        unit.add(reference, run.campaign.clone(), run.wall_s, run.setup_s);
        runs.push(run);
    }
    Ok((unit, runs))
}

/// Submit the unit's campaigns to the server, one after the other.
///
/// # Errors
///
/// Connection failures and `error` events.
pub fn on_service(specs: &[Spec], addr: &str, reference: &Reference) -> Result<Unit, String> {
    let mut unit = Unit::default();
    for spec in specs {
        let t = service::submit(addr, service::request(spec.target, spec.seed, spec.inputs))?;
        let expected = reference.of(spec.target);
        let totals = check::report_totals(&t.text);
        let runs = totals.map_or(0, |t| t.runs);
        let agrees = t.complete()
            && totals.is_some_and(|t| {
                expected.first()
                    == Some(&format!(
                        "{} runs={} fired={} dormant={} abnormal=0",
                        spec.target, t.runs, t.fired, t.dormant
                    ))
            })
            && reference.report(spec.target) == Some(check::report_body(&t.text).as_str());
        unit.runs += runs;
        unit.wall_s += t.done.unwrap_or(0.0);
        unit.setups_s.push(t.first_shard_start());
        unit.failed += if agrees { t.abnormal } else { runs.max(1) };
        unit.timelines.push(t);
    }
    Ok(unit)
}

/// A running server for the service workload, or none.
///
/// # Errors
///
/// Server start-up failures.
pub fn server_for(
    w: &Workload,
    swifi: Option<&Path>,
    workdir: &Path,
) -> Result<Option<service::Server>, String> {
    match w.kind {
        Kind::InProcess => Ok(None),
        Kind::Service => {
            let swifi = swifi.ok_or("the service workload needs --swifi BIN")?;
            std::fs::create_dir_all(workdir)
                .map_err(|e| format!("cannot create `{}`: {e}", workdir.display()))?;
            service::Server::start(swifi, workdir).map(Some)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_valid_and_distinct() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::stats::valid_name(w.name));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w
                .programs
                .iter()
                .all(|p| swifi_programs::program(p).is_some()));
        }
    }

    #[test]
    fn the_rebuilt_campaign_equals_class_campaign_with() {
        for (target, inputs) in [("JB.team11", 4), ("SOR", 1)] {
            let spec = Spec {
                target,
                inputs,
                seed: 11,
            };
            let opts = CampaignOptions::default();
            let real = class_campaign(spec, &opts).expect("campaign");
            let rebuilt = campaign::run(spec, &opts, None).expect("campaign");
            assert_eq!(rebuilt.campaign, real);
        }
    }

    #[test]
    fn the_traced_rebuild_reports_what_the_untraced_one_does() {
        let spec = Spec {
            target: "JB.team6",
            inputs: 3,
            seed: 5,
        };
        let opts = CampaignOptions::default();
        let tracer = crate::trace::Tracer::default();
        let plain = campaign::run(spec, &opts, None).expect("campaign");
        let traced = campaign::run(
            spec,
            &opts,
            Some(Tracing {
                tracer: &tracer,
                campaign: 1,
            }),
        )
        .expect("campaign");
        assert_eq!(
            check::fingerprint(&traced.campaign),
            check::fingerprint(&plain.campaign)
        );
        assert_eq!(traced.retired, plain.retired);
        assert_eq!(traced.runs.len() as u64, traced.campaign.total_runs);
        let spans = tracer.spans();
        let top: Vec<_> = spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].name, "campaign");
        assert!(spans.iter().all(|s| s.campaign == 1));
        for name in [
            "lang.compile",
            "core.fault_plan",
            "programs.test_case",
            "vm.boot",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "{name}");
        }
    }

    #[test]
    fn the_reference_agrees_with_a_default_tier_run() {
        let w = Workload {
            name: "t",
            kind: Kind::InProcess,
            programs: &["JB.team11"],
            inputs: 3,
        };
        let reference = reference(&w).expect("reference");
        let unit = in_process(&w.specs(), &CampaignOptions::default(), &reference).expect("unit");
        assert_eq!(unit.failed, 0);
        assert!(unit.runs > 0 && unit.setup_s() > 0.0 && unit.setup_s() < unit.wall_s);
    }
}
