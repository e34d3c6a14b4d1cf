//! The traced run: per-layer metrics.
//!
//! One untraced unit of `class_campaign_with` calls gives the baseline; a
//! traced unit rebuilds the same campaigns with spans; an untraced
//! rebuild checks that exact counts repeat; three more untraced units
//! each turn one execution tier off. For the service workload the
//! service submissions are timed from the event stream, and the layer
//! metrics come from the identical campaigns run in process (the shard
//! workers run the same layers).

use std::time::Instant;

use swifi_campaign::engine::CampaignOptions;
use swifi_campaign::RunSession;

use crate::campaign::{self, Spec, Tracing};
use crate::check::Reference;
use crate::service::Timeline;
use crate::stats::{median, percentile, ratio, tail_percentile, Metrics};
use crate::trace::{covered_ns, self_ns, RunPath, Tracer};
use crate::workload::{self, Unit};

/// Least share of the traced window its top-level spans must cover; a
/// traced unit below it fails its runs.
const MIN_SPAN_COVER: f64 = 0.9;

/// Per-layer metrics plus the run accounting of every unit executed.
pub struct Layers {
    /// The metrics, in emission order.
    pub metrics: Metrics,
    /// Injected runs attempted across all units.
    pub attempted: u64,
    /// Runs failed across all units, including determinism mismatches
    /// and a traced unit whose spans miss too much of its wall-clock.
    pub failed: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Run the traced measurement of one workload.
///
/// # Errors
///
/// Campaign and service errors.
pub fn measure(
    specs: &[Spec],
    reference: &Reference,
    service: Option<&str>,
) -> Result<Layers, String> {
    let default = CampaignOptions::default();
    let mut units: Vec<Unit> = Vec::new();
    let mut m = Metrics::default();

    // Service submissions first, so the in-process work below cannot
    // warm anything they read.
    let service_units = match service {
        Some(addr) => vec![
            workload::on_service(specs, addr, reference)?,
            workload::on_service(specs, addr, reference)?,
        ],
        None => Vec::new(),
    };

    let base = workload::in_process(specs, &default, reference)?;
    let tracer = Tracer::default();
    let window_start = tracer.now();
    let (traced, traced_runs) = workload::rebuilt(
        specs,
        reference,
        Some(Tracing {
            tracer: &tracer,
            campaign: 1,
        }),
    )?;
    let window = tracer.now() - window_start;
    let (again, again_runs) = workload::rebuilt(specs, reference, None)?;
    let mut tiers = Vec::new();
    for tier in ["no_prune", "no_prefix_fork", "no_block_cache"] {
        let opts = CampaignOptions {
            no_prune: tier == "no_prune",
            no_prefix_fork: tier == "no_prefix_fork",
            no_block_cache: tier == "no_block_cache",
            ..CampaignOptions::default()
        };
        let unit = workload::in_process(specs, &opts, reference)?;
        tiers.push((tier, unit.runs_per_s()));
        units.push(unit);
    }
    let clean = clean_throughput(specs, &tracer);

    // Exact counts must repeat; scheduling-dependent ones are reported.
    let retired = |runs: &[campaign::Run]| runs.iter().map(|r| r.retired).sum::<u64>();
    let exact = base.fingerprints() == traced.fingerprints()
        && base.fingerprints() == again.fingerprints()
        && retired(&traced_runs) == retired(&again_runs);
    let spans = tracer.spans();
    let top_covered = covered_ns(
        &spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == "campaign")
            .copied()
            .collect::<Vec<_>>(),
    );
    let span_ms = |name: &str| -> f64 {
        ms(spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum())
    };
    let boots: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "vm.boot")
        .map(|s| ms(s.dur_ns()))
        .collect();

    m.put("lang.compile_ms", span_ms("lang.compile"), "ms");
    m.put("core.fault_plan_ms", span_ms("core.fault_plan"), "ms");
    m.put("programs.test_case_ms", span_ms("programs.test_case"), "ms");
    m.put("vm.boot_ms", median(&boots), "ms");
    m.put("setup.traced_s", traced.setup_s(), "s");

    let stats = traced_runs
        .iter()
        .fold(swifi_campaign::SessionStats::default(), |mut a, c| {
            a.merge(&c.stats);
            a
        });
    m.put("vm.clean_minstr_per_s", clean, "Minstr/s");
    m.put("vm.retired_instrs", retired(&traced_runs) as f64, "count");
    m.put("vm.executed_instrs", stats.retired_instrs as f64, "count");

    let runs: Vec<(RunPath, u64)> = traced_runs
        .iter()
        .flat_map(|c| c.runs.iter().copied())
        .collect();
    for path in RunPath::ALL {
        let us: Vec<f64> = runs
            .iter()
            .filter(|r| r.0 == path)
            .map(|r| r.1 as f64 / 1e3)
            .collect();
        let tail = tail_percentile(us.len());
        let p = path.name();
        m.put(format!("session.{p}.runs"), us.len() as f64, "count");
        m.put(format!("session.{p}.run_us.p50"), median(&us), "us");
        m.put(
            format!("session.{p}.run_us.ptail"),
            tail.map_or(0.0, |t| percentile(&us, t)),
            "us",
        );
        m.put(
            format!("session.{p}.run_us.ptail_pct"),
            tail.unwrap_or(0.0),
            "%",
        );
    }

    let snapshots: usize = traced_runs.iter().map(|c| c.snapshots).sum();
    let hits = stats.prefix_fork_hits as f64;
    let captures = stats.prefix_snapshots_built as f64;
    let skipped = stats.prefix_instrs_skipped as f64;
    m.put("prefix.fork_hits", hits, "count");
    m.put("prefix.captures", captures, "count");
    m.put("prefix.hit_ratio", ratio(hits, hits + captures), "ratio");
    m.put(
        "prefix.skipped_share",
        ratio(skipped, skipped + stats.retired_instrs as f64),
        "ratio",
    );
    m.put("prefix.snapshots", snapshots as f64, "count");

    let trace_runs = stats.prune_trace_runs as f64;
    let trace_ns: u64 = runs
        .iter()
        .filter(|r| r.0 == RunPath::Trace)
        .map(|r| r.1)
        .sum();
    let pruned = (stats.prune_dormant_skips + stats.prune_collapse_hits) as f64;
    // One trace run per input and campaign is the useful minimum; the
    // rest are workers tracing the same input at the same time.
    let needed: f64 = traced_runs
        .iter()
        .zip(specs)
        .filter(|(c, _)| c.stats.prune_trace_runs > 0)
        .map(|(_, s)| s.inputs as f64)
        .sum();
    m.put("plan.trace_runs", trace_runs, "count");
    let run_ns: u64 = runs.iter().map(|r| r.1).sum();
    m.put(
        "plan.trace_s_share",
        ratio(trace_ns as f64, run_ns as f64),
        "ratio",
    );
    m.put("plan.pruned_runs", pruned, "count");
    m.put(
        "plan.pruned_per_trace_run",
        ratio(pruned, trace_runs),
        "ratio",
    );
    m.put(
        "plan.trace_dup_share",
        ratio((trace_runs - needed).max(0.0), trace_runs),
        "ratio",
    );

    let phase_s = |name: &str| -> f64 {
        traced_runs
            .iter()
            .flat_map(|c| &c.campaign.phase_times)
            .filter(|p| p.phase == name)
            .map(|p| p.elapsed_secs)
            .sum()
    };
    let capacity: f64 = traced_runs
        .iter()
        .flat_map(|c| c.campaign.phase_times.iter().zip(&c.workers))
        .map(|(p, &w)| p.elapsed_secs * w as f64)
        .sum();
    let items: Vec<u64> = traced_runs
        .iter()
        .flat_map(|c| c.item_micros.iter().copied())
        .collect();
    m.put("engine.phase_s.assign", phase_s("assign"), "s");
    m.put("engine.phase_s.check", phase_s("check"), "s");
    // Phase wall-clock during which no work item ran on any worker:
    // pool start-up, join, and waiting on the last item.
    let phases: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "engine.run_phase")
        .collect();
    let idle: u64 = phases.iter().map(|p| self_ns(p, &spans)).sum();
    let phase_ns: u64 = phases.iter().map(|p| p.dur_ns()).sum();
    m.put(
        "pool.busy_share",
        ratio(items.iter().sum::<u64>() as f64 / 1e6, capacity),
        "ratio",
    );
    m.put(
        "pool.idle_share",
        ratio(idle as f64, phase_ns as f64),
        "ratio",
    );
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.put("pool.width", width as f64, "count");
    m.put(
        "pool.longest_item_s",
        items.iter().copied().max().unwrap_or(0) as f64 / 1e6,
        "s",
    );

    put_server_metrics(&mut m, &service_units, base.wall_s);
    units.extend(service_units);

    m.put("tier.default.runs_per_s", base.runs_per_s(), "1/s");
    for (name, rps) in &tiers {
        m.put(format!("tier.{name}.runs_per_s"), *rps, "1/s");
    }
    m.put(
        "trace.overhead_share",
        traced.wall_s / base.wall_s - 1.0,
        "ratio",
    );
    let cover = ratio(top_covered as f64, window as f64);
    m.put("trace.span_cover_share", cover, "ratio");
    m.put("trace.spans", spans.len() as f64, "count");
    m.put("determinism.exact", if exact { 1.0 } else { 0.0 }, "bool");

    units.push(base);
    units.push(again);
    let unchecked = unchecked_runs(exact, cover, traced.runs);
    units.push(traced);
    let attempted: u64 = units.iter().map(|u| u.runs).sum();
    let failed: u64 = units.iter().map(|u| u.failed).sum::<u64>() + unchecked;
    m.put(
        "failed_share",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    Ok(Layers {
        metrics: m,
        attempted,
        failed,
    })
}

/// Runs of the traced unit to count as failed: all of them when exact
/// counts failed to repeat or its top-level spans cover less than
/// [`MIN_SPAN_COVER`] of its wall-clock.
fn unchecked_runs(exact: bool, cover: f64, runs: u64) -> u64 {
    if exact && cover >= MIN_SPAN_COVER {
        0
    } else {
        runs
    }
}

/// Server rows, read from the service units' event timelines (all 0
/// without a service); `vs_inprocess` divides the service's wall-clock
/// by that of the same campaigns run in process.
fn put_server_metrics(m: &mut Metrics, service: &[Unit], inprocess_wall: f64) {
    let timelines: Vec<&Timeline> = service.iter().flat_map(|u| &u.timelines).collect();
    let at = |f: fn(&Timeline) -> f64| median(&timelines.iter().map(|t| f(t)).collect::<Vec<_>>());
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let shards: Vec<Vec<f64>> = timelines.iter().map(|t| t.shard_secs()).collect();
    let skews: Vec<f64> = shards.iter().map(|s| ratio(max(s), min(s))).collect();
    let wall = median(&service.iter().map(|u| u.wall_s).collect::<Vec<_>>());
    m.put(
        "server.accept_ms",
        at(|t| t.accepted.unwrap_or(0.0)) * 1e3,
        "ms",
    );
    m.put("server.shard_s.max", max(&shards.concat()), "s");
    m.put("server.shard_skew", median(&skews), "ratio");
    m.put(
        "server.merge_ms",
        at(|t| t.merged.unwrap_or(0.0) - t.last_shard_done()) * 1e3,
        "ms",
    );
    m.put(
        "server.final_pass_ms",
        at(|t| t.report.unwrap_or(0.0) - t.merged.unwrap_or(0.0)) * 1e3,
        "ms",
    );
    m.put("server.vs_inprocess", ratio(wall, inprocess_wall), "ratio");
}

/// Clean-run interpretation speed: every input of each campaign run
/// fault-free on a fresh session without a prefix cache (so nothing is
/// answered from a memo), in guest Minstr per second.
fn clean_throughput(specs: &[Spec], tracer: &Tracer) -> f64 {
    let mut instrs = 0u64;
    let mut secs = 0.0;
    for spec in specs {
        let target = spec.program();
        let compiled =
            swifi_lang::compile(target.source_correct).expect("vendored source compiles");
        let inputs = spec.test_inputs();
        let mut session = RunSession::new(&compiled, target.family);
        for input in &inputs {
            let before = session.stats().retired_instrs;
            let t0 = Instant::now();
            tracer.time("session.run_clean", 0, 0, || session.run_clean(input));
            secs += t0.elapsed().as_secs_f64();
            instrs += session.stats().retired_instrs - before;
        }
    }
    ratio(instrs as f64 / 1e6, secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Workload};

    /// `(name, unit)` of every metric in one list of BENCHMARK.json.
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let field = |obj: &serde::Value, k: &str| -> String {
            let (_, v) = obj
                .as_object()
                .and_then(|o| o.iter().find(|(n, _)| n == k))
                .expect("field present");
            v.as_str().expect("string field").to_string()
        };
        let (_, list) = v
            .as_object()
            .and_then(|o| o.iter().find(|(n, _)| n == key))
            .expect("list present");
        list.as_array()
            .expect("array")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn low_span_cover_or_inexact_counts_fail_the_traced_runs() {
        assert_eq!(unchecked_runs(true, 0.95, 100), 0);
        assert_eq!(unchecked_runs(true, 0.4, 100), 100);
        assert_eq!(unchecked_runs(false, 1.0, 100), 100);
    }

    #[test]
    fn the_traced_run_emits_exactly_the_listed_per_layer_metrics() {
        let w = Workload {
            name: "t",
            kind: Kind::InProcess,
            programs: &["JB.team11"],
            inputs: 2,
        };
        let reference = workload::reference(&w).expect("reference");
        let l = measure(&w.specs(), &reference, None).expect("traced run");
        assert_eq!(l.failed, 0);
        assert!(l.attempted > 0);
        let emitted: Vec<(String, String)> = l
            .metrics
            .0
            .iter()
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect();
        assert_eq!(emitted, listed("per_layer"));
        assert_eq!(l.metrics.get("determinism.exact"), Some(1.0));
        assert!(l
            .metrics
            .get("trace.span_cover_share")
            .is_some_and(|c| c >= 0.9));
        for (name, unit) in listed("end_to_end") {
            assert!(crate::stats::valid_name(&name) && crate::stats::valid_unit(&unit));
        }
    }
}
