//! Campaign benchmark: whole §6 fault-injection campaigns, timed end to
//! end, with a separate traced run for per-layer numbers.
//!
//! ```text
//! perfbench reference --workload W --seed N
//! perfbench measure --workload W --seed N --seconds S --trace 0|1
//!     --reference FILE [--swifi BIN --workdir DIR]
//! ```
//!
//! `reference` prints the workload's reference (every execution tier
//! off) for `measure` to check against; `measure` prints a metric table
//! on stderr and, as its last stdout line, one JSON result object.
//! `run.py` builds the binaries and drives both.

mod campaign;
mod check;
mod host;
mod layers;
mod rss;
mod service;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use swifi_campaign::engine::CampaignOptions;

use crate::stats::{median, Metrics};
use crate::workload::Unit;

/// Fewest units a timed run measures, whatever `--seconds` says.
const MIN_UNITS: usize = 3;

/// A timed run stops starting units after this many times `--seconds`.
const MAX_OVERRUN: f64 = 6.0;

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: Option<PathBuf>,
    swifi: Option<PathBuf>,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("expected `reference` or `measure`")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        reference: None,
        swifi: None,
        workdir: PathBuf::from("."),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: `{v}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("--seed: `{value}`"))?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => args.trace = value == "1",
            "--reference" => args.reference = Some(value.into()),
            "--swifi" => args.swifi = Some(value.into()),
            "--workdir" => args.workdir = value.into(),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = workload::find(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let specs = w.specs();
    if args.command == "reference" {
        print!("{}", workload::reference(w)?.to_text());
        return Ok(());
    }
    if args.command != "measure" {
        return Err(format!("unknown command `{}`", args.command));
    }
    let path = args
        .reference
        .as_ref()
        .ok_or("measure needs --reference FILE")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let reference = check::Reference::parse(&text)?;
    let server = workload::server_for(w, args.swifi.as_deref(), &args.workdir)?;
    let addr = server.as_ref().map(|s| s.addr.as_str());

    let (mut metrics, attempted, failed, first_peak_mb) = if args.trace {
        let l = layers::measure(&specs, &reference, addr)?;
        (l.metrics, l.attempted, l.failed, None)
    } else {
        let start = Instant::now();
        let width = host::width();
        // A process's first probe reads slow; it only warms the probe up.
        host::probe(width);
        let mut probes = vec![host::probe(width)];
        let mut units = Vec::<Unit>::new();
        rss::reset_peak();
        let mut first_peak_mb = 0.0;
        loop {
            units.push(match &server {
                Some(server) => {
                    let unit = workload::on_service(&specs, &server.addr, &reference)?;
                    server.clear_workdir()?;
                    unit
                }
                None => workload::in_process(&specs, &CampaignOptions::default(), &reference)?,
            });
            if units.len() == 1 {
                first_peak_mb = rss::peak_mb();
            }
            probes.push(host::probe(width));
            let elapsed = start.elapsed().as_secs_f64();
            if (elapsed >= args.seconds && units.len() >= MIN_UNITS)
                || elapsed >= args.seconds * MAX_OVERRUN
            {
                break;
            }
        }
        let slowdown = host::slowdown(&probes);
        let rates: Vec<f64> = units.iter().map(Unit::runs_per_s).collect();
        // A service submission's set-up is about 1 ms, and late thread
        // wake-ups on a busy host make many read several ms. It runs
        // the same server code whatever the program, so its median is
        // taken over every submission of the run. In process, set-up
        // depends on the program: the sum, over the unit's campaigns,
        // of each one's median.
        let setup_s: f64 = if server.is_some() {
            let all: Vec<f64> = units.iter().flat_map(|u| u.setups_s.clone()).collect();
            median(&all) * specs.len() as f64
        } else {
            (0..specs.len())
                .map(|k| median(&units.iter().map(|u| u.setups_s[k]).collect::<Vec<_>>()))
                .sum()
        };
        let mut m = Metrics::default();
        m.put("runs_per_s", median(&rates) * slowdown, "1/s");
        m.put("setup_s", setup_s / slowdown, "s");
        eprintln!(
            "seed {}: {} unit(s) of {} campaign(s); runs/s per unit {:.1?}; \
             set-up ms per unit {:.3?}; probes (s) {:.3?}, host {:.3}x slower than nominal; \
             first unit's peak {:.1} MB",
            args.seed,
            units.len(),
            specs.len(),
            rates,
            units.iter().map(|u| u.setup_s() * 1e3).collect::<Vec<_>>(),
            probes,
            slowdown,
            first_peak_mb
        );
        (
            m,
            units.iter().map(|u| u.runs).sum(),
            units.iter().map(|u| u.failed).sum(),
            Some(first_peak_mb),
        )
    };
    // Reaping the server makes its peak, and that of every shard worker
    // it reaped, part of the children's rusage.
    drop(server);
    if let Some(first_peak_mb) = first_peak_mb {
        metrics.put(
            "peak_rss_mb",
            first_peak_mb.max(rss::children_peak_mb()),
            "MB",
        );
    }
    eprint!("{}", metrics.table());
    println!(
        "{}",
        metrics.result_line(failed == 0, attempted.max(1), failed)
    );
    Ok(())
}
