//! The engine bench: one tier ladder over the §6 class-campaign
//! schedules, measured in one process and written to `BENCH_engine.json`
//! at the repository root.
//!
//! Every rung of the ladder replays the same schedule — each generated
//! fault against each shared input, the runs `swifi campaign` makes —
//! from fresh state: a fresh [`RunSession`] and (for the telemetry rung)
//! a fresh hub every round. The `default` rungs run it the way a campaign
//! worker does, input-major through the [`Matrix`] tiles, forking from
//! each input's golden pass; the others run it fault by fault. Nothing
//! is warmed first, so a cell pays its golden passes and block
//! translations the way a campaign does. Each round rotates
//! the rung order so slow host drift lands on every rung alike, and the
//! report gives the median, min and max over rounds.
//!
//! The bench is also an oracle over the ladder: in every round, each
//! rung's per-run `(mode, fired)` sequence and summed retired-instruction
//! count must equal the `cold-reference` rung's (a fresh machine per run
//! on the reference interpreter, the reference semantics). A mismatch
//! names the rung and program and exits nonzero.
//!
//! One session per rung, on one thread: pool scheduling and server costs
//! are measured end to end by `perfbench/`.
//!
//! ```text
//! cargo bench -p swifi-bench --bench perf
//! ```

use std::time::Instant;

use serde::Serialize;
use swifi_campaign::matrix::Matrix;
use swifi_campaign::section6::chosen_locations;
use swifi_campaign::{execute_cold, FailureMode, RunSession, SessionStats};
use swifi_core::fault::FaultSpec;
use swifi_core::locations::generate_error_set;
use swifi_lang::{compile, Program};
use swifi_programs::{program, Family, TestInput};
use swifi_trace::{Telemetry, TelemetryConfig};

/// Campaign seed of every schedule.
const SEED: u64 = 0xB007;

/// The §6 schedules: program and shared inputs per fault. C.team10 is the
/// deep-recursion schedule (runs of ~10⁷ instructions), so it gets two
/// inputs where the microsecond JB schedules get six.
const SCHEDULES: [(&str, usize); 3] = [("JB.team6", 6), ("JB.team11", 6), ("C.team10", 2)];

/// Measured rounds per cell. The C.team10 reference rungs dominate a
/// round (about 105 s on a 2-vCPU host, over half of it `cold-reference`),
/// so two rounds keep the whole ladder under five minutes there.
const ROUNDS: usize = 2;

/// One execution tier, from the reference semantics up to what
/// `swifi campaign` runs by default.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// `execute_cold`: fresh machine, image load and injector per run,
    /// reference interpreter and reference hook dispatch.
    ColdReference,
    /// One warm session on the reference interpreter.
    WarmReference,
    /// One warm session with the block layer off: every instruction
    /// through `Machine::step` over the predecoded lines.
    Line,
    /// One warm session on the block interpreter.
    Blocks,
    /// Blocks plus golden passes and forks, input-major through the
    /// matrix tiles: `swifi campaign`.
    Default,
    /// `Default` with every telemetry pillar live.
    DefaultTelemetry,
}

const RUNGS: [Rung; 6] = [
    Rung::ColdReference,
    Rung::WarmReference,
    Rung::Line,
    Rung::Blocks,
    Rung::Default,
    Rung::DefaultTelemetry,
];

impl Rung {
    fn name(self) -> &'static str {
        match self {
            Rung::ColdReference => "cold-reference",
            Rung::WarmReference => "warm-reference",
            Rung::Line => "line",
            Rung::Blocks => "blocks",
            Rung::Default => "default",
            Rung::DefaultTelemetry => "default+telemetry",
        }
    }
}

/// One program's schedule: every generated fault × every shared input.
struct Schedule {
    name: &'static str,
    family: Family,
    compiled: Program,
    /// Each fault with its site address (the run-seed salt).
    faults: Vec<(FaultSpec, u32)>,
    inputs: Vec<TestInput>,
}

impl Schedule {
    fn new(name: &'static str, n_inputs: usize) -> Schedule {
        let p = program(name).expect("roster program");
        let compiled = compile(p.source_correct).expect("vendored source compiles");
        let (n_assign, n_check) = chosen_locations(name);
        let set = generate_error_set(&compiled.debug, n_assign, n_check, SEED);
        let faults = set
            .assign_faults
            .iter()
            .chain(&set.check_faults)
            .map(|f| (f.spec, f.site_addr))
            .collect();
        Schedule {
            name,
            family: p.family,
            compiled,
            faults,
            inputs: p.family.test_case(n_inputs, SEED ^ 0x5EED),
        }
    }

    fn runs(&self) -> usize {
        self.faults.len() * self.inputs.len()
    }

    /// The run seed of fault `f` on input `i`, as in `swifi campaign`.
    fn seed(&self, f: usize, i: usize) -> u64 {
        SEED.wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(self.faults[f].1 as u64)
            .wrapping_add(i as u64)
    }

    /// Visit every run of the schedule fault by fault with its seed.
    fn for_each_run(&self, mut run: impl FnMut(&TestInput, &FaultSpec, u64)) {
        for (f, (spec, _)) in self.faults.iter().enumerate() {
            for (i, input) in self.inputs.iter().enumerate() {
                run(input, spec, self.seed(f, i));
            }
        }
    }
}

/// What one round of one cell observed.
struct Sample {
    secs: f64,
    /// Per-run classification and fired flag, in schedule order.
    outcomes: Vec<(FailureMode, bool)>,
    /// Summed retired count as full runs would report it.
    retired: u64,
    /// Session counters; `retired_instrs` counts only instructions
    /// actually executed (forked-over and replayed ones excluded).
    stats: SessionStats,
}

/// Run `s` once on `rung` from fresh state. The clock covers building
/// the session, cache and hub, the schedule, and dropping them again.
fn run_cell(rung: Rung, s: &Schedule) -> Sample {
    let mut outcomes = Vec::with_capacity(s.runs());
    let mut retired = 0;
    let t0 = Instant::now();
    if rung == Rung::ColdReference {
        s.for_each_run(|input, spec, seed| {
            let (mode, fired, r) = execute_cold(&s.compiled, s.family, input, Some(spec), seed);
            outcomes.push((mode, fired));
            retired += r;
        });
        let secs = t0.elapsed().as_secs_f64();
        let runs = outcomes.len() as u64;
        let fired_runs = outcomes.iter().filter(|(_, fired)| *fired).count() as u64;
        return Sample {
            secs,
            outcomes,
            retired,
            stats: SessionStats {
                runs,
                injected_runs: runs,
                fired_runs,
                dormant_runs: runs - fired_runs,
                retired_instrs: retired,
                ..SessionStats::default()
            },
        };
    }
    let mut session = RunSession::new(&s.compiled, s.family);
    match rung {
        Rung::WarmReference => session.set_reference_interp(true),
        Rung::Line => session.set_block_cache(false),
        _ => {}
    }
    if rung == Rung::DefaultTelemetry {
        let hub = Telemetry::shared(TelemetryConfig {
            trace: true,
            metrics: true,
            profile: true,
        });
        session.set_telemetry(Some(hub.worker()));
    }
    if matches!(rung, Rung::Default | Rung::DefaultTelemetry) {
        // A campaign worker's order, each outcome kept in its
        // fault-by-fault slot for the comparison with cold-reference.
        let specs: Vec<FaultSpec> = s.faults.iter().map(|&(spec, _)| spec).collect();
        let matrix = Matrix::new(&specs, &s.inputs);
        outcomes = vec![(FailureMode::Correct, false); s.runs()];
        for tile in matrix.tiles() {
            for (_, f, i) in matrix.runs(&tile) {
                let seed = s.seed(f, i);
                outcomes[f * s.inputs.len() + i] = matrix.run(&mut session, true, f, i, seed);
                retired += session.last_retired();
            }
        }
    } else {
        s.for_each_run(|input, spec, seed| {
            outcomes.push(session.run(input, Some(spec), seed));
            retired += session.last_retired();
        });
    }
    let stats = session.stats();
    drop(session);
    Sample {
        secs: t0.elapsed().as_secs_f64(),
        outcomes,
        retired,
        stats,
    }
}

/// Median, min and max of one metric over the rounds.
#[derive(Serialize)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut xs: Vec<f64>) -> Spread {
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        Spread {
            median: (xs[(n - 1) / 2] + xs[n / 2]) / 2.0,
            min: xs[0],
            max: xs[n - 1],
        }
    }
}

#[derive(Serialize)]
struct Cell {
    rung: &'static str,
    runs_per_sec: Spread,
    /// Executed guest instructions per second: the interpreter's speed.
    /// Runs answered without executing lower it; runs/s is the campaign
    /// figure.
    instrs_per_sec: Spread,
    /// Median runs/s over the `cold-reference` cell's median runs/s.
    speedup_vs_cold_reference: f64,
    /// Session counters of the last round.
    stats: SessionStats,
}

#[derive(Serialize)]
struct ProgramRow {
    program: &'static str,
    inputs: usize,
    runs: usize,
    /// Guest instructions a full run of every fault retires (the
    /// cold-reference total every rung must match).
    retired_instrs: u64,
    cells: Vec<Cell>,
}

#[derive(Serialize)]
struct EngineBench {
    bench: &'static str,
    schedule: &'static str,
    seed: u64,
    rounds: usize,
    method: &'static str,
    /// Wall-clock seconds of the whole ladder, every round included.
    wall_clock_secs: f64,
    programs: Vec<ProgramRow>,
}

fn main() {
    let t0 = Instant::now();
    let schedules: Vec<Schedule> = SCHEDULES
        .iter()
        .map(|&(name, n)| Schedule::new(name, n))
        .collect();
    // samples[program][rung][round]
    let mut samples: Vec<Vec<Vec<Sample>>> = schedules
        .iter()
        .map(|_| RUNGS.iter().map(|_| Vec::new()).collect())
        .collect();
    for round in 0..ROUNDS {
        for (p, s) in schedules.iter().enumerate() {
            for k in 0..RUNGS.len() {
                let r = (k + round) % RUNGS.len();
                samples[p][r].push(run_cell(RUNGS[r], s));
            }
            let cold = samples[p][0].last().expect("cold-reference ran");
            for (r, rung) in RUNGS.iter().enumerate().skip(1) {
                let got = samples[p][r].last().expect("cell ran");
                if got.outcomes != cold.outcomes || got.retired != cold.retired {
                    let first = got
                        .outcomes
                        .iter()
                        .zip(&cold.outcomes)
                        .position(|(a, b)| a != b);
                    eprintln!(
                        "engine bench: rung `{}` diverges from cold-reference on {} in round {round}: \
                         first differing run {first:?}, retired {} vs {}",
                        rung.name(),
                        s.name,
                        got.retired,
                        cold.retired
                    );
                    std::process::exit(1);
                }
            }
            println!("round {}/{ROUNDS}: {} ok", round + 1, s.name);
        }
    }

    let programs: Vec<ProgramRow> = schedules
        .iter()
        .zip(samples)
        .map(|(s, by_rung)| {
            let runs = s.runs();
            let retired_instrs = by_rung[0][0].retired;
            let mut cold_median = 0.0;
            let cells = RUNGS
                .iter()
                .zip(by_rung)
                .map(|(rung, rounds)| {
                    let runs_per_sec =
                        Spread::of(rounds.iter().map(|x| runs as f64 / x.secs).collect());
                    let instrs_per_sec = Spread::of(
                        rounds
                            .iter()
                            .map(|x| x.stats.retired_instrs as f64 / x.secs)
                            .collect(),
                    );
                    if *rung == Rung::ColdReference {
                        cold_median = runs_per_sec.median;
                    }
                    let last = rounds.last().expect("at least one round");
                    Cell {
                        rung: rung.name(),
                        speedup_vs_cold_reference: runs_per_sec.median / cold_median,
                        runs_per_sec,
                        instrs_per_sec,
                        stats: last.stats,
                    }
                })
                .collect();
            ProgramRow {
                program: s.name,
                inputs: s.inputs.len(),
                runs,
                retired_instrs,
                cells,
            }
        })
        .collect();

    println!(
        "\n{:<10} {:<18} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "program", "rung", "runs/s", "min", "max", "Minstr/s", "vs cold"
    );
    for row in &programs {
        for c in &row.cells {
            println!(
                "{:<10} {:<18} {:>12.1} {:>12.1} {:>12.1} {:>10.1} {:>7.2}x",
                row.program,
                c.rung,
                c.runs_per_sec.median,
                c.runs_per_sec.min,
                c.runs_per_sec.max,
                c.instrs_per_sec.median / 1e6,
                c.speedup_vs_cold_reference
            );
        }
    }

    let report = EngineBench {
        bench: "engine",
        schedule: "section6 class campaign: every generated fault x every shared input \
                   (6 inputs for JB, 2 for C.team10), run seeds as in swifi campaign",
        seed: SEED,
        rounds: ROUNDS,
        method: "each round runs every cell once from fresh state (fresh session and \
                 telemetry hub; nothing warmed) on one thread, rotating the rung order; the \
                 default rungs run input-major through the matrix tiles with golden passes; \
                 every cell's per-run (mode, fired) and summed retired count must equal \
                 cold-reference's in every round",
        wall_clock_secs: t0.elapsed().as_secs_f64(),
        programs,
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    std::fs::write(&path, json + "\n").expect("write BENCH_engine.json");
    println!("wrote {} ({:.0}s)", path.display(), report.wall_clock_secs);
}
