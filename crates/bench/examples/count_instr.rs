//! Per-program interpreter throughput probe.
//!
//! `SWIFI_INTERP` selects the interpreter:
//! - `cached` (default): predecoded translation cache
//! - `reference`: the seed decode-every-fetch interpreter
//! - `compare`: run both and print the speedup per program
//!
//! Used by `scripts/perf_smoke.sh` as a cheap, non-gating sanity check
//! that the cache is actually faster than the reference path.
//!
//! In `cached` and `compare` modes each row also prints the share of instructions
//! retired in translated blocks and the dispatches per run handed to
//! `Machine::step`: exact counts that do not move with the host. SOR is
//! the 4-core row, where quantum tails used to leave the blocks.

use std::time::Instant;
use swifi_lang::compile;
use swifi_vm::machine::{Machine, MachineConfig};
use swifi_vm::BlockCacheStats;
use swifi_vm::Noop;

const PROGRAMS: [&str; 7] = [
    "C.team1", "C.team2", "C.team8", "C.team9", "C.team10", "JB.team6", "SOR",
];

/// Run every shared input for `name` under one interpreter; returns
/// (retired instructions, elapsed seconds, block-cache counters summed
/// over the runs).
fn measure(name: &str, reference: bool) -> (u64, f64, BlockCacheStats) {
    let p = swifi_programs::program(name).unwrap();
    let c = compile(p.source_correct).unwrap();
    let inputs = p.family.test_case(5, 7);
    let mut total = 0u64;
    let mut blocks = BlockCacheStats::default();
    let t0 = Instant::now();
    for input in &inputs {
        let mut m = Machine::new(MachineConfig {
            num_cores: p.family.cores(),
            budget: p.family.run_budget(),
            ..MachineConfig::default()
        });
        m.set_reference_interp(reference);
        m.load(&c.image);
        m.set_input(input.to_tape());
        let _ = m.run(&mut Noop);
        total += m.retired();
        let b = m.block_cache_stats();
        blocks.block_instrs += b.block_instrs;
        blocks.fallback_dispatches += b.fallback_dispatches;
    }
    (total, t0.elapsed().as_secs_f64(), blocks)
}

fn main() {
    let mode = std::env::var("SWIFI_INTERP").unwrap_or_else(|_| "cached".to_string());
    match mode.as_str() {
        "cached" | "reference" => {
            let reference = mode == "reference";
            let mut grand_instrs = 0u64;
            let mut grand_secs = 0f64;
            for name in PROGRAMS {
                let (total, dt, blocks) = measure(name, reference);
                grand_instrs += total;
                grand_secs += dt;
                println!(
                    "{:10} avg {:>10} instr/run, {:>6.1} ms/run, {:.0}M instr/s, \
                     {:.1}% in blocks, {} fallbacks/run",
                    name,
                    total / 5,
                    dt * 200.0,
                    total as f64 / dt / 1e6,
                    blocks.block_instrs as f64 * 100.0 / total as f64,
                    blocks.fallback_dispatches / 5
                );
            }
            println!(
                "TOTAL {mode}: {:.0}M instr/s",
                grand_instrs as f64 / grand_secs / 1e6
            );
        }
        "compare" => {
            let mut grand_ref = 0f64;
            let mut grand_cached = 0f64;
            for name in PROGRAMS {
                let (n_ref, dt_ref, _) = measure(name, true);
                let (n_cached, dt_cached, blocks) = measure(name, false);
                assert_eq!(
                    n_ref, n_cached,
                    "{name}: interpreters must retire identical instruction counts"
                );
                let r = n_ref as f64 / dt_ref / 1e6;
                let c = n_cached as f64 / dt_cached / 1e6;
                grand_ref += dt_ref;
                grand_cached += dt_cached;
                println!(
                    "{name:10} reference {r:>7.0}M instr/s   cached {c:>7.0}M instr/s   {:.2}x   \
                     {:.1}% in blocks, {} fallbacks/run",
                    c / r,
                    blocks.block_instrs as f64 * 100.0 / n_cached as f64,
                    blocks.fallback_dispatches / 5
                );
            }
            println!(
                "TOTAL compare: cached is {:.2}x reference (wall clock)",
                grand_ref / grand_cached
            );
        }
        other => {
            eprintln!("SWIFI_INTERP={other}: expected cached|reference|compare");
            std::process::exit(2);
        }
    }
}
