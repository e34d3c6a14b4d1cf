//! Per-arrival cost of a pinned fault trigger.
//!
//! Runs a 20-instruction loop (one load, one store, one register write at
//! the top) under an `EveryTime` opcode-fetch trigger for each per-event
//! target kind, and under `Noop` in the same process. Every fault applies
//! an identity corruption (XOR 0), so the injected run executes exactly
//! the clean run's instructions: the difference in wall clock is what
//! reaching the trigger costs, divided by the number of arrivals.
//!
//! `cargo run --release -p swifi-bench --example trigger_arrival`; run by
//! `scripts/perf_smoke.sh` in its non-gating speedup mode.

use std::time::Instant;
use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
use swifi_core::injector::{Injector, TriggerMode};
use swifi_vm::asm::assemble;
use swifi_vm::machine::{Machine, MachineConfig};
use swifi_vm::{Inspector, Noop};

/// Loop iterations per run: one trigger arrival each.
const ITERS: u64 = 200_000;
/// Timed runs per configuration; the fastest is kept.
const REPS: usize = 7;

/// Five words of set-up (`li` of a 32-bit value and `la` take two each),
/// then the 20-instruction loop.
const SRC: &str = "
    li r5, 0
    li r9, 200000
    la r4, slot
loop:
    lwz r7, 0(r4)
    addi r7, r7, 1
    stw r7, 0(r4)
    addi r8, r8, 1
    addi r8, r8, 2
    addi r8, r8, 3
    addi r8, r8, 4
    addi r8, r8, 5
    addi r8, r8, 6
    addi r8, r8, 7
    addi r8, r8, 8
    addi r8, r8, 9
    addi r8, r8, 10
    addi r8, r8, 11
    addi r8, r8, 12
    addi r8, r8, 13
    addi r8, r8, 14
    addi r5, r5, 1
    cmp cr0, r5, r9
    bc cr0.lt, 1, loop
    li r3, 0
    halt
    .data
    slot: .word 0";

const LOOP: u32 = 0x100 + 5 * 4;
const LWZ: u32 = LOOP;
const ADDI: u32 = LOOP + 4;
const STW: u32 = LOOP + 8;

/// Run the loop once under `inspector`; returns (retired, seconds).
fn run<I: Inspector>(inspector: &mut I) -> (u64, f64) {
    let image = assemble(SRC).expect("probe program assembles");
    let mut m = Machine::new(MachineConfig::default());
    m.load(&image);
    let t0 = Instant::now();
    let out = m.run(inspector);
    let dt = t0.elapsed().as_secs_f64();
    assert!(out.is_normal(), "probe loop must complete: {out:?}");
    (m.retired(), dt)
}

fn main() {
    let cases = [
        ("InstrBus", Target::InstrBus, ADDI),
        ("InstrMemory", Target::InstrMemory, ADDI),
        ("Gpr", Target::Gpr(7), ADDI),
        ("DataBusLoad", Target::DataBusLoad, LWZ),
        ("LoadAddress", Target::LoadAddress, LWZ),
        ("DataBusStore", Target::DataBusStore, STW),
        ("StoreAddress", Target::StoreAddress, STW),
    ];
    let mut noop_best = f64::INFINITY;
    for (name, target, pc) in cases {
        let spec = FaultSpec {
            what: ErrorOp::Xor(0),
            target,
            trigger: Trigger::OpcodeFetch(pc),
            when: Firing::EveryTime,
        };
        let mut noop = f64::INFINITY;
        let mut fault = f64::INFINITY;
        for _ in 0..REPS {
            let (clean_retired, dt) = run(&mut Noop);
            noop = noop.min(dt);
            let mut inj = Injector::new(vec![spec], TriggerMode::Hardware, 1).unwrap();
            let (retired, dt) = run(&mut inj);
            fault = fault.min(dt);
            assert_eq!(
                retired, clean_retired,
                "{name}: an identity fault must retire the clean run's instructions"
            );
            assert_eq!(inj.fired_count(0), ITERS, "{name}: one firing per arrival");
        }
        noop_best = noop_best.min(noop);
        println!(
            "{name:12} {:>6.1} ns per arrival",
            (fault - noop) * 1e9 / ITERS as f64
        );
    }
    println!(
        "Noop loop    {:>6.1} ns per iteration (20 instructions)",
        noop_best * 1e9 / ITERS as f64
    );
}
