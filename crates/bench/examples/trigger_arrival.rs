//! Per-arrival cost of a pinned fault trigger.
//!
//! Runs two loop shapes under an `EveryTime` opcode-fetch trigger and
//! under `Noop` in the same process:
//!
//! * a 20-instruction loop (one load, one store, one register write at
//!   the top), once per per-event target kind;
//! * the shape of JB.team6's Hang loop (`0x1dc`–`0x228`): a 4-instruction
//!   head that tests the counter, a 14-instruction body, the counter's
//!   `stw` (the trigger) and a one-instruction `b` back to the head.
//!
//! Every fault applies an identity corruption (XOR 0), so the injected run
//! executes exactly the clean run's instructions: the difference in wall
//! clock is what reaching the trigger costs, divided by the number of
//! arrivals. Each line also prints the block interpreter's fallback
//! dispatches per arrival (`Machine::block_cache_stats`): about 1 when an
//! arrival leaves its translated block for the single-step path, about 0
//! when the trigger runs inside the block as a fetch step.
//!
//! `cargo run --release -p swifi-bench --example trigger_arrival`; run by
//! `scripts/perf_smoke.sh` in its non-gating speedup mode.

use std::time::Instant;
use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
use swifi_core::injector::{Injector, TriggerMode};
use swifi_vm::asm::assemble;
use swifi_vm::machine::{Machine, MachineConfig};
use swifi_vm::{Image, Inspector, Noop};

/// Loop iterations per run: one trigger arrival each.
const ITERS: u64 = 200_000;
/// Timed runs per configuration; the fastest is kept.
const REPS: usize = 7;

/// Five words of set-up (`li` of a 32-bit value and `la` take two each),
/// then the 20-instruction loop.
const LOOP20: &str = "
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

const LOOP20_TOP: u32 = 0x100 + 5 * 4;
const LOOP20_LWZ: u32 = LOOP20_TOP;
const LOOP20_ADDI: u32 = LOOP20_TOP + 4;
const LOOP20_STW: u32 = LOOP20_TOP + 8;

/// JB.team6's Hang loop with its registers and stack slots mapped onto a
/// data block: two words of set-up (`la`), then the loop.
const SPLIT: &str = "
    la r4, count
loop:
    lwz r14, 0(r4)
    lwz r15, 4(r4)
    cmp cr0, r14, r15
    bc cr0.lt, 0, done
    lwz r14, 8(r4)
    addi r15, r4, 12
    lwz r16, 0(r4)
    add r15, r15, r16
    lbz r15, 0(r15)
    lwz r16, 0(r4)
    addi r17, r0, 1
    add r16, r16, r17
    mullw r15, r15, r16
    add r14, r14, r15
    stw r14, 8(r4)
    lwz r14, 0(r4)
    addi r15, r0, 1
    add r14, r14, r15
    stw r14, 0(r4)
    b loop
done:
    li r3, 0
    halt
    .data
    count: .word 0
    limit: .word 200000
    sum: .word 0
    bytes: .word 0";

/// The counter's `stw`: set-up, 4-instruction head, 14-instruction body.
const SPLIT_STW: u32 = 0x100 + (2 + 4 + 14) * 4;

/// Run `image` once under `inspector`; returns (retired, seconds,
/// fallback dispatches).
fn run<I: Inspector>(image: &Image, inspector: &mut I) -> (u64, f64, u64) {
    let mut m = Machine::new(MachineConfig::default());
    m.load(image);
    let t0 = Instant::now();
    let out = m.run(inspector);
    let dt = t0.elapsed().as_secs_f64();
    assert!(out.is_normal(), "probe loop must complete: {out:?}");
    (m.retired(), dt, m.block_cache_stats().fallback_dispatches)
}

/// Time `cases` (name, target, trigger pc) on `src` against its `Noop`
/// run and print one line per case; returns the best `Noop` time.
fn probe(src: &str, cases: &[(&str, Target, u32)]) -> f64 {
    let image = assemble(src).expect("probe program assembles");
    let mut noop_best = f64::INFINITY;
    for &(name, target, pc) in cases {
        let spec = FaultSpec {
            what: ErrorOp::Xor(0),
            target,
            trigger: Trigger::OpcodeFetch(pc),
            when: Firing::EveryTime,
        };
        let mut noop = f64::INFINITY;
        let mut fault = f64::INFINITY;
        let mut fallbacks = 0;
        for _ in 0..REPS {
            let (clean_retired, dt, _) = run(&image, &mut Noop);
            noop = noop.min(dt);
            let mut inj = Injector::new(vec![spec], TriggerMode::Hardware, 1).unwrap();
            let (retired, dt, fb) = run(&image, &mut inj);
            fault = fault.min(dt);
            fallbacks = fb;
            assert_eq!(
                retired, clean_retired,
                "{name}: an identity fault must retire the clean run's instructions"
            );
            assert_eq!(inj.fired_count(0), ITERS, "{name}: one firing per arrival");
        }
        noop_best = noop_best.min(noop);
        println!(
            "{name:18} {:>6.1} ns per arrival, {:.2} fallback dispatches per arrival",
            (fault - noop) * 1e9 / ITERS as f64,
            fallbacks as f64 / ITERS as f64
        );
    }
    noop_best
}

fn main() {
    let noop = probe(
        LOOP20,
        &[
            ("InstrBus", Target::InstrBus, LOOP20_ADDI),
            ("InstrMemory", Target::InstrMemory, LOOP20_ADDI),
            ("Gpr", Target::Gpr(7), LOOP20_ADDI),
            ("DataBusLoad", Target::DataBusLoad, LOOP20_LWZ),
            ("LoadAddress", Target::LoadAddress, LOOP20_LWZ),
            ("DataBusStore", Target::DataBusStore, LOOP20_STW),
            ("StoreAddress", Target::StoreAddress, LOOP20_STW),
        ],
    );
    println!(
        "Noop loop          {:>6.1} ns per iteration (20 instructions)",
        noop * 1e9 / ITERS as f64
    );
    let noop = probe(
        SPLIT,
        &[("JB.team6-shape stw", Target::DataBusStore, SPLIT_STW)],
    );
    println!(
        "Noop loop          {:>6.1} ns per iteration (JB.team6 shape, 20 instructions)",
        noop * 1e9 / ITERS as f64
    );
}
