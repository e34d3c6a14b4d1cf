//! Fast and reference injector dispatch agree on multi-spec fault sets.
//!
//! The unit test `fast_dispatch_matches_reference_dispatch` covers one
//! spec at a time; this property draws sets of one to four specs whose
//! triggers share or split fetch, load and store addresses, with every
//! target and firing kind, in both trigger modes, and runs each set with
//! the hooks' fast rejects on and off. Output, outcome, retired count and
//! every spec's fired count must be identical.

use proptest::prelude::*;
use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
use swifi_core::injector::{Injector, TriggerMode};
use swifi_vm::asm::assemble;
use swifi_vm::machine::{Machine, MachineConfig, RunOutcome};

/// Six iterations of a loop that loads, stores and reloads three words.
const SRC: &str = "
    li r5, 0
    la r4, buf
loop:
    lwz r7, 0(r4)
    addi r7, r7, 3
    stw r7, 4(r4)
    lwz r8, 4(r4)
    add r9, r9, r8
    stw r9, 8(r4)
    addi r5, r5, 1
    cmpi cr0, r5, 6
    bc cr0.lt, 1, loop
    mr r3, r9
    sc print_int
    li r3, 0
    halt
    .data
    buf: .word 1, 2, 3";

/// First word of the loop (after `li` and the two-word `la`).
const LOOP: u32 = 0x10C;
/// Loop length in words.
const LOOP_WORDS: u32 = 9;

/// A trigger site: which kind of breakpoint and where.
#[derive(Debug, Clone, Copy)]
enum Site {
    Fetch(u32),
    Load(u32),
    Store(u32),
}

fn site(data_base: u32) -> impl Strategy<Value = Site> {
    let word = move |k: u32| data_base + 4 * k;
    prop_oneof![
        (0..LOOP_WORDS).prop_map(|k| Site::Fetch(LOOP + 4 * k)),
        (0u32..3).prop_map(move |k| Site::Load(word(k))),
        (0u32..3).prop_map(move |k| Site::Store(word(k))),
    ]
}

fn target(data_base: u32) -> impl Strategy<Value = Target> {
    prop_oneof![
        Just(Target::InstrBus),
        Just(Target::InstrMemory),
        Just(Target::DataBusLoad),
        Just(Target::DataBusStore),
        Just(Target::LoadAddress),
        Just(Target::StoreAddress),
        (5u8..10).prop_map(Target::Gpr),
        (0u32..3).prop_map(move |k| Target::Memory(data_base + 4 * k)),
    ]
}

fn firing() -> impl Strategy<Value = Firing> {
    prop_oneof![
        Just(Firing::First),
        Just(Firing::EveryTime),
        (1u64..5).prop_map(Firing::Nth),
    ]
}

fn what() -> impl Strategy<Value = ErrorOp> {
    prop_oneof![
        (0u32..16).prop_map(ErrorOp::Xor),
        (-8i32..8).prop_map(|d| ErrorOp::Add(d * 4)),
        (0u32..4).prop_map(ErrorOp::Or),
        Just(ErrorOp::ReplaceRandom),
    ]
}

/// One spec's trigger, given the set's site pool: a site from the pool
/// (so specs share addresses often), a temporal trigger, or, where the
/// mode allows it, `Always`.
#[derive(Debug, Clone, Copy)]
enum Pick {
    Pool(usize),
    After(u64),
    Always,
}

prop_compose! {
    /// A fault set and the mode it is armed in. Hardware sets draw their
    /// triggers from at most two sites, which fits the breakpoint budget
    /// whatever the sites' kinds; intrusive sets draw from up to five and
    /// may use `Always`.
    fn fault_set(data_base: u32)
        (hardware in any::<bool>(),
         pool in proptest::collection::vec(site(data_base), 5),
         picks in proptest::collection::vec(
             (prop_oneof![
                  (0usize..5).prop_map(Pick::Pool),
                  (0usize..5).prop_map(Pick::Pool),
                  (0u64..60).prop_map(Pick::After),
                  Just(Pick::Always),
              ],
              target(data_base), firing(), what()),
             1..5))
        -> (TriggerMode, Vec<FaultSpec>)
    {
        let sites = if hardware { 2 } else { pool.len() };
        let specs = picks
            .into_iter()
            .map(|(pick, target, when, what)| {
                let trigger = match pick {
                    Pick::Pool(k) => match pool[k % sites] {
                        Site::Fetch(a) => Trigger::OpcodeFetch(a),
                        Site::Load(a) => Trigger::OperandLoad(a),
                        Site::Store(a) => Trigger::OperandStore(a),
                    },
                    Pick::After(n) => Trigger::AfterInstructions(n),
                    Pick::Always if hardware => Trigger::AfterInstructions(0),
                    Pick::Always => Trigger::Always,
                };
                FaultSpec { what, target, trigger, when }
            })
            // An instruction target cannot take a data-address trigger.
            .filter(|s| s.validate().is_ok())
            .collect();
        let mode = if hardware { TriggerMode::Hardware } else { TriggerMode::IntrusiveTraps };
        (mode, specs)
    }
}

/// Outcome, retired count and per-spec fired counts of one run.
fn run(specs: &[FaultSpec], mode: TriggerMode, reference: bool) -> (RunOutcome, u64, Vec<u64>) {
    let image = assemble(SRC).unwrap();
    let mut inj = Injector::new(specs.to_vec(), mode, 9).expect("drawn sets fit their mode");
    inj.set_reference_dispatch(reference);
    let mut m = Machine::new(MachineConfig {
        budget: 5_000,
        ..MachineConfig::default()
    });
    m.load(&image);
    inj.prepare(&mut m).unwrap();
    let out = m.run(&mut inj);
    let fired = (0..specs.len()).map(|i| inj.fired_count(i)).collect();
    (out, m.retired(), fired)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn multi_spec_fast_dispatch_matches_reference(
        set in fault_set(assemble(SRC).unwrap().data_base())
            .prop_filter("one valid spec at least", |(_, specs)| !specs.is_empty())
    ) {
        let (mode, specs) = set;
        let fast = run(&specs, mode, false);
        let reference = run(&specs, mode, true);
        prop_assert_eq!(fast, reference, "{:?} {:?} diverged between dispatchers", mode, specs);
    }
}
