//! Reaching a pinned trigger allocates nothing.
//!
//! A counting global allocator measures the heap allocations of whole runs
//! whose loop reaches an `EveryTime` fetch trigger N and then 10·N times.
//! Whatever a run allocates up front (fetch policy, translated blocks),
//! the count must not grow with the number of arrivals.
//!
//! This binary holds a single test so no other test thread allocates
//! while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
use swifi_core::injector::{Injector, TriggerMode};
use swifi_vm::asm::assemble;
use swifi_vm::machine::{Machine, MachineConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Address of the loop's `addi` and `stw` (after five set-up words).
const ADDI: u32 = 0x114;
const STW: u32 = 0x118;

/// Heap allocations made by `Machine::run` over a loop of `iters`
/// iterations, each reaching `spec`'s trigger once.
fn run_allocations(spec: FaultSpec, iters: u32) -> u64 {
    let src = format!(
        "li r5, 0
         li r9, {iters}
         la r4, slot
     loop:
         lwz r7, 0(r4)
         addi r7, r7, 1
         stw r7, 0(r4)
         addi r5, r5, 1
         cmp cr0, r5, r9
         bc cr0.lt, 1, loop
         li r3, 0
         halt
         .data
         slot: .word 0"
    );
    let image = assemble(&src).unwrap();
    let mut m = Machine::new(MachineConfig::default());
    m.load(&image);
    let mut inj = Injector::new(vec![spec], TriggerMode::Hardware, 1).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = m.run(&mut inj);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(out.is_normal(), "{out:?}");
    assert_eq!(
        inj.fired_count(0),
        u64::from(iters),
        "one firing per arrival"
    );
    allocations
}

#[test]
fn trigger_arrivals_allocate_nothing() {
    let faults = [
        FaultSpec {
            what: ErrorOp::Add(1),
            target: Target::DataBusStore,
            trigger: Trigger::OpcodeFetch(STW),
            when: Firing::EveryTime,
        },
        FaultSpec {
            what: ErrorOp::Xor(0),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(ADDI),
            when: Firing::EveryTime,
        },
    ];
    for spec in faults {
        let n = run_allocations(spec, 300);
        let ten_n = run_allocations(spec, 3000);
        assert!(
            ten_n <= n,
            "{:?}: {n} allocations at 300 arrivals, {ten_n} at 3000",
            spec.target
        );
    }
}
