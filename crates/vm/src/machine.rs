//! The P601-lite machine: cores, scheduler, syscalls, and run outcomes.
//!
//! A [`Machine`] owns guest memory, one or more [`Cpu`] cores, a guest heap
//! [`Allocator`](crate::mem::Allocator), an input tape, and an output
//! stream. One *run* executes a loaded [`Image`](crate::mem::Image) from
//! scratch until every core halts, a core traps, or the instruction budget
//! is exhausted — yielding the paper's four failure-mode observables
//! (correct/incorrect output, crash, hang) via [`RunOutcome`].
//!
//! The paper's methodology requires that "the target system is rebooted
//! between injections to assure a clean state". Two lifecycles implement
//! that contract:
//!
//! * **Cold boot** — build a fresh `Machine` and [`Machine::load`] the
//!   image for every run. Simple, and what the seed experiments did.
//! * **Warm reboot** — [`Machine::snapshot`] the post-`load()` state once,
//!   run, then [`Machine::restore`] before the next run. Restore rolls
//!   back *only the memory pages dirtied by the run* (plus the small
//!   architectural state), so it is orders of magnitude cheaper than
//!   re-zeroing and re-loading a megabyte of guest memory, while being
//!   observably identical to a cold boot (a tested invariant; see the
//!   `fault_injection_properties` suite).
//!
//! # Examples
//!
//! ```
//! use swifi_vm::asm::assemble;
//! use swifi_vm::machine::{Machine, MachineConfig, RunOutcome};
//! use swifi_vm::inspect::Noop;
//!
//! let image = assemble(
//!     "
//!     addi r3, r0, 21
//!     addi r4, r0, 2
//!     mullw r3, r3, r4
//!     sc print_int
//!     addi r3, r0, 0
//!     halt
//!     ",
//! )?;
//! let mut m = Machine::new(MachineConfig::default());
//! m.load(&image);
//! let outcome = m.run(&mut Noop);
//! assert_eq!(outcome, RunOutcome::Completed { exit_code: 0, output: b"42".to_vec() });
//! # Ok::<(), swifi_vm::asm::AsmError>(())
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

use crate::blocks::{is_straight, Block, BlockCache, BlockCacheStats, Step, Term};
use crate::inspect::{FetchPolicy, Inspector};
use crate::isa::{self, AluOp, CrBit, Instr, Syscall};
use crate::mem::{
    Allocator, DecodeCacheStats, Image, Memory, MemoryDelta, MemorySnapshot, CODE_BASE,
};

/// A hardware-detected error condition; the *crash* failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// The fetched word does not decode to a valid instruction.
    IllegalInstruction {
        /// The offending word.
        word: u32,
    },
    /// Access to the null page or beyond the end of memory.
    Unmapped {
        /// The faulting address.
        addr: u32,
    },
    /// Word access at a non-word-aligned address.
    Misaligned {
        /// The faulting address.
        addr: u32,
    },
    /// `divw`/`divwu`/`remw` with a zero divisor.
    DivideByZero,
    /// The stack pointer (r1) was moved below the core's stack floor,
    /// typically by runaway recursion.
    StackOverflow,
    /// Heap-interface misuse: wild or double `free`.
    HeapFault {
        /// The pointer passed to `free`.
        addr: u32,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::IllegalInstruction { word } => write!(f, "illegal instruction {word:#010x}"),
            Trap::Unmapped { addr } => write!(f, "unmapped address {addr:#010x}"),
            Trap::Misaligned { addr } => write!(f, "misaligned access {addr:#010x}"),
            Trap::DivideByZero => f.write_str("division by zero"),
            Trap::StackOverflow => f.write_str("stack overflow"),
            Trap::HeapFault { addr } => write!(f, "heap fault freeing {addr:#010x}"),
        }
    }
}

impl std::error::Error for Trap {}

/// Scheduling state of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    Running,
    WaitingBarrier,
    Halted(i32),
}

/// Architectural state of one core.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// General-purpose registers; r1 is the stack pointer by convention.
    pub regs: [u32; 32],
    /// Link register.
    pub lr: u32,
    /// Condition register: eight 4-bit fields (LT, GT, EQ, SO).
    pub cr: u32,
    /// Program counter.
    pub pc: u32,
    stack_floor: u32,
    state: CoreState,
}

impl Cpu {
    fn new(entry: u32, stack_top: u32, stack_floor: u32, core_id: u32) -> Cpu {
        let mut regs = [0u32; 32];
        regs[1] = stack_top;
        regs[3] = core_id;
        Cpu {
            regs,
            lr: 0,
            cr: 0,
            pc: entry,
            stack_floor,
            state: CoreState::Running,
        }
    }

    /// Value of a condition-register bit.
    #[inline]
    pub fn cr_bit(&self, crf: u8, bit: CrBit) -> bool {
        (self.cr >> ((crf as u32 & 7) * 4 + bit.index())) & 1 == 1
    }

    #[inline]
    fn set_cr_field(&mut self, crf: u8, lt: bool, gt: bool, eq: bool) {
        let shift = (crf as u32 & 7) * 4;
        self.cr &= !(0xF << shift);
        let v = (lt as u32) | ((gt as u32) << 1) | ((eq as u32) << 2);
        self.cr |= v << shift;
    }
}

/// Sizing and limits for a [`Machine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Guest memory size in bytes (word-aligned; default 1 MiB).
    pub mem_size: u32,
    /// Number of cores (default 1).
    pub num_cores: usize,
    /// Stack bytes reserved per core at the top of memory (default 64 KiB).
    pub stack_size: u32,
    /// Total retired-instruction budget before the run is declared a hang
    /// (default 50 million).
    pub budget: u64,
    /// Output-stream cap in bytes; exceeding it also counts as a hang
    /// (a dead loop that prints; default 1 MiB).
    pub output_limit: usize,
    /// Instructions per scheduling quantum on multi-core machines
    /// (default 64).
    pub quantum: u32,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            mem_size: 1 << 20,
            num_cores: 1,
            stack_size: 64 << 10,
            budget: 50_000_000,
            output_limit: 1 << 20,
            quantum: 64,
        }
    }
}

impl MachineConfig {
    /// Whether this configuration can build a machine that holds `image`:
    /// at least one core, stacks that fit in half of memory, and an image
    /// whose static footprint ends below the stacks; if so, the lowest
    /// stack address. These are the checks [`Machine::new`] and
    /// [`Machine::load`] panic on, for callers that take the configuration
    /// or the program from a user.
    pub fn check_fit(&self, image: &Image) -> Result<u32, String> {
        let stacks_base = self.stacks_base()?;
        if image.static_end() > stacks_base {
            return Err(format!(
                "image static footprint {:#x} collides with stacks at {:#x}",
                image.static_end(),
                stacks_base
            ));
        }
        Ok(stacks_base)
    }

    /// The lowest stack address, if the configuration has at least one
    /// core and its stacks fit in half of memory.
    fn stacks_base(&self) -> Result<u32, String> {
        if self.num_cores == 0 {
            return Err("need at least one core".to_string());
        }
        let stacks = u64::from(self.stack_size).saturating_mul(self.num_cores as u64);
        if stacks >= u64::from(self.mem_size) / 2 {
            return Err(format!(
                "stacks ({stacks} bytes for {} cores) must fit in half of memory",
                self.num_cores
            ));
        }
        Ok(self.mem_size - stacks as u32)
    }
}

/// The observable result of one program run — the paper's failure modes.
///
/// `Completed` still has to be checked against an output oracle to decide
/// between the *correct* and *incorrect results* failure modes; the machine
/// cannot know what the right answer was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every core halted normally.
    Completed {
        /// Exit code of core 0.
        exit_code: i32,
        /// Everything the program printed.
        output: Vec<u8>,
    },
    /// A core raised a [`Trap`] — the *crash* failure mode.
    Trapped {
        /// The error condition.
        trap: Trap,
        /// Address of the faulting instruction.
        pc: u32,
        /// Which core trapped.
        core: usize,
        /// Output produced before the crash.
        output: Vec<u8>,
    },
    /// The instruction budget or output cap was exhausted — the *hang*
    /// failure mode (the paper's experiment manager killed such runs after
    /// a timeout).
    Hang {
        /// Output produced before the timeout.
        output: Vec<u8>,
    },
}

impl RunOutcome {
    /// The program output regardless of how the run ended.
    pub fn output(&self) -> &[u8] {
        match self {
            RunOutcome::Completed { output, .. }
            | RunOutcome::Trapped { output, .. }
            | RunOutcome::Hang { output } => output,
        }
    }

    /// Whether the run terminated normally (exit code 0 and no trap/hang).
    pub fn is_normal(&self) -> bool {
        matches!(self, RunOutcome::Completed { exit_code: 0, .. })
    }
}

/// Input tape feeding the `read_int` / `read_byte` syscalls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InputTape {
    ints: VecDeque<i32>,
    bytes: VecDeque<u8>,
}

impl InputTape {
    /// Empty tape.
    pub fn new() -> InputTape {
        InputTape::default()
    }

    /// Append integers consumed by `read_int`.
    pub fn push_ints<I: IntoIterator<Item = i32>>(&mut self, ints: I) -> &mut InputTape {
        self.ints.extend(ints);
        self
    }

    /// Append raw bytes consumed by `read_byte`.
    pub fn push_bytes<I: IntoIterator<Item = u8>>(&mut self, bytes: I) -> &mut InputTape {
        self.bytes.extend(bytes);
        self
    }

    /// Append a string plus newline to the byte stream.
    pub fn push_line(&mut self, line: &str) -> &mut InputTape {
        self.bytes.extend(line.bytes());
        self.bytes.push_back(b'\n');
        self
    }
}

enum Progress {
    Continue,
    StateChange,
    /// A syscall pushed the output stream past the configured cap; the run
    /// ends as a hang. Checked only where output can grow (the syscall
    /// path) so the hot loop does not pay for it per iteration.
    OutputLimit,
    /// The armed fetch breakpoint was reached: the instruction at the
    /// break PC has *not* been fetched or executed, `retired` has not
    /// advanced, and `core.pc` still points at it.
    Breakpoint,
}

/// How a [`Machine::run_inner`] loop ended: a finished run, or a pause at
/// the armed fetch breakpoint.
enum RunControl {
    Done(RunOutcome),
    Break,
}

/// A sorted set of fetch breakpoints for [`Machine::run_to_watch`]: the
/// machine pauses just before the listed arrivals `(pc, occurrence)` at
/// each watched PC.
///
/// A PC stays breakpoint-pinned and counted until its last listed
/// occurrence pauses the machine; it then leaves the set and loses its
/// breakpoint pin (a PC the fetch policy pins is a trigger pin again), so
/// calling
/// [`Machine::run_to_watch`] again continues the same run to the next
/// watched arrival. One clean run thus pauses at every listed arrival of
/// every watched PC, and the rest of the run stays in blocks.
#[derive(Debug, Clone, Default)]
pub struct FetchWatch {
    /// Watched PCs with arrivals still to pause at, sorted.
    pcs: Vec<u32>,
    /// Arrivals observed at each PC of `pcs`, in the same order (the
    /// would-be trigger occurrence count of an `OpcodeFetch` fault there).
    seen: Vec<u64>,
    /// The 1-based arrivals each PC of `pcs` still pauses at, descending,
    /// so the next one is last.
    pauses: Vec<Vec<u64>>,
    /// Whether each PC of `pcs` was pinned by this watch alone rather than
    /// also by the inspector's fetch policy: a finished PC drops its
    /// breakpoint pin, and a PC the policy pins gets its trigger pin back.
    owned: Vec<bool>,
    /// Set by the first [`Machine::run_to_watch`], which installs the
    /// run's fetch policy and pins the watched PCs; later calls continue.
    armed: bool,
}

impl FetchWatch {
    /// Watch `points`, pausing just before each `(pc, occurrence)`.
    ///
    /// # Panics
    ///
    /// Panics on an occurrence of 0 (occurrence counts are 1-based).
    pub fn new(points: impl IntoIterator<Item = (u32, u64)>) -> FetchWatch {
        let mut points: Vec<(u32, u64)> = points.into_iter().collect();
        assert!(
            points.iter().all(|&(_, occ)| occ >= 1),
            "occurrence counts are 1-based"
        );
        points.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        points.dedup();
        let mut watch = FetchWatch::default();
        for (pc, occ) in points {
            if watch.pcs.last() != Some(&pc) {
                watch.pcs.push(pc);
                watch.seen.push(0);
                watch.pauses.push(Vec::new());
                watch.owned.push(false);
            }
            watch.pauses.last_mut().expect("pushed above").push(occ);
        }
        watch
    }

    /// Whether every listed arrival has paused the machine.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The watched PCs with arrivals still to pause at, each with the
    /// arrivals observed there. After [`FetchStop::Finished`] these are
    /// the run's *total* arrival counts, which prove the pending
    /// occurrences never come.
    pub fn pending(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.pcs.iter().copied().zip(self.seen.iter().copied())
    }
}

/// Result of [`Machine::run_to_watch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchStop {
    /// This watched PC was about to be fetched for this (1-based)
    /// occurrence. The machine is paused exactly *before* that fetch: the
    /// instruction has not executed, no fetch hook has seen it, and
    /// `Machine::retired` has not advanced past the prefix.
    Hit(u32, u64),
    /// The run finished (or hung/trapped) before every watched arrival
    /// came — the outcome is exactly that of an ordinary
    /// [`Machine::run`].
    Finished(RunOutcome),
}

/// A sparse capture of a paused run, relative to the base
/// [`MachineSnapshot`]: the memory pages that diverge plus the (small)
/// non-memory state — cores, allocator bookkeeping, the partially consumed
/// input tape, output produced so far, and the retired-instruction count.
///
/// Taken with [`Machine::fork_snapshot`] (typically at a
/// [`Machine::run_to_watch`] pause) and resumed with
/// [`Machine::restore_fork`]. Decoded-line state is *not* captured: the
/// translation cache persists in the machine and restore invalidates
/// exactly the code words a restore changes, so lines built during the
/// prefix keep serving forked suffixes.
///
/// A fork snapshot may be restored on a *different* machine than it was
/// captured on, provided both were built from the same config and image
/// (byte-identical base snapshots).
#[derive(Debug, Clone)]
pub struct ForkSnapshot {
    mem: MemoryDelta,
    cores: Vec<Cpu>,
    alloc: Allocator,
    input: InputTape,
    output: Vec<u8>,
    retired: u64,
}

impl ForkSnapshot {
    /// Instructions retired by the captured prefix.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Number of memory pages stored in the delta.
    pub fn delta_pages(&self) -> usize {
        self.mem.page_count()
    }

    /// Approximate heap footprint in bytes (for cache bounding).
    pub fn byte_count(&self) -> usize {
        self.mem.byte_count() + self.output.len()
    }
}

/// A point-in-time capture of a loaded [`Machine`]: a full copy of
/// memory, plus the clean state itself as a [`ForkSnapshot`] with an empty
/// delta (cores, heap allocator bookkeeping, input tape, output and
/// instruction counter).
///
/// Taken with [`Machine::snapshot`] (normally right after
/// [`Machine::load`]) and applied with [`Machine::restore`], which rolls
/// back only the state a run actually touched. The snapshot is tied to the
/// machine it was taken from — restoring it into a machine with a
/// different memory size panics.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    mem: MemorySnapshot,
    clean: ForkSnapshot,
}

impl MachineSnapshot {
    /// Size of the snapshotted guest memory in bytes.
    pub fn mem_size(&self) -> u32 {
        self.mem.size()
    }
}

/// A complete P601-lite machine. See the [module docs](self) for an
/// end-to-end example.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    mem: Memory,
    /// Basic-block superinstruction cache — the fast one of the VM's two
    /// tiers (blocks and [`Machine::step`]). A sibling of `mem` rather
    /// than part of it so the interpreter's split borrows can hold a
    /// translated block and mutate guest memory at the same time; kept
    /// coherent through `Memory`'s code-write log, drained before every
    /// block dispatch.
    blocks: BlockCache,
    cores: Vec<Cpu>,
    alloc: Allocator,
    input: InputTape,
    output: Vec<u8>,
    retired: u64,
    loaded: bool,
    /// Seed-compatible interpretation: decode every fetched word and call
    /// `on_fetch` unconditionally, never consulting the translation cache.
    /// The reference mode for differential testing and benchmarking.
    reference_interp: bool,
    /// When `true`, the active inspector declared [`FetchPolicy::All`]:
    /// every PC takes the slow fetch path for this run.
    pin_all: bool,
    /// Whether cached runs may dispatch translated basic blocks (default).
    /// When `false` every instruction goes through [`Machine::step`] —
    /// an execution-strategy toggle, never a semantic change.
    block_interp: bool,
    /// PCs pinned for the current run: the active inspector's
    /// [`FetchPolicy::Pcs`] set (trigger pins) and the PCs a fetch watch
    /// pinned for itself (breakpoint pins); unpinned when the next run
    /// installs its own policy.
    pinned_pcs: Vec<u32>,
    /// A word a block's fetch step fetched and offered to `on_fetch`, and
    /// that the hook turned into something the block cannot run (a
    /// branch, syscall, halt or illegal word): the next
    /// [`Machine::step`] executes it instead of fetching again, so the
    /// arrival reaches the hook once.
    pending_fetch: Option<u32>,
    /// Wall-clock watchdog for the current run: when set, [`Machine::run`]
    /// returns [`RunOutcome::Hang`] once the deadline passes — defense in
    /// depth above the instruction budget for runs that are slow rather
    /// than long (e.g. pathological slow-path behaviour under injection).
    deadline: Option<Instant>,
    /// The `retired` count at which the armed deadline is next polled
    /// (`u64::MAX` with no deadline); set by `run_inner`.
    poll_at: u64,
    /// Fetch breakpoints armed for the current [`Machine::run_to_watch`]
    /// call; always `None` outside it, so ordinary runs pay nothing.
    fetch_break: Option<FetchWatch>,
}

/// Retired instructions between wall-clock reads while a watchdog
/// deadline is armed, on every tier.
pub const WATCHDOG_POLL_INSTRS: u64 = 1 << 16;

impl Machine {
    /// Build a machine per `config` with empty memory and input.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero cores, or stacks
    /// that do not fit in memory) — configuration errors, not guest faults;
    /// [`MachineConfig::check_fit`] reports them as errors.
    pub fn new(config: MachineConfig) -> Machine {
        config.stacks_base().unwrap_or_else(|e| panic!("{e}"));
        let mem = Memory::new(config.mem_size);
        Machine {
            config,
            mem,
            blocks: BlockCache::default(),
            cores: Vec::new(),
            alloc: Allocator::new(CODE_BASE, CODE_BASE),
            input: InputTape::new(),
            output: Vec::new(),
            retired: 0,
            loaded: false,
            reference_interp: false,
            pin_all: false,
            block_interp: true,
            pinned_pcs: Vec::new(),
            pending_fetch: None,
            deadline: None,
            poll_at: u64::MAX,
            fetch_break: None,
        }
    }

    /// Load an image: copy code and data into memory, set up the heap
    /// between the static footprint and the stacks, and reset every core to
    /// the entry point.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit below the stack region
    /// ([`MachineConfig::check_fit`] reports that as an error).
    pub fn load(&mut self, image: &Image) {
        let stacks_base = self
            .config
            .check_fit(image)
            .unwrap_or_else(|e| panic!("{e}"));
        // Bulk-copy the code image as one byte-slice write instead of a
        // per-word `write_u32` loop: one bounds check, one dirty-range
        // mark, one `copy_from_slice`.
        let mut code_bytes = Vec::with_capacity(image.code.len() * 4);
        for &w in &image.code {
            code_bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.mem
            .write_bytes(CODE_BASE, &code_bytes)
            .expect("code fits");
        self.mem
            .write_bytes(image.data_base(), &image.data)
            .expect("data fits");
        // The translation cache covers exactly the code segment; PCs in the
        // data region (or injected jumps into data) fall outside it and
        // execute via the slow fetch→decode path, so self-generated code
        // anywhere else still behaves.
        self.mem.init_decode_cache(image.data_base());
        // The block cache covers the same words; translation is lazy, so a
        // load costs one map reset regardless of code size.
        self.blocks.init(image.code.len());
        self.alloc = Allocator::new(image.static_end(), stacks_base);
        self.cores = (0..self.config.num_cores)
            .map(|i| {
                let top = self.config.mem_size - self.config.stack_size * i as u32;
                Cpu::new(image.entry, top, top - self.config.stack_size, i as u32)
            })
            .collect();
        self.pinned_pcs.clear();
        self.loaded = true;
    }

    /// Capture the current machine state as a [`MachineSnapshot`] and make
    /// it the baseline for subsequent [`Machine::restore`] calls.
    ///
    /// Intended use: call once right after [`Machine::load`] (and any
    /// fault-preparation pokes that should persist across runs), then
    /// `restore` between runs instead of re-building the machine.
    ///
    /// # Panics
    ///
    /// Panics if no image has been loaded — snapshotting an empty machine
    /// is a lifecycle error.
    pub fn snapshot(&mut self) -> MachineSnapshot {
        assert!(self.loaded, "Machine::load must be called before snapshot");
        let mem = self.mem.snapshot();
        MachineSnapshot {
            mem,
            clean: self.fork_snapshot(),
        }
    }

    /// Warm reboot: roll the machine back to `snap`, as a
    /// [`Machine::restore_fork`] of the snapshot's own empty-delta fork.
    ///
    /// Memory is restored by copying only the pages that may differ from
    /// the snapshot; cores, allocator, input tape, output stream, and the
    /// retired-instruction counter are reset wholesale (they are tiny).
    /// After `restore` the machine is observably identical to one freshly
    /// built and loaded — the warm-reboot equivalence invariant.
    ///
    /// # Panics
    ///
    /// Panics if `snap` was taken from a machine with a different memory
    /// size (a configuration error, not a guest fault).
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        self.restore_fork(snap, &snap.clean);
    }

    /// Capture the current state as a sparse [`ForkSnapshot`] relative to
    /// the base snapshot (the last [`Machine::snapshot`]).
    ///
    /// Non-destructive: dirty tracking is left untouched, so the paused
    /// run can simply continue afterwards — which is how a prefix capture
    /// doubles as the first injected run of its trigger site.
    ///
    /// # Panics
    ///
    /// Panics if no image has been loaded.
    pub fn fork_snapshot(&self) -> ForkSnapshot {
        assert!(
            self.loaded,
            "Machine::load must be called before fork_snapshot"
        );
        ForkSnapshot {
            mem: self.mem.fork_delta(),
            cores: self.cores.clone(),
            alloc: self.alloc.clone(),
            input: self.input.clone(),
            output: self.output.clone(),
            retired: self.retired,
        }
    }

    /// Resume from a prefix fork: roll the machine to `base` overlaid with
    /// `fork` — the exact state the paused run had when
    /// [`Machine::fork_snapshot`] captured it, including the partially
    /// consumed input tape, output so far, and the retired counter.
    ///
    /// Memory cost is O(pages diverging from base + pages in the fork).
    /// The caller does *not* call [`Machine::set_input`] afterwards: the
    /// fork already contains the mid-run tape.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `fork` was taken from a different-size machine.
    pub fn restore_fork(&mut self, base: &MachineSnapshot, fork: &ForkSnapshot) {
        self.mem.restore_fork_from(&base.mem, &fork.mem);
        self.cores.clone_from(&fork.cores);
        self.alloc.clone_from(&fork.alloc);
        self.input.clone_from(&fork.input);
        self.output.clone_from(&fork.output);
        self.retired = fork.retired;
        self.loaded = true;
    }

    /// Number of cores the machine was configured with.
    pub fn num_cores(&self) -> usize {
        self.config.num_cores
    }

    /// Number of memory pages that may differ from the base snapshot:
    /// written since the last restore, or overlaid by it (diagnostic; the
    /// next restore copies exactly these pages back).
    pub fn dirty_pages(&self) -> usize {
        self.mem.dirty_pages()
    }

    /// How many of [`Machine::dirty_pages`] overlap the code region, where
    /// a restore also compares words to keep decoded lines coherent.
    pub fn dirty_code_pages(&self) -> usize {
        self.mem.dirty_code_pages()
    }

    /// Replace the input tape (before running).
    pub fn set_input(&mut self, input: InputTape) {
        self.input = input;
    }

    /// Direct memory read (for loaders, injectors and tests).
    ///
    /// # Errors
    ///
    /// Propagates the same traps as guest accesses.
    pub fn peek_u32(&self, addr: u32) -> Result<u32, Trap> {
        self.mem.read_u32(addr)
    }

    /// Direct memory write (for loaders, injectors and tests). This is how
    /// Xception's "error inserted in memory at the location of the
    /// instruction" fault model is realised.
    ///
    /// # Errors
    ///
    /// Propagates the same traps as guest accesses.
    pub fn poke_u32(&mut self, addr: u32, value: u32) -> Result<(), Trap> {
        self.mem.write_u32(addr, value)
    }

    /// Architectural state of a core (diagnostics, assertions in tests).
    pub fn core(&self, i: usize) -> &Cpu {
        &self.cores[i]
    }

    /// Total retired instructions so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Heap allocator statistics (for leak assertions in tests).
    pub fn allocator(&self) -> &Allocator {
        &self.alloc
    }

    /// Arm (or disarm, with `None`) the wall-clock watchdog for subsequent
    /// runs: a run still executing past `deadline` returns
    /// [`RunOutcome::Hang`], exactly like instruction-budget exhaustion.
    ///
    /// The deadline is read when a run starts or resumes, so a deadline
    /// already past fires before any instruction retires, and then every
    /// [`WATCHDOG_POLL_INSTRS`] retired instructions on every tier: a
    /// single-core cached segment stops at the next poll point, and a
    /// multi-core scheduler round is at most `cores × quantum` long.
    /// Without a deadline nothing is capped or read. Callers re-arm per
    /// run; [`Machine::restore`] leaves the setting alone.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Switch between the predecoded-cache interpreter (default) and the
    /// seed's decode-every-fetch reference interpreter.
    ///
    /// In reference mode every instruction takes the slow
    /// fetch→`on_fetch`→decode path regardless of the inspector's
    /// [`FetchPolicy`] — byte-for-byte the seed interpreter's behaviour.
    /// Used by differential tests and as the benchmark baseline.
    pub fn set_reference_interp(&mut self, reference: bool) {
        self.reference_interp = reference;
    }

    /// Whether the machine is in reference (decode-every-fetch) mode.
    pub fn reference_interp(&self) -> bool {
        self.reference_interp
    }

    /// Cumulative translation-cache counters since the last
    /// [`Machine::load`] (warm reboots do not reset them).
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.mem.decode_cache_stats()
    }

    /// Enable or disable the basic-block interpreter for subsequent cached
    /// runs (enabled by default). Disabling it sends every instruction
    /// through [`Machine::step`] over the predecoded lines; observables are
    /// identical either way (a tested invariant), so this is purely an
    /// execution-strategy switch for benchmarking and for
    /// `--no-block-cache` campaigns.
    pub fn set_block_interp(&mut self, enabled: bool) {
        self.block_interp = enabled;
    }

    /// Whether the block interpreter is enabled for cached runs.
    pub fn block_interp(&self) -> bool {
        self.block_interp
    }

    /// Cumulative block-cache counters since the last [`Machine::load`]
    /// (warm reboots do not reset them).
    pub fn block_cache_stats(&self) -> BlockCacheStats {
        self.blocks.stats
    }

    /// Install `policy` for the coming run: drop the previous run's pins
    /// that the new policy does not keep, then trigger-pin the PCs the new
    /// inspector may corrupt at fetch time. A PC pinned for both runs
    /// keeps its pin, so the blocks built over it stay valid.
    fn apply_fetch_policy(&mut self, policy: FetchPolicy) {
        let old = std::mem::take(&mut self.pinned_pcs);
        let (pin_all, pcs) = match policy {
            FetchPolicy::None => (false, Vec::new()),
            FetchPolicy::All => (true, Vec::new()),
            FetchPolicy::Pcs(pcs) => (false, pcs),
        };
        self.pin_all = pin_all;
        for pc in old {
            if !pcs.contains(&pc) {
                self.mem.unpin_fetch(pc);
            }
        }
        for &pc in &pcs {
            self.mem.pin_trigger(pc);
        }
        self.pinned_pcs = pcs;
    }

    /// Execute until completion, trap, or budget/output exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if no image has been loaded.
    pub fn run<I: Inspector>(&mut self, inspector: &mut I) -> RunOutcome {
        assert!(self.loaded, "Machine::load must be called before run");
        self.apply_fetch_policy(inspector.fetch_policy());
        match self.run_inner(inspector) {
            RunControl::Done(outcome) => outcome,
            // No breakpoint is armed outside `run_to_watch`.
            RunControl::Break => unreachable!("fetch breakpoint outside run_to_watch"),
        }
    }

    /// Execute until a PC of `watch` is about to be fetched for one of its
    /// listed occurrences, or until the run ends first.
    ///
    /// The first call installs `inspector`'s fetch policy and puts a
    /// breakpoint pin on every watched PC, trigger-pinned or not, so no
    /// translated block covers it and every arrival goes through
    /// [`Machine::step`], where the breakpoints are checked. A
    /// hit at a PC's last listed occurrence removes the PC from `watch`
    /// and drops its breakpoint pin, restoring the trigger pin where the
    /// policy has one; calling again with the same watch and inspector
    /// continues the paused run. Pins left at the end are dropped when
    /// the next run installs its policy.
    ///
    /// # Panics
    ///
    /// Panics if no image is loaded, or on a multi-core machine — a
    /// mid-quantum pause cannot capture the scheduler position of the
    /// other cores, so prefix forking is single-core only.
    pub fn run_to_watch<I: Inspector>(
        &mut self,
        watch: &mut FetchWatch,
        inspector: &mut I,
    ) -> FetchStop {
        assert!(self.loaded, "Machine::load must be called before run");
        assert_eq!(
            self.cores.len(),
            1,
            "fetch breakpoints require a single-core machine"
        );
        if !watch.armed {
            self.apply_fetch_policy(inspector.fetch_policy());
            for (&pc, owned) in watch.pcs.iter().zip(&mut watch.owned) {
                self.mem.pin_breakpoint(pc);
                if !self.pinned_pcs.contains(&pc) {
                    self.pinned_pcs.push(pc);
                    *owned = true;
                }
            }
            watch.armed = true;
        }
        self.fetch_break = Some(std::mem::take(watch));
        let control = self.run_inner(inspector);
        *watch = self.fetch_break.take().expect("armed above");
        match control {
            RunControl::Done(outcome) => FetchStop::Finished(outcome),
            RunControl::Break => {
                let pc = self.cores[0].pc;
                let i = watch
                    .pcs
                    .binary_search(&pc)
                    .expect("paused at a watched pc");
                let occ = watch.pauses[i].pop().expect("paused at a listed arrival");
                if watch.pauses[i].is_empty() {
                    watch.pcs.remove(i);
                    watch.seen.remove(i);
                    watch.pauses.remove(i);
                    if watch.owned.remove(i) {
                        self.mem.unpin_fetch(pc);
                        self.pinned_pcs.retain(|&p| p != pc);
                    } else {
                        self.mem.pin_trigger(pc);
                    }
                }
                FetchStop::Hit(pc, occ)
            }
        }
    }

    /// The scheduler loop shared by [`Machine::run`] and
    /// [`Machine::run_to_watch`]; the fetch policy is already applied.
    fn run_inner<I: Inspector>(&mut self, inspector: &mut I) -> RunControl {
        // The watchdog polls at once, so a zero-length deadline (tests,
        // CI smoke) fires deterministically before any instruction
        // retires, then every `WATCHDOG_POLL_INSTRS` retired instructions.
        self.poll_at = if self.deadline.is_some() {
            self.retired
        } else {
            u64::MAX
        };
        loop {
            // The output cap is checked on the syscall path (the only place
            // output grows — see `Progress::OutputLimit`), not here, so the
            // hot loop pays for the budget comparison alone.
            if self.retired >= self.config.budget {
                return RunControl::Done(RunOutcome::Hang {
                    output: std::mem::take(&mut self.output),
                });
            }
            if self.retired >= self.poll_at {
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    return RunControl::Done(RunOutcome::Hang {
                        output: std::mem::take(&mut self.output),
                    });
                }
                self.poll_at = self.retired + WATCHDOG_POLL_INSTRS;
            }
            let mut any_running = false;
            for c in 0..self.cores.len() {
                if self.cores[c].state != CoreState::Running {
                    continue;
                }
                any_running = true;
                match self.run_quantum_body(c, inspector) {
                    Ok(Progress::Continue | Progress::StateChange) => {}
                    Ok(Progress::Breakpoint) => return RunControl::Break,
                    Ok(Progress::OutputLimit) => {
                        return RunControl::Done(RunOutcome::Hang {
                            output: std::mem::take(&mut self.output),
                        });
                    }
                    Err((trap, pc)) => {
                        return RunControl::Done(RunOutcome::Trapped {
                            trap,
                            pc,
                            core: c,
                            output: std::mem::take(&mut self.output),
                        });
                    }
                }
            }
            // Barrier release: *every* core of the machine must arrive. A
            // halted (or crashed) partner therefore deadlocks the barrier,
            // which the budget turns into the hang failure mode — matching
            // the global-barrier semantics of the paper's Parix target.
            let waiting = self
                .cores
                .iter()
                .filter(|c| c.state == CoreState::WaitingBarrier)
                .count();
            if waiting > 0 && waiting == self.cores.len() {
                for c in &mut self.cores {
                    if c.state == CoreState::WaitingBarrier {
                        c.state = CoreState::Running;
                    }
                }
                continue;
            }
            if self
                .cores
                .iter()
                .all(|c| matches!(c.state, CoreState::Halted(_)))
            {
                let exit_code = match self.cores[0].state {
                    CoreState::Halted(code) => code,
                    _ => unreachable!(),
                };
                return RunControl::Done(RunOutcome::Completed {
                    exit_code,
                    output: std::mem::take(&mut self.output),
                });
            }
            if !any_running {
                // Deadlock (e.g. barrier with a halted partner): burn budget
                // so the run ends as a hang, like the paper's watchdog.
                self.retired += self.cores.len() as u64 * self.config.quantum as u64;
            }
        }
    }

    /// Execute up to one scheduling quantum on core `c` — the VM's hot
    /// loop over its two tiers, translated blocks and [`Machine::step`].
    ///
    /// The machine's borrows are split once per tight segment (`cores` /
    /// `mem` / `blocks` / `retired`) and the program counter lives in a
    /// register; the segment dispatches block after block (see
    /// [`crate::blocks`] and [`run_block`]) until something needs the full
    /// machine. A trigger-pinned data instruction runs inside its block as
    /// a fetch step. Anything a block cannot represent — breakpoint pins,
    /// syscalls, halts, illegal words, PCs outside the cache, a trigger
    /// fetch corrupted into one of those — goes to `step`, the reference
    /// interpreter, for exactly one instruction, so observables and
    /// accounting are byte-for-byte the same. A block that does not fit the
    /// fused quantum/budget countdown runs its longest prefix of whole steps
    /// that does ([`run_tail`]); when not even its first step fits, that
    /// instruction goes to `step` as well. Reference mode,
    /// [`FetchPolicy::All`] and a disabled block interpreter send every
    /// instruction to `step`. Kept out of line so it does not share
    /// register allocation with the scheduler loop in `run_inner`.
    #[inline(never)]
    fn run_quantum_body<I: Inspector>(
        &mut self,
        c: usize,
        insp: &mut I,
    ) -> Result<Progress, (Trap, u32)> {
        let use_blocks = self.block_interp && !self.reference_interp && !self.pin_all;
        // The scheduling quantum exists to interleave cores; with a single
        // core there is nothing to interleave and no observable difference
        // between quanta, so run until a state change or the budget ends
        // instead of bouncing through the outer scheduler every 64 steps;
        // only an armed watchdog's next poll point ends the segment early.
        let end = if self.cores.len() == 1 {
            self.config.budget.min(self.poll_at)
        } else {
            (self.retired + u64::from(self.config.quantum)).min(self.config.budget)
        };
        while self.retired < end {
            'tight: {
                let Machine {
                    cores,
                    mem,
                    blocks,
                    retired,
                    pending_fetch,
                    ..
                } = &mut *self;
                let core = &mut cores[c];
                let mut pc = core.pc;
                // Disjoint halves of the block cache: the executor holds a
                // `&Block` out of `blk_store` across a whole dispatch while
                // still bumping `blk_stats`.
                let BlockCache {
                    store: blk_store,
                    stats: blk_stats,
                } = &mut *blocks;
                // Count down what is left of the quantum and budget in a
                // register; the architectural `retired` counter is
                // committed on every exit from the segment.
                let seg = end - *retired;
                let mut left = seg;
                macro_rules! commit {
                    () => {{
                        *retired += seg - left;
                        core.pc = pc;
                    }};
                }
                while use_blocks && left > 0 {
                    // Apply pending code writes (injector pokes, guest
                    // stores, restore diffs, pin changes) to the block
                    // cache before trusting any translation.
                    if mem.has_code_writes()
                        && mem.drain_code_writes(|a, b| blk_store.invalidate_words(a, b, blk_stats))
                    {
                        blk_store.flush_all(blk_stats);
                    }
                    let Some(blk) = blk_store.lookup_or_translate(pc, mem, blk_stats) else {
                        break;
                    };
                    let ran = if u64::from(blk.cost) <= left {
                        blk_stats.block_hits += 1;
                        left -= u64::from(blk.cost);
                        let (k, cost) = (blk.body.len(), blk.cost);
                        if insp.block_quiescent(c, pc, blk.last_pc()) {
                            run_block::<I, false, true>(
                                core, mem, insp, c, pc, blk, k, cost, blk_stats, &mut left,
                            )
                        } else {
                            run_block::<I, true, true>(
                                core, mem, insp, c, pc, blk, k, cost, blk_stats, &mut left,
                            )
                        }
                    } else {
                        let (k, planned) = blk.prefix(left);
                        if planned == 0 {
                            break;
                        }
                        blk_stats.block_hits += 1;
                        left -= u64::from(planned);
                        run_tail(
                            core, mem, insp, c, pc, blk, k, planned, blk_stats, &mut left,
                        )
                    };
                    match ran {
                        Ok(next) => pc = next,
                        Err((Stop::Trap(t), at)) => {
                            pc = at;
                            commit!();
                            return Err((t, at));
                        }
                        Err((Stop::Fetched(word), at)) => {
                            // `step` executes the fetched word without
                            // fetching it again.
                            pc = at;
                            *pending_fetch = Some(word);
                            commit!();
                            break 'tight;
                        }
                    }
                }
                commit!();
                if left == 0 {
                    // Quantum or budget exhausted; the outer scheduler decides.
                    return Ok(Progress::Continue);
                }
                if use_blocks {
                    // No block at this PC, or not even its first step
                    // fits: one instruction through `step`.
                    blk_stats.fallback_dispatches += 1;
                }
            }
            match self.step(c, insp)? {
                Progress::Continue => {}
                p => return Ok(p),
            }
        }
        Ok(Progress::Continue)
    }

    /// The seed fetch path: read the word, offer it to the inspector for
    /// corruption, decode the (possibly corrupted) result. Taken for pinned
    /// PCs, PCs outside the cached code region, words that do not decode,
    /// and — for every PC — under `FetchPolicy::All` or reference mode.
    /// A word left pending by a block's fetch step was already read,
    /// counted and offered to the inspector; it is only decoded here.
    #[inline]
    fn fetch_slow<I: Inspector>(
        &mut self,
        c: usize,
        pc: u32,
        insp: &mut I,
    ) -> Result<Instr, (Trap, u32)> {
        let word = match self.pending_fetch.take() {
            Some(word) => word,
            None => {
                self.mem.note_slow_fetch();
                let mut word = self.mem.read_u32(pc).map_err(|t| (t, pc))?;
                insp.on_fetch(c, pc, &mut word);
                word
            }
        };
        isa::decode(word).map_err(|e| (Trap::IllegalInstruction { word: e.word }, pc))
    }

    fn step<I: Inspector>(&mut self, c: usize, insp: &mut I) -> Result<Progress, (Trap, u32)> {
        let pc = self.cores[c].pc;
        // Fetch breakpoints (`run_to_watch`): checked before the fetch so
        // a hit pauses the machine with the trigger instruction unexecuted
        // and unobserved. Watched PCs are pinned, so in cached mode every
        // arrival funnels through this step path. A pausing arrival is
        // counted when the run resumes through it: by then its occurrence
        // has left the PC's pause list.
        if let Some(watch) = &mut self.fetch_break {
            if let Ok(i) = watch.pcs.binary_search(&pc) {
                if watch.pauses[i].last() == Some(&(watch.seen[i] + 1)) {
                    return Ok(Progress::Breakpoint);
                }
                watch.seen[i] += 1;
            }
        }
        let instr = if self.reference_interp || self.pin_all {
            self.fetch_slow(c, pc, insp)?
        } else {
            // Fast path: replay the predecoded line. `None` covers every
            // case that needs fetch semantics (pin, illegal word, PC
            // outside the cache, misalignment) — fall back to the exact
            // seed path so traps and `on_fetch` corruption are identical.
            // A pending fetch is always at a trigger pin, hence `None`.
            match self.mem.fetch_decoded(pc) {
                Some(i) => {
                    debug_assert!(
                        self.pending_fetch.is_none(),
                        "pending fetch at a cached line"
                    );
                    i
                }
                None => self.fetch_slow(c, pc, insp)?,
            }
        };
        let mut next_pc = pc.wrapping_add(4);
        let mut progress = Progress::Continue;

        macro_rules! set_reg {
            ($rd:expr, $val:expr) => {{
                let mut v: u32 = $val;
                insp.on_reg_write(c, pc, $rd, &mut v);
                self.cores[c].regs[$rd as usize] = v;
                // Guard-page model: moving the stack pointer below the
                // core's stack floor traps (runaway recursion ⇒ crash).
                if $rd == 1 && v < self.cores[c].stack_floor {
                    return Err((Trap::StackOverflow, pc));
                }
            }};
        }

        match instr {
            Instr::Addi { rd, ra, imm } => {
                set_reg!(
                    rd,
                    self.cores[c].regs[ra as usize].wrapping_add(imm as i32 as u32)
                );
            }
            Instr::Addis { rd, ra, imm } => {
                set_reg!(
                    rd,
                    self.cores[c].regs[ra as usize].wrapping_add((imm as i32 as u32) << 16)
                );
            }
            Instr::Andi { rd, ra, imm } => {
                set_reg!(rd, self.cores[c].regs[ra as usize] & imm as u32);
            }
            Instr::Ori { rd, ra, imm } => {
                set_reg!(rd, self.cores[c].regs[ra as usize] | imm as u32);
            }
            Instr::Xori { rd, ra, imm } => {
                set_reg!(rd, self.cores[c].regs[ra as usize] ^ imm as u32);
            }
            Instr::Cmpi { crf, ra, imm } => {
                let a = self.cores[c].regs[ra as usize] as i32;
                let b = imm as i32;
                self.cores[c].set_cr_field(crf, a < b, a > b, a == b);
            }
            Instr::Cmp { crf, ra, rb } => {
                let a = self.cores[c].regs[ra as usize] as i32;
                let b = self.cores[c].regs[rb as usize] as i32;
                self.cores[c].set_cr_field(crf, a < b, a > b, a == b);
            }
            Instr::Alu { op, rd, ra, rb } => {
                let a = self.cores[c].regs[ra as usize];
                let b = self.cores[c].regs[rb as usize];
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mullw => (a as i32).wrapping_mul(b as i32) as u32,
                    AluOp::Divw => {
                        if b == 0 {
                            return Err((Trap::DivideByZero, pc));
                        }
                        (a as i32).wrapping_div(b as i32) as u32
                    }
                    AluOp::Divwu => {
                        if b == 0 {
                            return Err((Trap::DivideByZero, pc));
                        }
                        a / b
                    }
                    AluOp::Remw => {
                        if b == 0 {
                            return Err((Trap::DivideByZero, pc));
                        }
                        (a as i32).wrapping_rem(b as i32) as u32
                    }
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Nand => !(a & b),
                    AluOp::Nor => !(a | b),
                    AluOp::Slw => a.wrapping_shl(b & 31),
                    AluOp::Srw => a.wrapping_shr(b & 31),
                    AluOp::Sraw => ((a as i32).wrapping_shr(b & 31)) as u32,
                    AluOp::Neg => (a as i32).wrapping_neg() as u32,
                    AluOp::Not => !a,
                };
                set_reg!(rd, v);
            }
            Instr::Lwz { rd, ra, d } => {
                let mut addr = self.cores[c].regs[ra as usize].wrapping_add(d as i32 as u32);
                insp.on_load_addr(c, pc, &mut addr);
                let mut v = self.mem.read_u32(addr).map_err(|t| (t, pc))?;
                insp.on_load_value(c, pc, addr, &mut v);
                set_reg!(rd, v);
            }
            Instr::Lbz { rd, ra, d } => {
                let mut addr = self.cores[c].regs[ra as usize].wrapping_add(d as i32 as u32);
                insp.on_load_addr(c, pc, &mut addr);
                let mut v = self.mem.read_u8(addr).map_err(|t| (t, pc))? as u32;
                insp.on_load_value(c, pc, addr, &mut v);
                set_reg!(rd, v);
            }
            Instr::Stw { rs, ra, d } => {
                let mut addr = self.cores[c].regs[ra as usize].wrapping_add(d as i32 as u32);
                insp.on_store_addr(c, pc, &mut addr);
                let mut v = self.cores[c].regs[rs as usize];
                insp.on_store_value(c, pc, addr, &mut v);
                self.mem.write_u32(addr, v).map_err(|t| (t, pc))?;
            }
            Instr::Stb { rs, ra, d } => {
                let mut addr = self.cores[c].regs[ra as usize].wrapping_add(d as i32 as u32);
                insp.on_store_addr(c, pc, &mut addr);
                let mut v = self.cores[c].regs[rs as usize] & 0xFF;
                insp.on_store_value(c, pc, addr, &mut v);
                self.mem.write_u8(addr, v as u8).map_err(|t| (t, pc))?;
            }
            Instr::B { off } => {
                next_pc = pc.wrapping_add((off as u32).wrapping_mul(4));
            }
            Instr::Bl { off } => {
                self.cores[c].lr = pc.wrapping_add(4);
                next_pc = pc.wrapping_add((off as u32).wrapping_mul(4));
            }
            Instr::Bc {
                crf,
                bit,
                expect,
                off,
            } => {
                if self.cores[c].cr_bit(crf, bit) == expect {
                    next_pc = pc.wrapping_add((off as i32 as u32).wrapping_mul(4));
                }
            }
            Instr::Blr => {
                next_pc = self.cores[c].lr;
            }
            Instr::Mflr { rd } => {
                set_reg!(rd, self.cores[c].lr);
            }
            Instr::Mtlr { ra } => {
                self.cores[c].lr = self.cores[c].regs[ra as usize];
            }
            Instr::Halt => {
                self.cores[c].state = CoreState::Halted(self.cores[c].regs[3] as i32);
                progress = Progress::StateChange;
            }
            Instr::Sc { call } => {
                self.syscall(c, call, pc).map_err(|t| (t, pc))?;
                if self.output.len() > self.config.output_limit {
                    progress = Progress::OutputLimit;
                } else if self.cores[c].state != CoreState::Running {
                    progress = Progress::StateChange;
                }
            }
        }
        self.cores[c].pc = next_pc;
        self.retired += 1;
        insp.on_retire(c, pc);
        Ok(progress)
    }

    fn syscall(&mut self, c: usize, call: Syscall, _pc: u32) -> Result<(), Trap> {
        match call {
            Syscall::Exit => {
                self.cores[c].state = CoreState::Halted(self.cores[c].regs[3] as i32);
            }
            Syscall::PrintInt => {
                let v = self.cores[c].regs[3] as i32;
                self.output.extend_from_slice(v.to_string().as_bytes());
            }
            Syscall::PrintChar => {
                self.output.push(self.cores[c].regs[3] as u8);
            }
            Syscall::PrintStr => {
                let s = self.mem.read_cstr(self.cores[c].regs[3], 1 << 16)?;
                self.output.extend_from_slice(&s);
            }
            Syscall::ReadInt => match self.input.ints.pop_front() {
                Some(v) => {
                    self.cores[c].regs[3] = v as u32;
                    self.cores[c].regs[4] = 0;
                }
                None => {
                    self.cores[c].regs[3] = 0;
                    self.cores[c].regs[4] = 1;
                }
            },
            Syscall::ReadByte => match self.input.bytes.pop_front() {
                Some(b) => self.cores[c].regs[3] = b as u32,
                None => self.cores[c].regs[3] = u32::MAX,
            },
            Syscall::Malloc => {
                let size = self.cores[c].regs[3];
                self.cores[c].regs[3] = self.alloc.malloc(size);
            }
            Syscall::Free => {
                self.alloc.free(self.cores[c].regs[3])?;
            }
            Syscall::CoreId => {
                self.cores[c].regs[3] = c as u32;
            }
            Syscall::NumCores => {
                self.cores[c].regs[3] = self.cores.len() as u32;
            }
            Syscall::Barrier => {
                self.cores[c].state = CoreState::WaitingBarrier;
            }
        }
        Ok(())
    }
}

/// Execute one data instruction — anything but a branch, syscall or halt
/// — at `pc` on `core`. This is the one copy of the instruction semantics
/// that both block bodies and their fetch steps share; [`Machine::step`],
/// the reference interpreter, keeps its own copy to be compared against.
///
/// With `HOOKS` it fires `on_load_*`, `on_store_*` and `on_reg_write` in
/// the reference order; without, it fires none. It never retires the
/// instruction: the caller calls `on_retire` or batches it. Returns
/// whether the instruction stored to memory (a block stops after a store
/// into code), or the trap it raised; the caller owns the trap's pc and
/// the retired count.
#[inline(always)]
fn exec_data<I: Inspector, const HOOKS: bool>(
    core: &mut Cpu,
    mem: &mut Memory,
    insp: &mut I,
    c: usize,
    pc: u32,
    instr: &Instr,
) -> Result<bool, Trap> {
    macro_rules! reg {
        ($r:expr) => {
            core.regs[($r & 31) as usize]
        };
    }
    macro_rules! set_reg {
        ($rd:expr, $val:expr) => {{
            let mut v: u32 = $val;
            if HOOKS {
                insp.on_reg_write(c, pc, $rd, &mut v);
            }
            reg!($rd) = v;
            // Guard-page model: moving the stack pointer below the core's
            // stack floor traps (runaway recursion ⇒ crash).
            if $rd == 1 && v < core.stack_floor {
                return Err(Trap::StackOverflow);
            }
        }};
    }
    match *instr {
        Instr::Addi { rd, ra, imm } => {
            set_reg!(rd, reg!(ra).wrapping_add(imm as i32 as u32));
        }
        Instr::Addis { rd, ra, imm } => {
            set_reg!(rd, reg!(ra).wrapping_add((imm as i32 as u32) << 16));
        }
        Instr::Andi { rd, ra, imm } => {
            set_reg!(rd, reg!(ra) & imm as u32);
        }
        Instr::Ori { rd, ra, imm } => {
            set_reg!(rd, reg!(ra) | imm as u32);
        }
        Instr::Xori { rd, ra, imm } => {
            set_reg!(rd, reg!(ra) ^ imm as u32);
        }
        Instr::Cmpi { crf, ra, imm } => {
            let a = reg!(ra) as i32;
            let b = imm as i32;
            core.set_cr_field(crf, a < b, a > b, a == b);
        }
        Instr::Cmp { crf, ra, rb } => {
            let a = reg!(ra) as i32;
            let b = reg!(rb) as i32;
            core.set_cr_field(crf, a < b, a > b, a == b);
        }
        Instr::Alu { op, rd, ra, rb } => {
            let a = reg!(ra);
            let b = reg!(rb);
            let v = match op {
                AluOp::Add => a.wrapping_add(b),
                AluOp::Sub => a.wrapping_sub(b),
                AluOp::Mullw => (a as i32).wrapping_mul(b as i32) as u32,
                AluOp::Divw => {
                    if b == 0 {
                        return Err(Trap::DivideByZero);
                    }
                    (a as i32).wrapping_div(b as i32) as u32
                }
                AluOp::Divwu => {
                    if b == 0 {
                        return Err(Trap::DivideByZero);
                    }
                    a / b
                }
                AluOp::Remw => {
                    if b == 0 {
                        return Err(Trap::DivideByZero);
                    }
                    (a as i32).wrapping_rem(b as i32) as u32
                }
                AluOp::And => a & b,
                AluOp::Or => a | b,
                AluOp::Xor => a ^ b,
                AluOp::Nand => !(a & b),
                AluOp::Nor => !(a | b),
                AluOp::Slw => a.wrapping_shl(b & 31),
                AluOp::Srw => a.wrapping_shr(b & 31),
                AluOp::Sraw => ((a as i32).wrapping_shr(b & 31)) as u32,
                AluOp::Neg => (a as i32).wrapping_neg() as u32,
                AluOp::Not => !a,
            };
            set_reg!(rd, v);
        }
        Instr::Lwz { rd, ra, d } => {
            let mut addr = reg!(ra).wrapping_add(d as i32 as u32);
            if HOOKS {
                insp.on_load_addr(c, pc, &mut addr);
            }
            let mut v = mem.read_u32(addr)?;
            if HOOKS {
                insp.on_load_value(c, pc, addr, &mut v);
            }
            set_reg!(rd, v);
        }
        Instr::Lbz { rd, ra, d } => {
            let mut addr = reg!(ra).wrapping_add(d as i32 as u32);
            if HOOKS {
                insp.on_load_addr(c, pc, &mut addr);
            }
            let mut v = mem.read_u8(addr)? as u32;
            if HOOKS {
                insp.on_load_value(c, pc, addr, &mut v);
            }
            set_reg!(rd, v);
        }
        Instr::Stw { rs, ra, d } => {
            let mut addr = reg!(ra).wrapping_add(d as i32 as u32);
            let mut v = reg!(rs);
            if HOOKS {
                insp.on_store_addr(c, pc, &mut addr);
                insp.on_store_value(c, pc, addr, &mut v);
            }
            mem.write_u32(addr, v)?;
            return Ok(true);
        }
        Instr::Stb { rs, ra, d } => {
            let mut addr = reg!(ra).wrapping_add(d as i32 as u32);
            let mut v = reg!(rs) & 0xFF;
            if HOOKS {
                insp.on_store_addr(c, pc, &mut addr);
                insp.on_store_value(c, pc, addr, &mut v);
            }
            mem.write_u8(addr, v as u8)?;
            return Ok(true);
        }
        Instr::Mflr { rd } => {
            set_reg!(rd, core.lr);
        }
        Instr::Mtlr { ra } => {
            core.lr = reg!(ra);
        }
        Instr::B { .. }
        | Instr::Bl { .. }
        | Instr::Bc { .. }
        | Instr::Blr
        | Instr::Sc { .. }
        | Instr::Halt => unreachable!("control transfer passed to exec_data"),
    }
    Ok(false)
}

/// Why a block stopped before its end, other than a store into code.
#[derive(Debug)]
enum Stop {
    /// An instruction trapped.
    Trap(Trap),
    /// A fetch step's hook corrupted its word into one the block cannot
    /// run (a branch, syscall, halt or illegal word); `Machine::step`
    /// executes it.
    Fetched(u32),
}

/// Run translated block `blk` on core `c` from `start`: the block
/// interpreter's dispatch body. `left` is the caller's fused
/// quantum/budget countdown, already charged `planned` instructions: with
/// `WHOLE`, the whole block (`k` is its step count and `planned` its
/// cost); without, its first `k` body steps and not the terminator (see
/// [`run_tail`]). An early exit refunds the part of the plan that did
/// not run.
///
/// With `HOOKS`, every instruction fires its hooks and then its own
/// `on_retire`, in [`Machine::step`]'s order. Without, the inspector has
/// vouched (see `Inspector::block_quiescent`) that every per-instruction
/// hook over the block's plain steps is a no-op and that retires may be
/// batched: the block makes one `on_block_retire` call. Fetch steps call
/// `on_fetch` and run their instruction with every hook either way; their
/// retires are batched with the rest. Block instructions are contiguous,
/// so the pc of the `n`-th is `start + 4·n`.
///
/// Returns the pc execution continues at: the terminator's successor, the
/// word after a store into code (the block stops there so the next
/// dispatch re-reads the patched code) or the first step a tail left
/// out; or why the block stopped early and the pc of the instruction that
/// stopped it.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run_block<I: Inspector, const HOOKS: bool, const WHOLE: bool>(
    core: &mut Cpu,
    mem: &mut Memory,
    insp: &mut I,
    c: usize,
    start: u32,
    blk: &Block,
    k: usize,
    planned: u32,
    stats: &mut BlockCacheStats,
    left: &mut u64,
) -> Result<u32, (Stop, u32)> {
    let mut done: u32 = 0;
    macro_rules! pc {
        () => {
            start.wrapping_add(done.wrapping_mul(4))
        };
    }
    macro_rules! retire {
        () => {{
            if HOOKS {
                insp.on_retire(c, pc!());
            }
            done += 1;
        }};
    }
    // Settle one body instruction's result: a stop, or a store into code,
    // leaves `'body`.
    macro_rules! settle {
        ($body:lifetime, $ran:expr) => {
            match $ran {
                Ok(stored) => {
                    retire!();
                    if stored && mem.has_code_writes() {
                        break $body None;
                    }
                }
                Err(stop) => break $body Some(stop),
            }
        };
    }
    macro_rules! op {
        ($body:lifetime, $instr:expr) => {
            settle!(
                $body,
                exec_data::<I, HOOKS>(core, mem, insp, c, pc!(), $instr).map_err(Stop::Trap)
            )
        };
    }
    let stop = 'body: {
        for step in &blk.body[..k] {
            match *step {
                Step::Op(ref instr) => op!('body, instr),
                Step::Addi2 {
                    rd1,
                    ra1,
                    imm1,
                    rd2,
                    ra2,
                    imm2,
                } => {
                    op!('body, &Instr::Addi { rd: rd1, ra: ra1, imm: imm1 });
                    op!('body, &Instr::Addi { rd: rd2, ra: ra2, imm: imm2 });
                }
                Step::Fetch { word, ref instr } => settle!(
                    'body,
                    fetch_step(core, mem, insp, c, pc!(), word, instr)
                ),
            }
        }
        if !WHOLE {
            break 'body None;
        }
        let next = match blk.term {
            Term::Jump { target } => {
                retire!();
                target
            }
            Term::Call { target, link } => {
                core.lr = link;
                retire!();
                target
            }
            Term::CondJump {
                crf,
                bit,
                expect,
                taken,
                fallthrough,
            } => {
                retire!();
                if core.cr_bit(crf, bit) == expect {
                    taken
                } else {
                    fallthrough
                }
            }
            Term::CmpiCondJump {
                ra,
                imm,
                crf,
                bit,
                expect,
                taken,
                fallthrough,
            } => {
                let a = core.regs[(ra & 31) as usize] as i32;
                let b = imm as i32;
                core.set_cr_field(crf, a < b, a > b, a == b);
                retire!();
                retire!();
                if core.cr_bit(crf, bit) == expect {
                    taken
                } else {
                    fallthrough
                }
            }
            Term::Return => {
                retire!();
                core.lr
            }
            Term::Fallthrough { next } => next,
        };
        debug_assert_eq!(done, blk.cost);
        if !HOOKS {
            insp.on_block_retire(c, start, blk.cost);
        }
        stats.block_instrs += u64::from(blk.cost);
        return Ok(next);
    };
    // Settle a block that stopped early: count what ran, refund the rest.
    if !HOOKS {
        insp.on_block_retire(c, start, done);
    }
    stats.block_instrs += u64::from(done);
    *left += u64::from(planned - done);
    let at = pc!();
    match stop {
        Some(stop) => Err((stop, at)),
        None => Ok(at),
    }
}

/// A quantum or budget tail: [`run_block`] over the first `k` body steps
/// of `blk` ([`Block::prefix`]), without its terminator. Out of line, so
/// that whole-block dispatch stays as tight as it is without tails.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn run_tail<I: Inspector>(
    core: &mut Cpu,
    mem: &mut Memory,
    insp: &mut I,
    c: usize,
    start: u32,
    blk: &Block,
    k: usize,
    planned: u32,
    stats: &mut BlockCacheStats,
    left: &mut u64,
) -> Result<u32, (Stop, u32)> {
    if insp.block_quiescent(c, start, blk.last_pc()) {
        run_block::<I, false, false>(core, mem, insp, c, start, blk, k, planned, stats, left)
    } else {
        run_block::<I, true, false>(core, mem, insp, c, start, blk, k, planned, stats, left)
    }
}

/// A block's fetch step at trigger pin `pc`: count the slow fetch, offer
/// `word` to `on_fetch`, and run the instruction with every hook — the
/// predecoded `instr` if the hook left the word alone, the corrupted
/// word's instruction if it is still straight-line. Any other corrupted
/// word stops the block. Out of line: it runs once per trigger arrival,
/// and inlining it would grow every block dispatch loop.
#[inline(never)]
fn fetch_step<I: Inspector>(
    core: &mut Cpu,
    mem: &mut Memory,
    insp: &mut I,
    c: usize,
    pc: u32,
    word: u32,
    instr: &Instr,
) -> Result<bool, Stop> {
    mem.note_slow_fetch();
    let mut fetched = word;
    insp.on_fetch(c, pc, &mut fetched);
    let corrupted;
    let instr = if fetched == word {
        instr
    } else {
        match isa::decode(fetched) {
            Ok(i) if is_straight(&i) => {
                corrupted = i;
                &corrupted
            }
            _ => return Err(Stop::Fetched(fetched)),
        }
    };
    exec_data::<I, true>(core, mem, insp, c, pc, instr).map_err(Stop::Trap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::inspect::Noop;

    fn run_src(src: &str) -> RunOutcome {
        run_src_with(src, InputTape::new(), MachineConfig::default())
    }

    fn run_src_with(src: &str, input: InputTape, config: MachineConfig) -> RunOutcome {
        let image = assemble(src).expect("assembles");
        let mut m = Machine::new(config);
        m.load(&image);
        m.set_input(input);
        m.run(&mut Noop)
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run_src(
            "addi r3, r0, 7
             addi r4, r0, 6
             mullw r3, r3, r4
             sc print_int
             addi r3, r0, 0
             halt",
        );
        assert_eq!(
            out,
            RunOutcome::Completed {
                exit_code: 0,
                output: b"42".to_vec()
            }
        );
    }

    #[test]
    fn exit_code_propagates() {
        let out = run_src("addi r3, r0, 3\nhalt");
        assert!(matches!(out, RunOutcome::Completed { exit_code: 3, .. }));
    }

    #[test]
    fn division_by_zero_traps() {
        let out = run_src("addi r3, r0, 1\naddi r4, r0, 0\ndivw r3, r3, r4\nhalt");
        assert!(matches!(
            out,
            RunOutcome::Trapped {
                trap: Trap::DivideByZero,
                ..
            }
        ));
    }

    #[test]
    fn null_deref_traps() {
        let out = run_src("addi r4, r0, 0\nlwz r3, 0(r4)\nhalt");
        assert!(matches!(
            out,
            RunOutcome::Trapped {
                trap: Trap::Unmapped { addr: 0 },
                ..
            }
        ));
    }

    #[test]
    fn wild_store_traps() {
        let out = run_src("addis r4, r0, 4096\nstw r3, 0(r4)\nhalt");
        assert!(matches!(
            out,
            RunOutcome::Trapped {
                trap: Trap::Unmapped { .. },
                ..
            }
        ));
    }

    #[test]
    fn misaligned_word_traps() {
        let out = run_src("addi r4, r0, 258\nlwz r3, 0(r4)\nhalt");
        assert!(matches!(
            out,
            RunOutcome::Trapped {
                trap: Trap::Misaligned { .. },
                ..
            }
        ));
    }

    #[test]
    fn illegal_instruction_traps() {
        // Branch into the zeroed data area past the code.
        let out = run_src("b 4\nhalt");
        assert!(matches!(
            out,
            RunOutcome::Trapped {
                trap: Trap::IllegalInstruction { word: 0 },
                ..
            }
        ));
    }

    #[test]
    fn infinite_loop_hangs() {
        let config = MachineConfig {
            budget: 10_000,
            ..MachineConfig::default()
        };
        let out = run_src_with("b 0", InputTape::new(), config);
        assert!(matches!(out, RunOutcome::Hang { .. }));
    }

    #[test]
    fn expired_watchdog_deadline_hangs() {
        // A zero-length deadline fires on scheduler round 0, before any
        // instruction retires — the deterministic form of "the run blew
        // its wall-clock budget".
        let image = assemble("addi r3, r0, 0\nhalt").expect("assembles");
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        m.set_deadline(Some(Instant::now()));
        let out = m.run(&mut Noop);
        assert!(matches!(out, RunOutcome::Hang { .. }));
        assert_eq!(m.retired(), 0, "watchdog fired before execution");

        // Disarming restores normal completion on the same machine.
        m.load(&image);
        m.set_deadline(None);
        assert!(matches!(m.run(&mut Noop), RunOutcome::Completed { .. }));

        // A generous deadline does not perturb a short run.
        m.load(&image);
        m.set_deadline(Some(Instant::now() + std::time::Duration::from_secs(3600)));
        assert!(matches!(m.run(&mut Noop), RunOutcome::Completed { .. }));
    }

    #[test]
    fn watchdog_fires_mid_run_on_every_tier() {
        // A single-core cached run only returns to the scheduler at a
        // state change or the budget; the armed deadline must still cut
        // it off within a poll interval, not at the budget.
        let image = assemble("addi r3, r3, 1\nb -1").expect("assembles");
        let config = MachineConfig {
            budget: 100_000_000,
            ..MachineConfig::default()
        };
        for (tier, blocks, reference) in [
            ("blocks", true, false),
            ("line", false, false),
            ("reference", false, true),
        ] {
            let mut m = Machine::new(config.clone());
            m.set_block_interp(blocks);
            m.set_reference_interp(reference);
            m.load(&image);
            m.set_deadline(Some(Instant::now() + std::time::Duration::from_millis(20)));
            let out = m.run(&mut Noop);
            assert!(matches!(out, RunOutcome::Hang { .. }), "{tier}");
            assert!(
                m.retired() < config.budget / 10,
                "{tier}: retired {} of a {} budget",
                m.retired(),
                config.budget
            );
        }
    }

    #[test]
    fn print_loop_hits_output_cap() {
        let config = MachineConfig {
            budget: u64::MAX / 2,
            output_limit: 4096,
            ..MachineConfig::default()
        };
        let out = run_src_with(
            "addi r3, r0, 65
             sc print_char
             b -1",
            InputTape::new(),
            config,
        );
        assert!(matches!(out, RunOutcome::Hang { .. }));
    }

    #[test]
    fn loop_with_branch_counts_down() {
        // r5 = 5; while (r5 != 0) { print '.'; r5--; }
        let out = run_src(
            "addi r5, r0, 5
             cmpi cr0, r5, 0
             bc cr0.eq, 1, 5
             addi r3, r0, 46
             sc print_char
             addi r5, r5, -1
             b -5
             addi r3, r0, 0
             halt",
        );
        assert_eq!(
            out,
            RunOutcome::Completed {
                exit_code: 0,
                output: b".....".to_vec()
            }
        );
    }

    #[test]
    fn call_and_return() {
        // main: bl f; print r3; halt.  f: r3 = 9; blr
        let out = run_src(
            "bl 4
             sc print_int
             addi r3, r0, 0
             halt
             nop
             addi r3, r0, 9
             blr",
        );
        assert_eq!(
            out,
            RunOutcome::Completed {
                exit_code: 0,
                output: b"9".to_vec()
            }
        );
    }

    #[test]
    fn read_int_and_eof_flag() {
        let mut input = InputTape::new();
        input.push_ints([11, 22]);
        let out = run_src_with(
            "sc read_int
             sc print_int
             sc read_int
             sc print_int
             sc read_int
             addi r3, r4, 0
             sc print_int
             addi r3, r0, 0
             halt",
            input,
            MachineConfig::default(),
        );
        // Third read hits EOF: value 0, r4 (eof flag) = 1.
        assert_eq!(
            out,
            RunOutcome::Completed {
                exit_code: 0,
                output: b"11221".to_vec()
            }
        );
    }

    #[test]
    fn read_byte_eof_is_minus_one() {
        let out = run_src(
            "sc read_byte
             sc print_int
             addi r3, r0, 0
             halt",
        );
        assert_eq!(
            out,
            RunOutcome::Completed {
                exit_code: 0,
                output: b"-1".to_vec()
            }
        );
    }

    #[test]
    fn malloc_free_and_heap_fault() {
        let out = run_src(
            "addi r3, r0, 64
             sc malloc
             addi r5, r3, 0
             sc free
             addi r3, r5, 0
             sc free
             halt",
        );
        assert!(matches!(
            out,
            RunOutcome::Trapped {
                trap: Trap::HeapFault { .. },
                ..
            }
        ));
    }

    #[test]
    fn malloc_store_load_round_trip() {
        let out = run_src(
            "addi r3, r0, 8
             sc malloc
             addi r6, r0, 77
             stw r6, 4(r3)
             lwz r3, 4(r3)
             sc print_int
             addi r3, r0, 0
             halt",
        );
        assert_eq!(
            out,
            RunOutcome::Completed {
                exit_code: 0,
                output: b"77".to_vec()
            }
        );
    }

    #[test]
    fn stack_overflow_traps() {
        // Infinitely push the stack down.
        let out = run_src(
            "addi r1, r1, -1024
             b -1",
        );
        assert!(matches!(
            out,
            RunOutcome::Trapped {
                trap: Trap::StackOverflow,
                ..
            }
        ));
    }

    #[test]
    fn stack_use_within_bounds_ok() {
        let out = run_src(
            "addi r1, r1, -16
             addi r6, r0, 5
             stw r6, 0(r1)
             lwz r3, 0(r1)
             sc print_int
             addi r1, r1, 16
             addi r3, r0, 0
             halt",
        );
        assert_eq!(
            out,
            RunOutcome::Completed {
                exit_code: 0,
                output: b"5".to_vec()
            }
        );
    }

    #[test]
    fn multicore_barrier_and_core_id() {
        // Each core prints its id, barriers, then core 0 prints "done".
        let src = "
            sc core_id
            sc print_int
            sc barrier
            sc core_id
            cmpi cr0, r3, 0
            bc cr0.eq, 0, 4
            addi r3, r0, 33
            sc print_char
            addi r3, r0, 0
            halt";
        let image = assemble(src).unwrap();
        let mut m = Machine::new(MachineConfig {
            num_cores: 2,
            quantum: 1,
            ..MachineConfig::default()
        });
        m.load(&image);
        let out = m.run(&mut Noop);
        match out {
            RunOutcome::Completed {
                exit_code: 0,
                output,
            } => {
                let s = String::from_utf8(output).unwrap();
                // Both ids print before the barrier; '!' printed once after.
                assert_eq!(s.matches('!').count(), 1);
                assert!(s.contains('0') && s.contains('1'));
                assert!(s.ends_with('!'));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn barrier_deadlock_hangs() {
        // Core 1 halts immediately; core 0 waits forever at the barrier.
        let src = "
            sc core_id
            cmpi cr0, r3, 0
            bc cr0.eq, 0, 3
            sc barrier
            addi r3, r0, 0
            halt
            addi r3, r0, 0
            halt";
        let image = assemble(src).unwrap();
        let mut m = Machine::new(MachineConfig {
            num_cores: 2,
            budget: 100_000,
            ..MachineConfig::default()
        });
        m.load(&image);
        assert!(matches!(m.run(&mut Noop), RunOutcome::Hang { .. }));
    }

    #[test]
    fn fresh_machine_is_deterministic() {
        let src = "addi r3, r0, 1\nsc print_int\naddi r3, r0, 0\nhalt";
        let a = run_src(src);
        let b = run_src(src);
        assert_eq!(a, b);
    }

    #[test]
    fn warm_restore_matches_cold_boot() {
        // A program that dirties stack, heap, and globals, reads input and
        // prints — everything a restore must undo.
        let src = "
            sc read_int
            addi r5, r3, 0
            addi r3, r0, 32
            sc malloc
            addi r6, r3, 0
            stw r5, 0(r6)
            addi r1, r1, -16
            stw r5, 0(r1)
            lwz r3, 0(r6)
            sc print_int
            addi r1, r1, 16
            addi r3, r6, 0
            sc free
            addi r3, r0, 0
            halt";
        let image = assemble(src).unwrap();
        let mut input = InputTape::new();
        input.push_ints([41]);

        // Cold-boot reference outcome.
        let cold = {
            let mut m = Machine::new(MachineConfig::default());
            m.load(&image);
            m.set_input(input.clone());
            m.run(&mut Noop)
        };

        // Warm-reboot machine: snapshot once, run/restore repeatedly with
        // varying inputs in between to make sure restore really resets.
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        m.set_input(input.clone());
        let snap = m.snapshot();
        for round in 0..4 {
            if round > 0 {
                m.restore(&snap);
            }
            let out = m.run(&mut Noop);
            assert_eq!(out, cold, "round {round} diverged from cold boot");
            assert_eq!(m.allocator().live_blocks(), 0);
        }
    }

    #[test]
    fn restore_undoes_pokes_made_after_snapshot() {
        let image = assemble("addi r3, r0, 1\nsc print_int\naddi r3, r0, 0\nhalt").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let snap = m.snapshot();
        // Corrupt the code (as a memory-resident fault would), run, restore.
        m.poke_u32(
            0x100,
            crate::isa::encode(Instr::Addi {
                rd: 3,
                ra: 0,
                imm: 9,
            }),
        )
        .unwrap();
        assert_eq!(m.run(&mut Noop).output(), b"9");
        m.restore(&snap);
        assert_eq!(m.run(&mut Noop).output(), b"1");
    }

    #[test]
    fn restore_is_cheap_in_pages() {
        // A short run must dirty only a few pages of the 1 MiB space.
        let image = assemble("addi r3, r0, 1\nsc print_int\naddi r3, r0, 0\nhalt").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let snap = m.snapshot();
        assert_eq!(m.dirty_pages(), 0);
        let _ = m.run(&mut Noop);
        let dirtied = m.dirty_pages();
        assert!(
            dirtied <= 4,
            "tiny run should touch few pages, got {dirtied}"
        );
        m.restore(&snap);
        assert_eq!(m.dirty_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "before snapshot")]
    fn snapshot_requires_load() {
        let mut m = Machine::new(MachineConfig::default());
        let _ = m.snapshot();
    }

    #[test]
    fn multicore_machine_restores_too() {
        let src = "
            sc core_id
            sc print_int
            sc barrier
            addi r3, r0, 0
            halt";
        let image = assemble(src).unwrap();
        let config = MachineConfig {
            num_cores: 2,
            quantum: 1,
            ..MachineConfig::default()
        };
        let cold = {
            let mut m = Machine::new(config.clone());
            m.load(&image);
            m.run(&mut Noop)
        };
        let mut m = Machine::new(config);
        m.load(&image);
        let snap = m.snapshot();
        for _ in 0..3 {
            assert_eq!(m.run(&mut Noop), cold);
            m.restore(&snap);
        }
    }

    #[test]
    fn decode_cache_stats_reflect_execution() {
        let image = assemble("addi r3, r0, 1\nsc print_int\naddi r3, r0, 0\nhalt").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let _ = m.run(&mut Noop);
        let stats = m.decode_cache_stats();
        assert_eq!(stats.lines_built, 4, "one line per executed instruction");
        assert_eq!(stats.slow_fetches, 0, "Noop never forces the slow path");

        // A second run from a snapshot reuses every line.
        m.load(&image);
        let snap = m.snapshot();
        let _ = m.run(&mut Noop);
        let first = m.decode_cache_stats().lines_built;
        m.restore(&snap);
        let _ = m.run(&mut Noop);
        assert_eq!(
            m.decode_cache_stats().lines_built,
            first,
            "warm rerun decodes nothing new"
        );
    }

    #[test]
    fn reference_mode_counts_slow_fetches() {
        let image = assemble("addi r3, r0, 0\nhalt").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.set_reference_interp(true);
        m.load(&image);
        let _ = m.run(&mut Noop);
        let stats = m.decode_cache_stats();
        assert_eq!(stats.lines_built, 0);
        assert_eq!(stats.slow_fetches, m.retired());
    }

    #[test]
    fn fetch_policy_all_disables_cache_for_the_run() {
        // An inspector with the default (All) policy must see on_fetch for
        // every instruction even with the cache initialised.
        struct CountFetches(u64);
        impl Inspector for CountFetches {
            fn on_fetch(&mut self, _c: usize, _pc: u32, _w: &mut u32) {
                self.0 += 1;
            }
        }
        let image = assemble("addi r3, r0, 1\nsc print_int\naddi r3, r0, 0\nhalt").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let mut insp = CountFetches(0);
        let _ = m.run(&mut insp);
        assert_eq!(insp.0, m.retired());

        // A subsequent Noop run re-enables the cache.
        m.load(&image);
        let _ = m.run(&mut Noop);
        assert_eq!(m.decode_cache_stats().slow_fetches, 0);
    }

    #[test]
    fn fetch_policy_pcs_pins_only_armed_addresses() {
        use crate::inspect::FetchPolicy;
        // Corrupt the fetch at 0x104 (print_int → nop-like ori) while the
        // rest of the program runs from the cache.
        struct PinOne {
            seen: u64,
        }
        impl Inspector for PinOne {
            fn fetch_policy(&self) -> FetchPolicy {
                FetchPolicy::Pcs(vec![0x104])
            }
            fn on_fetch(&mut self, _c: usize, pc: u32, word: &mut u32) {
                assert_eq!(pc, 0x104, "only the pinned PC reaches on_fetch");
                self.seen += 1;
                *word = isa::NOP;
            }
        }
        let image = assemble("addi r3, r0, 7\nsc print_int\naddi r3, r0, 0\nhalt").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let mut insp = PinOne { seen: 0 };
        let out = m.run(&mut insp);
        assert_eq!(insp.seen, 1);
        assert_eq!(out.output(), b"", "print was corrupted away at fetch");
        assert_eq!(m.decode_cache_stats().slow_fetches, 1);

        // The pin is dropped for the next run: the pristine word executes.
        m.load(&image);
        let out = m.run(&mut Noop);
        assert_eq!(out.output(), b"7");
    }

    #[test]
    fn self_modifying_store_into_code_is_seen_by_cached_interpreter() {
        // Execute the target instruction once (so its cache line is
        // decoded), then store a `halt` word over it and re-enter it. With
        // a stale cache the original benign word replays and the run
        // hangs; with correct invalidation both interpreters complete.
        //
        // halt encodes as op::HALT << 26, and addis places its immediate
        // in the upper halfword: r6 = (0x13 << 10) << 16 = halt.
        let halt_hi = (isa::encode(Instr::Halt) >> 16) as i32;
        let src = format!(
            "addis r6, r0, {halt_hi}
             nop
             addi r7, r0, 280
             b 3
             stw r6, 0(r7)
             b 1
             addi r8, r0, 0
             b -3"
        );
        // Layout: 0x10C branches to the target at 0x118 (decoding its
        // line), 0x11C branches back to the stw at 0x110, which patches
        // 0x118; 0x114 then re-enters 0x118, which must now be halt.
        let image = assemble(&src).unwrap();
        for reference in [false, true] {
            let mut m = Machine::new(MachineConfig {
                budget: 100_000,
                ..MachineConfig::default()
            });
            m.set_reference_interp(reference);
            m.load(&image);
            let out = m.run(&mut Noop);
            assert!(
                matches!(out, RunOutcome::Completed { exit_code: 0, .. }),
                "self-modified halt must execute (reference={reference}), got {out:?}"
            );
        }
    }

    #[test]
    fn output_limit_fires_from_syscall_path() {
        // Regression for the hoisted output-limit check: the cap is now
        // enforced on the syscall path, and a silent (non-printing) loop
        // still hangs via the budget.
        let config = MachineConfig {
            budget: u64::MAX / 2,
            output_limit: 64,
            ..MachineConfig::default()
        };
        let out = run_src_with(
            "addi r3, r0, 88
             sc print_char
             b -1",
            InputTape::new(),
            config,
        );
        match out {
            RunOutcome::Hang { output } => {
                assert_eq!(output.len(), 65, "hang fires on the first overflow");
                assert!(output.iter().all(|&b| b == b'X'));
            }
            other => panic!("expected hang, got {other:?}"),
        }
    }

    /// Countdown loop used by the breakpoint/fork tests: prints '.' five
    /// times. The loop body `addi r3, r0, 46` sits at `CODE_BASE + 12`.
    const LOOP_SRC: &str = "addi r5, r0, 5
         cmpi cr0, r5, 0
         bc cr0.eq, 1, 5
         addi r3, r0, 46
         sc print_char
         addi r5, r5, -1
         b -5
         addi r3, r0, 0
         halt";

    /// Run until `pc` is about to be fetched for the `nth` time, or the
    /// run ends: [`Machine::run_to_watch`] with one watched point. Also
    /// returns the arrivals at `pc` observed, the run's total on
    /// [`FetchStop::Finished`].
    fn run_to_fetch(m: &mut Machine, pc: u32, nth: u64) -> (FetchStop, u64) {
        let mut watch = FetchWatch::new([(pc, nth)]);
        let stop = m.run_to_watch(&mut watch, &mut Noop);
        let seen = watch.pending().next().map_or(nth, |(_, seen)| seen);
        (stop, seen)
    }

    #[test]
    fn run_to_fetch_counts_occurrences() {
        let image = assemble(LOOP_SRC).expect("assembles");
        let body = CODE_BASE + 12;

        // Hit on the 3rd arrival: two dots printed, the 3rd unexecuted.
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let (stop, seen) = run_to_fetch(&mut m, body, 3);
        assert_eq!(stop, FetchStop::Hit(body, 3));
        assert_eq!(seen, 3);
        assert_eq!(m.core(0).pc, body, "paused at the break pc");

        // Continuing runs exactly the tail of a full run, output included.
        let out = m.run(&mut Noop);
        assert_eq!(
            out,
            RunOutcome::Completed {
                exit_code: 0,
                output: b".....".to_vec()
            }
        );

        // More occurrences than ever happen: the run finishes and reports
        // the total arrival count (which proves sparser triggers dormant).
        let mut m2 = Machine::new(MachineConfig::default());
        m2.load(&image);
        let (stop, seen) = run_to_fetch(&mut m2, body, 99);
        assert!(matches!(
            stop,
            FetchStop::Finished(RunOutcome::Completed { exit_code: 0, .. })
        ));
        assert_eq!(seen, 5);

        // A PC that is never fetched: Finished with zero arrivals.
        let mut m3 = Machine::new(MachineConfig::default());
        m3.load(&image);
        let (stop, seen) = run_to_fetch(&mut m3, 0xF000, 1);
        assert!(matches!(stop, FetchStop::Finished(_)));
        assert_eq!(seen, 0);
    }

    #[test]
    fn run_to_fetch_matches_reference_interp_counts() {
        let image = assemble(LOOP_SRC).expect("assembles");
        let body = CODE_BASE + 12;
        for reference in [false, true] {
            let mut m = Machine::new(MachineConfig::default());
            m.set_reference_interp(reference);
            m.load(&image);
            let (stop, seen) = run_to_fetch(&mut m, body, 4);
            assert_eq!(stop, FetchStop::Hit(body, 4), "reference={reference}");
            assert_eq!(seen, 4);
            let out = m.run(&mut Noop);
            assert_eq!(out.output(), b".....", "reference={reference}");
        }
    }

    #[test]
    fn run_to_watch_pauses_at_each_listed_occurrence() {
        // One run pauses at the 2nd and 4th arrivals of the loop body, in
        // the order they come, each at the depth a single-point watch
        // reaches; the 9th never comes, so the body stays watched and the
        // run reports its total.
        let image = assemble(LOOP_SRC).expect("assembles");
        let body = CODE_BASE + 12;
        for reference in [false, true] {
            let fresh = || {
                let mut m = Machine::new(MachineConfig::default());
                m.set_reference_interp(reference);
                m.load(&image);
                m
            };
            let mut m = fresh();
            let mut watch = FetchWatch::new([(body, 9), (body, 4), (body, 2), (body, 4)]);
            for occ in [2, 4] {
                assert_eq!(
                    m.run_to_watch(&mut watch, &mut Noop),
                    FetchStop::Hit(body, occ)
                );
                let mut single = fresh();
                run_to_fetch(&mut single, body, occ);
                assert_eq!(m.retired(), single.retired(), "reference={reference}");
            }
            let stop = m.run_to_watch(&mut watch, &mut Noop);
            assert!(matches!(stop, FetchStop::Finished(ref o) if o.output() == b"....."));
            assert_eq!(watch.pending().collect::<Vec<_>>(), [(body, 5)]);
            assert!(!watch.is_empty());
        }
    }

    #[test]
    fn run_to_watch_on_a_trigger_pin_pauses_then_restores_the_trigger() {
        // The watched PC is also in the inspector's fetch policy, on a data
        // instruction in the middle of the loop's block. The pass must
        // pause at each listed arrival, and every arrival, paused or not,
        // must reach `on_fetch` exactly once. After the last pause the PC
        // is a trigger pin again, so the block the breakpoint cut short
        // is rebuilt whole and the rest of the loop runs as one block per
        // iteration, with the arrival as a fetch step.
        struct CountAt {
            pc: u32,
            seen: u64,
        }
        impl Inspector for CountAt {
            fn fetch_policy(&self) -> FetchPolicy {
                FetchPolicy::Pcs(vec![self.pc])
            }
            fn on_fetch(&mut self, _c: usize, pc: u32, _word: &mut u32) {
                assert_eq!(pc, self.pc, "only the trigger pin reaches on_fetch");
                self.seen += 1;
            }
        }
        let image = assemble(
            "addi r5, r0, 20
             loop:
             addi r7, r7, 2
             addi r6, r6, 1
             addi r5, r5, -1
             cmpi cr0, r5, 0
             bc cr0.gt, 1, loop
             addi r3, r0, 0
             halt",
        )
        .expect("assembles");
        let pc = CODE_BASE + 8;
        for block_interp in [true, false] {
            let fresh = || {
                let mut m = Machine::new(MachineConfig::default());
                m.set_block_interp(block_interp);
                m.load(&image);
                m
            };
            let mut m = fresh();
            let mut insp = CountAt { pc, seen: 0 };
            let mut watch = FetchWatch::new([(pc, 3), (pc, 7)]);
            for occ in [3, 7] {
                assert_eq!(
                    m.run_to_watch(&mut watch, &mut insp),
                    FetchStop::Hit(pc, occ)
                );
                assert_eq!(insp.seen, occ - 1, "the paused arrival is not fetched yet");
                let mut single = fresh();
                run_to_fetch(&mut single, pc, occ);
                assert_eq!(m.retired(), single.retired(), "blocks={block_interp}");
            }
            assert!(watch.is_empty());
            let (blocks, slow) = (m.block_cache_stats(), m.decode_cache_stats().slow_fetches);
            let stop = m.run_to_watch(&mut watch, &mut insp);
            assert!(matches!(
                stop,
                FetchStop::Finished(RunOutcome::Completed { exit_code: 0, .. })
            ));
            assert_eq!(
                insp.seen, 20,
                "one on_fetch per arrival, blocks={block_interp}"
            );
            assert_eq!(m.decode_cache_stats().slow_fetches - slow, 14);
            if block_interp {
                // The resumed arrival runs in the block that starts at
                // the pin, the other 13 iterations take one block each,
                // then the exit block; only the `halt` falls back. A
                // block left cut short at the pin would double the hits.
                let after = m.block_cache_stats();
                let fallbacks = after.fallback_dispatches - blocks.fallback_dispatches;
                let hits = after.block_hits - blocks.block_hits;
                assert_eq!((fallbacks, hits), (1, 15), "after the last pause");
            }
        }
    }

    #[test]
    fn fork_snapshot_resumes_identically() {
        // A loop that consumes input per iteration, so the fork must carry
        // the half-consumed tape: read n, then read+print n more ints.
        let src = "sc read_int
             addi r5, r3, 0
             cmpi cr0, r5, 0
             bc cr0.eq, 1, 6
             sc read_int
             stw r3, -4(r1)
             sc print_int
             addi r5, r5, -1
             b -6
             addi r3, r0, 0
             halt";
        let image = assemble(src).unwrap();
        let body = CODE_BASE + 16; // the in-loop `sc read_int`
        let tape = || {
            let mut t = InputTape::new();
            t.push_ints([3, 10, 20, 30]);
            t
        };

        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        m.set_input(tape());
        let base = m.snapshot();
        let full = m.run(&mut Noop);
        let full_retired = m.retired();
        assert_eq!(full.output(), b"102030");

        // Capture at the 2nd loop read (10 printed, 20 unread), resume.
        m.restore(&base);
        let (stop, _) = run_to_fetch(&mut m, body, 2);
        assert_eq!(stop, FetchStop::Hit(body, 2));
        let fork = m.fork_snapshot();
        assert!(fork.retired() > 0 && fork.retired() < full_retired);
        assert!(fork.delta_pages() > 0);

        // Divert the machine first so the fork restore has real work.
        let _ = m.run(&mut Noop);
        m.restore_fork(&base, &fork);
        assert_eq!(m.retired(), fork.retired());
        let resumed = m.run(&mut Noop);
        assert_eq!(resumed, full, "forked suffix diverged from full run");
        assert_eq!(m.retired(), full_retired);

        // The same fork restores onto an identically-built twin (how
        // pooled campaign workers share one prefix cache).
        let mut twin = Machine::new(MachineConfig::default());
        twin.load(&image);
        twin.set_input(tape());
        let tbase = twin.snapshot();
        twin.restore_fork(&tbase, &fork);
        assert_eq!(twin.run(&mut Noop), full);
        assert_eq!(twin.retired(), full_retired);

        // And a plain restore after a fork restore recovers the baseline.
        m.restore(&base);
        assert_eq!(m.run(&mut Noop), full);
    }

    #[test]
    fn block_stats_reflect_execution_and_toggle() {
        // The countdown loop runs almost entirely from translated blocks.
        let image = assemble(LOOP_SRC).expect("assembles");
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let out = m.run(&mut Noop);
        assert_eq!(out.output(), b".....");
        let stats = m.block_cache_stats();
        assert!(stats.blocks_built > 0, "hot blocks translated");
        assert!(stats.block_hits > 0, "loop re-dispatches translated blocks");
        assert!(stats.block_instrs > 0 && stats.block_instrs <= m.retired());
        assert!(
            stats.fallback_dispatches > 0,
            "syscalls and halt go to step"
        );

        // Disabling the block interpreter sends everything through
        // `step`: identical observables, no block activity.
        let mut m2 = Machine::new(MachineConfig::default());
        m2.set_block_interp(false);
        assert!(!m2.block_interp());
        m2.load(&image);
        let out2 = m2.run(&mut Noop);
        assert_eq!(out2, out);
        assert_eq!(m2.retired(), m.retired());
        assert_eq!(
            m2.block_cache_stats(),
            crate::blocks::BlockCacheStats::default()
        );
    }

    #[test]
    fn block_and_cached_interpreters_retire_identically() {
        // A program exercising arithmetic, branches, calls, memory and
        // syscalls, run on blocks, on `step` over the decoded lines and on
        // the reference interpreter: outcomes and retired-instruction
        // counts must agree exactly.
        let src = "
            addi r5, r0, 10
            cmpi cr0, r5, 0
            bc cr0.eq, 1, 6
            addi r3, r5, 0
            sc print_int
            bl 3
            addi r5, r5, -1
            b -6
            addi r3, r0, 0
            halt
            addi r6, r6, 1
            blr";
        let image = assemble(src).unwrap();
        let run_mode = |blocks: bool, reference: bool| {
            let mut m = Machine::new(MachineConfig::default());
            m.set_block_interp(blocks);
            m.set_reference_interp(reference);
            m.load(&image);
            let out = m.run(&mut Noop);
            (out, m.retired())
        };
        let blocked = run_mode(true, false);
        assert_eq!(blocked, run_mode(false, false));
        assert_eq!(blocked, run_mode(false, true));
    }

    #[test]
    fn blocks_run_quantum_tails_and_only_syscalls_and_halts_reach_step() {
        // Two cores, quantum 4, and a 9-instruction loop block: almost
        // every dispatch is a tail that ends mid-block. No two `addi`s are
        // adjacent and the branch tests a `cmp`, so every step retires
        // one instruction and some prefix always fits; only each core's
        // `print_int` and `halt` may leave the blocks.
        let src = "
            ori r5, r0, 50
            addi r6, r6, 1
            xori r9, r9, 5
            addi r7, r7, 2
            ori r11, r11, 1
            addi r8, r8, 3
            add r10, r10, r6
            addi r5, r5, -1
            cmp cr0, r5, r0
            bc cr0.gt, 1, -8
            addi r3, r6, 0
            sc print_int
            addi r3, r0, 0
            halt";
        let image = assemble(src).unwrap();
        let config = MachineConfig {
            num_cores: 2,
            quantum: 4,
            ..MachineConfig::default()
        };
        let run_mode = |reference: bool| {
            let mut m = Machine::new(config.clone());
            m.set_reference_interp(reference);
            m.load(&image);
            let out = m.run(&mut Noop);
            let regs: Vec<_> = (0..2).map(|c| (m.core(c).regs, m.core(c).pc)).collect();
            (out, m.retired(), regs, m.block_cache_stats())
        };
        let (out, retired, regs, stats) = run_mode(false);
        assert_eq!(out.output(), b"5050");
        assert_eq!(stats.fallback_dispatches, 4, "two syscalls, two halts");
        assert_eq!(stats.block_instrs, retired - 4);
        let (ref_out, ref_retired, ref_regs, _) = run_mode(true);
        assert_eq!((out, retired, regs), (ref_out, ref_retired, ref_regs));
    }

    #[test]
    fn watch_set_pauses_at_every_first_arrival_and_finishes_like_run() {
        // Watch every code word plus one PC outside the code: pausing at
        // each first arrival and then finishing must be one plain run, on
        // every tier, and each pause must sit where a single-PC breakpoint
        // on a fresh machine pauses.
        let src = "
            addi r5, r0, 10
            cmpi cr0, r5, 0
            bc cr0.eq, 1, 6
            addi r3, r5, 0
            sc print_int
            bl 3
            addi r5, r5, -1
            b -6
            addi r3, r0, 0
            halt
            addi r6, r6, 1
            blr";
        let image = assemble(src).unwrap();
        let never = 0xF000;
        let watched: Vec<u32> = (0..image.code.len() as u32)
            .map(|i| CODE_BASE + 4 * i)
            .chain([never])
            .collect();
        for (blocks, reference) in [(true, false), (false, false), (false, true)] {
            let fresh = || {
                let mut m = Machine::new(MachineConfig::default());
                m.set_block_interp(blocks);
                m.set_reference_interp(reference);
                m.load(&image);
                m
            };
            let mut plain = fresh();
            let want = (plain.run(&mut Noop), plain.retired());

            let mut m = fresh();
            let base = m.snapshot();
            let mut watch = FetchWatch::new(watched.iter().map(|&pc| (pc, 1)));
            let mut pauses = Vec::new();
            let outcome = loop {
                match m.run_to_watch(&mut watch, &mut Noop) {
                    FetchStop::Hit(pc, occ) => {
                        assert_eq!(occ, 1);
                        assert_eq!(m.core(0).pc, pc, "paused at the hit pc");
                        pauses.push(pc);
                        let mut single = fresh();
                        let (stop, seen) = run_to_fetch(&mut single, pc, 1);
                        assert_eq!((stop, seen), (FetchStop::Hit(pc, 1), 1));
                        assert_eq!(m.retired(), single.retired(), "pause at {pc:#x}");
                    }
                    FetchStop::Finished(outcome) => break outcome,
                }
            };
            let tier = format!("blocks={blocks} reference={reference}");
            assert_eq!((outcome, m.retired()), want, "{tier}");
            // Every watched PC either paused once or was never fetched.
            let pending: Vec<(u32, u64)> = watch.pending().collect();
            assert!(pending.iter().all(|&(_, seen)| seen == 0), "{tier}");
            assert!(pending.contains(&(never, 0)) && pauses.len() > 6, "{tier}");
            assert_eq!(pauses.len() + pending.len(), watched.len(), "{tier}");
            if blocks {
                let before = m.block_cache_stats().block_hits;
                // Hit PCs are unpinned, so the pass's tail ran in blocks;
                // the next plain run drops the last pin too.
                m.restore(&base);
                assert_eq!(m.run(&mut Noop).output(), want.0.output());
                assert!(m.block_cache_stats().block_hits > before, "{tier}");
            }
        }
    }

    #[test]
    fn injector_poke_invalidates_translated_blocks() {
        use crate::isa::encode;
        // Translate the block on a warm run, then poke a word *inside* it
        // (as a memory-resident fault would) and rerun: a stale block
        // would replay the original immediate.
        let image = assemble("addi r3, r0, 1\nsc print_int\naddi r3, r0, 0\nhalt").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let snap = m.snapshot();
        assert_eq!(m.run(&mut Noop).output(), b"1");
        assert!(m.block_cache_stats().blocks_built > 0);

        m.restore(&snap);
        m.poke_u32(
            CODE_BASE,
            encode(Instr::Addi {
                rd: 3,
                ra: 0,
                imm: 9,
            }),
        )
        .unwrap();
        assert_eq!(m.run(&mut Noop).output(), b"9", "poke reached the block");
        assert!(m.block_cache_stats().blocks_invalidated > 0);

        // The restore diff rolls the poke back — and the block with it.
        m.restore(&snap);
        assert_eq!(m.run(&mut Noop).output(), b"1");
    }

    #[test]
    fn guest_store_into_code_invalidates_blocks_mid_run() {
        // The self-modifying program from the cached-interpreter test also
        // pins the block path (the default mode of `run`): the store aborts
        // its block and the patched word executes.
        let halt_hi = (isa::encode(Instr::Halt) >> 16) as i32;
        let src = format!(
            "addis r6, r0, {halt_hi}
             nop
             addi r7, r0, 280
             b 3
             stw r6, 0(r7)
             b 1
             addi r8, r0, 0
             b -3"
        );
        let image = assemble(&src).unwrap();
        let mut m = Machine::new(MachineConfig {
            budget: 100_000,
            ..MachineConfig::default()
        });
        m.load(&image);
        let out = m.run(&mut Noop);
        assert!(
            matches!(out, RunOutcome::Completed { exit_code: 0, .. }),
            "self-modified halt must execute under block dispatch, got {out:?}"
        );
        assert!(m.block_cache_stats().blocks_invalidated > 0);
    }

    #[test]
    fn fork_restore_invalidates_translated_blocks() {
        use crate::isa::encode;
        // A fork whose delta patches a code word: restoring it must kill
        // the block translated from the pristine code, and a plain restore
        // afterwards must kill the patched translation again.
        let image = assemble("addi r3, r0, 1\nsc print_int\naddi r3, r0, 0\nhalt").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let base = m.snapshot();
        m.poke_u32(
            CODE_BASE,
            encode(Instr::Addi {
                rd: 3,
                ra: 0,
                imm: 7,
            }),
        )
        .unwrap();
        let fork = m.fork_snapshot();

        m.restore(&base);
        assert_eq!(m.run(&mut Noop).output(), b"1", "pristine code translated");
        m.restore_fork(&base, &fork);
        assert_eq!(m.retired(), 0);
        assert_eq!(m.run(&mut Noop).output(), b"7", "fork delta reached blocks");
        m.restore(&base);
        assert_eq!(m.run(&mut Noop).output(), b"1", "plain restore rolls back");
    }

    #[test]
    fn run_to_fetch_pin_truncates_blocks_then_retranslates() {
        // Arming a fetch breakpoint inside a previously translated block
        // must funnel arrivals through the step path (where the breakpoint
        // lives); dropping the pin lets the full block translate again.
        let image = assemble(LOOP_SRC).expect("assembles");
        let body = CODE_BASE + 12;
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let snap = m.snapshot();
        assert_eq!(m.run(&mut Noop).output(), b".....");

        m.restore(&snap);
        let (stop, seen) = run_to_fetch(&mut m, body, 3);
        assert_eq!(stop, FetchStop::Hit(body, 3));
        assert_eq!(seen, 3);
        assert_eq!(m.core(0).pc, body);
        let resumed = m.run(&mut Noop);
        assert_eq!(resumed.output(), b".....");

        // Next ordinary run drops the pin; the loop runs from blocks again.
        m.restore(&snap);
        let before = m.block_cache_stats().block_hits;
        assert_eq!(m.run(&mut Noop).output(), b".....");
        assert!(m.block_cache_stats().block_hits > before);
    }

    #[test]
    fn poke_changes_executed_code() {
        use crate::isa::{encode, Instr};
        let image = assemble("addi r3, r0, 1\nsc print_int\naddi r3, r0, 0\nhalt").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        // Overwrite the first instruction: r3 = 9 instead of 1.
        m.poke_u32(
            0x100,
            encode(Instr::Addi {
                rd: 3,
                ra: 0,
                imm: 9,
            }),
        )
        .unwrap();
        let out = m.run(&mut Noop);
        assert_eq!(out.output(), b"9");
    }
}
