//! Execution hooks — the fault-injection surface of the virtual machine.
//!
//! The Xception tool described in the reproduced paper corrupts a running
//! program through the processor's architectural interfaces: the instruction
//! fetched from memory, the operand travelling on the data bus, the address
//! on the address bus, and the general-purpose registers. [`Inspector`]
//! exposes exactly those interception points. Every hook receives mutable
//! access to the in-flight value, so an implementation can corrupt it —
//! that *is* the injection mechanism — or merely observe it (tracing,
//! coverage, trigger monitoring).
//!
//! The machine is generic over the inspector type, so the common no-op case
//! ([`Noop`]) compiles away entirely.

/// How an [`Inspector`] wants the machine to treat instruction fetch,
/// declared once per run so the interpreter can route execution through its
/// predecoded translation cache (see `crates/vm/src/mem.rs`).
///
/// The fetch hook is the only [`Inspector`] interception point that happens
/// *before* decode, so it is the only one the decoded-line fast path cannot
/// service: a cached line was decoded from the pristine code word and
/// replaying it would silently skip an [`Inspector::on_fetch`] corruption.
/// The policy tells [`crate::Machine::run`] which PCs must stay on the slow
/// fetch→hook→decode path.
///
/// All post-decode hooks (`on_load_*`, `on_store_*`, `on_reg_write`,
/// `on_retire`) are unaffected: they fire identically on both paths.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FetchPolicy {
    /// The inspector never mutates fetched words; every PC may execute from
    /// the decoded-line cache and `on_fetch` is never called.
    None,
    /// Only the listed PCs can be corrupted at fetch time; the machine pins
    /// them to the slow path and dispatches every other PC from the cache.
    Pcs(Vec<u32>),
    /// Any PC may be corrupted (or the inspector wants to observe every
    /// fetch, e.g. tracing); the machine disables the cache for the run.
    #[default]
    All,
}

/// Observation and corruption hooks invoked by the interpreter core.
///
/// All methods have empty default bodies; implement only what you need.
/// `core` identifies the executing core on multi-core machines and `pc` the
/// address of the instruction being executed.
pub trait Inspector {
    /// Declare which PCs this inspector may corrupt or observe at fetch
    /// time. Consulted once at the start of [`crate::Machine::run`].
    ///
    /// The conservative default is [`FetchPolicy::All`] (correct for any
    /// inspector, forfeits the translation-cache speedup). Implementations
    /// that never touch `on_fetch` should return [`FetchPolicy::None`];
    /// implementations with a known trigger set should return
    /// [`FetchPolicy::Pcs`].
    fn fetch_policy(&self) -> FetchPolicy {
        FetchPolicy::All
    }

    /// An instruction word has been fetched from `pc` but not yet decoded.
    ///
    /// Mutating `word` emulates an instruction-bus fault (Xception's
    /// "opcode fetch" corruption): the copy in memory is unchanged, but the
    /// processor executes the corrupted word.
    #[inline]
    fn on_fetch(&mut self, core: usize, pc: u32, word: &mut u32) {
        let _ = (core, pc, word);
    }

    /// A load instruction computed effective address `addr`, before the
    /// memory access. Mutating it emulates an address-bus fault.
    #[inline]
    fn on_load_addr(&mut self, core: usize, pc: u32, addr: &mut u32) {
        let _ = (core, pc, addr);
    }

    /// A value arrived from memory for a load. Mutating it emulates a
    /// data-bus fault on the inbound path.
    #[inline]
    fn on_load_value(&mut self, core: usize, pc: u32, addr: u32, value: &mut u32) {
        let _ = (core, pc, addr, value);
    }

    /// A store instruction computed effective address `addr`, before the
    /// memory access. Mutating it emulates an address-bus fault.
    #[inline]
    fn on_store_addr(&mut self, core: usize, pc: u32, addr: &mut u32) {
        let _ = (core, pc, addr);
    }

    /// A value is about to be written to memory by a store. Mutating it
    /// emulates a data-bus fault on the outbound path.
    #[inline]
    fn on_store_value(&mut self, core: usize, pc: u32, addr: u32, value: &mut u32) {
        let _ = (core, pc, addr, value);
    }

    /// A general-purpose register is about to be written (by ALU results,
    /// immediates, and loads alike). Mutating `value` emulates a fault in
    /// the register write-back path / integer unit.
    #[inline]
    fn on_reg_write(&mut self, core: usize, pc: u32, reg: u8, value: &mut u32) {
        let _ = (core, pc, reg, value);
    }

    /// An instruction at `pc` finished executing. Used by temporal fault
    /// triggers ("after N instructions") and by profiling.
    #[inline]
    fn on_retire(&mut self, core: usize, pc: u32) {
        let _ = (core, pc);
    }

    /// May the block interpreter execute the straight-line range
    /// `[first_pc, last_pc]` (inclusive, contiguous code words) without
    /// calling the per-instruction hooks?
    ///
    /// Returning `true` is a promise that, for every pc in the range other
    /// than the [`FetchPolicy::Pcs`] trigger pins, and for loads/stores
    /// at *any* effective address, `on_load_addr`, `on_load_value`,
    /// `on_store_addr`, `on_store_value`, and `on_reg_write` would not
    /// observe or mutate anything, and that `on_retire` is insensitive to
    /// being replaced by one
    /// [`on_block_retire`](Inspector::on_block_retire) call at the end of
    /// the range. The interpreter then runs the block on a hook-free fast
    /// path; per-instruction trap PCs and retired counts are unchanged.
    /// Hooks at a trigger pin inside the block always fire: the block
    /// calls `on_fetch` there and runs that instruction with every hook
    /// (its `on_retire` is batched with the block's).
    ///
    /// The conservative default is `false` (always correct: every hook is
    /// delivered per instruction). Queried once per block dispatch, so it
    /// may depend on mutable state such as armed triggers.
    #[inline]
    fn block_quiescent(&self, core: usize, first_pc: u32, last_pc: u32) -> bool {
        let _ = (core, first_pc, last_pc);
        false
    }

    /// `n` instructions retired as one quiescent block dispatch starting at
    /// `first_pc` (see [`block_quiescent`](Inspector::block_quiescent)).
    /// Block instructions are contiguous, so the default reconstructs the
    /// exact per-instruction `on_retire` sequence; implementations with an
    /// order-insensitive `on_retire` (e.g. a bare counter) override it with
    /// a single batched update.
    #[inline]
    fn on_block_retire(&mut self, core: usize, first_pc: u32, n: u32) {
        for i in 0..n {
            self.on_retire(core, first_pc.wrapping_add(i * 4));
        }
    }
}

/// The do-nothing inspector; running with it is fault-free execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Noop;

impl Inspector for Noop {
    fn fetch_policy(&self) -> FetchPolicy {
        FetchPolicy::None
    }

    #[inline]
    fn block_quiescent(&self, _core: usize, _first_pc: u32, _last_pc: u32) -> bool {
        true
    }

    #[inline]
    fn on_block_retire(&mut self, _core: usize, _first_pc: u32, _n: u32) {}
}

/// Counts executed instructions and records the set of executed code
/// addresses. Useful for coverage-style analyses such as checking whether a
/// fault location was ever reached (the paper's dormant-fault discussion).
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// Total retired instructions across all cores.
    pub retired: u64,
    /// Sorted, deduplicated executed addresses (filled on [`Profiler::finish`]).
    executed: Vec<u32>,
    dirty: bool,
}

impl Profiler {
    /// Create an empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Whether the instruction at `addr` was executed at least once.
    pub fn executed(&mut self, addr: u32) -> bool {
        self.finish();
        self.executed.binary_search(&addr).is_ok()
    }

    /// Number of distinct executed instruction addresses.
    pub fn coverage(&mut self) -> usize {
        self.finish();
        self.executed.len()
    }

    fn finish(&mut self) {
        if self.dirty {
            self.executed.sort_unstable();
            self.executed.dedup();
            self.dirty = false;
        }
    }
}

impl Inspector for Profiler {
    fn fetch_policy(&self) -> FetchPolicy {
        // Retirement is a post-decode event; the profiler never looks at
        // fetched words, so every PC may run from the decoded-line cache.
        FetchPolicy::None
    }

    #[inline]
    fn on_retire(&mut self, _core: usize, pc: u32) {
        self.retired += 1;
        self.executed.push(pc);
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_zero_sized() {
        assert_eq!(std::mem::size_of::<Noop>(), 0);
    }

    #[test]
    fn fetch_policies() {
        assert_eq!(Noop.fetch_policy(), FetchPolicy::None);
        assert_eq!(Profiler::new().fetch_policy(), FetchPolicy::None);

        // The trait default is the conservative "disable the cache".
        struct Custom;
        impl Inspector for Custom {}
        assert_eq!(Custom.fetch_policy(), FetchPolicy::All);
    }

    #[test]
    fn profiler_dedups_addresses() {
        let mut p = Profiler::new();
        p.on_retire(0, 0x100);
        p.on_retire(0, 0x104);
        p.on_retire(0, 0x100);
        assert_eq!(p.retired, 3);
        assert_eq!(p.coverage(), 2);
        assert!(p.executed(0x104));
        assert!(!p.executed(0x108));
    }
}
