//! Property-based tests for the P601-lite ISA, assembler, allocator, and
//! machine determinism.

use std::collections::BTreeSet;

use proptest::prelude::*;
use swifi_vm::asm::{assemble, CodeBuilder};
use swifi_vm::inspect::{FetchPolicy, Inspector, Noop};
use swifi_vm::isa::{decode, encode, AluOp, CrBit, Instr, Syscall};
use swifi_vm::machine::{ForkSnapshot, Machine, MachineConfig, RunOutcome};
use swifi_vm::mem::Allocator;

fn arb_reg() -> impl Strategy<Value = u8> {
    0u8..32
}

fn arb_crf() -> impl Strategy<Value = u8> {
    0u8..8
}

fn arb_crbit() -> impl Strategy<Value = CrBit> {
    prop_oneof![
        Just(CrBit::Lt),
        Just(CrBit::Gt),
        Just(CrBit::Eq),
        Just(CrBit::So)
    ]
}

fn arb_aluop() -> impl Strategy<Value = AluOp> {
    (0u32..16).prop_map(|c| AluOp::from_code(c).unwrap())
}

fn arb_syscall() -> impl Strategy<Value = Syscall> {
    (0u32..=10).prop_map(|c| Syscall::from_code(c).unwrap())
}

prop_compose! {
    fn arb_instr()(
        sel in 0usize..19,
        rd in arb_reg(),
        ra in arb_reg(),
        rb in arb_reg(),
        simm in any::<i16>(),
        uimm in any::<u16>(),
        off26 in -(1i32 << 25)..(1i32 << 25),
        crf in arb_crf(),
        bit in arb_crbit(),
        expect in any::<bool>(),
        alu in arb_aluop(),
        call in arb_syscall(),
    ) -> Instr {
        match sel {
            0 => Instr::Addi { rd, ra, imm: simm },
            1 => Instr::Addis { rd, ra, imm: simm },
            2 => Instr::Andi { rd, ra, imm: uimm },
            3 => Instr::Ori { rd, ra, imm: uimm },
            4 => Instr::Xori { rd, ra, imm: uimm },
            5 => Instr::Cmpi { crf, ra, imm: simm },
            6 => Instr::Cmp { crf, ra, rb },
            7 => Instr::Alu { op: alu, rd, ra, rb },
            8 => Instr::Lwz { rd, ra, d: simm },
            9 => Instr::Stw { rs: rd, ra, d: simm },
            10 => Instr::Lbz { rd, ra, d: simm },
            11 => Instr::Stb { rs: rd, ra, d: simm },
            12 => Instr::B { off: off26 },
            13 => Instr::Bl { off: off26 },
            14 => Instr::Bc { crf, bit, expect, off: simm },
            15 => Instr::Blr,
            16 => Instr::Mflr { rd },
            17 => Instr::Mtlr { ra },
            18 => Instr::Sc { call },
            _ => Instr::Halt,
        }
    }
}

prop_compose! {
    /// [`arb_instr`] reshaped so a random program runs for a while: one
    /// word in four is an `addi` (adjacent pairs fuse into one block
    /// step), branch offsets are small (see [`loop_program`]), and
    /// most loads and stores hit the stack through r1 or a code word (a
    /// self-modifying store) instead of trapping on a wild address.
    fn arb_runnable_instr()(
        i in arb_instr(),
        addi in 0u8..4,
        rd in arb_reg(),
        ra in arb_reg(),
        imm in any::<i16>(),
        near in -8i32..8,
        target in 0u8..8,
        slot in 1i16..64,
    ) -> Instr {
        let (base, d) = match target {
            0..=4 => (1, -4 * slot),
            5 | 6 => (0, swifi_vm::CODE_BASE as i16 + 4 * (slot % 32)),
            _ => (ra, imm),
        };
        match i {
            _ if addi == 0 => Instr::Addi { rd, ra, imm },
            Instr::B { .. } => Instr::B { off: near },
            Instr::Bl { .. } => Instr::Bl { off: near },
            Instr::Bc { crf, bit, expect, .. } => Instr::Bc { crf, bit, expect, off: near as i16 },
            Instr::Lwz { rd, .. } => Instr::Lwz { rd, ra: base, d },
            Instr::Lbz { rd, .. } => Instr::Lbz { rd, ra: base, d },
            Instr::Stw { rs, .. } => Instr::Stw { rs, ra: base, d },
            Instr::Stb { rs, .. } => Instr::Stb { rs, ra: base, d },
            other => other,
        }
    }
}

/// An instruction budget for the random-code differentials: short ones,
/// which end runs inside their first blocks, as often as long ones.
fn arb_budget() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..200, 200u64..=20_000]
}

/// Encode `code` as a loop body that cannot run off its ends. A leading
/// `bl` sets the link register to the body's first word, so `blr`
/// returns there; a trailing `b` jumps back to it; and a branch at body
/// word `i` with offset `off` lands on body word `(i + off) mod len`.
fn loop_program(code: &[Instr]) -> Vec<u32> {
    let len = code.len() as i32;
    let within = |i: usize, off: i32| (i as i32 + off).rem_euclid(len) - i as i32;
    let body = code.iter().enumerate().map(|(i, &instr)| match instr {
        Instr::B { off } => Instr::B {
            off: within(i, off),
        },
        Instr::Bl { off } => Instr::Bl {
            off: within(i, off),
        },
        Instr::Bc {
            crf,
            bit,
            expect,
            off,
        } => Instr::Bc {
            crf,
            bit,
            expect,
            off: within(i, off.into()) as i16,
        },
        other => other,
    });
    std::iter::once(Instr::Bl { off: 1 })
        .chain(body)
        .chain(std::iter::once(Instr::B { off: -len }))
        .map(encode)
        .collect()
}

/// Which [`Inspector`] hook a [`HookLog`] entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    Fetch,
    LoadAddr,
    LoadValue,
    StoreAddr,
    StoreValue,
    RegWrite(u8),
    Retire,
}

/// Records hook calls in order as (hook, pc, value) and corrupts three
/// things at one pc: register write-back, inbound load values, and (on
/// the arrivals whose bit is set in `corrupt`) the fetched word. The pc is
/// a trigger pin ([`FetchPolicy::Pcs`]), so the block interpreter runs it
/// as a fetch step; `on_fetch` is logged there only, because the
/// reference interpreter offers every fetch.
///
/// A loud log records every hook and never declares a block quiescent, so
/// blocks run on their hooked body. A quiet log records only the hooks at
/// its pc and counts retires, so it may declare every block quiescent:
/// blocks then run hook-free except at their fetch steps.
struct HookLog {
    calls: Vec<(Hook, u32, u32)>,
    pc: u32,
    mask: u32,
    corrupt: u64,
    arrivals: u64,
    quiet: bool,
    retired: u64,
}

impl HookLog {
    fn new(pc: u32, mask: u32, corrupt: u64, quiet: bool) -> HookLog {
        HookLog {
            calls: Vec::new(),
            pc,
            mask,
            corrupt,
            arrivals: 0,
            quiet,
            retired: 0,
        }
    }

    fn log(&mut self, hook: Hook, pc: u32, value: u32) {
        if !self.quiet || pc == self.pc {
            self.calls.push((hook, pc, value));
        }
    }
}

impl Inspector for HookLog {
    fn fetch_policy(&self) -> FetchPolicy {
        FetchPolicy::Pcs(vec![self.pc])
    }

    fn on_fetch(&mut self, _core: usize, pc: u32, word: &mut u32) {
        if pc != self.pc {
            return;
        }
        if self.corrupt >> (self.arrivals % 64) & 1 == 1 {
            *word ^= self.mask;
        }
        self.arrivals += 1;
        self.calls.push((Hook::Fetch, pc, *word));
    }

    fn on_load_addr(&mut self, _core: usize, pc: u32, addr: &mut u32) {
        self.log(Hook::LoadAddr, pc, *addr);
    }

    fn on_load_value(&mut self, _core: usize, pc: u32, _addr: u32, value: &mut u32) {
        if pc == self.pc {
            *value ^= self.mask;
        }
        self.log(Hook::LoadValue, pc, *value);
    }

    fn on_store_addr(&mut self, _core: usize, pc: u32, addr: &mut u32) {
        self.log(Hook::StoreAddr, pc, *addr);
    }

    fn on_store_value(&mut self, _core: usize, pc: u32, _addr: u32, value: &mut u32) {
        self.log(Hook::StoreValue, pc, *value);
    }

    fn on_reg_write(&mut self, _core: usize, pc: u32, reg: u8, value: &mut u32) {
        if pc == self.pc {
            *value ^= self.mask;
        }
        self.log(Hook::RegWrite(reg), pc, *value);
    }

    fn on_retire(&mut self, _core: usize, pc: u32) {
        self.retired += 1;
        if !self.quiet {
            self.calls.push((Hook::Retire, pc, 0));
        }
    }

    fn block_quiescent(&self, _core: usize, _first_pc: u32, _last_pc: u32) -> bool {
        self.quiet
    }

    fn on_block_retire(&mut self, _core: usize, _first_pc: u32, n: u32) {
        self.retired += u64::from(n);
    }
}

/// One step of [`restore_sequences_match_a_byte_model`].
#[derive(Debug, Clone, Copy)]
enum RestoreOp {
    /// Poke `value` into the word at `slot`: the whole word (`whole`), or
    /// only its byte `slot % 4` (the other three bytes are poked back
    /// unchanged). `code` aims the write at the program's code words.
    Write {
        code: bool,
        whole: bool,
        slot: u32,
        value: u32,
    },
    /// Capture a fork of the current state.
    Fork,
    /// Restore captured fork number `n` (modulo the forks captured).
    RestoreFork(usize),
    /// Warm-reboot to the base snapshot.
    Restore,
}

fn arb_restore_op() -> impl Strategy<Value = RestoreOp> {
    (
        0u8..8,
        any::<bool>(),
        any::<bool>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(kind, code, whole, slot, value)| match kind {
            0..=3 => RestoreOp::Write {
                code,
                whole,
                slot,
                value,
            },
            4 => RestoreOp::Fork,
            5 | 6 => RestoreOp::RestoreFork(slot as usize),
            _ => RestoreOp::Restore,
        })
}

/// Guest memory from `CODE_BASE` up, as bytes.
fn guest_bytes(m: &Machine, size: u32) -> Vec<u8> {
    (swifi_vm::CODE_BASE..size)
        .step_by(4)
        .flat_map(|a| m.peek_u32(a).unwrap().to_le_bytes())
        .collect()
}

proptest! {
    /// encode ∘ decode is the identity on valid instructions.
    #[test]
    fn encode_decode_round_trip(i in arb_instr()) {
        prop_assert_eq!(decode(encode(i)), Ok(i));
    }

    /// Any word that decodes re-encodes to itself: the decoder accepts no
    /// non-canonical encodings (important for the injector, which diffs
    /// instruction words).
    #[test]
    fn decode_is_canonical(w in any::<u32>()) {
        if let Ok(i) = decode(w) {
            prop_assert_eq!(encode(i), w);
        }
    }

    /// The assembler parses the `Display` form of any instruction back to
    /// the same word (numeric branch offsets included).
    #[test]
    fn display_assembles_back(i in arb_instr()) {
        let text = i.to_string();
        let mut b = CodeBuilder::new();
        b.push(i);
        let direct = b.finish().unwrap();
        let via_text = assemble(&text).unwrap();
        prop_assert_eq!(direct.code, via_text.code, "text was `{}`", text);
    }

    /// Random malloc/free sequences keep the allocator's invariants: no
    /// overlap between live blocks, everything inside the arena, frees of
    /// live pointers always succeed.
    #[test]
    fn allocator_invariants(ops in proptest::collection::vec((any::<bool>(), 1u32..512), 1..200)) {
        let base = 0x1000u32;
        let limit = 0x9000u32;
        let mut a = Allocator::new(base, limit);
        let mut live: Vec<(u32, u32)> = Vec::new();
        for (do_free, size) in ops {
            if do_free && !live.is_empty() {
                let (ptr, _) = live.swap_remove(live.len() / 2);
                prop_assert!(a.free(ptr).is_ok());
            } else {
                let p = a.malloc(size);
                if p != 0 {
                    prop_assert!(p >= base && p + size <= limit, "block in arena");
                    prop_assert_eq!(p % 8, 0, "aligned");
                    for &(q, qs) in &live {
                        prop_assert!(p + size <= q || q + qs <= p, "no overlap");
                    }
                    live.push((p, size));
                }
            }
        }
        prop_assert_eq!(a.live_blocks(), live.len());
    }

    /// Running the same image twice on fresh machines gives identical
    /// outcomes — the determinism the reboot-per-injection methodology
    /// relies on. Uses random (usually trapping) code.
    #[test]
    fn machine_is_deterministic(words in proptest::collection::vec(any::<u32>(), 1..64)) {
        let image = swifi_vm::Image { code: words, data: vec![], entry: swifi_vm::CODE_BASE };
        let cfg = MachineConfig { budget: 10_000, ..MachineConfig::default() };
        let run = || {
            let mut m = Machine::new(cfg.clone());
            m.load(&image);
            m.run(&mut Noop)
        };
        prop_assert_eq!(run(), run());
    }

    /// The machine never panics on arbitrary code — every abnormal path is
    /// a typed outcome. (Running random words is exactly what heavy fault
    /// injection does.)
    #[test]
    fn machine_total_on_garbage(words in proptest::collection::vec(any::<u32>(), 1..256)) {
        let image = swifi_vm::Image { code: words, data: vec![], entry: swifi_vm::CODE_BASE };
        let mut m = Machine::new(MachineConfig { budget: 20_000, ..MachineConfig::default() });
        m.load(&image);
        match m.run(&mut Noop) {
            RunOutcome::Completed { .. } | RunOutcome::Trapped { .. } | RunOutcome::Hang { .. } => {}
        }
    }

    /// The blocks ≡ reference oracle on arbitrary code: the block
    /// interpreter, `step` over the decoded lines, and the seed
    /// decode-every-fetch reference interpreter agree on the outcome,
    /// the retired-instruction count, and the final architectural state
    /// — both on the pristine program and after a mid-run code patch
    /// poked into a warm machine (where a stale translation would
    /// replay the unpatched block). The budget is drawn, so a run that
    /// hangs ends mid-block at any offset, inside fused steps included.
    #[test]
    fn block_interpreter_matches_reference_on_random_code(
        words in proptest::collection::vec(any::<u32>(), 1..128),
        patch_index in 0usize..128,
        patch_mask in 1u32..=u32::MAX,
        budget in arb_budget(),
    ) {
        let len = words.len();
        let image = swifi_vm::Image { code: words, data: vec![], entry: swifi_vm::CODE_BASE };
        let cfg = MachineConfig { budget, ..MachineConfig::default() };
        let patch_addr = swifi_vm::CODE_BASE + ((patch_index % len) as u32) * 4;
        let observe = |m: &Machine, out: RunOutcome| {
            let c = m.core(0);
            (out, m.retired(), c.regs, c.pc, c.lr)
        };
        let run = |tier: usize| {
            let mut m = Machine::new(cfg.clone());
            match tier {
                0 => {}                              // blocks (default)
                1 => m.set_block_interp(false),      // `step` over decoded lines
                _ => m.set_reference_interp(true),   // seed interpreter
            }
            m.load(&image);
            let snap = m.snapshot();
            let out = m.run(&mut Noop);
            let pristine = observe(&m, out);
            // Mid-campaign patch: warm-reboot the machine (translations
            // survive the restore) and flip a code word before rerunning.
            m.restore(&snap);
            let old = m.peek_u32(patch_addr).unwrap();
            m.poke_u32(patch_addr, old ^ patch_mask).unwrap();
            let out = m.run(&mut Noop);
            let patched = observe(&m, out);
            (pristine, patched)
        };
        let blocks = run(0);
        prop_assert_eq!(&blocks, &run(1), "blocks vs step");
        prop_assert_eq!(&blocks, &run(2), "blocks vs reference");
    }

    /// The hooked-block oracle: with an inspector that hooks every
    /// interface, pins one pc as a fault trigger and perturbs three of its
    /// interfaces there, the block interpreter, `step` over the decoded
    /// lines and the reference interpreter agree on the outcome, the
    /// retired count, the
    /// final registers, pc and lr, and the exact sequence of hook calls.
    /// The trigger's fetch is corrupted on the drawn arrivals, into a
    /// drawn instruction (data op, branch, syscall or halt) or by a raw
    /// mask (often an illegal word), so a block's fetch step must run the
    /// unchanged or corrupted data op in place and hand anything else to
    /// the single-step path, reaching `on_fetch` once per arrival. Each
    /// case runs on one core and on two cores with a small quantum, with
    /// a loud log (every block hooked) and a quiet one (blocks hook-free
    /// but for their fetch steps), under a drawn budget, so quantum and
    /// budget tails end blocks at every step boundary. Programs are
    /// encoded instructions
    /// rather than random words, so most words decode and blocks run
    /// several steps (fused `addi` pairs included) before a branch or a
    /// trap ends them.
    #[test]
    fn hooked_blocks_match_reference_on_random_code(
        code in proptest::collection::vec(arb_runnable_instr(), 1..96),
        perturb_index in 0usize..96,
        raw_mask in 1u32..=u32::MAX,
        use_raw in any::<bool>(),
        corrupt_to in arb_runnable_instr(),
        corrupt in any::<u64>(),
        quantum in 1u32..16,
        budget in arb_budget(),
    ) {
        let len = code.len();
        let image = swifi_vm::Image {
            code: loop_program(&code),
            data: vec![],
            entry: swifi_vm::CODE_BASE,
        };
        let index = perturb_index % len;
        let pc = swifi_vm::CODE_BASE + 4 + (index as u32) * 4;
        let mask = if use_raw || corrupt_to == code[index] {
            raw_mask
        } else {
            encode(corrupt_to) ^ image.code[index + 1]
        };
        let case = proptest::current_case();
        for (cores, quantum) in [(1, 64), (2, quantum)] {
            let cfg = MachineConfig {
                budget,
                num_cores: cores,
                quantum,
                ..MachineConfig::default()
            };
            for quiet in [false, true] {
                let run = |tier: usize| {
                    let mut m = Machine::new(cfg.clone());
                    match tier {
                        0 => {}                              // blocks (default)
                        1 => m.set_block_interp(false),      // `step` over decoded lines
                        _ => m.set_reference_interp(true),   // seed interpreter
                    }
                    m.load(&image);
                    let mut log = HookLog::new(pc, mask, corrupt, quiet);
                    let out = m.run(&mut log);
                    let state: Vec<_> = (0..cores).map(|i| {
                        let c = m.core(i);
                        (c.regs, c.pc, c.lr)
                    }).collect();
                    (out, m.retired(), log.retired, state, log.calls)
                };
                let blocks = run(0);
                prop_assert_eq!(
                    &blocks, &run(1),
                    "blocks vs step, case {}, {} cores, quiet {}", case, cores, quiet
                );
                prop_assert_eq!(
                    &blocks, &run(2),
                    "blocks vs reference, case {}, {} cores, quiet {}", case, cores, quiet
                );
            }
        }
    }

    /// The restore-sequence property: random word and byte writes into
    /// code and data pages, fork captures, fork restores and warm reboots,
    /// applied to a block-cached machine and to a reference-interpreter
    /// twin. After every op both machines' memory equals a byte model, and
    /// `dirty_pages` counts exactly the pages written since the last
    /// restore or overlaid by it (a superset of the pages that differ from
    /// base). After every restore both machines run from the restored
    /// state and must agree on the outcome and the final state — a stale
    /// decoded line or translated block would replay old code — and a
    /// fork restore of the state captured before that run must undo it.
    #[test]
    fn restore_sequences_match_a_byte_model(
        code in proptest::collection::vec(arb_runnable_instr(), 1..48),
        ops in proptest::collection::vec(arb_restore_op(), 1..40),
    ) {
        const SIZE: u32 = 32 << 10;
        let page = |addr: u32| (addr / swifi_vm::PAGE_SIZE) as usize;
        let image = swifi_vm::Image {
            code: loop_program(&code),
            data: (0..=255).collect(),
            entry: swifi_vm::CODE_BASE,
        };
        let code_words = image.code.len() as u32;
        let cfg = MachineConfig {
            mem_size: SIZE,
            stack_size: 4 << 10,
            budget: 2_000,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg.clone());
        let mut r = Machine::new(cfg);
        r.set_reference_interp(true);
        m.load(&image);
        r.load(&image);
        let (base_m, base_r) = (m.snapshot(), r.snapshot());
        let base = guest_bytes(&m, SIZE);
        // The model: guest bytes and the pages written or overlaid since
        // the last restore; each fork keeps its own copy of both.
        let mut bytes = base.clone();
        let mut touched = BTreeSet::new();
        let mut forks: Vec<(ForkSnapshot, Vec<u8>, BTreeSet<usize>)> = Vec::new();
        let case = proptest::current_case();
        for (step, &op) in ops.iter().enumerate() {
            let restored = match op {
                RestoreOp::Write { code, whole, slot, value } => {
                    let words = if code { code_words } else { (SIZE - swifi_vm::CODE_BASE) / 4 };
                    let addr = swifi_vm::CODE_BASE + 4 * (slot % words);
                    let old = m.peek_u32(addr).unwrap();
                    let new = if whole {
                        value
                    } else {
                        let shift = 8 * (slot % 4);
                        old & !(0xFF << shift) | (value & 0xFF) << shift
                    };
                    m.poke_u32(addr, new).unwrap();
                    r.poke_u32(addr, new).unwrap();
                    let at = (addr - swifi_vm::CODE_BASE) as usize;
                    bytes[at..at + 4].copy_from_slice(&new.to_le_bytes());
                    touched.insert(page(addr));
                    false
                }
                RestoreOp::Fork => {
                    forks.push((m.fork_snapshot(), bytes.clone(), touched.clone()));
                    false
                }
                RestoreOp::RestoreFork(n) if !forks.is_empty() => {
                    let (fork, fork_bytes, fork_touched) = &forks[n % forks.len()];
                    m.restore_fork(&base_m, fork);
                    r.restore_fork(&base_r, fork);
                    bytes.clone_from(fork_bytes);
                    touched.clone_from(fork_touched);
                    true
                }
                RestoreOp::RestoreFork(_) | RestoreOp::Restore => {
                    m.restore(&base_m);
                    r.restore(&base_r);
                    bytes.clone_from(&base);
                    touched.clear();
                    true
                }
            };
            for (name, machine) in [("cached", &m), ("reference", &r)] {
                prop_assert!(
                    guest_bytes(machine, SIZE) == bytes,
                    "case {}, step {} ({:?}): {} memory differs from the model",
                    case, step, op, name
                );
                prop_assert_eq!(
                    machine.dirty_pages(),
                    touched.len(),
                    "case {}, step {} ({:?}): {} dirty pages",
                    case, step, op, name
                );
            }
            for p in 0..page(SIZE) {
                // Offsets into `bytes`, which starts at CODE_BASE.
                let start = (p as u32 * swifi_vm::PAGE_SIZE).max(swifi_vm::CODE_BASE);
                let at = (start - swifi_vm::CODE_BASE) as usize;
                let end = ((p as u32 + 1) * swifi_vm::PAGE_SIZE - swifi_vm::CODE_BASE) as usize;
                prop_assert!(
                    bytes[at..end] == base[at..end] || touched.contains(&p),
                    "case {}, step {}: page {} differs from base but is not dirty",
                    case, step, p
                );
            }
            if restored {
                let (here_m, here_r) = (m.fork_snapshot(), r.fork_snapshot());
                let observe = |machine: &mut Machine| {
                    let out = machine.run(&mut Noop);
                    let c = machine.core(0);
                    (out, machine.retired(), c.regs, c.pc, c.lr, guest_bytes(machine, SIZE))
                };
                let cached = observe(&mut m);
                prop_assert!(
                    cached == observe(&mut r),
                    "case {}, step {} ({:?}): cached run differs from the reference",
                    case, step, op
                );
                m.restore_fork(&base_m, &here_m);
                r.restore_fork(&base_r, &here_r);
                for machine in [&m, &r] {
                    prop_assert!(
                        guest_bytes(machine, SIZE) == bytes && machine.dirty_pages() == touched.len(),
                        "case {}, step {}: a fork restore did not undo the run",
                        case, step
                    );
                }
            }
        }
    }
}
