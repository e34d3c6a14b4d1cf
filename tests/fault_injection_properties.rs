//! Property-based integration tests: the injection machinery is total,
//! deterministic, and faithful under arbitrary fault specifications.

use proptest::prelude::*;
use swifi_campaign::runner::{execute, FailureMode};
use swifi_campaign::RunSession;
use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
use swifi_core::injector::{Injector, TriggerMode};
use swifi_lang::compile;
use swifi_programs::{program, Family, TestInput};
use swifi_vm::machine::{Machine, MachineConfig};

fn arb_error_op() -> impl Strategy<Value = ErrorOp> {
    prop_oneof![
        any::<u32>().prop_map(ErrorOp::Xor),
        any::<u32>().prop_map(ErrorOp::And),
        any::<u32>().prop_map(ErrorOp::Or),
        any::<i32>().prop_map(ErrorOp::Add),
        any::<u32>().prop_map(ErrorOp::Replace),
        Just(ErrorOp::ReplaceRandom),
    ]
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        Just(Target::InstrBus),
        Just(Target::InstrMemory),
        Just(Target::DataBusLoad),
        Just(Target::DataBusStore),
        Just(Target::LoadAddress),
        Just(Target::StoreAddress),
        (0u8..32).prop_map(Target::Gpr),
    ]
}

fn arb_firing() -> impl Strategy<Value = Firing> {
    prop_oneof![
        Just(Firing::First),
        Just(Firing::EveryTime),
        (1u64..50).prop_map(Firing::Nth)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Injecting ANY single fault anywhere in JB.team11's code never
    /// panics the host: every outcome is one of the four failure modes.
    /// (This is the safety property the whole campaign rests on.)
    #[test]
    fn arbitrary_faults_are_total(
        word_index in 0usize..600,
        op in arb_error_op(),
        target in arb_target(),
        when in arb_firing(),
        seed in any::<u64>(),
    ) {
        let p = program("JB.team11").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let addr = swifi_vm::CODE_BASE
            + ((word_index % compiled.image.code.len()) as u32) * 4;
        let spec = FaultSpec { what: op, target, trigger: Trigger::OpcodeFetch(addr), when };
        let input = TestInput::JamesB { seed: 7, line: b"property test".to_vec() };
        let (mode, _) = execute(&compiled, Family::JamesB, &input, Some(&spec), seed);
        prop_assert!(FailureMode::ALL.contains(&mode));
    }

    /// Identical (spec, input, seed) triples give identical outcomes —
    /// the determinism that makes campaigns reproducible.
    #[test]
    fn injection_is_deterministic(
        word_index in 0usize..600,
        op in arb_error_op(),
        seed in any::<u64>(),
    ) {
        let p = program("JB.team6").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let addr = swifi_vm::CODE_BASE
            + ((word_index % compiled.image.code.len()) as u32) * 4;
        let spec = FaultSpec {
            what: op,
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(addr),
            when: Firing::EveryTime,
        };
        let input = TestInput::JamesB { seed: 1, line: b"determinism".to_vec() };
        let a = execute(&compiled, Family::JamesB, &input, Some(&spec), seed);
        let b = execute(&compiled, Family::JamesB, &input, Some(&spec), seed);
        prop_assert_eq!(a, b);
    }

    /// A fault whose trigger address is never fetched stays dormant and
    /// leaves the outcome untouched.
    #[test]
    fn dormant_faults_do_not_perturb(op in arb_error_op(), seed in any::<u64>()) {
        let p = program("JB.team11").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        // Trigger far past the code segment (data area): never fetched.
        let addr = swifi_vm::CODE_BASE + compiled.image.code.len() as u32 * 4 + 0x400;
        let spec = FaultSpec {
            what: op,
            target: Target::DataBusStore,
            trigger: Trigger::OpcodeFetch(addr),
            when: Firing::EveryTime,
        };
        let input = TestInput::JamesB { seed: 2, line: b"dormant".to_vec() };
        let (mode, fired) = execute(&compiled, Family::JamesB, &input, Some(&spec), seed);
        prop_assert!(!fired);
        prop_assert_eq!(mode, FailureMode::Correct);
    }

    /// XOR-mask instruction-bus faults are self-inverse: applying the mask
    /// twice (two identical faults on the same fetch) restores behaviour.
    #[test]
    fn xor_faults_cancel_pairwise(mask in 1u32..=u32::MAX, word_index in 0usize..100) {
        let p = program("JB.team11").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let addr = swifi_vm::CODE_BASE
            + ((word_index % compiled.image.code.len()) as u32) * 4;
        let mk_spec = || FaultSpec {
            what: ErrorOp::Xor(mask),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(addr),
            when: Firing::EveryTime,
        };
        let input = TestInput::JamesB { seed: 3, line: b"xor".to_vec() };
        let run = |specs: Vec<FaultSpec>| {
            let mut m = Machine::new(MachineConfig::default());
            m.load(&compiled.image);
            m.set_input(input.to_tape());
            let mut inj = Injector::new(specs, TriggerMode::IntrusiveTraps, 0).unwrap();
            inj.prepare(&mut m).unwrap();
            m.run(&mut inj).output().to_vec()
        };
        let clean = run(vec![]);
        let double = run(vec![mk_spec(), mk_spec()]);
        prop_assert_eq!(clean, double);
    }

    /// Warm reboots are invisible: replaying a (fault, input, seed) triple
    /// through a *reused* [`RunSession`] — after earlier runs have dirtied
    /// memory, consumed input, and (for memory-resident faults) patched the
    /// code image in place — gives exactly the outcome a cold boot gives.
    /// This is the invariant the whole snapshot/restore engine rests on.
    #[test]
    fn warm_reboot_matches_cold_boot(
        word_index in 0usize..600,
        op in arb_error_op(),
        target in arb_target(),
        when in arb_firing(),
        seed in any::<u64>(),
    ) {
        let p = program("JB.team11").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let addr = swifi_vm::CODE_BASE
            + ((word_index % compiled.image.code.len()) as u32) * 4;
        let spec = FaultSpec { what: op, target, trigger: Trigger::OpcodeFetch(addr), when };
        // A guaranteed memory-resident fault used to deliberately scar the
        // session between measured runs: `prepare()` patches the code image,
        // so restore must undo real damage, not just register state.
        let scar = FaultSpec {
            what: ErrorOp::Xor(0xFFFF_FFFF),
            target: Target::InstrMemory,
            trigger: Trigger::OpcodeFetch(addr),
            when: Firing::First,
        };
        let inputs = [
            TestInput::JamesB { seed: 7, line: b"warm boot one".to_vec() },
            TestInput::JamesB { seed: 9, line: b"warm boot two".to_vec() },
        ];
        let mut session = RunSession::new(&compiled, Family::JamesB);
        for input in &inputs {
            // Dirty the session: a clean run, then a code-patching run.
            let _ = session.run(input, None, seed);
            let _ = session.run(input, Some(&scar), seed ^ 0xA5A5);
            let warm = session.run(input, Some(&spec), seed);
            let cold = execute(&compiled, Family::JamesB, input, Some(&spec), seed);
            prop_assert_eq!(warm, cold);
        }
    }

    /// Differential property for the translation cache: a warm session on
    /// the cached interpreter and a warm session on the seed
    /// decode-every-fetch reference interpreter classify every (fault,
    /// input, seed) triple identically — including code-patch faults
    /// (`Target::InstrMemory`) applied *mid-campaign* through
    /// [`Injector`]'s reset/prepare path after the cache is already warm,
    /// which is exactly where a stale decoded line would diverge.
    #[test]
    fn cached_interpreter_matches_reference(
        word_index in 0usize..600,
        op in arb_error_op(),
        target in arb_target(),
        when in arb_firing(),
        seed in any::<u64>(),
    ) {
        let p = program("JB.team11").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let addr = swifi_vm::CODE_BASE
            + ((word_index % compiled.image.code.len()) as u32) * 4;
        let spec = FaultSpec { what: op, target, trigger: Trigger::OpcodeFetch(addr), when };
        // Guaranteed code patch: prepare() pokes the flipped word straight
        // into instruction memory while the session's decode cache still
        // holds lines built by the preceding clean run.
        let patch = FaultSpec {
            what: ErrorOp::Xor(0x0000_FFFF),
            target: Target::InstrMemory,
            trigger: Trigger::OpcodeFetch(addr),
            when: Firing::First,
        };
        let input = TestInput::JamesB { seed: 4, line: b"differential".to_vec() };
        // Three warm sessions, one per fetch-pipeline tier: translated
        // blocks (the default), predecoded lines only, and the seed
        // decode-every-fetch reference.
        let mut blocks = RunSession::new(&compiled, Family::JamesB);
        let mut cached = RunSession::new(&compiled, Family::JamesB);
        cached.set_block_cache(false);
        let mut reference = RunSession::new(&compiled, Family::JamesB);
        reference.set_reference_interp(true);
        let schedule: [(Option<&FaultSpec>, u64); 4] = [
            (None, seed),                       // warms the decode cache
            (Some(&patch), seed ^ 0x5A5A),      // mid-campaign code patch
            (Some(&spec), seed),                // the random fault under test
            (None, seed ^ 1),                   // restore must be clean again
        ];
        for (i, (fault, s)) in schedule.iter().enumerate() {
            let blk = blocks.run(&input, *fault, *s);
            let warm = cached.run(&input, *fault, *s);
            let refr = reference.run(&input, *fault, *s);
            prop_assert_eq!(warm, refr, "run {} diverged (lines vs reference)", i);
            prop_assert_eq!(blk, refr, "run {} diverged (blocks vs reference)", i);
            prop_assert_eq!(blocks.last_retired(), reference.last_retired(),
                "run {} retired diverged", i);
        }
    }

    /// Fetch-time corruption (`Target::InstrBus`) lives on the slow path:
    /// the armed trigger PC is pinned out of the decode cache, so
    /// `on_fetch` still sees — and may corrupt — the fetched word. The raw
    /// [`swifi_vm::machine::RunOutcome`], fired flag, and retired
    /// instruction count must all be bit-identical across interpreters.
    #[test]
    fn fetch_corruption_identical_across_interpreters(
        word_index in 0usize..600,
        op in arb_error_op(),
        when in arb_firing(),
        seed in any::<u64>(),
    ) {
        let p = program("JB.team6").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let addr = swifi_vm::CODE_BASE
            + ((word_index % compiled.image.code.len()) as u32) * 4;
        let spec = FaultSpec {
            what: op,
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(addr),
            when,
        };
        let input = TestInput::JamesB { seed: 6, line: b"fetch corruption".to_vec() };
        let run = |reference: bool| {
            let mut m = Machine::new(MachineConfig::default());
            m.set_reference_interp(reference);
            m.load(&compiled.image);
            m.set_input(input.to_tape());
            let mut inj = Injector::new(vec![spec], TriggerMode::IntrusiveTraps, seed).unwrap();
            inj.prepare(&mut m).unwrap();
            let out = m.run(&mut inj);
            (out, inj.any_fired(), m.retired())
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// The prefix-fork oracle: for arbitrary (fault, firing policy, seed)
    /// triples — including `Firing::Nth` occurrences that land before,
    /// on, and past the golden run's trigger count — a fork-enabled
    /// session produces *bit-identical* failure-mode classifications,
    /// fired flags, and full-run retired-instruction counts vs both a
    /// fork-free warm session and a cold boot. Each triple runs twice on
    /// the forked session so both fork paths are exercised: the first
    /// pass captures (or finishes as the golden run), the second resumes
    /// from the cached snapshot (or dormant-short-circuits).
    #[test]
    fn forked_runs_match_full_runs(
        word_index in 0usize..600,
        op in arb_error_op(),
        target in arb_target(),
        when in arb_firing(),
        seed in any::<u64>(),
    ) {
        let p = program("JB.team11").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let addr = swifi_vm::CODE_BASE
            + ((word_index % compiled.image.code.len()) as u32) * 4;
        let spec = FaultSpec { what: op, target, trigger: Trigger::OpcodeFetch(addr), when };
        let input = TestInput::JamesB { seed: 5, line: b"prefix fork".to_vec() };
        let mut full = RunSession::new(&compiled, Family::JamesB);
        let mut forked = RunSession::new(&compiled, Family::JamesB);
        forked.set_prefix_cache(Some(swifi_campaign::PrefixCache::shared()));

        let want = full.run(&input, Some(&spec), seed);
        let want_retired = full.last_retired();
        let cold = execute(&compiled, Family::JamesB, &input, Some(&spec), seed);
        prop_assert_eq!(want, cold, "warm/cold baseline diverged");
        for pass in ["capture", "fork"] {
            let got = forked.run(&input, Some(&spec), seed);
            prop_assert_eq!(got, want, "{} pass diverged", pass);
            prop_assert_eq!(
                forked.last_retired(), want_retired,
                "{} pass retired-count diverged", pass
            );
        }
    }

    /// The trace-guided pruning oracle: for arbitrary (fault, firing
    /// policy, seed) triples, a pruning session — def-use watch list
    /// armed, never-arrives and dormancy-proof replays live, sampling
    /// oracle at 100% — classifies identically to an unpruned session,
    /// with identical fired flags and retired counts. Each triple runs
    /// twice on the pruned side: the first pass gathers the evidence
    /// (traced clean run, prefix capture), the second answers from the
    /// memoized plan (replay or fork). The
    /// 100% sampling re-executes every skipped run in full and asserts
    /// the predicted outcome, so a single misprediction fails the test.
    #[test]
    fn pruned_runs_match_unpruned_runs(
        word_index in 0usize..600,
        op in arb_error_op(),
        target in arb_target(),
        when in arb_firing(),
        seed in any::<u64>(),
    ) {
        let p = program("JB.team11").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let addr = swifi_vm::CODE_BASE
            + ((word_index % compiled.image.code.len()) as u32) * 4;
        let spec = FaultSpec { what: op, target, trigger: Trigger::OpcodeFetch(addr), when };
        let input = TestInput::JamesB { seed: 8, line: b"trace prune".to_vec() };

        let mut plain = RunSession::new(&compiled, Family::JamesB);
        plain.set_prefix_cache(Some(swifi_campaign::PrefixCache::shared()));
        let cache = swifi_campaign::PrefixCache::shared();
        cache.set_watch_pcs(vec![addr]);
        let mut pruned = RunSession::new(&compiled, Family::JamesB);
        pruned.set_prefix_cache(Some(cache));
        pruned.set_prune(true, 100);

        let want = plain.run(&input, Some(&spec), seed);
        let want_retired = plain.last_retired();
        for pass in ["evidence", "memoized"] {
            let got = pruned.run(&input, Some(&spec), seed);
            prop_assert_eq!(got, want, "{} pass diverged", pass);
            prop_assert_eq!(
                pruned.last_retired(), want_retired,
                "{} pass retired-count diverged", pass
            );
        }
        let stats = pruned.stats();
        prop_assert_eq!(stats.prune_sample_mispredicts, 0, "sampling oracle misprediction");
    }

    /// The generated error sets scale linearly with chosen locations: the
    /// §6.3 accounting identity (`faults = Σ applicable types`).
    #[test]
    fn error_set_accounting(n_assign in 0usize..12, n_check in 0usize..12, seed in any::<u64>()) {
        let p = program("C.team8").unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let set = swifi_core::locations::generate_error_set(
            &compiled.debug, n_assign, n_check, seed);
        prop_assert_eq!(
            set.assign_faults.len(),
            set.plan.chosen_assign.len() * 4,
            "four error types per assignment location"
        );
        let expected: usize = set
            .plan
            .chosen_check
            .iter()
            .map(|&i| compiled.debug.checks[i].mutations.len())
            .sum();
        prop_assert_eq!(set.check_faults.len(), expected);
    }
}
