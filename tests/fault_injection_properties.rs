//! Property-based integration tests: the injection machinery is total,
//! deterministic, and faithful under arbitrary fault specifications, and
//! every execution tier matches the cold reference run.

mod common;

use std::path::Path;

use proptest::prelude::*;
use proptest::{collection, TestRng};
use swifi_campaign::matrix::{Matrix, Tile};
use swifi_campaign::report::class_campaign_report;
use swifi_campaign::runner::{execute, execute_cold, FailureMode};
use swifi_campaign::section6::{class_campaign_with, CampaignScale, ProgramCampaign};
use swifi_campaign::shard::{merge_checkpoints, merged_path, run_sharded, shard_paths};
use swifi_campaign::{CampaignOptions, RunSession, SessionStats, Shard};
use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
use swifi_core::injector::{Injector, TriggerMode};
use swifi_lang::{compile, Program};
use swifi_programs::{program, Family, TargetProgram, TestInput};
use swifi_vm::machine::{Machine, MachineConfig};

use common::{temp_path, truncate_checkpoint};

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

    /// Fetch-time corruption (`Target::InstrBus`) needs every fetch: the
    /// armed trigger PC is pinned, so `step` sends it down the slow path
    /// and a translated block runs it as a fetch step, and
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
    /// on, and past the golden run's trigger count — a run through the
    /// matrix, forked from the input's golden pass, produces
    /// *bit-identical* failure-mode classifications, fired flags, and
    /// full-run retired-instruction counts vs both a fork-free warm
    /// session and a cold boot. Each triple runs twice from the same
    /// ladder: the pass is made once, and its rung (or never-arrives
    /// verdict) serves both runs.
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
        let inputs = [TestInput::JamesB { seed: 5, line: b"prefix fork".to_vec() }];
        let mut full = RunSession::new(&compiled, Family::JamesB);
        let mut forked = RunSession::new(&compiled, Family::JamesB);
        let specs = [spec];
        let matrix = Matrix::new(&specs, &inputs);

        let want = full.run(&inputs[0], Some(&spec), seed);
        let want_retired = full.last_retired();
        let cold = execute(&compiled, Family::JamesB, &inputs[0], Some(&spec), seed);
        prop_assert_eq!(want, cold, "warm/cold baseline diverged");
        for round in 1..=2 {
            let got = matrix.run(&mut forked, true, 0, 0, seed);
            prop_assert_eq!(got, want, "run {} diverged", round);
            prop_assert_eq!(
                forked.last_retired(), want_retired,
                "run {} retired-count diverged", round
            );
        }
        prop_assert_eq!(forked.stats().prefix_golden_passes, 1);
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

/// The fetch pipeline a drawn session runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Blocks,
    Line,
    Reference,
}

/// How the drawn campaign reaches its report: directly; killed with
/// `keep % (records + 1)` records and a torn line on disk, then resumed;
/// or in `count` shards, losing shard `lose % count` and tearing the next
/// one after its first record before the merge.
#[derive(Debug, Clone, Copy)]
enum Split {
    Direct,
    Resume { keep: usize },
    Shards { count: u64, lose: Option<u64> },
}

/// One draw: a program (SOR is the multi-core one), a seed, 1–3 inputs,
/// a tier configuration, whether runs fork from golden passes, a tile —
/// one input and its faults, each with a run seed — and a campaign split.
#[derive(Debug, Clone)]
struct Case {
    program: &'static str,
    seed: u64,
    inputs: usize,
    tier: Tier,
    fork: bool,
    input: usize,
    faults: Vec<(FaultSpec, u64)>,
    split: Split,
}

prop_compose! {
    /// A fault whose trigger address is a placeholder for [`placed`].
    /// `Nth(1..=6)` is drawn half the time: occurrences that land before,
    /// on and past the fork boundary of a trigger inside a loop.
    fn arb_fault()(
        what in arb_error_op(),
        target in arb_target(),
        at in any::<u32>(),
        when in prop_oneof![arb_firing(), (1u64..=6).prop_map(Firing::Nth)],
    ) -> FaultSpec {
        FaultSpec { what, target, trigger: Trigger::OpcodeFetch(at), when }
    }
}

prop_compose! {
    /// A case on one of `programs` whose tile holds `faults` drawn faults
    /// (the `Nth(1..=6)` draws among them), one `InstrMemory` fault and
    /// one code patch, in drawn order. `InstrMemory` corrupts fetches; the
    /// patch is a `Target::Memory` fault on a code word, which the
    /// injector pokes before the run, so a stale line or block would
    /// replay the old word.
    fn arb_case(programs: &'static [&'static str], faults: std::ops::RangeInclusive<usize>)(
        program in (0..programs.len()).prop_map(move |i| programs[i]),
        seed in any::<u64>(),
        inputs in 1usize..=3,
        input in any::<usize>(),
        tier in prop_oneof![Just(Tier::Blocks), Just(Tier::Line), Just(Tier::Reference)],
        fork in any::<bool>(),
        faults in collection::vec(arb_fault(), faults.clone()),
        resident in arb_fault(),
        patch in arb_fault(),
        at in (any::<usize>(), any::<usize>()),
        seeds in collection::vec(any::<u64>(), 6),
        split in prop_oneof![
            Just(Split::Direct),
            any::<usize>().prop_map(|keep| Split::Resume { keep }),
            (2u64..=5, prop_oneof![Just(None), any::<u64>().prop_map(Some)])
                .prop_map(|(count, lose)| Split::Shards { count, lose }),
        ],
    ) -> Case {
        let mut faults = faults;
        let resident = FaultSpec { target: Target::InstrMemory, ..resident };
        faults.insert(at.0 % (faults.len() + 1), resident);
        let patch = FaultSpec { target: Target::Memory(0), ..patch };
        faults.insert(at.1 % (faults.len() + 1), patch);
        let faults = faults.into_iter().zip(seeds).collect();
        Case { program, seed, inputs, input: input % inputs, tier, fork, faults, split }
    }
}

/// Put a drawn fault into `program`: an even placeholder picks a
/// statement start (code most inputs run), an odd one any code word. A
/// `Target::Memory` fault patches the word it triggers on.
fn placed(spec: FaultSpec, program: &Program) -> FaultSpec {
    let (lines, words) = (&program.debug.line_map, program.image.code.len());
    let addr = match spec.trigger {
        Trigger::OpcodeFetch(n) if n % 2 == 0 => lines[n as usize / 2 % lines.len()].0,
        Trigger::OpcodeFetch(n) => swifi_vm::CODE_BASE + (n as usize / 2 % words) as u32 * 4,
        other => unreachable!("drawn faults trigger on a fetch, not {other:?}"),
    };
    let mut placed = FaultSpec {
        trigger: Trigger::OpcodeFetch(addr),
        ..spec
    };
    if let Target::Memory(patched) = &mut placed.target {
        *patched = addr;
    }
    placed
}

/// The tier-matrix oracle. Every fast path (warm reboot, `step` over
/// decoded lines, blocks, golden passes and forks, resume, sharding) must
/// give the
/// answer of the paper's one fault per freshly rebooted run. Each draw is
/// checked twice: its tile's runs against [`execute_cold`], and its
/// campaign against the all-off campaign run directly. The case loop is
/// written out so the tiers' own counters can be asserted over the whole
/// case set: an oracle whose runs never forked from a golden pass, or
/// whose blocks never ran, proves nothing.
#[test]
fn every_tier_combination_matches_the_cold_reference() {
    let cases = ProptestConfig::with_cases(20).resolved_cases();
    let programs = &["JB.team6", "JB.team11", "SOR"];
    let name = "every_tier_combination_matches_the_cold_reference";
    check_cases(name, cases, programs, 0..=3, |_, _| {});
}

/// The oracle on C.team10, a Camelot program: multi-page rungs and passes
/// that pause at many fork points, on one input and a tile of 3 faults. A
/// case costs seconds, so tier 1 leaves it to the gating `oracle-deep` CI
/// job, which runs a sixteenth of its case count. The tier and fork draws
/// cycle through every combination, so even a few cases cover them all.
#[test]
#[ignore = "seconds per case: run by the oracle-deep CI job"]
fn every_tier_combination_matches_the_cold_reference_on_camelot() {
    let cases = ProptestConfig::with_cases(20).resolved_cases().div_ceil(16);
    let name = "every_tier_combination_matches_the_cold_reference_on_camelot";
    check_cases(name, cases, &["C.team10"], 1..=1, |i, case| {
        case.inputs = 1;
        case.input = 0;
        case.tier = [Tier::Blocks, Tier::Line, Tier::Reference][i as usize % 3];
        case.fork = i % 2 == 0;
    });
}

/// Draw and check `cases` cases of [`arb_case`], seeded from `name`,
/// each as `adjust` leaves it.
fn check_cases(
    name: &str,
    cases: u32,
    programs: &'static [&'static str],
    faults: std::ops::RangeInclusive<usize>,
    adjust: impl Fn(u32, &mut Case),
) {
    let mut rng = TestRng::deterministic(name);
    let (mut pass_forks, mut block_instrs, mut decode_lines) = (0, 0, 0);
    for i in 0..cases {
        proptest::set_current_case(u64::from(i));
        let mut case = arb_case(programs, faults.clone()).sample(&mut rng);
        adjust(i, &mut case);
        let target = program(case.program).unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let stats = check_runs(&case, &compiled, target.family);
        pass_forks += stats.prefix_fork_hits;
        block_instrs += stats.block_instrs;
        decode_lines += u64::from(case.tier == Tier::Line) * stats.decode_lines_built;
        check_campaign(&case, &target);
    }
    assert!(block_instrs > 0 && decode_lines > 0);
    assert!(pass_forks > 0, "no run forked from a golden-pass rung");
}

/// A warm session on the drawn tier runs the drawn tile through the
/// matrix ([`Matrix::run`], as a campaign worker does): a clean run
/// first, which warms every cache, then every fault of the tile on its
/// input — holding the input's golden pass when fork is drawn — and the
/// tile once more from the same ladder. Each run must equal the cold
/// reference in failure mode, fired flag and retired instructions.
/// Returns the session's counters.
fn check_runs(case: &Case, compiled: &Program, family: Family) -> SessionStats {
    // The class campaign's own test case, so both levels run the same inputs.
    let inputs = family.test_case(case.inputs, case.seed ^ 0x5EED);
    let specs: Vec<FaultSpec> = (case.faults.iter())
        .map(|&(f, _)| placed(f, compiled))
        .collect();
    let matrix = Matrix::new(&specs, &inputs);
    let tile = Tile {
        faults: 0..specs.len(),
        inputs: case.input..case.input + 1,
    };
    let mut s = RunSession::new(compiled, family);
    s.set_block_cache(case.tier == Tier::Blocks);
    s.set_reference_interp(case.tier == Tier::Reference);
    let input = &inputs[case.input];
    let clean = s.run(input, None, 0);
    let want = execute_cold(compiled, family, input, None, 0);
    assert_eq!(
        (clean.0, clean.1, s.last_retired()),
        want,
        "clean run: {}",
        label(case)
    );
    for round in 1..=2 {
        for (_, f, i) in matrix.runs(&tile) {
            let seed = case.faults[f].1;
            let want = execute_cold(compiled, family, &inputs[i], Some(&specs[f]), seed);
            let before = s.stats();
            let (mode, fired) = matrix.run(&mut s, case.fork, f, i, seed);
            let what = format!("round {round} of {:?}: {}", specs[f], label(case));
            assert_eq!((mode, fired, s.last_retired()), want, "{what}");
            // The reference tier fetches each instruction it retires on the
            // slow path (a golden pass included); only a crash (one
            // fetched, never retired) or a hang (deadlocked cores burn
            // budget) may differ.
            let (after, ended) = (
                s.stats(),
                matches!(mode, FailureMode::Crash | FailureMode::Hang),
            );
            let fetched = after.slow_fetches - before.slow_fetches;
            let retired = after.retired_instrs - before.retired_instrs;
            assert!(
                case.tier != Tier::Reference || ended || fetched == retired,
                "{what}"
            );
        }
    }
    let stats = s.stats();
    let passes = u64::from(case.fork && case.program != "SOR");
    assert_eq!(
        stats.prefix_golden_passes,
        passes,
        "one pass: {}",
        label(case)
    );
    let blocks = stats.blocks_built + stats.block_instrs;
    assert!(case.tier == Tier::Blocks || blocks == 0, "{}", label(case));
    assert!(
        case.tier != Tier::Reference || stats.decode_lines_built == 0,
        "{}",
        label(case)
    );
    stats
}

/// The drawn flags, killed and resumed or sharded as drawn, must fold to
/// the report and checkpoint records of the all-off campaign run directly.
fn check_campaign(case: &Case, target: &TargetProgram) {
    let scale = CampaignScale {
        inputs_per_fault: case.inputs,
    };
    let run = |opts: &CampaignOptions| class_campaign_with(target, scale, case.seed, opts).unwrap();
    let dir = temp_path("oracle").with_extension("d");
    std::fs::create_dir_all(&dir).unwrap();
    let (reference, merged, label) = (
        dir.join("reference.jsonl"),
        merged_path(&dir, "oracle"),
        label(case),
    );
    let want = run(&CampaignOptions {
        no_prefix_fork: true,
        no_block_cache: true,
        ..CampaignOptions::with_checkpoint(&reference, false)
    });
    let drawn = CampaignOptions {
        no_prefix_fork: !case.fork,
        no_block_cache: case.tier != Tier::Blocks,
        ..CampaignOptions::default()
    };
    let logged = |path: &Path, resume: bool| CampaignOptions {
        checkpoint: Some(path.to_path_buf()),
        resume,
        ..drawn.clone()
    };
    let (got, log) = match case.split {
        Split::Direct => {
            let log = dir.join("direct.jsonl");
            (run(&logged(&log, false)), log)
        }
        Split::Resume { keep } => {
            let log = dir.join("resume.jsonl");
            assert_same_campaign(&run(&logged(&log, false)), &want, &label);
            truncate_checkpoint(&log, keep % (records(&log).len() + 1));
            (run(&logged(&log, true)), log)
        }
        Split::Shards { count, lose: None } => {
            let (got, summary) =
                run_sharded(&drawn, count, &dir, "oracle", |o| Ok(run(o))).unwrap();
            assert!(
                summary.shards_missing + summary.duplicates == 0,
                "{summary:?} {label}"
            );
            (got, merged)
        }
        Split::Shards {
            count,
            lose: Some(lost),
        } => {
            // A worker killed before its first record leaves no shard
            // file, one killed mid-append a torn tail; the final resume
            // pass re-executes their items.
            let paths = shard_paths(&dir, "oracle", count);
            for (k, path) in paths.iter().enumerate() {
                let shard = Some(Shard::new(k as u64, count).unwrap());
                run(&CampaignOptions {
                    shard,
                    ..logged(path, false)
                });
            }
            std::fs::remove_file(&paths[(lost % count) as usize]).unwrap();
            truncate_checkpoint(&paths[((lost + 1) % count) as usize], 1);
            let s = merge_checkpoints(&paths, &merged).unwrap();
            let counts = (s.shards_missing, s.shards_read, s.duplicates);
            assert_eq!(counts, (1, count as usize - 1, 0), "{label}");
            (run(&logged(&merged, true)), merged)
        }
    };
    assert_same_campaign(&got, &want, &label);
    assert_eq!(
        records(&log),
        records(&reference),
        "record streams differ: {label}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The failing draw, for assertion messages.
fn label(case: &Case) -> String {
    format!("case {} {case:?}", proptest::current_case())
}

/// Campaign equality: `PartialEq`, and the report text byte for byte
/// once the wall-clock and cache-effectiveness lines are dropped.
fn assert_same_campaign(got: &ProgramCampaign, want: &ProgramCampaign, label: &str) {
    assert_eq!(got, want, "{label}");
    let stable = |c: &ProgramCampaign| {
        let report = class_campaign_report(c);
        let volatile = ["throughput", "icache", "blocks", "prefix-fork", "phases"];
        let kept = report
            .lines()
            .filter(|l| !volatile.contains(&l.split(':').next().unwrap()));
        kept.collect::<Vec<_>>().join("\n")
    };
    assert_eq!(stable(got), stable(want), "{label}");
}

/// A checkpoint's records, sorted, each without its wall-clock
/// `elapsed_micros`.
fn records(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let strip = |line: &str| match serde_json::from_str(line).unwrap() {
        serde::Value::Object(fields) => {
            let kept = fields.into_iter().filter(|(k, _)| k != "elapsed_micros");
            serde_json::to_string(&serde::Value::Object(kept.collect())).unwrap()
        }
        other => panic!("checkpoint record is not an object: {other:?}"),
    };
    let mut out: Vec<String> = text.lines().skip(1).map(strip).collect();
    out.sort();
    out
}
