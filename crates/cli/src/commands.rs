//! Implementations of the `swifi` subcommands.

use std::sync::Arc;

use swifi_campaign::compare::{compare_representations_with, comparison_table};
use swifi_campaign::report::{class_campaign_report, render_table, source_campaign_report};
use swifi_campaign::section6::{class_campaign_with, CampaignScale};
use swifi_campaign::source::{source_campaign_with, SourceScale};
use swifi_campaign::{CampaignOptions, Throughput};
use swifi_core::emulate::{plan_emulation, EmulationVerdict};
use swifi_core::injector::{Injector, TriggerMode};
use swifi_core::locations::generate_error_set;
use swifi_lang::compile;
use swifi_programs::{all_programs, program};
use swifi_server::{CampaignRequest, Driver, Event, JobConfig, Request, WorkerMode};
use swifi_trace::metrics::names as metric_names;
use swifi_trace::{
    attribute, collapsed_stacks, top_table, validate_chrome_trace, FuncRange, Telemetry,
    TelemetryConfig,
};
use swifi_vm::asm::disassemble;
use swifi_vm::machine::{InputTape, Machine, MachineConfig, RunOutcome};
use swifi_vm::Noop;

use crate::args::ParsedArgs;

/// CLI usage text.
pub const USAGE: &str = "\
swifi - software fault injection playground (DSN 2000 reproduction)

USAGE:
  swifi list                                 roster of target programs
  swifi compile FILE [--asm] [--sites]       compile MiniC; show code / fault sites
  swifi run FILE [--int N]... [--line S]     run a MiniC program
  swifi sites FILE                           fault-location catalogue
  swifi inject FILE --fault N [--int N]...   inject the N-th generated fault
  swifi emulate NAME                         emulability analysis (paper sec. 5)
  swifi campaign NAME [--inputs N]           class campaign (paper sec. 6)
  swifi mutants FILE|NAME [--op ID]          G-SWFIT source mutant catalogue
  swifi source-campaign NAME [--mutants N]   source-level mutation campaign
                         [--inputs N]
  swifi compare-representations [--inputs N] source vs binary SWIFI on the
                         [--mutants N]       comparison roster (4 programs)
  swifi metrics FILE|NAME                    software complexity metrics
  swifi trace-validate FILE                  check a --trace-out file (schema
                                             + Chrome trace well-formedness)

CAMPAIGN OPTIONS:
  --seed N          campaign seed (default 2024)
  --checkpoint F    append each completed work item (a tile of inputs x
                    faults, or a mutant) to the JSONL file F
  --resume          resume from F: recorded items replay instead of re-running
  --watchdog-ms N   per-run wall-clock budget; slower runs classify as Hang
  --chaos-panic N   panic injected run N (harness self-test); runs count
                    phase by phase, fault by fault, so fault F on input I
                    is run F*inputs+I of its phase (source-campaign counts
                    mutants); the run becomes one `abnormal:` line
  --no-prefix-fork  make no golden passes and fork no run (full prefix per
                    run; reported results are identical either way)
  --no-block-cache  disable basic-block translation (every instruction
                    through `step`; reported results are identical either way)

TELEMETRY OPTIONS (campaign / source-campaign; reported results are
identical with or without telemetry):
  --trace-out F     write a Chrome trace-event JSON of the campaign to F
                    (load in Perfetto or chrome://tracing)
  --metrics-out F   write the metrics registry snapshot (counters, gauges,
                    run-latency / retired-instruction histograms) to F
  --profile         sample guest PCs; print the hottest functions
  --profile-out F   also write the profile as collapsed stacks to F

SERVER (campaign-as-a-service):
  swifi serve [--addr A] [--workdir D] [--in-process]
                    accept campaign submissions; prints `serving on ADDR`
                    (default --addr 127.0.0.1:0 picks a free port); shard
                    passes run in worker processes unless --in-process
  swifi submit NAME --addr A [--source] [--seed N] [--inputs N]
                    [--mutants N] [--shards N] [--pool N]
                    [--trace-out F] [--metrics-out F]
                    run a class (default) or --source campaign on the
                    server, sharded --shards ways, --pool workers at a
                    time; progress streams to stderr, the report (byte-
                    identical to the single-process command) to stdout
  swifi submit --ping|--shutdown --addr A
                    probe or gracefully stop a server

FILE is a MiniC source path; NAME is a roster program (see `swifi list`).
A flag the command does not read is an error.
";

type CmdResult = Result<(), String>;

/// The flags each subcommand reads, space-separated; any other flag, and
/// any flag of a command not listed, is a usage error. `shard-exec` takes
/// every flag `swifi serve` passes its worker processes, plus the rest of
/// the submission flags it parses.
pub const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("", "help"),
    ("compile", "asm sites"),
    ("run", "int line cores"),
    ("inject", "fault int line seed"),
    ("campaign", "inputs seed checkpoint resume watchdog-ms chaos-panic no-prefix-fork no-block-cache trace-out metrics-out profile profile-out"),
    ("mutants", "op source"),
    ("source-campaign", "mutants inputs seed checkpoint resume watchdog-ms chaos-panic no-prefix-fork no-block-cache trace-out metrics-out profile profile-out"),
    ("compare-representations", "inputs mutants seed checkpoint resume watchdog-ms chaos-panic no-prefix-fork no-block-cache"),
    ("serve", "addr workdir in-process"),
    ("submit", "addr ping shutdown source driver seed inputs mutants shards pool trace-out metrics-out"),
    ("shard-exec", "driver target seed inputs mutants shard shards checkpoint metrics-out trace-out source pool"),
];

/// The flags `command` reads.
pub fn flags_of(command: &str) -> &'static str {
    let entry = COMMAND_FLAGS.iter().find(|&&(name, _)| name == command);
    entry.map_or("", |&(_, flags)| flags)
}

fn read_source(parsed: &ParsedArgs) -> Result<(String, String), String> {
    let path = parsed
        .positional
        .first()
        .ok_or_else(|| "expected a MiniC source file".to_string())?;
    // Roster names are accepted anywhere a file is.
    if let Some(p) = program(path) {
        return Ok((path.clone(), p.source_correct.to_string()));
    }
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok((path.clone(), src))
}

fn input_from_args(parsed: &ParsedArgs) -> Result<InputTape, String> {
    let mut tape = InputTape::new();
    for v in parsed.all("int") {
        let n: i32 = v
            .parse()
            .map_err(|_| format!("--int expects integers, got `{v}`"))?;
        tape.push_ints([n]);
    }
    if let Some(line) = parsed.opt("line") {
        tape.push_line(line);
    }
    Ok(tape)
}

/// `swifi list`
pub fn list() -> CmdResult {
    let rows: Vec<Vec<String>> = all_programs()
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                p.family.name().to_string(),
                p.real_fault
                    .map(|f| f.defect_type.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                if p.section6_target { "yes" } else { "no" }.to_string(),
                p.features.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "Program",
                "Family",
                "Real fault",
                "Sec.6 target",
                "Features"
            ],
            &rows
        )
    );
    Ok(())
}

/// `swifi compile FILE [--asm] [--sites]`
pub fn compile_cmd(parsed: &ParsedArgs) -> CmdResult {
    let (path, src) = read_source(parsed)?;
    let p = compile(&src).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} instructions, {} data bytes, {} functions",
        p.image.code.len(),
        p.image.data.len(),
        p.debug.functions.len()
    );
    if parsed.flag("asm") {
        for line in disassemble(&p.image) {
            println!("{line}");
        }
    }
    if parsed.flag("sites") {
        print_sites(&p);
    }
    Ok(())
}

fn print_sites(p: &swifi_lang::Program) {
    println!(
        "{} assignment location(s), {} checking location(s):",
        p.debug.assigns.len(),
        p.debug.checks.len()
    );
    for (i, a) in p.debug.assigns.iter().enumerate() {
        println!(
            "  A{i:<3} line {:<4} {:<12} store @ {:#010x}{}",
            a.line,
            a.func,
            a.store_addr,
            if a.is_pointer { "  (pointer)" } else { "" }
        );
    }
    for (i, c) in p.debug.checks.iter().enumerate() {
        let types: Vec<&str> = c.mutations.iter().map(|(e, _)| e.label()).collect();
        println!(
            "  C{i:<3} line {:<4} {:<12} branch @ {:#010x}  [{}]",
            c.line,
            c.func,
            c.branch_addr,
            types.join(", ")
        );
    }
}

/// `swifi run FILE [--int N]... [--line S] [--cores N]`
pub fn run_cmd(parsed: &ParsedArgs) -> CmdResult {
    let (path, src) = read_source(parsed)?;
    let p = compile(&src).map_err(|e| format!("{path}: {e}"))?;
    let cores = parsed.int_opt("cores", 1)?;
    let config = MachineConfig {
        num_cores: usize::try_from(cores).unwrap_or(usize::MAX).max(1),
        ..MachineConfig::default()
    };
    config
        .check_fit(&p.image)
        .map_err(|e| format!("{path}: {e}"))?;
    let mut m = Machine::new(config);
    m.load(&p.image);
    m.set_input(input_from_args(parsed)?);
    report_outcome(m.run(&mut Noop));
    Ok(())
}

fn report_outcome(out: RunOutcome) {
    match out {
        RunOutcome::Completed { exit_code, output } => {
            println!("{}", String::from_utf8_lossy(&output));
            println!("[exit code {exit_code}]");
        }
        RunOutcome::Trapped {
            trap,
            pc,
            core,
            output,
        } => {
            println!("{}", String::from_utf8_lossy(&output));
            println!("[CRASH on core {core} at {pc:#010x}: {trap}]");
        }
        RunOutcome::Hang { output } => {
            println!("{}", String::from_utf8_lossy(&output));
            println!("[HANG: instruction budget exhausted]");
        }
    }
}

/// `swifi sites FILE`
pub fn sites(parsed: &ParsedArgs) -> CmdResult {
    let (path, src) = read_source(parsed)?;
    let p = compile(&src).map_err(|e| format!("{path}: {e}"))?;
    print_sites(&p);
    Ok(())
}

/// `swifi inject FILE --fault N [--int N]... [--line S] [--seed N]`
pub fn inject(parsed: &ParsedArgs) -> CmdResult {
    let (path, src) = read_source(parsed)?;
    let p = compile(&src).map_err(|e| format!("{path}: {e}"))?;
    let seed = parsed.int_opt("seed", 42)? as u64;
    let set = generate_error_set(&p.debug, usize::MAX, usize::MAX, seed);
    let faults: Vec<_> = set.assign_faults.iter().chain(&set.check_faults).collect();
    if faults.is_empty() {
        return Err("the program has no fault locations".to_string());
    }
    let n = parsed.int_opt("fault", -1)?;
    if n < 0 {
        println!(
            "{} generated faults; pick one with --fault N:",
            faults.len()
        );
        for (i, f) in faults.iter().enumerate() {
            println!(
                "  {i:<4} {:<10} line {:<4} {:<12} @ {:#010x}",
                f.error.label(),
                f.line,
                f.func,
                f.site_addr
            );
        }
        return Ok(());
    }
    let fault = faults
        .get(n as usize)
        .ok_or_else(|| format!("--fault {n} out of range (0..{})", faults.len()))?;
    println!(
        "injecting `{}` (line {}, {}) ...",
        fault.error.label(),
        fault.line,
        fault.func
    );
    let mut inj =
        Injector::new(vec![fault.spec], TriggerMode::Hardware, seed).map_err(|e| e.to_string())?;
    let config = MachineConfig::default();
    config
        .check_fit(&p.image)
        .map_err(|e| format!("{path}: {e}"))?;
    let mut m = Machine::new(config);
    m.load(&p.image);
    m.set_input(input_from_args(parsed)?);
    inj.prepare(&mut m).map_err(|e| e.to_string())?;
    let out = m.run(&mut inj);
    report_outcome(out);
    println!("[fault fired: {}]", inj.any_fired());
    Ok(())
}

/// `swifi emulate NAME`
pub fn emulate(parsed: &ParsedArgs) -> CmdResult {
    let name = parsed
        .positional
        .first()
        .ok_or_else(|| "expected a roster program name".to_string())?;
    let p = program(name).ok_or_else(|| format!("unknown program `{name}` (see `swifi list`)"))?;
    let faulty_src = p
        .source_faulty
        .ok_or_else(|| format!("{name} has no recorded real fault"))?;
    let fault = p.real_fault.expect("faulty implies fault");
    println!(
        "{name}: {} fault — {}",
        fault.defect_type, fault.description
    );
    let corrected = compile(p.source_correct).map_err(|e| e.to_string())?;
    let faulty = compile(faulty_src).map_err(|e| e.to_string())?;
    match plan_emulation(&corrected.image, &faulty.image) {
        EmulationVerdict::Identical => println!("binaries are identical"),
        EmulationVerdict::Emulable { diffs } => {
            println!(
                "class A: emulable with hardware triggers ({} differing word(s))",
                diffs.len()
            );
            for d in diffs {
                println!(
                    "  {:#010x}: {:#010x} -> {:#010x}",
                    d.addr, d.corrected, d.faulty
                );
            }
        }
        EmulationVerdict::BreakpointBudgetExceeded {
            diffs,
            required_triggers,
        } => {
            println!(
                "class B: needs {required_triggers} triggers for {} diffs — beyond the 2 \
                 hardware breakpoint registers; intrusive traps required",
                diffs.len()
            );
        }
        EmulationVerdict::NotEmulable {
            corrected_len,
            faulty_len,
        } => {
            println!(
                "class C: structural change ({faulty_len} -> {corrected_len} instructions); \
                 not emulable by any SWIFI tool"
            );
        }
    }
    Ok(())
}

/// Parse the robustness options shared by every campaign-style command
/// (`--checkpoint/--resume`, `--watchdog-ms`, `--chaos-panic`, `--no-prefix-fork`, `--no-block-cache`).
fn campaign_opts(parsed: &ParsedArgs) -> Result<CampaignOptions, String> {
    let mut opts = CampaignOptions {
        checkpoint: parsed.value_opt("checkpoint")?.map(Into::into),
        resume: parsed.flag("resume"),
        no_prefix_fork: parsed.flag("no-prefix-fork"),
        no_block_cache: parsed.flag("no-block-cache"),
        ..CampaignOptions::default()
    };
    if opts.resume && opts.checkpoint.is_none() {
        return Err("--resume requires --checkpoint FILE".to_string());
    }
    if let Some(watchdog_ms) = parsed.positive_int_opt("watchdog-ms")? {
        opts.watchdog = Some(std::time::Duration::from_millis(watchdog_ms as u64));
    }
    if parsed.flag("chaos-panic") {
        opts.chaos_panic = Some(parsed.int_opt("chaos-panic", 0)? as u64);
    }
    Ok(opts)
}

/// The telemetry flags of the campaign commands plus the hub they
/// configure (`None` when every pillar is off — the no-op contract).
struct TelemetrySink {
    hub: Option<Arc<Telemetry>>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
    profile_out: Option<String>,
}

/// Parse `--trace-out F`, `--metrics-out F`, `--profile`,
/// `--profile-out F`.
fn telemetry_opts(parsed: &ParsedArgs) -> Result<TelemetrySink, String> {
    let trace_out = parsed.value_opt("trace-out")?.map(str::to_string);
    let metrics_out = parsed.value_opt("metrics-out")?.map(str::to_string);
    let profile_out = parsed.value_opt("profile-out")?.map(str::to_string);
    let profile = parsed.flag("profile") || profile_out.is_some();
    let config = TelemetryConfig {
        trace: trace_out.is_some(),
        metrics: metrics_out.is_some(),
        profile,
    };
    Ok(TelemetrySink {
        hub: config.any().then(|| Telemetry::shared(config)),
        trace_out,
        metrics_out,
        profile,
        profile_out,
    })
}

/// Export the collected telemetry after a campaign: campaign-level
/// gauges, the Chrome trace, the metrics JSON, and the attributed guest
/// profile.
fn export_telemetry(
    sink: &TelemetrySink,
    target: &swifi_programs::TargetProgram,
    tp: &Throughput,
) -> CmdResult {
    let Some(hub) = sink.hub.as_ref() else {
        return Ok(());
    };
    if hub.config().metrics {
        let injected = tp.fired_runs + tp.dormant_runs;
        let prefix_rate = if injected > 0 {
            (tp.engine.prefix_fork_hits + tp.engine.prefix_dormant_short_circuits) as f64
                / injected as f64
        } else {
            0.0
        };
        let dispatches = tp.engine.block_hits + tp.engine.block_fallbacks;
        let block_rate = if dispatches > 0 {
            tp.engine.block_hits as f64 / dispatches as f64
        } else {
            0.0
        };
        hub.with_metrics(|m| {
            m.gauge_set(metric_names::PREFIX_HIT_RATE, prefix_rate);
            m.gauge_set(
                metric_names::PREFIX_CACHE_BYTES,
                tp.prefix_peak_bytes as f64,
            );
            m.gauge_set(metric_names::BLOCK_CACHE_HIT_RATE, block_rate);
        });
    }
    if let Some(path) = &sink.trace_out {
        hub.write_chrome_trace(std::path::Path::new(path))?;
        println!(
            "trace: {} events written to {path} (load in Perfetto / chrome://tracing)",
            hub.event_count()
        );
    }
    if let Some(path) = &sink.metrics_out {
        std::fs::write(path, hub.metrics_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics: written to {path}");
    }
    if sink.profile {
        let compiled = compile(target.source_correct).map_err(|e| e.to_string())?;
        let funcs: Vec<FuncRange> = compiled
            .debug
            .functions
            .iter()
            .map(|f| FuncRange {
                name: f.name.clone(),
                start: f.start_addr,
                // FunctionInfo.end_addr is one past the last instruction;
                // FuncRange.end is inclusive.
                end: f.end_addr.saturating_sub(1).max(f.start_addr),
            })
            .collect();
        let hist = hub.profile_snapshot();
        let rows = attribute(&hist, &funcs);
        println!(
            "profile: {} samples over {} guest PCs",
            hist.total(),
            hist.distinct_pcs()
        );
        print!("{}", top_table(&rows, 10));
        if let Some(path) = &sink.profile_out {
            std::fs::write(path, collapsed_stacks(target.name, &rows))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("profile: collapsed stacks written to {path}");
        }
    }
    Ok(())
}

/// `swifi trace-validate FILE`
pub fn trace_validate_cmd(parsed: &ParsedArgs) -> CmdResult {
    let path = parsed
        .positional
        .first()
        .ok_or_else(|| "expected a trace file (from --trace-out)".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let s = validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: OK — {} events ({} spans, {} instants), {} phase span(s), {} run span(s), {} lane(s)",
        s.events, s.spans, s.instants, s.phases, s.runs, s.lanes
    );
    Ok(())
}

/// `swifi campaign NAME [--inputs N] [--seed N] [--checkpoint F [--resume]]
/// [--watchdog-ms N] [--chaos-panic N] [--no-prefix-fork] [--no-block-cache]`
pub fn campaign(parsed: &ParsedArgs) -> CmdResult {
    let name = parsed
        .positional
        .first()
        .ok_or_else(|| "expected a roster program name".to_string())?;
    let target =
        program(name).ok_or_else(|| format!("unknown program `{name}` (see `swifi list`)"))?;
    let inputs = parsed.int_opt("inputs", 10)? as usize;
    let seed = parsed.int_opt("seed", 2024)? as u64;
    let sink = telemetry_opts(parsed)?;
    let mut opts = campaign_opts(parsed)?;
    opts.telemetry = sink.hub.clone();
    println!("campaign on {name} ({inputs} inputs per fault, seed {seed})...");
    let c = class_campaign_with(
        &target,
        CampaignScale {
            inputs_per_fault: inputs.max(1),
        },
        seed,
        &opts,
    )?;
    // The server's `submit` reply renders through the same function, so
    // sharded and single-process reports stay byte-comparable.
    print!("{}", class_campaign_report(&c));
    export_telemetry(&sink, &target, &c.throughput)?;
    Ok(())
}

/// `swifi mutants FILE|NAME [--op ID] [--source N]`
///
/// Lists the G-SWFIT mutant catalogue of a program; `--op` filters to one
/// operator, `--source N` prints the N-th mutant's full source.
pub fn mutants_cmd(parsed: &ParsedArgs) -> CmdResult {
    let (path, src) = read_source(parsed)?;
    let p = compile(&src).map_err(|e| format!("{path}: {e}"))?;
    let all = match parsed.value_opt("op")? {
        None => swifi_lang::mutate::mutants(&p.ast),
        Some(id) => {
            let op = swifi_odc::MutationOperator::from_id(id)
                .ok_or_else(|| format!("unknown operator `{id}` (MIF WBC MAS OBB WCV MFC WCA)"))?;
            swifi_lang::mutate::mutants_for(&p.ast, op)
        }
    };
    if let Some(n) = parsed.value_opt("source")? {
        let n: usize = n
            .parse()
            .map_err(|_| format!("--source expects an index, got `{n}`"))?;
        let m = all
            .get(n)
            .ok_or_else(|| format!("--source {n} out of range (0..{})", all.len()))?;
        print!("{}", m.source);
        return Ok(());
    }
    println!("{} mutant(s):", all.len());
    for (i, m) in all.iter().enumerate() {
        println!(
            "  {i:<4} {:<24} {:<10} {}",
            m.id,
            m.operator.defect_type().to_string(),
            m.description
        );
    }
    Ok(())
}

/// `swifi source-campaign NAME [--mutants N] [--inputs N] [--seed N]
/// [--checkpoint F [--resume]] [--watchdog-ms N] [--chaos-panic N]`
pub fn source_campaign_cmd(parsed: &ParsedArgs) -> CmdResult {
    let name = parsed
        .positional
        .first()
        .ok_or_else(|| "expected a roster program name".to_string())?;
    let target =
        program(name).ok_or_else(|| format!("unknown program `{name}` (see `swifi list`)"))?;
    let scale = SourceScale {
        mutant_budget: parsed.int_opt("mutants", 18)?.max(1) as usize,
        inputs_per_mutant: parsed.int_opt("inputs", 6)?.max(1) as usize,
    };
    let seed = parsed.int_opt("seed", 2024)? as u64;
    let sink = telemetry_opts(parsed)?;
    let mut opts = campaign_opts(parsed)?;
    opts.telemetry = sink.hub.clone();
    println!(
        "source-mutation campaign on {name} ({} mutants, {} inputs per mutant, seed {seed})...",
        scale.mutant_budget, scale.inputs_per_mutant
    );
    let c = source_campaign_with(&target, scale, seed, &opts)?;
    print!("{}", source_campaign_report(&c));
    export_telemetry(&sink, &target, &c.throughput)?;
    Ok(())
}

/// `swifi compare-representations [--inputs N] [--mutants N] [--seed N]
/// [--checkpoint F [--resume]] [--watchdog-ms N]`
pub fn compare_cmd(parsed: &ParsedArgs) -> CmdResult {
    let binary_scale = CampaignScale {
        inputs_per_fault: parsed.int_opt("inputs", 6)?.max(1) as usize,
    };
    let source_scale = SourceScale {
        mutant_budget: parsed.int_opt("mutants", 18)?.max(1) as usize,
        inputs_per_mutant: binary_scale.inputs_per_fault,
    };
    let seed = parsed.int_opt("seed", 2024)? as u64;
    let opts = campaign_opts(parsed)?;
    println!(
        "comparing binary vs source injection ({} inputs, {} mutants, seed {seed})...",
        binary_scale.inputs_per_fault, source_scale.mutant_budget
    );
    let c = compare_representations_with(binary_scale, source_scale, seed, &opts)?;
    print!("{}", comparison_table(&c));
    Ok(())
}

/// `swifi metrics FILE|NAME`
pub fn metrics_cmd(parsed: &ParsedArgs) -> CmdResult {
    let (path, src) = read_source(parsed)?;
    let ast = swifi_lang::parser::parse(&src).map_err(|e| format!("{path}: {e}"))?;
    let m = swifi_metrics::measure(&src, &ast);
    println!(
        "{path}: {} LoC, {} globals, {} structs",
        m.loc, m.globals, m.structs
    );
    let rows: Vec<Vec<String>> = m
        .functions
        .iter()
        .map(|f| {
            vec![
                f.name.clone(),
                f.cyclomatic.to_string(),
                f.statements.to_string(),
                f.max_nesting.to_string(),
                format!("{:.0}", f.halstead.volume()),
                format!("{:.1}", f.proneness()),
                if f.recursive { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "Function",
                "Cyclo",
                "Stmts",
                "Nesting",
                "Volume",
                "Proneness",
                "Recursive"
            ],
            &rows
        )
    );
    Ok(())
}

/// Parse the shared submit/shard-exec campaign description flags into a
/// server [`CampaignRequest`].
fn campaign_request(parsed: &ParsedArgs, target: &str) -> Result<CampaignRequest, String> {
    Ok(CampaignRequest {
        driver: if parsed.flag("source") || parsed.opt("driver") == Some("source") {
            Driver::Source
        } else {
            Driver::Class
        },
        target: target.to_string(),
        seed: parsed.int_opt("seed", 2024)? as u64,
        inputs: parsed.positive_int_opt("inputs")?.unwrap_or(10) as usize,
        mutants: parsed.positive_int_opt("mutants")?.unwrap_or(18) as usize,
        shards: parsed.positive_int_opt("shards")?.unwrap_or(4) as u64,
        pool: parsed.positive_int_opt("pool")?.unwrap_or(4) as usize,
        want_trace: parsed.value_opt("trace-out")?.is_some(),
        want_metrics: parsed.value_opt("metrics-out")?.is_some(),
    })
}

/// `swifi serve [--addr A] [--workdir D] [--in-process]`
pub fn serve_cmd(parsed: &ParsedArgs) -> CmdResult {
    let addr = parsed.value_opt("addr")?.unwrap_or("127.0.0.1:0");
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let actual = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let workdir = match parsed.value_opt("workdir")? {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("swifi-serve-{}", std::process::id())),
    };
    let mode = if parsed.flag("in-process") {
        WorkerMode::InProcess
    } else {
        swifi_server::current_exe_mode()?
    };
    // `serving on ADDR` is the startup handshake scripts parse to learn
    // the picked port — print it before blocking in the accept loop.
    println!("serving on {actual}");
    use std::io::Write;
    std::io::stdout().flush().ok();
    swifi_server::serve(listener, JobConfig { workdir, mode })
}

/// `swifi submit NAME --addr A [--source] [--seed N] [--inputs N]
/// [--mutants N] [--shards N] [--pool N] [--trace-out F] [--metrics-out F]`,
/// plus `swifi submit --ping|--shutdown --addr A`.
///
/// Progress events stream to stderr; the report — byte-identical to the
/// single-process `campaign` / `source-campaign` output — goes to
/// stdout, so `swifi submit ... > report.txt` composes with the same
/// tooling as the local commands.
pub fn submit_cmd(parsed: &ParsedArgs) -> CmdResult {
    let addr = parsed
        .value_opt("addr")?
        .ok_or("--addr HOST:PORT is required (printed by `swifi serve`)")?;
    if parsed.flag("ping") {
        swifi_server::request(addr, &Request::Ping, |_| {})?;
        println!("pong from {addr}");
        return Ok(());
    }
    if parsed.flag("shutdown") {
        swifi_server::request(addr, &Request::Shutdown, |_| {})?;
        println!("server at {addr} shut down");
        return Ok(());
    }
    let name = parsed
        .positional
        .first()
        .ok_or_else(|| "expected a roster program name".to_string())?;
    let req = campaign_request(parsed, name)?;
    let trace_out = parsed.value_opt("trace-out")?.map(str::to_string);
    let metrics_out = parsed.value_opt("metrics-out")?.map(str::to_string);
    let mut failure: Option<String> = None;
    swifi_server::request(addr, &Request::Submit(req), |event| match event {
        Event::Accepted { campaign, shards } => {
            eprintln!("accepted: {campaign}, {shards} shard(s)");
        }
        Event::ShardStart { shard } => eprintln!("shard {shard}: started"),
        Event::ShardDone {
            shard, ok: true, ..
        } => eprintln!("shard {shard}: done"),
        Event::ShardDone {
            shard,
            ok: false,
            detail,
        } => eprintln!("shard {shard}: FAILED ({detail}) — merge pass will re-run its slice"),
        Event::Merged {
            shards_read,
            shards_missing,
            records,
            duplicates,
        } => eprintln!(
            "merged: {records} record(s) from {shards_read} shard(s) \
             ({shards_missing} missing, {duplicates} duplicate(s))"
        ),
        Event::Phase { name, runs } => eprintln!("phase {name}: {runs} record(s)"),
        Event::Abnormal {
            phase,
            index,
            message,
            detail,
        } => eprintln!("abnormal: {phase}#{index} — {message} ({detail})"),
        Event::Report { text } => print!("{text}"),
        Event::Metrics { text } => {
            if let Some(path) = &metrics_out {
                match std::fs::write(path, text) {
                    Ok(()) => println!("metrics: written to {path}"),
                    Err(e) => failure = Some(format!("cannot write {path}: {e}")),
                }
            }
        }
        Event::Trace { text } => {
            if let Some(path) = &trace_out {
                match std::fs::write(path, text) {
                    Ok(()) => println!("trace: written to {path}"),
                    Err(e) => failure = Some(format!("cannot write {path}: {e}")),
                }
            }
        }
        Event::Done | Event::Error { .. } | Event::Pong => {}
    })?;
    failure.map_or(Ok(()), Err)
}

/// `swifi shard-exec --driver D --target NAME --seed N --inputs N
/// --mutants N --shard K --shards N --checkpoint F
/// [--metrics-out F] [--trace-out F]` — hidden worker-process entry
/// point; `swifi serve` re-executes its own binary with these flags,
/// one process per shard.
pub fn shard_exec_cmd(parsed: &ParsedArgs) -> CmdResult {
    let target = parsed
        .value_opt("target")?
        .ok_or("--target NAME is required")?
        .to_string();
    let req = campaign_request(parsed, &target)?;
    let shard = swifi_campaign::Shard::new(
        parsed.int_opt("shard", 0)? as u64,
        parsed.positive_int_opt("shards")?.unwrap_or(1) as u64,
    )?;
    let checkpoint = parsed
        .value_opt("checkpoint")?
        .ok_or("--checkpoint FILE is required")?
        .to_string();
    // want_* is derived from the -out flags by campaign_request; the
    // paths themselves say where this worker writes its snapshots.
    let metrics_out = parsed
        .value_opt("metrics-out")?
        .map(std::path::PathBuf::from);
    let trace_out = parsed.value_opt("trace-out")?.map(std::path::PathBuf::from);
    swifi_server::shard_exec(
        &req,
        shard,
        std::path::Path::new(&checkpoint),
        metrics_out.as_deref(),
        trace_out.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_succeeds() {
        assert!(list().is_ok());
    }

    #[test]
    fn roster_names_resolve_as_sources() {
        let parsed = ParsedArgs::parse(["compile".into(), "C.team8".into()]);
        assert!(compile_cmd(&parsed).is_ok());
    }

    #[test]
    fn unknown_file_errors() {
        let parsed = ParsedArgs::parse(["compile".into(), "/no/such/file.mc".into()]);
        assert!(compile_cmd(&parsed).is_err());
    }

    #[test]
    fn emulate_runs_for_faulty_programs() {
        let parsed = ParsedArgs::parse(["emulate".into(), "C.team4".into()]);
        assert!(emulate(&parsed).is_ok());
        let parsed = ParsedArgs::parse(["emulate".into(), "C.team8".into()]);
        assert!(emulate(&parsed).is_err(), "C.team8 has no real fault");
    }

    #[test]
    fn inject_lists_faults_without_selection() {
        let parsed = ParsedArgs::parse(["inject".into(), "JB.team11".into()]);
        assert!(inject(&parsed).is_ok());
    }

    #[test]
    fn metrics_on_roster_program() {
        let parsed = ParsedArgs::parse(["metrics".into(), "SOR".into()]);
        assert!(metrics_cmd(&parsed).is_ok());
    }

    #[test]
    fn mutants_lists_and_prints_source() {
        let parsed = ParsedArgs::parse(["mutants".into(), "JB.team11".into()]);
        assert!(mutants_cmd(&parsed).is_ok());
        let parsed = ParsedArgs::parse([
            "mutants".into(),
            "JB.team11".into(),
            "--op".into(),
            "WBC".into(),
            "--source".into(),
            "0".into(),
        ]);
        assert!(mutants_cmd(&parsed).is_ok());
        let parsed = ParsedArgs::parse([
            "mutants".into(),
            "JB.team11".into(),
            "--op".into(),
            "NOPE".into(),
        ]);
        assert!(mutants_cmd(&parsed).is_err());
    }

    #[test]
    fn source_campaign_runs_small() {
        let parsed = ParsedArgs::parse([
            "source-campaign".into(),
            "JB.team11".into(),
            "--mutants".into(),
            "4".into(),
            "--inputs".into(),
            "2".into(),
            "--seed".into(),
            "7".into(),
        ]);
        assert!(source_campaign_cmd(&parsed).is_ok());
    }

    #[test]
    fn submit_requires_an_address() {
        let parsed = ParsedArgs::parse(["submit".into(), "SOR".into()]);
        assert!(submit_cmd(&parsed).unwrap_err().contains("--addr"));
    }

    #[test]
    fn shard_exec_validates_its_flags() {
        let parsed = ParsedArgs::parse(["shard-exec".into()]);
        assert!(shard_exec_cmd(&parsed).unwrap_err().contains("--target"));
        let parsed = ParsedArgs::parse([
            "shard-exec".into(),
            "--target".into(),
            "SOR".into(),
            "--shard".into(),
            "5".into(),
            "--shards".into(),
            "3".into(),
        ]);
        let err = shard_exec_cmd(&parsed).unwrap_err();
        assert!(err.contains("shard index 5 out of range"), "{err}");
    }

    #[test]
    fn campaign_request_maps_flags() {
        let parsed = ParsedArgs::parse([
            "submit".into(),
            "SOR".into(),
            "--source".into(),
            "--seed".into(),
            "7".into(),
            "--shards".into(),
            "3".into(),
            "--metrics-out".into(),
            "m.json".into(),
        ]);
        let req = campaign_request(&parsed, "SOR").unwrap();
        assert_eq!(req.driver, Driver::Source);
        assert_eq!((req.seed, req.shards), (7, 3));
        assert!(req.want_metrics && !req.want_trace);
    }

    #[test]
    fn resume_requires_checkpoint_everywhere() {
        for cmd in ["campaign", "source-campaign"] {
            let parsed = ParsedArgs::parse([cmd.into(), "JB.team11".into(), "--resume".into()]);
            let run = match cmd {
                "campaign" => campaign(&parsed),
                _ => source_campaign_cmd(&parsed),
            };
            assert!(run.unwrap_err().contains("--checkpoint"), "{cmd}");
        }
    }
}
