//! `swifi` — command-line front end for the SWIFI reproduction.
//!
//! ```text
//! swifi list                                   roster of target programs
//! swifi compile FILE [--asm] [--sites]         compile MiniC; show code / fault sites
//! swifi run FILE [--int N]... [--line S]       run a MiniC program
//! swifi sites FILE                             fault-location catalogue
//! swifi inject FILE --fault N [--int N]...     inject the N-th generated fault
//! swifi emulate NAME                           §5 emulability analysis for a roster program
//! swifi campaign NAME [--inputs N]             §6 class campaign on a roster program
//! swifi mutants FILE|NAME [--op ID]            G-SWFIT source mutant catalogue
//! swifi source-campaign NAME [--mutants N]     source-level mutation campaign
//! swifi compare-representations [--inputs N]   source vs binary on the comparison roster
//! swifi metrics FILE|NAME                      software metrics
//! swifi trace-validate FILE                    check a --trace-out file
//! swifi serve [--addr A]                       campaign server (sharded workers)
//! swifi submit NAME --addr A [--shards N]      submit a campaign to a server
//! ```

mod args;
mod commands;

use args::ParsedArgs;

fn main() {
    let parsed = ParsedArgs::parse(std::env::args().skip(1));
    let known = parsed.check_flags(commands::flags_of(&parsed.command));
    let result = known.and_then(|()| match parsed.command.as_str() {
        "list" => commands::list(),
        "compile" => commands::compile_cmd(&parsed),
        "run" => commands::run_cmd(&parsed),
        "sites" => commands::sites(&parsed),
        "inject" => commands::inject(&parsed),
        "emulate" => commands::emulate(&parsed),
        "campaign" => commands::campaign(&parsed),
        "mutants" => commands::mutants_cmd(&parsed),
        "source-campaign" => commands::source_campaign_cmd(&parsed),
        "compare-representations" => commands::compare_cmd(&parsed),
        "metrics" => commands::metrics_cmd(&parsed),
        "trace-validate" => commands::trace_validate_cmd(&parsed),
        "serve" => commands::serve_cmd(&parsed),
        "submit" => commands::submit_cmd(&parsed),
        // Hidden: the worker-process entry `swifi serve` re-executes.
        "shard-exec" => commands::shard_exec_cmd(&parsed),
        "" | "help" | "-h" => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{}", commands::USAGE)),
    });
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
