//! `popgame` — the unified command-line entry point for the whole stack.
//!
//! ```text
//! popgame scenarios                      # the registry, as JSON
//! popgame solve hawk-dove                # exact equilibria of a scenario
//! popgame solve --game '{"kind":"zero-sum","row":[[1,-1],[-1,1]]}'
//! popgame simulate --scenario rock-paper-scissors --n 10000 --seed 7
//! popgame analytics --scenario stag-hunt --n 1000  # + time-constant CIs
//! popgame reproduce --quick              # REPORT.md + REPORT.json
//! popgame serve --addr 127.0.0.1:8095    # boot popgamed in-process
//! ```
//!
//! Every subcommand drives the same code paths as the `popgamed` daemon:
//! `solve` and `simulate` parse through the shared request structs in
//! `popgame_service::api` (identical validation, identical canonical
//! semantics, identical response documents), `serve` boots the very same
//! `PopgameService`, and `reproduce` runs the deterministic report
//! harness in `popgame_report`. Argument parsing is pure `std`.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error.

use popgame_cli::commands;
use std::process::ExitCode;

const USAGE: &str = "\
usage: popgame <command> [flags]

commands:
  scenarios                       list the scenario registry (JSON)
  solve <scenario>                exact equilibria of a registry scenario
  solve --game <json>             exact equilibria of an explicit game
  simulate --scenario <name> ...  replica sweep, TV to exact equilibrium
  analytics --scenario <name> ... simulate + t_mix / absorption / cycle CIs
  reproduce [--quick|--full] ...  regenerate REPORT.md + REPORT.json
                                  (--trace TRACE.json adds a span timeline)
  serve [daemon flags]            boot the popgamed HTTP service
  fleet [--instances N] [--quick] multi-instance load test with hash-ring
                                  routing and add/remove-shard rebalance

run `popgame <command> --help` for per-command flags.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command == "--help" || command == "-h" || command == "help" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = match command.as_str() {
        "scenarios" => commands::scenarios(rest),
        "solve" => commands::solve(rest),
        "simulate" => commands::simulate(rest),
        "analytics" => commands::analytics(rest),
        "reproduce" => commands::reproduce(rest),
        "serve" => commands::serve(rest),
        "fleet" => popgame_cli::fleet::fleet(rest),
        other => {
            eprintln!("unknown command: {other}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(commands::CliError::Usage(message)) => {
            eprintln!("usage error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(commands::CliError::Runtime(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
