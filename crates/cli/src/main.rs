//! `chameleonec` — command-line driver for ChameleonEC repair experiments.
//! `chameleonec help` lists the subcommands and their flags, rendered from
//! the flag tables the subcommands parse with.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((name, rest)) if !matches!(name.as_str(), "help" | "--help" | "-h") => {
            commands::run(name, rest)
        }
        _ => {
            print!("{}", commands::help::text());
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
