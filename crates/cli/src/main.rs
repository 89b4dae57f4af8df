//! `chameleonec` — command-line driver for ChameleonEC repair experiments.
//! `chameleonec help` lists the subcommands and their flags, rendered from
//! the flag tables the subcommands parse with. Every subcommand returns
//! its report as text, and `main` is the one place that writes it.

mod args;
mod commands;

use std::process::ExitCode;

use chameleon_bench::flags::write_stdout;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let report = match argv.split_first() {
        Some((name, rest)) if !matches!(name.as_str(), "help" | "--help" | "-h") => {
            commands::run(name, rest)
        }
        _ => Ok(commands::help::text()),
    };
    match report.and_then(|text| write_stdout(&text)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
