//! Runs the experiment suite on the parallel grid and writes its results
//! under `results/`.
//!
//! ```text
//! cargo run --release -p chameleon-bench --bin suite [-- --only NAME,NAME --jobs N]
//! ```
//!
//! [`COMMAND`] declares the flags; an unknown one prints them. The scale is
//! `CHAMELEON_SCALE` (small | paper). Experiments return their results as
//! data ([`Report`]); [`emit`] is the one place that prints a table or
//! writes an experiment's files under `results/`. Every table and artifact
//! is unchanged by `--jobs` (the grid determinism contract), so this
//! binary's own timing lines go to stderr.

use std::process::ExitCode;
use std::time::Instant;

use chameleon_bench::experiments::{self, Experiment};
use chameleon_bench::flags::{write_stdout, Command, Flags};
use chameleon_bench::table::{write_result, Report};
use chameleon_bench::{grid, Scale};

const COMMAND: Command = Command {
    name: "suite",
    about: "Run the paper's experiments and write their results under results/",
    flags: &[
        ("only", "", "comma list of experiments to run (none: all)"),
        grid::JOBS,
    ],
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selected, jobs) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("suite: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::from_env();

    eprintln!(
        "[suite] {} experiments, scale '{}', {jobs} worker(s)",
        selected.len(),
        scale.name()
    );

    let suite_start = Instant::now();
    for (i, e) in selected.iter().enumerate() {
        eprintln!("[suite] {}/{} {}", i + 1, selected.len(), e.name);
        let start = Instant::now();
        let report = (e.run)(&scale, jobs);
        let secs = start.elapsed().as_secs_f64();
        if let Err(msg) = emit(e, &report) {
            eprintln!("suite: {msg}");
            return ExitCode::FAILURE;
        }
        eprintln!("[suite] {} done in {secs:.1}s", e.name);
    }
    eprintln!(
        "[suite] completed in {:.1}s ({} experiments, {jobs} worker(s))",
        suite_start.elapsed().as_secs_f64(),
        selected.len()
    );
    ExitCode::SUCCESS
}

/// The experiments `--only` names, in suite order (all of them when it
/// names none), and the worker count.
fn parse(args: &[String]) -> Result<(Vec<&'static Experiment>, usize), String> {
    let flags = Flags::parse(args, &COMMAND)?;
    let jobs = grid::resolve_jobs(flags.num("jobs")?);
    let only: Vec<&str> = flags.list("only").collect();
    if let Some(bad) = only.iter().find(|name| experiments::find(name).is_none()) {
        let names = experiments::ALL.map(|e| e.name).join(", ");
        return Err(format!("unknown experiment `{bad}`; experiments: {names}"));
    }
    let selected = experiments::ALL
        .iter()
        .filter(|e| only.is_empty() || only.contains(&e.name))
        .collect();
    Ok((selected, jobs))
}

/// Prints one experiment's report — title, tables, notes — and persists
/// each table as `results/<stem>.csv` and each artifact under its name. A
/// closed stdout drops the text but not the files.
fn emit(e: &Experiment, report: &Report) -> Result<(), String> {
    write_stdout(&format!("{}\n", e.title))?;
    for table in &report.tables {
        write_stdout(&table.to_string())?;
        write_result(&format!("{}.csv", table.stem), &table.csv())?;
    }
    for (file_name, contents) in &report.artifacts {
        write_result(file_name, contents)?;
    }
    let notes: String = report
        .notes
        .iter()
        .map(|note| format!("{note}\n"))
        .collect();
    write_stdout(&notes)
}
