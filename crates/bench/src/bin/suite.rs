//! Runs the full experiment suite on the parallel grid and records the
//! perf trajectory in `results/BENCH_experiments.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p chameleon-bench --bin suite [-- OPTIONS]
//!   --jobs N        worker threads per experiment grid (default: the
//!                   CHAMELEON_JOBS env var, then available parallelism)
//!   --only NAME     run a single experiment (repeatable; exact name)
//!   --baseline      also time every experiment at --jobs 1 and report
//!                   the parallel speedup (doubles the suite runtime)
//!   --list          print the experiment names and exit
//! ```
//!
//! The scale is `CHAMELEON_SCALE` (small | paper). Experiments return
//! their results as data ([`Report`]); [`emit`] is the one place that
//! prints a table or writes an experiment's files under `results/`. Every
//! table and artifact is unchanged by `--jobs` (the grid determinism
//! contract), so this binary's own timing lines go to stderr.

use std::time::Instant;

use chameleon_bench::experiments::{self, Experiment};
use chameleon_bench::table::{write_result, Report};
use chameleon_bench::{grid, Scale};

struct Timing {
    name: &'static str,
    secs: f64,
    baseline_secs: Option<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Vec<String> = Vec::new();
    let mut baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for e in &experiments::ALL {
                    println!("{:<28} {}", e.name, e.title);
                }
                return;
            }
            "--baseline" => baseline = true,
            "--only" => {
                let name = it.next().expect("--only takes an experiment name");
                assert!(
                    experiments::find(name).is_some(),
                    "unknown experiment '{name}' (try --list)"
                );
                only.push(name.clone());
            }
            "--jobs" => {
                it.next(); // parsed by grid::jobs_from_env
            }
            other => {
                assert!(
                    other.starts_with("--jobs="),
                    "unknown flag '{other}' (try --list)"
                );
            }
        }
    }

    let scale = Scale::from_env();
    let jobs = grid::jobs_from_env();
    let selected: Vec<&Experiment> = experiments::ALL
        .iter()
        .filter(|e| only.is_empty() || only.iter().any(|n| n == e.name))
        .collect();

    eprintln!(
        "[suite] {} experiments, scale '{}', {jobs} worker(s){}",
        selected.len(),
        scale.name(),
        if baseline {
            ", with --jobs 1 baseline"
        } else {
            ""
        }
    );

    let suite_start = Instant::now();
    let mut timings = Vec::new();
    for (i, e) in selected.iter().enumerate() {
        eprintln!("[suite] {}/{} {}", i + 1, selected.len(), e.name);
        let start = Instant::now();
        let report = (e.run)(&scale, jobs);
        let secs = start.elapsed().as_secs_f64();
        emit(e, &report);
        let baseline_secs = baseline.then(|| {
            let start = Instant::now();
            (e.run)(&scale, 1);
            start.elapsed().as_secs_f64()
        });
        eprintln!(
            "[suite] {} done in {secs:.1}s{}",
            e.name,
            baseline_secs.map_or(String::new(), |b| {
                format!(" (sequential {b:.1}s, speedup {:.2}x)", b / secs)
            })
        );
        timings.push(Timing {
            name: e.name,
            secs,
            baseline_secs,
        });
    }
    let wall_secs = suite_start.elapsed().as_secs_f64();

    write_result(
        "BENCH_experiments.json",
        &render_json(&timings, &scale, jobs, wall_secs),
    );

    eprintln!(
        "[suite] completed in {wall_secs:.1}s ({} experiments, {jobs} worker(s))",
        timings.len()
    );
}

/// Prints one experiment's report — title, tables, notes — and persists
/// each table as `results/<stem>.csv` and each artifact under its name.
fn emit(e: &Experiment, report: &Report) {
    println!("{}", e.title);
    for table in &report.tables {
        print!("{table}");
        write_result(&format!("{}.csv", table.stem), &table.csv());
    }
    for (file_name, contents) in &report.artifacts {
        write_result(file_name, contents);
    }
    for note in &report.notes {
        println!("{note}");
    }
}

/// Hand-rolled JSON (the workspace deliberately has no serde dependency),
/// in the same style as `results/BENCH_simnet.json`. `host_cpus` records
/// the machine's available parallelism so a ~1x speedup on a 1-core box
/// is distinguishable from a scheduling regression.
fn render_json(timings: &[Timing], scale: &Scale, jobs: usize, wall_secs: f64) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let entries: Vec<String> = timings
        .iter()
        .map(|t| {
            let speedup = t.baseline_secs.map_or(String::new(), |b| {
                format!(
                    ", \"sequential_secs\": {b:.3}, \"speedup\": {:.3}",
                    b / t.secs
                )
            });
            format!(
                "    {{\"name\": \"{}\", \"secs\": {:.3}{speedup}}}",
                t.name, t.secs
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"experiment_suite\",\n  \"scale\": \"{}\",\n  \"jobs\": {jobs},\n  \
         \"host_cpus\": {host_cpus},\n  \
         \"suite_wall_secs\": {wall_secs:.3},\n  \"experiments\": [\n{}\n  ]\n}}\n",
        scale.name(),
        entries.join(",\n")
    )
}
