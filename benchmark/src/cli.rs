//! Command line: one workload (what the driver calls), all of them, or two
//! sets back to back with an agreement verdict.

use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::registry::{self, Better, Bound, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{self, RunArgs, RUN_SECONDS};

const USAGE: &str = "\
usage: chameleon-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--agree]

  --workload NAME  repair20 | fabric20 | scale1000 | campaign20 | codec | all (default: all)
  --seed N         every generated input derives from it (default 1)
  --seconds S      seconds of timed passes per run (default 16; never fewer than 5 passes)
  --trace 0|1      0: timed run, end-to-end metrics; 1: traced run, per-layer metrics.
                   With `all`, both runs are made for every workload.
  --quick          tiny sizes, one pass: a smoke test, numbers compare with nothing
  --agree          run everything twice and compare the two sets against the bounds

A single-workload run ends with one JSON line: correct, attempted, failed, metrics.
Exit status is non-zero only when an output check failed (or --agree disagreed).";

struct Cli {
    /// What to run; the workload may also be `all`.
    run: RunArgs,
    agree: bool,
    /// Internal, for child runs: put every reading on the result line.
    report_all: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        run: RunArgs {
            workload: "all".into(),
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
            quick: false,
        },
        agree: false,
        report_all: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cli.run.workload = value()?.clone(),
            "--seed" => {
                cli.run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                cli.run.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => cli.run.quick = true,
            "--agree" => cli.agree = true,
            "--report-all" => cli.report_all = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.run.workload != "all" && !registry::is_workload(&cli.run.workload) {
        return Err(format!("unknown workload `{}`", cli.run.workload));
    }
    Ok(cli)
}

/// Entry point of the binary.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if cli.agree {
        agree(&cli.run)
    } else if cli.run.workload == "all" {
        run_set(&cli.run, true).is_some_and(|set| set.iter().all(|r| r.correct))
    } else {
        let report = run::run(&cli.run);
        print!("{}", report.render());
        println!("{}", report.result_line(cli.report_all));
        report.correct()
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the parent keeps of one child run.
struct ChildResult {
    workload: &'static str,
    traced: bool,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

/// Runs every workload, timed then traced, each in a process of its own so
/// that peak memory is per workload. Returns `None` if a child could not
/// be run or read.
fn run_set(args: &RunArgs, echo: bool) -> Option<Vec<ChildResult>> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return None;
        }
    };
    let mut results = Vec::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args([
                    "--workload",
                    workload.name,
                    "--trace",
                    trace,
                    "--report-all",
                ])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                child.arg("--quick");
            }
            // `output` waits for the child to end.
            let output = match child.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("error: cannot run {}: {e}", workload.name);
                    return None;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (text, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
            if echo {
                println!("{text}\n");
            }
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let parsed = Json::parse(line).ok().and_then(|v| {
                Some(ChildResult {
                    workload: workload.name,
                    traced: trace == "1",
                    correct: matches!(v.get("correct")?, Json::Bool(true)),
                    attempted: v.get("attempted")?.as_f64()?,
                    failed: v.get("failed")?.as_f64()?,
                    metrics: v
                        .get("metrics")?
                        .as_obj()?
                        .iter()
                        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                        .collect(),
                })
            });
            match parsed {
                Some(result) => results.push(result),
                None => {
                    eprintln!(
                        "error: {} --trace {trace} ended with {} and no result line",
                        workload.name, output.status
                    );
                    return None;
                }
            }
        }
    }
    if echo {
        let attempted: f64 = results.iter().map(|r| r.attempted).sum();
        let failed: f64 = results.iter().map(|r| r.failed).sum();
        let wrong: Vec<&str> = results
            .iter()
            .filter(|r| !r.correct)
            .map(|r| r.workload)
            .collect();
        println!("all workloads: ops_attempted {attempted} ops_failed {failed}");
        if wrong.is_empty() {
            println!("checks: ok");
        } else {
            println!("checks: FAILED on {}", wrong.join(", "));
        }
    }
    Some(results)
}

/// Two full sets of the same code, back to back. Host metrics of the timed
/// runs must agree within their bound; simulated statistics and exact
/// counters must be identical in every run. A traced run's own host
/// medians rest on two passes and are not compared.
fn agree(args: &RunArgs) -> bool {
    println!("# agreement of two sets of runs, seed {}", args.seed);
    for (k, v) in crate::host::environment() {
        println!("# {k}={v}");
    }
    let (Some(first), Some(second)) = (run_set(args, false), run_set(args, false)) else {
        return false;
    };
    let mut ok = true;
    println!(
        "{:<12} {:<6} {:<32} {:>16} {:>16} {:>9} {:>8}  verdict",
        "workload", "run", "metric", "first", "second", "gap", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        if !(a.correct && b.correct) {
            println!("{:<12} output checks failed", a.workload);
            ok = false;
        }
        for (name, x) in &a.metrics {
            let Some(&(_, y)) = b.metrics.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let exact = name.ends_with("_sim")
                || PER_LAYER
                    .iter()
                    .any(|m| m.name == name && m.unit == "count");
            let (better, bound) = match END_TO_END.iter().find(|m| m.name == name) {
                _ if exact => (Better::Lower, Bound::Share(0.0)),
                Some(m) if !a.traced => (m.better, m.bound),
                // Host-timed numbers of a traced run are reported, not bounded.
                _ => continue,
            };
            let holds = if exact {
                *x == y
            } else {
                bound.holds(better, *x, y) && bound.holds(better, y, *x)
            };
            ok &= holds;
            println!(
                "{:<12} {:<6} {:<32} {:>16.6} {:>16.6} {:>8.2}% {:>8}  {}",
                a.workload,
                if a.traced { "traced" } else { "timed" },
                name,
                x,
                y,
                (y - x) / x.abs().max(f64::MIN_POSITIVE) * 100.0,
                if exact { "exact".into() } else { bound.label() },
                if holds { "ok" } else { "DISAGREE" }
            );
        }
    }
    println!("agreement: {}", if ok { "pass" } else { "FAIL" });
    ok
}
