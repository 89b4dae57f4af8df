//! CI perf-regression gate: compares the fresh benchmark JSON documents
//! against the committed baselines and exits non-zero on a regression:
//!
//! - `results/BENCH_simnet.json` vs `results/BENCH_simnet.baseline.json`
//!   at the gate point (20 nodes, 10k flows), >20% drop of indexed
//!   events/sec fails. Run `cargo bench --bench simnet_throughput` first.
//! - the same document's oversubscribed-spine point (1000 nodes, 25
//!   racks, 1:4 spine, 1.5k flows) must clear the absolute
//!   `gate::SPINE_MIN_EVENTS_PER_SEC` floor — no baseline, the floor proves
//!   the dirty closure conducts only through saturated resources.
//! - `results/BENCH_gf.json` vs `results/BENCH_gf.baseline.json` at the
//!   active GF kernel's 1 MiB `mul_slice_xor` and 10-term `combine` points;
//!   a >30% drop of either fails.
//!   Run `cargo bench --bench gf_throughput` first.
//!
//! [`COMMAND`] declares the four path flags; a relative path, as each
//! default is, is read from `results/`.

use std::process::ExitCode;

use chameleon_bench::flags::{Command, Flags};
use chameleon_bench::gate;
use chameleon_bench::table::results_dir;

const COMMAND: Command = Command {
    name: "bench_gate",
    about: "Fail on a simnet or GF throughput regression; relative paths are under results/",
    flags: &[
        ("current", "BENCH_simnet.json", "fresh simnet JSON"),
        ("baseline", "BENCH_simnet.baseline.json", "simnet baseline"),
        ("gf-current", "BENCH_gf.json", "fresh GF JSON"),
        ("gf-baseline", "BENCH_gf.baseline.json", "GF baseline"),
    ],
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gate_all(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the three checks and prints their reports; `Ok(false)` when one
/// regressed, an error when a flag or an input document is bad.
fn gate_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &COMMAND)?;
    let read = |key: &str| {
        let path = results_dir().join(flags.str(key));
        std::fs::read_to_string(&path)
            .map_err(|e| format!("--{key}: cannot read {}: {e}", path.display()))
    };
    let [current, baseline, gf_current, gf_baseline] = [
        read("current")?,
        read("baseline")?,
        read("gf-current")?,
        read("gf-baseline")?,
    ];

    let simnet = gate::check(&current, &baseline)?;
    println!("{}", simnet.render());
    let spine = gate::check_spine(&current)?;
    println!("{}", spine.render_spine());
    let gf = gate::check_gf(&gf_current, &gf_baseline)?;
    for (column, report) in &gf {
        println!("{}", report.render_gf(column));
    }

    let mut passed = true;
    if !spine.pass() {
        eprintln!(
            "bench_gate: the oversubscribed-spine point fell below the absolute \
             {:.0} ev/s floor — the incremental solver is likely conducting its \
             dirty closure through resources that have slack",
            gate::SPINE_MIN_EVENTS_PER_SEC
        );
        passed = false;
    }
    if !simnet.pass() {
        eprintln!(
            "bench_gate: indexed events/sec regressed more than {:.0}% at the gate point; \
             if this slowdown is intentional, refresh results/BENCH_simnet.baseline.json \
             in the same PR and justify it in the description",
            gate::MAX_REGRESSION * 100.0
        );
        passed = false;
    }
    if gf.iter().any(|(_, report)| !report.pass()) {
        eprintln!(
            "bench_gate: active GF kernel MB/s regressed more than {:.0}% at 1 MiB; \
             if this slowdown is intentional, refresh results/BENCH_gf.baseline.json \
             in the same PR and justify it in the description",
            gate::GF_MAX_REGRESSION * 100.0
        );
        passed = false;
    }
    Ok(passed)
}
