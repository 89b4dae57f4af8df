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
//! Usage: `bench_gate [--current <path>] [--baseline <path>]
//!                    [--gf-current <path>] [--gf-baseline <path>]`

use std::path::PathBuf;

use chameleon_bench::gate;
use chameleon_bench::table::results_dir;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let results_path = |name: &str| results_dir().join(name);
    let mut current = results_path("BENCH_simnet.json");
    let mut baseline = results_path("BENCH_simnet.baseline.json");
    let mut gf_current = results_path("BENCH_gf.json");
    let mut gf_baseline = results_path("BENCH_gf.baseline.json");
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--current" => current = it.next().expect("--current needs a path").into(),
            "--baseline" => baseline = it.next().expect("--baseline needs a path").into(),
            "--gf-current" => gf_current = it.next().expect("--gf-current needs a path").into(),
            "--gf-baseline" => gf_baseline = it.next().expect("--gf-baseline needs a path").into(),
            other => {
                eprintln!("bench_gate: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let read = |path: &PathBuf| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot read {}: {e}", path.display());
            std::process::exit(2);
        })
    };

    let current_json = read(&current);
    let simnet = match gate::check(&current_json, &read(&baseline)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", simnet.render());

    let spine = match gate::check_spine(&current_json) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", spine.render_spine());

    let gf = match gate::check_gf(&read(&gf_current), &read(&gf_baseline)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            std::process::exit(2);
        }
    };
    for (column, report) in &gf {
        println!("{}", report.render_gf(column));
    }

    let mut failed = false;
    if !spine.pass() {
        eprintln!(
            "bench_gate: the oversubscribed-spine point fell below the absolute \
             {:.0} ev/s floor — the incremental solver is likely conducting its \
             dirty closure through resources that have slack",
            gate::SPINE_MIN_EVENTS_PER_SEC
        );
        failed = true;
    }
    if !simnet.pass() {
        eprintln!(
            "bench_gate: indexed events/sec regressed more than {:.0}% at the gate point; \
             if this slowdown is intentional, refresh results/BENCH_simnet.baseline.json \
             in the same PR and justify it in the description",
            gate::MAX_REGRESSION * 100.0
        );
        failed = true;
    }
    if gf.iter().any(|(_, report)| !report.pass()) {
        eprintln!(
            "bench_gate: active GF kernel MB/s regressed more than {:.0}% at 1 MiB; \
             if this slowdown is intentional, refresh results/BENCH_gf.baseline.json \
             in the same PR and justify it in the description",
            gate::GF_MAX_REGRESSION * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
