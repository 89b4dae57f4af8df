//! Exp#2 (Fig. 13): impact on trace execution time — the *interference
//! degree* `T*/T - 1`, where `T` is a trace's execution time without
//! repair and `T*` with a concurrent repair.
//!
//! Paper result: ChameleonEC reduces the interference degree by 45.9% /
//! 50.2% / 56.7% on average vs CR / PPR / ECPipe, with the biggest
//! reductions on highly variable traces (IBM-COS, FB-ETC).

use std::sync::Arc;

use chameleon_codes::{ErasureCode, ReedSolomon};
use chameleon_traces::TraceKind;

use crate::grid::{run_grid, RunSpec};
use crate::runner::{run_foreground_only, FgSpec};
use crate::table::{print_table, write_csv};
use crate::{AlgoKind, Scale};

/// One grid cell: the clean (repair-free) baseline run of a trace, or a
/// repair run of one algorithm under that trace.
enum Cell {
    Clean(TraceKind),
    Repair(TraceKind, AlgoKind),
}

/// Execution time of the cell's run, in simulated seconds.
fn execute(cell: &Cell, scale: &Scale) -> f64 {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(10, 4).expect("RS(10,4)"));
    let cfg = scale.cluster_config(14);
    match cell {
        Cell::Clean(trace) => {
            let spec = FgSpec::uniform(*trace, scale.clients, scale.requests_per_client);
            let (clean, _) = run_foreground_only(code, cfg, spec);
            clean.execution_time.expect("finished")
        }
        Cell::Repair(trace, algo) => {
            let spec = FgSpec::uniform(*trace, scale.clients, scale.requests_per_client);
            let out = RunSpec::new("", code, cfg, *algo, Some(spec)).execute();
            out.fg_report
                .and_then(|r| r.execution_time)
                .expect("finished")
        }
    }
}

struct Computed {
    rows: Vec<Vec<String>>,
    cham_deg: Vec<f64>,
    base_deg: Vec<(AlgoKind, f64)>,
}

fn compute(scale: &Scale, jobs: usize) -> Computed {
    let mut cells = Vec::new();
    for trace in TraceKind::ALL {
        cells.push(Cell::Clean(trace));
        for algo in AlgoKind::HEADLINE {
            cells.push(Cell::Repair(trace, algo));
        }
    }
    let times = run_grid(&cells, jobs, |cell| execute(cell, scale));

    let mut rows = Vec::new();
    let mut cham_deg = Vec::new();
    let mut base_deg = Vec::new();
    let mut t = 0.0f64;
    for (cell, secs) in cells.iter().zip(&times) {
        match cell {
            Cell::Clean(_) => t = *secs,
            Cell::Repair(trace, algo) => {
                let t_star = *secs;
                let degree = (t_star / t - 1.0).max(0.0);
                rows.push(vec![
                    trace.name().to_string(),
                    algo.label(),
                    format!("{t:.1}"),
                    format!("{t_star:.1}"),
                    format!("{:.3}", degree),
                ]);
                if *algo == AlgoKind::Chameleon {
                    cham_deg.push(degree);
                } else {
                    base_deg.push((*algo, degree));
                }
            }
        }
    }
    Computed {
        rows,
        cham_deg,
        base_deg,
    }
}

/// The experiment's CSV rows — exposed for the grid determinism suite,
/// which compares the byte-rendered rows across `--jobs` settings.
pub fn csv_rows(scale: &Scale, jobs: usize) -> Vec<Vec<String>> {
    compute(scale, jobs).rows
}

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) {
    println!(
        "Exp#2 (Fig. 13): interference degree (T*/T - 1) per trace (scale '{}')",
        scale.name()
    );

    let c = compute(scale, jobs);
    print_table(
        "interference degree per trace and algorithm",
        &["trace", "algorithm", "T (s)", "T* (s)", "degree"],
        &c.rows,
    );
    write_csv(
        "exp02_trace_execution",
        &["trace", "algorithm", "t_secs", "t_star_secs", "degree"],
        &c.rows,
    );

    for base in AlgoKind::BASELINES {
        let pairs: Vec<(f64, f64)> = c
            .base_deg
            .iter()
            .filter(|(a, _)| *a == base)
            .zip(&c.cham_deg)
            .map(|((_, b), c)| (*b, *c))
            .collect();
        let reduction: f64 = pairs
            .iter()
            .map(|(b, c)| if *b > 0.0 { 1.0 - c / b } else { 0.0 })
            .sum::<f64>()
            / pairs.len().max(1) as f64;
        println!(
            "ChameleonEC reduces interference degree vs {:<8} by {:.1}% on average \
             (paper: 45.9%/50.2%/56.7%)",
            base.label(),
            reduction * 100.0
        );
    }
}
