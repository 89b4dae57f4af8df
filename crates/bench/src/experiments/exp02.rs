//! Exp#2 (Fig. 13): impact on trace execution time — the *interference
//! degree* `T*/T - 1`, where `T` is a trace's execution time without
//! repair and `T*` with a concurrent repair.
//!
//! Paper result: ChameleonEC reduces the interference degree by 45.9% /
//! 50.2% / 56.7% on average vs CR / PPR / ECPipe, with the biggest
//! reductions on highly variable traces (IBM-COS, FB-ETC).

use chameleon_traces::TraceKind;

use super::rs;
use crate::grid::{run_grid, RunSpec};
use crate::runner::{run_foreground_only, FgSpec};
use crate::table::{value_of, Report, Table};
use crate::{AlgoKind, Scale};

/// One grid cell: the clean (repair-free) baseline run of a trace, or a
/// repair run of one algorithm under that trace.
enum Cell {
    Clean(TraceKind),
    Repair(TraceKind, AlgoKind),
}

/// Execution time of the cell's run, in simulated seconds.
fn execute(cell: &Cell, scale: &Scale) -> f64 {
    let code = rs(10, 4);
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

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#2 (Fig. 13): interference degree (T*/T - 1) per trace (scale '{}')",
        scale.name()
    ));

    let mut cells = Vec::new();
    for trace in TraceKind::ALL {
        cells.push(Cell::Clean(trace));
        for algo in AlgoKind::HEADLINE {
            cells.push(Cell::Repair(trace, algo));
        }
    }
    let times = run_grid(&cells, jobs, |cell| execute(cell, scale));

    let mut table = Table::new(
        "exp02_trace_execution",
        "interference degree per trace and algorithm",
        &[
            ("trace", "trace"),
            ("algorithm", "algorithm"),
            ("T (s)", "t_secs"),
            ("T* (s)", "t_star_secs"),
            ("degree", "degree"),
        ],
    );
    let mut degrees = Vec::new();
    let mut t = 0.0f64;
    for (cell, secs) in cells.iter().zip(&times) {
        match cell {
            Cell::Clean(_) => t = *secs,
            Cell::Repair(trace, algo) => {
                let t_star = *secs;
                let degree = (t_star / t - 1.0).max(0.0);
                table.push(vec![
                    trace.name().to_string(),
                    algo.label(),
                    format!("{t:.1}"),
                    format!("{t_star:.1}"),
                    format!("{:.3}", degree),
                ]);
                degrees.push((*trace, *algo, degree));
            }
        }
    }
    report.tables.push(table);

    for base in AlgoKind::BASELINES {
        let reductions: Vec<f64> = TraceKind::ALL
            .iter()
            .filter_map(|trace| {
                let c = value_of(&degrees, trace, AlgoKind::Chameleon)?;
                let b = value_of(&degrees, trace, base)?;
                Some(if b > 0.0 { 1.0 - c / b } else { 0.0 })
            })
            .collect();
        let reduction = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
        report.note(format!(
            "ChameleonEC reduces interference degree vs {:<8} by {:.1}% on average \
             (paper: 45.9%/50.2%/56.7%)",
            base.label(),
            reduction * 100.0
        ));
    }
    report
}
