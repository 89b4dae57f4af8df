//! Exp#1 (Fig. 12): repair throughput and foreground P99 latency for
//! CR / PPR / ECPipe / ChameleonEC under four real-world trace families.
//!
//! Paper result: ChameleonEC improves repair throughput by 23.5% / 31.4% /
//! 65.6% on average over CR / PPR / ECPipe across traces, and shortens the
//! traces' P99 latency by 18.2% / 9.1% / 17.6%.

use chameleon_traces::TraceKind;

use super::rs;
use crate::grid::{run_specs, RunSpec};
use crate::runner::FgSpec;
use crate::table::{improvement, pct, value_of, Report, Table};
use crate::{AlgoKind, Scale};

fn specs(scale: &Scale) -> Vec<(TraceKind, AlgoKind, RunSpec)> {
    let code = rs(10, 4);
    let cfg = scale.cluster_config(14);
    let mut specs = Vec::new();
    for trace in TraceKind::ALL {
        for algo in AlgoKind::HEADLINE {
            let fg = FgSpec::uniform(trace, scale.clients, scale.requests_per_client);
            let spec = RunSpec::new(
                format!("{}/{}", trace.name(), algo.label()),
                code.clone(),
                cfg.clone(),
                algo,
                Some(fg),
            );
            specs.push((trace, algo, spec));
        }
    }
    specs
}

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#1 (Fig. 12): interference study at scale '{}' — RS(10,4), {} clients",
        scale.name(),
        scale.clients
    ));

    let cells = specs(scale);
    let grid: Vec<RunSpec> = cells.iter().map(|(_, _, s)| s.clone()).collect();
    let outs = run_specs(&grid, jobs);

    let mut table = Table::new(
        "exp01_interference_study",
        "repair throughput and trace P99 under interference",
        &[
            ("trace", "trace"),
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
            ("P99 (ms)", "p99_ms"),
            ("chunk p50 (s)", "chunk_p50_s"),
            ("chunk p95 (s)", "chunk_p95_s"),
            ("chunk p99 (s)", "chunk_p99_s"),
        ],
    );
    let mut throughput = Vec::new();
    for ((trace, algo, _), out) in cells.iter().zip(&outs) {
        let mbps = out.repair_mbps();
        table.push(vec![
            trace.name().to_string(),
            algo.label(),
            format!("{mbps:.1}"),
            format!("{:.3}", out.p99_ms()),
            format!("{:.3}", out.chunk_pct_secs(0.50)),
            format!("{:.3}", out.chunk_pct_secs(0.95)),
            format!("{:.3}", out.chunk_pct_secs(0.99)),
        ]);
        throughput.push((*trace, *algo, mbps));
    }
    report.tables.push(table);

    // Summarize ChameleonEC's average gain over each baseline.
    for base in AlgoKind::BASELINES {
        let gains: Vec<f64> = TraceKind::ALL
            .iter()
            .filter_map(|trace| {
                let cham = value_of(&throughput, trace, AlgoKind::Chameleon)?;
                Some(improvement(cham, value_of(&throughput, trace, base)?))
            })
            .collect();
        let avg = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
        report.note(format!(
            "ChameleonEC vs {:<8}: {} average repair-throughput gain (paper: +23.5%/+31.4%/+65.6%)",
            base.label(),
            pct(avg)
        ));
    }
    report
}
