//! Exp#8 (Fig. 19): multi-node repair — one to three simultaneous node
//! failures, under YCSB foreground traffic.
//!
//! Paper result: throughput declines slightly with more failed nodes
//! (fewer dispatch targets, less aggregate bandwidth), but ChameleonEC
//! keeps its lead and even grows it (+43.6% at one failure, +65.7% at
//! three) because it shines when bandwidth is stringent.

use super::rs;
use crate::grid::{run_specs, RunSpec};
use crate::runner::FgSpec;
use crate::table::{chameleon_gains, pct, Report, Table};
use crate::{AlgoKind, Scale};

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#8 (Fig. 19): multi-node repair (scale '{}')",
        scale.name()
    ));

    let code = rs(10, 4);
    let cfg = scale.cluster_config(14);
    let mut cells = Vec::new();
    let mut specs = Vec::new();
    for failures in 1usize..=3 {
        let victims: Vec<usize> = (0..failures).collect();
        for algo in AlgoKind::HEADLINE {
            cells.push((failures, algo));
            specs.push(
                RunSpec::new(
                    format!("{failures}fail/{}", algo.label()),
                    code.clone(),
                    cfg.clone(),
                    algo,
                    Some(FgSpec::ycsb(scale.clients, scale.requests_per_client)),
                )
                .with_victims(victims.clone()),
            );
        }
    }
    let outs = run_specs(&specs, jobs);

    let mut table = Table::new(
        "exp08_multinode",
        "repair throughput vs number of failed nodes",
        &[
            ("failed nodes", "failed_nodes"),
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
            ("chunks", "chunks"),
            ("chunk p50 (s)", "chunk_p50_s"),
            ("chunk p95 (s)", "chunk_p95_s"),
            ("chunk p99 (s)", "chunk_p99_s"),
        ],
    );
    let mut throughput = Vec::new();
    for (&(failures, algo), out) in cells.iter().zip(&outs) {
        table.push(vec![
            failures.to_string(),
            algo.label(),
            format!("{:.1}", out.repair_mbps()),
            out.outcome.chunks_repaired.to_string(),
            format!("{:.3}", out.chunk_pct_secs(0.50)),
            format!("{:.3}", out.chunk_pct_secs(0.95)),
            format!("{:.3}", out.chunk_pct_secs(0.99)),
        ]);
        throughput.push((failures, algo, out.repair_mbps()));
    }
    report.tables.push(table);

    for g in chameleon_gains(&throughput) {
        report.note(format!(
            "  {} failed node(s): ChameleonEC vs baseline average: {}",
            g.key,
            pct(g.vs_average)
        ));
    }
    report.note("(paper: +43.6% at 1 failure growing to +65.7% at 3)");
    report
}
