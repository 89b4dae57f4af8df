//! Exp#8 (Fig. 19): multi-node repair — one to three simultaneous node
//! failures, under YCSB foreground traffic.
//!
//! Paper result: throughput declines slightly with more failed nodes
//! (fewer dispatch targets, less aggregate bandwidth), but ChameleonEC
//! keeps its lead and even grows it (+43.6% at one failure, +65.7% at
//! three) because it shines when bandwidth is stringent.

use super::rs;
use crate::grid::{sweep, RunSpec};
use crate::runner::{FgSpec, RunOutput};
use crate::table::{chameleon_gains, pct, Report, Table};
use crate::{AlgoKind, Scale};

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#8 (Fig. 19): multi-node repair (scale '{}')",
        scale.name()
    ));

    let (code, cfg) = (rs(10, 4), scale.cluster_config(14));
    let rows = sweep(1usize..=3, &AlgoKind::HEADLINE, jobs, |&failures, algo| {
        let fg = FgSpec::ycsb(scale.clients, scale.requests_per_client);
        let label = format!("{failures}fail/{}", algo.label());
        RunSpec::new(label, code.clone(), cfg.clone(), algo, Some(fg))
            .with_victims((0..failures).collect())
            .execute()
    });

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
    for (failures, algo, out) in &rows {
        table.push(vec![
            failures.to_string(),
            algo.label(),
            format!("{:.1}", out.repair_mbps()),
            out.outcome.chunks_repaired.to_string(),
            format!("{:.3}", out.chunk_pct_secs(0.50)),
            format!("{:.3}", out.chunk_pct_secs(0.95)),
            format!("{:.3}", out.chunk_pct_secs(0.99)),
        ]);
    }
    report.tables.push(table);

    for g in chameleon_gains(&rows, RunOutput::repair_mbps) {
        report.note(format!(
            "  {} failed node(s): ChameleonEC vs baseline average: {}",
            g.key,
            pct(g.vs_average)
        ));
    }
    report.note("(paper: +43.6% at 1 failure growing to +65.7% at 3)");
    report
}
