//! Exp#13 (Fig. 24): impact of network bandwidth — links swept from
//! 1 Gb/s to 10 Gb/s with YCSB foreground traffic (disks fixed at
//! 500 MB/s).
//!
//! Paper result: absolute throughput rises with bandwidth, but
//! ChameleonEC's relative gain *falls* (from 64.4% at 1 Gb/s to 40.1% at
//! 10 Gb/s) — once storage I/O starts to dominate, network-aware
//! scheduling matters less.

use super::exp07::link_sweep;
use crate::runner::{FgSpec, RunOutput};
use crate::table::{chameleon_gains, pct, Report};
use crate::Scale;

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#13 (Fig. 24): repair throughput vs network bandwidth (scale '{}')",
        scale.name()
    ));

    let (table, rows) = link_sweep(
        scale,
        jobs,
        Some(FgSpec::ycsb(scale.clients, scale.requests_per_client)),
        "exp13_bandwidth",
        "repair throughput vs network bandwidth (YCSB foreground)",
    );
    report.tables.push(table);

    for g in chameleon_gains(&rows, RunOutput::repair_mbps) {
        report.note(format!(
            "  {:.0} Gb/s: ChameleonEC vs baseline average: {}",
            g.key,
            pct(g.vs_average)
        ));
    }
    report.note(
        "(paper: gain falls from +64.4% at 1 Gb/s to +40.1% at 10 Gb/s as storage I/O \
         starts to dominate)",
    );
    report
}
