//! Exp#7 (Fig. 18): repair performance with *no* foreground traffic,
//! sweeping the link bandwidth from 1 Gb/s to 10 Gb/s (the paper uses
//! wondershaper to throttle).
//!
//! Paper result: every algorithm is faster without interference; the
//! bandwidth-aware dispatch still gives ChameleonEC +25.0–41.3%
//! (35.1% on average) by balancing multi-chunk repair traffic.

use super::rs;
use crate::grid::{sweep, RunSpec};
use crate::runner::{FgSpec, RunOutput};
use crate::table::{chameleon_gains, pct, Report, Table};
use crate::{AlgoKind, Scale};

/// The link-bandwidth sweep this experiment (no foreground) and Exp#13
/// (YCSB foreground) share: the headline algorithms on RS(10,4) at 1, 2, 5
/// and 10 Gb/s links over 500 MB/s disks. Returns the table and the rows,
/// keyed by Gb/s.
pub(super) fn link_sweep(
    scale: &Scale,
    jobs: usize,
    fg: Option<FgSpec>,
    stem: &'static str,
    title: &'static str,
) -> (Table, Vec<(f64, AlgoKind, RunOutput)>) {
    let code = rs(10, 4);
    let links = [1.0, 2.0, 5.0, 10.0];
    let rows = sweep(links, &AlgoKind::HEADLINE, jobs, |&gbps, algo| {
        let cfg = scale.cluster_config_with_bandwidth(14, gbps * 1e9 / 8.0, 500e6);
        let label = format!("{gbps:.0}Gbps/{}", algo.label());
        RunSpec::new(label, code.clone(), cfg, algo, fg.clone()).execute()
    });

    let mut table = Table::new(
        stem,
        title,
        &[
            ("link Gb/s", "link_gbps"),
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
        ],
    );
    for (gbps, algo, out) in &rows {
        table.push(vec![
            format!("{gbps:.0}"),
            algo.label(),
            format!("{:.1}", out.repair_mbps()),
        ]);
    }
    (table, rows)
}

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#7 (Fig. 18): no-foreground repair vs link bandwidth (scale '{}')",
        scale.name()
    ));

    let (table, rows) = link_sweep(
        scale,
        jobs,
        None,
        "exp07_no_foreground",
        "repair throughput with no foreground traffic",
    );
    report.tables.push(table);

    let gains = chameleon_gains(&rows, RunOutput::repair_mbps);
    for g in &gains {
        report.note(format!(
            "  {:.0} Gb/s: ChameleonEC vs baseline average {}, vs best baseline {}",
            g.key,
            pct(g.vs_average),
            pct(g.vs_best)
        ));
    }
    let avg = gains.iter().map(|g| g.vs_average).sum::<f64>() / gains.len() as f64;
    report.note(format!(
        "average ChameleonEC gain over the baseline average: {} (paper: +25.0–41.3%, avg 35.1%)",
        pct(avg)
    ));
    report
}
