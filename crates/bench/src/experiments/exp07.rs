//! Exp#7 (Fig. 18): repair performance with *no* foreground traffic,
//! sweeping the link bandwidth from 1 Gb/s to 10 Gb/s (the paper uses
//! wondershaper to throttle).
//!
//! Paper result: every algorithm is faster without interference; the
//! bandwidth-aware dispatch still gives ChameleonEC +25.0–41.3%
//! (35.1% on average) by balancing multi-chunk repair traffic.

use super::rs;
use crate::grid::{run_specs, RunSpec};
use crate::runner::FgSpec;
use crate::table::{chameleon_gains, pct, Cell, Report, Table};
use crate::{AlgoKind, Scale};

/// The link-bandwidth sweep this experiment (no foreground) and Exp#13
/// (YCSB foreground) share: the headline algorithms on RS(10,4) at 1, 2, 5
/// and 10 Gb/s links over 500 MB/s disks. Returns the table and the
/// measured `(Gb/s, algorithm, repair MB/s)` cells.
pub(super) fn sweep(
    scale: &Scale,
    jobs: usize,
    fg: Option<FgSpec>,
    stem: &'static str,
    title: &'static str,
) -> (Table, Vec<Cell<f64>>) {
    let code = rs(10, 4);
    let mut cells = Vec::new();
    let mut specs = Vec::new();
    for gbps in [1.0, 2.0, 5.0, 10.0] {
        let cfg = scale.cluster_config_with_bandwidth(14, gbps * 1e9 / 8.0, 500e6);
        for algo in AlgoKind::HEADLINE {
            cells.push((gbps, algo));
            specs.push(RunSpec::new(
                format!("{gbps:.0}Gbps/{}", algo.label()),
                code.clone(),
                cfg.clone(),
                algo,
                fg.clone(),
            ));
        }
    }
    let outs = run_specs(&specs, jobs);

    let mut table = Table::new(
        stem,
        title,
        &[
            ("link Gb/s", "link_gbps"),
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
        ],
    );
    let mut throughput = Vec::new();
    for (&(gbps, algo), out) in cells.iter().zip(&outs) {
        let mbps = out.repair_mbps();
        table.push(vec![
            format!("{gbps:.0}"),
            algo.label(),
            format!("{mbps:.1}"),
        ]);
        throughput.push((gbps, algo, mbps));
    }
    (table, throughput)
}

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#7 (Fig. 18): no-foreground repair vs link bandwidth (scale '{}')",
        scale.name()
    ));

    let (table, throughput) = sweep(
        scale,
        jobs,
        None,
        "exp07_no_foreground",
        "repair throughput with no foreground traffic",
    );
    report.tables.push(table);

    let gains = chameleon_gains(&throughput);
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
