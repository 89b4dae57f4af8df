//! Fig. 2 (§II-B): data-loss probability during a single-node repair as a
//! function of repair throughput, for RS(10,4) with 96 TB nodes and
//! 10-year expected node lifetimes.
//!
//! Paper result: Pr_dl falls monotonically (by orders of magnitude) as
//! repair throughput grows — the motivation for fast repair.

use chameleon_cluster::reliability::ReliabilityModel;

use crate::table::{Report, Table};
use crate::Scale;

/// Runs the study (pure closed-form math — the scale and worker count are
/// ignored; there is nothing to parallelize).
pub fn run(_scale: &Scale, _jobs: usize) -> Report {
    let model = ReliabilityModel::paper_default();
    let mut report = Report::default();
    report.note(format!(
        "Fig. 2: Pr_dl vs repair throughput — RS({},{}), {} TB/node, theta = {} years",
        model.k,
        model.m,
        model.node_capacity_bytes / 1e12,
        model.node_lifetime_years
    ));

    let mut table = Table::new(
        "fig02_reliability",
        "data-loss probability vs repair throughput",
        &[
            ("repair MB/s", "repair_mbps"),
            ("repair time (h)", "repair_hours"),
            ("Pr_dl", "pr_dl"),
        ],
    );
    let mut last = f64::INFINITY;
    for mbps in [10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0] {
        let throughput = mbps * 1e6;
        let tau_hours = model.repair_duration_secs(throughput) / 3600.0;
        let p = model.data_loss_probability(throughput);
        assert!(p <= last, "Pr_dl must fall with throughput");
        last = p;
        table.push(vec![
            format!("{mbps:.0}"),
            format!("{tau_hours:.1}"),
            format!("{p:.3e}"),
        ]);
    }
    report.tables.push(table);
    report.note("shape check: Pr_dl is monotonically decreasing — matches the paper.");
    report
}
