//! Fig. 6 (§II-D): bandwidth utilization of the most-loaded (ML) and
//! least-loaded (LL) uplinks and downlinks during repair under YCSB
//! foreground traffic, split into repair vs foreground bandwidth.
//!
//! Paper result: utilization is heavily unbalanced — ECPipe's most-loaded
//! uplink supplies 110.5% more bandwidth than its least-loaded one.
//! ChameleonEC balances the links.

use chameleon_core::LinkLoadStats;

use super::rs;
use crate::grid::{run_specs, RunSpec};
use crate::runner::FgSpec;
use crate::table::{pct, Report, Table};
use crate::{AlgoKind, Scale};

/// Runs the study at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let code = rs(10, 4);
    let cfg = scale.cluster_config(14);

    let mut report = Report::default();
    report.note(format!(
        "Fig. 6: most/least-loaded link utilization during repair (scale '{}')",
        scale.name()
    ));

    let algos: Vec<AlgoKind> = AlgoKind::HEADLINE.to_vec();
    let specs: Vec<RunSpec> = algos
        .iter()
        .map(|&algo| {
            RunSpec::new(
                algo.label(),
                code.clone(),
                cfg.clone(),
                algo,
                Some(FgSpec::ycsb(scale.clients, scale.requests_per_client)),
            )
        })
        .collect();
    let outs = run_specs(&specs, jobs);

    let mut table = Table::new(
        "fig06_imbalance",
        "repair / foreground bandwidth of extreme links (Gb/s)",
        &[
            ("algorithm", "algorithm"),
            ("link", "link"),
            ("repair Gb/s", "repair_gbps"),
            ("foreground Gb/s", "foreground_gbps"),
        ],
    );
    for (&algo, out) in algos.iter().zip(&outs) {
        // Exclude the failed node (0): it has no traffic by definition.
        let alive: Vec<usize> = (1..20).collect();
        let stats = LinkLoadStats::from_monitor_nodes(out.sim.monitor(), &alive);
        let gbps = |x: f64| x * 8.0 / 1e9;
        for (link, (repair, fg)) in [
            ("uplink-ML", stats.most_loaded_up),
            ("uplink-LL", stats.least_loaded_up),
            ("downlink-ML", stats.most_loaded_down),
            ("downlink-LL", stats.least_loaded_down),
        ] {
            table.push(vec![
                algo.label(),
                link.to_string(),
                format!("{:.3}", gbps(repair)),
                format!("{:.3}", gbps(fg)),
            ]);
        }
        report.note(format!(
            "{:<12} uplink ML/LL imbalance: {}",
            algo.label(),
            pct(stats.uplink_imbalance())
        ));
    }
    report.tables.push(table);
    report.note("shape check: baselines show large ML/LL gaps; ChameleonEC's gap is the smallest.");
    report
}
