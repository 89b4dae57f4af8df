//! Exp#6 (Fig. 17): the baselines boosted by RepairBoost vs ChameleonEC,
//! under YCSB foreground traffic.
//!
//! Paper result: RepairBoost lifts every baseline (e.g. ECPipe from
//! 110.6 to 142.7 MB/s), but ChameleonEC still wins by 34.8% / 16.7% /
//! 46.2% over RB+CR / RB+PPR / RB+ECPipe — a fixed plan shape re-creates
//! the bandwidth imbalance RepairBoost tries to remove.

use super::rs;
use crate::grid::{sweep, RunSpec};
use crate::runner::{FgSpec, RunOutput};
use crate::table::{improvement, pct, value_of, Report, Table};
use crate::{AlgoKind, Scale};

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let code = rs(10, 4);
    let cfg = scale.cluster_config(14);

    let mut report = Report::default();
    report.note(format!(
        "Exp#6 (Fig. 17): RepairBoost-boosted baselines vs ChameleonEC (scale '{}')",
        scale.name()
    ));

    let algos = [
        AlgoKind::Cr,
        AlgoKind::RbCr,
        AlgoKind::Ppr,
        AlgoKind::RbPpr,
        AlgoKind::EcPipe,
        AlgoKind::RbEcPipe,
        AlgoKind::Chameleon,
    ];
    let rows = sweep([()], &algos, jobs, |_, algo| {
        let fg = FgSpec::ycsb(scale.clients, scale.requests_per_client);
        RunSpec::new(algo.label(), code.clone(), cfg.clone(), algo, Some(fg)).execute()
    });

    let mut table = Table::new(
        "exp06_repairboost",
        "repair throughput under RepairBoost",
        &[
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
            ("P99 (ms)", "p99_ms"),
        ],
    );
    for (_, algo, out) in &rows {
        table.push(vec![
            algo.label(),
            format!("{:.1}", out.repair_mbps()),
            format!("{:.2}", out.p99_ms()),
        ]);
    }
    report.tables.push(table);

    let get = |kind| value_of(&rows, &(), kind, RunOutput::repair_mbps).unwrap_or(0.0);
    let cham = get(AlgoKind::Chameleon);
    for (plain, boosted) in [
        (AlgoKind::Cr, AlgoKind::RbCr),
        (AlgoKind::Ppr, AlgoKind::RbPpr),
        (AlgoKind::EcPipe, AlgoKind::RbEcPipe),
    ] {
        let (p, b) = (get(plain), get(boosted));
        report.note(format!(
            "{:<10}: RB lifts {p:.1} -> {b:.1} MB/s ({}); ChameleonEC still {} better than {}",
            plain.label(),
            pct(improvement(b, p)),
            pct(improvement(cham, b)),
            boosted.label(),
        ));
    }
    report.note("(paper: ChameleonEC +34.8%/+16.7%/+46.2% over RB+CR/RB+PPR/RB+ECPipe)");
    report
}
