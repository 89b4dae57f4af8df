//! Fig. 4 (§II-D): the motivating trace-driven interference analysis —
//! repair time and YCSB P99 latency as the number of YCSB clients grows
//! from 0 (no interference) to 4, for the three baselines.
//!
//! Paper result: interference increases repair time by 3.6–91.5% and YCSB
//! P99 by 4.7–31.5%; both grow with the number of clients.

use super::rs;
use crate::grid::{run_grid, run_specs, RunSpec};
use crate::runner::{run_foreground_only, FgSpec};
use crate::table::{improvement, pct, Report, Table};
use crate::{AlgoKind, Scale};

/// One cell of part (b): a repair-free YCSB run or a repair under YCSB.
enum CellB {
    Only(usize),
    Repair(usize, AlgoKind),
}

/// Runs the study at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let code = rs(10, 4);
    let mut cfg = scale.cluster_config(14);
    // The sweep goes to four clients whatever the scale's own client count.
    cfg.clients = cfg.clients.max(4);

    let mut report = Report::default();
    report.note(format!(
        "Fig. 4: repair/foreground interference vs client count (scale '{}')",
        scale.name()
    ));

    // (a) repair time vs number of clients.
    let mut cells_a = Vec::new();
    let mut specs_a = Vec::new();
    for algo in AlgoKind::BASELINES {
        for clients in [0usize, 1, 2, 4] {
            let fg = (clients > 0).then(|| FgSpec::ycsb(clients, scale.requests_per_client));
            cells_a.push((algo, clients));
            specs_a.push(RunSpec::new(
                format!("{}/{clients}c", algo.label()),
                code.clone(),
                cfg.clone(),
                algo,
                fg,
            ));
        }
    }
    let outs_a = run_specs(&specs_a, jobs);

    let mut table_a = Table::new(
        "fig04a_repair_time",
        "(a) repair time vs clients",
        &[
            ("algorithm", "algorithm"),
            ("clients", "clients"),
            ("repair time (s)", "repair_secs"),
            ("vs idle", "slowdown"),
        ],
    );
    let mut idle_time = std::collections::HashMap::new();
    for ((algo, clients), out) in cells_a.iter().zip(&outs_a) {
        let secs = out.outcome.duration.expect("finished");
        if *clients == 0 {
            idle_time.insert(algo.label(), secs);
        }
        let slowdown = improvement(secs, idle_time[&algo.label()]);
        table_a.push(vec![
            algo.label(),
            clients.to_string(),
            format!("{secs:.2}"),
            pct(slowdown),
        ]);
    }
    report.tables.push(table_a);

    // (b) YCSB P99 vs number of clients, with and without repair.
    let mut cells_b = Vec::new();
    for clients in [1usize, 2, 4] {
        cells_b.push(CellB::Only(clients));
        for algo in AlgoKind::BASELINES {
            cells_b.push(CellB::Repair(clients, algo));
        }
    }
    let p99s = run_grid(&cells_b, jobs, |cell| match cell {
        CellB::Only(clients) => {
            let (only, _) = run_foreground_only(
                code.clone(),
                cfg.clone(),
                FgSpec::ycsb(*clients, scale.requests_per_client),
            );
            only.p99_latency * 1e3
        }
        CellB::Repair(clients, algo) => {
            let fg = FgSpec::ycsb(*clients, scale.requests_per_client);
            RunSpec::new("", code.clone(), cfg.clone(), *algo, Some(fg))
                .execute()
                .p99_ms()
        }
    });

    let mut table_b = Table::new(
        "fig04b_p99",
        "(b) YCSB P99 latency vs clients",
        &[
            ("workload", "workload"),
            ("clients", "clients"),
            ("P99 (ms)", "p99_ms"),
            ("vs YCSB-only", "inflation"),
        ],
    );
    let mut only_p99 = 0.0f64;
    for (cell, p99) in cells_b.iter().zip(&p99s) {
        match cell {
            CellB::Only(clients) => {
                only_p99 = *p99;
                table_b.push(vec![
                    "YCSB-Only".into(),
                    clients.to_string(),
                    format!("{:.2}", p99),
                    "-".into(),
                ]);
            }
            CellB::Repair(clients, algo) => {
                table_b.push(vec![
                    algo.label(),
                    clients.to_string(),
                    format!("{p99:.2}"),
                    pct(improvement(*p99, only_p99)),
                ]);
            }
        }
    }
    report.tables.push(table_b);
    report
}
