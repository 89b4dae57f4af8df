//! Exp#3 (Fig. 14): impact of the repair phase length `T_phase` on
//! ChameleonEC's repair throughput, under YCSB-A foreground traffic.
//!
//! Paper result: throughput gradually declines as `T_phase` grows (a
//! smaller phase reacts faster to bandwidth changes); at 20 s the
//! throughput is only 5.4% below the 10 s setting, so 20 s balances
//! management overhead and performance.

use chameleon_core::chameleon::ChameleonConfig;

use super::rs;
use crate::grid::{run_grid, DriverSpec, RunSpec};
use crate::runner::FgSpec;
use crate::table::{Report, Table};
use crate::Scale;

const T_PHASES: [f64; 4] = [10.0, 20.0, 30.0, 40.0];

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    // The phase length only matters when the repair spans several phases:
    // run on 1 Gb/s links with enough chunks for a multi-phase repair.
    let scale = scale.stressed();
    let code = rs(10, 4);
    let cfg = scale.cluster_config_with_bandwidth(14, 1.25e8, 500e6);

    let mut report = Report::default();
    report.note(format!(
        "Exp#3 (Fig. 14): repair throughput vs T_phase (scale '{}')",
        scale.name()
    ));

    let specs: Vec<RunSpec> = T_PHASES
        .iter()
        .map(|&t_phase| {
            RunSpec::new(
                format!("T_phase={t_phase:.0}s"),
                code.clone(),
                cfg.clone(),
                DriverSpec::Chameleon(ChameleonConfig {
                    t_phase_secs: t_phase,
                    ..ChameleonConfig::default()
                }),
                Some(FgSpec::ycsb(scale.clients, scale.requests_per_client)),
            )
        })
        .collect();
    let outs = run_grid(&specs, jobs, RunSpec::execute);

    let mut table = Table::new(
        "exp03_tphase",
        "ChameleonEC repair throughput vs phase length",
        &[
            ("T_phase (s)", "t_phase_secs"),
            ("repair MB/s", "repair_mbps"),
            ("vs 10 s", "vs_10s"),
        ],
    );
    let mut tp10 = 0.0;
    for (&t_phase, out) in T_PHASES.iter().zip(&outs) {
        let mbps = out.repair_mbps();
        if t_phase == 10.0 {
            tp10 = mbps;
        }
        table.push(vec![
            format!("{t_phase:.0}"),
            format!("{mbps:.1}"),
            format!("{:+.1}%", (mbps / tp10 - 1.0) * 100.0),
        ]);
    }
    report.tables.push(table);
    report.note(
        "note: the paper reports a mild decline as T_phase grows (-5.4% at 20 s), driven by \
         stale bandwidth estimates under fluctuating foreground traffic. In this fluid \
         substrate the foreground is steadier, so the admission-throttling effect of a small \
         phase budget dominates instead and the curve is flat-to-rising; see EXPERIMENTS.md.",
    );
    report
}
