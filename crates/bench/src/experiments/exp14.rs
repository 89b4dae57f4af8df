//! Ablation study (beyond the paper): sensitivity of ChameleonEC to its
//! own design knobs.
//!
//! Three sweeps:
//! 1. concurrent chunk cap (the proxies' work-queue width),
//! 2. straggler-detection aggressiveness (progress ratio) under an
//!    injected straggler,
//! 3. multi-node repair ordering policy (§III-D's three options) under a
//!    double failure.

use chameleon_core::chameleon::{ChameleonConfig, ChameleonDriver, MultiNodePolicy};
use chameleon_core::RepairDriver;
use chameleon_simnet::{FlowSpec, Traffic};

use super::exp11::straggled;
use super::rs;
use crate::grid::{run_grid, DriverSpec, RunSpec};
use crate::runner::FgSpec;
use crate::table::{Report, Table};
use crate::Scale;

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let code = rs(10, 4);

    let mut report = Report::default();
    report.note(format!(
        "Ablation (beyond the paper): ChameleonEC design-knob sensitivity (scale '{}')",
        scale.name()
    ));

    // --- 1. Concurrency cap. ------------------------------------------------
    let cfg = scale.cluster_config(14);
    let caps = [1usize, 2, 4, 8, 16];
    let specs: Vec<RunSpec> = caps
        .iter()
        .map(|&cap| {
            let config = ChameleonConfig {
                max_concurrent_chunks: cap,
                ..ChameleonConfig::default()
            };
            RunSpec::new(
                format!("cap={cap}"),
                code.clone(),
                cfg.clone(),
                DriverSpec::Chameleon(config),
                Some(FgSpec::ycsb(scale.clients, scale.requests_per_client)),
            )
        })
        .collect();
    let outs = run_grid(&specs, jobs, RunSpec::execute);
    let mut table = Table::new(
        "exp14a_concurrency",
        "(1) concurrent-chunk cap vs repair throughput / P99",
        &[
            ("cap", "cap"),
            ("repair MB/s", "repair_mbps"),
            ("P99 (ms)", "p99_ms"),
        ],
    );
    for (cap, out) in caps.iter().zip(&outs) {
        table.push(vec![
            cap.to_string(),
            format!("{:.1}", out.repair_mbps()),
            format!("{:.2}", out.p99_ms()),
        ]);
    }
    report.tables.push(table);

    // --- 2. Straggler-detection aggressiveness. ----------------------------
    let stressed = scale.stressed();
    let cfg2 = stressed.cluster_config_with_bandwidth(14, 1.25e8, 500e6);
    let ratios = [0.0, 0.25, 0.5, 0.75, 0.95];
    // At t = 1 s node 1 starts sending to eight peers and straggles.
    let hogs: Vec<FlowSpec> = (2..10)
        .map(|peer| FlowSpec::network(1, peer, 1 << 30, Traffic::Background))
        .collect();
    let results = run_grid(&ratios, jobs, |&ratio| {
        let config = ChameleonConfig {
            straggler_progress_ratio: ratio,
            ..ChameleonConfig::default()
        };
        let driver = |ctx| Box::new(ChameleonDriver::new(ctx, config));
        let (run, driver) = straggled(cfg2.clone(), driver, 1.0, &hogs);
        let stats = driver.stats();
        let mbps = driver.outcome(&run.sim).throughput() / 1e6;
        (mbps, stats.retunes, stats.reorders)
    });
    let mut table = Table::new(
        "exp14b_straggler_ratio",
        "(2) straggler progress-ratio vs throughput under a straggler",
        &[
            ("ratio", "ratio"),
            ("repair MB/s", "repair_mbps"),
            ("re-tunes", "retunes"),
            ("re-orders", "reorders"),
        ],
    );
    for (ratio, (mbps, retunes, reorders)) in ratios.iter().zip(&results) {
        table.push(vec![
            format!("{ratio:.2}"),
            format!("{mbps:.1}"),
            retunes.to_string(),
            reorders.to_string(),
        ]);
    }
    report.tables.push(table);

    // --- 3. Multi-node repair policy. ---------------------------------------
    let cfg3 = scale.cluster_config(14);
    let policies = [
        (MultiNodePolicy::Sequential, "sequential"),
        (MultiNodePolicy::MostFailedFirst, "most-failed-first"),
        (MultiNodePolicy::FastestFirst, "fastest-first"),
    ];
    let specs: Vec<RunSpec> = policies
        .iter()
        .map(|&(policy, label)| {
            let config = ChameleonConfig {
                multi_node_policy: policy,
                ..ChameleonConfig::default()
            };
            RunSpec::new(
                label,
                code.clone(),
                cfg3.clone(),
                DriverSpec::Chameleon(config),
                Some(FgSpec::ycsb(scale.clients, scale.requests_per_client)),
            )
            .with_victims(vec![0, 1])
        })
        .collect();
    let outs = run_grid(&specs, jobs, RunSpec::execute);
    let mut table = Table::new(
        "exp14c_multinode_policy",
        "(3) multi-node ordering policy (2 failed nodes)",
        &[
            ("policy", "policy"),
            ("repair MB/s", "repair_mbps"),
            ("mean chunk (s)", "mean_chunk_secs"),
        ],
    );
    for ((_, label), out) in policies.iter().zip(&outs) {
        table.push(vec![
            label.to_string(),
            format!("{:.1}", out.repair_mbps()),
            format!("{:.3}", out.outcome.mean_chunk_secs()),
        ]);
    }
    report.tables.push(table);
    report
}
