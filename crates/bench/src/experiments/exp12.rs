//! Exp#12 (Fig. 23): storage-bottlenecked scenarios — disk bandwidth
//! throttled to 250–500 MB/s against 1.25 GB/s links, comparing the
//! baselines, ChameleonEC, and the storage-aware ChameleonEC-IO variant.
//!
//! Paper result: ChameleonEC's edge shrinks as disks get slower (network
//! scheduling matters less), and ChameleonEC-IO — which dispatches on
//! residual *disk* bandwidth — beats plain ChameleonEC by ~35.7% under
//! stringent storage bandwidth.
//!
//! This harness additionally sweeps 125 MB/s (beyond the paper's range)
//! and injects network-invisible background disk load ("compactions") on
//! six nodes — the information asymmetry that motivates the IO variant.

use std::sync::Arc;

use chameleon_codes::ErasureCode;
use chameleon_core::run::stop_if;
use chameleon_simnet::{FlowSpec, Traffic};

use super::rs;
use crate::grid::run_grid;
use crate::runner::{stage, FgSpec, RunOutput};
use crate::table::{chameleon_gains, improvement, pct, value_of, Report, Table};
use crate::{AlgoKind, Scale};

/// Nodes with heavy background disk activity (compaction/scrubbing-style
/// I/O that is *invisible on the network*) — the situation where
/// disk-aware dispatch has information network-aware dispatch lacks.
const COMPACTING_NODES: [usize; 6] = [2, 5, 8, 11, 14, 17];

/// Runs a repair under YCSB foreground plus background disk load on the
/// compacting nodes; returns (repair MB/s, P99 ms).
fn run_one(
    code: Arc<dyn ErasureCode>,
    cfg: &chameleon_cluster::ClusterConfig,
    algo: AlgoKind,
    fg: FgSpec,
) -> (f64, f64) {
    let (mut run, lost) = stage(code, cfg.clone(), &[0], None, None, false).expect("cluster");
    // Long-running background disk readers+writers (compaction) that the
    // network monitor cannot see.
    for &node in &COMPACTING_NODES {
        run.sim
            .start_flow(FlowSpec::disk_read(node, 1 << 40, Traffic::Background));
        run.sim
            .start_flow(FlowSpec::disk_write(node, 1 << 40, Traffic::Background));
    }
    run.start_foreground(fg.workloads(), fg.requests_per_client);
    let mut driver = algo.driver(run.ctx.clone(), 7);
    driver.start(&mut run.sim, lost);
    // The immortal compaction flows never finish: stop once both sides have.
    run.run(&mut *driver, |run, driver, _, _| {
        stop_if(driver.is_done() && run.foreground.as_ref().is_some_and(|fg| fg.is_done()))
    })
    .expect("repair stuck");
    let out = RunOutput::collect(driver.outcome(&run.sim), run);
    (out.repair_mbps(), out.p99_ms())
}

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let code = rs(10, 4);

    let mut report = Report::default();
    report.note(format!(
        "Exp#12 (Fig. 23): storage-bottlenecked repair (scale '{}'); nodes {:?} run \
         background compactions (disk-only load, invisible to network monitoring)",
        scale.name(),
        COMPACTING_NODES
    ));

    let algos = [
        AlgoKind::Cr,
        AlgoKind::Ppr,
        AlgoKind::EcPipe,
        AlgoKind::Chameleon,
        AlgoKind::ChameleonIo,
    ];
    let mut cells = Vec::new();
    for disk_mbps in [125.0f64, 250.0, 375.0, 500.0] {
        for algo in algos {
            cells.push((disk_mbps, algo));
        }
    }
    let results = run_grid(&cells, jobs, |&(disk_mbps, algo)| {
        let cfg = scale.cluster_config_with_bandwidth(14, 1.25e9, disk_mbps * 1e6);
        run_one(
            code.clone(),
            &cfg,
            algo,
            FgSpec::ycsb(scale.clients, scale.requests_per_client),
        )
    });

    let mut table = Table::new(
        "exp12_storage_bottleneck",
        "repair throughput under throttled storage bandwidth",
        &[
            ("disk MB/s", "disk_mbps"),
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
        ],
    );
    let mut throughput = Vec::new();
    for (&(disk_mbps, algo), &(mbps, _p99)) in cells.iter().zip(&results) {
        table.push(vec![
            format!("{disk_mbps:.0}"),
            algo.label(),
            format!("{mbps:.1}"),
        ]);
        throughput.push((disk_mbps, algo, mbps));
    }
    report.tables.push(table);

    for g in chameleon_gains(&throughput) {
        let at = |algo| value_of(&throughput, &g.key, algo).unwrap_or(0.0);
        report.note(format!(
            "  disk {:.0} MB/s: ChameleonEC vs best baseline {}, ChameleonEC-IO vs ChameleonEC {}",
            g.key,
            pct(g.vs_best),
            pct(improvement(
                at(AlgoKind::ChameleonIo),
                at(AlgoKind::Chameleon)
            )),
        ));
    }
    report.note(
        "(paper: ChameleonEC's gain drops from 43.8% at 500 MB/s to 15.5% at 250 MB/s; \
         ChameleonEC-IO +35.7% over ChameleonEC when storage is stringent)",
    );
    report
}
