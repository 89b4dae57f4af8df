//! Exp#10 (Fig. 21): degraded reads — a client requests one chunk on a
//! failed node; the chunk is repaired on the fly. Degraded-read
//! throughput = chunk size / restore latency, under YCSB foreground
//! traffic.
//!
//! Paper result: ChameleonEC improves degraded-read throughput by
//! 20.9–152.0%; the gain shrinks as k grows (with k = 10, half of a
//! 20-node testbed already participates, so there is less freedom left).

use chameleon_cluster::{ChunkId, Cluster};

use super::rs;
use crate::grid::{sweep, RunSpec};
use crate::runner::FgSpec;
use crate::table::{improvement, pct, value_of, Report, Table};
use crate::{AlgoKind, Scale};

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#10 (Fig. 21): degraded-read throughput (scale '{}')",
        scale.name()
    ));

    let requested = ChunkId {
        stripe: 0,
        index: 0,
    };
    // Degraded-read throughput = chunk size / restore latency.
    let codes = [(4usize, 2usize), (6, 3), (8, 3), (10, 4)];
    let rows = sweep(codes, &AlgoKind::HEADLINE, jobs, |&(k, m), algo| {
        let cfg = scale.cluster_config(k + m);
        // Fail the node that holds stripe 0 / chunk 0 and request exactly
        // that chunk.
        let probe = Cluster::new(cfg.clone()).expect("cluster");
        let victim = probe.placement().stripe_nodes(0)[0];
        let fg = FgSpec::ycsb(scale.clients, scale.requests_per_client / 4);
        let label = format!("RS({k},{m})/{}", algo.label());
        let out = RunSpec::new(label, rs(k, m), cfg.clone(), algo, Some(fg))
            .with_victims(vec![victim])
            .degraded_read(requested)
            .execute();
        let latency = out.outcome.duration.expect("finished");
        (cfg.chunk_size as f64 / latency) / 1e6
    });

    let mut table = Table::new(
        "exp10_degraded_read",
        "degraded-read throughput (chunk restored per second, MB/s)",
        &[
            ("code", "code"),
            ("algorithm", "algorithm"),
            ("DR MB/s", "dr_mbps"),
            ("ChameleonEC gain", "chameleon_gain"),
        ],
    );
    for &((k, m), algo, mbps) in &rows {
        let vs = if algo == AlgoKind::Chameleon {
            "-".into()
        } else {
            let cham = value_of(&rows, &(k, m), AlgoKind::Chameleon, |&v| v).unwrap_or(0.0);
            pct(improvement(cham, mbps))
        };
        table.push(vec![
            format!("RS({k},{m})"),
            algo.label(),
            format!("{mbps:.1}"),
            vs,
        ]);
    }
    report.tables.push(table);
    report.note("shape check: ChameleonEC's gain shrinks as k grows (paper: 59.1% at k=6 -> 35.7% at k=10).");
    report
}
