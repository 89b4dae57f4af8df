//! Exp#18: repair under hierarchical rack/spine fabrics — repair
//! throughput, foreground interference, and cross-rack traffic vs
//! oversubscription ratio.
//!
//! The Facebook warehouse-cluster analysis the paper builds on measures
//! over 85% of repair traffic crossing the oversubscribed aggregation
//! layer;
//! this experiment makes that bottleneck visible in the simulation. The
//! 20-node testbed cluster is swept over fabric shapes: flat (the rackless
//! engine every other experiment uses), then 3 racks behind a spine at
//! 1:1, 1:2, 1:4, and 1:8 oversubscription. Each cell runs a single-node
//! repair under the standard YCSB-A foreground for the four headline
//! algorithms (CR, PPR, ECPipe, ChameleonEC).
//!
//! The flat row uses *exactly* the spec of Exp#8's one-failure row
//! (RS(10,4), `scale.cluster_config(14)`, seed 7, victim 0), so its
//! repair/latency numbers reproduce `exp08_multinode.csv` bit-identically
//! — the rackless engine is the differential oracle for the topology
//! compilation. Cross-rack bytes are read from the monitor's per-link
//! accounting (the sum over ToR uplinks counts every inter-rack byte
//! exactly once).
//!
//! Determinism: the table contains only simulation results; byte-identical
//! at any `--jobs` count.

use chameleon_cluster::TopologySpec;
use chameleon_simnet::Traffic;

use super::rs;
use crate::grid::{sweep, RunSpec};
use crate::runner::{FgSpec, RunOutput};
use crate::table::{value_of, Report, Table};
use crate::{AlgoKind, Scale};

/// The swept fabrics: the rackless oracle, then 3 racks at increasing
/// spine oversubscription. Ratio 1.0 compiles to edge-non-blocking ToRs
/// with no spine resource, so it must match the flat row too.
const FABRICS: [(&str, TopologySpec); 5] = [
    ("flat", TopologySpec::Flat),
    (
        "1:1",
        TopologySpec::Racked {
            racks: 3,
            oversub: 1.0,
        },
    ),
    (
        "1:2",
        TopologySpec::Racked {
            racks: 3,
            oversub: 2.0,
        },
    ),
    (
        "1:4",
        TopologySpec::Racked {
            racks: 3,
            oversub: 4.0,
        },
    ),
    (
        "1:8",
        TopologySpec::Racked {
            racks: 3,
            oversub: 8.0,
        },
    ),
];

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#18: rack/spine fabrics — repair vs oversubscription ratio (scale '{}')",
        scale.name()
    ));

    let code = rs(10, 4);
    let rows = sweep(FABRICS, &AlgoKind::HEADLINE, jobs, |&(name, topo), algo| {
        let mut cfg = scale.cluster_config(14);
        cfg.topology = topo;
        let fg = FgSpec::ycsb(scale.clients, scale.requests_per_client);
        let label = format!("{name}/{}", algo.label());
        let out = RunSpec::new(label, code.clone(), cfg.clone(), algo, Some(fg)).execute();
        // Flat clusters compile to no link resources: no cross-rack bytes.
        let fabric = topo.compile(cfg.total_nodes(), cfg.node_caps);
        let m = out.sim.monitor();
        let cross = |tag| fabric.as_ref().map_or(0.0, |t| t.cross_rack_bytes(m, tag));
        (cross(Traffic::Repair), cross(Traffic::Foreground), out)
    });

    let mut table = Table::new(
        "exp18_topology",
        "repair and cross-rack traffic vs fabric oversubscription",
        &[
            ("fabric", "fabric"),
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
            ("chunks", "chunks"),
            ("P99 ms", "p99_ms"),
            ("x-rack repair MB", "cross_rack_repair_mb"),
            ("x-rack fg MB", "cross_rack_fg_mb"),
            ("chunk p50 (s)", "chunk_p50_s"),
            ("chunk p99 (s)", "chunk_p99_s"),
        ],
    );
    for ((fabric, _), algo, (repair_x, fg_x, out)) in &rows {
        table.push(vec![
            fabric.to_string(),
            algo.label(),
            format!("{:.1}", out.repair_mbps()),
            out.outcome.chunks_repaired.to_string(),
            format!("{:.2}", out.p99_ms()),
            format!("{:.1}", repair_x / 1e6),
            format!("{:.1}", fg_x / 1e6),
            format!("{:.3}", out.chunk_pct_secs(0.50)),
            format!("{:.3}", out.chunk_pct_secs(0.99)),
        ]);
    }
    report.tables.push(table);

    // The headline readout: how much each algorithm slows down when the
    // spine is 1:8 oversubscribed (the last fabric) vs flat (the first).
    let [flat_fabric, .., tight_fabric] = &FABRICS;
    let mbps = |(_, _, out): &(f64, f64, RunOutput)| out.repair_mbps();
    for algo in AlgoKind::HEADLINE {
        let flat = value_of(&rows, flat_fabric, algo, mbps).unwrap_or(0.0);
        let tight = value_of(&rows, tight_fabric, algo, mbps).unwrap_or(0.0);
        report.note(format!(
            "  {}: {flat:.1} MB/s flat -> {tight:.1} MB/s at 1:8 ({:+.1}%)",
            algo.label(),
            (tight / flat - 1.0) * 100.0
        ));
    }
    report.note("(no paper figure: the testbed fabric is flat; ratios follow the FB analysis)");
    report
}
