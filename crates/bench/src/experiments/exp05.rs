//! Exp#5 (Fig. 16): the coordinator's computation time — dispatching
//! repair tasks (§III-A) and establishing tunable plans (§III-B) — versus
//! the number of storage nodes and the number of chunks repaired in a
//! phase. Pure wall-clock measurement, no simulation.
//!
//! Paper result: computation grows with both dimensions but stays tiny —
//! ~0.55 s to plan 1,000 chunks in a 500-node system.

use std::time::Instant;

use chameleon_cluster::{Cluster, ClusterConfig, PlacementStrategy};
use chameleon_core::chameleon::{dispatch_chunk, establish_plan, PhaseState};
use chameleon_core::RepairContext;

use super::rs;
use crate::grid::run_grid;
use crate::table::{Report, Table};
use crate::Scale;

fn plan_time_secs(nodes: usize, chunks: usize) -> f64 {
    let code = rs(10, 4);
    let width = code.n();
    let cfg = ClusterConfig {
        storage_nodes: nodes,
        clients: 0,
        node_caps: Default::default(),
        chunk_size: 64 << 20,
        slice_size: 1 << 20,
        stripe_width: width,
        stripes: chunks, // one failed chunk per stripe
        placement: PlacementStrategy::Random(1),
        monitor_window_secs: 15.0,
        topology: chameleon_cluster::TopologySpec::Flat,
    };
    // Plan the repair of chunk 0 of every stripe (the failed chunk's node
    // is excluded as a source by repair_requirement; no explicit failure
    // state is needed to measure planning cost).
    let cluster = Cluster::new(cfg).expect("cluster");
    let ctx = RepairContext::new(cluster, code);

    // A synthetic residual-bandwidth profile (varied, as after monitoring).
    let mut phase = PhaseState::flat(
        (0..nodes).map(|i| 4e8 + (i % 17) as f64 * 5e7).collect(),
        (0..nodes).map(|i| 4e8 + (i % 13) as f64 * 5e7).collect(),
    );

    let start = Instant::now();
    for stripe in 0..chunks {
        let chunk = chameleon_cluster::ChunkId { stripe, index: 0 };
        let assignment = dispatch_chunk(&ctx, &mut phase, chunk, &[]).expect("dispatchable");
        let plan = establish_plan(&ctx, &assignment).expect("plannable");
        std::hint::black_box(plan);
    }
    start.elapsed().as_secs_f64()
}

/// Runs the experiment across `jobs` workers (the scale is ignored — the
/// grid of node/chunk counts is fixed).
///
/// This is the one experiment whose *numbers* are wall-clock timings, so
/// parallel workers measuring simultaneously contend for cores and report
/// higher per-cell times than `--jobs 1`; the shape (growth with both
/// dimensions) is unaffected. The `plan_compute_secs` column is also the
/// observable for the Algorithm 1 pairing-loop optimization.
pub fn run(_scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note("Exp#5 (Fig. 16): coordinator computation time (wall clock)");
    let mut cells = Vec::new();
    for nodes in [50usize, 100, 200, 300, 400, 500] {
        for chunks in [200usize, 400, 600, 800, 1000] {
            cells.push((nodes, chunks));
        }
    }
    let times = run_grid(&cells, jobs, |&(nodes, chunks)| {
        plan_time_secs(nodes, chunks)
    });
    // Wall-clock rows are attributed to the GF kernel in use so breakdown
    // numbers from different machines/overrides can be told apart.
    let kernel = chameleon_gf::active_kernel();
    let mut table = Table::new(
        "exp05_computation",
        "plan-generation time vs nodes and chunks",
        &[
            ("nodes", "nodes"),
            ("chunks", "chunks"),
            ("time (s)", "plan_compute_secs"),
            ("gf kernel", "gf_kernel"),
        ],
    );
    for (&(nodes, chunks), secs) in cells.iter().zip(&times) {
        table.push(vec![
            nodes.to_string(),
            chunks.to_string(),
            format!("{:.4}", secs),
            kernel.to_string(),
        ]);
    }
    report.tables.push(table);
    report.note(
        "shape check: grows with both dimensions; the paper reports 0.55 s for \
         1,000 chunks at 500 nodes.",
    );
    report
}
