//! Exp#16: cluster-size scalability — full-node repair at 20 → 1000 nodes.
//!
//! Sweeps the storage-node count while holding per-node chunk loss
//! constant ([`Scale::cluster_config_with_nodes`]): a bigger cluster means
//! a bigger contention graph for the simulator's max–min solver, not a
//! longer repair campaign. Each cell runs a full-node repair under the
//! standard YCSB-A foreground and reports repair throughput, foreground
//! P99, and the engine's solver counters — the incremental-solve share is
//! the number that makes 500+ node repairs finish in seconds of wall
//! clock instead of minutes.
//!
//! There is no paper figure for this: the testbed tops out at 20 nodes.
//! The sweep exists to show the simulation substrate (and therefore every
//! other experiment here) scales to production-sized clusters.
//!
//! Determinism: the table contains only simulation results and engine
//! event counters, which are identical at any `--jobs` count. Wall-clock
//! timings go into a note, never into the table.

use super::rs;
use crate::grid::{run_specs, RunSpec};
use crate::runner::FgSpec;
use crate::table::{Report, Table};
use crate::{AlgoKind, Scale};

/// One baseline and ChameleonEC — enough to show the throughput ordering
/// survives scale without quadrupling the heaviest grid in the suite.
const ALGOS: [AlgoKind; 2] = [AlgoKind::Ppr, AlgoKind::Chameleon];

/// Storage-node counts swept at every scale. Cost scales with the chunk
/// count, not the node count (per-node chunk loss is held constant), so
/// even the 1000-node point stays CI-affordable at `small` scale.
const NODE_COUNTS: [usize; 4] = [20, 100, 500, 1000];

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#16: cluster-size scalability, full-node repair under YCSB-A (scale '{}')",
        scale.name()
    ));

    let code = rs(4, 2);
    let fg = FgSpec::ycsb(scale.clients, scale.requests_per_client);
    let mut cells = Vec::new();
    let mut specs = Vec::new();
    for &nodes in &NODE_COUNTS {
        let cfg = scale.cluster_config_with_nodes(6, nodes);
        for &algo in &ALGOS {
            cells.push((nodes, algo));
            specs.push(RunSpec::new(
                format!("{nodes}n/{}", algo.label()),
                code.clone(),
                cfg.clone(),
                algo,
                Some(fg.clone()),
            ));
        }
    }
    let wall = std::time::Instant::now();
    let outs = run_specs(&specs, jobs);
    let wall = wall.elapsed().as_secs_f64();

    let mut table = Table::new(
        "exp16_scalability",
        "full-node repair vs cluster size",
        &[
            ("nodes", "nodes"),
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
            ("chunks", "chunks"),
            ("P99 ms", "p99_ms"),
            ("events", "events"),
            ("solves", "solves"),
            ("incr share", "incremental_share"),
            ("chunk p50 (s)", "chunk_p50_s"),
            ("chunk p99 (s)", "chunk_p99_s"),
        ],
    );
    for ((nodes, algo), out) in cells.iter().zip(&outs) {
        let p = out.sim.profile();
        let incr_share = if p.solves > 0 {
            p.incremental_solves as f64 / p.solves as f64
        } else {
            0.0
        };
        table.push(vec![
            nodes.to_string(),
            algo.label(),
            format!("{:.1}", out.repair_mbps()),
            out.outcome.chunks_repaired.to_string(),
            format!("{:.2}", out.p99_ms()),
            p.events.to_string(),
            p.solves.to_string(),
            format!("{:.3}", incr_share),
            format!("{:.3}", out.chunk_pct_secs(0.50)),
            format!("{:.3}", out.chunk_pct_secs(0.99)),
        ]);
    }
    report.tables.push(table);

    // Wall-clock is machine-dependent: a note, never a table cell.
    let events: u64 = outs.iter().map(|o| o.sim.profile().events).sum();
    report.note(format!(
        "wall clock: {wall:.1}s for {} runs ({} engine events, {:.0} events/sec aggregate)",
        outs.len(),
        events,
        events as f64 / wall.max(1e-9)
    ));
    report.note("(no paper figure: the testbed tops out at 20 nodes)");
    report
}
