//! The `plan` subcommand: show the tunable plan ChameleonEC builds for one
//! chunk, as an ASCII tree.

use chameleon_cluster::{ChunkId, Cluster, ClusterConfig, PlacementStrategy, TopologySpec};
use chameleon_core::chameleon::{dispatch_chunk, establish_plan, PhaseState};
use chameleon_core::{RepairContext, RepairPlan};
use chameleon_simnet::NodeCaps;

use crate::args::{cluster_error, parse_code, storage_nodes, Flags};

/// Runs the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.ensure_known(&["code", "gbps", "seed"])?;
    let code = parse_code(&flags.str_or("code", "rs:10,4"))?;
    let gbps = flags.positive_or("gbps", 10.0)?;
    let seed: u64 = flags.num_or("seed", 7)?;

    let storage_nodes = storage_nodes(code.n());
    let cfg = ClusterConfig {
        storage_nodes,
        clients: 0,
        node_caps: NodeCaps::symmetric(gbps * 1e9 / 8.0, 500e6),
        chunk_size: 64 << 20,
        slice_size: 1 << 20,
        stripe_width: code.n(),
        stripes: 4,
        placement: PlacementStrategy::Random(seed),
        monitor_window_secs: 15.0,
        topology: TopologySpec::Flat,
    };
    let cluster = Cluster::new(cfg).map_err(cluster_error)?;
    let ctx = RepairContext::new(cluster, code);

    // A pseudo-random residual-bandwidth profile (as if measured under
    // foreground load) so the plan shows some shape.
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let base = gbps * 1e9 / 8.0;
    let mut phase = PhaseState::flat(
        (0..storage_nodes)
            .map(|_| base * (0.2 + 0.8 * next()))
            .collect(),
        (0..storage_nodes)
            .map(|_| base * (0.2 + 0.8 * next()))
            .collect(),
    );

    let chunk = ChunkId {
        stripe: 0,
        index: 0,
    };
    let assignment = dispatch_chunk(&ctx, &mut phase, chunk, &[]).map_err(|e| e.to_string())?;
    let plan = establish_plan(&ctx, &assignment).map_err(|e| e.to_string())?;

    println!(
        "repair plan for {} chunk {chunk} (estimated {:.2} s):\n",
        ctx.code.name(),
        assignment.estimated_secs
    );
    print_tree(&plan);
    println!(
        "\n{} sources, depth {}, {:.0} MB of repair traffic",
        plan.participants().len(),
        plan.max_depth(),
        plan.traffic_bytes(ctx.chunk_size()) / 1e6
    );
    Ok(())
}

/// Prints the in-tree rooted at the destination.
fn print_tree(plan: &RepairPlan) {
    println!("destination: node {}", plan.destination());
    print_inputs(plan, None, 1);
}

/// Prints the subtrees uploading to `parent` (the destination when `None`).
fn print_inputs(plan: &RepairPlan, parent: Option<usize>, depth: usize) {
    for i in plan.inputs(parent) {
        let p = plan.participants()[i];
        println!(
            "{}└─ node {} (chunk {}, alpha = {})",
            "   ".repeat(depth),
            p.node,
            p.chunk_index,
            p.coeff
        );
        print_inputs(plan, Some(i), depth + 1);
    }
}
