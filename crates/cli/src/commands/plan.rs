//! The `plan` subcommand: show the tunable plan ChameleonEC builds for one
//! chunk, as an ASCII tree.

use chameleon_bench::flags::{Command, Flags};
use chameleon_cluster::{ChunkId, Cluster, ClusterConfig, PlacementStrategy, TopologySpec};
use chameleon_core::chameleon::{dispatch_chunk, establish_plan, PhaseState};
use chameleon_core::{RepairContext, RepairPlan};
use chameleon_simnet::faults::{splitmix64, unit};
use chameleon_simnet::NodeCaps;

use super::repair::{CODE, GBPS, SEED};
use crate::args::{cluster_error, parse_code, storage_nodes};

/// `plan`'s flags.
pub const COMMAND: Command = Command {
    name: "plan",
    about: "Show the repair plan ChameleonEC builds for one chunk",
    flags: &[CODE, GBPS, SEED],
};

/// Runs the subcommand.
pub fn run(flags: &Flags) -> Result<String, String> {
    let code = parse_code(flags.str("code"))?;
    let gbps = flags.positive("gbps")?;
    let seed: u64 = flags.num("seed")?;

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
    let base = gbps * 1e9 / 8.0;
    let mut state = seed;
    let mut residual = || base * (0.2 + 0.8 * unit(splitmix64(&mut state)));
    let mut phase = PhaseState::flat(
        (0..storage_nodes).map(|_| residual()).collect(),
        (0..storage_nodes).map(|_| residual()).collect(),
    );

    let chunk = ChunkId {
        stripe: 0,
        index: 0,
    };
    let assignment = dispatch_chunk(&ctx, &mut phase, chunk, &[]).map_err(|e| e.to_string())?;
    let plan = establish_plan(&ctx, &assignment).map_err(|e| e.to_string())?;

    let mut text = format!(
        "repair plan for {} chunk {chunk} (estimated {:.2} s):\n\n\
         destination: node {}\n",
        ctx.code.name(),
        assignment.estimated_secs,
        plan.destination()
    );
    render_inputs(&plan, None, 1, &mut text);
    text += &format!(
        "\n{} sources, depth {}, {:.0} MB of repair traffic\n",
        plan.participants().len(),
        plan.max_depth(),
        plan.traffic_bytes(ctx.chunk_size()) / 1e6
    );
    Ok(text)
}

/// Renders the subtrees uploading to `parent` (the destination when
/// `None`) of the in-tree rooted at the destination.
fn render_inputs(plan: &RepairPlan, parent: Option<usize>, depth: usize, text: &mut String) {
    for i in plan.inputs(parent) {
        let p = plan.participants()[i];
        *text += &format!(
            "{}└─ node {} (chunk {}, alpha = {})\n",
            "   ".repeat(depth),
            p.node,
            p.chunk_index,
            p.coeff
        );
        render_inputs(plan, Some(i), depth + 1, text);
    }
}
