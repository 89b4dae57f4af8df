//! Tunable repair plan establishment (§III-B, Algorithm 1): pair the
//! dispatched upload and download tasks into transmission paths.

use std::collections::VecDeque;

use crate::chameleon::dispatch::TaskAssignment;
use crate::context::RepairContext;
use crate::plan::{assemble, RepairPlan};
use crate::select::SelectError;

/// Builds the repair plan for a task assignment by pairing upload tasks
/// with download tasks (Algorithm 1 in the paper):
///
/// 1. Start with `E` = sources whose upload is unpaired and whose download
///    tasks are all paired (initially the pure uploaders).
/// 2. Repeatedly connect a node popped from `E` to the source with the
///    fewest unpaired download tasks; once a source's downloads are all
///    paired, its own upload enters `E`.
/// 3. Finally pair the remaining uploads with the destination's downloads.
///
/// The result is an in-tree rooted at the destination whose shape exactly
/// matches the dispatched task counts — the "tunability" of ChameleonEC.
///
/// Each pairing step is O(1) amortized (a running total of unpaired
/// downloads plus a cached minimum source); the min re-scan runs once per
/// drained source, so the loop is O(k²) worst case with no per-iteration
/// re-summing (measured by Exp#5's `plan_compute_secs`).
///
/// # Errors
///
/// [`SelectError::Unrepairable`] if decoding coefficients do not exist for
/// the selected sources.
pub fn establish_plan(
    ctx: &RepairContext,
    assignment: &TaskAssignment,
) -> Result<RepairPlan, SelectError> {
    let selection = &assignment.selection;
    let n = selection.sources.len();
    // Remaining unpaired download tasks per source (integer counts: every
    // whole-chunk transfer pairs one upload with one download).
    let mut downloads: Vec<usize> = assignment
        .downloads
        .iter()
        .map(|d| d.round() as usize)
        .collect();
    // The source each source uploads to; `None` (the destination) for the
    // uploads left unpaired at the end.
    let mut parents: Vec<Option<usize>> = vec![None; n];

    if selection.relayable {
        // E: sources with an unpaired upload and no unpaired downloads.
        let mut ready: VecDeque<usize> = (0..n).filter(|&i| downloads[i] == 0).collect();

        // Total unpaired downloads, maintained incrementally. The
        // min-downloads source is cached: once selected, decrementing it
        // keeps it strictly below every other source's count, so it stays
        // the minimum until fully drained and only then is re-scanned.
        let mut remaining: usize = downloads.iter().sum();
        let mut current: Option<usize> = None;
        while remaining > 0 {
            // The source with the fewest unpaired downloads (> 0).
            let y = match current {
                Some(y) => y,
                None => {
                    let y = (0..n)
                        .filter(|&i| downloads[i] > 0)
                        .min_by_key(|&i| (downloads[i], selection.sources[i].node))
                        .expect("some downloads remain");
                    current = Some(y);
                    y
                }
            };
            let Some(x) = ready.pop_front() else {
                // Defensive fallback (unreachable by the counting argument
                // in the paper): push the download to the destination.
                debug_assert!(false, "Algorithm 1 ran out of ready uploaders");
                downloads[y] -= 1;
                remaining -= 1;
                if downloads[y] == 0 {
                    current = None;
                }
                continue;
            };
            parents[x] = Some(y);
            downloads[y] -= 1;
            remaining -= 1;
            if downloads[y] == 0 {
                ready.push_back(y);
                current = None;
            }
        }
    }

    assemble(ctx, assignment.chunk, selection, &parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chameleon::dispatch::{dispatch_chunk, PhaseState};
    use crate::select::{Selection, SourcePick};
    use chameleon_cluster::{ChunkId, Cluster, ClusterConfig};
    use chameleon_codes::ReedSolomon;
    use std::sync::Arc;

    fn ctx() -> RepairContext {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()))
    }

    /// Hand-built assignment mirroring the paper's Figures 8–9: sources
    /// with download counts {0, 2, 1, 0} and one destination download.
    fn paper_example(ctx: &RepairContext) -> TaskAssignment {
        // Use stripe 0's real layout for valid indices/nodes.
        let chunk = ChunkId {
            stripe: 0,
            index: 4, // a parity chunk; any is fine
        };
        let placement = ctx.cluster.placement();
        let stripe_nodes = placement.stripe_nodes(0);
        let destination = (0..ctx.cluster.storage_nodes())
            .find(|n| !stripe_nodes.contains(n))
            .unwrap();
        let sources = (0..4)
            .map(|i| SourcePick {
                chunk_index: i,
                node: placement.node_of(ChunkId {
                    stripe: 0,
                    index: i,
                }),
                fraction: 1.0,
            })
            .collect();
        TaskAssignment {
            chunk,
            selection: Selection {
                destination,
                sources,
                relayable: true,
            },
            downloads: vec![0.0, 2.0, 1.0, 0.0],
            estimated_secs: 1.0,
        }
    }

    #[test]
    fn paper_example_pairs_like_figure_9() {
        let ctx = ctx();
        let a = paper_example(&ctx);
        assert_eq!(a.dest_downloads(), 1.0);
        let plan = establish_plan(&ctx, &a).unwrap();
        assert!(plan.validate().is_ok());
        // The node with 1 download (source 2) is served first by a pure
        // uploader; the node with 2 downloads (source 1) receives the other
        // pure uploader and then source 2; source 1 feeds the destination.
        let by_node = |i: usize| {
            plan.participants()
                .iter()
                .find(|p| p.chunk_index == i)
                .copied()
                .unwrap()
        };
        let n1 = a.selection.sources[1].node;
        let n2 = a.selection.sources[2].node;
        assert_eq!(by_node(0).send_to, n2); // first pure uploader → fewest-downloads node
        assert_eq!(by_node(2).send_to, n1); // once fed, node 2 relays into node 1
        assert_eq!(by_node(3).send_to, n1); // second pure uploader → node 1
        assert_eq!(by_node(1).send_to, plan.destination());
        // Fan-in matches the dispatched download counts.
        assert_eq!(plan.inputs_of(n1).len(), 2);
        assert_eq!(plan.inputs_of(n2).len(), 1);
        assert_eq!(plan.inputs_of(plan.destination()).len(), 1);
    }

    #[test]
    fn all_downloads_at_destination_yields_a_star() {
        let ctx = ctx();
        let mut a = paper_example(&ctx);
        a.downloads = vec![0.0; 4];
        assert_eq!(a.dest_downloads(), 4.0);
        let plan = establish_plan(&ctx, &a).unwrap();
        assert_eq!(plan.max_depth(), 1);
        assert_eq!(plan.inputs_of(plan.destination()).len(), 4);
    }

    #[test]
    fn chain_like_assignment_yields_a_chain() {
        let ctx = ctx();
        let mut a = paper_example(&ctx);
        a.downloads = vec![0.0, 1.0, 1.0, 1.0];
        let plan = establish_plan(&ctx, &a).unwrap();
        assert_eq!(plan.max_depth(), 4);
    }

    #[test]
    fn dispatched_assignments_always_establish_valid_plans() {
        let ctx = ctx();
        let n = ctx.cluster.storage_nodes();
        for stripe in 0..ctx.cluster.placement().stripes() {
            let mut phase = PhaseState::flat(
                // Vary bandwidth to exercise different task distributions.
                (0..n).map(|i| 10.0 + (i * 13 % 97) as f64).collect(),
                (0..n).map(|i| 10.0 + (i * 29 % 83) as f64).collect(),
            );
            for index in 0..2 {
                let chunk = ChunkId { stripe, index };
                let a = dispatch_chunk(&ctx, &mut phase, chunk, &[]).unwrap();
                let plan = establish_plan(&ctx, &a).unwrap();
                assert!(plan.validate().is_ok(), "stripe {stripe} index {index}");
                assert_eq!(plan.participants().len(), 4);
                // Fan-in at each relay equals its dispatched downloads.
                for (s, d) in a.selection.sources.iter().zip(&a.downloads) {
                    assert_eq!(
                        plan.inputs_of(s.node).len(),
                        d.round() as usize,
                        "stripe {stripe} node {}",
                        s.node
                    );
                }
                assert_eq!(
                    plan.inputs_of(plan.destination()).len(),
                    a.dest_downloads().round() as usize
                );
            }
        }
    }
}
