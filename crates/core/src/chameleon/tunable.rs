//! Tunable repair plan establishment (§III-B, Algorithm 1): pair the
//! dispatched upload and download tasks into transmission paths.

use std::collections::VecDeque;

use chameleon_simnet::NodeId;

use crate::chameleon::dispatch::TaskAssignment;
use crate::context::RepairContext;
use crate::plan::{assemble, RepairPlan};
use crate::select::SelectError;

/// Pairs upload tasks with download tasks (Algorithm 1 in the paper).
/// Source `i` (on `nodes[i]`) holds `fan_in[i]` download tasks; the
/// destination holds the rest. Returns, for each source, the source it
/// uploads to, or `None` for the destination:
///
/// 1. Start with `E` = sources whose upload is unpaired and whose download
///    tasks are all paired (initially the pure uploaders).
/// 2. Repeatedly connect a node popped from `E` to the source with the
///    fewest unpaired download tasks; once a source's downloads are all
///    paired, its own upload enters `E`.
/// 3. Finally pair the remaining uploads with the destination's downloads.
///
/// The result is an in-tree rooted at the destination whose fan-ins
/// exactly match the dispatched task counts — the "tunability" of
/// ChameleonEC.
///
/// Each pairing step is O(1) amortized (a running total of unpaired
/// downloads plus a cached minimum source); the min re-scan runs once per
/// drained source, so the loop is O(k²) worst case with no per-iteration
/// re-summing (measured by Exp#5's `plan_compute_secs`).
///
/// # Panics
///
/// Panics if `Σ fan_in > nodes.len() − 1`: the destination must keep at
/// least one download.
pub(crate) fn pair_tasks(mut fan_in: Vec<usize>, nodes: &[NodeId]) -> Vec<Option<usize>> {
    let n = fan_in.len();
    let mut parents = vec![None; n];
    // E: sources with an unpaired upload and no unpaired downloads.
    let mut ready: VecDeque<usize> = (0..n).filter(|&i| fan_in[i] == 0).collect();

    // Total unpaired downloads, maintained incrementally. The
    // min-downloads source is cached: once selected, decrementing it keeps
    // it strictly below every other source's count, so it stays the
    // minimum until fully drained and only then is re-scanned.
    let mut remaining: usize = fan_in.iter().sum();
    let mut current: Option<usize> = None;
    while remaining > 0 {
        // The source with the fewest unpaired downloads (> 0).
        let y = *current.get_or_insert_with(|| {
            (0..n)
                .filter(|&i| fan_in[i] > 0)
                .min_by_key(|&i| (fan_in[i], nodes[i]))
                .expect("some downloads remain")
        });
        // Only drained sources are paired, so every source with unpaired
        // downloads still has an unpaired upload, and there are at most
        // `remaining` such sources: |E| ≥ (n − paired) − remaining
        // = n − Σ fan-in ≥ 1.
        let x = ready
            .pop_front()
            .expect("Σ fan-in ≤ n − 1 keeps E non-empty while downloads remain");
        parents[x] = Some(y);
        fan_in[y] -= 1;
        remaining -= 1;
        if fan_in[y] == 0 {
            ready.push_back(y);
            current = None;
        }
    }
    parents
}

/// The repair plan of a dispatched chunk: `plan::assemble` over its parent
/// vector.
///
/// # Errors
///
/// [`SelectError::Unrepairable`] if decoding coefficients do not exist for
/// the selected sources.
pub fn establish_plan(
    ctx: &RepairContext,
    assignment: &TaskAssignment,
) -> Result<RepairPlan, SelectError> {
    assemble(
        ctx,
        assignment.chunk,
        &assignment.selection,
        &assignment.parents,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chameleon::dispatch::{dispatch_chunk, PhaseState};
    use chameleon_cluster::{ChunkId, Cluster, ClusterConfig};
    use chameleon_codes::ReedSolomon;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn ctx() -> RepairContext {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()))
    }

    /// The fan-in of each source under `parents`.
    fn fan_in(parents: &[Option<usize>]) -> Vec<usize> {
        let mut fan_in = vec![0; parents.len()];
        for p in parents.iter().flatten() {
            fan_in[*p] += 1;
        }
        fan_in
    }

    /// The paper's Figures 8–9: sources with download counts {0, 2, 1, 0}
    /// and one destination download. The source with 1 download (2) is
    /// served first by a pure uploader (0); the source with 2 downloads (1)
    /// receives the other pure uploader (3) and then source 2; source 1
    /// feeds the destination.
    #[test]
    fn paper_example_pairs_like_figure_9() {
        assert_eq!(
            pair_tasks(vec![0, 2, 1, 0], &[0, 1, 2, 3]),
            [Some(2), None, Some(1), Some(1)]
        );
    }

    #[test]
    fn extreme_fan_ins_yield_a_star_and_a_chain() {
        assert_eq!(pair_tasks(vec![0; 4], &[0, 1, 2, 3]), [None; 4]);
        assert_eq!(
            pair_tasks(vec![0, 1, 1, 1], &[0, 1, 2, 3]),
            [Some(1), Some(2), Some(3), None]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each of the n − 1 non-root download tasks goes to a random
        /// source or (slot value n) to the destination: Σ fan-in ≤ n − 1
        /// always pairs into an in-tree with exactly the dispatched fan-ins.
        #[test]
        fn any_feasible_fan_in_pairs_into_an_in_tree(
            n in 1usize..16,
            slots in proptest::collection::vec(0usize..1 << 16, 15),
        ) {
            let mut want = vec![0; n];
            for slot in &slots[..n - 1] {
                if let Some(d) = want.get_mut(slot % (n + 1)) {
                    *d += 1;
                }
            }
            let nodes: Vec<NodeId> = (0..n).map(|i| 3 * i + 1).collect();
            let parents = pair_tasks(want.clone(), &nodes);
            prop_assert_eq!(fan_in(&parents), want);
            // Every source reaches the destination within n hops.
            for start in 0..n {
                let (mut at, mut hops) = (Some(start), 0);
                while let Some(i) = at {
                    at = parents[i];
                    hops += 1;
                    prop_assert!(hops <= n, "cycle through source {}", start);
                }
            }
        }
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
                // Fan-in at each relay is its parent-vector fan-in.
                for (i, d) in fan_in(&a.parents).into_iter().enumerate() {
                    assert_eq!(
                        plan.inputs(Some(i)).count(),
                        d,
                        "stripe {stripe} source {i}"
                    );
                }
            }
        }
    }
}
