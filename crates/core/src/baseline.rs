//! The static baseline algorithms (CR / PPR / ECPipe, optionally boosted
//! by RepairBoost selection) as a `Planner` for the campaign loop.

use chameleon_cluster::ChunkId;
use chameleon_simnet::NodeId;

use crate::campaign::{Campaign, Planner};
use crate::context::RepairContext;
use crate::plan::{assemble, RepairPlan};
use crate::select::{SelectError, Selection, SourceSelector};

/// The transmission topology a baseline uses for every chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanShape {
    /// CR: all sources → destination (Fig. 3(a)).
    Star,
    /// PPR: binary-tree aggregation of partial decoding results (Mitra et
    /// al., EuroSys 2016; Fig. 3(b)).
    Tree,
    /// ECPipe: a single chain (Li et al., USENIX ATC 2017) — the strictest
    /// transmission dependency of the three, which is why the paper finds
    /// it suffers most under foreground interference (§II-D).
    Chain,
}

impl PlanShape {
    /// The paper's name for this shape.
    pub fn name(self) -> &'static str {
        match self {
            PlanShape::Star => "CR",
            PlanShape::Tree => "PPR",
            PlanShape::Chain => "ECPipe",
        }
    }

    /// For each of `count` source positions, the position it uploads to
    /// (`None`: the destination). The tree is PPR's binomial shape: within
    /// a range the last element is the root, and the left half's root
    /// forwards to it.
    pub(crate) fn parents(self, count: usize) -> Vec<Option<usize>> {
        fn halve(lo: usize, hi: usize, parents: &mut [Option<usize>]) {
            if hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                parents[mid - 1] = Some(hi - 1);
                halve(lo, mid, parents);
                halve(mid, hi, parents);
            }
        }
        match self {
            PlanShape::Star => vec![None; count],
            PlanShape::Tree => {
                let mut parents = vec![None; count];
                halve(0, count, &mut parents);
                parents
            }
            PlanShape::Chain => (1..=count)
                .map(|next| (next < count).then_some(next))
                .collect(),
        }
    }

    /// Builds this shape over `selection`. A non-relayable (sub-chunk)
    /// selection ships its pieces verbatim, so every shape over it is a
    /// star.
    ///
    /// # Errors
    ///
    /// [`SelectError::Unrepairable`] if the selection admits no decoding
    /// coefficients.
    pub fn build(
        self,
        ctx: &RepairContext,
        chunk: ChunkId,
        selection: &Selection,
    ) -> Result<RepairPlan, SelectError> {
        let shape = if selection.relayable {
            self
        } else {
            PlanShape::Star
        };
        assemble(
            ctx,
            chunk,
            selection,
            &shape.parents(selection.sources.len()),
        )
    }
}

/// A fixed plan shape over a static selection policy.
pub struct StaticPlanner {
    shape: PlanShape,
    selector: SourceSelector,
}

impl Planner for StaticPlanner {
    type Attempt = ();

    fn name(&self) -> String {
        if self.selector.is_balanced() {
            format!("RB+{}", self.shape.name())
        } else {
            self.shape.name().to_string()
        }
    }

    fn cap(&self) -> usize {
        StaticRepairDriver::DEFAULT_CONCURRENCY
    }

    fn plan(
        &mut self,
        ctx: &RepairContext,
        chunk: ChunkId,
        promised: &[NodeId],
        _others_active: bool,
    ) -> Result<Option<(RepairPlan, ())>, SelectError> {
        let selection = self.selector.select(ctx, chunk, promised)?;
        Ok(Some((self.shape.build(ctx, chunk, &selection)?, ())))
    }
}

/// Runs a full-node (or multi-node) repair with a fixed plan shape and a
/// static selection policy, repairing up to `DEFAULT_CONCURRENCY` (8)
/// chunks at a time — how HDFS-style reconstruction work queues behave.
///
/// Unrepairable chunks (too many failures) are counted in
/// `StaticRepairDriver::skipped` rather than aborting the campaign.
pub type StaticRepairDriver = Campaign<StaticPlanner>;

impl StaticRepairDriver {
    /// Default number of chunks repaired concurrently.
    pub const DEFAULT_CONCURRENCY: usize = 8;

    /// Creates a driver with the paper's random source selection.
    pub fn new(ctx: RepairContext, shape: PlanShape, seed: u64) -> Self {
        Self::with_selector(ctx, shape, SourceSelector::random(seed))
    }

    /// Creates a RepairBoost-boosted driver: same shape, but sources and
    /// destinations are spread to balance per-node repair traffic
    /// (Exp#6).
    pub fn boosted(ctx: RepairContext, shape: PlanShape, seed: u64) -> Self {
        Self::with_selector(ctx, shape, SourceSelector::balanced(seed))
    }

    fn with_selector(ctx: RepairContext, shape: PlanShape, selector: SourceSelector) -> Self {
        Campaign::with_planner(ctx, StaticPlanner { shape, selector })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_cluster::{Cluster, ClusterConfig};
    use chameleon_codes::{Butterfly, ErasureCode, ReedSolomon};
    use std::sync::Arc;

    fn ctx(code: Arc<dyn ErasureCode>) -> RepairContext {
        let mut cfg = ClusterConfig::small(code.n());
        cfg.stripes = 2;
        RepairContext::new(Cluster::new(cfg).unwrap(), code)
    }

    #[test]
    fn shapes_match_fig3_for_every_source_count() {
        // Fig. 3(b), k = 4: 0 -> 1, 1 -> 3, 2 -> 3, 3 -> destination.
        assert_eq!(
            PlanShape::Tree.parents(4),
            vec![Some(1), Some(3), Some(3), None]
        );
        let chunk = ChunkId {
            stripe: 1,
            index: 0,
        };
        for k in 1..=16 {
            let ctx = ctx(Arc::new(ReedSolomon::new(k, 2).unwrap()));
            let selection = SourceSelector::random(k as u64)
                .select(&ctx, chunk, &[])
                .unwrap();
            // (shape, depth, destination fan-in)
            let table = [
                (PlanShape::Star, 1, k),
                (PlanShape::Tree, k.ilog2() as usize + 1, 1),
                (PlanShape::Chain, k, 1),
            ];
            for (shape, depth, fan_in) in table {
                let plan = shape.build(&ctx, chunk, &selection).unwrap();
                assert_eq!(plan.participants().len(), k, "{shape:?} k={k}");
                assert_eq!(plan.max_depth(), depth, "{shape:?} k={k}");
                assert_eq!(plan.inputs(None).count(), fan_in, "{shape:?} k={k}");
            }
        }
        // A sub-chunk (Butterfly) selection cannot relay: every shape is
        // the star.
        let ctx = ctx(Arc::new(Butterfly::new()));
        let selection = SourceSelector::random(3).select(&ctx, chunk, &[]).unwrap();
        assert!(!selection.relayable);
        let star = PlanShape::Star.build(&ctx, chunk, &selection).unwrap();
        assert_eq!(star.max_depth(), 1);
        for shape in [PlanShape::Tree, PlanShape::Chain] {
            assert_eq!(shape.build(&ctx, chunk, &selection).unwrap(), star);
        }
    }
}
