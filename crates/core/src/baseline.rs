//! The static baseline algorithms (CR / PPR / ECPipe, optionally boosted
//! by RepairBoost selection) as a `Planner` for the campaign loop.

use chameleon_cluster::ChunkId;
use chameleon_simnet::NodeId;

use crate::campaign::{Campaign, Planner};
use crate::context::RepairContext;
use crate::plan::RepairPlan;
use crate::select::{SelectError, SourceSelector};
use crate::{cr, ecpipe, ppr};

/// The transmission topology a baseline uses for every chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanShape {
    /// CR: all sources → destination.
    Star,
    /// PPR: binary-tree aggregation.
    Tree,
    /// ECPipe: a single chain.
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
}

/// A fixed plan shape over a static selection policy.
pub struct StaticPlanner {
    shape: PlanShape,
    selector: SourceSelector,
    boosted: bool,
    concurrency: usize,
}

impl Planner for StaticPlanner {
    type Attempt = ();

    fn name(&self) -> String {
        if self.boosted {
            format!("RB+{}", self.shape.name())
        } else {
            self.shape.name().to_string()
        }
    }

    fn cap(&self) -> usize {
        self.concurrency
    }

    fn plan(
        &mut self,
        ctx: &RepairContext,
        chunk: ChunkId,
        promised: &[NodeId],
        _others_active: bool,
    ) -> Result<Option<(RepairPlan, ())>, SelectError> {
        let selection = self.selector.select(ctx, chunk, promised)?;
        let plan = match self.shape {
            PlanShape::Star => cr::build(ctx, chunk, &selection),
            PlanShape::Tree => ppr::build(ctx, chunk, &selection),
            PlanShape::Chain => ecpipe::build(ctx, chunk, &selection),
        }?;
        Ok(Some((plan, ())))
    }
}

/// Runs a full-node (or multi-node) repair with a fixed plan shape and a
/// static selection policy, repairing up to `concurrency` chunks at a time
/// — how HDFS-style reconstruction work queues behave.
///
/// Unrepairable chunks (too many failures) are counted in
/// `StaticRepairDriver::skipped` rather than aborting the campaign.
pub type StaticRepairDriver = Campaign<StaticPlanner>;

impl StaticRepairDriver {
    /// Default number of chunks repaired concurrently.
    pub const DEFAULT_CONCURRENCY: usize = 8;

    /// Creates a driver with the paper's random source selection.
    pub fn new(ctx: RepairContext, shape: PlanShape, seed: u64) -> Self {
        Self::with_selector(ctx, shape, SourceSelector::random(seed), false)
    }

    /// Creates a RepairBoost-boosted driver: same shape, but sources and
    /// destinations are spread to balance per-node repair traffic
    /// (Exp#6).
    pub fn boosted(ctx: RepairContext, shape: PlanShape, seed: u64) -> Self {
        Self::with_selector(ctx, shape, SourceSelector::balanced(seed), true)
    }

    fn with_selector(
        ctx: RepairContext,
        shape: PlanShape,
        selector: SourceSelector,
        boosted: bool,
    ) -> Self {
        let planner = StaticPlanner {
            shape,
            selector,
            boosted,
            concurrency: Self::DEFAULT_CONCURRENCY,
        };
        Campaign::with_planner(ctx, planner)
    }

    /// Overrides how many chunks repair concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency` is zero.
    pub fn with_concurrency(mut self, concurrency: usize) -> Self {
        assert!(concurrency > 0, "concurrency must be positive");
        self.planner.concurrency = concurrency;
        self
    }
}
