//! Repair plans: in-trees of chunk transfers rooted at a destination.

use std::collections::BTreeSet;

use chameleon_cluster::ChunkId;
use chameleon_gf::Gf256;
use chameleon_simnet::NodeId;

use crate::context::RepairContext;
use crate::select::{SelectError, Selection};

/// Assembles the plan in which source `i` of `selection` uploads to source
/// `parents[i]`, or to the destination when that is `None`. Every plan
/// shape — star, tree, chain and Algorithm 1's tunable tree — is such a
/// parent vector, and this is the one place that turns one into
/// [`Participant`]s, which keep it as [`Participant::parent`]: decoding
/// coefficients for relayable selections, unit coefficients for sub-chunk
/// pieces (shipped verbatim).
///
/// # Errors
///
/// [`SelectError::Unrepairable`] if the sources admit no decoding
/// coefficients or the parents do not form an in-tree.
pub(crate) fn assemble(
    ctx: &RepairContext,
    chunk: ChunkId,
    selection: &Selection,
    parents: &[Option<usize>],
) -> Result<RepairPlan, SelectError> {
    let sources = &selection.sources;
    debug_assert_eq!(sources.len(), parents.len());
    let coeffs = if selection.relayable {
        let indices: Vec<usize> = sources.iter().map(|s| s.chunk_index).collect();
        ctx.code
            .repair_coefficients(chunk.index, &indices)
            .map_err(|_| SelectError::Unrepairable)?
    } else {
        debug_assert!(parents.iter().all(Option::is_none), "pieces cannot relay");
        vec![Gf256::ONE; sources.len()]
    };
    let participants = sources
        .iter()
        .zip(coeffs)
        .zip(parents)
        .map(|((s, coeff), parent)| Participant {
            node: s.node,
            chunk_index: s.chunk_index,
            coeff,
            parent: *parent,
            read_fraction: s.fraction,
        })
        .collect();
    RepairPlan::new(chunk, selection.destination, participants)
        .map_err(|_| SelectError::Unrepairable)
}

/// Errors detected by [`RepairPlan::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// No participants.
    Empty,
    /// Two participants on the same node, or a participant on the
    /// destination node.
    DuplicateNode,
    /// A participant's parent index is past the participant list.
    UnknownTarget,
    /// The forwarding graph contains a cycle (never reaches the
    /// destination).
    Cycle,
    /// A read fraction outside `(0, 1]`.
    BadFraction,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Empty => write!(f, "plan has no participants"),
            PlanError::DuplicateNode => write!(f, "node appears twice in plan"),
            PlanError::UnknownTarget => write!(f, "transfer targets a non-participant"),
            PlanError::Cycle => write!(f, "transfer graph contains a cycle"),
            PlanError::BadFraction => write!(f, "read fraction outside (0, 1]"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One source node in a repair plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Participant {
    /// The node holding a surviving chunk.
    pub node: NodeId,
    /// Stripe index of the surviving chunk it contributes.
    pub chunk_index: usize,
    /// Decoding coefficient `alpha_i` applied to the local chunk
    /// (Equation (1)); `Gf256::ONE` for XOR codes and sub-chunk repairs.
    pub coeff: Gf256,
    /// Where this node uploads its (possibly combined) result: the index
    /// of another participant in [`RepairPlan::participants`], or `None`
    /// for the plan destination.
    pub parent: Option<usize>,
    /// Fraction of the chunk read and transferred (1.0 for whole-chunk
    /// repairs; 0.5 for Butterfly half-chunk reads).
    pub read_fraction: f64,
}

/// A single-chunk repair plan: `count` sources forming an in-tree rooted at
/// the destination. Relay sources (fan-in > 0) combine received data with
/// their local chunk into a partially decoded chunk before forwarding —
/// the tunability that ChameleonEC exploits.
///
/// # Examples
///
/// ```
/// use chameleon_core::{Participant, RepairPlan};
/// use chameleon_cluster::ChunkId;
/// use chameleon_gf::Gf256;
///
/// // Two sources chained: 0 -> 1 -> destination 9.
/// let plan = RepairPlan::new(
///     ChunkId { stripe: 0, index: 2 },
///     9,
///     vec![
///         Participant { node: 0, chunk_index: 0, coeff: Gf256::ONE, parent: Some(1), read_fraction: 1.0 },
///         Participant { node: 1, chunk_index: 1, coeff: Gf256::ONE, parent: None, read_fraction: 1.0 },
///     ],
/// )?;
/// assert_eq!(plan.max_depth(), 2);
/// # Ok::<(), chameleon_core::PlanError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RepairPlan {
    chunk: ChunkId,
    destination: NodeId,
    participants: Vec<Participant>,
}

impl RepairPlan {
    /// Creates and validates a plan.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] describing the first violated invariant.
    pub fn new(
        chunk: ChunkId,
        destination: NodeId,
        participants: Vec<Participant>,
    ) -> Result<Self, PlanError> {
        let plan = RepairPlan {
            chunk,
            destination,
            participants,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// The failed chunk this plan repairs.
    pub fn chunk(&self) -> ChunkId {
        self.chunk
    }

    /// The node that stores the repaired chunk.
    pub fn destination(&self) -> NodeId {
        self.destination
    }

    /// The participating sources.
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// Indices of the participants that upload to `parent` (the
    /// destination when `None`), in participant order.
    pub fn inputs(&self, parent: Option<usize>) -> impl Iterator<Item = usize> + '_ {
        self.participants
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.parent == parent)
            .map(|(i, _)| i)
    }

    /// Total repair traffic in bytes for a given chunk size: each
    /// participant uploads `read_fraction * chunk_size` (partial sums are
    /// full-size; sub-chunk repairs upload their fraction).
    pub fn traffic_bytes(&self, chunk_size: u64) -> f64 {
        self.participants
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let upload = if self.inputs(Some(i)).next().is_none() {
                    p.read_fraction
                } else {
                    // A relay uploads a combined (full-size) partial chunk.
                    1.0
                };
                upload * chunk_size as f64
            })
            .sum()
    }

    /// Length of the longest forwarding path (1 for a pure star, `k` for a
    /// full chain). Deeper plans have stricter transmission dependencies.
    pub fn max_depth(&self) -> usize {
        (0..self.participants.len())
            .map(|i| self.depth(i))
            .max()
            .unwrap_or(0)
    }

    /// Hops from participant `i` to the destination (1 for a root). A walk
    /// that cycles stops one hop past the participant count.
    pub(crate) fn depth(&self, mut i: usize) -> usize {
        let mut hops = 1;
        while let Some(parent) = self.participants[i].parent {
            if hops > self.participants.len() {
                break;
            }
            i = parent;
            hops += 1;
        }
        hops
    }

    /// Redirects participant `index` to forward straight to the
    /// destination — the primitive behind ChameleonEC's repair re-tuning
    /// (§III-C, Fig. 10(b)).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn redirect_to_destination(&mut self, index: usize) {
        self.participants[index].parent = None;
    }

    /// Checks all plan invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), PlanError> {
        let count = self.participants.len();
        if count == 0 {
            return Err(PlanError::Empty);
        }
        let mut nodes = BTreeSet::new();
        for p in &self.participants {
            if p.node == self.destination || !nodes.insert(p.node) {
                return Err(PlanError::DuplicateNode);
            }
            if !(p.read_fraction > 0.0 && p.read_fraction <= 1.0) {
                return Err(PlanError::BadFraction);
            }
            if p.parent.is_some_and(|parent| parent >= count) {
                return Err(PlanError::UnknownTarget);
            }
        }
        // Acyclicity: every walk reaches the destination within
        // `count` hops.
        if (0..count).any(|i| self.depth(i) > count) {
            return Err(PlanError::Cycle);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Participant on node `node` uploading to participant `parent`.
    fn part(node: NodeId, parent: Option<usize>) -> Participant {
        Participant {
            node,
            chunk_index: node,
            coeff: Gf256::ONE,
            parent,
            read_fraction: 1.0,
        }
    }

    fn chunk() -> ChunkId {
        ChunkId {
            stripe: 0,
            index: 0,
        }
    }

    /// Participant `i` on node `i` uploads to participant `parents[i]`, or
    /// to the destination (node 9) when that is `None`.
    fn tree(parents: &[Option<usize>]) -> Result<RepairPlan, PlanError> {
        let participants = parents.iter().enumerate().map(|(i, &p)| part(i, p));
        RepairPlan::new(chunk(), 9, participants.collect())
    }

    fn inputs(plan: &RepairPlan, parent: Option<usize>) -> Vec<usize> {
        plan.inputs(parent).collect()
    }

    #[test]
    fn star_plan_is_valid_depth_one() {
        let plan = tree(&[None; 3]).unwrap();
        assert_eq!(plan.max_depth(), 1);
        assert_eq!(inputs(&plan, None), vec![0, 1, 2]);
        assert!((0..3).all(|i| inputs(&plan, Some(i)).is_empty()));
        assert_eq!(plan.traffic_bytes(100), 300.0);
    }

    #[test]
    fn chain_plan_depth_equals_length() {
        let plan = tree(&[Some(1), Some(2), None]).unwrap();
        assert_eq!(plan.max_depth(), 3);
        assert!(inputs(&plan, Some(0)).is_empty());
        assert_eq!(inputs(&plan, Some(1)), vec![0]);
        assert_eq!(inputs(&plan, Some(2)), vec![1]);
        assert_eq!(inputs(&plan, None), vec![2]);
    }

    #[test]
    fn cycle_detected() {
        assert_eq!(tree(&[Some(1), Some(0)]), Err(PlanError::Cycle));
        // A cycle beside a valid root is still a cycle.
        assert_eq!(tree(&[None, Some(2), Some(1)]), Err(PlanError::Cycle));
    }

    #[test]
    fn self_loop_detected() {
        assert_eq!(tree(&[Some(0)]), Err(PlanError::Cycle));
    }

    #[test]
    fn duplicate_and_destination_overlap_detected() {
        let err = RepairPlan::new(chunk(), 9, vec![part(0, None), part(0, None)]).unwrap_err();
        assert_eq!(err, PlanError::DuplicateNode);
        let err = RepairPlan::new(chunk(), 0, vec![part(0, None)]).unwrap_err();
        assert_eq!(err, PlanError::DuplicateNode);
    }

    #[test]
    fn unknown_target_detected() {
        // A parent index past the participant list.
        assert_eq!(tree(&[Some(1)]), Err(PlanError::UnknownTarget));
        assert_eq!(tree(&[None, Some(7)]), Err(PlanError::UnknownTarget));
    }

    #[test]
    fn empty_plan_rejected() {
        assert_eq!(tree(&[]), Err(PlanError::Empty));
    }

    #[test]
    fn bad_fraction_rejected() {
        let mut p = part(0, None);
        p.read_fraction = 0.0;
        assert_eq!(
            RepairPlan::new(chunk(), 9, vec![p]).unwrap_err(),
            PlanError::BadFraction
        );
    }

    #[test]
    fn redirect_flattens_relay() {
        // 0 -> 1 -> 2 -> destination; cutting 1 over leaves 0 -> 1 -> dst.
        let mut plan = tree(&[Some(1), Some(2), None]).unwrap();
        plan.redirect_to_destination(1);
        assert_eq!(plan.participants()[1].parent, None);
        assert_eq!(plan.max_depth(), 2);
        assert_eq!(inputs(&plan, None), vec![1, 2]);
        assert_eq!(inputs(&plan, Some(1)), vec![0]);
        assert!(inputs(&plan, Some(2)).is_empty());
        plan.redirect_to_destination(0);
        assert_eq!(plan.max_depth(), 1);
        assert_eq!(inputs(&plan, None), vec![0, 1, 2]);
    }

    #[test]
    fn relay_traffic_counts_full_upload() {
        // Source 0 reads half a chunk but relays through 1: relay uploads
        // a full partial chunk.
        let mut half = part(0, Some(1));
        half.read_fraction = 0.5;
        let plan = RepairPlan::new(chunk(), 9, vec![half, part(1, None)]).unwrap();
        assert_eq!(plan.traffic_bytes(100), 50.0 + 100.0);
    }
}
