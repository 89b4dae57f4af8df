//! Repair plans: in-trees of chunk transfers rooted at a destination.

use std::collections::{BTreeMap, BTreeSet};

use chameleon_cluster::ChunkId;
use chameleon_gf::Gf256;
use chameleon_simnet::NodeId;

use crate::context::RepairContext;
use crate::select::{SelectError, Selection};

/// Assembles the plan in which source `i` of `selection` uploads to source
/// `parents[i]`, or to the destination when that is `None`. Every plan
/// shape — star, tree, chain and Algorithm 1's tunable tree — is such a
/// parent vector, and this is the one place that turns one into
/// [`Participant`]s: decoding coefficients for relayable selections, unit
/// coefficients for sub-chunk pieces (shipped verbatim).
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
            send_to: parent.map_or(selection.destination, |p| sources[p].node),
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
    /// A participant forwards to a node that is neither a participant nor
    /// the destination.
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
    /// Where this node uploads its (possibly combined) result: another
    /// participant's node, or the plan destination.
    pub send_to: NodeId,
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
///         Participant { node: 0, chunk_index: 0, coeff: Gf256::ONE, send_to: 1, read_fraction: 1.0 },
///         Participant { node: 1, chunk_index: 1, coeff: Gf256::ONE, send_to: 9, read_fraction: 1.0 },
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

    /// Index of the participant on `node`, if any.
    pub fn participant_on(&self, node: NodeId) -> Option<usize> {
        self.participants.iter().position(|p| p.node == node)
    }

    /// Nodes that forward into `node` (fan-in edges).
    pub fn inputs_of(&self, node: NodeId) -> Vec<NodeId> {
        self.participants
            .iter()
            .filter(|p| p.send_to == node)
            .map(|p| p.node)
            .collect()
    }

    /// Total repair traffic in bytes for a given chunk size: each
    /// participant uploads `read_fraction * chunk_size` (partial sums are
    /// full-size; sub-chunk repairs upload their fraction).
    pub fn traffic_bytes(&self, chunk_size: u64) -> f64 {
        self.participants
            .iter()
            .map(|p| {
                let upload = if self.inputs_of(p.node).is_empty() {
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
        let mut depth_cache: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut best = 0;
        for p in &self.participants {
            best = best.max(self.depth_of(p.node, &mut depth_cache));
        }
        best
    }

    fn depth_of(&self, node: NodeId, cache: &mut BTreeMap<NodeId, usize>) -> usize {
        if let Some(&d) = cache.get(&node) {
            return d;
        }
        let d = match self.participants.iter().find(|p| p.node == node) {
            Some(p) if p.send_to == self.destination => 1,
            Some(p) => 1 + self.depth_of(p.send_to, cache),
            None => 0,
        };
        cache.insert(node, d);
        d
    }

    /// Redirects participant `index` to forward straight to the
    /// destination — the primitive behind ChameleonEC's repair re-tuning
    /// (§III-C, Fig. 10(b)).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn redirect_to_destination(&mut self, index: usize) {
        let dst = self.destination;
        self.participants[index].send_to = dst;
        debug_assert!(self.validate().is_ok());
    }

    /// Checks all plan invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.participants.is_empty() {
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
        }
        // Every target is a participant or the destination.
        for p in &self.participants {
            if p.send_to != self.destination && !nodes.contains(&p.send_to) {
                return Err(PlanError::UnknownTarget);
            }
            if p.send_to == p.node {
                return Err(PlanError::Cycle);
            }
        }
        // Acyclicity: walk each forwarding chain; it must reach the
        // destination within |participants| hops.
        for p in &self.participants {
            let mut current = p.send_to;
            let mut hops = 0;
            while current != self.destination {
                hops += 1;
                if hops > self.participants.len() {
                    return Err(PlanError::Cycle);
                }
                current = self
                    .participants
                    .iter()
                    .find(|q| q.node == current)
                    .expect("target existence checked")
                    .send_to;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(node: NodeId, send_to: NodeId) -> Participant {
        Participant {
            node,
            chunk_index: node,
            coeff: Gf256::ONE,
            send_to,
            read_fraction: 1.0,
        }
    }

    fn chunk() -> ChunkId {
        ChunkId {
            stripe: 0,
            index: 0,
        }
    }

    #[test]
    fn star_plan_is_valid_depth_one() {
        let plan = RepairPlan::new(chunk(), 9, vec![part(0, 9), part(1, 9), part(2, 9)]).unwrap();
        assert_eq!(plan.max_depth(), 1);
        assert_eq!(plan.inputs_of(9), vec![0, 1, 2]);
        assert_eq!(plan.traffic_bytes(100), 300.0);
    }

    #[test]
    fn chain_plan_depth_equals_length() {
        let plan = RepairPlan::new(chunk(), 9, vec![part(0, 1), part(1, 2), part(2, 9)]).unwrap();
        assert_eq!(plan.max_depth(), 3);
        assert_eq!(plan.inputs_of(1), vec![0]);
        assert_eq!(plan.inputs_of(9), vec![2]);
    }

    #[test]
    fn cycle_detected() {
        let err = RepairPlan::new(chunk(), 9, vec![part(0, 1), part(1, 0)]).unwrap_err();
        assert_eq!(err, PlanError::Cycle);
    }

    #[test]
    fn self_loop_detected() {
        let err = RepairPlan::new(chunk(), 9, vec![part(0, 0)]).unwrap_err();
        assert_eq!(err, PlanError::Cycle);
    }

    #[test]
    fn duplicate_and_destination_overlap_detected() {
        let err = RepairPlan::new(chunk(), 9, vec![part(0, 9), part(0, 9)]).unwrap_err();
        assert_eq!(err, PlanError::DuplicateNode);
        let err = RepairPlan::new(chunk(), 0, vec![part(0, 0)]).unwrap_err();
        assert_eq!(err, PlanError::DuplicateNode);
    }

    #[test]
    fn unknown_target_detected() {
        let err = RepairPlan::new(chunk(), 9, vec![part(0, 7)]).unwrap_err();
        assert_eq!(err, PlanError::UnknownTarget);
    }

    #[test]
    fn empty_plan_rejected() {
        assert_eq!(
            RepairPlan::new(chunk(), 9, vec![]).unwrap_err(),
            PlanError::Empty
        );
    }

    #[test]
    fn bad_fraction_rejected() {
        let mut p = part(0, 9);
        p.read_fraction = 0.0;
        assert_eq!(
            RepairPlan::new(chunk(), 9, vec![p]).unwrap_err(),
            PlanError::BadFraction
        );
    }

    #[test]
    fn redirect_flattens_relay() {
        let mut plan = RepairPlan::new(chunk(), 9, vec![part(0, 1), part(1, 9)]).unwrap();
        assert_eq!(plan.max_depth(), 2);
        plan.redirect_to_destination(0);
        assert_eq!(plan.max_depth(), 1);
        assert_eq!(plan.inputs_of(9), vec![0, 1]);
    }

    #[test]
    fn relay_traffic_counts_full_upload() {
        // Source 0 reads half a chunk but relays through 1: relay uploads
        // a full partial chunk.
        let mut half = part(0, 1);
        half.read_fraction = 0.5;
        let plan = RepairPlan::new(chunk(), 9, vec![half, part(1, 9)]).unwrap();
        assert_eq!(plan.traffic_bytes(100), 50.0 + 100.0);
    }
}
