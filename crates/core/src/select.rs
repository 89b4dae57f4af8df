//! Source and destination selection policies for the baseline algorithms.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use chameleon_cluster::ChunkId;
use chameleon_codes::{CodeError, RepairRequirement};
use chameleon_simnet::NodeId;

use crate::context::RepairContext;

/// One chosen source: which surviving chunk to read, from which node, and
/// what fraction of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourcePick {
    /// Stripe index of the surviving chunk.
    pub chunk_index: usize,
    /// Node holding it.
    pub node: NodeId,
    /// Fraction of the chunk to read (sub-chunk repairs).
    pub fraction: f64,
}

/// A complete selection for one chunk repair.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Node that will store the repaired chunk.
    pub destination: NodeId,
    /// The chosen sources.
    pub sources: Vec<SourcePick>,
    /// Whether relays may combine partial results (false for sub-chunk
    /// repairs, which must ship verbatim).
    pub relayable: bool,
}

/// Errors from selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectError {
    /// The code cannot repair this chunk from the surviving chunks.
    Unrepairable,
    /// No eligible destination node exists.
    NoDestination,
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::Unrepairable => write!(f, "not enough surviving chunks"),
            SelectError::NoDestination => write!(f, "no eligible destination node"),
        }
    }
}

impl std::error::Error for SelectError {}

impl From<CodeError> for SelectError {
    fn from(_: CodeError) -> Self {
        SelectError::Unrepairable
    }
}

/// How the selector picks among eligible candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Uniform random — the paper's default for CR/PPR/ECPipe (§V-A notes
    /// random selection generates more balanced traffic than LRU).
    Random,
    /// RepairBoost-style: spread repair load by picking the candidates
    /// with the least accumulated repair traffic.
    Balanced,
}

/// Chooses sources and destinations for chunk repairs.
///
/// # Examples
///
/// ```no_run
/// # use chameleon_core::{RepairContext, SourceSelector};
/// # use chameleon_cluster::ChunkId;
/// # fn f(ctx: &RepairContext) {
/// let mut sel = SourceSelector::random(7);
/// let pick = sel.select(ctx, ChunkId { stripe: 0, index: 1 }, &[]).unwrap();
/// assert!(!pick.sources.is_empty());
/// # }
/// ```
#[derive(Debug)]
pub struct SourceSelector {
    mode: Mode,
    rng: StdRng,
    /// Accumulated upload chunks per node (Balanced mode).
    up_load: Vec<f64>,
    /// Accumulated download chunks per node (Balanced mode).
    down_load: Vec<f64>,
}

impl SourceSelector {
    /// Uniform-random selection (the baselines' policy).
    pub fn random(seed: u64) -> Self {
        SourceSelector {
            mode: Mode::Random,
            rng: StdRng::seed_from_u64(seed),
            up_load: Vec::new(),
            down_load: Vec::new(),
        }
    }

    /// RepairBoost-style balanced selection: repair load is spread across
    /// nodes by steering each chunk's sources and destination to the
    /// least-loaded candidates.
    pub fn balanced(seed: u64) -> Self {
        SourceSelector {
            mode: Mode::Balanced,
            rng: StdRng::seed_from_u64(seed),
            up_load: Vec::new(),
            down_load: Vec::new(),
        }
    }

    /// Selects a destination and sources to repair `chunk`, avoiding the
    /// nodes in `forbidden_destinations` (destinations already promised to
    /// sibling chunks of the same stripe).
    ///
    /// # Errors
    ///
    /// [`SelectError::Unrepairable`] if the surviving chunks cannot repair
    /// the chunk; [`SelectError::NoDestination`] if every node either holds
    /// a stripe chunk, is failed, or is forbidden.
    pub fn select(
        &mut self,
        ctx: &RepairContext,
        chunk: ChunkId,
        forbidden_destinations: &[NodeId],
    ) -> Result<Selection, SelectError> {
        let nodes = ctx.cluster.storage_nodes();
        self.up_load.resize(nodes, 0.0);
        self.down_load.resize(nodes, 0.0);

        let (requirement, mut sources, count) = repair_candidates(ctx, chunk)?;

        // Destination: any alive node not hosting a chunk of this stripe.
        let stripe_nodes = ctx.cluster.placement().stripe_nodes(chunk.stripe);
        let mut dest_candidates: Vec<NodeId> = ctx
            .cluster
            .alive_storage_nodes()
            .iter()
            .copied()
            .filter(|n| !stripe_nodes.contains(n) && !forbidden_destinations.contains(n))
            .collect();
        if dest_candidates.is_empty() {
            return Err(SelectError::NoDestination);
        }
        let destination = match self.mode {
            Mode::Random => *dest_candidates.choose(&mut self.rng).expect("non-empty"),
            Mode::Balanced => {
                dest_candidates.sort_by(|&a, &b| {
                    self.down_load[a]
                        .total_cmp(&self.down_load[b])
                        .then(a.cmp(&b))
                });
                dest_candidates[0]
            }
        };

        // Only `AnyOf` leaves a choice; `Exact` and `SubChunk` read every
        // candidate in the code's order.
        if let RepairRequirement::AnyOf { .. } = requirement {
            match self.mode {
                Mode::Random => sources.shuffle(&mut self.rng),
                Mode::Balanced => sources.sort_by(|a, b| {
                    self.up_load[a.node]
                        .total_cmp(&self.up_load[b.node])
                        .then(a.chunk_index.cmp(&b.chunk_index))
                }),
            }
            // Rack-aware preference: helpers in the destination's rack
            // keep repair traffic off the (possibly oversubscribed) spine.
            // The stable sort keeps the mode's order within each group and
            // consumes no randomness, so flat clusters are bitwise
            // unaffected.
            if ctx.cluster.config().topology.rack_count() > 1 {
                let cluster = &ctx.cluster;
                sources.sort_by_key(|s| usize::from(!cluster.same_rack(s.node, destination)));
            }
            sources.truncate(count);
        }

        // Account the load for Balanced mode.
        for s in &sources {
            self.up_load[s.node] += s.fraction;
        }
        self.down_load[destination] += requirement.traffic_chunks().min(sources.len() as f64);

        Ok(Selection {
            destination,
            sources,
            relayable: requirement.supports_relaying(),
        })
    }

    /// Whether this is [`SourceSelector::balanced`] (RepairBoost) selection.
    pub(crate) fn is_balanced(&self) -> bool {
        self.mode == Mode::Balanced
    }
}

/// The code's repair requirement for `chunk` given the surviving chunks,
/// every source it may read (in the code's order, with the fraction each
/// read takes), and how many of them one repair reads.
pub(crate) fn repair_candidates(
    ctx: &RepairContext,
    chunk: ChunkId,
) -> Result<(RepairRequirement, Vec<SourcePick>, usize), SelectError> {
    let alive_indices = ctx.cluster.alive_chunk_indices(chunk.stripe);
    let requirement = ctx.code.repair_requirement(chunk.index, &alive_indices)?;
    let placement = ctx.cluster.placement();
    let pick = |chunk_index: usize, fraction: f64| SourcePick {
        chunk_index,
        node: placement.node_of(ChunkId {
            stripe: chunk.stripe,
            index: chunk_index,
        }),
        fraction,
    };
    let (picks, count): (Vec<SourcePick>, usize) = match &requirement {
        RepairRequirement::AnyOf { candidates, count } => {
            (candidates.iter().map(|&i| pick(i, 1.0)).collect(), *count)
        }
        RepairRequirement::Exact { sources } => (
            sources.iter().map(|&i| pick(i, 1.0)).collect(),
            sources.len(),
        ),
        RepairRequirement::SubChunk { reads } => (
            reads.iter().map(|r| pick(r.chunk, r.fraction)).collect(),
            reads.len(),
        ),
    };
    Ok((requirement, picks, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_cluster::{Cluster, ClusterConfig};
    use chameleon_codes::ReedSolomon;
    use std::sync::Arc;

    fn ctx() -> RepairContext {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()))
    }

    fn failed_chunk(_ctx: &RepairContext) -> ChunkId {
        ChunkId {
            stripe: 0,
            index: 1,
        }
    }

    #[test]
    fn random_selection_is_well_formed() {
        let mut ctx = ctx();
        let chunk = failed_chunk(&ctx);
        let victim = ctx.cluster.placement().node_of(chunk);
        ctx.cluster.fail_node(victim).unwrap();
        let mut sel = SourceSelector::random(1);
        let pick = sel.select(&ctx, chunk, &[]).unwrap();
        assert_eq!(pick.sources.len(), 4);
        assert!(pick.relayable);
        // Destination is alive and off-stripe.
        assert!(ctx.cluster.is_alive(pick.destination));
        assert!(!ctx
            .cluster
            .placement()
            .stripe_nodes(chunk.stripe)
            .contains(&pick.destination));
        // Sources are alive holders of surviving chunks.
        for s in &pick.sources {
            assert!(ctx.cluster.is_alive(s.node));
            assert_ne!(s.chunk_index, chunk.index);
        }
    }

    #[test]
    fn forbidden_destinations_are_avoided() {
        let ctx = ctx();
        let chunk = failed_chunk(&ctx);
        let mut sel = SourceSelector::random(2);
        let all_off_stripe: Vec<NodeId> = ctx
            .cluster
            .alive_storage_nodes()
            .iter()
            .copied()
            .filter(|n| !ctx.cluster.placement().stripe_nodes(0).contains(n))
            .collect();
        // Forbid all but one.
        let keep = all_off_stripe[0];
        let forbidden: Vec<NodeId> = all_off_stripe[1..].to_vec();
        let pick = sel.select(&ctx, chunk, &forbidden).unwrap();
        assert_eq!(pick.destination, keep);
        // Forbid all -> error.
        let err = sel.select(&ctx, chunk, &all_off_stripe).unwrap_err();
        assert_eq!(err, SelectError::NoDestination);
    }

    #[test]
    fn balanced_mode_spreads_load() {
        let ctx = ctx();
        let mut sel = SourceSelector::balanced(3);
        let mut dest_hits = vec![0usize; ctx.cluster.storage_nodes()];
        for stripe in 0..ctx.cluster.placement().stripes() {
            let chunk = ChunkId { stripe, index: 0 };
            let pick = sel.select(&ctx, chunk, &[]).unwrap();
            dest_hits[pick.destination] += 1;
        }
        let max = *dest_hits.iter().max().unwrap();
        let min_nonzero = dest_hits.iter().filter(|&&h| h > 0).min().unwrap();
        assert!(
            max - min_nonzero <= 2,
            "balanced destinations skewed: {dest_hits:?}"
        );
    }

    #[test]
    fn racked_selection_prefers_in_rack_helpers() {
        use chameleon_cluster::TopologySpec;
        let mut cfg = ClusterConfig::small(6);
        cfg.topology = TopologySpec::oversub();
        let cluster = Cluster::new(cfg).unwrap();
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let chunk = ChunkId {
            stripe: 0,
            index: 1,
        };
        // Across many seeds, every in-rack candidate must be taken before
        // any cross-rack one.
        for seed in 0..16 {
            let mut sel = SourceSelector::random(seed);
            let pick = sel.select(&ctx, chunk, &[]).unwrap();
            let candidates: Vec<usize> = ctx
                .cluster
                .alive_chunk_indices(chunk.stripe)
                .into_iter()
                .filter(|&i| i != chunk.index)
                .collect();
            let in_rack_candidates = candidates
                .iter()
                .filter(|&&i| {
                    let n = ctx.cluster.placement().node_of(ChunkId {
                        stripe: chunk.stripe,
                        index: i,
                    });
                    ctx.cluster.same_rack(n, pick.destination)
                })
                .count();
            let in_rack_picked = pick
                .sources
                .iter()
                .filter(|s| ctx.cluster.same_rack(s.node, pick.destination))
                .count();
            assert_eq!(
                in_rack_picked,
                in_rack_candidates.min(pick.sources.len()),
                "seed {seed}: cross-rack helper chosen while an in-rack one was available"
            );
        }
    }

    #[test]
    fn flat_and_racked_random_selection_use_identical_randomness() {
        use chameleon_cluster::TopologySpec;
        // The rack preference is a stable re-sort: the *set* of sources may
        // differ, but destination choice and rng consumption must match the
        // flat run exactly (same seed -> same destination sequence).
        let flat_ctx = ctx();
        let mut racked_cfg = ClusterConfig::small(6);
        racked_cfg.topology = TopologySpec::paper();
        let racked_ctx = RepairContext::new(
            Cluster::new(racked_cfg).unwrap(),
            Arc::new(ReedSolomon::new(4, 2).unwrap()),
        );
        let mut flat_sel = SourceSelector::random(9);
        let mut racked_sel = SourceSelector::random(9);
        for stripe in 0..8 {
            let chunk = ChunkId { stripe, index: 0 };
            let a = flat_sel.select(&flat_ctx, chunk, &[]).unwrap();
            let b = racked_sel.select(&racked_ctx, chunk, &[]).unwrap();
            assert_eq!(a.destination, b.destination);
            assert_eq!(a.sources.len(), b.sources.len());
        }
    }

    #[test]
    fn unrepairable_when_too_many_failures() {
        let mut ctx = ctx();
        // Fail 3 nodes of stripe 0 (m = 2): unrepairable.
        let nodes: Vec<NodeId> = ctx.cluster.placement().stripe_nodes(0)[..3].to_vec();
        for n in nodes {
            ctx.cluster.fail_node(n).unwrap();
        }
        let mut sel = SourceSelector::random(4);
        let chunk = ChunkId {
            stripe: 0,
            index: 0,
        };
        assert_eq!(
            sel.select(&ctx, chunk, &[]).unwrap_err(),
            SelectError::Unrepairable
        );
    }
}
