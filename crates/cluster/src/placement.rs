//! Stripe-to-node placement.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use chameleon_simnet::NodeId;

/// Identifies one chunk: stripe number plus position within the stripe
/// (`0..n`, data first, parity after — see
/// [`ErasureCode`](chameleon_codes::ErasureCode)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId {
    /// Stripe number.
    pub stripe: usize,
    /// Position within the stripe (`0..n`).
    pub index: usize,
}

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}c{}", self.stripe, self.index)
    }
}

/// How stripes are spread over nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Each stripe picks a random `n`-subset of nodes (seeded), as
    /// production systems effectively do.
    Random(u64),
}

/// The chunk → node map for a set of stripes, maintaining the invariant
/// that a stripe's `n` chunks land on `n` distinct nodes (so the stripe
/// tolerates `m` *node* failures, §II-A).
///
/// The map is one flat vector of `stripes × n` node ids — a stripe is the
/// sub-slice `[stripe * n..][..n]` — so a placement costs `n` ids per
/// stripe however many nodes the cluster has.
///
/// # Examples
///
/// ```
/// use chameleon_cluster::{ChunkId, Placement, PlacementStrategy};
///
/// let p = Placement::new(20, 14, 10, PlacementStrategy::Random(7));
/// let node = p.node_of(ChunkId { stripe: 0, index: 3 });
/// assert!(node < 20);
/// assert_eq!(p.stripes(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Placement {
    nodes: usize,
    n: usize,
    /// `chunk_node[stripe * n + index]` = node.
    chunk_node: Vec<NodeId>,
}

impl Placement {
    /// Lays out `stripes` stripes of width `n` across `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < n` (a stripe cannot fit) or `n == 0`.
    pub fn new(nodes: usize, n: usize, stripes: usize, strategy: PlacementStrategy) -> Self {
        assert!(n > 0, "stripe width must be positive");
        assert!(nodes >= n, "need at least n nodes to place a stripe");
        let PlacementStrategy::Random(seed) = strategy;
        let mut chunk_node = Vec::with_capacity(stripes * n);
        let mut rng = StdRng::seed_from_u64(seed);
        // A stripe is the first n of a full shuffle of 0..nodes; the shuffle
        // always starts from the identity and draws for all `nodes`
        // positions, so the RNG stream — and with it every seeded placement
        // — does not depend on `n`.
        let mut pick: Vec<NodeId> = Vec::with_capacity(nodes);
        for _ in 0..stripes {
            pick.clear();
            pick.extend(0..nodes);
            pick.shuffle(&mut rng);
            chunk_node.extend_from_slice(&pick[..n]);
        }
        Placement {
            nodes,
            n,
            chunk_node,
        }
    }

    /// Number of nodes in the layout.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Stripe width `n`.
    pub fn stripe_width(&self) -> usize {
        self.n
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.chunk_node.len() / self.n
    }

    /// The node storing a chunk.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is out of range.
    pub fn node_of(&self, chunk: ChunkId) -> NodeId {
        self.stripe_nodes(chunk.stripe)[chunk.index]
    }

    /// The nodes of one stripe, indexed by chunk position.
    ///
    /// # Panics
    ///
    /// Panics if the stripe is out of range.
    pub fn stripe_nodes(&self, stripe: usize) -> &[NodeId] {
        &self.chunk_node[stripe * self.n..][..self.n]
    }

    /// All chunks stored on a node, in stripe order.
    pub fn chunks_on(&self, node: NodeId) -> Vec<ChunkId> {
        self.chunk_node
            .iter()
            .enumerate()
            .filter(|&(_, &nd)| nd == node)
            .map(|(at, _)| ChunkId {
                stripe: at / self.n,
                index: at % self.n,
            })
            .collect()
    }

    /// Moves a chunk to a new node (post-repair metadata update — the
    /// NameNode learning a reconstructed block's new location).
    ///
    /// # Panics
    ///
    /// Panics if the chunk or node is out of range, or if the move would
    /// put two chunks of the same stripe on one node (which would weaken
    /// the stripe's fault tolerance).
    pub fn relocate(&mut self, chunk: ChunkId, node: NodeId) {
        assert!(node < self.nodes, "node out of range");
        let stripe = &mut self.chunk_node[chunk.stripe * self.n..][..self.n];
        assert!(
            stripe
                .iter()
                .enumerate()
                .all(|(i, &n)| i == chunk.index || n != node),
            "stripe {} already has a chunk on node {node}",
            chunk.stripe
        );
        stripe[chunk.index] = node;
    }

    /// Verifies the one-chunk-per-node-per-stripe invariant (used by
    /// tests).
    pub fn is_valid(&self) -> bool {
        self.chunk_node.chunks_exact(self.n).all(|nodes| {
            let mut seen = vec![false; self.nodes];
            nodes.iter().all(|&n| {
                if n >= self.nodes || seen[n] {
                    false
                } else {
                    seen[n] = true;
                    true
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_placement_is_valid_and_deterministic() {
        let a = Placement::new(10, 6, 25, PlacementStrategy::Random(7));
        let b = Placement::new(10, 6, 25, PlacementStrategy::Random(7));
        assert!(a.is_valid());
        for s in 0..25 {
            assert_eq!(a.stripe_nodes(s), b.stripe_nodes(s));
        }
        let c = Placement::new(10, 6, 25, PlacementStrategy::Random(8));
        assert!((0..25).any(|s| a.stripe_nodes(s) != c.stripe_nodes(s)));
    }

    #[test]
    fn node_of_and_chunks_on_agree() {
        let p = Placement::new(8, 5, 12, PlacementStrategy::Random(3));
        for node in 0..8 {
            for chunk in p.chunks_on(node) {
                assert_eq!(p.node_of(chunk), node);
            }
        }
    }

    /// The layout `Placement::new` produced while it kept one vector per
    /// stripe: clone `0..nodes`, shuffle all of it, keep the first `n`.
    fn per_stripe_layout(
        nodes: usize,
        n: usize,
        stripes: usize,
        strategy: PlacementStrategy,
    ) -> Vec<Vec<NodeId>> {
        let PlacementStrategy::Random(seed) = strategy;
        let mut rng = StdRng::seed_from_u64(seed);
        let all: Vec<NodeId> = (0..nodes).collect();
        (0..stripes)
            .map(|_| {
                let mut pick = all.clone();
                pick.shuffle(&mut rng);
                pick.truncate(n);
                pick
            })
            .collect()
    }

    #[test]
    fn flat_layout_is_bit_identical_to_the_per_stripe_layout() {
        // Every seeded simulation, CSV and pin digest hangs off this.
        for (nodes, n, stripes, strategy) in [
            (20, 14, 86, PlacementStrategy::Random(0xC0DE)),
            (1000, 14, 4286, PlacementStrategy::Random(0xC0DE)),
        ] {
            let old = per_stripe_layout(nodes, n, stripes, strategy);
            let mut new = Placement::new(nodes, n, stripes, strategy);
            assert_eq!(new.stripes(), stripes);
            assert!(new.is_valid());
            for (s, row) in old.iter().enumerate() {
                assert_eq!(new.stripe_nodes(s), row, "{strategy:?} stripe {s}");
            }
            // The accessors agree with the rows they index into.
            let last = ChunkId {
                stripe: stripes - 1,
                index: n - 1,
            };
            assert_eq!(new.node_of(last), old[stripes - 1][n - 1]);
            let on_three: Vec<ChunkId> = (0..stripes)
                .flat_map(|stripe| (0..n).map(move |index| ChunkId { stripe, index }))
                .filter(|c| old[c.stripe][c.index] == 3)
                .collect();
            assert_eq!(new.chunks_on(3), on_three);
            let free = (0..nodes)
                .find(|node| !old[last.stripe].contains(node))
                .expect("nodes > n");
            new.relocate(last, free);
            assert_eq!(new.node_of(last), free);
            assert_eq!(
                new.stripe_nodes(last.stripe)[..n - 1],
                old[last.stripe][..n - 1]
            );
            assert!(new.chunks_on(free).contains(&last) && new.is_valid());
        }
    }

    #[test]
    #[should_panic(expected = "at least n nodes")]
    fn too_few_nodes_rejected() {
        let _ = Placement::new(4, 5, 1, PlacementStrategy::Random(0));
    }
}
