//! Stripe-to-node placement.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

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
        // A stripe is the first n of a full Fisher–Yates permutation of
        // 0..nodes, drawn as the vendored `rand` permutes a slice: for i from
        // nodes − 1 down to 1, swap i with `next_u64() % (i + 1)`. It always
        // starts from the identity and draws for all `nodes` positions, so
        // the RNG stream — and with it every seeded placement — does not
        // depend on `n`. Every stripe divides by the same bounds 2..=nodes,
        // so each bound gets one exact reciprocal, here, instead of a 64-bit
        // divide per draw (`bounds[i]` is i + 1's).
        let bounds: Vec<Remainder> = (1..=nodes as u64).map(Remainder::new).collect();
        let mut pick: Vec<NodeId> = Vec::with_capacity(nodes);
        for _ in 0..stripes {
            pick.clear();
            pick.extend(0..nodes);
            for (i, bound) in bounds.iter().enumerate().skip(1).rev() {
                pick.swap(i, bound.of(rng.next_u64()) as usize);
            }
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

/// `a % d` for one fixed `d` by multiplications alone: "Faster Remainder by
/// Direct Computation" (Lemire, Kaser and Kurz, 2019). With
/// `m = ⌊(2¹²⁸ − 1) / d⌋ + 1`, `a % d` is the high 64 bits of
/// `(m · a mod 2¹²⁸) · d`; a 128-bit fraction (≥ 64 + log₂ d bits) makes
/// that exact for every `u64` `a` and every `d ≥ 1` (`m` wraps to 0 at
/// `d = 1`, and every remainder by 1 is 0).
#[derive(Clone, Copy)]
struct Remainder {
    m: u128,
    d: u64,
}

impl Remainder {
    fn new(d: u64) -> Self {
        assert!(d > 0, "remainder by zero");
        Remainder {
            m: (u128::MAX / u128::from(d)).wrapping_add(1),
            d,
        }
    }

    /// `a % d`.
    #[inline]
    fn of(self, a: u64) -> u64 {
        let low = self.m.wrapping_mul(u128::from(a));
        // The high 64 bits of the 192-bit product `low · d`.
        let d = u128::from(self.d);
        let bottom = (u128::from(low as u64) * d) >> 64;
        let top = (low >> 64) * d;
        ((bottom + top) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_simnet::faults::splitmix64;
    use rand::seq::SliceRandom;

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
            (20, 14, 86, PlacementStrategy::Random(1)),
            (14, 14, 60, PlacementStrategy::Random(0xC0DE)),
            (1000, 14, 4286, PlacementStrategy::Random(0xC0DE)),
            (1024, 14, 600, PlacementStrategy::Random(0xC0DE)),
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
            let Some(free) = (0..nodes).find(|node| !old[last.stripe].contains(node)) else {
                assert_eq!(nodes, n, "only a full-width stripe leaves no node free");
                continue;
            };
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
    fn reciprocal_remainders_are_exact() {
        let divisors = (1..=4096)
            .chain((0..64).map(|p| 1 << p))
            .chain([u64::from(u32::MAX), u64::MAX]);
        let mut state = 0x5EED;
        for d in divisors {
            let rem = Remainder::new(d);
            let edges = [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX, u64::MAX - 1];
            let words = (0..1000).map(|_| splitmix64(&mut state));
            for a in edges.into_iter().chain(words) {
                assert_eq!(rem.of(a), a % d, "{a} % {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least n nodes")]
    fn too_few_nodes_rejected() {
        let _ = Placement::new(4, 5, 1, PlacementStrategy::Random(0));
    }
}
