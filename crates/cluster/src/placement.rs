//! Stripe-to-node placement.

use std::sync::{Arc, Mutex, PoisonError};

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
    /// `chunk_node[stripe * n + index]` = node; shared with the process's
    /// other placements of the same arguments until a relocation.
    chunk_node: Arc<Vec<NodeId>>,
}

impl Placement {
    /// Lays out `stripes` stripes of width `n` across `nodes` nodes.
    ///
    /// A layout is a pure function of the four arguments, and the cells of
    /// a grid (or the passes of a benchmark) stage the same configuration
    /// over and over, so the process keeps the last layout drawn and a call
    /// with the same arguments shares it instead of drawing it again. The
    /// first [`relocate`](Placement::relocate) on a shared layout copies
    /// it, so no placement sees another's moves.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < n` (a stripe cannot fit) or `n == 0`.
    pub fn new(nodes: usize, n: usize, stripes: usize, strategy: PlacementStrategy) -> Self {
        static LAST: LastLayout = Mutex::new(None);
        Self::shared(&LAST, nodes, n, stripes, strategy)
    }

    /// [`Placement::new`] against the one-entry cache `last`.
    fn shared(
        last: &LastLayout,
        nodes: usize,
        n: usize,
        stripes: usize,
        strategy: PlacementStrategy,
    ) -> Self {
        assert!(n > 0, "stripe width must be positive");
        assert!(nodes >= n, "need at least n nodes to place a stripe");
        let key = (nodes, n, stripes, strategy);
        let lock = || last.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = lock()
            .as_ref()
            .filter(|(drawn, _)| *drawn == key)
            .map(|(_, layout)| Arc::clone(layout));
        // Drawn outside the lock: two threads that miss on one key both
        // draw it, and either result is the same layout.
        let chunk_node = hit.unwrap_or_else(|| {
            let layout = Arc::new(draw(nodes, n, stripes, strategy));
            *lock() = Some((key, Arc::clone(&layout)));
            layout
        });
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
        let stripe = &mut Arc::make_mut(&mut self.chunk_node)[chunk.stripe * self.n..][..self.n];
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

/// The arguments of the last layout drawn, and that layout.
type LastLayout = Mutex<Option<((usize, usize, usize, PlacementStrategy), Arc<Vec<NodeId>>)>>;

/// Draws the `stripes × n` flat layout.
fn draw(nodes: usize, n: usize, stripes: usize, strategy: PlacementStrategy) -> Vec<NodeId> {
    let PlacementStrategy::Random(seed) = strategy;
    let mut chunk_node = Vec::with_capacity(stripes * n);
    let mut rng = StdRng::seed_from_u64(seed);
    // A stripe is the first n of a full Fisher–Yates permutation of
    // 0..nodes, drawn as the vendored `rand` permutes a slice: for i from
    // nodes − 1 down to 1, swap i with `next_u64() % (i + 1)`. It always
    // starts from the identity and draws for all `nodes` positions, so
    // the RNG stream — and with it every seeded placement — does not
    // depend on `n`. Every stripe divides by the same bounds 1..=nodes,
    // so each bound gets one exact reciprocal, here, instead of a 64-bit
    // divide per draw (`bounds[i]` is i + 1's).
    let bounds: Vec<Barrett> = (1..=nodes as u64).map(Barrett::new).collect();
    let mut pick: Vec<NodeId> = Vec::with_capacity(nodes);
    for _ in 0..stripes {
        pick.clear();
        pick.extend(0..nodes);
        for (i, bound) in bounds.iter().enumerate().skip(1).rev() {
            pick.swap(i, bound.of(rng.next_u64()) as usize);
        }
        chunk_node.extend_from_slice(&pick[..n]);
    }
    chunk_node
}

/// `a % d` for one fixed `d` by one 64 × 64 → 128-bit multiplication:
/// Barrett reduction with `m = ⌊(2⁶⁴ − 1) / d⌋`. Write 2⁶⁴ − 1 = m·d + ρ
/// with 0 ≤ ρ < d. Then 2⁶⁴ − m·d = ρ + 1 ≤ d, so the quotient estimate
/// `q = ⌊a·m / 2⁶⁴⌋` is at most ⌊a / d⌋ and misses a / d by
/// a·(ρ + 1) / (d·2⁶⁴) ≤ a / 2⁶⁴ < 1: q is ⌊a / d⌋ or one less, and
/// `a − q·d` lies in `[0, 2d)`. One conditional subtraction makes it exact
/// for every `u64` `a` and every `d ≥ 1`.
#[derive(Clone, Copy)]
struct Barrett {
    m: u64,
    d: u64,
}

impl Barrett {
    fn new(d: u64) -> Self {
        assert!(d > 0, "remainder by zero");
        Barrett { m: u64::MAX / d, d }
    }

    /// `a % d`.
    #[inline]
    fn of(self, a: u64) -> u64 {
        let q = ((u128::from(a) * u128::from(self.m)) >> 64) as u64;
        let r = a - q * self.d;
        if r >= self.d {
            r - self.d
        } else {
            r
        }
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
            (1000, 14, 4287, PlacementStrategy::Random(0xC0DE)),
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

    /// The cache hands a layout out again only for the same four
    /// arguments: a call differing in any one of them gets its own draw,
    /// and a repeat shares the last draw, which a relocation on one copy
    /// does not reach.
    #[test]
    fn a_layout_is_shared_only_with_its_own_arguments() {
        let last: LastLayout = Mutex::new(None);
        let seed = PlacementStrategy::Random(0xC0DE);
        let keys = [
            (20, 14, 86, seed),
            (20, 14, 86, seed),
            (20, 14, 85, seed),
            (20, 13, 86, seed),
            (21, 14, 86, seed),
            (20, 14, 86, PlacementStrategy::Random(1)),
            (20, 14, 0, seed),
            (20, 14, 86, seed),
            (1000, 14, 4286, seed),
        ];
        let mut previous: Option<(_, Placement)> = None;
        for key @ (nodes, n, stripes, strategy) in keys {
            let old = per_stripe_layout(nodes, n, stripes, strategy);
            let mut new = Placement::shared(&last, nodes, n, stripes, strategy);
            assert_eq!((new.node_count(), new.stripe_width()), (nodes, n));
            assert_eq!(new.stripes(), stripes, "{key:?}");
            for (s, row) in old.iter().enumerate() {
                assert_eq!(new.stripe_nodes(s), row, "{key:?} stripe {s}");
            }
            if let Some((drawn, before)) = &previous {
                let shared = Arc::ptr_eq(&before.chunk_node, &new.chunk_node);
                assert_eq!(shared, *drawn == key, "{key:?} after {drawn:?}");
            }
            if stripes > 0 {
                let chunk = ChunkId {
                    stripe: 0,
                    index: 0,
                };
                let free = (0..nodes).find(|node| !old[0].contains(node)).unwrap();
                new.relocate(chunk, free);
                let again = Placement::shared(&last, nodes, n, stripes, strategy);
                assert_eq!(again.stripe_nodes(0), old[0], "{key:?}");
                assert_eq!(new.node_of(chunk), free);
            }
            previous = Some((key, Placement::shared(&last, nodes, n, stripes, strategy)));
        }
    }

    #[test]
    fn reciprocal_remainders_are_exact() {
        let divisors = (1..=4096)
            .chain((0..64).map(|p| 1 << p))
            .chain([u64::from(u32::MAX), u64::MAX]);
        let mut state = 0x5EED;
        for d in divisors {
            let rem = Barrett::new(d);
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
