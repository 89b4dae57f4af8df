//! Stripe-to-node placement.

use std::sync::{Arc, Mutex, PoisonError};

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
/// stripe however many nodes the cluster has. Beside it sit the drawn
/// layout's index by node and a log of the positions moved since, so
/// [`chunks_on`](Placement::chunks_on) reads the chunks drawn onto a node
/// and the moves instead of every slot.
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
    /// The drawn layout by node; shared with every placement of the same
    /// draw and never changed.
    drawn: Arc<NodeIndex>,
    /// Flat positions relocated since the draw, ascending, each once.
    moved: Vec<u32>,
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
    /// Panics if `nodes < n` (a stripe cannot fit), if `n == 0`, or if the
    /// layout would hold more than `u32::MAX` chunks.
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
            .map(|(_, layout)| layout.clone());
        // Drawn outside the lock: two threads that miss on one key both
        // draw it, and either result is the same layout.
        let (chunk_node, drawn) = hit.unwrap_or_else(|| {
            let layout = draw(nodes, n, stripes, strategy);
            *lock() = Some((key, layout.clone()));
            layout
        });
        Placement {
            nodes,
            n,
            chunk_node,
            drawn,
            moved: Vec::new(),
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
        self.chunks_on_any(&[node])
    }

    /// All chunks stored on any of `nodes`, in stripe order, each once;
    /// ids that are repeated or not storage nodes add nothing. Costs the
    /// chunks drawn onto those nodes plus the relocations, not a scan of
    /// every slot: a drawn position counts while its chunk is still there,
    /// and a logged move counts where it points now.
    pub(crate) fn chunks_on_any(&self, nodes: &[NodeId]) -> Vec<ChunkId> {
        let here = |&&at: &&u32| nodes.contains(&self.chunk_node[at as usize]);
        let drawn = nodes
            .iter()
            .filter(|&&node| node < self.nodes)
            .map(|&node| self.drawn.positions(node));
        let mut at: Vec<u32> = Vec::with_capacity(drawn.clone().map(<[u32]>::len).sum::<usize>());
        for positions in drawn {
            at.extend(positions.iter().filter(here));
        }
        at.extend(self.moved.iter().filter(here));
        at.sort_unstable();
        at.dedup();
        at.into_iter()
            .map(|at| ChunkId {
                stripe: at as usize / self.n,
                index: at as usize % self.n,
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
        // In range of the layout, whose length fits a `u32` (see `draw`).
        let at = (chunk.stripe * self.n + chunk.index) as u32;
        if let Err(slot) = self.moved.binary_search(&at) {
            self.moved.insert(slot, at);
        }
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

/// A drawn layout: the flat chunk → node map and its index by node.
type Layout = (Arc<Vec<NodeId>>, Arc<NodeIndex>);

/// The arguments of the last layout drawn, and that layout.
type LastLayout = Mutex<Option<((usize, usize, usize, PlacementStrategy), Layout)>>;

/// A drawn layout's flat positions grouped by node, in compressed rows:
/// node `v`'s are `at[starts[v]..starts[v + 1]]`, ascending. Four bytes a
/// chunk plus four a node (0.23 MiB for 1 000 nodes × 4 286 stripes of
/// 14).
#[derive(Debug)]
struct NodeIndex {
    starts: Vec<u32>,
    at: Vec<u32>,
}

impl NodeIndex {
    /// The positions drawn onto `node`, ascending.
    fn positions(&self, node: NodeId) -> &[u32] {
        &self.at[self.starts[node] as usize..self.starts[node + 1] as usize]
    }
}

/// Draws the `stripes × n` flat layout: a stripe is the first `n` of a
/// fresh shuffle of `0..nodes`. The shuffle always starts from the
/// identity and draws for all `nodes` positions, so the RNG stream — and
/// with it every seeded placement — does not depend on `n`. The index by
/// node is counted in the same pass and filled from the finished map.
///
/// # Panics
///
/// Panics if the layout holds more than `u32::MAX` chunks.
fn draw(nodes: usize, n: usize, stripes: usize, strategy: PlacementStrategy) -> Layout {
    let PlacementStrategy::Random(seed) = strategy;
    let len = stripes * n;
    assert!(u32::try_from(len).is_ok(), "more than u32::MAX chunks");
    let mut chunk_node = Vec::with_capacity(len);
    let mut starts = vec![0u32; nodes + 1];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pick: Vec<NodeId> = Vec::with_capacity(nodes);
    for _ in 0..stripes {
        pick.clear();
        pick.extend(0..nodes);
        pick.shuffle(&mut rng);
        for &node in &pick[..n] {
            starts[node + 1] += 1;
        }
        chunk_node.extend_from_slice(&pick[..n]);
    }
    for v in 0..nodes {
        starts[v + 1] += starts[v];
    }
    let mut next = starts.clone();
    let mut at = vec![0; len];
    for (pos, &node) in chunk_node.iter().enumerate() {
        at[next[node] as usize] = pos as u32;
        next[node] += 1;
    }
    (Arc::new(chunk_node), Arc::new(NodeIndex { starts, at }))
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
                let indexed = Arc::ptr_eq(&before.drawn, &new.drawn);
                assert_eq!(indexed, shared, "{key:?}: the index goes with its map");
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
    #[should_panic(expected = "at least n nodes")]
    fn too_few_nodes_rejected() {
        let _ = Placement::new(4, 5, 1, PlacementStrategy::Random(0));
    }
}
