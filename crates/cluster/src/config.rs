//! Cluster configuration and state.

use std::collections::BTreeSet;

use chameleon_simnet::{NodeCaps, NodeId, ResourceKind, SimConfig, Simulator, Topology};

use crate::placement::{ChunkId, Placement, PlacementStrategy};

/// How the cluster's nodes are wired into a network fabric.
///
/// `Flat` reproduces the historical rackless simulator byte-for-byte: only
/// per-node resources constrain flows. `Racked` compiles to a
/// [`Topology`]: nodes are assigned round-robin (`node % racks`) to racks
/// joined by ToR links sized for the rack's aggregate node bandwidth
/// (non-blocking at the edge) and — when `oversub > 1` — a spine carrying
/// `Σ ToR uplink / oversub`, the warehouse-fabric oversubscription the
/// paper's repair traffic competes against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// No fabric: only per-node resources bind (historical behavior).
    Flat,
    /// `racks` racks with non-blocking ToR links and a spine
    /// oversubscribed by `oversub` (`<= 1.0` models a non-blocking core).
    Racked {
        /// Number of racks (nodes are assigned round-robin).
        racks: usize,
        /// Spine oversubscription ratio: spine capacity is the sum of ToR
        /// uplink capacities divided by this. Values `<= 1.0` compile to a
        /// non-blocking core (no spine constraint at all).
        oversub: f64,
    },
}

impl TopologySpec {
    /// The paper-testbed preset: 3 racks, non-blocking core. Rack
    /// boundaries become observable (cross-rack bytes are accounted on the
    /// ToR links) without changing any flow's rate.
    pub fn paper() -> Self {
        TopologySpec::Racked {
            racks: 3,
            oversub: 1.0,
        }
    }

    /// The oversubscribed preset: 3 racks behind a 1:4 oversubscribed
    /// spine — cross-rack repair traffic contends for a quarter of the
    /// aggregate edge bandwidth.
    pub fn oversub() -> Self {
        TopologySpec::Racked {
            racks: 3,
            oversub: 4.0,
        }
    }

    /// Parses a CLI topology argument: `flat`, `paper`, `oversub`, or
    /// `racked:R,RATIO` (e.g. `racked:5,2.5`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names or malformed
    /// parameters.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "flat" => return Ok(TopologySpec::Flat),
            "paper" => return Ok(TopologySpec::paper()),
            "oversub" => return Ok(TopologySpec::oversub()),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("racked:") {
            let (racks, ratio) = rest
                .split_once(',')
                .ok_or_else(|| format!("expected racked:R,RATIO, got `{s}`"))?;
            let racks: usize = racks
                .parse()
                .map_err(|_| format!("bad rack count `{racks}`"))?;
            let oversub: f64 = ratio
                .parse()
                .map_err(|_| format!("bad oversubscription ratio `{ratio}`"))?;
            if racks == 0 {
                return Err("rack count must be positive".into());
            }
            if !oversub.is_finite() || oversub <= 0.0 {
                return Err(format!(
                    "oversubscription ratio must be positive and finite, got {oversub}"
                ));
            }
            return Ok(TopologySpec::Racked { racks, oversub });
        }
        Err(format!(
            "unknown topology `{s}` (expected flat, paper, oversub, or racked:R,RATIO)"
        ))
    }

    /// Number of racks the spec describes (1 for `Flat`).
    pub fn rack_count(&self) -> usize {
        match *self {
            TopologySpec::Flat => 1,
            TopologySpec::Racked { racks, .. } => racks,
        }
    }

    /// Compiles the spec into a simulator [`Topology`] for `nodes` nodes
    /// of uniform `caps` — `None` for `Flat` (the rackless engine).
    ///
    /// ToR links are sized for the largest rack's aggregate node bandwidth
    /// (edge-non-blocking), so only the spine — present when
    /// `oversub > 1.0` — can actually bind.
    pub fn compile(&self, nodes: usize, caps: NodeCaps) -> Option<Topology> {
        match *self {
            TopologySpec::Flat => None,
            TopologySpec::Racked { racks, oversub } => {
                let per_rack = nodes.div_ceil(racks);
                let tor_up = per_rack as f64 * caps.capacity(ResourceKind::Uplink);
                let tor_down = per_rack as f64 * caps.capacity(ResourceKind::Downlink);
                let spine = (oversub > 1.0).then(|| racks as f64 * tor_up / oversub);
                Some(Topology::round_robin(nodes, racks, tor_up, tor_down, spine))
            }
        }
    }
}

/// Errors from cluster construction and failure injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// Fewer nodes than the stripe width, or zero-sized parameters.
    BadConfig,
    /// A referenced node does not exist.
    UnknownNode,
    /// The topology names more racks than the simulator has nodes
    /// (storage and clients): the empty racks would still size the spine.
    RacksExceedNodes {
        /// Racks the topology asks for.
        racks: usize,
        /// Simulator nodes to spread over them.
        nodes: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::BadConfig => write!(f, "invalid cluster configuration"),
            ClusterError::UnknownNode => write!(f, "node does not exist"),
            ClusterError::RacksExceedNodes { racks, nodes } => {
                write!(
                    f,
                    "{racks} racks but only {nodes} nodes (storage and clients)"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Static description of a simulated cluster.
///
/// The fields model the paper's testbed (§V-A): 20 storage nodes, four
/// YCSB client machines, 10 Gb/s network, ~500 MB/s storage, 64 MB chunks
/// sliced into 1 MB pieces, and enough stripes that a failed node loses
/// 200 chunks (12.5 GiB of repair traffic).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of storage nodes.
    pub storage_nodes: usize,
    /// Number of client machines (they get simulator node ids after the
    /// storage nodes).
    pub clients: usize,
    /// Per-node resource capacities.
    pub node_caps: NodeCaps,
    /// Chunk size in bytes (64 MB in HDFS and the paper).
    pub chunk_size: u64,
    /// Slice size in bytes for pipelined transfers (1 MB in the paper).
    pub slice_size: u64,
    /// Stripe width `n = k + parity` of the erasure code in use.
    pub stripe_width: usize,
    /// Number of stripes stored.
    pub stripes: usize,
    /// Placement strategy.
    pub placement: PlacementStrategy,
    /// Bandwidth monitor window (15 s in §II-D).
    pub monitor_window_secs: f64,
    /// Network fabric joining the nodes ([`TopologySpec::Flat`] keeps the
    /// historical rackless behavior byte-for-byte).
    pub topology: TopologySpec,
}

impl ClusterConfig {
    /// A CI-friendly miniature of the paper testbed: same topology shape,
    /// smaller chunks and fewer stripes so experiments run in seconds.
    pub fn small(stripe_width: usize) -> Self {
        ClusterConfig {
            storage_nodes: 20,
            clients: 4,
            node_caps: NodeCaps::default(),
            chunk_size: 4 << 20,
            slice_size: 1 << 20,
            stripe_width,
            stripes: 40,
            placement: PlacementStrategy::Random(0xC0DE),
            monitor_window_secs: 15.0,
            topology: TopologySpec::Flat,
        }
    }

    /// Total simulator nodes (storage + clients).
    pub fn total_nodes(&self) -> usize {
        self.storage_nodes + self.clients
    }
}

/// A cluster: placement plus failure state. Builds the simulator
/// experiments run against.
///
/// Simulator node ids `0..storage_nodes` are storage nodes;
/// `storage_nodes..storage_nodes+clients` are client machines.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    /// The compiled fabric (`None` when flat): what the simulator is built
    /// with and what [`Cluster::same_rack`] reads.
    topology: Option<Topology>,
    placement: Placement,
    failed: BTreeSet<NodeId>,
    /// Alive storage nodes, ascending — the complement of `failed`, kept
    /// current by `fail_node`/`heal_node` so the per-request key mapping
    /// and the planners' candidate scans borrow it instead of rebuilding
    /// it from `failed` (a probe per storage node, per foreground request).
    alive: Vec<NodeId>,
}

impl Cluster {
    /// Creates a cluster from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::BadConfig`] if the stripe width exceeds the
    /// node count or any size parameter is zero, and
    /// [`ClusterError::RacksExceedNodes`] if the topology has more racks
    /// than the simulator has nodes.
    pub fn new(config: ClusterConfig) -> Result<Self, ClusterError> {
        if config.storage_nodes < config.stripe_width
            || config.stripe_width == 0
            || config.chunk_size == 0
            || config.slice_size == 0
            || config.slice_size > config.chunk_size
        {
            return Err(ClusterError::BadConfig);
        }
        let (racks, nodes) = (config.topology.rack_count(), config.total_nodes());
        if racks > nodes {
            return Err(ClusterError::RacksExceedNodes { racks, nodes });
        }
        let placement = Placement::new(
            config.storage_nodes,
            config.stripe_width,
            config.stripes,
            config.placement,
        );
        Ok(Cluster {
            alive: (0..config.storage_nodes).collect(),
            topology: config.topology.compile(nodes, config.node_caps),
            config,
            placement,
            failed: BTreeSet::new(),
        })
    }

    /// The static configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The chunk placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Number of storage nodes.
    pub fn storage_nodes(&self) -> usize {
        self.config.storage_nodes
    }

    /// Simulator node id of client `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= clients`.
    pub fn client_node(&self, i: usize) -> NodeId {
        assert!(i < self.config.clients, "client index out of range");
        self.config.storage_nodes + i
    }

    /// Builds a fresh simulator sized for this cluster (storage nodes and
    /// client machines share the same capacities, as on EC2).
    pub fn build_simulator(&self) -> Simulator {
        Simulator::new(SimConfig {
            nodes: vec![self.config.node_caps; self.config.total_nodes()],
            monitor_window_secs: self.config.monitor_window_secs,
            topology: self.topology.clone(),
        })
    }

    /// Whether two nodes share a rack of the compiled topology (always
    /// `true` when flat).
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.topology.as_ref().is_none_or(|t| t.same_rack(a, b))
    }

    /// Marks a storage node failed.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for a non-storage node.
    pub fn fail_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        if node >= self.config.storage_nodes {
            return Err(ClusterError::UnknownNode);
        }
        if self.failed.insert(node) {
            let at = self
                .alive
                .binary_search(&node)
                .expect("a storage node not failed is alive");
            self.alive.remove(at);
        }
        Ok(())
    }

    /// Restores a failed node (post-repair bookkeeping).
    pub fn heal_node(&mut self, node: NodeId) {
        if self.failed.remove(&node) {
            let at = self
                .alive
                .binary_search(&node)
                .expect_err("a failed node is not alive");
            self.alive.insert(at, node);
        }
    }

    /// Currently failed storage nodes.
    pub fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.failed.iter().copied()
    }

    /// Whether a storage node is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        node < self.config.storage_nodes && !self.failed.contains(&node)
    }

    /// Alive storage nodes, ascending.
    pub fn alive_storage_nodes(&self) -> &[NodeId] {
        &self.alive
    }

    /// Chunks lost if the given nodes fail (regardless of current failure
    /// state), in stripe order.
    pub fn lost_chunks(&self, nodes: &[NodeId]) -> Vec<ChunkId> {
        let mut out = Vec::new();
        for stripe in 0..self.placement.stripes() {
            for (index, &node) in self.placement.stripe_nodes(stripe).iter().enumerate() {
                if nodes.contains(&node) {
                    out.push(ChunkId { stripe, index });
                }
            }
        }
        out
    }

    /// Chunk indices of a stripe whose nodes are currently alive.
    pub fn alive_chunk_indices(&self, stripe: usize) -> Vec<usize> {
        self.placement
            .stripe_nodes(stripe)
            .iter()
            .enumerate()
            .filter(|(_, &node)| !self.failed.contains(&node))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of a stripe's chunks whose nodes are currently failed —
    /// `alive_chunk_indices(stripe).len()` subtracted from the stripe
    /// width, without building the list.
    pub fn erasures(&self, stripe: usize) -> usize {
        let nodes = self.placement.stripe_nodes(stripe);
        nodes.iter().filter(|n| self.failed.contains(n)).count()
    }

    /// Records that a chunk was repaired onto `destination`: the metadata
    /// now points there (the paper's heartbeat-driven NameNode update).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] if the destination is not an
    /// alive storage node.
    ///
    /// # Panics
    ///
    /// Panics if the relocation would put two chunks of one stripe on the
    /// same node (callers choose off-stripe destinations, so this
    /// indicates a scheduler bug).
    pub fn apply_repair(
        &mut self,
        chunk: crate::ChunkId,
        destination: NodeId,
    ) -> Result<(), ClusterError> {
        if !self.is_alive(destination) {
            return Err(ClusterError::UnknownNode);
        }
        self.placement.relocate(chunk, destination);
        Ok(())
    }

    /// Maps a workload key to an alive storage node (foreground requests
    /// are served by surviving replicas/chunks).
    ///
    /// # Panics
    ///
    /// Panics if every storage node has failed.
    pub fn key_to_node(&self, key: u64) -> NodeId {
        assert!(!self.alive.is_empty(), "all storage nodes failed");
        self.alive[(key % self.alive.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failing_a_node_loses_its_chunks() {
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        assert_eq!(cluster.client_node(0), 20, "clients follow the storage ids");
        // 40 stripes of width 6 over 20 nodes: about 12 chunks a node.
        let expected = cluster.placement().chunks_on(3).len();
        assert!((6..=18).contains(&expected), "chunks on node 3: {expected}");
        cluster.fail_node(3).unwrap();
        assert_eq!(cluster.lost_chunks(&[3]).len(), expected);
        assert!(!cluster.is_alive(3));
        assert_eq!(cluster.alive_storage_nodes().len(), 19);
        cluster.heal_node(3);
        assert!(cluster.is_alive(3));
    }

    #[test]
    fn alive_chunk_indices_exclude_failed() {
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let victim = cluster.placement().stripe_nodes(0)[2];
        cluster.fail_node(victim).unwrap();
        let alive = cluster.alive_chunk_indices(0);
        assert!(!alive.contains(&2));
        assert_eq!(alive.len(), 5);
    }

    #[test]
    fn key_to_node_skips_failed_nodes() {
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        cluster.fail_node(0).unwrap();
        for key in 0..100 {
            assert_ne!(cluster.key_to_node(key), 0);
        }
    }

    #[test]
    fn bad_configs_rejected() {
        let mut cfg = ClusterConfig::small(6);
        cfg.storage_nodes = 4;
        assert_eq!(Cluster::new(cfg).unwrap_err(), ClusterError::BadConfig);
        let mut cfg = ClusterConfig::small(6);
        cfg.slice_size = cfg.chunk_size * 2;
        assert_eq!(Cluster::new(cfg).unwrap_err(), ClusterError::BadConfig);
    }

    #[test]
    fn more_racks_than_nodes_rejected() {
        // 20 storage nodes and 4 clients: 24 one-node racks are fine, a
        // 25th would be empty yet still widen the spine.
        let mut cfg = ClusterConfig::small(6);
        cfg.topology = TopologySpec::Racked {
            racks: 24,
            oversub: 8.0,
        };
        assert!(Cluster::new(cfg.clone()).is_ok());
        cfg.topology = TopologySpec::Racked {
            racks: 25,
            oversub: 8.0,
        };
        let err = Cluster::new(cfg).unwrap_err();
        assert_eq!(
            err,
            ClusterError::RacksExceedNodes {
                racks: 25,
                nodes: 24
            }
        );
        assert_eq!(
            err.to_string(),
            "25 racks but only 24 nodes (storage and clients)"
        );
    }

    #[test]
    fn failing_client_node_rejected() {
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        assert_eq!(cluster.fail_node(20), Err(ClusterError::UnknownNode));
    }

    #[test]
    fn simulator_has_all_nodes() {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let sim = cluster.build_simulator();
        assert_eq!(sim.node_count(), 24);
    }

    #[test]
    fn topology_spec_parses_presets_and_custom() {
        assert_eq!(TopologySpec::parse("flat").unwrap(), TopologySpec::Flat);
        assert_eq!(TopologySpec::parse("paper").unwrap(), TopologySpec::paper());
        assert_eq!(
            TopologySpec::parse("oversub").unwrap(),
            TopologySpec::oversub()
        );
        assert_eq!(
            TopologySpec::parse("racked:5,2.5").unwrap(),
            TopologySpec::Racked {
                racks: 5,
                oversub: 2.5
            }
        );
        assert!(TopologySpec::parse("mesh").is_err());
        assert!(TopologySpec::parse("racked:0,2").is_err());
        assert!(TopologySpec::parse("racked:3,-1").is_err());
        assert!(TopologySpec::parse("racked:3,NaN").is_err());
        assert!(TopologySpec::parse("racked:3").is_err());
    }

    #[test]
    fn flat_spec_compiles_to_no_topology() {
        assert!(TopologySpec::Flat
            .compile(24, NodeCaps::default())
            .is_none());
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        assert!(cluster.build_simulator().topology().is_none());
    }

    #[test]
    fn racked_spec_compiles_edge_nonblocking_with_oversubscribed_spine() {
        let caps = NodeCaps::symmetric(100.0, 50.0);
        let spec = TopologySpec::Racked {
            racks: 3,
            oversub: 4.0,
        };
        let topo = spec.compile(24, caps).unwrap();
        assert_eq!(topo.rack_count(), 3);
        assert_eq!(topo.node_count(), 24);
        // 8 nodes per rack at 100 B/s each -> 800 B/s ToR links; the spine
        // carries a quarter of the 3-rack aggregate.
        assert_eq!(topo.link_capacity(topo.tor_up_link(0)), 800.0);
        assert_eq!(topo.link_capacity(topo.tor_down_link(2)), 800.0);
        let spine = topo.spine_link().expect("oversubscribed spine");
        assert_eq!(topo.link_capacity(spine), 600.0);
        // Nodes are assigned to racks round-robin.
        assert_eq!(topo.rack_of(0), 0);
        assert_eq!(topo.rack_of(4), 1);
        assert!(topo.same_rack(0, 3));
        assert!(!topo.same_rack(0, 4));
    }

    #[test]
    fn non_oversubscribed_racked_spec_has_no_spine() {
        let topo = TopologySpec::paper()
            .compile(24, NodeCaps::default())
            .unwrap();
        assert!(topo.spine_link().is_none());
        assert_eq!(topo.rack_count(), 3);
    }

    #[test]
    fn racked_cluster_builds_simulator_with_links() {
        let mut cfg = ClusterConfig::small(6);
        cfg.topology = TopologySpec::oversub();
        let cluster = Cluster::new(cfg).unwrap();
        assert!(cluster.same_rack(0, 3));
        assert!(!cluster.same_rack(0, 1));
        let sim = cluster.build_simulator();
        assert_eq!(sim.link_count(), 7); // 3 ToR-up + 3 ToR-down + spine
        assert_eq!(sim.topology().unwrap().rack_count(), 3);
    }
}
