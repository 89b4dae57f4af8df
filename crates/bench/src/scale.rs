//! Experiment scale selection.

use chameleon_cluster::ClusterConfig;
use chameleon_simnet::NodeCaps;

/// How big the experiments run. The topology (20 storage nodes + 4
/// clients, 10 Gb/s links, ~500 MB/s disks, 64 MB chunks, 1 MB slices)
/// matches the paper at every scale; only the number of chunks and
/// requests shrinks at `Small`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Approximate chunks lost when one node fails (200 in the paper).
    pub chunks_per_node: usize,
    /// YCSB-style requests issued per client (100 000 in the paper).
    pub requests_per_client: usize,
    /// Number of foreground client machines (4 in the paper).
    pub clients: usize,
    /// Chunk size in bytes (64 MB in the paper).
    pub chunk_size: u64,
    /// Slice size in bytes (1 MB in the paper).
    pub slice_size: u64,
}

impl Scale {
    /// CI-friendly scale: ~20 chunks per node, 4 000 requests per client.
    pub fn small() -> Self {
        Scale {
            chunks_per_node: 20,
            requests_per_client: 4_000,
            clients: 4,
            chunk_size: 64 << 20,
            slice_size: 1 << 20,
        }
    }

    /// The paper's testbed parameters (§V-A).
    pub fn paper() -> Self {
        Scale {
            chunks_per_node: 200,
            requests_per_client: 100_000,
            clients: 4,
            chunk_size: 64 << 20,
            slice_size: 1 << 20,
        }
    }

    /// Reads `CHAMELEON_SCALE` (`small` | `paper`; default `small`).
    pub fn from_env() -> Self {
        match std::env::var("CHAMELEON_SCALE").as_deref() {
            Ok("paper") => Scale::paper(),
            _ => Scale::small(),
        }
    }

    /// A variant whose repair runs long enough to span several repair
    /// phases / trace transitions / straggler injections: more chunks and
    /// a longer foreground. Used by the time-dependent experiments
    /// (Exp#3, Exp#4, Exp#11), which are meaningless if the repair
    /// finishes inside a single phase.
    ///
    /// From `small` up this is at least 60 chunks per node and 20 000
    /// requests per client; a smaller scale grows by the same factors
    /// (3× and 5× `small`), so a test's tiny scale stays tiny.
    pub fn stressed(&self) -> Scale {
        Scale {
            chunks_per_node: (3 * self.chunks_per_node).min(self.chunks_per_node.max(60)),
            requests_per_client: (5 * self.requests_per_client)
                .min(self.requests_per_client.max(20_000)),
            ..*self
        }
    }

    /// The name used in output headers.
    pub fn name(&self) -> &'static str {
        if self.chunks_per_node >= 200 {
            "paper"
        } else {
            "small"
        }
    }

    /// A cluster configuration for a code of width `n = k + parity`,
    /// sized so that one failed node loses about
    /// [`Scale::chunks_per_node`] chunks.
    pub fn cluster_config(&self, stripe_width: usize) -> ClusterConfig {
        self.cluster_config_with_bandwidth(stripe_width, 1.25e9, 500e6)
    }

    /// Like [`Scale::cluster_config`] with explicit network/disk
    /// bandwidth (bytes/s) — used by the bandwidth-sweep experiments.
    pub fn cluster_config_with_bandwidth(
        &self,
        stripe_width: usize,
        network: f64,
        disk: f64,
    ) -> ClusterConfig {
        self.cluster_config_sized(stripe_width, 20, network, disk)
    }

    /// Like [`Scale::cluster_config`] with an explicit storage-node count
    /// — the cluster-size sweep (Exp#16). Chunk loss per failed node stays
    /// at [`Scale::chunks_per_node`]: the stripe count grows with the
    /// cluster, so bigger clusters mean a bigger contention graph, not a
    /// longer repair.
    pub fn cluster_config_with_nodes(
        &self,
        stripe_width: usize,
        storage_nodes: usize,
    ) -> ClusterConfig {
        self.cluster_config_sized(stripe_width, storage_nodes, 1.25e9, 500e6)
    }

    /// The fully explicit variant behind the `cluster_config*` helpers.
    pub fn cluster_config_sized(
        &self,
        stripe_width: usize,
        storage_nodes: usize,
        network: f64,
        disk: f64,
    ) -> ClusterConfig {
        let stripes = (self.chunks_per_node * storage_nodes).div_ceil(stripe_width);
        ClusterConfig {
            storage_nodes,
            clients: self.clients,
            node_caps: NodeCaps::symmetric(network, disk),
            chunk_size: self.chunk_size,
            slice_size: self.slice_size,
            stripe_width,
            stripes,
            placement: chameleon_cluster::PlacementStrategy::Random(0xC0DE),
            monitor_window_secs: 15.0,
            topology: chameleon_cluster::TopologySpec::Flat,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_cluster::Cluster;

    #[test]
    fn config_yields_requested_chunk_loss() {
        let scale = Scale::small();
        let cfg = scale.cluster_config(14);
        let cluster = Cluster::new(cfg).unwrap();
        let per_node: Vec<usize> = (0..20)
            .map(|n| cluster.placement().chunks_on(n).len())
            .collect();
        let avg = per_node.iter().sum::<usize>() as f64 / 20.0;
        assert!((avg - 20.0).abs() < 2.0, "avg {avg}");
    }

    #[test]
    fn sized_config_keeps_per_node_chunk_loss_constant() {
        let scale = Scale::small();
        for nodes in [20, 100, 500] {
            let cfg = scale.cluster_config_with_nodes(6, nodes);
            assert_eq!(cfg.storage_nodes, nodes);
            let total_chunks = cfg.stripes * cfg.stripe_width;
            let per_node = total_chunks as f64 / nodes as f64;
            assert!(
                (per_node - scale.chunks_per_node as f64).abs() < 1.0,
                "{nodes} nodes: {per_node} chunks/node"
            );
        }
    }

    #[test]
    fn paper_scale_matches_testbed() {
        let s = Scale::paper();
        assert_eq!(s.chunks_per_node, 200);
        assert_eq!(s.chunk_size, 64 << 20);
        assert_eq!(s.name(), "paper");
        assert_eq!(Scale::small().name(), "small");
    }

    #[test]
    fn stressed_keeps_the_named_scales_and_shrinks_below_them() {
        let counts = |s: Scale| {
            let s = s.stressed();
            (s.chunks_per_node, s.requests_per_client)
        };
        assert_eq!(counts(Scale::small()), (60, 20_000));
        assert_eq!(counts(Scale::paper()), (200, 100_000));
        let tiny = Scale {
            chunks_per_node: 2,
            requests_per_client: 100,
            ..Scale::small()
        };
        assert_eq!(counts(tiny), (6, 500));
    }
}
