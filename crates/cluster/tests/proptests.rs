//! Property-based tests for placement and failure handling.

use chameleon_cluster::{ChunkId, Cluster, ClusterConfig, Placement, PlacementStrategy};
use proptest::prelude::*;

proptest! {
    #[test]
    fn placements_always_satisfy_one_chunk_per_node(
        nodes in 4usize..40,
        width in 2usize..12,
        stripes in 1usize..50,
        seed in any::<u64>(),
        rotation in any::<bool>(),
    ) {
        prop_assume!(nodes >= width);
        let strategy = if rotation {
            PlacementStrategy::Rotation
        } else {
            PlacementStrategy::Random(seed)
        };
        let p = Placement::new(nodes, width, stripes, strategy);
        prop_assert!(p.is_valid());
        // chunks_on and node_of agree.
        for node in 0..nodes {
            for chunk in p.chunks_on(node) {
                prop_assert_eq!(p.node_of(chunk), node);
            }
        }
        // Total chunk count conserved.
        let total: usize = (0..nodes).map(|n| p.chunks_on(n).len()).sum();
        prop_assert_eq!(total, stripes * width);
    }

    #[test]
    fn relocation_preserves_validity(
        stripes in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut p = Placement::new(12, 5, stripes, PlacementStrategy::Random(seed));
        // Move chunk (0, 0) to the first node hosting no chunk of stripe 0.
        let hosted = p.stripe_nodes(0).to_vec();
        let free = (0..12).find(|n| !hosted.contains(n)).expect("free node");
        p.relocate(ChunkId { stripe: 0, index: 0 }, free);
        prop_assert!(p.is_valid());
        prop_assert_eq!(p.node_of(ChunkId { stripe: 0, index: 0 }), free);
    }

    #[test]
    fn failures_and_heals_round_trip(
        victims in proptest::collection::btree_set(0usize..20, 1..4),
    ) {
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let victims: Vec<usize> = victims.into_iter().collect();
        for &v in &victims {
            cluster.fail_node(v).unwrap();
        }
        prop_assert_eq!(
            cluster.alive_storage_nodes().len(),
            20 - victims.len()
        );
        // Lost chunks are exactly the chunks on failed nodes.
        let lost = cluster.lost_chunks(&victims);
        let expected: usize = victims
            .iter()
            .map(|&v| cluster.placement().chunks_on(v).len())
            .sum();
        prop_assert_eq!(lost.len(), expected);
        for chunk in &lost {
            prop_assert!(victims.contains(&cluster.placement().node_of(*chunk)));
        }
        // Foreground keys never land on failed nodes.
        for key in 0..200u64 {
            prop_assert!(cluster.is_alive(cluster.key_to_node(key)));
        }
        for &v in &victims {
            cluster.heal_node(v);
        }
        prop_assert_eq!(cluster.alive_storage_nodes().len(), 20);
    }

    #[test]
    fn cached_alive_list_matches_the_filter_oracle(
        ops in proptest::collection::vec((any::<bool>(), 0usize..26), 0..80),
    ) {
        // `Cluster` keeps the ascending alive list current across
        // `fail_node`/`heal_node` instead of rebuilding it per request.
        // Whatever the sequence — repeated fails, heals of healthy nodes,
        // client and out-of-range ids (20..26) — it must equal the list
        // the old implementation filtered out of `is_alive` every time.
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let storage = cluster.storage_nodes();
        for (fail, node) in ops {
            if fail {
                prop_assert_eq!(cluster.fail_node(node).is_ok(), node < storage);
            } else {
                cluster.heal_node(node);
            }
            let oracle: Vec<usize> = (0..storage).filter(|&n| cluster.is_alive(n)).collect();
            prop_assert_eq!(cluster.alive_storage_nodes(), &oracle[..]);
            let failed: Vec<usize> = cluster.failed_nodes().collect();
            prop_assert_eq!(failed.len() + oracle.len(), storage);
            if oracle.is_empty() {
                continue;
            }
            for key in (0..64u64).chain([u64::MAX, u64::MAX - 1]) {
                let node = cluster.key_to_node(key);
                prop_assert!(cluster.is_alive(node));
                prop_assert_eq!(node, oracle[(key % oracle.len() as u64) as usize]);
            }
        }
    }
}
