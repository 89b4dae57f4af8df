//! Property-based tests for placement and failure handling, and for the
//! fault and topology spec parsers on arbitrary input.

use chameleon_cluster::{
    ChunkId, Cluster, ClusterConfig, Placement, PlacementStrategy, TopologySpec,
};
use chameleon_simnet::{FaultPlan, FaultSpec};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// Text over the alphabet the fault and topology grammars are spelled in
/// (`crash:slowdiskrecover@x+,.-0123456789naif `): up to three
/// comma-joined specs assembled slot by slot from well-formed and broken
/// pieces, with one character of the alphabet spliced in one time in four.
fn spec_text() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"crash:slowdiskrecover@x+,.-0123456789naif ";
    const KINDS: [&str; 7] = [
        "crash:", "recover:", "slow:", "disk:", "racked:", "slow", "dis:",
    ];
    const NODES: [&str; 7] = ["0", "3", "19", "", "-1", "3.5", "99999999999999999999"];
    const NUMS: [&str; 11] = [
        "0", "3", "2.5", ".5", "1.", "-0", "1e400", "-1", "nan", "inf", "",
    ];
    let n = || 0..NUMS.len();
    let spec = (
        0..KINDS.len(),
        0..NODES.len(),
        n(),
        (any::<bool>(), n(), n()),
    );
    let specs = proptest::collection::vec(spec, 1..4).prop_map(|specs| {
        let text = specs
            .iter()
            .map(|&(kind, node, at, (window, factor, secs))| {
                let (node, at) = (NODES[node], NUMS[at]);
                match KINDS[kind] {
                    "racked:" => format!("racked:{node},{at}"),
                    kind if window => format!("{kind}{node}@{at}x{}+{}", NUMS[factor], NUMS[secs]),
                    kind => format!("{kind}{node}@{at}"),
                }
            });
        text.collect::<Vec<_>>().join(",")
    });
    (specs, any::<u64>(), 0..ALPHABET.len()).prop_map(|(mut text, at, c)| {
        if at % 4 == 0 {
            text.insert((at / 4) as usize % (text.len() + 1), ALPHABET[c] as char);
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The spec parsers return errors, never panic, and whatever they
    /// accept the plan constructor accepts too: `FaultSpec::parse` and
    /// `FaultPlan::new` share one check.
    #[test]
    fn spec_parsers_never_panic_and_agree_with_the_plan_check(text in spec_text()) {
        for part in text.split(',') {
            if let Ok(spec) = FaultSpec::parse(part) {
                prop_assert_eq!(FaultPlan::new(vec![spec]).specs().to_vec(), vec![spec]);
            }
        }
        // Every tail that starts a spec: the list form, and a topology
        // spec (which has a comma of its own) standing last.
        let starts = text.match_indices(',').map(|(i, _)| i + 1);
        for tail in [0].into_iter().chain(starts).map(|i| &text[i..]) {
            if let Ok(plan) = FaultPlan::parse_list(tail) {
                prop_assert_eq!(FaultPlan::new(plan.specs().to_vec()), plan);
            }
            if let Ok(TopologySpec::Racked { racks, oversub }) = TopologySpec::parse(tail) {
                prop_assert!(racks > 0 && oversub.is_finite() && oversub > 0.0);
            }
        }
    }
}

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
