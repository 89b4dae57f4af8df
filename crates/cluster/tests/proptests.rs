//! Property-based tests for placement and failure handling, for the fault
//! and topology spec parsers on arbitrary input, and for the latency
//! summaries' sorts.

use chameleon_cluster::stats::{percentile, LatencySummary};
use chameleon_cluster::{
    ChunkId, Cluster, ClusterConfig, Placement, PlacementStrategy, TopologySpec,
};
use chameleon_simnet::{FaultPlan, FaultSpec};
use proptest::prelude::*;
use proptest::test_runner::{ProptestConfig, TestCaseError};

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

/// The full scan `Cluster::lost_chunks` and `Placement::chunks_on` made
/// before the index by node: every slot of every stripe, in stripe order.
fn scan(p: &Placement, nodes: &[usize]) -> Vec<ChunkId> {
    (0..p.stripes())
        .flat_map(|stripe| {
            let row = p.stripe_nodes(stripe).iter().enumerate();
            row.filter(|(_, node)| nodes.contains(node))
                .map(move |(index, _)| ChunkId { stripe, index })
        })
        .collect()
}

/// `lost_chunks` over the victims, and over them twice, and `chunks_on`
/// over every node and two ids past the last, equal the scan.
fn agrees_with_the_scan(cluster: &Cluster, victims: &[usize]) -> Result<(), TestCaseError> {
    let p = cluster.placement();
    let lost = scan(p, victims);
    prop_assert_eq!(&cluster.lost_chunks(victims), &lost);
    prop_assert_eq!(cluster.lost_chunks(&[victims, victims].concat()), lost);
    for node in 0..p.node_count() + 2 {
        prop_assert_eq!(p.chunks_on(node), scan(p, &[node]));
    }
    Ok(())
}

proptest! {
    /// The index by node and its relocation log answer exactly what the
    /// scan answers: for any layout, for victim lists with repeats and ids
    /// that are not storage nodes, after any sequence of repairs (onto a
    /// chunk's own node, back where it was drawn, the same chunk again),
    /// and for clusters that share one drawn layout, where one cluster's
    /// repairs never show in another's answers.
    #[test]
    fn the_index_by_node_equals_the_full_scan(
        shape in (2usize..40, 1usize..12, 0usize..40, any::<u64>()),
        victims in proptest::collection::vec(0usize..44, 0..6),
        repairs in proptest::collection::vec((any::<u64>(), 0usize..40), 0..24),
    ) {
        let (nodes, width, stripes, seed) = shape;
        prop_assume!(nodes >= width);
        let cfg = ClusterConfig {
            storage_nodes: nodes,
            stripe_width: width,
            stripes,
            placement: PlacementStrategy::Random(seed),
            ..ClusterConfig::small(width)
        };
        let mut repaired = Cluster::new(cfg.clone()).unwrap();
        let untouched = Cluster::new(cfg.clone()).unwrap();
        let rows = |c: &Cluster| -> Vec<Vec<usize>> {
            (0..stripes).map(|s| c.placement().stripe_nodes(s).to_vec()).collect()
        };
        let drawn = rows(&untouched);
        agrees_with_the_scan(&repaired, &victims)?;
        for (pick, to) in repairs {
            if stripes == 0 {
                break;
            }
            let chunk = ChunkId {
                stripe: pick as usize % stripes,
                index: (pick as usize / stripes) % width,
            };
            let (to, row) = (to % nodes, repaired.placement().stripe_nodes(chunk.stripe));
            if (0..width).any(|i| i != chunk.index && row[i] == to) {
                continue;
            }
            let from = row[chunk.index];
            repaired.apply_repair(chunk, to).unwrap();
            prop_assert_eq!(repaired.placement().node_of(chunk), to);
            let p = repaired.placement();
            prop_assert_eq!(repaired.lost_chunks(&victims), scan(p, &victims));
            prop_assert_eq!(p.chunks_on(from), scan(p, &[from]));
            prop_assert_eq!(p.chunks_on(to), scan(p, &[to]));
        }
        agrees_with_the_scan(&repaired, &victims)?;
        agrees_with_the_scan(&untouched, &victims)?;
        let fresh = Cluster::new(cfg).unwrap();
        agrees_with_the_scan(&fresh, &victims)?;
        prop_assert_eq!(&rows(&untouched), &drawn);
        prop_assert_eq!(&rows(&fresh), &drawn);
    }
}

proptest! {
    #[test]
    fn placements_always_satisfy_one_chunk_per_node(
        nodes in 4usize..40,
        width in 2usize..12,
        stripes in 1usize..50,
        seed in any::<u64>(),
    ) {
        prop_assume!(nodes >= width);
        let p = Placement::new(nodes, width, stripes, PlacementStrategy::Random(seed));
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

/// A latency-like sample with every kind of tie a float sort can meet:
/// small integers that repeat, both zeros, NaNs of either sign and with a
/// payload, both infinities, and arbitrary bit patterns.
fn sample() -> impl Strategy<Value = f64> {
    (0usize..12, 0u8..6, any::<u64>()).prop_map(|(pick, small, bits)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => -f64::NAN,
        4 => f64::from_bits(0x7FF0_0000_0000_0001),
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        7..=9 => f64::from(small) * 1e-3,
        _ => f64::from_bits(bits),
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Under `total_cmp` two samples compare equal only when their bits
    /// are equal, so the unstable in-place sort leaves the very bits the
    /// stable one leaves, and a summary equals one read off a stably
    /// sorted copy, field for field.
    #[test]
    fn the_unstable_sort_leaves_the_stable_sorts_bits(
        samples in proptest::collection::vec(sample(), 0..300),
    ) {
        let mut stable = samples.clone();
        stable.sort_by(f64::total_cmp);
        let mut unstable = samples.clone();
        unstable.sort_unstable_by(f64::total_cmp);
        prop_assert_eq!(bits(&unstable), bits(&stable));

        let rank = |p: f64| {
            let rank = ((p * stable.len() as f64).ceil() as usize).clamp(1, stable.len());
            stable[rank - 1]
        };
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let got = percentile(&samples, p).map(f64::to_bits);
            prop_assert_eq!(got, (!stable.is_empty()).then(|| rank(p).to_bits()));
        }
        let Some(summary) = LatencySummary::from_samples(&samples) else {
            prop_assert!(samples.is_empty());
            return Ok(());
        };
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert_eq!(summary.count, samples.len());
        prop_assert_eq!(
            bits(&[summary.mean, summary.p50, summary.p95, summary.p99, summary.max]),
            bits(&[mean, rank(0.50), rank(0.95), rank(0.99), rank(1.0)])
        );
    }
}
