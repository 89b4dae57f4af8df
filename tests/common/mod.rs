//! Shared helpers for the cross-crate integration tests.
#![allow(dead_code)] // each test binary uses a different subset

use std::ops::ControlFlow;
use std::sync::Arc;

use chameleonec::cluster::{Cluster, ClusterConfig};
use chameleonec::codes::ErasureCode;
use chameleonec::core::run::Run;
use chameleonec::core::{RepairContext, RepairDriver, RepairOutcome};
use chameleonec::gf::mul_add_slice;

/// A tiny cluster configuration for byte-level tests (small chunks keep
/// simulations fast).
pub fn tiny_config(stripe_width: usize, stripes: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(stripe_width);
    cfg.chunk_size = 256 * 1024;
    cfg.slice_size = 64 * 1024;
    cfg.stripes = stripes;
    cfg
}

/// A throttled configuration where repair and foreground genuinely
/// contend: 125 MB/s links (1 Gb/s) and 50 MB/s disks, 4 MB chunks.
pub fn contended_config(stripe_width: usize, stripes: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(stripe_width);
    cfg.node_caps = chameleonec::simnet::NodeCaps::symmetric(125e6, 50e6);
    cfg.chunk_size = 4 << 20;
    cfg.slice_size = 1 << 20;
    cfg.stripes = stripes;
    cfg
}

/// The storage node holding the most chunks — a victim guaranteed to lose
/// data when failed.
pub fn busiest_node(cluster: &Cluster) -> usize {
    (0..cluster.storage_nodes())
        .max_by_key(|&n| cluster.placement().chunks_on(n).len())
        .expect("nodes exist")
}

/// Deterministic stripe data: `stripes x k` data chunks, then encoded.
pub fn encode_all(code: &dyn ErasureCode, stripes: usize, chunk_len: usize) -> Vec<Vec<Vec<u8>>> {
    (0..stripes)
        .map(|s| {
            let data: Vec<Vec<u8>> = (0..code.k())
                .map(|i| {
                    (0..chunk_len)
                        .map(|j| ((s * 131 + i * 31 + j * 7) % 251) as u8)
                        .collect()
                })
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
            code.encode(&refs).expect("encode")
        })
        .collect()
}

/// Runs a repair driver to completion against an otherwise idle cluster,
/// under `faults` if given: fault events are applied to the simulator and
/// forwarded to the driver's `on_fault`.
pub fn run_driver(
    ctx: &RepairContext,
    driver: &mut dyn RepairDriver,
    faults: Option<&chameleonec::simnet::FaultPlan>,
) -> RepairOutcome {
    let mut run = Run::new(ctx.clone());
    if let Some(plan) = faults {
        run.inject(plan);
    }
    let lost: Vec<_> = ctx
        .cluster
        .failed_nodes()
        .flat_map(|n| ctx.cluster.placement().chunks_on(n))
        .collect();
    driver.start(&mut run.sim, lost);
    let mut guard = 0u64;
    run.run(driver, |_, _, _, _| {
        guard += 1;
        assert!(guard < 50_000_000, "simulation runaway");
        ControlFlow::Continue(())
    })
    .expect("driver did not finish");
    driver.outcome(&run.sim)
}

/// Verifies that an executed plan reconstructs the failed chunk's bytes:
/// relayable plans must satisfy `sum coeff_i * chunk_i == failed`;
/// sub-chunk plans must name a source set from which the code's own repair
/// reproduces the chunk.
pub fn verify_plan_bytes(
    code: &dyn ErasureCode,
    stripe_data: &[Vec<Vec<u8>>],
    plan: &chameleonec::core::RepairPlan,
) {
    let chunk = plan.chunk();
    let stripe = &stripe_data[chunk.stripe];
    let expected = &stripe[chunk.index];
    let source_indices: Vec<usize> = plan.participants().iter().map(|p| p.chunk_index).collect();
    let relayable = plan
        .participants()
        .iter()
        .all(|p| (p.read_fraction - 1.0).abs() < 1e-12)
        && code
            .repair_coefficients(chunk.index, &source_indices)
            .is_ok();
    if relayable {
        let mut out = vec![0u8; expected.len()];
        for p in plan.participants() {
            mul_add_slice(p.coeff, &stripe[p.chunk_index], &mut out);
        }
        assert_eq!(
            &out, expected,
            "plan coefficients do not reconstruct stripe {} chunk {}",
            chunk.stripe, chunk.index
        );
    } else {
        let inputs: Vec<(usize, &[u8])> = plan
            .participants()
            .iter()
            .map(|p| (p.chunk_index, stripe[p.chunk_index].as_slice()))
            .collect();
        let got = code.repair(chunk.index, &inputs).expect("repair");
        assert_eq!(
            &got, expected,
            "sub-chunk sources cannot repair stripe {} chunk {}",
            chunk.stripe, chunk.index
        );
    }
}

/// Convenience: build a context over a cluster with one failed node.
pub fn failed_context(
    code: Arc<dyn ErasureCode>,
    cfg: ClusterConfig,
    victims: &[usize],
) -> RepairContext {
    let mut cluster = Cluster::new(cfg).expect("cluster");
    for &v in victims {
        cluster.fail_node(v).expect("fail node");
    }
    RepairContext::new(cluster, code)
}

/// Builds a context failing the node that holds the most chunks; returns
/// the context and the victim's id.
pub fn failed_context_busiest(
    code: Arc<dyn ErasureCode>,
    cfg: ClusterConfig,
) -> (RepairContext, usize) {
    let mut cluster = Cluster::new(cfg).expect("cluster");
    let victim = busiest_node(&cluster);
    cluster.fail_node(victim).expect("fail node");
    (RepairContext::new(cluster, code), victim)
}
