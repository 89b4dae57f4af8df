//! Quickstart: encode a stripe, lose a chunk, repair it with ChameleonEC.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use chameleonec::cluster::{Cluster, ClusterConfig};
use chameleonec::codes::{ErasureCode, ReedSolomon};
use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleonec::core::run::Run;
use chameleonec::core::{RepairContext, RepairDriver};
use chameleonec::gf::mul_add_slice;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Pure coding: encode, erase, decode. ----------------------------
    let rs = ReedSolomon::new(4, 2)?;
    let data: Vec<Vec<u8>> = (0..4).map(|i| vec![0x10 * (i as u8 + 1); 1024]).collect();
    let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
    let stripe = rs.encode(&refs)?;
    println!(
        "encoded a stripe of {} chunks ({} data + {} parity)",
        stripe.len(),
        rs.k(),
        rs.n() - rs.k()
    );

    let lost = 1usize;
    let available: Vec<(usize, &[u8])> = [0, 2, 3, 4]
        .iter()
        .map(|&i| (i, stripe[i].as_slice()))
        .collect();
    let repaired = rs.repair(lost, &available)?;
    assert_eq!(repaired, stripe[lost]);
    println!("byte-level repair of chunk {lost} verified");

    // --- 2. Cluster-level repair under the simulator. ----------------------
    let mut cluster = Cluster::new(ClusterConfig::small(6))?;
    cluster.fail_node(0)?;
    let lost_chunks = cluster.lost_chunks(&[0]);
    println!(
        "node 0 failed: {} chunks lost across {} stripes",
        lost_chunks.len(),
        cluster.placement().stripes()
    );

    let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2)?));
    let mut run = Run::new(ctx.clone());
    let mut driver = ChameleonDriver::new(ctx.clone(), ChameleonConfig::default());
    driver.start(&mut run.sim, lost_chunks);
    run.drain(&mut driver)?;
    let outcome = driver.outcome(&run.sim);
    println!(
        "ChameleonEC repaired {} chunks in {:.3} s  ->  {:.1} MB/s repair throughput",
        outcome.chunks_repaired,
        outcome.duration.unwrap_or(0.0),
        outcome.throughput() / 1e6
    );

    // --- 3. Inspect one executed plan. --------------------------------------
    let plan = &driver.completed_plans()[0];
    println!(
        "first plan: destination node {}, depth {}, {:.0} MB of repair traffic",
        plan.destination(),
        plan.max_depth(),
        plan.traffic_bytes(ctx.chunk_size()) / 1e6
    );
    for p in plan.participants() {
        let to = p
            .parent
            .map_or(plan.destination(), |i| plan.participants()[i].node);
        println!(
            "  node {:>2} sends chunk {} (alpha = {}) -> node {to}",
            p.node, p.chunk_index, p.coeff
        );
    }

    // The coefficients really do reconstruct the chunk (Equation (1)).
    let mut out = vec![0u8; 1024];
    let sample: Vec<Vec<u8>> = (0..4).map(|i| vec![0x10 * (i as u8 + 1); 1024]).collect();
    let sample_refs: Vec<&[u8]> = sample.iter().map(|c| c.as_slice()).collect();
    let sample_stripe = ReedSolomon::new(4, 2)?.encode(&sample_refs)?;
    for p in plan.participants() {
        mul_add_slice(p.coeff, &sample_stripe[p.chunk_index], &mut out);
    }
    assert_eq!(out, sample_stripe[plan.chunk().index]);
    println!("plan coefficients verified against Equation (1)");
    Ok(())
}
