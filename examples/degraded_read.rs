//! Degraded reads (Exp#10): a client requests a chunk on a failed node;
//! the system repairs it on the fly. Compares single-chunk repair latency
//! across algorithms and coding parameters.
//!
//! Run with: `cargo run --release --example degraded_read`

use std::sync::Arc;

use chameleonec::cluster::{Cluster, ClusterConfig};
use chameleonec::codes::{ErasureCode, ReedSolomon};
use chameleonec::core::baseline::{PlanShape, StaticRepairDriver};
use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleonec::core::run::Run;
use chameleonec::core::{RepairContext, RepairDriver};
use chameleonec::simnet::NodeCaps;

fn degraded_read_secs(
    k: usize,
    m: usize,
    make: &dyn Fn(RepairContext) -> Box<dyn RepairDriver>,
) -> f64 {
    let mut cfg = ClusterConfig::small(k + m);
    cfg.node_caps = NodeCaps::symmetric(125e6, 50e6);
    cfg.chunk_size = 64 << 20;
    cfg.slice_size = 1 << 20;
    cfg.stripes = 20;
    let mut cluster = Cluster::new(cfg).expect("cluster");
    // The client requests one chunk of stripe 0; its node just failed.
    let victim = cluster.placement().stripe_nodes(0)[0];
    cluster.fail_node(victim).expect("fail");
    let requested = chameleonec::cluster::ChunkId {
        stripe: 0,
        index: 0,
    };

    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(k, m).expect("code"));
    let mut run = Run::new(RepairContext::new(cluster, code));
    let mut driver = make(run.ctx.clone());
    driver.start(&mut run.sim, vec![requested]);
    run.drain(&mut *driver).expect("finished");
    driver.outcome(&run.sim).duration.expect("finished")
}

fn main() {
    println!("degraded read: time to restore one 64 MB chunk (idle 1 Gb/s cluster)");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>14}",
        "code", "CR", "PPR", "ECPipe", "ChameleonEC"
    );
    for (k, m) in [(4usize, 2usize), (6, 3), (8, 3), (10, 4)] {
        let cr = degraded_read_secs(k, m, &|ctx| {
            Box::new(StaticRepairDriver::new(ctx, PlanShape::Star, 3))
        });
        let ppr = degraded_read_secs(k, m, &|ctx| {
            Box::new(StaticRepairDriver::new(ctx, PlanShape::Tree, 3))
        });
        let pipe = degraded_read_secs(k, m, &|ctx| {
            Box::new(StaticRepairDriver::new(ctx, PlanShape::Chain, 3))
        });
        let cham = degraded_read_secs(k, m, &|ctx| {
            Box::new(ChameleonDriver::new(ctx, ChameleonConfig::default()))
        });
        println!("RS({k},{m})   {cr:>9.2}s {ppr:>9.2}s {pipe:>9.2}s {cham:>13.2}s");
    }
    println!("\n(lower is better; the degraded-read *throughput* is chunk_size / time)");
}
