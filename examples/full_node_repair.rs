//! Full-node repair under YCSB foreground traffic: the paper's headline
//! scenario (Exp#1). Compares CR, PPR, ECPipe, and ChameleonEC on the
//! same failed node with the same clients, printing repair throughput and
//! foreground P99 latency.
//!
//! Run with: `cargo run --release --example full_node_repair`

use std::sync::Arc;

use chameleonec::cluster::{Cluster, ClusterConfig};
use chameleonec::codes::ReedSolomon;
use chameleonec::core::baseline::{PlanShape, StaticRepairDriver};
use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleonec::core::run::Run;
use chameleonec::core::{RepairContext, RepairDriver};
use chameleonec::simnet::NodeCaps;
use chameleonec::traces::{Workload, YcsbA};

fn config() -> ClusterConfig {
    let mut cfg = ClusterConfig::small(14);
    // 1 Gb/s links so the repair and the clients genuinely contend.
    cfg.node_caps = NodeCaps::symmetric(125e6, 50e6);
    cfg.chunk_size = 16 << 20;
    cfg.slice_size = 1 << 20;
    cfg.stripes = 40;
    cfg
}

fn run(make: &dyn Fn(RepairContext) -> Box<dyn RepairDriver>) -> (String, f64, f64) {
    let mut cluster = Cluster::new(config()).expect("cluster");
    cluster.fail_node(0).expect("fail");
    let lost = cluster.lost_chunks(&[0]);
    let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(10, 4).expect("code")));
    let mut run = Run::new(ctx);

    let workloads = (0..4)
        .map(|i| Box::new(YcsbA::new(100 + i as u64)) as Box<dyn Workload>)
        .collect();
    run.start_foreground(workloads, 1500);

    let mut driver = make(run.ctx.clone());
    driver.start(&mut run.sim, lost);
    run.drain(&mut *driver).expect("repair and clients finish");
    let outcome = driver.outcome(&run.sim);
    let report = run.foreground.expect("started above").report(&run.sim);
    (
        driver.name(),
        outcome.throughput() / 1e6,
        report.p99_latency * 1e3,
    )
}

type DriverFactory = Box<dyn Fn(RepairContext) -> Box<dyn RepairDriver>>;

fn main() {
    println!("full-node repair of RS(10,4) under 4 YCSB-A clients");
    println!(
        "{:<14} {:>20} {:>18}",
        "algorithm", "repair MB/s", "YCSB P99 (ms)"
    );
    let drivers: Vec<DriverFactory> = vec![
        Box::new(|ctx| Box::new(StaticRepairDriver::new(ctx, PlanShape::Star, 7))),
        Box::new(|ctx| Box::new(StaticRepairDriver::new(ctx, PlanShape::Tree, 7))),
        Box::new(|ctx| Box::new(StaticRepairDriver::new(ctx, PlanShape::Chain, 7))),
        Box::new(|ctx| Box::new(ChameleonDriver::new(ctx, ChameleonConfig::default()))),
    ];
    for make in &drivers {
        let (name, mbps, p99) = run(make.as_ref());
        println!("{name:<14} {mbps:>20.1} {p99:>18.2}");
    }
}
