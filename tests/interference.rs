//! Repair/foreground interference behaviour (the phenomenon of §II-D):
//! foreground traffic slows repair down, and ChameleonEC handles the
//! contention at least as well as conventional repair.

mod common;

use std::sync::Arc;

use chameleonec::cluster::ForegroundReport;
use chameleonec::codes::{ErasureCode, ReedSolomon};
use chameleonec::core::baseline::{PlanShape, StaticRepairDriver};
use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleonec::core::run::{NoRepair, Run};
use chameleonec::core::{RepairContext, RepairDriver, RepairOutcome};
use chameleonec::traces::{Workload, YcsbA};

use common::{contended_config, failed_context, failed_context_busiest};

/// Runs a repair concurrently with `clients` YCSB clients; returns the
/// repair outcome and foreground report.
fn run_with_foreground(
    ctx: &RepairContext,
    driver: &mut dyn RepairDriver,
    clients: usize,
    requests_per_client: usize,
) -> (RepairOutcome, ForegroundReport) {
    let mut run = Run::new(ctx.clone());
    let lost: Vec<_> = ctx
        .cluster
        .failed_nodes()
        .flat_map(|n| ctx.cluster.placement().chunks_on(n))
        .collect();
    assert!(!lost.is_empty(), "victim held no chunks");
    run.start_foreground(ycsb_clients(clients, 1000), requests_per_client);
    driver.start(&mut run.sim, lost);
    run.drain(driver).expect("repair and foreground finish");
    let fg = run.foreground.expect("started above");
    (driver.outcome(&run.sim), fg.report(&run.sim))
}

fn ycsb_clients(clients: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    (0..clients)
        .map(|i| Box::new(YcsbA::new(seed + i as u64)) as Box<dyn Workload>)
        .collect()
}

#[test]
fn foreground_traffic_slows_repair_down() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    // Enough concurrent client machines that contention is a physical
    // certainty rather than an artifact of where one RNG stream happens to
    // land the hot keys (each client machine has one request in flight).
    let mut cfg = contended_config(6, 30);
    cfg.clients = 12;
    let (ctx, _) = failed_context_busiest(code.clone(), cfg);

    let mut idle_driver = StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 7);
    let (idle, _) = run_with_foreground(&ctx, &mut idle_driver, 0, 0);

    let mut busy_driver = StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 7);
    let (busy, _) = run_with_foreground(&ctx, &mut busy_driver, 12, 2000);

    assert!(
        busy.duration.unwrap() > idle.duration.unwrap() * 1.02,
        "interference should prolong repair: idle {:?} busy {:?}",
        idle.duration,
        busy.duration
    );
}

#[test]
fn repair_prolongs_foreground_latency() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());

    // Foreground only (no failed node).
    let ctx_clean = failed_context(code.clone(), contended_config(6, 30), &[]);
    let mut clean = Run::new(ctx_clean);
    clean.start_foreground(ycsb_clients(2, 1000), 500);
    clean.drain(&mut NoRepair).expect("foreground finishes");
    let clean = clean.foreground.expect("started above").report(&clean.sim);

    // Foreground + CR repair.
    let (ctx, _) = failed_context_busiest(code.clone(), contended_config(6, 30));
    let mut driver = StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 7);
    let (_, contended) = run_with_foreground(&ctx, &mut driver, 2, 500);

    assert!(
        contended.p99_latency > clean.p99_latency,
        "repair should inflate foreground P99: {} vs {}",
        contended.p99_latency,
        clean.p99_latency
    );
}

#[test]
fn chameleon_is_competitive_under_interference() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());

    let (ctx, _) = failed_context_busiest(code.clone(), contended_config(6, 30));
    let mut cr = StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 7);
    let (cr_out, _) = run_with_foreground(&ctx, &mut cr, 3, 800);

    let (ctx, _) = failed_context_busiest(code.clone(), contended_config(6, 30));
    let mut cham = ChameleonDriver::new(ctx.clone(), ChameleonConfig::default());
    let (cham_out, _) = run_with_foreground(&ctx, &mut cham, 3, 800);

    // ChameleonEC should not lose badly to CR under contention (the paper
    // reports consistent wins; we assert a conservative bound to keep the
    // test robust at tiny scale).
    assert!(
        cham_out.throughput() >= cr_out.throughput() * 0.8,
        "ChameleonEC {:.1} vs CR {:.1} bytes/s",
        cham_out.throughput(),
        cr_out.throughput()
    );
}

#[test]
fn repair_and_foreground_bytes_are_accounted_separately() {
    use chameleonec::simnet::{ResourceKind, Traffic};
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let (ctx, victim) = failed_context_busiest(code.clone(), contended_config(6, 20));
    let mut run = Run::new(ctx.clone());
    let lost = ctx.cluster.placement().chunks_on(victim);
    run.start_foreground(ycsb_clients(1, 3), 100);
    let mut driver = StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 7);
    driver.start(&mut run.sim, lost.clone());
    run.drain(&mut driver)
        .expect("repair and foreground finish");
    let (sim, fg) = (&run.sim, run.foreground.expect("started above"));
    let m = sim.monitor();
    let mut repair_down = 0.0;
    let mut fg_down = 0.0;
    for node in 0..sim.node_count() {
        repair_down += m.total_bytes(node, ResourceKind::Downlink, Traffic::Repair);
        fg_down += m.total_bytes(node, ResourceKind::Downlink, Traffic::Foreground);
    }
    // Repair moved k chunks per lost chunk over the network.
    let expected_repair = lost.len() as f64 * 4.0 * ctx.chunk_size() as f64;
    assert!(
        (repair_down - expected_repair).abs() / expected_repair < 0.01,
        "repair bytes {repair_down} vs expected {expected_repair}"
    );
    assert!((fg_down - fg.report(sim).total_bytes).abs() < 1.0);
}
