//! End-to-end repair correctness: for every repair algorithm and every
//! code family, the plans a full-node repair executes must reconstruct the
//! lost bytes exactly.

mod common;

use std::sync::Arc;

use chameleonec::codes::{Butterfly, ErasureCode, Lrc, ReedSolomon};
use chameleonec::core::baseline::{PlanShape, StaticRepairDriver};
use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleonec::core::{RepairContext, RepairDriver};

use common::{encode_all, failed_context, run_driver, tiny_config, verify_plan_bytes};

fn check_static(ctx: RepairContext, code: Arc<dyn ErasureCode>, shape: PlanShape, boosted: bool) {
    let stripes = ctx.cluster.placement().stripes();
    let chunk_len = ctx.chunk_size() as usize;
    let data = encode_all(code.as_ref(), stripes, chunk_len);
    let expected_chunks: usize = ctx
        .cluster
        .failed_nodes()
        .map(|n| ctx.cluster.placement().chunks_on(n).len())
        .sum();
    let mut driver = if boosted {
        StaticRepairDriver::boosted(ctx.clone(), shape, 42)
    } else {
        StaticRepairDriver::new(ctx.clone(), shape, 42)
    };
    let outcome = run_driver(&ctx, &mut driver, None);
    assert_eq!(
        outcome.chunks_repaired,
        expected_chunks,
        "{}",
        driver.name()
    );
    for plan in driver.completed_plans() {
        verify_plan_bytes(code.as_ref(), &data, plan);
    }
}

fn check_chameleon(ctx: RepairContext, code: Arc<dyn ErasureCode>, config: ChameleonConfig) {
    let stripes = ctx.cluster.placement().stripes();
    let chunk_len = ctx.chunk_size() as usize;
    let data = encode_all(code.as_ref(), stripes, chunk_len);
    let expected_chunks: usize = ctx
        .cluster
        .failed_nodes()
        .map(|n| ctx.cluster.placement().chunks_on(n).len())
        .sum();
    let mut driver = ChameleonDriver::new(ctx.clone(), config);
    let outcome = run_driver(&ctx, &mut driver, None);
    assert_eq!(
        outcome.chunks_repaired,
        expected_chunks,
        "{}",
        driver.name()
    );
    for plan in driver.completed_plans() {
        verify_plan_bytes(code.as_ref(), &data, plan);
    }
}

#[test]
fn rs_repair_bytes_cr_ppr_ecpipe() {
    for shape in [PlanShape::Star, PlanShape::Tree, PlanShape::Chain] {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
        let ctx = failed_context(code.clone(), tiny_config(6, 12), &[0]);
        check_static(ctx, code, shape, false);
    }
}

#[test]
fn rs_repair_bytes_repairboost_variants() {
    for shape in [PlanShape::Star, PlanShape::Chain] {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
        let ctx = failed_context(code.clone(), tiny_config(6, 12), &[0]);
        check_static(ctx, code, shape, true);
    }
}

#[test]
fn rs_repair_bytes_chameleon() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let ctx = failed_context(code.clone(), tiny_config(6, 12), &[0]);
    check_chameleon(ctx, code, ChameleonConfig::default());
}

#[test]
fn rs_10_4_chameleon_full_width() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(10, 4).unwrap());
    let ctx = failed_context(code.clone(), tiny_config(14, 8), &[3]);
    check_chameleon(ctx, code, ChameleonConfig::default());
}

#[test]
fn lrc_repair_bytes_all_algorithms() {
    let code: Arc<dyn ErasureCode> = Arc::new(Lrc::new(4, 2, 2).unwrap());
    for shape in [PlanShape::Star, PlanShape::Tree, PlanShape::Chain] {
        let ctx = failed_context(code.clone(), tiny_config(8, 10), &[1]);
        check_static(ctx, code.clone(), shape, false);
    }
    let ctx = failed_context(code.clone(), tiny_config(8, 10), &[1]);
    check_chameleon(ctx, code, ChameleonConfig::default());
}

#[test]
fn butterfly_repair_bytes() {
    let code: Arc<dyn ErasureCode> = Arc::new(Butterfly::new());
    let ctx = failed_context(code.clone(), tiny_config(4, 10), &[2]);
    check_static(ctx, code.clone(), PlanShape::Star, false);
    let ctx = failed_context(code.clone(), tiny_config(4, 10), &[2]);
    check_chameleon(ctx, code, ChameleonConfig::default());
}

#[test]
fn multi_node_failure_repair_bytes() {
    // Two failed nodes with RS(4,2): every stripe still repairable.
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let ctx = failed_context(code.clone(), tiny_config(6, 16), &[0, 5]);
    check_chameleon(ctx, code, ChameleonConfig::default());
}

#[test]
fn io_variant_repair_bytes() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let ctx = failed_context(code.clone(), tiny_config(6, 10), &[0]);
    check_chameleon(ctx, code, ChameleonConfig::io());
}

#[test]
fn repaired_stripes_keep_fault_tolerance() {
    // After repair, each chunk's destination must not collide with the
    // stripe's surviving nodes (the stripe still spans n distinct nodes).
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let ctx = failed_context(code.clone(), tiny_config(6, 12), &[0]);
    let mut driver = ChameleonDriver::new(ctx.clone(), ChameleonConfig::default());
    run_driver(&ctx, &mut driver, None);
    for plan in driver.completed_plans() {
        let stripe_nodes = ctx.cluster.placement().stripe_nodes(plan.chunk().stripe);
        assert!(
            !stripe_nodes.contains(&plan.destination()),
            "destination collides with stripe"
        );
    }
}
