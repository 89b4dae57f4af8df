//! Reproducibility: identical seeds and configurations must produce
//! bit-identical experiment results — the property that makes the
//! benchmark harness trustworthy.

mod common;

use std::sync::Arc;

use chameleonec::codes::{ErasureCode, ReedSolomon};
use chameleonec::core::baseline::{PlanShape, StaticRepairDriver};
use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleonec::core::run::Run;
use chameleonec::core::{RepairDriver, RepairOutcome};
use chameleonec::traces::{Workload, YcsbA};

use common::{failed_context, tiny_config};

fn one_run(seed: u64) -> (RepairOutcome, f64) {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let ctx = failed_context(code, tiny_config(6, 8), &[0]);
    let lost = ctx.cluster.placement().chunks_on(0);
    let mut run = Run::new(ctx.clone());
    let workloads = (0..2)
        .map(|i| Box::new(YcsbA::new(seed + i)) as Box<dyn Workload>)
        .collect();
    run.start_foreground(workloads, 150);
    let mut driver = StaticRepairDriver::new(ctx, PlanShape::Tree, seed);
    driver.start(&mut run.sim, lost);
    run.drain(&mut driver)
        .expect("repair and foreground finish");
    let fg = run.foreground.expect("started above");
    (driver.outcome(&run.sim), fg.report(&run.sim).p99_latency)
}

#[test]
fn identical_seeds_give_identical_results() {
    let (a, p99_a) = one_run(11);
    let (b, p99_b) = one_run(11);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.per_chunk_secs, b.per_chunk_secs);
    assert_eq!(p99_a.to_bits(), p99_b.to_bits());
}

#[test]
fn different_seeds_change_the_schedule() {
    let (a, _) = one_run(11);
    let (b, _) = one_run(12);
    // Plans are randomized per seed; timings should differ somewhere.
    assert_ne!(a.per_chunk_secs, b.per_chunk_secs);
}

#[test]
fn chameleon_runs_are_reproducible() {
    let run = || {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
        let ctx = failed_context(code, tiny_config(6, 8), &[0]);
        let lost = ctx.cluster.placement().chunks_on(0);
        let mut run = Run::new(ctx.clone());
        let mut driver = ChameleonDriver::new(ctx, ChameleonConfig::default());
        driver.start(&mut run.sim, lost);
        run.drain(&mut driver).expect("repair finishes");
        driver.outcome(&run.sim)
    };
    let a = run();
    let b = run();
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.per_chunk_secs, b.per_chunk_secs);
}
