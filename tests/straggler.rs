//! Straggler injection (the Exp#11 scenario): a node participating in the
//! repair suddenly loses bandwidth to background "hog" flows; ChameleonEC's
//! straggler-aware re-scheduling must react and still finish correctly.

mod common;

use std::sync::Arc;

use chameleonec::codes::{ErasureCode, ReedSolomon};
use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleonec::core::run::{stop_if, Run};
use chameleonec::core::{RepairContext, RepairDriver, RepairOutcome};
use chameleonec::simnet::{Event, FlowSpec, Traffic};

use common::{encode_all, failed_context, tiny_config, verify_plan_bytes};

/// Runs a Chameleon repair; after `delay` seconds, floods `victim`'s
/// uplink and downlink with `hogs` large background flows.
fn run_with_straggler(
    ctx: &RepairContext,
    config: ChameleonConfig,
    victim: usize,
    hogs: usize,
    delay: f64,
) -> (RepairOutcome, ChameleonDriver) {
    let mut run = Run::new(ctx.clone());
    let lost: Vec<_> = ctx
        .cluster
        .failed_nodes()
        .flat_map(|n| ctx.cluster.placement().chunks_on(n))
        .collect();
    let mut driver = ChameleonDriver::new(ctx.clone(), config);
    driver.start(&mut run.sim, lost);
    let hog_timer = run.sim.schedule_in(delay, 99);
    let other = (victim + 1) % ctx.cluster.storage_nodes();
    run.run(&mut driver, |run, driver, ev, _| {
        if matches!(*ev, Event::Timer { id, .. } if id == hog_timer) {
            for _ in 0..hogs {
                // Large but finite hogs through both directions.
                run.sim.start_flow(FlowSpec::network(
                    victim,
                    other,
                    512 << 20,
                    Traffic::Background,
                ));
                run.sim.start_flow(FlowSpec::network(
                    other,
                    victim,
                    512 << 20,
                    Traffic::Background,
                ));
            }
        }
        stop_if(driver.is_done())
    })
    .expect("repair never finished under straggler");
    (driver.outcome(&run.sim), driver)
}

#[test]
fn repair_survives_a_straggler_and_stays_correct() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let ctx = failed_context(code.clone(), tiny_config(6, 10), &[0]);
    let data = encode_all(
        code.as_ref(),
        ctx.cluster.placement().stripes(),
        ctx.chunk_size() as usize,
    );
    // Hog a node likely to participate (node 1 holds stripe chunks).
    let (outcome, driver) = run_with_straggler(&ctx, ChameleonConfig::default(), 1, 6, 0.5);
    assert_eq!(
        outcome.chunks_repaired,
        ctx.cluster.placement().chunks_on(0).len()
    );
    for plan in driver.completed_plans() {
        verify_plan_bytes(code.as_ref(), &data, plan);
    }
}

#[test]
fn sar_reacts_to_stragglers() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    // A contended, slow cluster so the straggler bites mid-repair.
    let mut cfg = common::contended_config(6, 60);
    cfg.chunk_size = 1 << 20;
    cfg.slice_size = 256 * 1024;
    let (ctx, victim) = common::failed_context_busiest(code.clone(), cfg);
    let config = ChameleonConfig {
        check_interval_secs: 0.05,
        straggler_min_delay_secs: 0.1,
        straggler_progress_ratio: 0.9,
        ..ChameleonConfig::default()
    };
    // Hog a *surviving* node so it appears as a straggling participant.
    let hog_node = (victim + 1) % ctx.cluster.storage_nodes();
    let (_, driver) = run_with_straggler(&ctx, config, hog_node, 16, 0.05);
    let stats = driver.stats();
    assert!(
        stats.retunes + stats.reorders > 0,
        "SAR never fired: {stats:?}"
    );
}

#[test]
fn etrp_without_sar_never_retunes() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let ctx = failed_context(code.clone(), tiny_config(6, 8), &[0]);
    let (_, driver) = run_with_straggler(&ctx, ChameleonConfig::etrp_only(), 1, 8, 0.2);
    let stats = driver.stats();
    assert_eq!(stats.retunes, 0);
    assert_eq!(stats.reorders, 0);
}

#[test]
fn sar_helps_or_matches_under_heavy_straggler() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let mk = || failed_context(code.clone(), tiny_config(6, 12), &[0]);

    let config_sar = ChameleonConfig {
        check_interval_secs: 0.25,
        straggler_min_delay_secs: 0.5,
        ..ChameleonConfig::default()
    };
    let (with_sar, _) = run_with_straggler(&mk(), config_sar, 1, 10, 0.2);

    let config_etrp = ChameleonConfig {
        check_interval_secs: 0.25,
        straggler_min_delay_secs: 0.5,
        ..ChameleonConfig::etrp_only()
    };
    let (without, _) = run_with_straggler(&mk(), config_etrp, 1, 10, 0.2);

    // SAR should not be substantially worse (the paper reports it strictly
    // better; at tiny scale we allow 10% noise).
    assert!(
        with_sar.duration.unwrap() <= without.duration.unwrap() * 1.10,
        "SAR {:.2}s vs ETRP {:.2}s",
        with_sar.duration.unwrap(),
        without.duration.unwrap()
    );
}
