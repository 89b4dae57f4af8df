//! Crash-recovery correctness: a helper (or data-holding) node crash at a
//! seeded instant mid-campaign must still yield byte-identical
//! reconstruction after re-planning — including the cascaded two-erasure
//! case where the crashed node held stripe data of its own.

mod common;

use std::sync::Arc;

use chameleonec::codes::{Butterfly, ErasureCode, Lrc, ReedSolomon};
use chameleonec::core::baseline::{PlanShape, StaticRepairDriver};
use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleonec::core::{RepairContext, RepairDriver, RepairOutcome};
use chameleonec::simnet::faults::{splitmix64, unit};
use chameleonec::simnet::{FaultPlan, FaultSpec};

use common::{encode_all, failed_context, run_driver, tiny_config, verify_plan_bytes};

/// The alive storage node sharing the most stripes with `victim` — crashing
/// it mid-repair turns those stripes into two-erasure repairs.
fn crash_partner(ctx: &RepairContext, victim: usize) -> usize {
    let placement = ctx.cluster.placement();
    (0..ctx.cluster.storage_nodes())
        .filter(|&n| n != victim)
        .max_by_key(|&n| {
            (0..placement.stripes())
                .filter(|&s| {
                    let nodes = placement.stripe_nodes(s);
                    nodes.contains(&n) && nodes.contains(&victim)
                })
                .count()
        })
        .expect("a partner node exists")
}

/// A crash instant seeded inside the fault-free campaign's duration.
fn seeded_crash_at(fault_free: &RepairOutcome, mut seed: u64) -> f64 {
    let duration = fault_free.duration.expect("fault-free run finishes");
    duration * (0.15 + 0.45 * unit(splitmix64(&mut seed)))
}

struct CrashRun {
    outcome: RepairOutcome,
    /// Did any verified plan repair a chunk on the crashed node in a stripe
    /// that also held the original victim (a cascaded two-erasure repair)?
    cascaded: bool,
}

/// Shared scenario: fail `victim`, measure the fault-free campaign, then
/// re-run with `partner` crashing at a seeded instant. Every completed plan
/// must reconstruct the lost bytes exactly.
fn run_crash_scenario<D, F, P>(
    code: Arc<dyn ErasureCode>,
    ctx: &RepairContext,
    victim: usize,
    seed: u64,
    make_driver: F,
    plans_of: P,
) -> CrashRun
where
    D: RepairDriver,
    F: Fn() -> D,
    P: Fn(&D) -> &[chameleonec::core::RepairPlan],
{
    let placement = ctx.cluster.placement();
    let chunk_len = ctx.chunk_size() as usize;
    let data = encode_all(code.as_ref(), placement.stripes(), chunk_len);
    let initial_chunks = placement.chunks_on(victim).len();
    let partner = crash_partner(ctx, victim);

    let mut dry = make_driver();
    let fault_free = run_driver(ctx, &mut dry, None);
    let at_secs = seeded_crash_at(&fault_free, seed);
    let faults = FaultPlan::new(vec![FaultSpec::Crash {
        node: partner,
        at_secs,
    }]);

    let mut driver = make_driver();
    let outcome = run_driver(ctx, &mut driver, Some(&faults));
    assert!(
        outcome.chunks_total > initial_chunks,
        "the crash must enqueue the partner's chunks"
    );
    let mut cascaded = false;
    let mut verified = 0usize;
    for plan in plans_of(&driver) {
        verify_plan_bytes(code.as_ref(), &data, plan);
        verified += 1;
        let stripe = plan.chunk().stripe;
        if placement.node_of(plan.chunk()) == partner
            && placement.stripe_nodes(stripe).contains(&victim)
        {
            cascaded = true;
        }
    }
    assert_eq!(verified, outcome.chunks_repaired, "one plan per repair");
    CrashRun { outcome, cascaded }
}

fn assert_replanned(scenario: &str, runs: &[CrashRun]) {
    let replans: usize = runs.iter().map(|r| r.outcome.recovery.replans).sum();
    assert!(
        replans >= 1,
        "{scenario}: no seeded crash ever interrupted an in-flight attempt"
    );
}

#[test]
fn rs_recovery_static_star_replans_byte_identical() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let mut runs = Vec::new();
    for seed in [1u64, 2, 3] {
        let ctx = failed_context(code.clone(), tiny_config(6, 24), &[0]);
        let run = run_crash_scenario(
            code.clone(),
            &ctx,
            0,
            seed,
            || StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 42),
            StaticRepairDriver::completed_plans,
        );
        // RS(4,2) tolerates the second erasure: nothing is abandoned.
        assert_eq!(
            run.outcome.chunks_repaired, run.outcome.chunks_total,
            "seed {seed}: RS(4,2) repairs every chunk despite the crash"
        );
        runs.push(run);
    }
    assert_replanned("rs static star", &runs);
    assert!(
        runs.iter().any(|r| r.cascaded),
        "no run exercised a cascaded two-erasure repair"
    );
}

#[test]
fn rs_recovery_boosted_chain_replans_byte_identical() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let mut runs = Vec::new();
    for seed in [1u64, 2, 3] {
        let ctx = failed_context(code.clone(), tiny_config(6, 24), &[0]);
        let run = run_crash_scenario(
            code.clone(),
            &ctx,
            0,
            seed,
            || StaticRepairDriver::boosted(ctx.clone(), PlanShape::Chain, 42),
            StaticRepairDriver::completed_plans,
        );
        assert_eq!(run.outcome.chunks_repaired, run.outcome.chunks_total);
        runs.push(run);
    }
    assert_replanned("rs boosted chain", &runs);
}

#[test]
fn rs_recovery_chameleon_replans_byte_identical() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let mut runs = Vec::new();
    for seed in [1u64, 2, 3] {
        let ctx = failed_context(code.clone(), tiny_config(6, 24), &[0]);
        let run = run_crash_scenario(
            code.clone(),
            &ctx,
            0,
            seed,
            || ChameleonDriver::new(ctx.clone(), ChameleonConfig::default()),
            ChameleonDriver::completed_plans,
        );
        assert_eq!(
            run.outcome.chunks_repaired, run.outcome.chunks_total,
            "seed {seed}: RS(4,2) repairs every chunk despite the crash"
        );
        runs.push(run);
    }
    assert_replanned("rs chameleon", &runs);
    assert!(
        runs.iter().any(|r| r.cascaded),
        "no run exercised a cascaded two-erasure repair"
    );
}

#[test]
fn lrc_recovery_replans_byte_identical() {
    let code: Arc<dyn ErasureCode> = Arc::new(Lrc::new(4, 2, 2).unwrap());
    let mut runs = Vec::new();
    for seed in [1u64, 2] {
        let ctx = failed_context(code.clone(), tiny_config(8, 20), &[1]);
        let run = run_crash_scenario(
            code.clone(),
            &ctx,
            1,
            seed,
            || ChameleonDriver::new(ctx.clone(), ChameleonConfig::default()),
            ChameleonDriver::completed_plans,
        );
        // LRC may legitimately skip a chunk whose stripe lost more than the
        // local group tolerates; everything repaired must still verify.
        assert!(run.outcome.chunks_repaired > 0);
        runs.push(run);
    }
    assert_replanned("lrc chameleon", &runs);
}

#[test]
fn lrc_recovery_static_tree_replans_byte_identical() {
    let code: Arc<dyn ErasureCode> = Arc::new(Lrc::new(4, 2, 2).unwrap());
    let mut runs = Vec::new();
    for seed in [1u64, 2] {
        let ctx = failed_context(code.clone(), tiny_config(8, 20), &[1]);
        let run = run_crash_scenario(
            code.clone(),
            &ctx,
            1,
            seed,
            || StaticRepairDriver::new(ctx.clone(), PlanShape::Tree, 42),
            StaticRepairDriver::completed_plans,
        );
        assert!(run.outcome.chunks_repaired > 0);
        runs.push(run);
    }
    assert_replanned("lrc static tree", &runs);
}

#[test]
fn butterfly_recovery_replans_byte_identical() {
    let code: Arc<dyn ErasureCode> = Arc::new(Butterfly::new());
    let mut runs = Vec::new();
    for seed in [1u64, 2, 3] {
        let ctx = failed_context(code.clone(), tiny_config(4, 16), &[2]);
        let run = run_crash_scenario(
            code.clone(),
            &ctx,
            2,
            seed,
            || ChameleonDriver::new(ctx.clone(), ChameleonConfig::default()),
            ChameleonDriver::completed_plans,
        );
        assert!(run.outcome.chunks_repaired > 0);
        runs.push(run);
    }
    assert_replanned("butterfly chameleon", &runs);
}
