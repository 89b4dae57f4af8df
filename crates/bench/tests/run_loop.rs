//! Event ownership through the product run loop, for the whole stack:
//! with faults, a repair side and foreground clients all live, every event
//! is somebody's, and once everybody is done only the fault plan fires.

use std::ops::ControlFlow;
use std::sync::Arc;

use chameleon_bench::runner::stage;
use chameleon_bench::{AlgoKind, FgSpec, Scale};
use chameleon_codes::{ErasureCode, ReedSolomon};
use chameleon_core::run::{RepairSide, Routed, Run};
use chameleon_core::{Orchestrator, OrchestratorConfig};
use chameleon_simnet::{Event, FaultPlan};

/// Runs until nothing is left to fire, letting only the queued abort
/// notices of attempts already torn down go unclaimed; while the repair
/// side and the foreground are both done, only a fault may fire.
fn run_owned(mut run: Run, side: &mut (impl RepairSide + ?Sized), label: &str) {
    let mut done = false;
    run.run(side, |run, side, ev, routed| {
        let aborted = matches!(ev, Event::FlowCompleted { outcome, .. } if !outcome.is_delivered());
        assert!(
            routed != Routed::Unclaimed || aborted,
            "{label}: nobody owns {ev:?}"
        );
        assert!(!done || routed == Routed::Fault, "{label} left {ev:?}");
        done = side.is_done() && run.foreground.as_ref().is_none_or(|fg| fg.is_done());
        ControlFlow::Continue(())
    })
    .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(side.is_done(), "{label}");
}

#[test]
fn every_algorithm_plain_and_orchestrated_owns_its_events_and_leaves_none() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let mut scale = Scale::small();
    scale.chunks_per_node = 2;
    let cfg = scale.cluster_config(6);
    let fg = || Some(FgSpec::ycsb(2, 150));
    let faults = FaultPlan::parse_list("crash:5@0.02,slow:7@0.01x0.3+0.1").unwrap();
    for (name, kind) in AlgoKind::NAMED {
        let staged = stage(code.clone(), cfg.clone(), &[0], fg(), Some(&faults), false);
        let (mut run, lost) = staged.unwrap();
        let mut driver = kind.driver(run.ctx.clone(), 7);
        driver.start(&mut run.sim, lost);
        run_owned(run, &mut *driver, name);

        let staged = stage(code.clone(), cfg.clone(), &[], fg(), Some(&faults), false);
        let (run, _) = staged.unwrap();
        let driver = kind.driver(run.ctx.clone(), 7);
        let mut orchestrator =
            Orchestrator::new(run.ctx.clone(), driver, OrchestratorConfig::default());
        run_owned(run, &mut orchestrator, &format!("orchestrated {name}"));
    }
}
