//! Exp#11 (Fig. 22): breakdown study — ETRP (dispatch + tunable plans
//! only) vs full ChameleonEC (ETRP + SAR), with a straggler injected at
//! different points of a repair phase (0 s, 5 s, 10 s), compared against
//! the baselines. The straggler is mimicked by background readers
//! hammering one participating node (the paper uses eight Redis reader
//! threads).
//!
//! Paper result: ChameleonEC (ETRP+SAR) beats CR/PPR/ECPipe by
//! 34.5%/18.8%/43.5% in the disturbed phase, and beats plain ETRP by
//! ~31.4% — re-scheduling matters. The later the straggler appears, the
//! higher everyone's phase throughput.

use chameleon_core::run::stop_if;
use chameleon_simnet::{Event, FlowSpec, Traffic};

use super::rs;
use crate::grid::run_grid;
use crate::runner::stage;
use crate::table::{improvement, pct, value_of, Report, Table};
use crate::{AlgoKind, Scale};

/// The paper's monitored phase length: the straggler hits inside a 20 s
/// phase and the *phase's* repair throughput is reported.
const PHASE_SECS: f64 = 20.0;

/// Runs a full-node repair; at `straggle_at` seconds, eight background
/// readers flood one surviving node. Returns the repair throughput of the
/// monitored 20 s phase (repaired bytes written during `[0, 20 s)`), in
/// MB/s.
fn run_one(algo: AlgoKind, scale: &Scale, straggle_at: f64) -> f64 {
    let code = rs(10, 4);
    // 1 Gb/s links + stressed chunk count: the repair spans the monitored
    // 20 s phase so mid-phase stragglers actually overlap it.
    let mut cfg = scale.cluster_config_with_bandwidth(14, 1.25e8, 500e6);
    cfg.monitor_window_secs = PHASE_SECS;
    let (mut run, lost) = stage(code, cfg, &[0], None, None, false).expect("cluster");
    let victim = 1usize; // a surviving node that will straggle
    let mut driver = algo.driver(run.ctx.clone(), 7);
    driver.start(&mut run.sim, lost);

    let hog = run.sim.schedule_in(straggle_at, 0);
    run.run(&mut *driver, |run, driver, ev, _| {
        if matches!(*ev, Event::Timer { id, .. } if id == hog) {
            // Eight reader threads pulling from the straggler, and the
            // symmetric write pressure (the paper's Redis readers).
            for i in 0..8usize {
                let peer = 2 + (i % 8);
                run.sim.start_flow(FlowSpec::network(
                    victim,
                    peer,
                    2 << 30,
                    Traffic::Background,
                ));
                run.sim.start_flow(FlowSpec::network(
                    peer,
                    victim,
                    2 << 30,
                    Traffic::Background,
                ));
            }
        }
        stop_if(driver.is_done())
    })
    .expect("repair stuck under straggler");
    // Repaired data written during the monitored phase.
    let m = run.sim.monitor();
    let written: f64 = (0..20)
        .map(|node| {
            m.usage(
                0,
                node,
                chameleon_simnet::ResourceKind::DiskWrite,
                Traffic::Repair,
            )
            .bytes
        })
        .sum();
    written / PHASE_SECS / 1e6
}

/// The five algorithms of the breakdown, in reporting order.
const ALGOS: [AlgoKind; 5] = [
    AlgoKind::Cr,
    AlgoKind::Ppr,
    AlgoKind::EcPipe,
    AlgoKind::Etrp,
    AlgoKind::Chameleon,
];

/// When, inside the monitored phase, the straggler appears (seconds).
const STRAGGLE_AT: [f64; 3] = [0.0, 5.0, 10.0];

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let scale = scale.stressed();
    let mut report = Report::default();
    report.note(format!(
        "Exp#11 (Fig. 22): breakdown with a straggler at different phase offsets \
         (scale '{}')",
        scale.name()
    ));

    let mut cells = Vec::new();
    for straggle_at in STRAGGLE_AT {
        for algo in ALGOS {
            cells.push((straggle_at, algo));
        }
    }
    let results = run_grid(&cells, jobs, |&(straggle_at, algo)| {
        run_one(algo, &scale, straggle_at)
    });

    // Simulated throughputs are deterministic; the kernel column records
    // which GF code path the (wall-clock-free) run was attributed to.
    let kernel = chameleon_gf::active_kernel();
    let mut table = Table::new(
        "exp11_breakdown",
        "repair throughput with an injected straggler",
        &[
            ("straggler at (s)", "straggle_at_secs"),
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
            ("gf kernel", "gf_kernel"),
        ],
    );
    let mut throughput = Vec::new();
    for (&(straggle_at, algo), &mbps) in cells.iter().zip(&results) {
        table.push(vec![
            format!("{straggle_at:.0}"),
            algo.label(),
            format!("{mbps:.1}"),
            kernel.to_string(),
        ]);
        throughput.push((straggle_at, algo, mbps));
    }
    report.tables.push(table);

    for straggle_at in STRAGGLE_AT {
        let at = |algo| value_of(&throughput, &straggle_at, algo).unwrap_or(0.0);
        report.note(format!(
            "  straggler at {straggle_at:.0}s: ETRP+SAR vs ETRP alone: {}",
            pct(improvement(at(AlgoKind::Chameleon), at(AlgoKind::Etrp)))
        ));
    }
    report.note(
        "(paper: ETRP+SAR beats CR/PPR/ECPipe by 34.5%/18.8%/43.5% and plain ETRP by ~31.4%; \
         later stragglers hurt less)",
    );
    report
}
