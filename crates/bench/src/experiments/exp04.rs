//! Exp#4 (Fig. 15): adaptivity — the foreground trace *transitions* to a
//! different family every 15 s while the repair runs; we record repair
//! throughput over time.
//!
//! Paper result: ChameleonEC dips briefly right after each transition
//! (~19% for a few seconds) and then recovers its lead; overall it
//! improves average throughput by 51.5% / 53.0% / 97.2% over CR / PPR /
//! ECPipe.

use std::ops::ControlFlow;

use chameleon_core::run::{stop_if, Routed};
use chameleon_simnet::{Event, ResourceKind, Traffic};
use chameleon_traces::TraceKind;

use super::rs;
use crate::grid::run_grid;
use crate::runner::{client_seed, stage, FgSpec};
use crate::table::{sparkline, value_of, Report, Table};
use crate::{AlgoKind, Scale};

const TRANSITION_SECS: f64 = 15.0;

/// Runs a repair while cycling the foreground trace; returns per-window
/// repair throughput (MB/s) plus the overall repair throughput.
fn run_one(algo: AlgoKind, scale: &Scale) -> (Vec<f64>, f64) {
    let code = rs(10, 4);
    // 1 Gb/s links + a stressed chunk count so the repair spans several
    // 15 s trace transitions.
    let mut cfg = scale.cluster_config_with_bandwidth(14, 1.25e8, 500e6);
    cfg.monitor_window_secs = 5.0;
    let sequence = TraceKind::ALL;
    let fg = FgSpec::uniform(sequence[0], scale.clients, usize::MAX);
    let (mut run, lost) = stage(code, cfg, &[0], Some(fg), None, false).expect("cluster");

    let mut driver = algo.driver(run.ctx.clone(), 7);
    driver.start(&mut run.sim, lost);

    let mut transition = run.sim.schedule_in(TRANSITION_SECS, 0);
    let mut phase = 1usize;
    run.run(&mut *driver, |run, driver, ev, routed| {
        let fg = run.foreground.as_mut().expect("started above");
        match (routed, ev) {
            (Routed::Unclaimed, Event::Timer { id, .. }) if *id == transition => {
                let kind = sequence[phase % sequence.len()];
                for c in 0..scale.clients {
                    fg.replace_workload(
                        c,
                        kind.build(client_seed(0xFACE + 100 * phase as u64, c as u64)),
                    );
                }
                phase += 1;
                transition = run.sim.schedule_in(TRANSITION_SECS, 0);
            }
            (Routed::Repair, _) => {
                if driver.is_done() {
                    fg.stop();
                }
            }
            _ => return stop_if(driver.is_done() && fg.in_flight_count() == 0),
        }
        ControlFlow::Continue(())
    })
    .expect("repair stuck");

    // Repaired data per window = repair-tagged disk writes.
    let m = run.sim.monitor();
    let series: Vec<f64> = (0..m.window_count())
        .map(|w| {
            (0..20)
                .map(|node| {
                    m.usage(w, node, ResourceKind::DiskWrite, Traffic::Repair)
                        .bytes
                })
                .sum::<f64>()
                / m.window_secs()
                / 1e6
        })
        .collect();
    (series, driver.outcome(&run.sim).throughput() / 1e6)
}

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let scale = scale.stressed();
    let mut report = Report::default();
    report.note(format!(
        "Exp#4 (Fig. 15): repair throughput under trace transitions every {TRANSITION_SECS} s \
         (scale '{}')",
        scale.name()
    ));

    let algos: Vec<AlgoKind> = AlgoKind::HEADLINE.to_vec();
    let results = run_grid(&algos, jobs, |&algo| run_one(algo, &scale));

    let mut table = Table::new(
        "exp04_adaptivity",
        "repair throughput over time (5 s windows)",
        &[
            ("algorithm", "algorithm"),
            ("t (s)", "t_secs"),
            ("repair MB/s", "repair_mbps"),
        ],
    );
    for (&algo, (series, _)) in algos.iter().zip(&results) {
        report.note(format!(
            "  {:<12} {}  ({} windows)",
            algo.label(),
            sparkline(series),
            series.len()
        ));
        for (w, mbps) in series.iter().enumerate() {
            table.push(vec![
                algo.label(),
                format!("{:.0}", w as f64 * 5.0),
                format!("{mbps:.1}"),
            ]);
        }
    }
    report.tables.push(table);

    report.note("\noverall repair throughput:");
    let overall: Vec<_> = algos
        .iter()
        .zip(&results)
        .map(|(&algo, (_, total))| ((), algo, *total))
        .collect();
    let cham = value_of(&overall, &(), AlgoKind::Chameleon).unwrap_or(0.0);
    for (_, algo, total) in &overall {
        let vs = if *algo == AlgoKind::Chameleon {
            String::new()
        } else {
            format!("  (ChameleonEC {:+.1}%)", (cham / total - 1.0) * 100.0)
        };
        report.note(format!("  {:<12} {:>8.1} MB/s{}", algo.label(), total, vs));
    }
    report.note("(paper: +51.5%/+53.0%/+97.2% over CR/PPR/ECPipe)");
    report
}
