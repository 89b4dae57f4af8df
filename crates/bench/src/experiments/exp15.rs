//! Exp#15: fault tolerance — node crashes injected mid-repair.
//!
//! Sweeps the number of secondary crashes (0 / 1 / 2) that strike the
//! cluster while a full-node repair is already running, for each repair
//! algorithm. Every crash kills the victim's in-flight repair flows and
//! turns its stripes into deeper erasures; drivers must re-plan against
//! the survivors and retry with backoff. Reported per cell: repair
//! throughput, the recovery ledger (re-plans, retries, aborted flows,
//! wasted repair traffic), and the data-loss window (first crash to
//! campaign end — the exposure interval a real operator cares about).
//!
//! There is no paper figure for this: ChameleonEC's evaluation assumes the
//! repair itself runs undisturbed. The sweep exists to show the tunable
//! plans keep their throughput lead when the helper set shrinks mid-flight.

use chameleon_simnet::FaultPlan;

use super::rs;
use crate::grid::{run_specs, RunSpec};
use crate::runner::FgSpec;
use crate::table::{chameleon_gains, pct, Report, Table};
use crate::{AlgoKind, Scale};

/// The algorithms under fault injection: the three §II-D baselines, one
/// RepairBoost variant, and ChameleonEC.
const ALGOS: [AlgoKind; 4] = [
    AlgoKind::Ppr,
    AlgoKind::RbPpr,
    AlgoKind::EcPipe,
    AlgoKind::Chameleon,
];

/// Secondary crashes injected mid-repair (0 = the fault-free control).
const CRASH_COUNTS: [usize; 3] = [0, 1, 2];

/// Seed stem for the crash schedules; the crash count is mixed in so each
/// sweep step draws an independent (node, time) pick.
const FAULT_SEED: u64 = 0xEC15;

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#15: fault tolerance under mid-repair crashes (scale '{}')",
        scale.name()
    ));

    let code = rs(4, 2);
    let cfg = scale.cluster_config(6);
    let fg = FgSpec::ycsb(scale.clients, scale.requests_per_client);

    let spec_for = |label: String, faults: Option<FaultPlan>, algo: AlgoKind| {
        let base = RunSpec::new(label, code.clone(), cfg.clone(), algo, Some(fg.clone()));
        match faults {
            Some(plan) => base.with_faults(plan),
            None => base,
        }
    };

    // Stage 1 — the fault-free control runs first: its repair durations fix
    // the crash window, so every algorithm faces the same schedule and
    // every crash lands while even the fastest campaign is still running.
    let control: Vec<RunSpec> = ALGOS
        .iter()
        .map(|&algo| spec_for(format!("0crash/{}", algo.label()), None, algo))
        .collect();
    let control_outs = run_specs(&control, jobs);
    let min_duration = control_outs
        .iter()
        .map(|o| o.outcome.duration.expect("control repair finished"))
        .fold(f64::INFINITY, f64::min);
    let window = (0.15 * min_duration, 0.6 * min_duration);

    // Stage 2 — the faulted cells. Node 0 is the repair victim; any other
    // storage node may crash.
    let candidates: Vec<usize> = (1..cfg.storage_nodes).collect();
    let mut cells: Vec<(usize, AlgoKind, Option<FaultPlan>)> =
        ALGOS.iter().map(|&a| (0, a, None)).collect();
    let mut specs = Vec::new();
    for &count in CRASH_COUNTS.iter().filter(|&&c| c > 0) {
        let plan =
            FaultPlan::seeded_crashes(FAULT_SEED + count as u64, &candidates, count, window, None);
        for &algo in &ALGOS {
            cells.push((count, algo, Some(plan.clone())));
            specs.push(spec_for(
                format!("{count}crash/{}", algo.label()),
                Some(plan.clone()),
                algo,
            ));
        }
    }
    let mut outs = control_outs;
    outs.extend(run_specs(&specs, jobs));

    let mut table = Table::new(
        "exp15_fault_tolerance",
        "repair under injected crashes",
        &[
            ("crashes", "crashes"),
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
            ("chunks", "chunks"),
            ("replans", "replans"),
            ("retries", "retries"),
            ("aborted", "aborted_flows"),
            ("wasted MB", "wasted_mb"),
            ("given up", "given_up"),
            ("loss window s", "loss_window_secs"),
            ("P99 ms", "p99_ms"),
            ("chunk p50 (s)", "chunk_p50_s"),
            ("chunk p95 (s)", "chunk_p95_s"),
            ("chunk p99 (s)", "chunk_p99_s"),
        ],
    );
    let mut throughput = Vec::new();
    for ((count, algo, plan), out) in cells.iter().zip(&outs) {
        let rec = &out.outcome.recovery;
        let loss_window = plan
            .as_ref()
            .and_then(|p| p.first_crash_secs())
            .map_or(0.0, |t| out.sim.end_secs() - t);
        table.push(vec![
            count.to_string(),
            algo.label(),
            format!("{:.1}", out.repair_mbps()),
            out.outcome.chunks_repaired.to_string(),
            rec.replans.to_string(),
            rec.retries.to_string(),
            rec.aborted_flows.to_string(),
            format!("{:.1}", rec.wasted_repair_bytes / 1e6),
            rec.given_up.to_string(),
            format!("{:.2}", loss_window),
            format!("{:.2}", out.p99_ms()),
            format!("{:.3}", out.chunk_pct_secs(0.50)),
            format!("{:.3}", out.chunk_pct_secs(0.95)),
            format!("{:.3}", out.chunk_pct_secs(0.99)),
        ]);
        throughput.push((*count, *algo, out.repair_mbps()));
    }
    report.tables.push(table);

    for g in chameleon_gains(&throughput) {
        let replans: usize = cells
            .iter()
            .zip(&outs)
            .filter(|((count, _, _), _)| *count == g.key)
            .map(|(_, out)| out.outcome.recovery.replans)
            .sum();
        report.note(format!(
            "  {} crash(es): ChameleonEC vs baseline average: {} ({replans} re-plans)",
            g.key,
            pct(g.vs_average)
        ));
    }
    report.note("(no paper figure: the evaluation assumes an undisturbed repair)");
    report
}
