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
use crate::grid::{sweep, RunSpec};
use crate::runner::{FgSpec, RunOutput};
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

/// Secondary crashes injected mid-repair, after the fault-free control (0).
const CRASH_COUNTS: [usize; 2] = [1, 2];

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

    let repair = |count: usize, algo: AlgoKind, faults: Option<FaultPlan>| {
        let label = format!("{count}crash/{}", algo.label());
        let mut spec = RunSpec::new(label, code.clone(), cfg.clone(), algo, Some(fg.clone()));
        spec.faults = faults;
        spec.execute()
    };

    // Stage 1 — the fault-free control runs first: its repair durations fix
    // the crash window, so every algorithm faces the same schedule and
    // every crash lands while even the fastest campaign is still running.
    let mut rows = sweep([0], &ALGOS, jobs, |_, algo| repair(0, algo, None));
    let min_duration = rows
        .iter()
        .map(|(_, _, o)| o.outcome.duration.expect("control repair finished"))
        .fold(f64::INFINITY, f64::min);
    let window = (0.15 * min_duration, 0.6 * min_duration);

    // Stage 2 — the faulted rows. Node 0 is the repair victim; any other
    // storage node may crash.
    let candidates: Vec<usize> = (1..cfg.storage_nodes).collect();
    let plan = |count: usize| {
        (count > 0).then(|| {
            FaultPlan::seeded_crashes(FAULT_SEED + count as u64, &candidates, count, window, None)
        })
    };
    rows.extend(sweep(CRASH_COUNTS, &ALGOS, jobs, |&count, algo| {
        repair(count, algo, plan(count))
    }));

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
    for (count, algo, out) in &rows {
        let rec = &out.outcome.recovery;
        let loss_window = plan(*count)
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
    }
    report.tables.push(table);

    for g in chameleon_gains(&rows, RunOutput::repair_mbps) {
        let replans: usize = rows
            .iter()
            .filter(|(count, _, _)| *count == g.key)
            .map(|(_, _, out)| out.outcome.recovery.replans)
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
