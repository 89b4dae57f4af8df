//! Exp#17: measured reliability — continuous multi-failure campaigns
//! under the cluster-wide repair orchestrator.
//!
//! Every other experiment repairs a fixed victim set to completion. This
//! one runs the cluster the way an operator sees it: a seeded Poisson
//! stream of node crashes (with recovery) plays against a long-running
//! [`Orchestrator`](chameleon_core::Orchestrator) that admits repairs
//! from a priority queue under a repair-bandwidth budget. Measured per
//! cell: data-loss events (a stripe exceeding `m` simultaneous
//! erasures), time to first loss, the repair ledger's terminal census,
//! and foreground interference.
//!
//! The sweep crosses repair algorithms with orchestration policies —
//! FIFO vs residual-redundancy priority queueing, and a fixed budget vs
//! one renegotiated each window from Monitor feedback — over several
//! fault-stream seeds. All cells of one seed face the *same* crash
//! schedule, so differences in loss counts are policy, not luck. The
//! aggregated result is a measured MTTDL per policy, printed next to the
//! closed-form §II-B model the generator is cross-checked against in
//! `chameleon-cluster`'s `reliability_crosscheck` test.

use chameleon_cluster::reliability::ReliabilityModel;
use chameleon_core::{BudgetPolicy, OrchestratorConfig, QueuePolicy};
use chameleon_simnet::{FaultPlan, FaultSpec};

use super::rs;
use crate::grid::run_grid;
use crate::runner::{run_orchestrated, FgSpec};
use crate::table::{Report, Table};
use crate::{AlgoKind, Scale};

/// Algorithms under campaign load: the cheapest baseline, the pipelined
/// baseline, and ChameleonEC.
const ALGOS: [AlgoKind; 3] = [AlgoKind::Cr, AlgoKind::EcPipe, AlgoKind::Chameleon];

/// Independent fault-stream seeds (every cell of one seed sees the same
/// crash schedule).
const SEEDS: [u64; 2] = [1, 2];

/// Fault-injection horizon: crashes arrive in `(0, HORIZON_SECS)`; the
/// campaign then drains.
const HORIZON_SECS: f64 = 90.0;

/// Mean time to failure per node (exponential lifetimes). 20 nodes at
/// this MTTF yield roughly a dozen crashes per horizon — enough overlap
/// that stripes reach two and occasionally three erasures.
const MTTF_SECS: f64 = 150.0;

/// Crashed nodes return after this long, restoring their chunks.
const RECOVER_SECS: f64 = 30.0;

/// Fixed repair budget in repair-read bytes/s (one chunk admission costs
/// `k × chunk_size`). Deliberately below the loss rate of the fault
/// stream at the paper's chunk count, so a backlog forms and queue
/// ordering matters.
const FIXED_BUDGET: f64 = 400e6;

/// Negotiated-budget knobs: fraction of measured idle uplink capacity
/// repair may take, and the floor that keeps repair alive under load.
const NEGOTIATED_HEADROOM: f64 = 0.02;
const NEGOTIATED_FLOOR: f64 = 200e6;

/// Seed stem for the fault streams.
const FAULT_SEED: u64 = 0xEC17;

/// The orchestration policies under test.
fn policies() -> [(&'static str, QueuePolicy, BudgetPolicy); 3] {
    [
        (
            "fifo/fixed",
            QueuePolicy::Fifo,
            BudgetPolicy::Fixed(FIXED_BUDGET),
        ),
        (
            "priority/fixed",
            QueuePolicy::RedundancyPriority,
            BudgetPolicy::Fixed(FIXED_BUDGET),
        ),
        (
            "priority/negotiated",
            QueuePolicy::RedundancyPriority,
            BudgetPolicy::Negotiated {
                headroom: NEGOTIATED_HEADROOM,
                floor: NEGOTIATED_FLOOR,
            },
        ),
    ]
}

/// One campaign cell.
#[derive(Clone)]
struct Cell {
    algo: AlgoKind,
    policy: &'static str,
    queue: QueuePolicy,
    budget: BudgetPolicy,
    seed: u64,
    faults: FaultPlan,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}/seed{}", self.policy, self.algo.label(), self.seed)
    }
}

/// Crashes scheduled in a plan (recoveries excluded).
fn crash_count(plan: &FaultPlan) -> usize {
    plan.specs()
        .iter()
        .filter(|s| matches!(s, FaultSpec::Crash { .. }))
        .count()
}

/// The header line that opens one cell's records in `exp17_ledger.jsonl`:
/// `{"event":"run","label":"…"}`.
pub fn run_line(label: &str) -> String {
    format!("{{\"event\":\"run\",\"label\":\"{label}\"}}")
}

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#17: measured reliability under continuous failures (scale '{}')",
        scale.name()
    ));
    report.note(format!(
        "  fault stream: {} nodes, MTTF {MTTF_SECS:.0}s, horizon {HORIZON_SECS:.0}s, \
         recovery after {RECOVER_SECS:.0}s",
        scale.cluster_config(6).storage_nodes
    ));

    let code = rs(4, 2);
    let cfg = scale.cluster_config(6);
    let fg = FgSpec::ycsb(scale.clients, scale.requests_per_client);
    let candidates: Vec<usize> = (0..cfg.storage_nodes).collect();

    let mut cells = Vec::new();
    for (policy, queue, budget) in policies() {
        for algo in ALGOS {
            for seed in SEEDS {
                // One schedule per seed, shared by every policy × algorithm
                // cell, so loss-count differences are attributable.
                let faults = FaultPlan::seeded_poisson(
                    FAULT_SEED.wrapping_add(seed),
                    &candidates,
                    MTTF_SECS,
                    (0.0, HORIZON_SECS),
                    Some(RECOVER_SECS),
                );
                cells.push(Cell {
                    algo,
                    policy,
                    queue,
                    budget,
                    seed,
                    faults,
                });
            }
        }
    }

    let outs = run_grid(&cells, jobs, |cell| {
        run_orchestrated(
            code.clone(),
            cfg.clone(),
            |ctx| cell.algo.driver(ctx, 7),
            OrchestratorConfig {
                queue: cell.queue,
                budget: cell.budget,
                max_in_flight: 8,
                window_secs: cfg.monitor_window_secs,
            },
            Some(fg.clone()),
            &cell.faults,
            false,
        )
    });

    let mut table = Table::new(
        "exp17_reliability",
        "orchestrated campaigns under a Poisson fault stream",
        &[
            ("algorithm", "algorithm"),
            ("queue", "queue"),
            ("budget", "budget"),
            ("seed", "seed"),
            ("crashes", "crashes"),
            ("enqueued", "enqueued"),
            ("dispatched", "dispatched"),
            ("repaired", "repaired"),
            ("restored", "restored"),
            ("quarantined", "quarantined"),
            ("lost_chunks", "lost_chunks"),
            ("resurrected", "resurrected"),
            ("loss_events", "loss_events"),
            ("first_loss_s", "first_loss_s"),
            ("repair_mbps", "repair_mbps"),
            ("p99_ms", "p99_ms"),
            ("negotiations", "negotiations"),
            ("budget_mbps", "budget_mbps"),
            ("end_secs", "end_secs"),
        ],
    );
    // The campaign ledgers as one JSONL document: a `run` header line per
    // cell, then that cell's data-loss events and ledger entries.
    let mut ledger = String::new();
    for (cell, out) in cells.iter().zip(&outs) {
        let r = &out.report;
        table.push(vec![
            cell.algo.label(),
            cell.queue.label().to_string(),
            cell.budget.label().to_string(),
            cell.seed.to_string(),
            crash_count(&cell.faults).to_string(),
            r.enqueued.to_string(),
            r.dispatched.to_string(),
            r.repaired.to_string(),
            r.restored.to_string(),
            r.quarantined.to_string(),
            r.lost_chunks.to_string(),
            r.resurrected.to_string(),
            r.data_loss_events.to_string(),
            r.first_loss_secs
                .map_or(String::new(), |t| format!("{t:.2}")),
            format!("{:.1}", out.run.repair_mbps()),
            format!("{:.2}", out.run.p99_ms()),
            r.negotiations.to_string(),
            format!("{:.1}", r.mean_budget_rate / 1e6),
            format!("{:.2}", out.run.sim.end_secs()),
        ]);
        ledger.push_str(&run_line(&cell.label()));
        ledger.push('\n');
        ledger.push_str(&out.ledger_jsonl);
    }
    report.tables.push(table);
    report.artifacts.push(("exp17_ledger.jsonl", ledger));

    // Per-policy aggregation: measured MTTDL = observed campaign time per
    // data-loss event, pooled over algorithms and seeds.
    for (policy, _, _) in policies() {
        let pooled = || {
            cells
                .iter()
                .zip(&outs)
                .filter(|(cell, _)| cell.policy == policy)
                .map(|(_, out)| out)
        };
        let losses: usize = pooled().map(|o| o.report.data_loss_events).sum();
        let observed: f64 = pooled().map(|o| o.run.sim.end_secs()).sum();
        let mttdl = if losses > 0 {
            format!("{:.1}s", observed / losses as f64)
        } else {
            format!(">{observed:.1}s (no loss observed)")
        };
        report.note(format!(
            "  {policy}: {losses} data-loss events, measured MTTDL {mttdl}"
        ));
    }

    // Closed-form reference (§II-B) at the mean measured repair
    // throughput, with the node sized as this scale loses it.
    let mean_tp = outs.iter().map(|o| o.run.outcome.throughput()).sum::<f64>() / outs.len() as f64;
    if mean_tp > 0.0 {
        let model = ReliabilityModel {
            k: 4,
            m: 2,
            node_capacity_bytes: (scale.chunks_per_node as u64 * scale.chunk_size) as f64,
            node_lifetime_years: MTTF_SECS / (365.25 * 24.0 * 3600.0),
        };
        report.note(format!(
            "  closed-form reference: P(loss during one node repair) = {:.3e} \
             at {:.1} MB/s measured repair throughput",
            model.data_loss_probability(mean_tp),
            mean_tp / 1e6
        ));
    }
    report.note("(no paper figure: the evaluation repairs fixed victim sets only)");
    report
}
