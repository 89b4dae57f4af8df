//! The four simulated workloads: their inputs (all derived from `--seed`),
//! the untraced pass through the library's own entry points
//! (`RunSpec::execute`, `run_orchestrated`, `run_foreground_only`), the
//! facts kept from each cell, the output checks, and the `_sim` metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use chameleon_bench::runner::run_foreground_only;
use chameleon_bench::{
    client_seed, run_orchestrated, AlgoKind, FgSpec, RunOutput, RunSpec, Scale, SimSummary,
};
use chameleon_cluster::{stats, Cluster, ClusterConfig, ForegroundReport, TopologySpec};
use chameleon_codes::{ErasureCode, ReedSolomon};
use chameleon_core::{
    BudgetPolicy, CodingStats, OrchestratorConfig, OrchestratorReport, QueuePolicy, RepairContext,
    RepairOutcome,
};
use chameleon_simnet::{EngineProfile, FaultPlan, ResourceKind, Traffic};

use crate::json::Json;
use crate::registry::{CAMPAIGN20, CODEC, FABRIC20, REPAIR20, SCALE1000, WORKLOADS};

/// What one cell of a workload simulates.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// Foreground only: the clean execution time `T` of the interference
    /// degree.
    FgOnly,
    /// Repair every chunk of the victims under the foreground.
    Repair {
        /// Repair algorithm.
        algo: AlgoKind,
        /// Nodes failed before the repair starts.
        victims: Vec<usize>,
    },
    /// An orchestrated campaign driven by a fault stream.
    Campaign {
        /// Repair algorithm under the orchestrator.
        algo: AlgoKind,
        /// The seeded Poisson crash/recover schedule.
        faults: FaultPlan,
    },
}

/// One independent simulation of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Display label, also the span name in the trace.
    pub label: String,
    /// What to simulate.
    pub kind: CellKind,
}

impl Cell {
    fn algo(&self) -> Option<AlgoKind> {
        match self.kind {
            CellKind::FgOnly => None,
            CellKind::Repair { algo, .. } | CellKind::Campaign { algo, .. } => Some(algo),
        }
    }

    /// Whether this is a ChameleonEC cell: the `_sim` metrics read these.
    pub fn is_chameleon(&self) -> bool {
        self.algo() == Some(AlgoKind::Chameleon)
    }
}

/// A simulated workload with every input generated.
#[derive(Clone)]
pub struct SimWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The erasure code protecting the stripes.
    pub code: Arc<dyn ErasureCode>,
    /// Cluster shape shared by all cells.
    pub cfg: ClusterConfig,
    /// Foreground load of every cell.
    pub fg: FgSpec,
    /// Seed of the baselines' plan randomisation.
    pub driver_seed: u64,
    /// Orchestrator policy of campaign cells.
    pub orch: OrchestratorConfig,
    /// The cells, in execution order.
    pub cells: Vec<Cell>,
}

// Exp#17's campaign parameters.
const MTTF_SECS: f64 = 150.0;
const HORIZON_SECS: f64 = 90.0;
const RECOVER_SECS: f64 = 30.0;
const NEGOTIATED_HEADROOM: f64 = 0.02;
const NEGOTIATED_FLOOR: f64 = 200e6;

impl SimWorkload {
    /// Generates the named workload's inputs from `seed`. Placement keeps
    /// the experiments' fixed seed so the lost-chunk set (the amount of
    /// work) does not move with `seed`; the baselines' plan RNG, the
    /// foreground request streams and the fault streams do.
    ///
    /// `quick` shrinks every size for the smoke test; its numbers are not
    /// comparable with a full run.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a simulated workload.
    pub fn build(name: &str, seed: u64, quick: bool) -> SimWorkload {
        let scale = Scale {
            chunks_per_node: if quick { 4 } else { 60 },
            requests_per_client: if quick { 300 } else { 20_000 },
            ..Scale::paper()
        };
        let mut fg = FgSpec::ycsb(scale.clients, scale.requests_per_client);
        fg.seed = client_seed(seed, 102);
        let rs = |k, m| -> Arc<dyn ErasureCode> {
            Arc::new(ReedSolomon::new(k, m).expect("valid RS parameters"))
        };
        let repair = |algo: AlgoKind, victims: &[usize]| Cell {
            label: algo.label(),
            kind: CellKind::Repair {
                algo,
                victims: victims.to_vec(),
            },
        };
        let fg_only = Cell {
            label: "fg-only".into(),
            kind: CellKind::FgOnly,
        };
        let name = WORKLOADS
            .iter()
            .map(|w| w.name)
            .find(|&n| n == name && n != CODEC)
            .unwrap_or_else(|| panic!("`{name}` is not a simulated workload"));
        let (code, cfg, cells) = match name {
            REPAIR20 | FABRIC20 => {
                let mut cfg = scale.cluster_config(14);
                if name == FABRIC20 {
                    cfg.topology = TopologySpec::Racked {
                        racks: 3,
                        oversub: 8.0,
                    };
                }
                let mut cells = vec![fg_only];
                cells.extend(AlgoKind::HEADLINE.iter().map(|&a| repair(a, &[0])));
                (rs(10, 4), cfg, cells)
            }
            SCALE1000 => {
                let nodes = if quick { 100 } else { 1000 };
                let cfg = scale.cluster_config_with_nodes(14, nodes);
                let cells = vec![
                    fg_only,
                    repair(AlgoKind::Ppr, &[0, 1, 2]),
                    repair(AlgoKind::Chameleon, &[0, 1, 2]),
                ];
                (rs(10, 4), cfg, cells)
            }
            CAMPAIGN20 => {
                let cfg = scale.cluster_config(6);
                let candidates: Vec<usize> = (0..cfg.storage_nodes).collect();
                let horizon = if quick { 20.0 } else { HORIZON_SECS };
                let fault_seed = client_seed(seed, 103);
                let mut cells = Vec::new();
                for algo in [AlgoKind::Cr, AlgoKind::Chameleon] {
                    for stream in 0..3u64 {
                        cells.push(Cell {
                            label: format!("{}/faults{stream}", algo.label()),
                            kind: CellKind::Campaign {
                                algo,
                                faults: FaultPlan::seeded_poisson(
                                    fault_seed.wrapping_add(stream),
                                    &candidates,
                                    MTTF_SECS,
                                    (0.0, horizon),
                                    Some(RECOVER_SECS),
                                ),
                            },
                        });
                    }
                }
                (rs(4, 2), cfg, cells)
            }
            _ => unreachable!("every simulated workload is matched above"),
        };
        SimWorkload {
            name,
            code,
            orch: OrchestratorConfig {
                queue: QueuePolicy::RedundancyPriority,
                budget: BudgetPolicy::Negotiated {
                    headroom: NEGOTIATED_HEADROOM,
                    floor: NEGOTIATED_FLOOR,
                },
                max_in_flight: 8,
                window_secs: cfg.monitor_window_secs,
            },
            cfg,
            fg,
            driver_seed: client_seed(seed, 101),
            cells,
        }
    }

    /// Whether cells are driven by an injected fault stream, which makes
    /// aborted requests and abandoned chunks legal outcomes.
    pub fn has_faults(&self) -> bool {
        self.cells
            .iter()
            .any(|c| matches!(c.kind, CellKind::Campaign { .. }))
    }

    /// Foreground requests every cell issues.
    pub fn fg_requests_per_cell(&self) -> usize {
        self.fg.clients * self.fg.requests_per_client
    }

    /// The declarative spec of a repair cell.
    pub fn run_spec(&self, cell: &Cell, algo: AlgoKind, victims: &[usize]) -> RunSpec {
        RunSpec::new(
            cell.label.clone(),
            self.code.clone(),
            self.cfg.clone(),
            algo,
            Some(self.fg.clone()),
        )
        .with_victims(victims.to_vec())
        .with_seed(self.driver_seed)
    }

    /// Builds, and drops, everything a pass's cells are built from — the
    /// cluster placement, the lost-chunk scan, the simulator, the request
    /// generators and the fault streams — through the same public calls
    /// the library entry points make internally. Timed as `setup_s`.
    pub fn build_inputs(&self, seed: u64, quick: bool) -> usize {
        let rebuilt = SimWorkload::build(self.name, seed, quick);
        let mut built = 0;
        for cell in &rebuilt.cells {
            let mut cluster = Cluster::new(rebuilt.cfg.clone()).expect("valid cluster config");
            if let CellKind::Repair { victims, .. } = &cell.kind {
                for &v in victims {
                    cluster.fail_node(v).expect("valid victim");
                }
                built += cluster.lost_chunks(victims).len();
            }
            let ctx = RepairContext::new(cluster, rebuilt.code.clone());
            let sim = ctx.cluster.build_simulator();
            built += sim.node_count() + rebuilt.fg.workloads().len();
            std::hint::black_box((ctx, sim));
        }
        built
    }
}

/// What is kept from one finished cell. Everything here is a function of
/// the simulation alone, so two runs of one seed — or the traced and the
/// untraced loop — must produce equal facts.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFacts {
    /// Simulated seconds when the event loop drained.
    pub end_secs: f64,
    /// Engine counters.
    pub profile: EngineProfile,
    /// `Monitor::worst_overshoot` against the configured capacities.
    pub overshoot: f64,
    /// Repair-class bytes written to storage-node disks.
    pub repair_write_bytes: f64,
    /// Repair-class bytes over the ToR uplinks (0 on a flat fabric).
    pub xrack_repair_bytes: f64,
    /// The repair outcome, with the host-timed coding stats zeroed.
    pub outcome: Option<RepairOutcome>,
    /// The foreground report.
    pub fg: Option<ForegroundReport>,
    /// Campaign report and rendered ledger.
    pub campaign: Option<(OrchestratorReport, String)>,
}

/// A finished cell: its facts plus the host-timed coding cost, which is
/// not part of the comparison.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The comparable part.
    pub facts: CellFacts,
    /// Wall-clock cost of the real GF coding stages (`RepairOutcome.coding`).
    pub coding: CodingStats,
}

impl CellResult {
    /// Extracts the facts of a finished run.
    pub fn capture(
        cfg: &ClusterConfig,
        mut out: RunOutput,
        campaign: Option<(OrchestratorReport, String)>,
    ) -> CellResult {
        let coding = std::mem::take(&mut out.outcome.coding);
        let facts = CellFacts::of(cfg, &out.sim, Some(out.outcome), out.fg_report, campaign);
        CellResult { facts, coding }
    }

    /// Extracts the facts of a foreground-only run.
    pub fn capture_fg_only(
        cfg: &ClusterConfig,
        report: ForegroundReport,
        sim: &SimSummary,
    ) -> CellResult {
        CellResult {
            facts: CellFacts::of(cfg, sim, None, Some(report), None),
            coding: CodingStats::default(),
        }
    }
}

impl CellFacts {
    fn of(
        cfg: &ClusterConfig,
        sim: &SimSummary,
        outcome: Option<RepairOutcome>,
        fg: Option<ForegroundReport>,
        campaign: Option<(OrchestratorReport, String)>,
    ) -> CellFacts {
        let monitor = sim.monitor();
        let caps = vec![cfg.node_caps; cfg.total_nodes()];
        let repair_write_bytes = (0..cfg.storage_nodes)
            .map(|n| monitor.total_bytes(n, ResourceKind::DiskWrite, Traffic::Repair))
            .sum();
        let xrack_repair_bytes = cfg
            .topology
            .compile(cfg.total_nodes(), cfg.node_caps)
            .map_or(0.0, |topo| {
                (0..topo.rack_count())
                    .map(|r| monitor.link_total_bytes(topo.tor_up_link(r), Traffic::Repair))
                    .sum()
            });
        CellFacts {
            end_secs: sim.end_secs(),
            profile: sim.profile(),
            overshoot: monitor.worst_overshoot(&caps),
            repair_write_bytes,
            xrack_repair_bytes,
            outcome,
            fg,
            campaign,
        }
    }
}

/// Runs one cell through the library's own entry point, tracing off.
/// A panic inside the library is caught and returned as its message.
pub fn execute_untraced(wl: &SimWorkload, cell: &Cell) -> Result<CellResult, String> {
    catch_cell(|| match &cell.kind {
        CellKind::FgOnly => {
            let (report, sim) = run_foreground_only(wl.code.clone(), wl.cfg.clone(), wl.fg.clone());
            CellResult::capture_fg_only(&wl.cfg, report, &sim)
        }
        CellKind::Repair { algo, victims } => {
            let out = wl.run_spec(cell, *algo, victims).execute();
            CellResult::capture(&wl.cfg, out, None)
        }
        CellKind::Campaign { algo, faults } => {
            let out = run_orchestrated(
                wl.code.clone(),
                wl.cfg.clone(),
                |ctx| algo.driver(ctx, wl.driver_seed),
                wl.orch,
                Some(wl.fg.clone()),
                faults,
                false,
            );
            CellResult::capture(&wl.cfg, out.run, Some((out.report, out.ledger_jsonl)))
        }
    })
}

/// Runs `f`, turning a panic into an error so one broken cell is counted
/// as failed operations instead of killing the benchmark.
pub fn catch_cell<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// One untraced pass: every cell in order. Returns the per-cell results
/// and the host seconds the pass took.
pub fn run_pass(wl: &SimWorkload) -> (Vec<Result<CellResult, String>>, f64) {
    let started = Instant::now();
    let results = wl.cells.iter().map(|c| execute_untraced(wl, c)).collect();
    (results, started.elapsed().as_secs_f64())
}

/// Operation counts and check failures of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Chunk repairs and foreground requests the workload attempted.
    pub attempted: u64,
    /// Operations that did not end the way the inputs require.
    pub failed: u64,
    /// Outcomes the injected fault stream makes legal (aborted requests,
    /// abandoned or lost chunks, data-loss events): counted, not failed.
    pub fault_induced: u64,
    /// Violated output checks, in words.
    pub problems: Vec<String>,
}

impl Verdict {
    fn problem(&mut self, cell: &Cell, what: impl std::fmt::Display) {
        self.problems.push(format!("{}: {what}", cell.label));
    }

    /// Adds another pass's or phase's counts.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.fault_induced += other.fault_induced;
        self.problems.extend(other.problems);
    }
}

/// Parses the JSONL the orchestrator renders into the per-chunk `ledger`
/// records: `(state, enqueued_secs, updated_secs)`.
///
/// # Errors
///
/// Returns the first malformed line.
pub fn parse_ledger(jsonl: &str) -> Result<Vec<(String, f64, f64)>, String> {
    let mut entries = Vec::new();
    for line in jsonl.lines() {
        let v = Json::parse(line).map_err(|e| format!("ledger line `{line}`: {e}"))?;
        if v.get("event").and_then(Json::as_str) != Some("ledger") {
            continue;
        }
        let field = |k: &str| v.get(k).and_then(Json::as_f64);
        match (
            v.get("state").and_then(Json::as_str),
            field("enqueued"),
            field("updated"),
        ) {
            (Some(state), Some(enq), Some(upd)) => entries.push((state.to_string(), enq, upd)),
            _ => return Err(format!("ledger line `{line}` lacks state/enqueued/updated")),
        }
    }
    Ok(entries)
}

const TERMINAL_STATES: [&str; 4] = ["repaired", "quarantined", "restored", "lost"];

/// Checks one pass's outputs: every lost chunk is repaired or counted,
/// foreground completions reconcile with `clients x requests`, ledgers end
/// in terminal states that partition them, repaired bytes are conserved
/// against the Monitor, and no resource ran over capacity.
pub fn check_pass(wl: &SimWorkload, results: &[Result<CellResult, String>]) -> Verdict {
    let mut v = Verdict::default();
    let requests = wl.fg_requests_per_cell() as u64;
    let chunk_size = wl.cfg.chunk_size as f64;
    for (cell, result) in wl.cells.iter().zip(results) {
        v.attempted += requests;
        let facts = match result {
            Ok(r) => &r.facts,
            Err(panic) => {
                // Nothing of the cell completed.
                v.failed += requests;
                v.problem(cell, format!("panicked: {panic}"));
                continue;
            }
        };
        if facts.overshoot > 1e-6 {
            v.problem(
                cell,
                format!("a resource ran {}x over capacity", 1.0 + facts.overshoot),
            );
        }
        match &facts.fg {
            Some(fg) => {
                let accounted = (fg.completed + fg.aborted) as u64;
                if accounted != requests {
                    v.failed += requests.abs_diff(accounted);
                    v.problem(
                        cell,
                        format!("{accounted} of {requests} requests accounted for"),
                    );
                }
                if wl.has_faults() {
                    v.fault_induced += fg.aborted as u64;
                } else if fg.aborted > 0 {
                    v.failed += fg.aborted as u64;
                    v.problem(
                        cell,
                        format!("{} requests aborted without a fault", fg.aborted),
                    );
                }
            }
            None => {
                v.failed += requests;
                v.problem(cell, "no foreground report");
            }
        }
        let Some(outcome) = &facts.outcome else {
            continue;
        };
        let abandoned = outcome.given_up_chunks.len();
        if outcome.repaired_bytes != outcome.chunks_repaired as f64 * chunk_size {
            v.problem(cell, "repaired bytes are not chunks_repaired x chunk_size");
        }
        // Every repaired chunk was written once in full; failed attempts
        // can only add partial writes on top.
        let slack = 1e-9 * outcome.repaired_bytes.max(1.0);
        let exact = !wl.has_faults();
        let delta = facts.repair_write_bytes - outcome.repaired_bytes;
        if delta < -slack || (exact && delta > slack) {
            v.problem(
                cell,
                format!(
                    "monitor saw {} repair bytes written, outcome claims {}",
                    facts.repair_write_bytes, outcome.repaired_bytes
                ),
            );
        }
        match &facts.campaign {
            None => {
                v.attempted += outcome.chunks_total as u64;
                if outcome.chunks_repaired + abandoned != outcome.chunks_total {
                    v.problem(cell, "repaired + given up does not cover the lost chunks");
                }
                let unrepaired = (outcome.chunks_total - outcome.chunks_repaired) as u64;
                if unrepaired > 0 {
                    v.failed += unrepaired;
                    v.problem(cell, format!("{unrepaired} chunks not repaired"));
                }
            }
            Some((report, ledger_jsonl)) => match parse_ledger(ledger_jsonl) {
                Err(e) => v.problem(cell, e),
                Ok(ledger) => {
                    v.attempted += ledger.len() as u64;
                    let open = ledger
                        .iter()
                        .filter(|(state, _, _)| !TERMINAL_STATES.contains(&state.as_str()))
                        .count();
                    if open > 0 {
                        v.failed += open as u64;
                        v.problem(cell, format!("{open} ledger entries ended non-terminal"));
                    }
                    let partition =
                        report.repaired + report.quarantined + report.restored + report.lost_chunks;
                    if partition + open != ledger.len() {
                        v.problem(cell, "terminal states do not partition the ledger");
                    }
                    if report.chunk_repairs != outcome.chunks_repaired
                        || report.dispatched != outcome.chunks_total
                    {
                        v.problem(
                            cell,
                            "orchestrator report disagrees with the driver outcome",
                        );
                    }
                    v.fault_induced += (report.quarantined
                        + report.lost_chunks
                        + report.data_loss_events
                        + abandoned) as u64;
                }
            },
        }
    }
    v
}

/// The sample at the highest percentile that still has at least ten
/// samples beyond it, with that percentile and the sample count.
pub fn tail(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        // Too few samples for the rule: the maximum is all there is.
        1..=10 => Some((sorted[n - 1], 100.0, n)),
        _ => Some((sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)),
    }
}

/// The paper's one-failure repair-throughput gain on the repair20 shape.
pub const PAPER_GAIN_PCT: f64 = 43.6;

/// Derives every `_sim` end-to-end metric the pass's cells can support, as
/// `(name, value, note)`; the note carries percentile and sample count, or
/// the distance to the paper's figure. The registry decides which of them
/// the workload reports.
pub fn sim_metrics(
    wl: &SimWorkload,
    results: &[Result<CellResult, String>],
) -> Vec<(&'static str, f64, String)> {
    let cells: Vec<(&Cell, &CellFacts)> = wl
        .cells
        .iter()
        .zip(results)
        .filter_map(|(c, r)| r.as_ref().ok().map(|r| (c, &r.facts)))
        .collect();
    let mbps = |f: &CellFacts| f.outcome.as_ref().map_or(0.0, |o| o.throughput() / 1e6);
    let mean = |xs: Vec<f64>| stats::mean(&xs).unwrap_or(0.0);
    let cham: Vec<&CellFacts> = cells
        .iter()
        .filter(|(c, _)| c.is_chameleon())
        .map(|&(_, f)| f)
        .collect();
    let baselines: Vec<f64> = cells
        .iter()
        .filter(|(c, f)| !c.is_chameleon() && f.outcome.is_some())
        .map(|(_, f)| mbps(f))
        .collect();
    let mut out = Vec::new();
    let mut push = |name, value: f64, note: String| out.push((name, value, note));
    let tail_note =
        |samples: &[f64]| tail(samples).map(|(value, pct, n)| (value, format!("p{pct:.1}, n={n}")));

    let chunk_secs: Vec<f64> = cham
        .iter()
        .filter_map(|f| f.outcome.as_ref())
        .flat_map(|o| o.per_chunk_secs.iter().copied())
        .collect();
    if let Some((value, note)) = tail_note(&chunk_secs) {
        push("chunk_tail_s_sim", value, note);
    }
    let vulnerable: Vec<f64> = cham
        .iter()
        .filter_map(|f| parse_ledger(&f.campaign.as_ref()?.1).ok())
        .flatten()
        .filter(|(state, _, _)| state == "repaired")
        .map(|(_, enqueued, updated)| updated - enqueued)
        .collect();
    if let Some((value, note)) = tail_note(&vulnerable) {
        push("vuln_tail_s_sim", value, note);
    }
    push(
        "chunk_p50_s_sim",
        stats::percentile(&chunk_secs, 0.5).unwrap_or(0.0),
        format!("n={}", chunk_secs.len()),
    );

    let cham_mbps = mean(cham.iter().map(|f| mbps(f)).collect());
    push("repair_mbps_sim", cham_mbps, String::new());
    if !baselines.is_empty() {
        let gain = (cham_mbps / mean(baselines) - 1.0) * 100.0;
        push(
            "repair_gain_pct_sim",
            gain,
            format!(
                "{:+.1} pt against the paper's +{PAPER_GAIN_PCT}%",
                gain - PAPER_GAIN_PCT
            ),
        );
    }
    push(
        "fg_p99_ms_sim",
        mean(
            cham.iter()
                .filter_map(|f| f.fg.as_ref())
                .map(|r| r.p99_latency * 1e3)
                .collect(),
        ),
        String::new(),
    );
    let clean = cells
        .iter()
        .find(|(c, _)| matches!(c.kind, CellKind::FgOnly))
        .and_then(|(_, f)| f.fg.as_ref()?.execution_time);
    if let Some(t) = clean {
        let loaded = mean(
            cham.iter()
                .filter_map(|f| f.fg.as_ref()?.execution_time)
                .collect(),
        );
        push(
            "interference_pct_sim",
            (loaded - t) / t * 100.0,
            String::new(),
        );
    }
    push(
        "xrack_repair_gb_sim",
        mean(cham.iter().map(|f| f.xrack_repair_bytes).collect()) / 1e9,
        String::new(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0, 100)));
        assert_eq!(tail(&xs[..11]), Some((1.0, 100.0 / 11.0, 11)));
        assert_eq!(tail(&xs[..4]), Some((4.0, 100.0, 4)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn inputs_follow_the_seed_but_placement_does_not() {
        let a = SimWorkload::build(CAMPAIGN20, 1, true);
        let b = SimWorkload::build(CAMPAIGN20, 2, true);
        assert_ne!(a.fg.seed, b.fg.seed);
        assert_ne!(a.driver_seed, b.driver_seed);
        assert_eq!(a.cfg.placement, b.cfg.placement);
        let again = SimWorkload::build(CAMPAIGN20, 1, true);
        assert_eq!(a.fg.seed, again.fg.seed);
        assert_eq!(format!("{:?}", a.cells), format!("{:?}", again.cells));
    }
}
