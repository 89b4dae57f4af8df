//! Staging, running and collecting one repair-under-foreground experiment
//! run on the product loop ([`chameleon_core::run`]).

use chameleon_cluster::{ChunkId, Cluster, ClusterConfig, ClusterError, ForegroundReport};
use chameleon_codes::ErasureCode;
use chameleon_core::run::{NoRepair, Run};
use chameleon_core::{
    Orchestrator, OrchestratorConfig, OrchestratorReport, RepairContext, RepairDriver,
    RepairOutcome,
};
use chameleon_simnet::faults::splitmix64;
use chameleon_simnet::{EngineProfile, FaultPlan, Monitor, Simulator, TraceSink};
use chameleon_traces::{TraceKind, Workload};

use std::sync::Arc;

/// Derives the workload seed of one foreground client from the spec's base
/// seed by hash-mixing (a splitmix64 finalizer over the base/counter
/// state) rather than adding the client index.
///
/// Plain `base + client` makes *adjacent-seed* runs share client RNG
/// streams — in a grid sweeping `seed ∈ {s, s+1, …}`, run `s`'s client 1
/// replays run `s+1`'s client 0 byte for byte, silently correlating
/// supposedly independent repetitions. Mixing breaks that: every
/// (base, client) pair lands in an unrelated part of the sequence.
pub fn client_seed(base: u64, client: u64) -> u64 {
    // The (client+1)-th splitmix64 draw from `base`, taken directly.
    let mut state = base.wrapping_add(client.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

/// Foreground load specification: one workload per client, drawn
/// round-robin from `kinds`.
#[derive(Debug, Clone)]
pub struct FgSpec {
    /// Trace families, assigned to clients round-robin.
    pub kinds: Vec<TraceKind>,
    /// Number of foreground clients to run (0 = no foreground).
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Workload RNG seed base.
    pub seed: u64,
}

impl FgSpec {
    /// The paper's default: every client replays YCSB-A.
    pub fn ycsb(clients: usize, requests_per_client: usize) -> Self {
        FgSpec {
            kinds: vec![TraceKind::YcsbA],
            clients,
            requests_per_client,
            seed: 0xFACE,
        }
    }

    /// All clients replay the given trace.
    pub fn uniform(kind: TraceKind, clients: usize, requests_per_client: usize) -> Self {
        FgSpec {
            kinds: vec![kind],
            clients,
            requests_per_client,
            seed: 0xFACE,
        }
    }

    /// Builds the per-client workloads (client seeds derived via
    /// [`client_seed`]).
    pub fn workloads(&self) -> Vec<Box<dyn Workload>> {
        (0..self.clients)
            .map(|c| self.kinds[c % self.kinds.len()].build(client_seed(self.seed, c as u64)))
            .collect()
    }
}

/// The post-run simulator state an experiment can analyse: the windowed
/// bandwidth monitor plus the final simulated clock.
///
/// Runs used to hand the whole [`Simulator`] back to the caller; in a
/// parallel grid that kept every finished run's flow map, heaps, and
/// solver scratch alive until the experiment formatted its rows. The
/// summary holds only what experiments actually read.
#[derive(Debug, Clone)]
pub struct SimSummary {
    monitor: Monitor,
    end_secs: f64,
    profile: EngineProfile,
    trace: Option<TraceSink>,
}

impl SimSummary {
    /// Captures the summary and drops the rest of the simulator.
    pub fn capture(mut sim: Simulator) -> Self {
        let profile = sim.profile();
        let trace = sim.take_trace();
        SimSummary {
            end_secs: sim.now().as_secs(),
            profile,
            trace,
            monitor: sim.into_monitor(),
        }
    }

    /// The windowed bandwidth monitor (Fig. 5 / Fig. 6 analyses).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Simulated seconds when the run's event loop drained.
    pub fn end_secs(&self) -> f64 {
        self.end_secs
    }

    /// Engine self-profiling counters of the finished run.
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }

    /// The flow trace, if the run was executed with tracing enabled.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }
}

/// Everything an experiment might want to inspect after a run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Repair-side result.
    pub outcome: RepairOutcome,
    /// Foreground-side result (if a foreground ran).
    pub fg_report: Option<ForegroundReport>,
    /// Monitor/bandwidth summary of the finished simulation.
    pub sim: SimSummary,
}

impl RunOutput {
    /// Closes a finished run around the repair side's `outcome`.
    pub fn collect(outcome: RepairOutcome, run: Run) -> Self {
        RunOutput {
            outcome,
            fg_report: run.foreground.map(|fg| fg.report(&run.sim)),
            sim: SimSummary::capture(run.sim),
        }
    }

    /// Repair throughput in MB/s (10^6 bytes).
    pub fn repair_mbps(&self) -> f64 {
        self.outcome.throughput() / 1e6
    }

    /// Foreground P99 latency in milliseconds (0 without foreground).
    pub fn p99_ms(&self) -> f64 {
        self.fg_report.as_ref().map_or(0.0, |r| r.p99_latency * 1e3)
    }

    /// Nearest-rank percentile of the per-chunk repair latencies in
    /// seconds (0 before the first chunk completes) — the histogram
    /// columns of the suite CSVs.
    pub fn chunk_pct_secs(&self, p: f64) -> f64 {
        chameleon_cluster::stats::percentile(&self.outcome.per_chunk_secs, p).unwrap_or(0.0)
    }

    /// Renders the run's observability record as JSONL: every flow
    /// lifecycle event in admission order, then one `span` line per
    /// repaired chunk in completion order, then one `given_up` line per
    /// abandoned chunk, then the engine `profile` footer. `None` if the
    /// run was not traced.
    ///
    /// The rendering is a pure function of the (deterministic) simulation,
    /// so grid runs produce byte-identical traces at any `--jobs` count —
    /// callers must still write the file *after* the grid returns, never
    /// from worker threads.
    pub fn trace_jsonl(&self) -> Option<String> {
        let sink = self.sim.trace()?;
        let mut out = sink.to_jsonl();
        for span in &self.outcome.spans {
            out.push_str(&span.to_json_line());
            out.push('\n');
        }
        for given_up in &self.outcome.given_up_chunks {
            out.push_str(&given_up.to_json_line());
            out.push('\n');
        }
        out.push_str(&self.sim.profile().to_json_line());
        out.push('\n');
        Some(out)
    }
}

/// Result of an orchestrated campaign run: the campaign-level report and
/// ledger on top of the usual per-run output.
#[derive(Debug, Clone)]
pub struct OrchestratedRunOutput {
    /// Campaign-level summary (ledger totals, data-loss events, budget
    /// accounting).
    pub report: OrchestratorReport,
    /// The underlying repair/foreground/simulator result.
    pub run: RunOutput,
    /// The repair ledger rendered as JSONL (budget-starved events, then
    /// data-loss events, then one line per ledger entry).
    pub ledger_jsonl: String,
}

/// Stages one run: the cluster with `victims` failed, its simulator
/// (flow-traced if `trace`), then the fault timers, then the started
/// foreground. Returns the run and the chunks the victims held.
pub fn stage(
    code: Arc<dyn ErasureCode>,
    cfg: ClusterConfig,
    victims: &[usize],
    fg: Option<FgSpec>,
    faults: Option<&FaultPlan>,
    trace: bool,
) -> Result<(Run, Vec<ChunkId>), ClusterError> {
    let mut cluster = Cluster::new(cfg)?;
    for &v in victims {
        cluster.fail_node(v)?;
    }
    let lost = cluster.lost_chunks(victims);
    let mut run = Run::new(RepairContext::new(cluster, code));
    run.sim.set_trace_enabled(trace);
    if let Some(plan) = faults {
        run.inject(plan);
    }
    if let Some(spec) = fg {
        run.start_foreground(spec.workloads(), spec.requests_per_client);
    }
    Ok((run, lost))
}

/// Runs a continuous repair campaign driven entirely by a fault stream:
/// no initial victims — every repaired chunk was lost by a scheduled
/// crash, admitted by the [`Orchestrator`], and dispatched to the inner
/// driver under its queue and budget policies.
///
/// # Panics
///
/// Panics if the campaign or foreground never quiesces (simulation bug).
pub fn run_orchestrated(
    code: Arc<dyn ErasureCode>,
    cfg: ClusterConfig,
    mut make_driver: impl FnMut(RepairContext) -> Box<dyn RepairDriver>,
    orch_config: OrchestratorConfig,
    fg: Option<FgSpec>,
    faults: &FaultPlan,
    trace: bool,
) -> OrchestratedRunOutput {
    let (mut run, _) = stage(code, cfg, &[], fg, Some(faults), trace).expect("valid cluster");
    let driver = make_driver(run.ctx.clone());
    let mut orchestrator = Orchestrator::new(run.ctx.clone(), driver, orch_config);
    run.drain(&mut orchestrator)
        .unwrap_or_else(|e| panic!("{e}"));
    OrchestratedRunOutput {
        report: orchestrator.report(),
        ledger_jsonl: orchestrator.ledger_jsonl(),
        run: RunOutput::collect(orchestrator.outcome(&run.sim), run),
    }
}

/// Runs a foreground-only workload (no repair) and reports it — the
/// "YCSB-Only" baseline of Fig. 4 and the clean execution time `T` of the
/// interference degree (Exp#2).
pub fn run_foreground_only(
    code: Arc<dyn ErasureCode>,
    cfg: ClusterConfig,
    spec: FgSpec,
) -> (ForegroundReport, SimSummary) {
    let (mut run, _) = stage(code, cfg, &[], Some(spec), None, false).expect("valid cluster");
    run.drain(&mut NoRepair).unwrap_or_else(|e| panic!("{e}"));
    let fg = run.foreground.as_ref().expect("staged with a foreground");
    (fg.report(&run.sim), SimSummary::capture(run.sim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::{AlgoKind, RunSpec};
    use chameleon_codes::ReedSolomon;

    #[test]
    fn tiny_run_completes_with_and_without_foreground() {
        let mut scale = Scale::small();
        scale.chunks_per_node = 3;
        scale.requests_per_client = 30;
        let cfg = scale.cluster_config(6);
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());

        let run = |algo, fg| RunSpec::new("", code.clone(), cfg.clone(), algo, fg).execute();
        let out = run(AlgoKind::Cr, None);
        assert!(out.repair_mbps() > 0.0);
        assert!(out.fg_report.is_none());
        assert!(out.sim.end_secs() > 0.0);

        let out = run(AlgoKind::Chameleon, Some(FgSpec::ycsb(2, 30)));
        assert!(out.repair_mbps() > 0.0);
        assert!(out.p99_ms() > 0.0);

        let (report, _) = run_foreground_only(code, cfg, FgSpec::ycsb(2, 30));
        assert_eq!(report.completed, 60);
    }

    /// Pins the mixed per-client seed stream: adjacent base seeds must not
    /// share client streams (the old `base + c` derivation did — run
    /// `seed`'s client 1 equalled run `seed+1`'s client 0), and the exact
    /// values are part of the determinism contract of recorded results.
    #[test]
    fn client_seed_stream_is_pinned_and_unshared() {
        // Compatibility pin for the new stream (base 0xFACE = FgSpec
        // default). If these change, every recorded experiment CSV shifts.
        assert_eq!(client_seed(0xFACE, 0), 0x2f6e_9423_45d8_993a);
        assert_eq!(client_seed(0xFACE, 1), 0xcbcb_447e_1de4_a5e0);
        assert_eq!(client_seed(0xFACE, 2), 0x2915_f913_7a49_66af);
        assert_eq!(client_seed(0xFACE, 3), 0x4373_f4d5_7406_50a2);

        // Adjacent bases: no pairwise collisions across the client range.
        for base in 0..64u64 {
            for c in 0..8u64 {
                for c2 in 0..8u64 {
                    assert_ne!(
                        client_seed(base, c),
                        client_seed(base + 1, c2),
                        "base {base} client {c} collides with base+1 client {c2}"
                    );
                }
            }
        }
    }

    #[test]
    fn workloads_use_mixed_seeds() {
        let a = FgSpec::ycsb(2, 10);
        let mut b = FgSpec::ycsb(2, 10);
        b.seed = a.seed + 1;
        // Same spec → same workloads; adjacent seeds → disjoint streams.
        // Compare by the first few requests each workload generates.
        let sample = |spec: &FgSpec| -> Vec<Vec<chameleon_traces::Request>> {
            spec.workloads()
                .iter_mut()
                .map(|w| (0..4).map(|_| w.next_request()).collect())
                .collect()
        };
        let sa = sample(&a);
        let sb = sample(&b);
        assert_eq!(sa, sample(&a));
        assert_ne!(sa[1], sb[0], "adjacent-seed runs share a client stream");
    }
}
