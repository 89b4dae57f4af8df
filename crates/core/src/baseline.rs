//! Full-node repair driver for the static baseline algorithms
//! (CR / PPR / ECPipe, optionally boosted by RepairBoost selection).

use std::collections::{HashMap, VecDeque};

use chameleon_cluster::ChunkId;
use chameleon_simnet::{Event, FaultEvent, IdMap, NodeId, Simulator, TimerId, Traffic};

use crate::coding::{CodingStats, PlanCoder};
use crate::context::RepairContext;
use crate::error::RepairError;
use crate::exec::{ExecStatus, PlanExecutor};
use crate::metrics::{GivenUpChunk, RepairOutcome, RepairSpan};
use crate::plan::RepairPlan;
use crate::recovery::{RecoveryPolicy, RecoveryStats};
use crate::roster::Roster;
use crate::select::SourceSelector;
use crate::{cr, ecpipe, ppr, RepairDriver};

/// Timer key for retry (backoff) timers.
const RETRY_TIMER_KEY: u64 = 0x9E77;
/// Timer key for the periodic stall sweep.
const STALL_TIMER_KEY: u64 = 0x57A1;

/// One in-flight chunk repair plus the activity snapshot the stall sweep
/// compares against.
struct RunningAttempt {
    exec: PlanExecutor,
    last_activity: f64,
}

fn activity_of(exec: &PlanExecutor) -> f64 {
    exec.sent_bytes() + exec.progress()
}

/// The transmission topology a baseline uses for every chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanShape {
    /// CR: all sources → destination.
    Star,
    /// PPR: binary-tree aggregation.
    Tree,
    /// ECPipe: a single chain.
    Chain,
}

impl PlanShape {
    /// The paper's name for this shape.
    pub fn name(self) -> &'static str {
        match self {
            PlanShape::Star => "CR",
            PlanShape::Tree => "PPR",
            PlanShape::Chain => "ECPipe",
        }
    }
}

/// Runs a full-node (or multi-node) repair with a fixed plan shape and a
/// static selection policy, repairing up to `concurrency` chunks at a time
/// — how HDFS-style reconstruction work queues behave.
///
/// Unrepairable chunks (too many failures) are counted in
/// [`StaticRepairDriver::skipped`] rather than aborting the campaign.
pub struct StaticRepairDriver {
    ctx: RepairContext,
    shape: PlanShape,
    selector: SourceSelector,
    boosted: bool,
    concurrency: usize,
    pending: VecDeque<ChunkId>,
    running: Roster<RunningAttempt>,
    /// stripe → destinations promised to in-flight sibling chunks.
    stripe_destinations: HashMap<usize, Vec<NodeId>>,
    per_chunk_secs: Vec<f64>,
    spans: Vec<RepairSpan>,
    completed_plans: Vec<crate::plan::RepairPlan>,
    coder: PlanCoder,
    coding: CodingStats,
    chunks_total: usize,
    skipped: usize,
    started_at: Option<f64>,
    finished_at: Option<f64>,
    policy: RecoveryPolicy,
    recovery: RecoveryStats,
    /// Dispatch attempts made so far per chunk (first dispatch counts).
    attempts: HashMap<ChunkId, u32>,
    /// Backoff timers of chunks waiting to be re-dispatched.
    retry_timers: IdMap<TimerId, ChunkId>,
    stall_timer: Option<TimerId>,
    errors: Vec<RepairError>,
    /// When true, crash faults update the failure view but do not enqueue
    /// the crashed node's chunks — an orchestrator owns admission.
    external_admission: bool,
}

impl std::fmt::Debug for StaticRepairDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticRepairDriver")
            .field("name", &self.name())
            .field("pending", &self.pending.len())
            .field("running", &self.running.len())
            .finish()
    }
}

impl StaticRepairDriver {
    /// Default number of chunks repaired concurrently.
    pub const DEFAULT_CONCURRENCY: usize = 8;

    /// Creates a driver with the paper's random source selection.
    pub fn new(ctx: RepairContext, shape: PlanShape, seed: u64) -> Self {
        Self::with_selector(ctx, shape, SourceSelector::random(seed), false)
    }

    /// Creates a RepairBoost-boosted driver: same shape, but sources and
    /// destinations are spread to balance per-node repair traffic
    /// (Exp#6).
    pub fn boosted(ctx: RepairContext, shape: PlanShape, seed: u64) -> Self {
        Self::with_selector(ctx, shape, SourceSelector::balanced(seed), true)
    }

    fn with_selector(
        ctx: RepairContext,
        shape: PlanShape,
        selector: SourceSelector,
        boosted: bool,
    ) -> Self {
        let coder = PlanCoder::new(ctx.chunk_size());
        let policy = ctx.recovery;
        StaticRepairDriver {
            ctx,
            shape,
            selector,
            boosted,
            concurrency: Self::DEFAULT_CONCURRENCY,
            pending: VecDeque::new(),
            running: Roster::new(),
            stripe_destinations: HashMap::new(),
            per_chunk_secs: Vec::new(),
            spans: Vec::new(),
            completed_plans: Vec::new(),
            coder,
            coding: CodingStats::default(),
            chunks_total: 0,
            skipped: 0,
            started_at: None,
            finished_at: None,
            policy,
            recovery: RecoveryStats::default(),
            attempts: HashMap::new(),
            retry_timers: IdMap::default(),
            stall_timer: None,
            errors: Vec::new(),
            external_admission: false,
        }
    }

    /// Overrides how many chunks repair concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency` is zero.
    pub fn with_concurrency(mut self, concurrency: usize) -> Self {
        assert!(concurrency > 0, "concurrency must be positive");
        self.concurrency = concurrency;
        self
    }

    /// Overrides the retry/backoff policy used under injected faults.
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Chunks that could not be repaired (insufficient survivors, or
    /// retry budget exhausted).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Recovery activity so far (replans, retries, wasted bytes).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Every recoverable failure the driver recorded along the way.
    pub fn errors(&self) -> &[RepairError] {
        &self.errors
    }

    /// The plans of every completed chunk repair (as actually executed),
    /// for byte-level verification and traffic analysis.
    pub fn completed_plans(&self) -> &[crate::plan::RepairPlan] {
        &self.completed_plans
    }

    fn fill_slots(&mut self, sim: &mut Simulator) {
        while self.running.len() < self.concurrency {
            let Some(chunk) = self.pending.pop_front() else {
                break;
            };
            let forbidden = self
                .stripe_destinations
                .get(&chunk.stripe)
                .cloned()
                .unwrap_or_default();
            let selection = match self.selector.select(&self.ctx, chunk, &forbidden) {
                Ok(s) => s,
                Err(_) => {
                    self.skipped += 1;
                    self.errors.push(RepairError::Unrepairable { chunk });
                    continue;
                }
            };
            let plan = match self.shape {
                PlanShape::Star => cr::build(&self.ctx, chunk, &selection),
                PlanShape::Tree => ppr::build(&self.ctx, chunk, &selection),
                PlanShape::Chain => ecpipe::build(&self.ctx, chunk, &selection),
            };
            let Ok(plan) = plan else {
                self.skipped += 1;
                self.errors.push(RepairError::Unrepairable { chunk });
                continue;
            };
            self.stripe_destinations
                .entry(chunk.stripe)
                .or_default()
                .push(selection.destination);
            let mut exec = PlanExecutor::new(plan, self.ctx.chunk_size(), self.ctx.slice_size())
                .with_owner(self.running.next_key());
            exec.start(sim);
            let n = self.attempts.entry(chunk).or_insert(0);
            *n += 1;
            if *n > 1 {
                self.recovery.retries += 1;
            }
            self.running.push(RunningAttempt {
                last_activity: activity_of(&exec),
                exec,
            });
        }
        if self.running.is_empty()
            && self.pending.is_empty()
            && self.retry_timers.is_empty()
            && self.finished_at.is_none()
        {
            self.finished_at = Some(sim.now().as_secs());
            if let Some(t) = self.stall_timer.take() {
                sim.cancel_timer(t);
            }
        }
    }

    /// Books a dead attempt and either schedules a backoff retry or gives
    /// the chunk up. The executor must already be failed/aborted.
    fn handle_failed_attempt(&mut self, sim: &mut Simulator, exec: &PlanExecutor) {
        let chunk = exec.plan().chunk();
        self.recovery
            .book_failed_attempt(exec.aborted_flows(), exec.sent_bytes());
        self.errors
            .push(RepairError::HelperLost { chunk, node: None });
        if let Some(dests) = self.stripe_destinations.get_mut(&chunk.stripe) {
            if let Some(pos) = dests.iter().position(|&d| d == exec.plan().destination()) {
                dests.swap_remove(pos);
            }
        }
        let attempts = self.attempts.get(&chunk).copied().unwrap_or(1);
        if attempts >= self.policy.max_attempts {
            self.recovery.given_up += 1;
            self.skipped += 1;
            self.errors
                .push(RepairError::RetriesExhausted { chunk, attempts });
        } else {
            let t = sim.schedule_in(self.policy.backoff_secs(chunk, attempts), RETRY_TIMER_KEY);
            self.retry_timers.insert(t, chunk);
        }
        self.fill_slots(sim);
    }

    /// Books the completed attempt at `i`: latency, span, coding stats,
    /// the relocation in the cluster view, and the freed slot.
    fn finish_attempt(&mut self, sim: &mut Simulator, i: usize) {
        let mut a = self.running.swap_remove(i);
        let exec = &mut a.exec;
        let (finished, started) = match (exec.finished_at(), exec.started_at()) {
            (Some(f), Some(s)) => (f, s),
            _ => {
                // Internally inconsistent attempt: record it instead of
                // panicking and drop the attempt.
                self.errors
                    .push(RepairError::ExecutorState("finish time of a done attempt"));
                self.fill_slots(sim);
                return;
            }
        };
        self.per_chunk_secs.push(finished - started);
        self.coding.merge(&exec.run_coding(&mut self.coder));
        self.completed_plans.push(exec.plan().clone());
        let chunk = exec.plan().chunk();
        self.spans.push(RepairSpan {
            stripe: chunk.stripe,
            index: chunk.index,
            started_secs: started,
            finished_secs: finished,
            attempts: self.attempts.get(&chunk).copied().unwrap_or(1),
        });
        if let Some(dests) = self.stripe_destinations.get_mut(&chunk.stripe) {
            if let Some(pos) = dests.iter().position(|&d| d == exec.plan().destination()) {
                dests.swap_remove(pos);
            }
        }
        // The repaired chunk now lives on its destination: record the
        // relocation so later failure accounting (cascading crashes,
        // redundancy counts) sees it.
        let dest = exec.plan().destination();
        if !self
            .ctx
            .cluster
            .placement()
            .stripe_nodes(chunk.stripe)
            .contains(&dest)
        {
            let _ = self.ctx.cluster.apply_repair(chunk, dest);
        }
        self.fill_slots(sim);
    }

    /// Aborts every attempt that made no progress since the last sweep —
    /// how the driver observes helper loss that produces no abort
    /// notification (e.g. a helper slowed to a crawl).
    fn stall_sweep(&mut self, sim: &mut Simulator) {
        let mut stalled: Vec<usize> = Vec::new();
        for (i, a) in self.running.iter_mut().enumerate() {
            let act = activity_of(&a.exec);
            if act > a.last_activity {
                a.last_activity = act;
            } else {
                stalled.push(i);
            }
        }
        // Remove everything stalled before handling any of them:
        // `handle_failed_attempt` refills slots, which would invalidate
        // the collected indices.
        let mut failed: Vec<RunningAttempt> = Vec::new();
        for &i in stalled.iter().rev() {
            failed.push(self.running.swap_remove(i));
        }
        for mut a in failed {
            a.exec.abort(sim);
            self.handle_failed_attempt(sim, &a.exec);
        }
    }
}

impl RepairDriver for StaticRepairDriver {
    fn name(&self) -> String {
        if self.boosted {
            format!("RB+{}", self.shape.name())
        } else {
            self.shape.name().to_string()
        }
    }

    fn start(&mut self, sim: &mut Simulator, chunks: Vec<ChunkId>) {
        if !chunks.is_empty() {
            // A crash can add work after the campaign finished; reopen it.
            self.finished_at = None;
        }
        self.chunks_total += chunks.len();
        self.pending.extend(chunks);
        if self.started_at.is_none() {
            self.started_at = Some(sim.now().as_secs());
        }
        self.fill_slots(sim);
        if !self.is_done() && self.stall_timer.is_none() {
            self.stall_timer =
                Some(sim.schedule_in(self.policy.stall_timeout_secs, STALL_TIMER_KEY));
        }
    }

    fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> bool {
        // The driver is offered every event of the run, most of them not
        // its own (each foreground request completes a flow and fires a
        // timer), so a foreign event is turned away without a lookup:
        // timers by dispatch key, flows by class and then owner key.
        let owner = match *event {
            Event::Timer { id, key } => {
                if Some(id) == self.stall_timer {
                    self.stall_timer = None;
                    self.stall_sweep(sim);
                    if !self.is_done() {
                        self.stall_timer =
                            Some(sim.schedule_in(self.policy.stall_timeout_secs, STALL_TIMER_KEY));
                    }
                } else if let Some(chunk) = (key == RETRY_TIMER_KEY)
                    .then(|| self.retry_timers.remove(&id))
                    .flatten()
                {
                    self.pending.push_front(chunk);
                    self.fill_slots(sim);
                } else {
                    return false;
                }
                return true;
            }
            Event::FlowCompleted {
                tag: Traffic::Repair,
                owner,
                ..
            } => owner,
            Event::FlowCompleted { .. } => return false,
        };
        let Some(i) = self.running.position(owner) else {
            return false;
        };
        match self.running[i].exec.on_event(sim, event) {
            ExecStatus::NotMine => return false,
            ExecStatus::InProgress => {
                self.running[i].last_activity = activity_of(&self.running[i].exec);
            }
            ExecStatus::Done => self.finish_attempt(sim, i),
            ExecStatus::Failed => {
                let a = self.running.swap_remove(i);
                self.handle_failed_attempt(sim, &a.exec);
            }
        }
        true
    }

    fn on_fault(&mut self, sim: &mut Simulator, fault: &FaultEvent) {
        match *fault {
            FaultEvent::Crash { node }
                if node < self.ctx.cluster.storage_nodes()
                    && self.ctx.cluster.is_alive(node)
                    && self.ctx.cluster.fail_node(node).is_ok() =>
            {
                // Everything the crashed node held is newly lost;
                // queue it behind the current campaign (unless an
                // orchestrator owns admission). In-flight attempts using
                // the node fail over via their abort notifications.
                let lost = self.ctx.cluster.placement().chunks_on(node);
                if !self.external_admission && !lost.is_empty() {
                    self.start(sim, lost);
                }
            }
            FaultEvent::Recover { node } if node < self.ctx.cluster.storage_nodes() => {
                self.ctx.cluster.heal_node(node);
            }
            // Slowdowns need no bookkeeping: rates re-solve inside the
            // simulator and extreme cases trip the stall sweep.
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    fn outcome(&self, _sim: &Simulator) -> RepairOutcome {
        let repaired = self.per_chunk_secs.len();
        RepairOutcome {
            algorithm: self.name(),
            chunks_total: self.chunks_total,
            chunks_repaired: repaired,
            repaired_bytes: repaired as f64 * self.ctx.chunk_size() as f64,
            duration: match (self.started_at, self.finished_at) {
                (Some(s), Some(f)) => Some(f - s),
                _ => None,
            },
            per_chunk_secs: self.per_chunk_secs.clone(),
            spans: self.spans.clone(),
            coding: self.coding,
            recovery: self.recovery,
            given_up_chunks: given_up_from_errors(&self.errors),
        }
    }

    fn spans(&self) -> &[RepairSpan] {
        &self.spans
    }

    fn errors(&self) -> &[RepairError] {
        &self.errors
    }

    fn completed_plans(&self) -> &[RepairPlan] {
        &self.completed_plans
    }

    fn set_external_admission(&mut self, external: bool) {
        self.external_admission = external;
    }
}

/// Extracts the terminal give-up records from a driver's error log:
/// retries-exhausted chunks keep their attempt count, unrepairable chunks
/// report zero attempts.
pub(crate) fn given_up_from_errors(errors: &[RepairError]) -> Vec<GivenUpChunk> {
    errors
        .iter()
        .filter_map(|e| match *e {
            RepairError::RetriesExhausted { chunk, attempts } => Some(GivenUpChunk {
                stripe: chunk.stripe,
                index: chunk.index,
                attempts,
            }),
            RepairError::Unrepairable { chunk } => Some(GivenUpChunk {
                stripe: chunk.stripe,
                index: chunk.index,
                attempts: 0,
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_cluster::{Cluster, ClusterConfig};
    use chameleon_codes::ReedSolomon;
    use std::sync::Arc;

    fn run_full_repair(shape: PlanShape) -> RepairOutcome {
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        cluster.fail_node(0).unwrap();
        let lost = cluster.lost_chunks(&[0]);
        assert!(!lost.is_empty());
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let mut sim = ctx.cluster.build_simulator();
        let mut driver = StaticRepairDriver::new(ctx, shape, 1).with_concurrency(4);
        driver.start(&mut sim, lost.clone());
        while let Some(ev) = sim.next_event() {
            driver.on_event(&mut sim, &ev);
        }
        assert!(driver.is_done());
        let outcome = driver.outcome(&sim);
        assert_eq!(outcome.chunks_repaired, lost.len());
        assert_eq!(driver.skipped(), 0);
        outcome
    }

    #[test]
    fn cr_repairs_every_lost_chunk() {
        let outcome = run_full_repair(PlanShape::Star);
        assert!(outcome.throughput() > 0.0);
        assert_eq!(outcome.algorithm, "CR");
        // Every repaired chunk went through the real coding stages.
        assert_eq!(outcome.coding.chunks_coded, outcome.chunks_repaired);
        assert!(outcome.coding.total_nanos() > 0);
        assert!(outcome.coding.bytes_coded > 0);
    }

    #[test]
    fn spans_reconcile_with_per_chunk_secs() {
        let outcome = run_full_repair(PlanShape::Tree);
        assert_eq!(outcome.spans.len(), outcome.per_chunk_secs.len());
        for (span, &secs) in outcome.spans.iter().zip(&outcome.per_chunk_secs) {
            assert_eq!(span.duration_secs(), secs);
            assert_eq!(span.attempts, 1, "fault-free repair takes one attempt");
            assert!(span.finished_secs > span.started_secs);
        }
        let lat = outcome.chunk_latency().unwrap();
        assert_eq!(lat.count, outcome.chunks_repaired);
        assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99 && lat.p99 <= lat.max);
    }

    #[test]
    fn ppr_and_ecpipe_complete_too() {
        let ppr = run_full_repair(PlanShape::Tree);
        let pipe = run_full_repair(PlanShape::Chain);
        assert_eq!(ppr.algorithm, "PPR");
        assert_eq!(pipe.algorithm, "ECPipe");
        assert!(ppr.throughput() > 0.0);
        assert!(pipe.throughput() > 0.0);
    }

    #[test]
    fn foreign_events_are_refused_without_touching_an_executor() {
        crate::roster::testing::assert_foreign_events_are_refused(
            |ctx| StaticRepairDriver::new(ctx, PlanShape::Tree, 1).with_concurrency(4),
            |d| d.running.iter().map(|a| format!("{:?}", a.exec)).collect(),
        );
    }

    #[test]
    fn boosted_driver_reports_rb_name() {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let driver = StaticRepairDriver::boosted(ctx, PlanShape::Chain, 1);
        assert_eq!(driver.name(), "RB+ECPipe");
    }

    #[test]
    fn empty_chunk_list_finishes_immediately() {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let mut sim = ctx.cluster.build_simulator();
        let mut driver = StaticRepairDriver::new(ctx, PlanShape::Star, 1);
        driver.start(&mut sim, vec![]);
        assert!(driver.is_done());
        assert_eq!(driver.outcome(&sim).duration, Some(0.0));
    }

    #[test]
    fn helper_crash_mid_repair_replans_and_completes() {
        use chameleon_simnet::{FaultPlan, FaultSpec};
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        cluster.fail_node(0).unwrap();
        let lost = cluster.lost_chunks(&[0]);
        let initially_lost = lost.len();
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let mut sim = ctx.cluster.build_simulator();
        let plan = FaultPlan::new(vec![FaultSpec::Crash {
            node: 1,
            at_secs: 0.02,
        }]);
        let mut injector = plan.inject(&mut sim);
        let mut driver = StaticRepairDriver::new(ctx, PlanShape::Star, 1).with_concurrency(4);
        driver.start(&mut sim, lost);
        while let Some(ev) = sim.next_event() {
            if let Some(fault) = injector.on_event(&mut sim, &ev) {
                driver.on_fault(&mut sim, &fault);
                continue;
            }
            driver.on_event(&mut sim, &ev);
        }
        assert!(driver.is_done(), "driver stuck after mid-repair crash");
        let outcome = driver.outcome(&sim);
        // The crash killed at least one in-flight attempt, which was
        // re-planned against the survivors and retried.
        assert!(outcome.recovery.replans >= 1, "{:?}", outcome.recovery);
        assert!(outcome.recovery.retries >= 1);
        assert!(outcome.recovery.aborted_flows >= 1);
        assert!(!driver.errors().is_empty());
        // Node 1's chunks were enqueued as newly lost work.
        assert!(outcome.chunks_total > initially_lost);
        assert_eq!(
            outcome.chunks_repaired + driver.skipped(),
            outcome.chunks_total
        );
        assert!(outcome.chunks_repaired > 0);
    }

    #[test]
    fn crash_of_an_idle_node_only_enqueues_its_chunks() {
        use chameleon_simnet::FaultEvent;
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        cluster.fail_node(0).unwrap();
        let lost = cluster.lost_chunks(&[0]);
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let mut sim = ctx.cluster.build_simulator();
        let mut driver = StaticRepairDriver::new(ctx, PlanShape::Chain, 1);
        driver.start(&mut sim, lost.clone());
        let before = driver.outcome(&sim).chunks_total;
        // A direct fault notification (no flows touched) grows the work
        // queue; a repeat for the same node is idempotent.
        driver.on_fault(&mut sim, &FaultEvent::Crash { node: 5 });
        let after = driver.outcome(&sim).chunks_total;
        assert!(after > before);
        driver.on_fault(&mut sim, &FaultEvent::Crash { node: 5 });
        assert_eq!(driver.outcome(&sim).chunks_total, after);
        while let Some(ev) = sim.next_event() {
            driver.on_event(&mut sim, &ev);
        }
        assert!(driver.is_done());
    }

    #[test]
    fn unrepairable_chunks_are_skipped_not_fatal() {
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        // Fail 3 nodes (m = 2): stripes touching all three lose too much.
        for n in [0, 1, 2] {
            cluster.fail_node(n).unwrap();
        }
        let lost = cluster.lost_chunks(&[0, 1, 2]);
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let mut sim = ctx.cluster.build_simulator();
        let mut driver = StaticRepairDriver::new(ctx, PlanShape::Star, 1);
        driver.start(&mut sim, lost);
        while let Some(ev) = sim.next_event() {
            driver.on_event(&mut sim, &ev);
        }
        assert!(driver.is_done());
        let outcome = driver.outcome(&sim);
        assert_eq!(
            outcome.chunks_repaired + driver.skipped(),
            outcome.chunks_total
        );
    }
}
