//! The ChameleonEC repair driver: phase-based dispatch (§III-A), tunable
//! plans (§III-B), and straggler-aware re-scheduling (§III-C).

use std::collections::{HashMap, VecDeque};

use chameleon_cluster::ChunkId;
use chameleon_simnet::{Event, FaultEvent, IdMap, NodeId, Simulator, TimerId, Traffic};

use crate::chameleon::dispatch::{dispatch_chunk_for, PhaseState, TaskAssignment};
use crate::chameleon::tunable::establish_plan;
use crate::coding::{CodingStats, PlanCoder};
use crate::context::{RepairContext, Resources};
use crate::error::RepairError;
use crate::exec::{ExecStatus, PlanExecutor};
use crate::metrics::{RepairOutcome, RepairSpan};
use crate::recovery::{RecoveryPolicy, RecoveryStats};
use crate::roster::Roster;
use crate::select::SelectError;
use crate::RepairDriver;

/// Timer key for retry (backoff) timers.
const RETRY_TIMER_KEY: u64 = 0x9E77;
/// Timer key for the periodic stall sweep.
const STALL_TIMER_KEY: u64 = 0x57A1;

/// Ordering policy for multi-node repair (§III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiNodePolicy {
    /// Repair one failed node after another.
    #[default]
    Sequential,
    /// Repair stripes with more failed chunks first (reliability first).
    MostFailedFirst,
    /// Repair the cheapest chunks first (repair-efficiency first).
    FastestFirst,
}

/// Tunables of the ChameleonEC scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChameleonConfig {
    /// Repair phase length `T_phase` (20 s by default, per Exp#3).
    pub t_phase_secs: f64,
    /// How often repair progress is compared against expectations.
    pub check_interval_secs: f64,
    /// Grace period before a chunk can be declared delayed.
    pub straggler_min_delay_secs: f64,
    /// A chunk is delayed when its progress falls below
    /// `expected_progress * straggler_progress_ratio`.
    pub straggler_progress_ratio: f64,
    /// Balance against network links or storage bandwidth
    /// (ChameleonEC-IO).
    pub resources: Resources,
    /// Enable straggler-aware re-scheduling (disable for the ETRP-only
    /// configuration of the breakdown study, Exp#11).
    pub enable_sar: bool,
    /// Multi-node repair ordering.
    pub multi_node_policy: MultiNodePolicy,
    /// Upper bound on chunks repaired concurrently (the proxies handle a
    /// bounded number of simultaneous tasks; also keeps the comparison
    /// with the baselines' work queues fair).
    pub max_concurrent_chunks: usize,
}

impl Default for ChameleonConfig {
    fn default() -> Self {
        ChameleonConfig {
            t_phase_secs: 20.0,
            check_interval_secs: 1.0,
            straggler_min_delay_secs: 2.0,
            straggler_progress_ratio: 0.5,
            resources: Resources::Network,
            enable_sar: true,
            multi_node_policy: MultiNodePolicy::Sequential,
            max_concurrent_chunks: 8,
        }
    }
}

impl ChameleonConfig {
    /// The storage-bottleneck variant ChameleonEC-IO (Exp#12).
    pub fn io() -> Self {
        ChameleonConfig {
            resources: Resources::Storage,
            ..ChameleonConfig::default()
        }
    }

    /// The dispatch+planning-only configuration (ETRP) used by the
    /// breakdown study (Exp#11).
    pub fn etrp_only() -> Self {
        ChameleonConfig {
            enable_sar: false,
            ..ChameleonConfig::default()
        }
    }
}

/// Counters describing what the scheduler did — used by the breakdown and
/// computation-time experiments.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChameleonStats {
    /// Repair phases started.
    pub phases: usize,
    /// Repair re-tunings applied (download redirected to the destination).
    pub retunes: usize,
    /// Transmission re-orderings applied (chunk postponed).
    pub reorders: usize,
    /// Wall-clock seconds the coordinator spent computing dispatches and
    /// plans (real time, not simulated — Exp#5's metric).
    pub plan_compute_secs: f64,
}

struct ActiveChunk {
    exec: PlanExecutor,
    assignment: TaskAssignment,
    estimated_secs: f64,
    dispatched_at: f64,
    retunes_applied: usize,
    /// Simulated time of the last straggler action on this chunk, for
    /// hysteresis (a re-tuned or re-ordered chunk gets time to recover
    /// before being flagged again).
    last_action_at: Option<f64>,
    /// Activity snapshot (`sent_bytes + progress`) the stall sweep
    /// compares against.
    last_activity: f64,
}

/// The ChameleonEC repair driver.
///
/// Feed it simulator events next to a foreground driver; it paces itself
/// with phase and progress-check timers.
pub struct ChameleonDriver {
    ctx: RepairContext,
    config: ChameleonConfig,
    pending: VecDeque<ChunkId>,
    active: Roster<ActiveChunk>,
    /// stripe → destinations promised to in-flight sibling chunks.
    stripe_destinations: HashMap<usize, Vec<NodeId>>,
    phase_state: Option<PhaseState>,
    phase_started_at: f64,
    phase_timer: Option<TimerId>,
    check_timer: Option<TimerId>,
    per_chunk_secs: Vec<f64>,
    spans: Vec<RepairSpan>,
    completed_plans: Vec<crate::plan::RepairPlan>,
    coder: PlanCoder,
    coding: CodingStats,
    chunks_total: usize,
    skipped: usize,
    started_at: Option<f64>,
    finished_at: Option<f64>,
    stats: ChameleonStats,
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

impl std::fmt::Debug for ChameleonDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChameleonDriver")
            .field("name", &self.name())
            .field("pending", &self.pending.len())
            .field("active", &self.active.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl ChameleonDriver {
    /// Creates a driver. The retry/backoff policy comes from the context
    /// ([`RepairContext::recovery`]); [`Self::with_policy`] overrides it.
    pub fn new(ctx: RepairContext, config: ChameleonConfig) -> Self {
        let coder = PlanCoder::new(ctx.chunk_size());
        let policy = ctx.recovery;
        ChameleonDriver {
            ctx,
            config,
            pending: VecDeque::new(),
            active: Roster::new(),
            stripe_destinations: HashMap::new(),
            phase_state: None,
            phase_started_at: 0.0,
            phase_timer: None,
            check_timer: None,
            per_chunk_secs: Vec::new(),
            spans: Vec::new(),
            completed_plans: Vec::new(),
            coder,
            coding: CodingStats::default(),
            chunks_total: 0,
            skipped: 0,
            started_at: None,
            finished_at: None,
            stats: ChameleonStats::default(),
            policy,
            recovery: RecoveryStats::default(),
            attempts: HashMap::new(),
            retry_timers: IdMap::default(),
            stall_timer: None,
            errors: Vec::new(),
            external_admission: false,
        }
    }

    /// Overrides the retry/backoff policy used under injected faults.
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Recovery activity so far (replans, retries, wasted bytes).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Every recoverable failure the driver recorded along the way.
    pub fn errors(&self) -> &[RepairError] {
        &self.errors
    }

    /// Scheduler activity counters.
    pub fn stats(&self) -> ChameleonStats {
        self.stats
    }

    /// Chunks that could not be repaired.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The plans of every completed chunk repair, as actually executed
    /// (re-tuned edges included), for byte-level verification and traffic
    /// analysis.
    pub fn completed_plans(&self) -> &[crate::plan::RepairPlan] {
        &self.completed_plans
    }

    /// Chunks currently being repaired.
    pub fn active_chunks(&self) -> usize {
        self.active.len()
    }

    fn order_chunks(&self, mut chunks: Vec<ChunkId>) -> VecDeque<ChunkId> {
        match self.config.multi_node_policy {
            MultiNodePolicy::Sequential => {
                chunks.sort_by_key(|c| (self.ctx.cluster.placement().node_of(*c), c.stripe));
            }
            MultiNodePolicy::MostFailedFirst => {
                let width = self.ctx.cluster.config().stripe_width;
                chunks.sort_by_key(|c| {
                    let alive = self.ctx.cluster.alive_chunk_indices(c.stripe).len();
                    let failed = width - alive;
                    (std::cmp::Reverse(failed), c.stripe, c.index)
                });
            }
            MultiNodePolicy::FastestFirst => {
                chunks.sort_by(|a, b| {
                    let cost = |c: &ChunkId| {
                        let alive = self.ctx.cluster.alive_chunk_indices(c.stripe);
                        self.ctx
                            .code
                            .repair_requirement(c.index, &alive)
                            .map(|r| r.traffic_chunks())
                            .unwrap_or(f64::INFINITY)
                    };
                    cost(a)
                        .total_cmp(&cost(b))
                        .then(a.stripe.cmp(&b.stripe))
                        .then(a.index.cmp(&b.index))
                });
            }
        }
        chunks.into()
    }

    fn start_phase(&mut self, sim: &mut Simulator) {
        self.stats.phases += 1;
        self.phase_started_at = sim.now().as_secs();
        // Wake everything postponed into this phase.
        for a in self.active.iter_mut() {
            a.exec.resume(sim);
        }
        self.phase_state = Some(PhaseState::measure(sim, &self.ctx, self.config.resources));
        self.admit(sim);
        if let Some(t) = self.phase_timer.take() {
            sim.cancel_timer(t);
        }
        if !self.is_done() {
            self.phase_timer = Some(sim.schedule_in(self.config.t_phase_secs, 0));
            if self.config.enable_sar && self.check_timer.is_none() {
                self.check_timer = Some(sim.schedule_in(self.config.check_interval_secs, 0));
            }
        }
    }

    /// Admits pending chunks while their estimated repair time fits within
    /// `T_phase` (the paper's §III-A admission rule; at least one chunk is
    /// always admitted when the cluster is otherwise idle).
    fn admit(&mut self, sim: &mut Simulator) {
        let budget = self.config.t_phase_secs;
        let Some(mut state) = self.phase_state.take() else {
            return;
        };
        let mut deferred: Vec<ChunkId> = Vec::new();
        while self.active.len() < self.config.max_concurrent_chunks {
            let Some(chunk) = self.pending.pop_front() else {
                break;
            };
            let forbidden = self
                .stripe_destinations
                .get(&chunk.stripe)
                .cloned()
                .unwrap_or_default();
            let compute_start = std::time::Instant::now();
            let mut probe = state.clone();
            let assignment = dispatch_chunk_for(
                &self.ctx,
                &mut probe,
                chunk,
                &forbidden,
                self.config.resources,
            );
            match assignment {
                Err(SelectError::Unrepairable) => {
                    self.stats.plan_compute_secs += compute_start.elapsed().as_secs_f64();
                    self.skipped += 1;
                    self.errors.push(RepairError::Unrepairable { chunk });
                    continue;
                }
                Err(SelectError::NoDestination) => {
                    self.stats.plan_compute_secs += compute_start.elapsed().as_secs_f64();
                    // Sibling in-flight repairs hold every destination;
                    // retry after one of them completes.
                    deferred.push(chunk);
                    continue;
                }
                Ok(assignment) => {
                    if assignment.estimated_secs > budget && !self.active.is_empty() {
                        self.stats.plan_compute_secs += compute_start.elapsed().as_secs_f64();
                        self.pending.push_front(chunk);
                        break;
                    }
                    let plan = establish_plan(&self.ctx, &assignment);
                    self.stats.plan_compute_secs += compute_start.elapsed().as_secs_f64();
                    let Ok(plan) = plan else {
                        self.skipped += 1;
                        self.errors.push(RepairError::Unrepairable { chunk });
                        continue;
                    };
                    state = probe;
                    self.stripe_destinations
                        .entry(chunk.stripe)
                        .or_default()
                        .push(assignment.destination);
                    let mut exec =
                        PlanExecutor::new(plan, self.ctx.chunk_size(), self.ctx.slice_size())
                            .with_owner(self.active.next_key());
                    exec.start(sim);
                    let n = self.attempts.entry(chunk).or_insert(0);
                    *n += 1;
                    if *n > 1 {
                        self.recovery.retries += 1;
                    }
                    let last_activity = exec.sent_bytes() + exec.progress();
                    self.active.push(ActiveChunk {
                        exec,
                        estimated_secs: assignment.estimated_secs,
                        assignment,
                        dispatched_at: sim.now().as_secs(),
                        retunes_applied: 0,
                        last_action_at: None,
                        last_activity,
                    });
                }
            }
        }
        for chunk in deferred {
            self.pending.push_back(chunk);
        }
        self.phase_state = Some(state);
        self.maybe_finish(sim);
    }

    fn maybe_finish(&mut self, sim: &mut Simulator) {
        if self.finished_at.is_none()
            && self.active.is_empty()
            && self.pending.is_empty()
            && self.retry_timers.is_empty()
        {
            self.finished_at = Some(sim.now().as_secs());
            if let Some(t) = self.phase_timer.take() {
                sim.cancel_timer(t);
            }
            if let Some(t) = self.check_timer.take() {
                sim.cancel_timer(t);
            }
            if let Some(t) = self.stall_timer.take() {
                sim.cancel_timer(t);
            }
        }
    }

    /// Books a dead attempt (flow aborted by a crash, or stalled out) and
    /// either schedules a backoff retry or gives the chunk up. Re-planning
    /// happens at re-dispatch, against the cluster's *current* alive set —
    /// when the lost node held stripe data this escalates to a cascaded
    /// two-erasure repair automatically.
    fn handle_failed_attempt(&mut self, sim: &mut Simulator, mut a: ActiveChunk) {
        a.exec.abort(sim);
        if let Some(state) = self.phase_state.as_mut() {
            a.assignment.release(state);
        }
        let chunk = a.exec.plan().chunk();
        self.recovery
            .book_failed_attempt(a.exec.aborted_flows(), a.exec.sent_bytes());
        self.errors
            .push(RepairError::HelperLost { chunk, node: None });
        if let Some(dests) = self.stripe_destinations.get_mut(&chunk.stripe) {
            if let Some(pos) = dests.iter().position(|&d| d == a.exec.plan().destination()) {
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
        // The failed attempt released capacity; wake postponed siblings.
        for other in self.active.iter_mut() {
            other.exec.resume(sim);
        }
        if !self.pending.is_empty() {
            if self.active.is_empty() {
                self.start_phase(sim);
                return;
            }
            self.admit(sim);
        }
        self.maybe_finish(sim);
    }

    /// Aborts every unpaused attempt that made no progress since the last
    /// sweep (paused chunks are postponed on purpose and only have their
    /// snapshot refreshed).
    fn stall_sweep(&mut self, sim: &mut Simulator) {
        let mut stalled: Vec<usize> = Vec::new();
        for (i, a) in self.active.iter_mut().enumerate() {
            let act = a.exec.sent_bytes() + a.exec.progress();
            if a.exec.is_paused() || act > a.last_activity {
                a.last_activity = act;
            } else {
                stalled.push(i);
            }
        }
        // Remove all stalled attempts before handling any: the handler
        // admits new chunks, which would invalidate the indices.
        let mut failed: Vec<ActiveChunk> = Vec::new();
        for &i in stalled.iter().rev() {
            failed.push(self.active.swap_remove(i));
        }
        for a in failed {
            self.handle_failed_attempt(sim, a);
        }
    }

    /// §III-C: compare progress against expectations; re-tune or re-order.
    fn straggler_check(&mut self, sim: &mut Simulator) {
        let now = sim.now().as_secs();
        let unpaused = self.active.iter().filter(|a| !a.exec.is_paused()).count();
        let mut pauses_available = unpaused.saturating_sub(1);
        for a in self.active.iter_mut() {
            if a.exec.is_paused() || a.exec.is_done() {
                continue;
            }
            let elapsed = now - a.dispatched_at;
            if elapsed < self.config.straggler_min_delay_secs
                || !a.estimated_secs.is_finite()
                || a.estimated_secs <= 0.0
            {
                continue;
            }
            // Hysteresis: give a recently re-scheduled chunk time to show
            // the effect before acting on it again.
            if let Some(last) = a.last_action_at {
                if now - last < 3.0 * self.config.check_interval_secs {
                    continue;
                }
            }
            let expected = (elapsed / a.estimated_secs).min(1.0);
            if a.exec.progress() >= expected * self.config.straggler_progress_ratio {
                continue;
            }
            // Delayed. Prefer proactive re-tuning: redirect the laggiest
            // pending download at a relay to the destination.
            let dst = a.exec.plan().destination();
            let lagging_edge = a
                .exec
                .edge_progress()
                .into_iter()
                .filter(|e| e.to != dst && e.delivered < e.end - e.start)
                .min_by(|x, y| {
                    let fx = x.delivered as f64 / (x.end - x.start).max(1) as f64;
                    let fy = y.delivered as f64 / (y.end - y.start).max(1) as f64;
                    fx.total_cmp(&fy)
                });
            if let Some(edge) = lagging_edge {
                if a.exec.retune_input(sim, edge.to, edge.from) {
                    a.retunes_applied += 1;
                    self.stats.retunes += 1;
                    a.last_action_at = Some(now);
                    // The redirected transfer restarts; relax the
                    // expectation accordingly.
                    a.estimated_secs *= 1.5;
                    continue;
                }
            }
            // Reactive fallback: postpone this chunk's transmissions so
            // sibling chunks stop contending with the straggler.
            if pauses_available > 0 {
                a.exec.pause();
                pauses_available -= 1;
                self.stats.reorders += 1;
                a.last_action_at = Some(now);
                a.estimated_secs *= 1.5;
            }
        }
    }

    fn finish_chunk(&mut self, sim: &mut Simulator, idx: usize) {
        let mut a = self.active.swap_remove(idx);
        let (finished, started) = match (a.exec.finished_at(), a.exec.started_at()) {
            (Some(f), Some(s)) => (f, s),
            _ => {
                // Internally inconsistent attempt: record it instead of
                // panicking and treat it as failed.
                self.errors
                    .push(RepairError::ExecutorState("finish time of a done attempt"));
                self.handle_failed_attempt(sim, a);
                return;
            }
        };
        self.per_chunk_secs.push(finished - started);
        {
            let chunk = a.exec.plan().chunk();
            self.spans.push(RepairSpan {
                stripe: chunk.stripe,
                index: chunk.index,
                started_secs: started,
                finished_secs: finished,
                attempts: self.attempts.get(&chunk).copied().unwrap_or(1),
            });
        }
        self.coding.merge(&a.exec.run_coding(&mut self.coder));
        self.completed_plans.push(a.exec.plan().clone());
        // The chunk's tasks are no longer outstanding.
        if let Some(state) = self.phase_state.as_mut() {
            a.assignment.release(state);
        }
        let chunk = a.exec.plan().chunk();
        if let Some(dests) = self.stripe_destinations.get_mut(&chunk.stripe) {
            if let Some(pos) = dests.iter().position(|&d| d == a.exec.plan().destination()) {
                dests.swap_remove(pos);
            }
        }
        // The repaired chunk now lives on its destination: record the
        // relocation so later failure accounting (cascading crashes,
        // redundancy counts) sees it.
        let dest = a.exec.plan().destination();
        if !self
            .ctx
            .cluster
            .placement()
            .stripe_nodes(chunk.stripe)
            .contains(&dest)
        {
            let _ = self.ctx.cluster.apply_repair(chunk, dest);
        }
        // Opportunistic wake-up of postponed chunks (§III-C): capacity has
        // just been released.
        for other in self.active.iter_mut() {
            other.exec.resume(sim);
        }
        // Use the freed phase budget for more chunks.
        if !self.pending.is_empty() {
            if self.active.is_empty() {
                // The phase under-estimated; start a fresh phase now rather
                // than idling until the timer.
                self.start_phase(sim);
                return;
            }
            self.admit(sim);
        }
        self.maybe_finish(sim);
    }
}

impl RepairDriver for ChameleonDriver {
    fn name(&self) -> String {
        match (self.config.resources, self.config.enable_sar) {
            (Resources::Network, true) => "ChameleonEC".to_string(),
            (Resources::Network, false) => "ETRP".to_string(),
            (Resources::Storage, true) => "ChameleonEC-IO".to_string(),
            (Resources::Storage, false) => "ETRP-IO".to_string(),
        }
    }

    fn start(&mut self, sim: &mut Simulator, chunks: Vec<ChunkId>) {
        if !chunks.is_empty() {
            // A crash can add work after the campaign finished; reopen it.
            self.finished_at = None;
        }
        self.chunks_total += chunks.len();
        let ordered = self.order_chunks(chunks);
        self.pending.extend(ordered);
        if self.started_at.is_none() {
            self.started_at = Some(sim.now().as_secs());
        }
        self.start_phase(sim);
        if !self.is_done() && self.stall_timer.is_none() {
            self.stall_timer =
                Some(sim.schedule_in(self.policy.stall_timeout_secs, STALL_TIMER_KEY));
        }
    }

    fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> bool {
        // The driver is offered every event of the run, most of them not
        // its own (each foreground request completes a flow and fires a
        // timer), so a foreign event is turned away without a lookup:
        // timers by id comparison and dispatch key, flows by class and
        // then owner key.
        let owner = match *event {
            Event::Timer { id, key } => {
                if Some(id) == self.phase_timer {
                    self.phase_timer = None;
                    if !self.is_done() {
                        self.start_phase(sim);
                    }
                } else if Some(id) == self.check_timer {
                    self.check_timer = None;
                    if !self.is_done() {
                        self.straggler_check(sim);
                        self.check_timer =
                            Some(sim.schedule_in(self.config.check_interval_secs, 0));
                    }
                } else if Some(id) == self.stall_timer {
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
                    if self.active.is_empty() {
                        self.start_phase(sim);
                    } else {
                        self.admit(sim);
                    }
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
        let Some(i) = self.active.position(owner) else {
            return false;
        };
        match self.active[i].exec.on_event(sim, event) {
            ExecStatus::NotMine => return false,
            ExecStatus::InProgress => {
                self.active[i].last_activity =
                    self.active[i].exec.sent_bytes() + self.active[i].exec.progress();
            }
            ExecStatus::Done => self.finish_chunk(sim, i),
            ExecStatus::Failed => {
                let a = self.active.swap_remove(i);
                self.handle_failed_attempt(sim, a);
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
            // Slowdowns need no bookkeeping: the per-phase bandwidth
            // measurement and the straggler checks absorb them, and
            // extreme cases trip the stall sweep.
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
            given_up_chunks: crate::baseline::given_up_from_errors(&self.errors),
        }
    }

    fn spans(&self) -> &[RepairSpan] {
        &self.spans
    }

    fn errors(&self) -> &[RepairError] {
        &self.errors
    }

    fn completed_plans(&self) -> &[crate::plan::RepairPlan] {
        &self.completed_plans
    }

    fn set_external_admission(&mut self, external: bool) {
        self.external_admission = external;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_cluster::{Cluster, ClusterConfig};
    use chameleon_codes::{Butterfly, ReedSolomon};
    use std::sync::Arc;

    fn run(config: ChameleonConfig) -> (RepairOutcome, ChameleonStats) {
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        cluster.fail_node(0).unwrap();
        let lost = cluster.lost_chunks(&[0]);
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let mut sim = ctx.cluster.build_simulator();
        let mut driver = ChameleonDriver::new(ctx, config);
        driver.start(&mut sim, lost.clone());
        while let Some(ev) = sim.next_event() {
            driver.on_event(&mut sim, &ev);
        }
        assert!(driver.is_done(), "driver stuck");
        let outcome = driver.outcome(&sim);
        assert_eq!(outcome.chunks_repaired + driver.skipped(), lost.len());
        assert_eq!(driver.skipped(), 0);
        (outcome, driver.stats())
    }

    #[test]
    fn foreign_events_are_refused_without_touching_an_executor() {
        crate::roster::testing::assert_foreign_events_are_refused(
            |ctx| ChameleonDriver::new(ctx, ChameleonConfig::default()),
            |d| d.active.iter().map(|a| format!("{:?}", a.exec)).collect(),
        );
    }

    #[test]
    fn repairs_all_chunks_on_idle_cluster() {
        let (outcome, stats) = run(ChameleonConfig::default());
        assert!(outcome.throughput() > 0.0);
        assert!(stats.phases >= 1);
        assert_eq!(outcome.algorithm, "ChameleonEC");
    }

    #[test]
    fn spans_reconcile_with_per_chunk_secs() {
        let (outcome, _) = run(ChameleonConfig::default());
        assert_eq!(outcome.spans.len(), outcome.per_chunk_secs.len());
        for (span, &secs) in outcome.spans.iter().zip(&outcome.per_chunk_secs) {
            assert_eq!(span.duration_secs(), secs);
            assert!(span.attempts >= 1);
        }
    }

    #[test]
    fn etrp_only_disables_sar() {
        let (outcome, stats) = run(ChameleonConfig::etrp_only());
        assert_eq!(outcome.algorithm, "ETRP");
        assert_eq!(stats.retunes, 0);
        assert_eq!(stats.reorders, 0);
    }

    #[test]
    fn io_variant_completes() {
        let (outcome, _) = run(ChameleonConfig::io());
        assert_eq!(outcome.algorithm, "ChameleonEC-IO");
        assert!(outcome.throughput() > 0.0);
    }

    #[test]
    fn small_t_phase_still_completes() {
        let (outcome, stats) = run(ChameleonConfig {
            t_phase_secs: 1.0,
            ..ChameleonConfig::default()
        });
        assert!(outcome.throughput() > 0.0);
        assert!(stats.phases >= 1);
    }

    #[test]
    fn multi_node_policies_complete() {
        for policy in [
            MultiNodePolicy::Sequential,
            MultiNodePolicy::MostFailedFirst,
            MultiNodePolicy::FastestFirst,
        ] {
            let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
            cluster.fail_node(0).unwrap();
            cluster.fail_node(1).unwrap();
            let lost = cluster.lost_chunks(&[0, 1]);
            let total = lost.len();
            let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
            let mut sim = ctx.cluster.build_simulator();
            let mut driver = ChameleonDriver::new(
                ctx,
                ChameleonConfig {
                    multi_node_policy: policy,
                    ..ChameleonConfig::default()
                },
            );
            driver.start(&mut sim, lost);
            while let Some(ev) = sim.next_event() {
                driver.on_event(&mut sim, &ev);
            }
            assert!(driver.is_done(), "{policy:?} stuck");
            let outcome = driver.outcome(&sim);
            assert_eq!(
                outcome.chunks_repaired + driver.skipped(),
                total,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn concurrency_cap_is_respected_throughout() {
        let mut cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        cluster.fail_node(0).unwrap();
        let lost = cluster.lost_chunks(&[0]);
        assert!(lost.len() > 2);
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let mut sim = ctx.cluster.build_simulator();
        let mut driver = ChameleonDriver::new(
            ctx,
            ChameleonConfig {
                max_concurrent_chunks: 2,
                ..ChameleonConfig::default()
            },
        );
        driver.start(&mut sim, lost);
        assert!(driver.active_chunks() <= 2);
        while let Some(ev) = sim.next_event() {
            driver.on_event(&mut sim, &ev);
            assert!(driver.active_chunks() <= 2, "cap exceeded");
        }
        assert!(driver.is_done());
    }

    #[test]
    fn completing_a_chunk_releases_its_task_counters() {
        use crate::chameleon::dispatch::{dispatch_chunk, PhaseState};
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let n = ctx.cluster.storage_nodes();
        let mut phase = PhaseState::flat(vec![100.0; n], vec![100.0; n]);
        let chunk = chameleon_cluster::ChunkId {
            stripe: 0,
            index: 0,
        };
        let a = dispatch_chunk(&ctx, &mut phase, chunk, &[]).unwrap();
        assert!(phase.t_up.iter().sum::<f64>() > 0.0);
        assert!(phase.t_down.iter().sum::<f64>() > 0.0);
        a.release(&mut phase);
        assert_eq!(phase.t_up.iter().sum::<f64>(), 0.0);
        assert_eq!(phase.t_down.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn io_variant_builds_tree_shaped_plans() {
        use crate::chameleon::dispatch::{dispatch_chunk_for, PhaseState};
        use crate::chameleon::establish_plan;
        use crate::context::Resources;
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let n = ctx.cluster.storage_nodes();
        let mut phase = PhaseState::flat(vec![100.0; n], vec![100.0; n]);
        let chunk = chameleon_cluster::ChunkId {
            stripe: 0,
            index: 0,
        };
        let a = dispatch_chunk_for(&ctx, &mut phase, chunk, &[], Resources::Storage).unwrap();
        // Exactly one network edge into the destination (the tree root),
        // and one disk write accounted there.
        assert_eq!(a.dest_downloads, 1.0);
        let plan = establish_plan(&ctx, &a).unwrap();
        assert!(plan.validate().is_ok());
        assert_eq!(plan.inputs_of(plan.destination()).len(), 1);
        // PPR-like balanced tree: depth ~ log2(k) + 1.
        assert!(
            plan.max_depth() >= 2 && plan.max_depth() <= 3,
            "{}",
            plan.max_depth()
        );
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
        let mut driver = ChameleonDriver::new(ctx, ChameleonConfig::default());
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
        assert!(outcome.recovery.replans >= 1, "{:?}", outcome.recovery);
        assert!(outcome.recovery.retries >= 1);
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
    fn butterfly_repair_works_without_relaying() {
        let mut cfg = ClusterConfig::small(4);
        cfg.stripes = 12;
        let mut cluster = Cluster::new(cfg).unwrap();
        cluster.fail_node(0).unwrap();
        let lost = cluster.lost_chunks(&[0]);
        let total = lost.len();
        let ctx = RepairContext::new(cluster, Arc::new(Butterfly::new()));
        let mut sim = ctx.cluster.build_simulator();
        let mut driver = ChameleonDriver::new(ctx, ChameleonConfig::default());
        driver.start(&mut sim, lost);
        while let Some(ev) = sim.next_event() {
            driver.on_event(&mut sim, &ev);
        }
        assert!(driver.is_done());
        assert_eq!(driver.outcome(&sim).chunks_repaired, total);
    }
}
