//! The repair campaign loop every algorithm runs inside.
//!
//! An HDFS-style reconstruction queue is the same machine whichever
//! algorithm builds the plans. [`Campaign`] owns it once — work queue,
//! roster of in-flight attempts, destinations promised per stripe,
//! retry/backoff and stall timers, failed-attempt booking, relocation of
//! the repaired chunk, spans, outcome and the whole [`RepairDriver`] impl —
//! and consults a [`Planner`] only where the algorithms differ. DESIGN.md
//! §3.6 (`core`) has the table of those points and the rules the loop
//! applies for every planner.
//!
//! When an attempt dies (a flow aborted by a crash, or the stall sweep
//! found it motionless) the loop books the wasted work, waits out
//! [`RecoveryPolicy::backoff_secs`](crate::RecoveryPolicy::backoff_secs)
//! on a simulator timer and re-queues the chunk at the front; planning
//! happens at re-dispatch against the cluster's *current* alive set, so a
//! lost stripe member escalates to a cascaded two-erasure repair by itself.

use std::collections::{HashMap, VecDeque};

use chameleon_cluster::ChunkId;
use chameleon_simnet::{Event, FaultEvent, IdMap, NodeId, Simulator, TimerId, Traffic};

use crate::coding::{CodingStats, PlanCoder};
use crate::context::RepairContext;
use crate::error::RepairError;
use crate::exec::{ExecStatus, PlanExecutor};
use crate::metrics::{GivenUpChunk, RepairOutcome, RepairSpan};
use crate::plan::RepairPlan;
use crate::recovery::{RecoveryStats, STALL_TIMEOUT_SECS};
use crate::roster::Roster;
use crate::select::SelectError;
use crate::RepairDriver;

/// Timer key for retry (backoff) timers.
const RETRY_TIMER_KEY: u64 = 0x9E77;
/// Timer key for the periodic stall sweep.
const STALL_TIMER_KEY: u64 = 0x57A1;

/// What a planner made of a timer the loop did not recognise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerClaim {
    /// Not the planner's timer either.
    NotMine,
    /// The planner's, and dealt with.
    Handled,
    /// The planner's; the loop opens a new admission round.
    NewRound,
}

/// One in-flight chunk repair.
#[derive(Debug)]
pub struct Attempt<S> {
    pub(crate) exec: PlanExecutor,
    /// What the planner keeps per attempt.
    pub(crate) state: S,
    /// Activity snapshot (`sent_bytes + progress`) the stall sweep
    /// compares against.
    last_activity: f64,
}

/// The attempts in flight, in the order sweeps and checks visit them.
pub type Running<S> = Roster<Attempt<S>>;

fn activity_of(exec: &PlanExecutor) -> f64 {
    exec.sent_bytes() + exec.progress()
}

/// How an algorithm builds plans — everything else is the [`Campaign`]'s.
pub trait Planner: Send {
    /// Planner state carried by each in-flight attempt.
    type Attempt: Send;

    /// Algorithm name for reports.
    fn name(&self) -> String;

    /// Upper bound on chunks repaired concurrently.
    fn cap(&self) -> usize;

    /// Orders a batch of chunks handed to `start`.
    fn order(&self, _ctx: &RepairContext, chunks: Vec<ChunkId>) -> Vec<ChunkId> {
        chunks
    }

    /// An admission round begins (`start`, or the roster ran empty with
    /// work pending, or [`TimerClaim::NewRound`]); runs before its
    /// admissions.
    fn begin_round(
        &mut self,
        _: &mut Simulator,
        _: &RepairContext,
        _: &mut Running<Self::Attempt>,
    ) {
    }

    /// Re-arms the planner's timers once a round's admissions are out —
    /// after their flows and before the stall timer, because timer ids
    /// order same-instant events — or, when the campaign is `done`,
    /// cancels them.
    fn pace(&mut self, _sim: &mut Simulator, _done: bool) {}

    /// Plans `chunk`, keeping its destination off `promised` (held by
    /// in-flight siblings of the stripe). `Ok(None)`: the chunk does not
    /// fit this round while `others_active`; it returns to the front of
    /// the queue and admission stops. `Err(NoDestination)` waits for a
    /// sibling in flight; any other error gives the chunk up.
    fn plan(
        &mut self,
        ctx: &RepairContext,
        chunk: ChunkId,
        promised: &[NodeId],
        others_active: bool,
    ) -> Result<Option<(RepairPlan, Self::Attempt)>, SelectError>;

    /// An attempt left the roster, repaired or dead; runs before the loop
    /// re-admits into the freed slot.
    fn attempt_ended(
        &mut self,
        _: &mut Simulator,
        _: &Self::Attempt,
        _: &mut Running<Self::Attempt>,
    ) {
    }

    /// A timer that is neither the stall nor a retry timer fired.
    fn on_timer(
        &mut self,
        _: &mut Simulator,
        _: TimerId,
        _: &mut Running<Self::Attempt>,
    ) -> TimerClaim {
        TimerClaim::NotMine
    }
}

/// A full-node (or multi-node) repair campaign: the queue, the roster and
/// the recovery state machine around a [`Planner`]. Chunks that cannot be
/// repaired are counted in [`Campaign::skipped`] rather than aborting the
/// campaign.
pub struct Campaign<P: Planner> {
    ctx: RepairContext,
    pub(crate) planner: P,
    pending: VecDeque<ChunkId>,
    running: Running<P::Attempt>,
    /// stripe → destinations promised to in-flight sibling chunks.
    stripe_destinations: HashMap<usize, Vec<NodeId>>,
    /// Dispatch attempts made so far per chunk (first dispatch counts).
    attempts: HashMap<ChunkId, u32>,
    /// Backoff timers of chunks waiting to be re-dispatched.
    retry_timers: IdMap<TimerId, ChunkId>,
    stall_timer: Option<TimerId>,
    spans: Vec<RepairSpan>,
    completed_plans: Vec<RepairPlan>,
    coder: PlanCoder,
    coding: CodingStats,
    chunks_total: usize,
    started_at: Option<f64>,
    finished_at: Option<f64>,
    recovery: RecoveryStats,
    errors: Vec<RepairError>,
    /// When true, crash faults update the failure view but do not enqueue
    /// the crashed node's chunks — an orchestrator owns admission.
    external_admission: bool,
}

impl<P: Planner> std::fmt::Debug for Campaign<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("name", &self.planner.name())
            .field("pending", &self.pending.len())
            .field("running", &self.running.len())
            .finish()
    }
}

impl<P: Planner> Campaign<P> {
    /// A campaign around `planner`. The retry/backoff policy is the
    /// context's ([`RepairContext::recovery`]).
    pub(crate) fn with_planner(ctx: RepairContext, planner: P) -> Self {
        Campaign {
            coder: PlanCoder::new(ctx.chunk_size()),
            ctx,
            planner,
            pending: VecDeque::new(),
            running: Roster::new(),
            stripe_destinations: HashMap::new(),
            attempts: HashMap::new(),
            retry_timers: IdMap::default(),
            stall_timer: None,
            spans: Vec::new(),
            completed_plans: Vec::new(),
            coding: CodingStats::default(),
            chunks_total: 0,
            started_at: None,
            finished_at: None,
            recovery: RecoveryStats::default(),
            errors: Vec::new(),
            external_admission: false,
        }
    }

    /// Chunks that could not be repaired (insufficient survivors, or
    /// retry budget exhausted).
    pub fn skipped(&self) -> usize {
        self.given_up().count()
    }

    /// The terminal give-up records in the error log: retries-exhausted
    /// chunks keep their attempt count, unrepairable chunks report zero.
    fn given_up(&self) -> impl Iterator<Item = GivenUpChunk> + '_ {
        self.errors.iter().filter_map(|e| {
            let (chunk, attempts) = match *e {
                RepairError::RetriesExhausted { chunk, attempts } => (chunk, attempts),
                RepairError::Unrepairable { chunk } => (chunk, 0),
                _ => return None,
            };
            Some(GivenUpChunk {
                stripe: chunk.stripe,
                index: chunk.index,
                attempts,
            })
        })
    }

    /// Opens an admission round.
    fn start_round(&mut self, sim: &mut Simulator) {
        self.planner.begin_round(sim, &self.ctx, &mut self.running);
        self.admit(sim);
        self.planner.pace(sim, self.is_done());
    }

    /// Fills free slots from the queue, then notices a finished campaign.
    fn admit(&mut self, sim: &mut Simulator) {
        let mut deferred: Vec<ChunkId> = Vec::new();
        while self.running.len() < self.planner.cap() {
            let Some(chunk) = self.pending.pop_front() else {
                break;
            };
            let promised = self
                .stripe_destinations
                .get(&chunk.stripe)
                .map_or(&[][..], Vec::as_slice);
            let sibling_in_flight = !promised.is_empty();
            let others_active = !self.running.is_empty();
            match self.planner.plan(&self.ctx, chunk, promised, others_active) {
                Ok(Some((plan, state))) => {
                    self.stripe_destinations
                        .entry(chunk.stripe)
                        .or_default()
                        .push(plan.destination());
                    let mut exec =
                        PlanExecutor::new(plan, self.ctx.chunk_size(), self.ctx.slice_size())
                            .with_owner(self.running.next_key());
                    exec.start(sim);
                    let n = self.attempts.entry(chunk).or_insert(0);
                    *n += 1;
                    if *n > 1 {
                        self.recovery.retries += 1;
                    }
                    self.running.push(Attempt {
                        last_activity: activity_of(&exec),
                        exec,
                        state,
                    });
                }
                Ok(None) => {
                    self.pending.push_front(chunk);
                    break;
                }
                // Wait at the back only while a sibling holds a destination
                // it will give back; otherwise waiting would never end.
                Err(SelectError::NoDestination) if sibling_in_flight => deferred.push(chunk),
                Err(_) => self.errors.push(RepairError::Unrepairable { chunk }),
            }
        }
        self.pending.extend(deferred);
        self.maybe_finish(sim);
    }

    fn maybe_finish(&mut self, sim: &mut Simulator) {
        if self.finished_at.is_none()
            && self.running.is_empty()
            && self.pending.is_empty()
            && self.retry_timers.is_empty()
        {
            self.finished_at = Some(sim.now().as_secs());
            self.planner.pace(sim, true);
            if let Some(t) = self.stall_timer.take() {
                sim.cancel_timer(t);
            }
        }
    }

    fn arm_stall_timer(&mut self, sim: &mut Simulator) {
        if !self.is_done() && self.stall_timer.is_none() {
            self.stall_timer = Some(sim.schedule_in(STALL_TIMEOUT_SECS, STALL_TIMER_KEY));
        }
    }

    /// Puts queued work into whatever slots are free — as a new round when
    /// the roster ran empty, so the planner re-measures instead of idling
    /// until its timer.
    fn readmit(&mut self, sim: &mut Simulator) {
        if self.pending.is_empty() {
            self.maybe_finish(sim);
        } else if self.running.is_empty() {
            self.start_round(sim);
        } else {
            self.admit(sim);
        }
    }

    /// An attempt left the roster: its promised destination is free again
    /// and so is its slot.
    fn attempt_ended(&mut self, sim: &mut Simulator, a: &Attempt<P::Attempt>) {
        let plan = a.exec.plan();
        if let Some(dests) = self.stripe_destinations.get_mut(&plan.chunk().stripe) {
            if let Some(pos) = dests.iter().position(|&d| d == plan.destination()) {
                dests.swap_remove(pos);
            }
        }
        self.planner.attempt_ended(sim, &a.state, &mut self.running);
        self.readmit(sim);
    }

    /// Books a dead attempt (already off the roster) and either schedules
    /// a backoff retry or gives the chunk up.
    fn fail_attempt(&mut self, sim: &mut Simulator, mut a: Attempt<P::Attempt>) {
        a.exec.abort(sim);
        let chunk = a.exec.plan().chunk();
        self.recovery
            .book_failed_attempt(a.exec.aborted_flows(), a.exec.sent_bytes());
        self.errors.push(RepairError::HelperLost { chunk });
        let attempts = self.attempts.get(&chunk).copied().unwrap_or(1);
        let policy = &self.ctx.recovery;
        if attempts >= policy.max_attempts {
            self.recovery.given_up += 1;
            self.errors
                .push(RepairError::RetriesExhausted { chunk, attempts });
        } else {
            let t = sim.schedule_in(policy.backoff_secs(chunk, attempts), RETRY_TIMER_KEY);
            self.retry_timers.insert(t, chunk);
        }
        self.attempt_ended(sim, &a);
    }

    /// Books the completed attempt at `i`: latency, span, coding stats and
    /// the relocation in the cluster view.
    fn finish_attempt(&mut self, sim: &mut Simulator, i: usize) {
        let mut a = self.running.swap_remove(i);
        let (Some(finished), Some(started)) = (a.exec.finished_at(), a.exec.started_at()) else {
            // Internally inconsistent attempt: record it instead of
            // panicking and treat it as failed.
            self.errors
                .push(RepairError::ExecutorState("finish time of a done attempt"));
            return self.fail_attempt(sim, a);
        };
        let chunk = a.exec.plan().chunk();
        self.spans.push(RepairSpan {
            stripe: chunk.stripe,
            index: chunk.index,
            started_secs: started,
            finished_secs: finished,
            attempts: self.attempts.get(&chunk).copied().unwrap_or(1),
        });
        self.coding.merge(&a.exec.run_coding(&mut self.coder));
        self.completed_plans.push(a.exec.plan().clone());
        // The repaired chunk now lives on its destination: record the
        // relocation so later failure accounting (cascading crashes,
        // redundancy counts) sees it.
        let dest = a.exec.plan().destination();
        let cluster = &mut self.ctx.cluster;
        if !cluster
            .placement()
            .stripe_nodes(chunk.stripe)
            .contains(&dest)
        {
            let _ = cluster.apply_repair(chunk, dest);
        }
        self.attempt_ended(sim, &a);
    }

    /// Aborts every attempt that made no progress since the last sweep —
    /// how the loop observes helper loss that produces no abort
    /// notification (e.g. a helper slowed to a crawl). Paused attempts are
    /// postponed on purpose and only have their snapshot refreshed.
    fn stall_sweep(&mut self, sim: &mut Simulator) {
        let mut stalled: Vec<usize> = Vec::new();
        for (i, a) in self.running.iter_mut().enumerate() {
            let act = activity_of(&a.exec);
            if a.exec.is_paused() || act > a.last_activity {
                a.last_activity = act;
            } else {
                stalled.push(i);
            }
        }
        // Remove everything stalled before handling any of them: handling
        // refills slots, which would invalidate the collected indices.
        let failed: Vec<_> = stalled
            .iter()
            .rev()
            .map(|&i| self.running.swap_remove(i))
            .collect();
        for a in failed {
            self.fail_attempt(sim, a);
        }
    }
}

impl<P: Planner> RepairDriver for Campaign<P> {
    fn name(&self) -> String {
        self.planner.name()
    }

    fn start(&mut self, sim: &mut Simulator, chunks: Vec<ChunkId>) {
        if !chunks.is_empty() {
            // A crash can add work after the campaign finished; reopen it.
            self.finished_at = None;
        }
        self.chunks_total += chunks.len();
        self.pending.extend(self.planner.order(&self.ctx, chunks));
        if self.started_at.is_none() {
            self.started_at = Some(sim.now().as_secs());
        }
        self.start_round(sim);
        self.arm_stall_timer(sim);
    }

    fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> bool {
        // The driver is offered every event of the run, most of them not
        // its own (each foreground request completes a flow and fires a
        // timer), so a foreign event is turned away without a lookup:
        // timers by id comparison and dispatch key, flows by class and
        // then owner key.
        let owner = match *event {
            Event::Timer { id, key } => {
                if Some(id) == self.stall_timer {
                    self.stall_timer = None;
                    self.stall_sweep(sim);
                    self.arm_stall_timer(sim);
                } else if let Some(chunk) = (key == RETRY_TIMER_KEY)
                    .then(|| self.retry_timers.remove(&id))
                    .flatten()
                {
                    self.pending.push_front(chunk);
                    self.readmit(sim);
                } else {
                    match self.planner.on_timer(sim, id, &mut self.running) {
                        TimerClaim::NotMine => return false,
                        TimerClaim::Handled => {}
                        TimerClaim::NewRound => self.start_round(sim),
                    }
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
                self.fail_attempt(sim, a);
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
            // simulator (a measuring planner sees them at its next round)
            // and extreme cases trip the stall sweep.
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    fn outcome(&self, _sim: &Simulator) -> RepairOutcome {
        let repaired = self.spans.len();
        RepairOutcome {
            algorithm: self.name(),
            chunks_total: self.chunks_total,
            chunks_repaired: repaired,
            repaired_bytes: repaired as f64 * self.ctx.chunk_size() as f64,
            duration: self.started_at.zip(self.finished_at).map(|(s, f)| f - s),
            per_chunk_secs: self.spans.iter().map(RepairSpan::duration_secs).collect(),
            spans: self.spans.clone(),
            coding: self.coding,
            recovery: self.recovery,
            given_up_chunks: self.given_up().collect(),
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

#[cfg(test)]
mod tests {
    //! The driver contract, checked once for all nine algorithm constructors.

    use std::ops::ControlFlow;
    use std::sync::Arc;

    use chameleon_cluster::{Cluster, ClusterConfig};
    use chameleon_codes::ReedSolomon;
    use chameleon_simnet::{FaultPlan, FaultSpec, FlowSpec};
    use chameleon_traces::{Workload, YcsbA};

    use super::*;
    use crate::baseline::{PlanShape, StaticRepairDriver};
    use crate::chameleon::{ChameleonConfig, ChameleonDriver};
    use crate::run::{Routed, Run};

    /// Calls the generic `$check(name, constructor)` for CR, PPR, ECPipe,
    /// their RepairBoost variants, ChameleonEC, ETRP and ChameleonEC-IO.
    macro_rules! for_each_algorithm {
        ($check:ident) => {{
            for shape in [PlanShape::Star, PlanShape::Tree, PlanShape::Chain] {
                $check(shape.name(), |ctx| StaticRepairDriver::new(ctx, shape, 1));
                let boosted = format!("RB+{}", shape.name());
                $check(&boosted, |ctx| StaticRepairDriver::boosted(ctx, shape, 1));
            }
            for (name, config) in [
                ("ChameleonEC", ChameleonConfig::default()),
                ("ETRP", ChameleonConfig::etrp_only()),
                ("ChameleonEC-IO", ChameleonConfig::io()),
            ] {
                $check(name, |ctx| ChameleonDriver::new(ctx, config));
            }
        }};
    }

    /// A driver over RS(4,2) on `nodes` storage nodes with `victims`
    /// already failed, its run, and the chunks the victims held.
    fn campaign<P: Planner>(
        make: impl FnOnce(RepairContext) -> Campaign<P>,
        nodes: usize,
        victims: &[usize],
    ) -> (Campaign<P>, Run, Vec<ChunkId>) {
        let mut cfg = ClusterConfig::small(6);
        cfg.storage_nodes = nodes;
        let mut cluster = Cluster::new(cfg).unwrap();
        for &v in victims {
            cluster.fail_node(v).unwrap();
        }
        let lost = cluster.lost_chunks(victims);
        assert!(!lost.is_empty());
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        (make(ctx.clone()), Run::new(ctx), lost)
    }

    /// Runs the product loop (under `faults`, if any) until nothing is left
    /// to fire, asserting that only the queued abort notices of an attempt
    /// already torn down go unclaimed and that, while the campaign is done,
    /// only a fault fires: it left no live timer or flow behind. Then checks
    /// it lost track of no chunk.
    fn run_to_done<P: Planner>(
        driver: &mut Campaign<P>,
        run: &mut Run,
        faults: Option<&FaultPlan>,
    ) -> RepairOutcome {
        run.injector = faults.map(|plan| plan.inject(&mut run.sim));
        let mut done = false;
        run.run(driver, |_, driver, ev, routed| {
            let aborted =
                matches!(ev, Event::FlowCompleted { outcome, .. } if !outcome.is_delivered());
            assert!(routed != Routed::Unclaimed || aborted, "nobody owns {ev:?}");
            let name = driver.name();
            assert!(!done || routed == Routed::Fault, "{name} left {ev:?}");
            done = driver.is_done();
            ControlFlow::Continue(())
        })
        .unwrap_or_else(|e| panic!("{} stuck ({e}): {driver:?}", driver.name()));
        let sim = &mut run.sim;
        assert_eq!(driver.stall_timer, None);
        assert!(driver.retry_timers.is_empty());
        let outcome = driver.outcome(sim);
        assert_eq!(outcome.given_up_chunks.len(), driver.skipped());
        assert_eq!(
            outcome.chunks_repaired + driver.skipped(),
            outcome.chunks_total,
            "{}",
            outcome.algorithm
        );
        outcome
    }

    #[test]
    fn a_fault_free_campaign_repairs_and_codes_every_chunk() {
        fn check<P: Planner>(name: &str, make: impl FnOnce(RepairContext) -> Campaign<P>) {
            let (mut driver, mut run, lost) = campaign(make, 20, &[0]);
            // No work is a finished campaign of zero length.
            driver.start(&mut run.sim, vec![]);
            assert!(driver.is_done());
            assert_eq!(driver.outcome(&run.sim).duration, Some(0.0));

            driver.start(&mut run.sim, lost.clone());
            let outcome = run_to_done(&mut driver, &mut run, None);
            assert_eq!(outcome.algorithm, name);
            assert_eq!(outcome.chunks_repaired, lost.len());
            assert!(outcome.throughput() > 0.0);
            // Every repaired chunk went through the real coding stages,
            // relays included wherever the plan shape has any.
            assert_eq!(outcome.coding.chunks_coded, outcome.chunks_repaired);
            assert!(outcome.coding.total_nanos() > 0 && outcome.coding.bytes_coded > 0);
            if driver.completed_plans().iter().any(|p| p.max_depth() > 1) {
                assert!(outcome.coding.relay_merge_nanos > 0, "{name}");
            }
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
        for_each_algorithm!(check);
    }

    #[test]
    fn helper_crash_mid_repair_replans_and_completes() {
        fn check<P: Planner>(_: &str, make: impl FnOnce(RepairContext) -> Campaign<P>) {
            let (mut driver, mut run, lost) = campaign(make, 20, &[0]);
            driver.start(&mut run.sim, lost.clone());
            // Whatever the selection policy, this node is helping now.
            let helper = driver.running[0].exec.plan().participants()[0].node;
            let plan = FaultPlan::new(vec![FaultSpec::Crash {
                node: helper,
                at_secs: 0.003,
            }]);
            let outcome = run_to_done(&mut driver, &mut run, Some(&plan));
            // The crash killed at least one in-flight attempt, which was
            // re-planned against the survivors and retried.
            assert!(outcome.recovery.replans >= 1, "{:?}", outcome.recovery);
            assert!(outcome.recovery.retries >= 1);
            assert!(outcome.recovery.aborted_flows >= 1);
            assert!(!driver.errors().is_empty());
            // The helper's chunks were enqueued as newly lost work.
            assert!(outcome.chunks_total > lost.len());
            assert!(outcome.chunks_repaired > 0);
        }
        for_each_algorithm!(check);
    }

    /// Chunks that cannot be repaired are skipped, not fatal — including
    /// the livelock the two copies hid: on `n + 1` nodes with two down, a
    /// chunk can have no destination and no sibling to wait for, and used
    /// to be re-queued for ever.
    #[test]
    fn unrepairable_and_stranded_chunks_are_given_up() {
        fn check<P: Planner>(_: &str, make: impl Fn(RepairContext) -> Campaign<P>) {
            // Three failures against m = 2: some stripes lose too much.
            let (mut driver, mut run, lost) = campaign(&make, 20, &[0, 1, 2]);
            driver.start(&mut run.sim, lost);
            run_to_done(&mut driver, &mut run, None);

            let (mut driver, mut run, lost) = campaign(&make, 7, &[0, 1]);
            driver.start(&mut run.sim, lost);
            let outcome = run_to_done(&mut driver, &mut run, None);
            assert!(outcome.chunks_repaired > 0, "{}", outcome.algorithm);
            let stranded = driver
                .errors()
                .iter()
                .filter(|e| matches!(e, RepairError::Unrepairable { .. }))
                .count();
            assert!(stranded > 0);
            assert_eq!(stranded, outcome.given_up_chunks.len());
        }
        for_each_algorithm!(check);
    }

    #[test]
    fn a_crash_reopening_a_finished_campaign_rearms_the_stall_timer_once() {
        fn check<P: Planner>(_: &str, make: impl FnOnce(RepairContext) -> Campaign<P>) {
            let (mut driver, mut run, lost) = campaign(make, 20, &[0]);
            driver.start(&mut run.sim, lost);
            let total = run_to_done(&mut driver, &mut run, None).chunks_total;

            // A direct fault notification (no flows touched) grows the
            // work queue; a repeat for the same node is idempotent.
            driver.on_fault(&mut run.sim, &FaultEvent::Crash { node: 5 });
            assert!(!driver.is_done());
            let reopened = driver.outcome(&run.sim).chunks_total;
            assert!(reopened > total);
            driver.on_fault(&mut run.sim, &FaultEvent::Crash { node: 5 });
            assert_eq!(driver.outcome(&run.sim).chunks_total, reopened);
            let armed = driver.stall_timer;
            assert!(armed.is_some());
            // More work while the campaign is open keeps the armed timer
            // (`run_to_done` would see a second one fire detached).
            driver.on_fault(&mut run.sim, &FaultEvent::Crash { node: 6 });
            assert_eq!(driver.stall_timer, armed);
            assert!(run_to_done(&mut driver, &mut run, None).chunks_total > reopened);
        }
        for_each_algorithm!(check);
    }

    #[test]
    fn a_stall_swept_attempt_releases_its_promised_destination() {
        fn check<P: Planner>(_: &str, make: impl FnOnce(RepairContext) -> Campaign<P>) {
            let (mut driver, mut run, lost) = campaign(make, 20, &[0]);
            // Fewer chunks than slots, so nothing refills what the sweep
            // frees and the promises can be inspected.
            driver.start(&mut run.sim, lost[..3].to_vec());
            let promised = |d: &Campaign<P>| d.stripe_destinations.values().flatten().count();
            assert_eq!((driver.running.len(), promised(&driver)), (3, 3));
            // No event was delivered since dispatch: nothing moved, so the
            // sweep declares all three attempts stalled.
            driver.stall_sweep(&mut run.sim);
            assert_eq!((driver.running.len(), promised(&driver)), (0, 0));
            assert_eq!(driver.retry_timers.len(), 3);
            let recovery = driver.outcome(&run.sim).recovery;
            assert_eq!(recovery.replans, 3);
            assert!(recovery.aborted_flows >= 3);
            // The retries go out after their backoff and complete.
            let outcome = run_to_done(&mut driver, &mut run, None);
            assert_eq!((outcome.chunks_repaired, outcome.recovery.retries), (3, 3));
            assert!(outcome.spans.iter().all(|s| s.attempts == 2));
        }
        for_each_algorithm!(check);
    }

    #[test]
    fn the_in_flight_cap_is_respected_throughout() {
        fn check<P: Planner>(cap: usize, make: impl FnOnce(RepairContext) -> Campaign<P>) {
            let (mut driver, mut run, lost) = campaign(make, 20, &[0]);
            assert!(lost.len() > cap);
            driver.start(&mut run.sim, lost);
            assert_eq!(driver.running.len(), cap);
            run.run(&mut driver, |_, driver, _, _| {
                assert!(driver.running.len() <= cap, "cap exceeded");
                ControlFlow::Continue(())
            })
            .expect("campaign finishes");
        }
        check(StaticRepairDriver::DEFAULT_CONCURRENCY, |ctx| {
            StaticRepairDriver::new(ctx, PlanShape::Tree, 1)
        });
        let config = ChameleonConfig {
            max_concurrent_chunks: 2,
            ..ChameleonConfig::default()
        };
        check(2, |ctx| ChameleonDriver::new(ctx, config));
    }

    /// Runs a full-node repair next to two foreground clients and a stream
    /// of *hostile* events — test-owned Repair-class flows stamped with the
    /// owner keys live executors hold, and timers carrying the loop's and
    /// the planners' own dispatch keys — and checks that the driver refuses
    /// every event that is not its own without touching an executor, while
    /// both campaigns still run to completion.
    #[test]
    fn foreign_events_are_refused_without_touching_an_executor() {
        fn check<P: Planner>(_: &str, make: impl FnOnce(RepairContext) -> Campaign<P>) {
            const FG_REQUESTS: usize = 40;
            const HOSTILE_FLOWS: usize = 24;
            let (mut driver, mut run, lost) = campaign(make, 20, &[0]);
            let workloads = (0..2)
                .map(|i| Box::new(YcsbA::new(i)) as Box<dyn Workload>)
                .collect();
            run.start_foreground(workloads, FG_REQUESTS);
            driver.start(&mut run.sim, lost.clone());
            let executors = |d: &Campaign<P>| -> Vec<String> {
                d.running.iter().map(|a| format!("{:?}", a.exec)).collect()
            };

            let hostile_flow = |n: usize| {
                FlowSpec::network(5 + n % 3, 9, 2 << 20, Traffic::Repair).with_owner(n as u64 % 4)
            };
            let mut hostile_flows = vec![run.sim.start_flow(hostile_flow(0))];
            // Retry key, stall key, and the 0 the phase and check timers use.
            let hostile_timers = [
                run.sim.schedule_in(0.01, RETRY_TIMER_KEY),
                run.sim.schedule_in(0.02, STALL_TIMER_KEY),
                run.sim.schedule_in(0.03, 0),
            ];

            let (mut refused_flows, mut refused_timers, mut refused_beside_two) = (0, 0, 0);
            // Nothing but the driver touches an executor, so its state
            // after one event is its state before the next.
            let mut before = executors(&driver);
            run.run(&mut driver, |run, driver, ev, routed| {
                let prev = std::mem::replace(&mut before, executors(driver));
                let hostile = match *ev {
                    Event::FlowCompleted { id, .. } => hostile_flows.contains(&id),
                    Event::Timer { id, .. } => hostile_timers.contains(&id),
                };
                if routed == Routed::Repair {
                    assert!(!hostile, "driver claimed a hostile event: {ev:?}");
                    assert!(
                        !matches!(
                            ev,
                            Event::FlowCompleted {
                                tag: Traffic::Foreground,
                                ..
                            }
                        ),
                        "driver claimed a foreground flow: {ev:?}"
                    );
                    return ControlFlow::Continue(());
                }
                assert_eq!(before, prev, "a refused event mutated an executor: {ev:?}");
                if prev.len() >= 2 {
                    refused_beside_two += 1;
                }
                if !hostile {
                    assert_eq!(routed, Routed::Foreground, "nobody owns {ev:?}");
                } else if matches!(ev, Event::Timer { .. }) {
                    refused_timers += 1;
                } else {
                    refused_flows += 1;
                    if hostile_flows.len() < HOSTILE_FLOWS {
                        let next = hostile_flow(hostile_flows.len());
                        hostile_flows.push(run.sim.start_flow(next));
                    }
                }
                ControlFlow::Continue(())
            })
            .expect("both campaigns finish");
            assert_eq!(refused_flows, HOSTILE_FLOWS);
            assert_eq!(refused_timers, hostile_timers.len());
            assert!(
                refused_beside_two > HOSTILE_FLOWS,
                "too few refusals next to >= 2 live executors: {refused_beside_two}"
            );
            assert_eq!(driver.outcome(&run.sim).chunks_repaired, lost.len());
            let report = run.foreground.expect("started above").report(&run.sim);
            assert_eq!(report.completed + report.aborted, 2 * FG_REQUESTS);
        }
        for_each_algorithm!(check);
    }
}
