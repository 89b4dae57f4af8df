//! The ChameleonEC planner: phase-based dispatch (§III-A), tunable plans
//! (§III-B), and straggler-aware re-scheduling (§III-C), run by the
//! campaign loop.

use chameleon_cluster::ChunkId;
use chameleon_simnet::{NodeId, Simulator, TimerId};

use crate::campaign::{Attempt, Campaign, Planner, Running, TimerClaim};
use crate::chameleon::dispatch::{PhaseState, TaskAssignment};
use crate::chameleon::tunable::establish_plan;
use crate::context::{RepairContext, Resources};
use crate::plan::RepairPlan;
use crate::select::SelectError;

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

/// What the planner keeps per in-flight chunk.
pub struct ChunkTasks {
    assignment: TaskAssignment,
    /// Simulated time of the last straggler action on this chunk, for
    /// hysteresis (a re-tuned or re-ordered chunk gets time to recover
    /// before being flagged again).
    last_action_at: Option<f64>,
}

/// ChameleonEC's scheduling state: the phase's residual-bandwidth view and
/// the phase and progress-check timers it paces itself with.
#[derive(Default)]
pub struct ChameleonPlanner {
    config: ChameleonConfig,
    phase_state: Option<PhaseState>,
    phase_timer: Option<TimerId>,
    check_timer: Option<TimerId>,
    stats: ChameleonStats,
}

/// The ChameleonEC repair driver.
///
/// Feed it simulator events next to a foreground driver; it paces itself
/// with phase and progress-check timers.
pub type ChameleonDriver = Campaign<ChameleonPlanner>;

impl ChameleonDriver {
    /// Creates a driver. The retry/backoff policy comes from the context
    /// ([`RepairContext::recovery`]).
    pub fn new(ctx: RepairContext, config: ChameleonConfig) -> Self {
        let planner = ChameleonPlanner {
            config,
            ..ChameleonPlanner::default()
        };
        Campaign::with_planner(ctx, planner)
    }

    /// Scheduler activity counters.
    pub fn stats(&self) -> ChameleonStats {
        self.planner.stats
    }
}

fn resume_all(sim: &mut Simulator, running: &mut Running<ChunkTasks>) {
    for a in running.iter_mut() {
        a.exec.resume(sim);
    }
}

impl ChameleonPlanner {
    /// §III-C: compare progress against expectations; re-tune or re-order.
    fn straggler_check(&mut self, sim: &mut Simulator, running: &mut Running<ChunkTasks>) {
        let now = sim.now().as_secs();
        let unpaused = running.iter().filter(|a| !a.exec.is_paused()).count();
        let mut pauses_available = unpaused.saturating_sub(1);
        for Attempt { exec, state: a, .. } in running.iter_mut() {
            if exec.is_paused() || exec.is_done() {
                continue;
            }
            let elapsed = now - exec.started_at().unwrap_or(now);
            let estimated_secs = &mut a.assignment.estimated_secs;
            if elapsed < self.config.straggler_min_delay_secs
                || !estimated_secs.is_finite()
                || *estimated_secs <= 0.0
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
            let expected = (elapsed / *estimated_secs).min(1.0);
            if exec.progress() >= expected * self.config.straggler_progress_ratio {
                continue;
            }
            // Delayed. Prefer proactive re-tuning: redirect the laggiest
            // pending download at a relay to the destination.
            let lagging_edge = exec
                .edge_progress()
                .into_iter()
                .filter(|e| e.to.is_some() && e.delivered < e.end - e.start)
                .min_by(|x, y| {
                    let fx = x.delivered as f64 / (x.end - x.start).max(1) as f64;
                    let fy = y.delivered as f64 / (y.end - y.start).max(1) as f64;
                    fx.total_cmp(&fy)
                });
            if let Some(edge) = lagging_edge {
                if exec.retune_input(sim, edge.source) {
                    self.stats.retunes += 1;
                    a.last_action_at = Some(now);
                    // The redirected transfer restarts; relax the
                    // expectation accordingly.
                    *estimated_secs *= 1.5;
                    continue;
                }
            }
            // Reactive fallback: postpone this chunk's transmissions so
            // sibling chunks stop contending with the straggler.
            if pauses_available > 0 {
                exec.pause();
                pauses_available -= 1;
                self.stats.reorders += 1;
                a.last_action_at = Some(now);
                *estimated_secs *= 1.5;
            }
        }
    }
}

impl Planner for ChameleonPlanner {
    type Attempt = ChunkTasks;

    fn name(&self) -> String {
        match (self.config.resources, self.config.enable_sar) {
            (Resources::Network, true) => "ChameleonEC".to_string(),
            (Resources::Network, false) => "ETRP".to_string(),
            (Resources::Storage, true) => "ChameleonEC-IO".to_string(),
            (Resources::Storage, false) => "ETRP-IO".to_string(),
        }
    }

    fn cap(&self) -> usize {
        self.config.max_concurrent_chunks
    }

    fn order(&self, ctx: &RepairContext, mut chunks: Vec<ChunkId>) -> Vec<ChunkId> {
        match self.config.multi_node_policy {
            MultiNodePolicy::Sequential => {
                chunks.sort_by_key(|c| (ctx.cluster.placement().node_of(*c), c.stripe));
            }
            MultiNodePolicy::MostFailedFirst => {
                chunks.sort_by_key(|c| {
                    let failed = ctx.cluster.erasures(c.stripe);
                    (std::cmp::Reverse(failed), c.stripe, c.index)
                });
            }
            MultiNodePolicy::FastestFirst => {
                chunks.sort_by(|a, b| {
                    let cost = |c: &ChunkId| {
                        let alive = ctx.cluster.alive_chunk_indices(c.stripe);
                        ctx.code
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
        chunks
    }

    /// A repair phase starts: wake everything postponed into it and
    /// measure the residual bandwidth it dispatches against.
    fn begin_round(
        &mut self,
        sim: &mut Simulator,
        ctx: &RepairContext,
        running: &mut Running<ChunkTasks>,
    ) {
        self.stats.phases += 1;
        resume_all(sim, running);
        self.phase_state = Some(PhaseState::measure(sim, ctx, self.config.resources));
    }

    fn pace(&mut self, sim: &mut Simulator, done: bool) {
        if let Some(t) = self.phase_timer.take() {
            sim.cancel_timer(t);
        }
        if !done {
            self.phase_timer = Some(sim.schedule_in(self.config.t_phase_secs, 0));
            if self.config.enable_sar && self.check_timer.is_none() {
                self.check_timer = Some(sim.schedule_in(self.config.check_interval_secs, 0));
            }
        } else if let Some(t) = self.check_timer.take() {
            sim.cancel_timer(t);
        }
    }

    /// Admits the chunk while its estimated repair time fits within
    /// `T_phase` (the paper's §III-A admission rule; a chunk is always
    /// admitted when nothing else is in flight). Dispatch only reads the
    /// phase state; an admitted chunk's tasks are committed with its
    /// plan.
    fn plan(
        &mut self,
        ctx: &RepairContext,
        chunk: ChunkId,
        promised: &[NodeId],
        others_active: bool,
    ) -> Result<Option<(RepairPlan, ChunkTasks)>, SelectError> {
        let compute_start = std::time::Instant::now();
        let state = self
            .phase_state
            .as_mut()
            .expect("a round measures the phase before it admits");
        let planned = state.assign(ctx, chunk, promised).and_then(|assignment| {
            if assignment.estimated_secs > self.config.t_phase_secs && others_active {
                return Ok(None);
            }
            let plan = establish_plan(ctx, &assignment)?;
            state.commit(&assignment);
            let tasks = ChunkTasks {
                assignment,
                last_action_at: None,
            };
            Ok(Some((plan, tasks)))
        });
        self.stats.plan_compute_secs += compute_start.elapsed().as_secs_f64();
        planned
    }

    /// The chunk's tasks are no longer outstanding, and the capacity they
    /// held is an opportunity to wake postponed chunks (§III-C).
    fn attempt_ended(
        &mut self,
        sim: &mut Simulator,
        ended: &ChunkTasks,
        running: &mut Running<ChunkTasks>,
    ) {
        if let Some(state) = self.phase_state.as_mut() {
            state.release(&ended.assignment);
        }
        resume_all(sim, running);
    }

    /// Both timers are cancelled when the campaign goes idle, so one that
    /// fires finds it open.
    fn on_timer(
        &mut self,
        sim: &mut Simulator,
        id: TimerId,
        running: &mut Running<ChunkTasks>,
    ) -> TimerClaim {
        if Some(id) == self.phase_timer {
            self.phase_timer = None;
            TimerClaim::NewRound
        } else if Some(id) == self.check_timer {
            self.straggler_check(sim, running);
            self.check_timer = Some(sim.schedule_in(self.config.check_interval_secs, 0));
            TimerClaim::Handled
        } else {
            TimerClaim::NotMine
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Run;
    use crate::{RepairDriver, RepairOutcome};
    use chameleon_cluster::{Cluster, ClusterConfig};
    use chameleon_codes::{Butterfly, ReedSolomon};
    use std::sync::Arc;

    /// Repairs, to the last chunk, everything `victims` held.
    fn repair(
        cfg: ClusterConfig,
        code: Arc<dyn chameleon_codes::ErasureCode>,
        victims: &[usize],
        config: ChameleonConfig,
    ) -> (RepairOutcome, ChameleonStats) {
        let mut cluster = Cluster::new(cfg).unwrap();
        for &v in victims {
            cluster.fail_node(v).unwrap();
        }
        let lost = cluster.lost_chunks(victims);
        let ctx = RepairContext::new(cluster, code);
        let mut run = Run::new(ctx.clone());
        let mut driver = ChameleonDriver::new(ctx, config);
        driver.start(&mut run.sim, lost.clone());
        run.drain(&mut driver).expect("driver stuck");
        let outcome = driver.outcome(&run.sim);
        assert_eq!(outcome.chunks_repaired, lost.len(), "{config:?}");
        assert_eq!(driver.skipped(), 0);
        (outcome, driver.stats())
    }

    fn rs42() -> Arc<ReedSolomon> {
        Arc::new(ReedSolomon::new(4, 2).unwrap())
    }

    #[test]
    fn small_t_phase_still_completes() {
        let config = ChameleonConfig {
            t_phase_secs: 1.0,
            ..ChameleonConfig::default()
        };
        let (outcome, stats) = repair(ClusterConfig::small(6), rs42(), &[0], config);
        assert!(outcome.throughput() > 0.0);
        assert!(stats.phases >= 1);
    }

    #[test]
    fn multi_node_policies_complete() {
        for multi_node_policy in [
            MultiNodePolicy::Sequential,
            MultiNodePolicy::MostFailedFirst,
            MultiNodePolicy::FastestFirst,
        ] {
            let config = ChameleonConfig {
                multi_node_policy,
                ..ChameleonConfig::default()
            };
            repair(ClusterConfig::small(6), rs42(), &[0, 1], config);
        }
    }

    #[test]
    fn io_variant_builds_tree_shaped_plans() {
        use crate::chameleon::{dispatch_chunk, establish_plan};
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let n = ctx.cluster.storage_nodes();
        let mut phase = PhaseState::flat(vec![100.0; n], vec![100.0; n]);
        phase.resources = Resources::Storage;
        let chunk = chameleon_cluster::ChunkId {
            stripe: 0,
            index: 0,
        };
        let a = dispatch_chunk(&ctx, &mut phase, chunk, &[]).unwrap();
        // Exactly one network edge into the destination (the tree root).
        let plan = establish_plan(&ctx, &a).unwrap();
        assert!(plan.validate().is_ok());
        assert_eq!(plan.inputs(None).count(), 1);
        // PPR-like balanced tree: depth ~ log2(k) + 1.
        assert!(
            plan.max_depth() >= 2 && plan.max_depth() <= 3,
            "{}",
            plan.max_depth()
        );
    }

    #[test]
    fn butterfly_repair_works_without_relaying() {
        let mut cfg = ClusterConfig::small(4);
        cfg.stripes = 12;
        let code = Arc::new(Butterfly::new());
        repair(cfg, code, &[0], ChameleonConfig::default());
    }
}
