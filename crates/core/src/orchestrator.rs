//! Cluster-wide repair orchestration: a long-running campaign manager
//! that consumes a continuous failure stream (e.g.
//! `chameleon_simnet::FaultPlan::seeded_poisson`) and drives a
//! [`RepairDriver`] through it with explicit admission control.
//!
//! The orchestrator owns three things the per-campaign drivers do not:
//!
//! 1. **A live repair queue.** Chunks lost by crashes are not handed to
//!    the driver immediately; they queue in arrival order, each pop takes
//!    the first chunk of the stripe with the least residual redundancy in
//!    the current view ([`QueuePolicy`]), and at most
//!    [`OrchestratorConfig::max_in_flight`] chunks are dispatched at a
//!    time.
//! 2. **A repair-bandwidth budget.** Admission spends from a token
//!    bucket ([`BudgetPolicy`]): fixed-rate, or renegotiated each
//!    monitor window from observed foreground traffic so repair only
//!    takes the headroom the foreground leaves (the paper's
//!    low-interference goal applied at the campaign level).
//! 3. **A persistent repair ledger.** Every chunk the stream ever loses
//!    gets a [`LedgerEntry`] tracking its state machine
//!    ([`LedgerState`]): queued → in-flight → repaired, quarantined
//!    after the driver exhausts its retry budget, restored when its
//!    node returns before repair, and lost when its stripe's live
//!    redundancy hits zero — each such transition to lost is a recorded
//!    [`DataLossEvent`], the raw material for the measured-MTTDL
//!    experiment (exp17).
//!
//! It stores only what it cannot derive. The report's admissions are the
//! ledger's entries plus their re-queues, its repairs the harvest cursor
//! into the driver's spans, its admitted bytes `dispatched × k ×
//! chunk_size`; an entry's attempts count the spans and failed attempts
//! harvested for its chunk.
//!
//! The driver runs with external admission
//! ([`RepairDriver::set_external_admission`]): crash faults update its
//! failure view but the orchestrator alone decides what is repaired
//! when.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

use chameleon_cluster::ChunkId;
use chameleon_simnet::{Event, FaultEvent, ResourceKind, Simulator, TimerId, Traffic};

use crate::context::RepairContext;
use crate::error::RepairError;
use crate::metrics::RepairOutcome;
use crate::RepairDriver;

/// Timer key for the token-bucket wake-up timer.
const WAKE_TIMER_KEY: u64 = 0x0BCE;

/// The ledger keys of `stripe`'s chunks.
fn stripe_chunks(stripe: usize) -> RangeInclusive<ChunkId> {
    ChunkId { stripe, index: 0 }..=ChunkId {
        stripe,
        index: usize::MAX,
    }
}

/// How the live repair queue orders chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Strict arrival order.
    Fifo,
    /// Stripes with the least residual redundancy first (a stripe one
    /// erasure from data loss jumps the whole queue); arrival order
    /// breaks ties.
    RedundancyPriority,
}

impl QueuePolicy {
    /// Short label for reports and CSV cells.
    pub fn label(self) -> &'static str {
        match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::RedundancyPriority => "priority",
        }
    }
}

/// How repair bandwidth is budgeted at admission time.
///
/// The budget is spent in *repair read bytes*: admitting one chunk costs
/// `k × chunk_size` (the data a conventional repair moves), so a rate of
/// `r` bytes/s admits roughly `r / (k × chunk_size)` chunks per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetPolicy {
    /// No pacing: admit as fast as `max_in_flight` allows.
    Unlimited,
    /// A fixed token rate in bytes/s.
    Fixed(f64),
    /// Renegotiated from [`chameleon_simnet::Monitor`] feedback once per
    /// window: `rate = max(floor, headroom × (uplink capacity −
    /// observed foreground rate))` over the alive storage nodes.
    Negotiated {
        /// Fraction of the measured idle capacity repair may take.
        headroom: f64,
        /// Minimum rate in bytes/s, so repair never fully starves.
        floor: f64,
    },
}

impl BudgetPolicy {
    /// Short label for reports and CSV cells.
    pub fn label(self) -> &'static str {
        match self {
            BudgetPolicy::Unlimited => "unlimited",
            BudgetPolicy::Fixed(_) => "fixed",
            BudgetPolicy::Negotiated { .. } => "negotiated",
        }
    }
}

/// Tunables of the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrchestratorConfig {
    /// Queue ordering policy.
    pub queue: QueuePolicy,
    /// Repair-bandwidth budget policy.
    pub budget: BudgetPolicy,
    /// Upper bound on concurrently dispatched chunks.
    pub max_in_flight: usize,
    /// Budget renegotiation period and token-bucket horizon in seconds
    /// (the bucket holds at most two windows of tokens).
    pub window_secs: f64,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            queue: QueuePolicy::RedundancyPriority,
            budget: BudgetPolicy::Unlimited,
            max_in_flight: 8,
            window_secs: 15.0,
        }
    }
}

/// Lifecycle state of one chunk in the repair ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerState {
    /// Waiting in the repair queue.
    Queued,
    /// Dispatched to the driver, not yet resolved.
    InFlight,
    /// Successfully repaired (possibly after resurrection from
    /// [`LedgerState::Lost`] — see [`OrchestratorReport::resurrected`]).
    Repaired,
    /// The driver gave the chunk up (retries exhausted or unrepairable);
    /// the orchestrator will not re-admit it.
    Quarantined,
    /// The chunk's node recovered before the repair ran; nothing to do.
    Restored,
    /// The chunk's stripe dropped below `k` live chunks: unreadable until
    /// enough nodes return.
    Lost,
}

impl LedgerState {
    /// Short label for JSONL records.
    pub fn label(self) -> &'static str {
        match self {
            LedgerState::Queued => "queued",
            LedgerState::InFlight => "in_flight",
            LedgerState::Repaired => "repaired",
            LedgerState::Quarantined => "quarantined",
            LedgerState::Restored => "restored",
            LedgerState::Lost => "lost",
        }
    }

    /// Whether the campaign can end with a chunk in this state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, LedgerState::Queued | LedgerState::InFlight)
    }
}

/// Per-chunk record in the repair ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// Current lifecycle state.
    pub state: LedgerState,
    /// Dispatch attempts harvested so far: one per repair span and one
    /// per failed attempt the driver reported for the chunk.
    pub attempts: u32,
    /// Simulated second the chunk first entered the ledger.
    pub enqueued_secs: f64,
    /// Simulated second of the last state change.
    pub updated_secs: f64,
    /// Times the chunk re-entered the queue after a terminal-looking
    /// state (repaired chunk lost again, lost stripe revived).
    pub requeues: u32,
}

impl LedgerEntry {
    /// Renders `chunk`'s entry as one JSON line, schema-compatible with
    /// the flow trace / span lines:
    /// `{"event":"ledger","stripe":S,"chunk":I,"state":"…","attempts":N,…}`.
    pub fn to_json_line(&self, chunk: ChunkId) -> String {
        format!(
            "{{\"event\":\"ledger\",\"stripe\":{},\"chunk\":{},\"state\":\"{}\",\"attempts\":{},\"enqueued\":{},\"updated\":{},\"requeues\":{}}}",
            chunk.stripe,
            chunk.index,
            self.state.label(),
            self.attempts,
            self.enqueued_secs,
            self.updated_secs,
            self.requeues
        )
    }
}

/// One stripe crossing the data-loss threshold: more erasures than the
/// code tolerates, so the stripe is unreadable at this instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataLossEvent {
    /// The stripe that became unreadable.
    pub stripe: usize,
    /// Simulated second of the crossing.
    pub at_secs: f64,
    /// Erasure count at the crossing (always `> m`).
    pub erasures: usize,
}

impl DataLossEvent {
    /// Renders the event as one JSON line, schema-compatible with the
    /// flow trace / span / ledger lines:
    /// `{"event":"data_loss","stripe":S,"t":T,"erasures":E}`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"event\":\"data_loss\",\"stripe\":{},\"t\":{},\"erasures\":{}}}",
            self.stripe, self.at_secs, self.erasures
        )
    }
}

/// One budget negotiation that could not pay for a single chunk per
/// admission window (foreground traffic had swallowed the alive uplink
/// capacity and the configured floor was below one chunk-cost/window).
/// The orchestrator clamps the rate up to keep repairs trickling instead
/// of silently stalling; this record makes the intervention auditable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetStarvedEvent {
    /// Simulated second of the negotiation.
    pub at_secs: f64,
    /// The rate the policy actually negotiated (bytes/s).
    pub negotiated_rate: f64,
    /// The starvation floor it was clamped up to (one chunk-cost per
    /// window, bytes/s).
    pub clamped_rate: f64,
}

impl BudgetStarvedEvent {
    /// Renders the event as one JSON line, schema-compatible with the
    /// other ledger lines:
    /// `{"event":"budget_starved","t":T,"negotiated":R,"clamped":C}`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"event\":\"budget_starved\",\"t\":{},\"negotiated\":{},\"clamped\":{}}}",
            self.at_secs, self.negotiated_rate, self.clamped_rate
        )
    }
}

/// Campaign-level summary of an orchestrated run.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestratorReport {
    /// Inner repair algorithm name.
    pub algorithm: String,
    /// Queue policy label.
    pub queue_policy: String,
    /// Budget policy label.
    pub budget_policy: String,
    /// Ledger admissions: new entries plus re-queues.
    pub enqueued: usize,
    /// Chunks dispatched to the driver.
    pub dispatched: usize,
    /// Successful chunk repairs harvested from the driver (a chunk lost
    /// and repaired twice counts twice).
    pub chunk_repairs: usize,
    /// Ledger entries that ended repaired.
    pub repaired: usize,
    /// Ledger entries that ended quarantined.
    pub quarantined: usize,
    /// Ledger entries that ended restored (node returned before repair).
    pub restored: usize,
    /// Ledger entries that ended lost.
    pub lost_chunks: usize,
    /// Lost → repaired transitions (stripe revived by recoveries, then
    /// repaired after all).
    pub resurrected: usize,
    /// Stripes that crossed the data-loss threshold at least once.
    pub data_loss_events: usize,
    /// Simulated second of the first data-loss event — the measured
    /// time-to-data-loss of this run (`None` = no loss).
    pub first_loss_secs: Option<f64>,
    /// Budget renegotiations performed (0 unless
    /// [`BudgetPolicy::Negotiated`]).
    pub negotiations: usize,
    /// Negotiations clamped up to the starvation floor (see
    /// [`BudgetStarvedEvent`]).
    pub budget_starved: usize,
    /// Mean negotiated/fixed budget rate in bytes/s (0 for unlimited).
    pub mean_budget_rate: f64,
    /// Total repair read bytes admitted (`dispatched × k × chunk_size`).
    pub tokens_spent: f64,
}

/// The campaign manager. Feed it faults via [`Orchestrator::on_fault`]
/// and simulator events via [`Orchestrator::on_event`], exactly like a
/// [`RepairDriver`]; it forwards to the inner driver and runs admission
/// around it.
pub struct Orchestrator {
    /// The orchestrator's own failure/placement view, kept in lockstep
    /// with the driver's (both apply the same faults and the same
    /// repair relocations).
    view: RepairContext,
    driver: Box<dyn RepairDriver>,
    config: OrchestratorConfig,
    /// Live queue in arrival order; priority is read off the view when a
    /// chunk is popped.
    queue: Vec<ChunkId>,
    ledger: BTreeMap<ChunkId, LedgerEntry>,
    /// Chunks dispatched to the driver and not yet terminally resolved
    /// (span, retries-exhausted, or unrepairable).
    in_flight: BTreeSet<ChunkId>,
    /// Stripes currently past the data-loss threshold.
    lost_stripes: BTreeSet<usize>,
    data_loss_events: Vec<DataLossEvent>,
    budget_starved: Vec<BudgetStarvedEvent>,
    dispatch_log: Vec<ChunkId>,
    /// Harvest cursor into the driver's span/plan logs — also the number
    /// of chunk repairs harvested.
    spans_seen: usize,
    /// Harvest cursor into the driver's error log.
    errors_seen: usize,
    tokens: f64,
    rate: f64,
    last_refill: f64,
    last_negotiation: f64,
    wake_timer: Option<TimerId>,
    resurrected: usize,
    negotiations: usize,
    rate_sum: f64,
}

impl std::fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("algorithm", &self.driver.name())
            .field("queued", &self.queue.len())
            .field("in_flight", &self.in_flight.len())
            .field("ledger", &self.ledger.len())
            .field("lost_stripes", &self.lost_stripes.len())
            .finish()
    }
}

impl Orchestrator {
    /// Wraps a driver in a campaign manager. The driver switches to
    /// external admission: it no longer self-enqueues crashed nodes'
    /// chunks.
    ///
    /// # Panics
    ///
    /// Panics if `max_in_flight` is zero or `window_secs` is not
    /// positive.
    pub fn new(
        view: RepairContext,
        mut driver: Box<dyn RepairDriver>,
        config: OrchestratorConfig,
    ) -> Self {
        assert!(config.max_in_flight > 0, "max_in_flight must be positive");
        assert!(
            config.window_secs > 0.0 && config.window_secs.is_finite(),
            "window_secs must be positive"
        );
        driver.set_external_admission(true);
        let cost = view.code.k() as f64 * view.chunk_size() as f64;
        let rate = match config.budget {
            BudgetPolicy::Unlimited => f64::INFINITY,
            BudgetPolicy::Fixed(r) => r.max(1.0),
            // A floor below one chunk-cost per window cannot pay for any
            // admission within a window, so the campaign would silently
            // stall at ~1 B/s whenever foreground traffic swallows the
            // whole uplink. Negotiated budgets always keep at least one
            // chunk per window flowing.
            BudgetPolicy::Negotiated { floor, .. } => floor.max(1.0).max(cost / config.window_secs),
        };
        // Prime the bucket with one window's allowance (at least one
        // chunk) so the campaign does not idle at t = 0.
        let tokens = if rate.is_finite() {
            (rate * config.window_secs).max(cost)
        } else {
            0.0
        };
        Orchestrator {
            view,
            driver,
            config,
            queue: Vec::new(),
            ledger: BTreeMap::new(),
            in_flight: BTreeSet::new(),
            lost_stripes: BTreeSet::new(),
            data_loss_events: Vec::new(),
            budget_starved: Vec::new(),
            dispatch_log: Vec::new(),
            spans_seen: 0,
            errors_seen: 0,
            tokens,
            rate,
            last_refill: 0.0,
            last_negotiation: 0.0,
            wake_timer: None,
            resurrected: 0,
            negotiations: 0,
            rate_sum: 0.0,
        }
    }

    /// Repair read bytes one admission costs.
    fn chunk_cost(&self) -> f64 {
        self.view.code.k() as f64 * self.view.chunk_size() as f64
    }

    /// Queue priority key of a stripe (lower = dispatched earlier).
    fn stripe_key(&self, stripe: usize) -> u32 {
        match self.config.queue {
            QueuePolicy::Fifo => 0,
            QueuePolicy::RedundancyPriority => {
                let m = self.view.code.fault_tolerance();
                m.saturating_sub(self.view.cluster.erasures(stripe)) as u32
            }
        }
    }

    /// Takes the next chunk off the queue: the first in arrival order
    /// among those whose stripe has the lowest key in the current view.
    fn pop_queue(&mut self) -> Option<ChunkId> {
        let keys = self.queue.iter().map(|c| self.stripe_key(c.stripe));
        // `min_by_key` keeps the first of equal minima.
        let (i, _) = keys.enumerate().min_by_key(|&(_, key)| key)?;
        Some(self.queue.remove(i))
    }

    /// Accrues tokens at the current rate (capped at two windows, but
    /// never below one chunk so every configuration makes progress).
    fn refill(&mut self, now: f64) {
        if self.rate.is_finite() {
            let cap = (self.rate * self.config.window_secs * 2.0).max(self.chunk_cost());
            self.tokens = (self.tokens + self.rate * (now - self.last_refill)).min(cap);
        }
        self.last_refill = now;
    }

    /// Renegotiates the token rate from monitor feedback, at most once
    /// per window.
    fn negotiate(&mut self, sim: &Simulator) {
        let BudgetPolicy::Negotiated { headroom, floor } = self.config.budget else {
            return;
        };
        let now = sim.now().as_secs();
        if self.negotiations > 0 && now - self.last_negotiation < self.config.window_secs {
            return;
        }
        // Settle tokens accrued at the old rate before switching.
        self.refill(now);
        let monitor = sim.monitor();
        let mut capacity = 0.0;
        let mut foreground = 0.0;
        // The last *complete* window is the freshest full observation;
        // the current (partial) window under-reports rates.
        let complete = monitor.window_count().checked_sub(2);
        for &node in self.view.cluster.alive_storage_nodes() {
            capacity += sim.capacity(node, ResourceKind::Uplink);
            if let Some(w) = complete {
                foreground += monitor
                    .usage(w, node, ResourceKind::Uplink, Traffic::Foreground)
                    .rate();
            }
        }
        let negotiated = (headroom * (capacity - foreground)).max(floor).max(1.0);
        // Starvation clamp: a rate below one chunk-cost per window admits
        // nothing before the next renegotiation, stalling the campaign
        // whenever foreground traffic saturates the alive uplinks. Clamp
        // up and leave a ledger-visible note instead.
        let starvation_floor = self.chunk_cost() / self.config.window_secs;
        if negotiated < starvation_floor {
            self.budget_starved.push(BudgetStarvedEvent {
                at_secs: now,
                negotiated_rate: negotiated,
                clamped_rate: starvation_floor,
            });
            self.rate = starvation_floor;
        } else {
            self.rate = negotiated;
        }
        self.negotiations += 1;
        self.rate_sum += self.rate;
        self.last_negotiation = now;
    }

    /// Admits queued chunks while slots and tokens allow, dispatching
    /// them to the driver as one batch; schedules a wake-up when
    /// token-starved with work still queued.
    fn pump(&mut self, sim: &mut Simulator) {
        self.negotiate(sim);
        let now = sim.now().as_secs();
        self.refill(now);
        let cost = self.chunk_cost();
        let mut batch: Vec<ChunkId> = Vec::new();
        while self.in_flight.len() + batch.len() < self.config.max_in_flight {
            if self.rate.is_finite() && self.tokens < cost {
                break;
            }
            let Some(chunk) = self.pop_queue() else {
                break;
            };
            let node = self.view.cluster.placement().node_of(chunk);
            let entry = self
                .ledger
                .get_mut(&chunk)
                .expect("queued chunk has a ledger entry");
            if self.view.cluster.is_alive(node) {
                // The node came back while the chunk waited; nothing to
                // repair.
                entry.state = LedgerState::Restored;
                entry.updated_secs = now;
                continue;
            }
            if self.rate.is_finite() {
                self.tokens -= cost;
            }
            entry.state = LedgerState::InFlight;
            entry.updated_secs = now;
            self.in_flight.insert(chunk);
            self.dispatch_log.push(chunk);
            batch.push(chunk);
        }
        if !batch.is_empty() {
            self.driver.start(sim, batch);
        }
        if let Some(t) = self.wake_timer.take() {
            sim.cancel_timer(t);
        }
        if !self.queue.is_empty()
            && self.in_flight.len() < self.config.max_in_flight
            && self.rate.is_finite()
            && self.tokens < cost
        {
            let delay = ((cost - self.tokens) / self.rate).clamp(1e-3, self.config.window_secs);
            self.wake_timer = Some(sim.schedule_in(delay, WAKE_TIMER_KEY));
        }
    }

    /// Pulls new terminal records (spans, give-ups) out of the driver
    /// and applies them to the ledger. An entry's attempts count its
    /// harvested spans and `HelperLost` records, one each.
    fn harvest(&mut self, sim: &Simulator) {
        let now = sim.now().as_secs();
        let spans = self.driver.spans();
        let plans = self.driver.completed_plans();
        let n = spans.len().min(plans.len());
        for i in self.spans_seen..n {
            let chunk = plans[i].chunk();
            let dest = plans[i].destination();
            self.in_flight.remove(&chunk);
            if let Some(entry) = self.ledger.get_mut(&chunk) {
                if entry.state == LedgerState::Lost {
                    // The stripe was revived by recoveries and the
                    // retried repair went through after all. The
                    // data-loss event stays on record as historical
                    // fact.
                    self.resurrected += 1;
                }
                entry.state = LedgerState::Repaired;
                entry.attempts += 1;
                entry.updated_secs = spans[i].finished_secs;
            }
            // Mirror the driver's relocation so the erasure counts the
            // queue keys on stay in lockstep.
            if !self
                .view
                .cluster
                .placement()
                .stripe_nodes(chunk.stripe)
                .contains(&dest)
            {
                let _ = self.view.cluster.apply_repair(chunk, dest);
            }
        }
        self.spans_seen = n;
        let errors = self.driver.errors();
        for error in errors.iter().skip(self.errors_seen) {
            match *error {
                RepairError::RetriesExhausted { chunk, .. }
                | RepairError::Unrepairable { chunk } => {
                    self.in_flight.remove(&chunk);
                    if let Some(entry) = self.ledger.get_mut(&chunk) {
                        if entry.state != LedgerState::Lost {
                            entry.state = LedgerState::Quarantined;
                        }
                        entry.updated_secs = now;
                    }
                }
                RepairError::HelperLost { chunk } => {
                    if let Some(entry) = self.ledger.get_mut(&chunk) {
                        entry.attempts += 1;
                    }
                }
                _ => {}
            }
        }
        self.errors_seen = errors.len();
    }

    fn handle_crash(&mut self, sim: &mut Simulator, node: usize) {
        let now = sim.now().as_secs();
        let lost = self.view.cluster.placement().chunks_on(node);
        let stripes: BTreeSet<usize> = lost.iter().map(|c| c.stripe).collect();
        let m = self.view.code.fault_tolerance();
        for &stripe in &stripes {
            if self.lost_stripes.contains(&stripe) {
                continue;
            }
            let erasures = self.view.cluster.erasures(stripe);
            if erasures > m {
                self.lost_stripes.insert(stripe);
                self.data_loss_events.push(DataLossEvent {
                    stripe,
                    at_secs: now,
                    erasures,
                });
                // Every tracked, non-terminal chunk of the stripe is now
                // unreadable. Queued ones leave the queue; in-flight
                // ones stay with the driver, which aborts and gives
                // them up — or resurrects them if nodes return.
                for (_, entry) in self.ledger.range_mut(stripe_chunks(stripe)) {
                    if matches!(entry.state, LedgerState::Queued | LedgerState::InFlight) {
                        entry.state = LedgerState::Lost;
                        entry.updated_secs = now;
                    }
                }
                self.queue.retain(|c| c.stripe != stripe);
            }
        }
        for chunk in lost {
            // New to the ledger, or lost again: repaired onto this node or
            // restored with it earlier. Queued / in-flight / lost chunks
            // are already tracked; quarantined is terminal.
            let entry = match self.ledger.entry(chunk) {
                Entry::Vacant(slot) => slot.insert(LedgerEntry {
                    state: LedgerState::Queued,
                    attempts: 0,
                    enqueued_secs: now,
                    updated_secs: now,
                    requeues: 0,
                }),
                Entry::Occupied(slot)
                    if matches!(
                        slot.get().state,
                        LedgerState::Repaired | LedgerState::Restored
                    ) =>
                {
                    let entry = slot.into_mut();
                    entry.requeues += 1;
                    entry
                }
                Entry::Occupied(_) => continue,
            };
            entry.updated_secs = now;
            entry.state = if self.lost_stripes.contains(&chunk.stripe) {
                LedgerState::Lost
            } else {
                self.queue.push(chunk);
                LedgerState::Queued
            };
        }
        self.pump(sim);
    }

    fn handle_recover(&mut self, sim: &mut Simulator, node: usize) {
        let now = sim.now().as_secs();
        let back = self.view.cluster.placement().chunks_on(node);
        let stripes: BTreeSet<usize> = back.iter().map(|c| c.stripe).collect();
        for chunk in back {
            let Some(entry) = self.ledger.get_mut(&chunk) else {
                continue;
            };
            match entry.state {
                LedgerState::Queued => self.queue.retain(|&c| c != chunk),
                // A lost chunk whose own node returned is readable again
                // (unless the driver still owns an attempt on it — then
                // the harvest decides).
                LedgerState::Lost if !self.in_flight.contains(&chunk) => {}
                _ => continue,
            }
            entry.state = LedgerState::Restored;
            entry.updated_secs = now;
        }
        let m = self.view.code.fault_tolerance();
        for &stripe in &stripes {
            if !self.lost_stripes.contains(&stripe) || self.view.cluster.erasures(stripe) > m {
                continue;
            }
            // The stripe is readable again: re-queue its lost chunks
            // whose nodes are still down (and are not still owned by
            // the driver).
            self.lost_stripes.remove(&stripe);
            for (&chunk, entry) in self.ledger.range_mut(stripe_chunks(stripe)) {
                if entry.state != LedgerState::Lost || self.in_flight.contains(&chunk) {
                    continue;
                }
                let cluster = &self.view.cluster;
                entry.updated_secs = now;
                if cluster.is_alive(cluster.placement().node_of(chunk)) {
                    entry.state = LedgerState::Restored;
                } else {
                    entry.state = LedgerState::Queued;
                    entry.requeues += 1;
                    self.queue.push(chunk);
                }
            }
        }
        self.pump(sim);
    }

    /// Applies an injected fault: updates the orchestrator's view,
    /// forwards to the driver, and runs loss detection and admission.
    pub fn on_fault(&mut self, sim: &mut Simulator, fault: &FaultEvent) {
        match *fault {
            FaultEvent::Crash { node }
                if node < self.view.cluster.storage_nodes() && self.view.cluster.is_alive(node) =>
            {
                let _ = self.view.cluster.fail_node(node);
                self.driver.on_fault(sim, fault);
                self.handle_crash(sim, node);
            }
            FaultEvent::Recover { node }
                if node < self.view.cluster.storage_nodes()
                    && !self.view.cluster.is_alive(node) =>
            {
                self.view.cluster.heal_node(node);
                self.driver.on_fault(sim, fault);
                self.handle_recover(sim, node);
            }
            _ => self.driver.on_fault(sim, fault),
        }
    }

    /// Handles a simulator event; returns `true` if it belonged to the
    /// orchestrator or its driver.
    pub fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> bool {
        if let Event::Timer { id, .. } = event {
            if Some(*id) == self.wake_timer {
                self.wake_timer = None;
                self.pump(sim);
                return true;
            }
        }
        let handled = self.driver.on_event(sim, event);
        if handled {
            self.harvest(sim);
            self.pump(sim);
        }
        handled
    }

    /// Whether the campaign has quiesced: nothing queued, nothing in
    /// flight, and the driver is idle — as a driver never given a chunk
    /// is, though it never recorded finishing.
    pub fn is_done(&self) -> bool {
        self.queue.is_empty()
            && self.in_flight.is_empty()
            && (self.dispatch_log.is_empty() || self.driver.is_done())
    }

    /// The inner driver's repair outcome.
    pub fn outcome(&self, sim: &Simulator) -> RepairOutcome {
        self.driver.outcome(sim)
    }

    /// The repair ledger, keyed by chunk.
    pub fn ledger(&self) -> &BTreeMap<ChunkId, LedgerEntry> {
        &self.ledger
    }

    /// Every data-loss threshold crossing, in time order.
    pub fn data_loss_events(&self) -> &[DataLossEvent] {
        &self.data_loss_events
    }

    /// Chunks in dispatch order — the admission decisions actually made.
    pub fn dispatch_log(&self) -> &[ChunkId] {
        &self.dispatch_log
    }

    /// Campaign-level summary.
    pub fn report(&self) -> OrchestratorReport {
        let mut repaired = 0;
        let mut quarantined = 0;
        let mut restored = 0;
        let mut lost_chunks = 0;
        let mut requeues = 0;
        for entry in self.ledger.values() {
            requeues += entry.requeues as usize;
            match entry.state {
                LedgerState::Repaired => repaired += 1,
                LedgerState::Quarantined => quarantined += 1,
                LedgerState::Restored => restored += 1,
                LedgerState::Lost => lost_chunks += 1,
                _ => {}
            }
        }
        OrchestratorReport {
            algorithm: self.driver.name(),
            queue_policy: self.config.queue.label().to_string(),
            budget_policy: self.config.budget.label().to_string(),
            enqueued: self.ledger.len() + requeues,
            dispatched: self.dispatch_log.len(),
            chunk_repairs: self.spans_seen,
            repaired,
            quarantined,
            restored,
            lost_chunks,
            resurrected: self.resurrected,
            data_loss_events: self.data_loss_events.len(),
            first_loss_secs: self.data_loss_events.first().map(|e| e.at_secs),
            negotiations: self.negotiations,
            budget_starved: self.budget_starved.len(),
            mean_budget_rate: if self.negotiations > 0 {
                self.rate_sum / self.negotiations as f64
            } else if self.rate.is_finite() {
                self.rate
            } else {
                0.0
            },
            tokens_spent: self.dispatch_log.len() as f64 * self.chunk_cost(),
        }
    }

    /// Renders the campaign as JSONL: every budget-starved event, then
    /// every data-loss event (both in time order), then every ledger entry
    /// (chunk order), schema-compatible with the flow-trace / span /
    /// given-up lines so all can share one `.jsonl` file, returned at its
    /// length.
    pub fn ledger_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.budget_starved {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        for event in &self.data_loss_events {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        for (chunk, entry) in &self.ledger {
            out.push_str(&entry.to_json_line(*chunk));
            out.push('\n');
        }
        out.shrink_to_fit();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{PlanShape, StaticRepairDriver};
    use crate::run::Run;
    use chameleon_cluster::{Cluster, ClusterConfig};
    use chameleon_codes::ReedSolomon;
    use chameleon_simnet::{FaultPlan, FaultSpec, NodeId};
    use std::sync::Arc;

    fn ctx_rs42() -> RepairContext {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()))
    }

    fn run_campaign(
        queue: QueuePolicy,
        budget: BudgetPolicy,
        plan: &FaultPlan,
    ) -> (Orchestrator, Simulator) {
        run_orchestrator(queue, budget, 4, plan)
    }

    /// Drains `plan` through a CR-driving orchestrator to quiescence.
    fn run_orchestrator(
        queue: QueuePolicy,
        budget: BudgetPolicy,
        max_in_flight: usize,
        plan: &FaultPlan,
    ) -> (Orchestrator, Simulator) {
        let ctx = ctx_rs42();
        let driver = Box::new(StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 7));
        orchestrate(ctx, driver, (queue, budget, max_in_flight), plan)
    }

    /// Drains `plan` through an orchestrator around `driver` to quiescence.
    fn orchestrate(
        ctx: RepairContext,
        driver: Box<dyn RepairDriver>,
        (queue, budget, max_in_flight): (QueuePolicy, BudgetPolicy, usize),
        plan: &FaultPlan,
    ) -> (Orchestrator, Simulator) {
        let config = OrchestratorConfig {
            queue,
            budget,
            max_in_flight,
            window_secs: 5.0,
        };
        let mut run = Run::new(ctx.clone());
        let mut orch = Orchestrator::new(ctx, driver, config);
        run.inject(plan);
        run.drain(&mut orch)
            .unwrap_or_else(|e| panic!("{e}: {orch:?}"));
        (orch, run.sim)
    }

    /// What the report and the ledger derive — admissions, harvested
    /// repairs, admitted bytes, attempts — equals what the driver
    /// recorded, over seeded campaigns with retries and give-ups, for a
    /// static and an adaptive planner and the queue/budget pairings the
    /// experiments use.
    #[test]
    fn report_and_ledger_agree_with_the_driver_records() {
        use crate::chameleon::{ChameleonConfig, ChameleonDriver};
        let candidates: Vec<NodeId> = (0..20).collect();
        let negotiated = BudgetPolicy::Negotiated {
            headroom: 0.5,
            floor: 10e6,
        };
        let pairings = [
            (QueuePolicy::Fifo, BudgetPolicy::Fixed(200e6)),
            (QueuePolicy::RedundancyPriority, negotiated),
            (QueuePolicy::RedundancyPriority, BudgetPolicy::Unlimited),
        ];
        let (mut retried, mut exhausted) = (0, 0);
        // Retry budgets from one attempt (every failure exhausts) to the
        // default four.
        for (seed, max_attempts) in [(3, 1), (7, 2), (11, 4)] {
            let plan = FaultPlan::seeded_poisson(seed, &candidates, 20.0, (0.0, 3.0), Some(2.0));
            for ((queue, budget), chameleon) in
                pairings.iter().flat_map(|&p| [(p, false), (p, true)])
            {
                let mut ctx = ctx_rs42();
                ctx.recovery.max_attempts = max_attempts;
                let driver: Box<dyn RepairDriver> = if chameleon {
                    Box::new(ChameleonDriver::new(
                        ctx.clone(),
                        ChameleonConfig::default(),
                    ))
                } else {
                    Box::new(StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 7))
                };
                let (orch, sim) = orchestrate(ctx, driver, (queue, budget, 4), &plan);
                let (report, outcome, ledger) = (orch.report(), orch.outcome(&sim), orch.ledger());
                let cell = format!("seed {seed}, {queue:?}, {budget:?}, {}", report.algorithm);
                assert!(ledger.values().all(|e| e.state.is_terminal()), "{cell}");
                let ended = report.repaired + report.quarantined + report.restored;
                assert_eq!(ended + report.lost_chunks, ledger.len(), "{cell}");
                let requeues: usize = ledger.values().map(|e| e.requeues as usize).sum();
                assert_eq!(report.enqueued, ledger.len() + requeues, "{cell}");
                let cost = 4.0 * (4u64 << 20) as f64;
                assert_eq!(
                    report.tokens_spent,
                    report.dispatched as f64 * cost,
                    "{cell}"
                );
                assert_eq!(report.chunk_repairs, outcome.chunks_repaired, "{cell}");
                for (chunk, entry) in ledger {
                    let of = |stripe, index| (stripe, index) == (chunk.stripe, chunk.index);
                    if entry.state == LedgerState::Repaired {
                        let span = outcome.spans.iter().rfind(|s| of(s.stripe, s.index));
                        assert_eq!(span.map(|s| s.attempts), Some(entry.attempts), "{cell}");
                    }
                    // The chunk's last give-up, if that one exhausted retries.
                    let mut given_up = outcome.given_up_chunks.iter();
                    let given_up = given_up.rfind(|g| of(g.stripe, g.index));
                    if let Some(g) = given_up.filter(|g| g.attempts > 0) {
                        if entry.state == LedgerState::Quarantined {
                            assert_eq!(entry.attempts, g.attempts, "{cell}");
                            exhausted += 1;
                        }
                    }
                    retried += usize::from(entry.attempts > 1);
                }
            }
        }
        assert!(
            retried > 0 && exhausted > 0,
            "{retried} retried, {exhausted} exhausted"
        );
    }

    #[test]
    fn poisson_campaign_completes_and_ledger_reconciles_with_the_engine() {
        let candidates: Vec<NodeId> = (0..20).collect();
        let plan = FaultPlan::seeded_poisson(7, &candidates, 120.0, (0.0, 30.0), Some(15.0));
        let (orch, sim) = run_campaign(
            QueuePolicy::RedundancyPriority,
            BudgetPolicy::Unlimited,
            &plan,
        );
        let outcome = orch.outcome(&sim);
        let report = orch.report();
        assert!(report.enqueued > 0, "the stream lost no chunks at all");
        // Exact reconciliation against engine-delivered bytes: every
        // harvested span is one chunk of real repair writes.
        assert_eq!(report.chunk_repairs, outcome.chunks_repaired);
        assert_eq!(
            outcome.repaired_bytes,
            report.chunk_repairs as f64 * (4u64 << 20) as f64
        );
        assert_eq!(report.dispatched, outcome.chunks_total);
        // Every ledger entry ended in a terminal state, and the terminal
        // states partition the ledger.
        let mut terminal = 0;
        for (chunk, entry) in orch.ledger() {
            assert!(
                entry.state.is_terminal(),
                "stripe {} chunk {} ended {:?}",
                chunk.stripe,
                chunk.index,
                entry.state
            );
            terminal += 1;
        }
        assert_eq!(
            terminal,
            report.repaired + report.quarantined + report.restored + report.lost_chunks
        );
    }

    /// Every flat JSON line the product writes reads back, value for value,
    /// through the workspace's one field reader: the trace, span and ledger
    /// lines.
    #[test]
    fn every_json_line_the_product_writes_reads_back_through_the_field_reader() {
        use crate::metrics::{GivenUpChunk, RepairSpan};
        use chameleon_simnet::trace::{num, text};
        use chameleon_simnet::{AbortCause, EngineProfile, TraceEvent, TraceEventKind, Traffic};

        let aborted = TraceEventKind::Aborted {
            cause: AbortCause::NodeFailure,
            remaining: 12.5,
        };
        for (kind, label, payload, value) in [
            (
                TraceEventKind::Admitted { bytes: 64.0 },
                "admitted",
                "bytes",
                64.0,
            ),
            (
                TraceEventKind::RateChanged { rate: 1.5e8 },
                "rate_changed",
                "rate",
                1.5e8,
            ),
            (
                TraceEventKind::Completed { bytes: 64.0 },
                "completed",
                "bytes",
                64.0,
            ),
            (aborted, "aborted", "remaining", 12.5),
        ] {
            let line = TraceEvent {
                at_secs: 1.25,
                flow: 3,
                tag: Traffic::Repair,
                src: 0,
                dst: 4,
                kind,
            }
            .to_json_line();
            assert_eq!(text(&line, "event"), Some(label), "{line}");
            assert_eq!(text(&line, "class"), Some("repair"), "{line}");
            assert_eq!(num(&line, "at"), Some(1.25), "{line}");
            assert_eq!(num(&line, "dst"), Some(4.0), "{line}");
            assert_eq!(num(&line, payload), Some(value), "{line}");
            let cause = (kind == aborted).then_some("node_failure");
            assert_eq!(text(&line, "cause"), cause, "{line}");
        }

        let profile = EngineProfile {
            events: 10,
            timers_cancelled: 2,
            ..EngineProfile::default()
        };
        let span = RepairSpan {
            stripe: 5,
            index: 2,
            started_secs: 0.5,
            finished_secs: 2.0,
            attempts: 3,
        };
        let given_up = GivenUpChunk {
            stripe: 5,
            index: 2,
            attempts: 0,
        };
        let loss = DataLossEvent {
            stripe: 9,
            at_secs: 86.25,
            erasures: 3,
        };
        let starved = BudgetStarvedEvent {
            at_secs: 15.0,
            negotiated_rate: 1e6,
            clamped_rate: 2.5e7,
        };
        let span_fields = [
            ("stripe", 5.0),
            ("chunk", 2.0),
            ("start", 0.5),
            ("end", 2.0),
            ("attempts", 3.0),
        ];
        for (line, event, numbers) in [
            // `timers_cancelled` is the last field: the value ends at `}`.
            (
                profile.to_json_line(),
                "profile",
                &[("events", 10.0), ("timers_cancelled", 2.0)][..],
            ),
            (span.to_json_line(), "span", &span_fields[..]),
            (
                given_up.to_json_line(),
                "given_up",
                &[("stripe", 5.0), ("chunk", 2.0), ("attempts", 0.0)][..],
            ),
            (
                loss.to_json_line(),
                "data_loss",
                &[("stripe", 9.0), ("t", 86.25), ("erasures", 3.0)][..],
            ),
            (
                starved.to_json_line(),
                "budget_starved",
                &[("t", 15.0), ("negotiated", 1e6), ("clamped", 2.5e7)][..],
            ),
        ] {
            assert_eq!(text(&line, "event"), Some(event), "{line}");
            for &(key, value) in numbers {
                assert_eq!(num(&line, key), Some(value), "{key} of {line}");
            }
        }

        // A ledger line, against the entry it was rendered from.
        let plan = FaultPlan::new(vec![FaultSpec::Crash {
            node: 0,
            at_secs: 0.5,
        }]);
        let (orch, _) = run_campaign(QueuePolicy::Fifo, BudgetPolicy::Unlimited, &plan);
        let jsonl = orch.ledger_jsonl();
        assert_eq!(jsonl.capacity(), jsonl.len(), "returned at its length");
        let mut lines = jsonl.lines().filter(|l| text(l, "event") == Some("ledger"));
        let mut entries = 0;
        for (chunk, entry) in orch.ledger() {
            let line = lines.next().expect("one line per ledger entry");
            assert_eq!(num(line, "stripe"), Some(chunk.stripe as f64), "{line}");
            assert_eq!(num(line, "chunk"), Some(chunk.index as f64), "{line}");
            assert_eq!(text(line, "state"), Some(entry.state.label()), "{line}");
            assert_eq!(num(line, "attempts"), Some(entry.attempts as f64));
            assert_eq!(num(line, "enqueued"), Some(entry.enqueued_secs));
            assert_eq!(num(line, "updated"), Some(entry.updated_secs));
            assert_eq!(num(line, "requeues"), Some(entry.requeues as f64));
            entries += 1;
        }
        assert!(entries > 0 && lines.next().is_none());
    }

    #[test]
    fn identical_seeds_give_identical_ledgers() {
        let candidates: Vec<NodeId> = (0..20).collect();
        let plan = FaultPlan::seeded_poisson(11, &candidates, 100.0, (0.0, 25.0), Some(10.0));
        let (a, _) = run_campaign(
            QueuePolicy::RedundancyPriority,
            BudgetPolicy::Fixed(200e6),
            &plan,
        );
        let (b, _) = run_campaign(
            QueuePolicy::RedundancyPriority,
            BudgetPolicy::Fixed(200e6),
            &plan,
        );
        assert_eq!(a.ledger_jsonl(), b.ledger_jsonl());
        assert_eq!(a.report(), b.report());
        assert_eq!(a.dispatch_log(), b.dispatch_log());
    }

    /// A campaign that never dispatches — no fault at all, or a crash on a
    /// node that holds no chunk — drains at once: its driver was never
    /// started, so it never records finishing, and that is not a stall.
    #[test]
    fn a_campaign_with_nothing_to_repair_quiesces() {
        let cluster = Cluster::new(ClusterConfig {
            stripes: 1,
            ..ClusterConfig::small(6)
        })
        .unwrap();
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let holders = ctx.cluster.placement().stripe_nodes(0).to_vec();
        let idle = (0..20).find(|n| !holders.contains(n)).unwrap();
        let crash_idle = FaultSpec::Crash {
            node: idle,
            at_secs: 1.0,
        };
        for plan in [FaultPlan::new(vec![]), FaultPlan::new(vec![crash_idle])] {
            let driver = Box::new(StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 7));
            let config = (QueuePolicy::RedundancyPriority, BudgetPolicy::Unlimited, 4);
            let (orch, _) = orchestrate(ctx.clone(), driver, config, &plan);
            assert_eq!(orch.report().repaired, 0);
            assert!(orch.ledger().is_empty(), "{:?}", orch.ledger());
        }
    }

    #[test]
    fn overwhelming_a_stripe_records_a_data_loss_event_and_still_quiesces() {
        let ctx = ctx_rs42();
        let victims: Vec<NodeId> = ctx.cluster.placement().stripe_nodes(0)[..3].to_vec();
        let plan = FaultPlan::new(
            victims
                .iter()
                .enumerate()
                .map(|(i, &node)| FaultSpec::Crash {
                    node,
                    at_secs: 0.01 + i as f64 * 0.01,
                })
                .collect(),
        );
        let (orch, _) = run_campaign(
            QueuePolicy::RedundancyPriority,
            BudgetPolicy::Unlimited,
            &plan,
        );
        let report = orch.report();
        assert!(
            orch.data_loss_events().iter().any(|e| e.stripe == 0),
            "stripe 0 lost 3 of 6 chunks under RS(4,2) but no loss was recorded"
        );
        assert_eq!(report.first_loss_secs, Some(0.03));
        assert!(report.lost_chunks > 0);
        // Stripes with <= 2 erasures still got repaired around the loss.
        assert!(report.repaired > 0);
        // Lost entries really are unreadable stripes in the final view.
        for (chunk, entry) in orch.ledger() {
            if entry.state == LedgerState::Lost {
                assert!(orch
                    .data_loss_events()
                    .iter()
                    .any(|e| e.stripe == chunk.stripe));
            }
        }
    }

    #[test]
    fn recovery_restores_queued_chunks_and_revives_lost_stripes() {
        let ctx = ctx_rs42();
        let victims: Vec<NodeId> = ctx.cluster.placement().stripe_nodes(0)[..3].to_vec();
        let mut specs: Vec<FaultSpec> = victims
            .iter()
            .map(|&node| FaultSpec::Crash {
                node,
                at_secs: 0.01,
            })
            .collect();
        // One of the three returns: the stripe drops back to two
        // erasures and becomes repairable again.
        specs.push(FaultSpec::Recover {
            node: victims[2],
            at_secs: 5.0,
        });
        let plan = FaultPlan::new(specs);
        let (orch, _) = run_campaign(
            QueuePolicy::RedundancyPriority,
            BudgetPolicy::Unlimited,
            &plan,
        );
        let report = orch.report();
        assert!(orch.data_loss_events().iter().any(|e| e.stripe == 0));
        // After the recovery no chunk of stripe 0 may end lost.
        for (chunk, entry) in orch.ledger() {
            if chunk.stripe == 0 {
                assert_ne!(
                    entry.state,
                    LedgerState::Lost,
                    "stripe 0 chunk {} stayed lost after the stripe was revived",
                    chunk.index
                );
            }
        }
        assert!(report.restored > 0, "the recovered node restored nothing");
    }

    #[test]
    fn queue_policies_order_dispatch_differently_under_multiple_failures() {
        let ctx = ctx_rs42();
        let nodes = ctx.cluster.placement().stripe_nodes(0);
        let (a, b) = (nodes[0], nodes[1]);
        // A warm-up crash of a node outside stripe 0 fills both repair
        // slots, so when a and b crash together the queue holds stripe
        // 0's two chunks at two erasures — priority pops them first,
        // FIFO leaves them at their arrival positions.
        let c = (0..ctx.cluster.storage_nodes())
            .find(|n| !nodes.contains(n))
            .expect("a node outside stripe 0 exists");
        let plan = FaultPlan::new(vec![
            FaultSpec::Crash {
                node: c,
                at_secs: 0.005,
            },
            FaultSpec::Crash {
                node: a,
                at_secs: 0.01,
            },
            FaultSpec::Crash {
                node: b,
                at_secs: 0.01,
            },
        ]);
        let run = |queue| run_orchestrator(queue, BudgetPolicy::Unlimited, 2, &plan).0;
        let fifo = run(QueuePolicy::Fifo);
        let prio = run(QueuePolicy::RedundancyPriority);
        assert_ne!(
            fifo.dispatch_log(),
            prio.dispatch_log(),
            "priority ordering never deviated from arrival order"
        );
        // Under priority, stripe 0's two chunks (the only two-erasure
        // stripe work at that moment) are dispatched before the
        // single-erasure backlog that arrived with them.
        let pos = |orch: &Orchestrator, index: usize| {
            orch.dispatch_log()
                .iter()
                .position(|ch| ch.stripe == 0 && ch.index == index)
        };
        if let (Some(p1), Some(f1)) = (pos(&prio, 1), pos(&fifo, 1)) {
            assert!(
                p1 < f1,
                "stripe 0's second chunk was not promoted: prio pos {p1}, fifo pos {f1}"
            );
        }
    }

    #[test]
    fn negotiated_budget_renegotiates_each_window() {
        let candidates: Vec<NodeId> = (0..20).collect();
        let plan = FaultPlan::seeded_poisson(3, &candidates, 200.0, (0.0, 20.0), Some(10.0));
        let (orch, _) = run_campaign(
            QueuePolicy::RedundancyPriority,
            BudgetPolicy::Negotiated {
                headroom: 0.5,
                floor: 10e6,
            },
            &plan,
        );
        assert!(orch.is_done());
        let report = orch.report();
        assert!(report.negotiations >= 1);
        assert!(report.mean_budget_rate >= 10e6);
        assert_eq!(
            report.tokens_spent,
            report.dispatched as f64 * 4.0 * (4u64 << 20) as f64
        );
    }

    #[test]
    fn starved_negotiated_budget_is_clamped_and_noted_instead_of_stalling() {
        // A zero-headroom negotiation with a negligible floor used to
        // collapse to max(floor, 1.0) = 1 B/s: with a 16 MB chunk-cost
        // the next admission was ~16M simulated seconds away — a silent
        // stall. The clamp must keep one chunk per window flowing and
        // leave an auditable note.
        let candidates: Vec<NodeId> = (0..20).collect();
        let plan = FaultPlan::seeded_poisson(5, &candidates, 150.0, (0.0, 15.0), Some(10.0));
        let (orch, sim) = run_campaign(
            QueuePolicy::RedundancyPriority,
            BudgetPolicy::Negotiated {
                headroom: 0.0,
                floor: 1.0,
            },
            &plan,
        );
        let report = orch.report();
        assert!(report.enqueued > 0, "the stream lost no chunks at all");
        assert!(
            report.repaired > 0,
            "starved budget repaired nothing: {report:?}"
        );
        // Every negotiation fell below one chunk per window and was
        // clamped; each clamp is visible in the report and the ledger.
        assert_eq!(report.budget_starved, report.negotiations);
        assert!(!orch.budget_starved.is_empty());
        let cost = 4.0 * (4u64 << 20) as f64;
        for e in &orch.budget_starved {
            assert!(e.negotiated_rate < e.clamped_rate);
            assert_eq!(e.clamped_rate, cost / 5.0);
        }
        assert!(orch.ledger_jsonl().contains("\"event\":\"budget_starved\""));
        // The whole campaign finishes in simulated minutes, not months.
        assert!(
            sim.now().as_secs() < 3600.0,
            "campaign crawled: {} s",
            sim.now().as_secs()
        );
    }

    #[test]
    fn healthy_negotiated_budget_records_no_starvation() {
        let candidates: Vec<NodeId> = (0..20).collect();
        let plan = FaultPlan::seeded_poisson(3, &candidates, 200.0, (0.0, 20.0), Some(10.0));
        let (orch, _) = run_campaign(
            QueuePolicy::RedundancyPriority,
            BudgetPolicy::Negotiated {
                headroom: 0.5,
                floor: 10e6,
            },
            &plan,
        );
        let report = orch.report();
        assert!(report.negotiations >= 1);
        assert_eq!(report.budget_starved, 0);
        assert!(!orch.ledger_jsonl().contains("budget_starved"));
    }
}
