//! The discrete-event engine.
//!
//! The engine is built for trace-scale event throughput, and its hot path
//! is *group-level*: no per-event cost is proportional to the number of
//! live flows.
//!
//! - rates come from the [`IncrementalSolver`]: flow mutations are
//!   recorded, and each solve re-runs progressive filling only over the
//!   contention closure of the mutations that did not cancel out,
//!   conducting only through saturated resources — bit-identical to a full
//!   solve (DESIGN.md §3.10);
//! - flows live in one id-keyed map; each flow belongs to a *flow group*
//!   (its exact resource-cell sequence), and all per-event bookkeeping —
//!   progress, rates, class tables, completion predictions — happens per
//!   group, not per flow;
//! - per-group progress is a cumulative byte counter (`done`, anchored at
//!   the last rate change); each member carries an immutable completion
//!   `target` on that counter, so members complete in target order and the
//!   whole group needs just one entry (its earliest member) in the global
//!   completion heap;
//! - per-(node, resource, class) aggregate rate and flow-count tables are
//!   maintained incrementally, so [`Simulator::class_rate`],
//!   [`Simulator::residual_capacity`] and [`Simulator::class_flow_count`]
//!   are O(1) lookups (and take `&self`); the monitor records from a
//!   maintained list of *active* cells, so advancing time is O(busy cells),
//!   not O(nodes);
//! - the earliest completion comes from a lazy-invalidation binary heap of
//!   per-group predictions, re-pushed only for groups touched by the last
//!   solve; when a solve moves most predictions at once the heap is
//!   rebuilt wholesale (O(G) heapify instead of G pushes into a heap full
//!   of dead entries).
//!
//! The original full-rescan engine lives beside this one, as
//! `simnet::reference::ReferenceSim`: the oracle of the differential
//! tests, sharing no state with [`Simulator`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::flow::{Flow, FlowId, FlowOutcome, FlowSpec, TimerId, MAX_CONSTRAINTS};
use crate::idmap::IdMap;
use crate::maxmin::{IncrementalSolver, MaxMinSolver};
use crate::monitor::Monitor;
use crate::node::{NodeCaps, NodeId, ResourceKind, Traffic};
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::{AbortCause, EngineProfile, TraceEvent, TraceEventKind, TraceSink};

/// Bytes below which a flow counts as finished (guards float rounding).
pub(crate) const EPS_BYTES: f64 = 1e-6;

/// Full class-rate-table rebuilds happen every this many stale refreshes,
/// bounding the drift incremental `+=`/`-=` updates can accumulate.
const TABLE_REBUILD_PERIOD: u64 = 1024;

/// Number of resource kinds per node (the flattened-table stride).
const KINDS: usize = 4;
/// Number of traffic classes (the flattened-table stride).
const TAGS: usize = 3;

/// A *flow group*: all active flows sharing one exact resource-cell
/// sequence. Max–min fairness gives every member the same rate and
/// freezes them in the same progressive-filling round, so the solver can
/// price the whole group at once — a cluster has O(nodes²) distinct
/// shapes no matter how many flows are live.
///
/// The group is also the unit of progress tracking: `done` counts the
/// bytes every member has moved since the group's creation (materialized
/// lazily at `anchor`; [`FlowGroup::done_at`] extrapolates it), each
/// member stores an immutable completion *target* on that counter, and the
/// group keeps exactly one entry — its earliest-finishing member — in the
/// global completion heap.
#[derive(Debug, Clone)]
struct FlowGroup {
    cells: [u32; MAX_CONSTRAINTS],
    ncells: u8,
    /// Number of member flows; 0 means the group slot is free.
    count: u32,
    /// Members per traffic class (class-table bookkeeping; sums to
    /// `count`).
    tag_counts: [u32; TAGS],
    /// Current per-member max–min rate.
    rate: f64,
    /// Cumulative bytes each member has moved, accurate as of `anchor`.
    done: f64,
    /// The time `done` was last materialized (the last rate change).
    anchor: SimTime,
    /// Bumped whenever the group's completion-heap entry is re-stamped;
    /// stale entries are detected by epoch mismatch.
    epoch: u64,
    /// Whether a live heap entry exists (all-starved groups have none).
    has_entry: bool,
    /// Flow id of the entry's member (the group's earliest finisher).
    head: u64,
    /// Predicted completion time of the entry.
    pred: SimTime,
    /// Whether the group sits in the engine's touched list awaiting
    /// prediction maintenance at the next solve.
    touched: bool,
}

impl FlowGroup {
    /// The progress counter at `now`: `done` extrapolated from `anchor` at
    /// the current rate. Exact while rates are fresh, and also between a
    /// mutation and the next solve, since time cannot advance then.
    fn done_at(&self, now: SimTime) -> f64 {
        let dt = (now - self.anchor).as_secs();
        if self.rate > 0.0 && dt > 0.0 {
            self.done + self.rate * dt
        } else {
            self.done
        }
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-node resource capacities.
    pub nodes: Vec<NodeCaps>,
    /// Length of the bandwidth-monitor windows, in seconds (the paper
    /// analyses 15 s windows).
    pub monitor_window_secs: f64,
    /// Optional rack/spine fabric. `None` (the default) models the
    /// historical rackless cluster: only per-node resources constrain
    /// flows. When set, cross-rack flows are additionally constrained by
    /// ToR and spine link resources (see [`Topology`]).
    pub topology: Option<Topology>,
}

impl SimConfig {
    /// `count` identical nodes with the default 15 s monitor window.
    ///
    /// # Examples
    ///
    /// ```
    /// use chameleon_simnet::{NodeCaps, SimConfig};
    /// let cfg = SimConfig::uniform(20, NodeCaps::default());
    /// assert_eq!(cfg.nodes.len(), 20);
    /// ```
    pub fn uniform(count: usize, caps: NodeCaps) -> Self {
        SimConfig {
            nodes: vec![caps; count],
            monitor_window_secs: 15.0,
            topology: None,
        }
    }

    /// Returns the configuration with the given fabric attached.
    ///
    /// # Panics
    ///
    /// Panics if the topology's node count disagrees with the
    /// configuration's.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        assert_eq!(
            topology.node_count(),
            self.nodes.len(),
            "topology describes {} nodes but the config has {}",
            topology.node_count(),
            self.nodes.len()
        );
        self.topology = Some(topology);
        self
    }

    /// Flattened capacities: `node * 4 + kind` for node resources, then
    /// one per shared link of the topology.
    pub(crate) fn capacities(&self) -> Vec<f64> {
        let nodes = self
            .nodes
            .iter()
            .flat_map(|n| ResourceKind::ALL.map(|k| n.capacity(k)));
        let links = self
            .topology
            .iter()
            .flat_map(|t| (0..t.link_count()).map(|l| t.link_capacity(l)));
        nodes.chain(links).collect()
    }
}

/// Rates have not been re-solved since the last flow-set mutation.
///
/// Returned by [`Simulator::check_fresh`]; the panicking read paths
/// ([`Simulator::flow_rate`], [`Simulator::class_rate`],
/// [`Simulator::residual_capacity`]) raise the same condition as an
/// assertion. Fix by calling [`Simulator::refresh`] (or letting
/// [`Simulator::next_event`] run) before reading rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRatesError;

impl core::fmt::Display for StaleRatesError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(
            "rates are stale: call refresh() (or next_event()) after \
             mutating flows before reading rates",
        )
    }
}

impl std::error::Error for StaleRatesError {}

/// An observable simulation event, returned by [`Simulator::next_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A flow ended — it either delivered its final byte or was aborted by
    /// a node failure (see the `outcome` field).
    FlowCompleted {
        /// The finished flow.
        id: FlowId,
        /// Its traffic class.
        tag: Traffic,
        /// Whether the flow delivered all of its bytes or was aborted.
        outcome: FlowOutcome,
        /// The routing key the flow was started with
        /// ([`FlowSpec::with_owner`]; 0 by default), echoed unchanged.
        owner: u64,
    },
    /// A timer fired.
    Timer {
        /// The timer's identity.
        id: TimerId,
        /// The caller-supplied dispatch key.
        key: u64,
    },
}

/// The flow-level cluster simulator.
///
/// Drivers start flows and timers, then repeatedly call
/// [`Simulator::next_event`], reacting to completions. Between events all
/// active flows progress at their max–min fair rates.
///
/// Mutating the flow set ([`Simulator::start_flow`],
/// [`Simulator::cancel_flow`]) marks the rates stale; they are re-solved
/// lazily by [`Simulator::next_event`] or an explicit
/// [`Simulator::refresh`]. The `&self` rate read paths
/// ([`Simulator::flow_rate`], [`Simulator::class_rate`],
/// [`Simulator::residual_capacity`]) require fresh rates and panic
/// otherwise — call `refresh()` first when probing between mutations.
///
/// See the [crate docs](crate) for a worked example.
#[derive(Debug)]
pub struct Simulator {
    now: SimTime,
    node_caps: Vec<NodeCaps>,
    /// The capacities the simulator was configured with, before any
    /// [`Simulator::scale_node_caps`] fault scaling.
    base_caps: Vec<NodeCaps>,
    /// Nodes currently failed ([`Simulator::fail_node`]): new flows that
    /// touch them abort on admission, existing ones were killed.
    failed_nodes: Vec<bool>,
    /// Abort notifications (flow id, class, owner key) queued by
    /// `fail_node`, delivered (in flow-id order) by `next_event` ahead of
    /// any heap event, without advancing time.
    pending_aborts: VecDeque<(u64, Traffic, u64)>,
    /// Flattened capacities: `caps[node * 4 + kind]` for node resources,
    /// followed by `links` shared link capacities starting at `link_base`.
    caps: Vec<f64>,
    /// The rack/spine fabric, if the simulation has one.
    topology: Option<Topology>,
    /// First link resource index (`nodes × 4`); node cells live below it.
    link_base: usize,
    /// Number of shared link resources (0 without a topology).
    links: usize,
    /// Live flows by id. Nothing walks it in iteration order except
    /// `fail_node`, which sorts what it collects.
    flows: IdMap<u64, Flow>,
    next_flow_id: u64,
    next_timer_id: u64,
    /// Min-heap of (fire time, timer id, key).
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    /// Scheduled timers that have not yet fired or been discarded, each
    /// with its cancelled flag. Cancelling only flags ids still present,
    /// so ids of timers that already fired cannot leak.
    pending_timers: IdMap<u64, bool>,
    rates_stale: bool,
    /// Stale `refresh` calls so far — the clock of the class-rate-table
    /// rebuild. Simulation arithmetic hangs off it, so it is not a
    /// profiling counter.
    stale_refreshes: u64,
    monitor: Monitor,
    /// Opt-in flow-lifecycle trace ([`Simulator::set_trace_enabled`]);
    /// `None` (the default) makes every hook a branch-and-skip.
    trace: Option<TraceSink>,
    /// Self-profiling counters, maintained unconditionally.
    profile: EngineProfile,

    /// Aggregate rate per (node, kind, tag) cell, maintained incrementally.
    class_rate_tbl: Vec<f64>,
    /// Active-flow count per (node, kind, tag) cell (integer, exact).
    class_count_tbl: Vec<u32>,
    /// Lazy-invalidation min-heap of per-group completion predictions:
    /// (predicted completion, head flow id, group epoch).
    completions: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    solver: IncrementalSolver,
    /// Flow groups (slab; `count == 0` slots are free and listed in
    /// `free_groups`).
    groups: Vec<FlowGroup>,
    free_groups: Vec<u32>,
    /// Cell sequence → group index (unused key slots are `u32::MAX`).
    group_ids: IdMap<[u32; MAX_CONSTRAINTS], u32>,
    /// Per-group min-heaps of members by (completion-target bits, flow
    /// id); parallel to `groups`, cleared when a slot frees. Dead members
    /// linger lazily and are discarded when they surface at the head.
    grp_members: Vec<BinaryHeap<Reverse<(u64, u64)>>>,
    /// Groups whose membership or rate changed since the last solve —
    /// exactly the set whose heap entry needs re-stamping.
    touched_groups: Vec<u32>,
    /// Rate-change output of the last incremental solve (scratch).
    scr_changed: Vec<(u32, f64)>,
    /// Entry buffer recycled across wholesale heap rebuilds.
    scr_entries: Vec<Reverse<(SimTime, u64, u64)>>,
    /// Member-id buffer for per-flow trace emission on group rate changes.
    scr_trace_ids: Vec<u64>,
    /// Flattened (node, kind, tag) cell indices with at least one active
    /// flow — what `advance_to` records to the monitor, so idle cells cost
    /// nothing at 1000-node scale.
    active_cells: Vec<u32>,
    /// Position of each cell in `active_cells` (`u32::MAX` when inactive).
    active_pos: Vec<u32>,
}

// Send-bound audit: whole simulations are executed on worker threads by the
// parallel experiment grid in `chameleon-bench`; the simulator must stay
// free of thread-bound state (Rc, RefCell, raw pointers).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Simulator>();
    assert_send_sync::<Monitor>();
};

impl Simulator {
    /// Creates a simulator at time zero.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no nodes.
    pub fn new(config: SimConfig) -> Self {
        assert!(!config.nodes.is_empty(), "at least one node required");
        if let Some(t) = &config.topology {
            assert_eq!(
                t.node_count(),
                config.nodes.len(),
                "topology describes {} nodes but the config has {}",
                t.node_count(),
                config.nodes.len()
            );
        }
        let link_base = config.nodes.len() * KINDS;
        let links = config.topology.as_ref().map_or(0, |t| t.link_count());
        let caps = config.capacities();
        let monitor = Monitor::new(config.nodes.len(), links, config.monitor_window_secs);
        let cells = (config.nodes.len() * KINDS + links) * TAGS;
        let mut solver = IncrementalSolver::new();
        solver.set_capacities(&caps);
        Simulator {
            now: SimTime::ZERO,
            caps,
            topology: config.topology,
            link_base,
            links,
            base_caps: config.nodes.clone(),
            failed_nodes: vec![false; config.nodes.len()],
            pending_aborts: VecDeque::new(),
            node_caps: config.nodes,
            flows: IdMap::default(),
            next_flow_id: 0,
            next_timer_id: 0,
            timers: BinaryHeap::new(),
            pending_timers: IdMap::default(),
            rates_stale: true,
            stale_refreshes: 0,
            monitor,
            trace: None,
            profile: EngineProfile::default(),
            class_rate_tbl: vec![0.0; cells],
            class_count_tbl: vec![0; cells],
            completions: BinaryHeap::new(),
            solver,
            groups: Vec::new(),
            free_groups: Vec::new(),
            group_ids: IdMap::default(),
            grp_members: Vec::new(),
            touched_groups: Vec::new(),
            scr_changed: Vec::new(),
            scr_entries: Vec::new(),
            scr_trace_ids: Vec::new(),
            active_cells: Vec::new(),
            active_pos: vec![u32::MAX; cells],
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of simulated nodes.
    pub fn node_count(&self) -> usize {
        self.node_caps.len()
    }

    /// Capacities of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_caps(&self, node: NodeId) -> NodeCaps {
        self.node_caps[node]
    }

    /// Capacity of one node resource, in bytes/s.
    pub fn capacity(&self, node: NodeId, kind: ResourceKind) -> f64 {
        self.node_caps[node].capacity(kind)
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// The windowed bandwidth monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Consumes the simulator, keeping only its bandwidth monitor — the
    /// post-run state experiments analyse. Dropping the flow map, heaps,
    /// and solver scratch here lets a finished run shed its footprint while
    /// other runs of a parallel experiment grid are still in flight.
    pub fn into_monitor(self) -> Monitor {
        self.monitor
    }

    /// Enables or disables flow-lifecycle tracing.
    ///
    /// Off by default; when off, tracing costs one branch per hook site
    /// and records nothing. Enabling starts a fresh [`TraceSink`];
    /// disabling drops any recorded events. Tracing never influences the
    /// simulation — the event stream is a pure observation, so traced and
    /// untraced runs of the same spec are identical.
    pub fn set_trace_enabled(&mut self, on: bool) {
        self.trace = if on { Some(TraceSink::new()) } else { None };
    }

    /// The recorded flow-lifecycle trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Takes the recorded trace out of the simulator (tracing stops;
    /// re-enable with [`Simulator::set_trace_enabled`] if needed).
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// The engine's self-profiling counters (events delivered, solver
    /// invocations and rounds, heap rebuilds, timer churn).
    pub fn profile(&self) -> EngineProfile {
        EngineProfile {
            solver_rounds: self.solver.total_rounds(),
            ..self.profile
        }
    }

    /// Emits one lifecycle event for a flow if tracing is on.
    fn trace_flow(&mut self, id: u64, spec: &FlowSpec, kind: TraceEventKind) {
        if let Some(tr) = self.trace.as_mut() {
            let (src, dst) = spec.endpoints();
            tr.push(TraceEvent {
                at_secs: self.now.as_secs(),
                flow: id,
                tag: spec.tag(),
                src,
                dst,
                kind,
            });
        }
    }

    fn cell(&self, node: NodeId, kind: ResourceKind, tag: Traffic) -> usize {
        (node * KINDS + kind.index()) * TAGS + tag.index()
    }

    /// Starts a flow; it begins transferring immediately.
    ///
    /// Rates are re-solved lazily, so admitting a burst of flows costs a
    /// single solve (see [`Simulator::start_flows`]).
    ///
    /// # Panics
    ///
    /// Panics if the spec references a node out of range.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        for &(node, _) in spec.constraints() {
            assert!(node < self.node_caps.len(), "node {node} out of range");
        }
        // A flow against a failed node is admitted and immediately
        // aborted: the caller gets a normal id and learns of the failure
        // through the same `FlowOutcome::Aborted` notification as a
        // mid-transfer kill, so drivers have one recovery path.
        if spec
            .constraints()
            .iter()
            .any(|&(node, _)| self.failed_nodes[node])
        {
            let id = FlowId(self.next_flow_id);
            self.next_flow_id += 1;
            self.trace_flow(
                id.0,
                &spec,
                TraceEventKind::Admitted {
                    bytes: spec.bytes(),
                },
            );
            self.trace_flow(
                id.0,
                &spec,
                TraceEventKind::Aborted {
                    cause: AbortCause::NodeFailure,
                    remaining: spec.bytes(),
                },
            );
            self.pending_aborts
                .push_back((id.0, spec.tag(), spec.owner()));
            return id;
        }
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        let mut flow = Flow::compile(spec, self.topology.as_ref(), self.link_base);
        self.trace_flow(
            id.0,
            &flow.spec,
            TraceEventKind::Admitted {
                bytes: flow.spec.bytes(),
            },
        );
        let tag = flow.spec.tag.index();
        for &c in flow.cells() {
            self.activate_cell(c as usize * TAGS + tag);
        }
        let g = self.join_group(&flow, tag);
        flow.group = g;
        let grp = &self.groups[g as usize];
        // The member joins mid-stream: its completion target is the
        // group's progress counter now plus its bytes.
        flow.target = grp.done_at(self.now) + flow.spec.bytes;
        self.grp_members[g as usize].push(Reverse((flow.target.to_bits(), id.0)));
        // New members share the group's current rate immediately.
        for &c in flow.cells() {
            self.class_rate_tbl[c as usize * TAGS + tag] += grp.rate;
        }
        self.flows.insert(id.0, flow);
        self.rates_stale = true;
        id
    }

    /// Starts a batch of flows at the current time, returning their ids in
    /// order.
    ///
    /// Admission is lazy, so the whole batch is priced by
    /// one rate solve — the entry point trace replay should use when an
    /// op fans out into several flows.
    ///
    /// # Panics
    ///
    /// Panics if any spec references a node out of range.
    pub fn start_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) -> Vec<FlowId> {
        specs.into_iter().map(|s| self.start_flow(s)).collect()
    }

    /// The group-map key for a flow: its exact cell sequence, padded with
    /// `u32::MAX`.
    fn group_key(flow: &Flow) -> [u32; MAX_CONSTRAINTS] {
        let mut key = [u32::MAX; MAX_CONSTRAINTS];
        key[..flow.ncells as usize].copy_from_slice(flow.cells());
        key
    }

    /// Marks a group for prediction maintenance at the next solve.
    fn touch_group(&mut self, g: u32) {
        let grp = &mut self.groups[g as usize];
        if !grp.touched {
            grp.touched = true;
            self.touched_groups.push(g);
        }
    }

    /// Adds a flow to the group sharing its resource-cell sequence,
    /// creating the group if it is the first member. Registers the
    /// membership change with the incremental solver and marks the group
    /// touched.
    fn join_group(&mut self, flow: &Flow, tag: usize) -> u32 {
        use std::collections::hash_map::Entry;
        let (g, created) = match self.group_ids.entry(Self::group_key(flow)) {
            Entry::Occupied(e) => {
                let g = *e.get();
                let grp = &mut self.groups[g as usize];
                grp.count += 1;
                grp.tag_counts[tag] += 1;
                (g, false)
            }
            Entry::Vacant(e) => {
                let mut tag_counts = [0u32; TAGS];
                tag_counts[tag] = 1;
                let grp = FlowGroup {
                    cells: flow.cells,
                    ncells: flow.ncells,
                    count: 1,
                    tag_counts,
                    rate: 0.0,
                    done: 0.0,
                    anchor: self.now,
                    epoch: 0,
                    has_entry: false,
                    head: 0,
                    pred: SimTime::ZERO,
                    touched: false,
                };
                let g = match self.free_groups.pop() {
                    Some(g) => {
                        // Preserve the touched flag across slot reuse: the
                        // old occupant may still sit in the touched list.
                        let was_touched = self.groups[g as usize].touched;
                        self.groups[g as usize] = grp;
                        self.groups[g as usize].touched = was_touched;
                        g
                    }
                    None => {
                        self.groups.push(grp);
                        self.grp_members.push(BinaryHeap::new());
                        (self.groups.len() - 1) as u32
                    }
                };
                (*e.insert(g), true)
            }
        };
        let grp = &self.groups[g as usize];
        if created {
            self.solver
                .insert_group(g, &grp.cells[..grp.ncells as usize], 1);
        } else {
            self.solver.set_weight(g, grp.count);
        }
        self.touch_group(g);
        g
    }

    /// Removes a departed flow from its group, freeing empty groups.
    /// Registers the weight change with the incremental solver and marks
    /// the group touched.
    fn leave_group(&mut self, flow: &Flow) {
        let g = flow.group as usize;
        let tag = flow.spec.tag.index();
        debug_assert!(self.groups[g].count > 0);
        debug_assert!(self.groups[g].tag_counts[tag] > 0);
        self.groups[g].count -= 1;
        self.groups[g].tag_counts[tag] -= 1;
        let count = self.groups[g].count;
        self.solver.set_weight(flow.group, count);
        self.touch_group(flow.group);
        if count == 0 {
            self.group_ids.remove(&Self::group_key(flow));
            self.free_groups.push(flow.group);
            self.grp_members[g].clear();
        }
    }

    /// Marks a (node, kind, tag) cell as having one more active flow,
    /// adding it to the active list on the 0→1 transition.
    fn activate_cell(&mut self, ct: usize) {
        if self.class_count_tbl[ct] == 0 {
            self.active_pos[ct] = self.active_cells.len() as u32;
            self.active_cells.push(ct as u32);
        }
        self.class_count_tbl[ct] += 1;
    }

    /// Removes one active flow from a cell, swap-removing it from the
    /// active list (and zeroing any accumulated rate drift) on the 1→0
    /// transition.
    fn deactivate_cell(&mut self, ct: usize) {
        debug_assert!(self.class_count_tbl[ct] > 0);
        self.class_count_tbl[ct] -= 1;
        if self.class_count_tbl[ct] == 0 {
            self.class_rate_tbl[ct] = 0.0;
            let p = self.active_pos[ct] as usize;
            let last = self.active_cells.pop().expect("active list nonempty");
            if last as usize != ct {
                self.active_cells[p] = last;
                self.active_pos[last as usize] = p as u32;
            }
            self.active_pos[ct] = u32::MAX;
        }
    }

    /// Subtracts a departing flow from the class tables and its group.
    fn retire_flow_accounting(&mut self, flow: &Flow) {
        let tag = flow.spec.tag.index();
        let rate = self.groups[flow.group as usize].rate;
        for &c in flow.cells() {
            let cell = c as usize * TAGS + tag;
            self.class_rate_tbl[cell] -= rate;
            self.deactivate_cell(cell);
        }
        self.leave_group(flow);
    }

    /// Bytes a live flow has left at `now`.
    fn remaining(&self, flow: &Flow) -> f64 {
        (flow.target - self.groups[flow.group as usize].done_at(self.now)).max(0.0)
    }

    /// Cancels a flow, returning the bytes it had left, or `None` if it has
    /// already completed (or never existed).
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<f64> {
        let flow = self.flows.remove(&id.0)?;
        let left = self.remaining(&flow);
        self.retire_flow_accounting(&flow);
        self.trace_flow(
            id.0,
            &flow.spec,
            TraceEventKind::Aborted {
                cause: AbortCause::Cancelled,
                remaining: left,
            },
        );
        self.rates_stale = true;
        Some(left)
    }

    /// Fails a node: every active flow traversing any of its resources is
    /// killed atomically (capacity is released and rates re-solve for the
    /// survivors), and each killed flow surfaces as a
    /// [`Event::FlowCompleted`] with [`FlowOutcome::Aborted`] — in flow-id
    /// order, before any further heap event, without advancing time. Until
    /// [`Simulator::recover_node`], new flows touching the node abort on
    /// admission.
    ///
    /// Failing an already-failed node is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn fail_node(&mut self, node: NodeId) {
        assert!(node < self.node_caps.len(), "node {node} out of range");
        if self.failed_nodes[node] {
            return;
        }
        self.failed_nodes[node] = true;
        // Collect victims in flow-id order so abort delivery (and thus
        // every downstream driver decision) is deterministic regardless of
        // map order. Only node cells (below `link_base`) identify victims;
        // link cells decode to no node.
        let mut victims: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| {
                f.cells()
                    .iter()
                    .any(|&c| (c as usize) < self.link_base && c as usize / KINDS == node)
            })
            .map(|(&id, _)| id)
            .collect();
        victims.sort_unstable();
        for id in victims {
            let flow = self.flows.remove(&id).expect("victim flow exists");
            let wasted = self.remaining(&flow);
            self.retire_flow_accounting(&flow);
            self.monitor
                .record_abort(node, flow.spec.tag, wasted, self.now.as_secs());
            self.trace_flow(
                id,
                &flow.spec,
                TraceEventKind::Aborted {
                    cause: AbortCause::NodeFailure,
                    remaining: wasted,
                },
            );
            self.pending_aborts
                .push_back((id, flow.spec.tag, flow.spec.owner));
            self.rates_stale = true;
        }
    }

    /// Clears a node's failed state; new flows may traverse it again.
    /// Flows killed by the failure stay dead — restarting them is the
    /// driver's job.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn recover_node(&mut self, node: NodeId) {
        assert!(node < self.node_caps.len(), "node {node} out of range");
        self.failed_nodes[node] = false;
    }

    /// Whether a node is currently failed.
    pub fn is_node_failed(&self, node: NodeId) -> bool {
        self.failed_nodes[node]
    }

    /// Re-rates a node's capacities to `base × factor` (network and disk
    /// factors applied to the capacities the simulator was built with, so
    /// repeated calls don't compound): the fault primitive behind
    /// transient slowdowns and disk degradation. All flows through the
    /// node are atomically re-rate-limited at the next solve; none are
    /// killed. Factors of `1.0` restore the configured capacities.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or either factor is not positive
    /// and finite.
    pub fn scale_node_caps(&mut self, node: NodeId, net_factor: f64, disk_factor: f64) {
        assert!(node < self.node_caps.len(), "node {node} out of range");
        let scaled = self.base_caps[node].scaled(net_factor, disk_factor);
        self.node_caps[node] = scaled;
        for kind in ResourceKind::ALL {
            let res = node * KINDS + kind.index();
            self.caps[res] = scaled.capacity(kind);
            self.solver.set_capacity(res, self.caps[res]);
        }
        self.rates_stale = true;
    }

    /// Checks that rates are fresh, returning a typed error instead of
    /// panicking — the fallible twin of the internal freshness assertion
    /// behind [`Simulator::flow_rate`] and friends. Drivers probing
    /// between mutations can branch on this rather than catch an unwind.
    pub fn check_fresh(&self) -> Result<(), StaleRatesError> {
        if self.rates_stale {
            Err(StaleRatesError)
        } else {
            Ok(())
        }
    }

    #[track_caller]
    fn assert_fresh(&self) {
        if let Err(e) = self.check_fresh() {
            panic!("{e}");
        }
    }

    /// Current max–min fair rate of a flow, in bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if rates are stale — call [`Simulator::refresh`] first.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.assert_fresh();
        self.flows
            .get(&id.0)
            .map(|f| self.groups[f.group as usize].rate)
    }

    /// Bytes a flow still has to transfer.
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id.0).map(|f| self.remaining(f))
    }

    /// Whether an abort notification for `id` is queued but not yet
    /// delivered. A node failure kills every flow touching the node
    /// atomically but surfaces the aborts one event at a time; a driver
    /// tearing down a whole attempt on the first abort uses this to
    /// account for sibling flows the same failure already killed
    /// (cancelling them is a no-op — they are gone from the engine).
    pub fn abort_pending(&self, id: FlowId) -> bool {
        self.pending_aborts.iter().any(|&(fid, ..)| fid == id.0)
    }

    /// Instantaneous aggregate rate of one traffic class through one node
    /// resource, in bytes/s — what a bandwidth monitor daemon (NetHogs in
    /// the paper) would report right now. O(1).
    ///
    /// # Panics
    ///
    /// Panics if rates are stale — call [`Simulator::refresh`] first.
    pub fn class_rate(&self, node: NodeId, kind: ResourceKind, tag: Traffic) -> f64 {
        self.assert_fresh();
        self.class_rate_tbl[self.cell(node, kind, tag)].max(0.0)
    }

    /// Residual (idle) bandwidth of a node resource after subtracting the
    /// given traffic classes — the quantity ChameleonEC dispatches against.
    ///
    /// # Panics
    ///
    /// Panics if rates are stale — call [`Simulator::refresh`] first.
    pub fn residual_capacity(&self, node: NodeId, kind: ResourceKind, subtract: &[Traffic]) -> f64 {
        let cap = self.capacity(node, kind);
        let used: f64 = subtract
            .iter()
            .map(|&t| self.class_rate(node, kind, t))
            .sum();
        (cap - used).max(0.0)
    }

    /// Number of active flows of one traffic class crossing a node
    /// resource. Schedulers use this for fair-share estimates: a new flow
    /// on a saturated resource still gets roughly `capacity / (count+1)`.
    /// O(1): maintained incrementally on admission/retirement.
    pub fn class_flow_count(&self, node: NodeId, kind: ResourceKind, tag: Traffic) -> usize {
        self.class_count_tbl[self.cell(node, kind, tag)] as usize
    }

    /// The rack/spine fabric the simulation was configured with, if any.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// Number of shared link resources (0 without a topology).
    pub fn link_count(&self) -> usize {
        self.links
    }

    /// Capacity of one shared link resource, in bytes/s (link indices are
    /// the [`Topology`] link ids).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_capacity(&self, link: usize) -> f64 {
        assert!(link < self.links, "link {link} out of range");
        self.caps[self.link_base + link]
    }

    /// Instantaneous aggregate rate of one traffic class through one
    /// shared link resource, in bytes/s. O(1).
    ///
    /// # Panics
    ///
    /// Panics if rates are stale (call [`Simulator::refresh`] first) or
    /// `link` is out of range.
    pub fn link_class_rate(&self, link: usize, tag: Traffic) -> f64 {
        self.assert_fresh();
        assert!(link < self.links, "link {link} out of range");
        self.class_rate_tbl[(self.link_base + link) * TAGS + tag.index()].max(0.0)
    }

    /// Residual (idle) bandwidth of a shared link after subtracting the
    /// given traffic classes — what a topology-aware tuner budgets
    /// cross-rack repair against.
    ///
    /// # Panics
    ///
    /// Panics if rates are stale or `link` is out of range.
    pub fn link_residual_capacity(&self, link: usize, subtract: &[Traffic]) -> f64 {
        let cap = self.link_capacity(link);
        let used: f64 = subtract
            .iter()
            .map(|&t| self.link_class_rate(link, t))
            .sum();
        (cap - used).max(0.0)
    }

    /// Schedules a timer to fire `delay_secs` from now, with a caller-chosen
    /// dispatch key.
    ///
    /// # Panics
    ///
    /// Panics if `delay_secs` is negative or NaN.
    pub fn schedule_in(&mut self, delay_secs: f64, key: u64) -> TimerId {
        self.schedule_at(self.now + SimTime::from_secs(delay_secs), key)
    }

    /// Schedules a timer at an absolute time (clamped to now if in the
    /// past).
    pub fn schedule_at(&mut self, at: SimTime, key: u64) -> TimerId {
        let at = at.max(self.now);
        let id = TimerId(self.next_timer_id);
        self.next_timer_id += 1;
        self.timers.push(Reverse((at, id.0, key)));
        self.pending_timers.insert(id.0, false);
        self.profile.timers_scheduled += 1;
        id
    }

    /// Cancels a pending timer (no effect if it already fired or never
    /// existed — stale ids are not retained).
    pub fn cancel_timer(&mut self, id: TimerId) {
        if let Some(cancelled) = self.pending_timers.get_mut(&id.0) {
            if !*cancelled {
                *cancelled = true;
                self.profile.timers_cancelled += 1;
            }
        }
    }

    /// Advances the simulation to the next event and returns it, or `None`
    /// when no flows or timers remain.
    ///
    /// # Panics
    ///
    /// Panics if active flows can never finish (all rates zero) and no
    /// timer is pending — a configuration bug that would hang a real
    /// system.
    pub fn next_event(&mut self) -> Option<Event> {
        // Queued abort notifications outrank everything: they happened at
        // the current time (when `fail_node` struck), so they are
        // delivered before any heap event and without advancing the clock.
        if let Some((id, tag, owner)) = self.pending_aborts.pop_front() {
            self.profile.events += 1;
            self.profile.flow_aborts += 1;
            return Some(Event::FlowCompleted {
                id: FlowId(id),
                tag,
                outcome: FlowOutcome::Aborted,
                owner,
            });
        }

        // Discard cancelled timers at the head.
        while let Some(Reverse((_, id, _))) = self.timers.peek() {
            if self.pending_timers.get(id) == Some(&true) {
                self.pending_timers.remove(id);
                self.timers.pop();
            } else {
                break;
            }
        }

        if self.flows.is_empty() && self.timers.is_empty() {
            return None;
        }

        self.refresh();

        // Earliest flow completion (ties broken by lowest id). Pop
        // lazily-invalidated heap entries until a live one surfaces (leave
        // it in place: a timer may still pre-empt it). An entry is live iff
        // its head flow still exists and its group's epoch matches (the
        // group re-stamped no newer entry).
        let flow_done: Option<(SimTime, u64)> = loop {
            match self.completions.peek() {
                None => break None,
                Some(&Reverse((t, id, epoch))) => {
                    let live = self
                        .flows
                        .get(&id)
                        .is_some_and(|f| self.groups[f.group as usize].epoch == epoch);
                    if live {
                        break Some((t, id));
                    }
                    self.completions.pop();
                }
            }
        };

        let timer_next = self
            .timers
            .peek()
            .map(|Reverse((t, id, key))| (*t, *id, *key));

        let (event_time, is_flow) = match (flow_done, timer_next) {
            (Some((tf, _)), Some((tt, _, _))) => {
                if tf <= tt {
                    (tf, true)
                } else {
                    (tt, false)
                }
            }
            (Some((tf, _)), None) => (tf, true),
            (None, Some((tt, _, _))) => (tt, false),
            (None, None) => {
                panic!(
                    "simulation stalled: {} active flows have zero rate and no timers pending",
                    self.flows.len()
                );
            }
        };

        self.advance_to(event_time);

        if is_flow {
            let id = flow_done.expect("flow event chosen").1;
            let flow = self.flows.remove(&id).expect("flow exists");
            // The live entry we peeked above is still the heap head; its
            // group's next member gets a fresh entry at the next solve (the
            // retirement below marks the group touched).
            self.completions.pop();
            let g = flow.group as usize;
            self.groups[g].has_entry = false;
            let popped = self.grp_members[g].pop();
            debug_assert_eq!(
                popped.map(|Reverse((_, fid))| fid),
                Some(id),
                "delivered flow heads its group's member heap"
            );
            self.retire_flow_accounting(&flow);
            self.trace_flow(
                id,
                &flow.spec,
                TraceEventKind::Completed {
                    bytes: flow.spec.bytes(),
                },
            );
            self.profile.events += 1;
            self.profile.flow_completions += 1;
            self.rates_stale = true;
            Some(Event::FlowCompleted {
                id: FlowId(id),
                tag: flow.spec.tag,
                outcome: FlowOutcome::Delivered,
                owner: flow.spec.owner,
            })
        } else {
            let Reverse((_, id, key)) = self.timers.pop().expect("timer event chosen");
            self.pending_timers.remove(&id);
            self.profile.events += 1;
            self.profile.timer_fires += 1;
            Some(Event::Timer {
                id: TimerId(id),
                key,
            })
        }
    }

    /// Moves time forward, recording monitor usage.
    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        debug_assert!(!self.rates_stale, "advance with stale rates");
        if (t - self.now).as_secs() > 0.0 {
            // Per-flow and per-group state is untouched (progress is
            // anchored); the monitor records straight from the aggregate
            // class tables, visiting only cells with active flows —
            // O(busy cells) per event, independent of both flow and node
            // count. Monitor cells are accounted independently, so the
            // active-list order is immaterial.
            self.monitor.record_cells(
                self.now.as_secs(),
                t.as_secs(),
                &self.active_cells,
                &self.class_rate_tbl,
            );
        }
        self.now = t;
    }

    /// Re-solves max–min fair rates now if the flow set changed since the
    /// last solve. The `&self` read paths ([`Simulator::flow_rate`],
    /// [`Simulator::class_rate`], [`Simulator::residual_capacity`])
    /// require this; [`Simulator::next_event`] calls it implicitly.
    pub fn refresh(&mut self) {
        if !self.rates_stale {
            return;
        }
        // Incremental solve: the solver diffs the recorded membership and
        // capacity mutations against its last solve, re-runs progressive
        // filling over the contention closure of the genuine differences
        // only, and reports the groups whose rate bit-changed.
        let mut changed = std::mem::take(&mut self.scr_changed);
        changed.clear();
        let outcome = self.solver.solve(&mut changed);
        self.stale_refreshes += 1;
        if outcome.dirty_groups == 0 {
            self.profile.elided_solves += 1;
        } else {
            self.profile.solves += 1;
            if outcome.full {
                self.profile.full_solves += 1;
            } else {
                self.profile.incremental_solves += 1;
            }
        }
        self.profile.solve_retries += outcome.retries as u64;
        self.profile.dirty_groups += outcome.dirty_groups as u64;

        // Apply rate changes per group: materialize the progress counter
        // at the old rate up to now, shift the class-rate cells by
        // delta × members-per-class, and mark the group for prediction
        // re-stamping.
        let now = self.now;
        for &(g, new_rate) in &changed {
            let grp = &mut self.groups[g as usize];
            debug_assert!(grp.count > 0, "solver only reports live groups");
            grp.done = grp.done_at(now);
            grp.anchor = now;
            let delta = new_rate - grp.rate;
            grp.rate = new_rate;
            for ci in 0..grp.ncells as usize {
                let c = grp.cells[ci] as usize;
                for (tag, &n) in grp.tag_counts.iter().enumerate() {
                    if n > 0 {
                        self.class_rate_tbl[c * TAGS + tag] += delta * n as f64;
                    }
                }
            }
            if !grp.touched {
                grp.touched = true;
                self.touched_groups.push(g);
            }
        }

        // Per-flow RateChanged trace events (opt-in; tracing implies small
        // runs). Members are emitted per changed group, ascending by flow
        // id — deterministic, and pure observation.
        if self.trace.is_some() {
            let mut ids = std::mem::take(&mut self.scr_trace_ids);
            for &(g, new_rate) in &changed {
                ids.clear();
                ids.extend(
                    self.grp_members[g as usize]
                        .iter()
                        .map(|&Reverse((_, id))| id)
                        .filter(|id| self.flows.contains_key(id)),
                );
                ids.sort_unstable();
                for &id in &ids {
                    let (tag, src, dst) = {
                        let f = &self.flows[&id];
                        let (src, dst) = f.spec.endpoints();
                        (f.spec.tag, src, dst)
                    };
                    if let Some(tr) = self.trace.as_mut() {
                        tr.push(TraceEvent {
                            at_secs: now.as_secs(),
                            flow: id,
                            tag,
                            src,
                            dst,
                            kind: TraceEventKind::RateChanged { rate: new_rate },
                        });
                    }
                }
            }
            self.scr_trace_ids = ids;
        }
        self.scr_changed = changed;

        // Prediction maintenance for every group whose membership or rate
        // changed: discard dead member-heap heads, recompute the earliest
        // member's completion, and re-stamp the group's global heap entry
        // (bumping the epoch invalidates the previous one in place).
        let mut pushes = 0usize;
        self.scr_entries.clear();
        for ti in 0..self.touched_groups.len() {
            let g = self.touched_groups[ti] as usize;
            let grp = &mut self.groups[g];
            grp.touched = false;
            if grp.count == 0 {
                grp.has_entry = false;
                continue;
            }
            let members = &mut self.grp_members[g];
            while let Some(&Reverse((_, id))) = members.peek() {
                if self.flows.contains_key(&id) {
                    break;
                }
                members.pop();
            }
            let &Reverse((target_bits, head)) =
                members.peek().expect("live group has a live member");
            let remaining = (f64::from_bits(target_bits) - grp.done_at(now)).max(0.0);
            let pred = if remaining <= EPS_BYTES {
                Some(now)
            } else if grp.rate > 0.0 {
                Some(now + SimTime::from_secs(remaining / grp.rate))
            } else {
                None // starved; no completion at current rates
            };
            grp.epoch += 1;
            match pred {
                Some(t) => {
                    grp.pred = t;
                    grp.head = head;
                    grp.has_entry = true;
                    self.scr_entries.push(Reverse((t, head, grp.epoch)));
                    pushes += 1;
                }
                None => grp.has_entry = false,
            }
        }
        self.touched_groups.clear();

        // Heap maintenance, at group granularity. When a solve re-stamps
        // most groups, G pushes into a heap full of newly-dead entries
        // leave the garbage behind; a wholesale O(G) heapify from the live
        // per-group entries is cheaper and leaves the heap exactly
        // live-groups long. The same rebuild bounds lazy-invalidation
        // garbage in the few-changes regime.
        let live_groups = self.groups.len() - self.free_groups.len();
        if pushes * 2 >= live_groups.max(1)
            || self.completions.len() + pushes > 4 * live_groups + 64
        {
            self.scr_entries.clear();
            for grp in &self.groups {
                if grp.count > 0 && grp.has_entry {
                    self.scr_entries
                        .push(Reverse((grp.pred, grp.head, grp.epoch)));
                }
            }
            let old = std::mem::replace(
                &mut self.completions,
                BinaryHeap::from(std::mem::take(&mut self.scr_entries)),
            );
            self.scr_entries = old.into_vec();
            self.profile.heap_rebuilds += 1;
        } else {
            for i in 0..pushes {
                self.completions.push(self.scr_entries[i]);
            }
        }

        if self.stale_refreshes.is_multiple_of(TABLE_REBUILD_PERIOD) {
            // Bound incremental float drift with an exact rebuild —
            // O(groups), not O(flows).
            self.class_rate_tbl.fill(0.0);
            for grp in &self.groups {
                if grp.count == 0 {
                    continue;
                }
                for ci in 0..grp.ncells as usize {
                    let c = grp.cells[ci] as usize;
                    for (tag, &n) in grp.tag_counts.iter().enumerate() {
                        if n > 0 {
                            self.class_rate_tbl[c * TAGS + tag] += grp.rate * n as f64;
                        }
                    }
                }
            }
        }
        self.rates_stale = false;
    }

    /// Differential self-check: verifies that the incremental solver's
    /// per-group rates are bit-identical to a from-scratch full
    /// [`MaxMinSolver::solve_weighted_into`] over the live group registry
    /// (ascending slot order, as the pre-incremental engine solved).
    /// Test-suite hook.
    ///
    /// # Panics
    ///
    /// Panics if any group's rate diverges from the full solve.
    #[doc(hidden)]
    pub fn verify_against_full_solve(&mut self) {
        self.refresh();
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        let mut slots = Vec::new();
        for (g, grp) in self.groups.iter().enumerate() {
            if grp.count == 0 {
                continue;
            }
            targets.extend_from_slice(&grp.cells[..grp.ncells as usize]);
            offsets.push(targets.len() as u32);
            weights.push(grp.count);
            slots.push(g);
        }
        let mut rates = vec![0.0; weights.len()];
        let mut full = MaxMinSolver::new();
        full.solve_weighted_into(&self.caps, &offsets, &targets, &weights, &mut rates);
        for (row, &g) in slots.iter().enumerate() {
            assert_eq!(
                self.groups[g].rate.to_bits(),
                rates[row].to_bits(),
                "incremental rate diverged from full solve for group {g} \
                 (incremental {}, full {})",
                self.groups[g].rate,
                rates[row],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceSim;

    fn two_node_sim() -> Simulator {
        Simulator::new(SimConfig::uniform(2, NodeCaps::symmetric(100.0, 50.0)))
    }

    /// Drives four ring flows (`i -> i+1`, 30 + 11·i bytes) and one timer
    /// through `$sim` — a `Simulator` or a `ReferenceSim` — to the end,
    /// returning the (event, time) log and the drained simulator.
    macro_rules! ring_log {
        ($sim:expr, $timer_secs:expr, $key:expr) => {{
            let mut sim = $sim;
            for i in 0..4u64 {
                let (src, dst) = (i as usize, (i as usize + 1) % 4);
                sim.start_flow(FlowSpec::network(src, dst, 30 + i * 11, Traffic::Repair));
            }
            sim.schedule_in($timer_secs, $key);
            let mut log = Vec::new();
            while let Some(ev) = sim.next_event() {
                log.push((format!("{ev:?}"), sim.now().as_secs()));
            }
            (log, sim)
        }};
    }

    #[test]
    fn single_flow_finishes_at_capacity_rate() {
        let mut sim = two_node_sim();
        let f = sim.start_flow(FlowSpec::network(0, 1, 200, Traffic::Repair));
        sim.refresh();
        assert_eq!(sim.flow_rate(f), Some(100.0));
        let ev = sim.next_event().unwrap();
        assert_eq!(
            ev,
            Event::FlowCompleted {
                id: f,
                tag: Traffic::Repair,
                outcome: FlowOutcome::Delivered,
                owner: 0,
            }
        );
        assert!((sim.now().as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(sim.next_event(), None);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let mut sim = two_node_sim();
        let a = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Repair));
        let b = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Foreground));
        sim.refresh();
        assert_eq!(sim.flow_rate(a), Some(50.0));
        assert_eq!(sim.flow_rate(b), Some(50.0));
        // First completes at t=2 (ties: lowest id first).
        let ev = sim.next_event().unwrap();
        assert!(matches!(ev, Event::FlowCompleted { id, .. } if id == a));
        assert!((sim.now().as_secs() - 2.0).abs() < 1e-9);
        // The survivor speeds up to 100 and finishes immediately after.
        let ev = sim.next_event().unwrap();
        assert!(matches!(ev, Event::FlowCompleted { id, .. } if id == b));
        assert!((sim.now().as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn disk_flows_do_not_contend_with_network() {
        let mut sim = two_node_sim();
        let n = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Repair));
        let d = sim.start_flow(FlowSpec::disk_read(0, 50, Traffic::Repair));
        sim.refresh();
        assert_eq!(sim.flow_rate(n), Some(100.0));
        assert_eq!(sim.flow_rate(d), Some(50.0));
    }

    #[test]
    fn timers_interleave_with_flows() {
        let mut sim = two_node_sim();
        sim.start_flow(FlowSpec::network(0, 1, 300, Traffic::Repair)); // done at t=3
        let t = sim.schedule_in(1.0, 42);
        let ev = sim.next_event().unwrap();
        assert_eq!(ev, Event::Timer { id: t, key: 42 });
        assert!((sim.now().as_secs() - 1.0).abs() < 1e-9);
        let ev = sim.next_event().unwrap();
        assert!(matches!(ev, Event::FlowCompleted { .. }));
        assert!((sim.now().as_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut sim = two_node_sim();
        let t = sim.schedule_in(1.0, 1);
        sim.schedule_in(2.0, 2);
        sim.cancel_timer(t);
        let ev = sim.next_event().unwrap();
        assert!(matches!(ev, Event::Timer { key: 2, .. }));
        assert_eq!(sim.next_event(), None);
        // The cancelled id was discarded along the way; nothing lingers.
        assert!(sim.pending_timers.is_empty());
    }

    #[test]
    fn cancelling_a_timer_twice_counts_once() {
        // Regression: every cancel of a still-pending timer used to bump
        // `timers_cancelled`, so a repeated cancel double-counted.
        let mut sim = two_node_sim();
        let t = sim.schedule_in(1.0, 1);
        sim.schedule_in(2.0, 2);
        sim.cancel_timer(t);
        sim.cancel_timer(t);
        assert_eq!(sim.profile().timers_cancelled, 1);
        let ev = sim.next_event().unwrap();
        assert!(matches!(ev, Event::Timer { key: 2, .. }));
        // Cancelling after the discard is as inert as it always was.
        sim.cancel_timer(t);
        assert_eq!(sim.profile().timers_cancelled, 1);
        assert_eq!(sim.profile().timers_scheduled, 2);
    }

    #[test]
    fn cancelling_fired_or_unknown_timers_leaves_no_residue() {
        let mut sim = two_node_sim();
        let t = sim.schedule_in(0.5, 9);
        let ev = sim.next_event().unwrap();
        assert_eq!(ev, Event::Timer { id: t, key: 9 });
        // Fire-then-cancel: the id is gone, so nothing must be retained.
        sim.cancel_timer(t);
        assert!(sim.pending_timers.is_empty());
        // Cancelling a never-existing timer is equally inert.
        sim.cancel_timer(TimerId(12345));
        assert!(sim.pending_timers.is_empty());
        assert_eq!(sim.profile().timers_cancelled, 0);
    }

    #[test]
    fn cancel_flow_returns_remaining() {
        let mut sim = two_node_sim();
        let f = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Repair));
        sim.schedule_in(0.5, 0);
        let _ = sim.next_event();
        let left = sim.cancel_flow(f).unwrap();
        assert!((left - 50.0).abs() < 1e-9);
        assert_eq!(sim.cancel_flow(f), None);
    }

    #[test]
    fn class_rate_and_residual_capacity() {
        let mut sim = two_node_sim();
        sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Foreground));
        sim.refresh();
        assert_eq!(
            sim.class_rate(0, ResourceKind::Uplink, Traffic::Foreground),
            100.0
        );
        assert_eq!(
            sim.class_rate(0, ResourceKind::Uplink, Traffic::Repair),
            0.0
        );
        assert_eq!(
            sim.residual_capacity(0, ResourceKind::Uplink, &[Traffic::Foreground]),
            0.0
        );
        assert_eq!(
            sim.residual_capacity(1, ResourceKind::Uplink, &[Traffic::Foreground]),
            100.0
        );
    }

    #[test]
    #[should_panic(expected = "rates are stale")]
    fn stale_rate_reads_panic() {
        let mut sim = two_node_sim();
        let f = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Repair));
        let _ = sim.flow_rate(f);
    }

    #[test]
    fn class_flow_count_tracks_admission_and_retirement() {
        let mut sim = two_node_sim();
        let f = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Repair));
        sim.start_flow(FlowSpec::network(0, 1, 200, Traffic::Repair));
        assert_eq!(
            sim.class_flow_count(0, ResourceKind::Uplink, Traffic::Repair),
            2
        );
        sim.cancel_flow(f);
        assert_eq!(
            sim.class_flow_count(0, ResourceKind::Uplink, Traffic::Repair),
            1
        );
        while sim.next_event().is_some() {}
        assert_eq!(
            sim.class_flow_count(0, ResourceKind::Uplink, Traffic::Repair),
            0
        );
    }

    #[test]
    fn duplicate_constraints_are_deduped_at_admission() {
        // Regression: a spec listing the same (node, kind) twice used to
        // double-count load in the solver (halving the flow's rate) and
        // double-record monitor bytes.
        let mut sim = two_node_sim();
        let spec = FlowSpec {
            bytes: 200.0,
            constraints: crate::flow::Constraints::from_slice(&[
                (0, ResourceKind::Uplink),
                (0, ResourceKind::Uplink),
                (1, ResourceKind::Downlink),
            ]),
            tag: Traffic::Repair,
            owner: 0,
        };
        let f = sim.start_flow(spec);
        sim.refresh();
        assert_eq!(sim.flow_rate(f), Some(100.0));
        assert_eq!(
            sim.class_flow_count(0, ResourceKind::Uplink, Traffic::Repair),
            1
        );
        while sim.next_event().is_some() {}
        let moved = sim
            .monitor()
            .total_bytes(0, ResourceKind::Uplink, Traffic::Repair);
        assert!((moved - 200.0).abs() < 1e-6, "double-recorded: {moved}");
    }

    #[test]
    fn slots_are_reused_after_retirement() {
        let mut sim = two_node_sim();
        let a = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Repair));
        let b = sim.start_flow(FlowSpec::network(1, 0, 100, Traffic::Repair));
        sim.cancel_flow(a);
        // The freed slot is recycled; ids stay unique and resolvable.
        let c = sim.start_flow(FlowSpec::network(0, 1, 50, Traffic::Repair));
        assert_eq!(sim.active_flows(), 2);
        sim.refresh();
        assert_eq!(sim.flow_rate(a), None);
        assert_eq!(sim.flow_rate(b), Some(100.0));
        assert_eq!(sim.flow_rate(c), Some(100.0));
        let mut done = Vec::new();
        while let Some(ev) = sim.next_event() {
            if let Event::FlowCompleted { id, .. } = ev {
                done.push(id);
            }
        }
        assert_eq!(done, vec![c, b]);
    }

    #[test]
    fn cancel_flow_releases_capacity_and_leaves_no_stale_heap_entry() {
        // Regression: cancelling a mid-transfer flow must
        // (a) release its share of node capacity immediately, (b) re-solve
        // rates for flows it shared resources with, and (c) leave no live
        // completion-heap entry that could later surface a phantom event.
        let mut sim = two_node_sim();
        let a = sim.start_flow(FlowSpec::network(0, 1, 400, Traffic::Repair));
        let b = sim.start_flow(FlowSpec::network(0, 1, 400, Traffic::Repair));
        sim.schedule_in(1.0, 0);
        let _ = sim.next_event(); // timer at t=1; both flows at 50 B/s
        assert!((sim.now().as_secs() - 1.0).abs() < 1e-9);
        let left = sim.cancel_flow(a).unwrap();
        assert!((left - 350.0).abs() < 1e-9, "a moved 50 bytes: {left}");
        // (a)+(b): the survivor's rate doubles as soon as rates refresh.
        sim.refresh();
        assert_eq!(sim.flow_rate(b), Some(100.0));
        assert_eq!(
            sim.class_rate(0, ResourceKind::Uplink, Traffic::Repair),
            100.0
        );
        assert_eq!(
            sim.class_flow_count(0, ResourceKind::Uplink, Traffic::Repair),
            1
        );
        // (c): the only remaining event is b's completion — 350 bytes at
        // 100 B/s from t=1 — and a's stale heap entry never surfaces.
        let ev = sim.next_event().unwrap();
        assert!(matches!(ev, Event::FlowCompleted { id, .. } if id == b));
        assert!((sim.now().as_secs() - 4.5).abs() < 1e-9);
        assert_eq!(sim.next_event(), None);
        assert!(sim.completions.is_empty());
    }

    #[test]
    fn fail_node_aborts_flows_and_releases_capacity() {
        let mut sim = Simulator::new(SimConfig::uniform(3, NodeCaps::symmetric(100.0, 50.0)));
        let doomed = sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Repair).with_owner(7));
        let doomed2 = sim.start_flow(FlowSpec::network(2, 1, 1000, Traffic::Repair));
        let survivor = sim.start_flow(FlowSpec::network(2, 0, 100, Traffic::Repair));
        sim.schedule_in(1.0, 0);
        let _ = sim.next_event();
        sim.fail_node(1);
        assert!(sim.is_node_failed(1));
        // Aborts are delivered in flow-id order, at the current time, and
        // echo the owner key like any other completion.
        let ev = sim.next_event().unwrap();
        assert_eq!(
            ev,
            Event::FlowCompleted {
                id: doomed,
                tag: Traffic::Repair,
                outcome: FlowOutcome::Aborted,
                owner: 7,
            }
        );
        let ev = sim.next_event().unwrap();
        assert!(matches!(
            ev,
            Event::FlowCompleted { id, outcome: FlowOutcome::Aborted, .. } if id == doomed2
        ));
        assert!((sim.now().as_secs() - 1.0).abs() < 1e-9);
        // Capacity the doomed flows held is released for the survivor.
        sim.refresh();
        assert_eq!(sim.flow_rate(doomed), None);
        assert_eq!(sim.flow_rate(survivor), Some(100.0));
        // New flows touching the failed node abort on admission...
        let refused = sim.start_flow(FlowSpec::network(0, 1, 10, Traffic::Repair));
        let ev = sim.next_event().unwrap();
        assert!(matches!(
            ev,
            Event::FlowCompleted { id, outcome: FlowOutcome::Aborted, .. } if id == refused
        ));
        // ...until the node recovers.
        sim.recover_node(1);
        let ok = sim.start_flow(FlowSpec::network(0, 1, 10, Traffic::Repair));
        let mut delivered = Vec::new();
        while let Some(ev) = sim.next_event() {
            if let Event::FlowCompleted {
                id,
                outcome: FlowOutcome::Delivered,
                ..
            } = ev
            {
                delivered.push(id);
            }
        }
        assert!(delivered.contains(&ok));
        // The monitor accounted the killed flows' unsent bytes.
        assert!(sim.monitor().total_aborted_bytes() > 0.0);
    }

    #[test]
    fn fail_node_is_idempotent_and_double_failure_aborts_once() {
        let mut sim = two_node_sim();
        let f = sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Repair));
        sim.fail_node(1);
        sim.fail_node(1);
        let ev = sim.next_event().unwrap();
        assert!(matches!(
            ev,
            Event::FlowCompleted { id, outcome: FlowOutcome::Aborted, .. } if id == f
        ));
        assert_eq!(sim.next_event(), None);
    }

    #[test]
    fn scale_node_caps_rerates_flows_from_base() {
        let mut sim = two_node_sim();
        let f = sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Repair));
        sim.refresh();
        assert_eq!(sim.flow_rate(f), Some(100.0));
        sim.scale_node_caps(0, 0.25, 1.0);
        sim.refresh();
        assert_eq!(sim.flow_rate(f), Some(25.0));
        // Scaling is relative to the configured base, not compounding.
        sim.scale_node_caps(0, 0.5, 1.0);
        sim.refresh();
        assert_eq!(sim.flow_rate(f), Some(50.0));
        sim.scale_node_caps(0, 1.0, 1.0);
        sim.refresh();
        assert_eq!(sim.flow_rate(f), Some(100.0));
        assert_eq!(sim.capacity(0, ResourceKind::Uplink), 100.0);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut sim = two_node_sim();
        let f = sim.start_flow(FlowSpec::network(0, 1, 0, Traffic::Repair));
        let ev = sim.next_event().unwrap();
        assert!(matches!(ev, Event::FlowCompleted { id, .. } if id == f));
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn monitor_accounts_transferred_bytes() {
        let mut sim = two_node_sim();
        sim.start_flow(FlowSpec::network(0, 1, 200, Traffic::Repair));
        while sim.next_event().is_some() {}
        let m = sim.monitor();
        assert!((m.total_bytes(0, ResourceKind::Uplink, Traffic::Repair) - 200.0).abs() < 1e-6);
        assert!((m.total_bytes(1, ResourceKind::Downlink, Traffic::Repair) - 200.0).abs() < 1e-6);
        assert_eq!(m.total_bytes(1, ResourceKind::Uplink, Traffic::Repair), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flow_to_unknown_node_rejected() {
        let mut sim = two_node_sim();
        let _ = sim.start_flow(FlowSpec::network(0, 9, 1, Traffic::Repair));
    }

    #[test]
    fn deterministic_event_order_across_runs() {
        let run = || {
            let mut sim = Simulator::new(SimConfig::uniform(4, NodeCaps::symmetric(10.0, 10.0)));
            let mut log = Vec::new();
            for i in 0..3u64 {
                sim.start_flow(FlowSpec::network(
                    i as usize,
                    3,
                    50 + i * 10,
                    Traffic::Repair,
                ));
            }
            sim.schedule_in(2.0, 7);
            while let Some(ev) = sim.next_event() {
                log.push((format!("{ev:?}"), sim.now().as_secs().to_bits()));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batched_admission_equals_sequential() {
        let specs =
            || (0..5u64).map(|i| FlowSpec::network(i as usize % 3, 3, 40 + i * 7, Traffic::Repair));
        let drain = |sim: &mut Simulator| {
            let mut log = Vec::new();
            while let Some(ev) = sim.next_event() {
                log.push((format!("{ev:?}"), sim.now().as_secs().to_bits()));
            }
            log
        };
        let mut batched = Simulator::new(SimConfig::uniform(4, NodeCaps::symmetric(10.0, 10.0)));
        let ids = batched.start_flows(specs());
        assert_eq!(ids.len(), 5);
        let mut sequential = Simulator::new(SimConfig::uniform(4, NodeCaps::symmetric(10.0, 10.0)));
        for s in specs() {
            sequential.start_flow(s);
        }
        assert_eq!(drain(&mut batched), drain(&mut sequential));
    }

    #[test]
    fn trace_records_full_flow_lifecycle() {
        let mut sim = two_node_sim();
        sim.set_trace_enabled(true);
        let a = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Repair));
        let b = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Foreground));
        while sim.next_event().is_some() {}
        let events = sim.trace().unwrap().events().to_vec();
        let of =
            |id: FlowId| -> Vec<&TraceEvent> { events.iter().filter(|e| e.flow == id.0).collect() };
        // a: admitted at 0, rated 50 (shared), re-rated 100 when b leaves
        // ... except a (lower id) finishes first at the tie; both deliver.
        let ea = of(a);
        assert!(matches!(ea[0].kind, TraceEventKind::Admitted { bytes } if bytes == 100.0));
        assert_eq!(ea[0].src, 0);
        assert_eq!(ea[0].dst, 1);
        assert!(ea
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::RateChanged { rate } if rate == 50.0)));
        assert!(matches!(
            ea.last().unwrap().kind,
            TraceEventKind::Completed { bytes } if bytes == 100.0
        ));
        let eb = of(b);
        assert_eq!(eb.first().unwrap().tag, Traffic::Foreground);
        assert!(matches!(
            eb.last().unwrap().kind,
            TraceEventKind::Completed { .. }
        ));
        // The survivor was re-rated to full capacity after a left.
        assert!(eb
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::RateChanged { rate } if rate == 100.0)));
    }

    #[test]
    fn trace_labels_abort_causes() {
        let mut sim = two_node_sim();
        sim.set_trace_enabled(true);
        let killed = sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Repair));
        let cancelled = sim.start_flow(FlowSpec::network(1, 0, 1000, Traffic::Repair));
        sim.schedule_in(1.0, 0);
        let _ = sim.next_event();
        sim.cancel_flow(cancelled);
        sim.fail_node(1);
        // Admission against the failed node also traces an abort.
        let refused = sim.start_flow(FlowSpec::network(0, 1, 10, Traffic::Repair));
        while sim.next_event().is_some() {}
        let events = sim.take_trace().unwrap().into_events();
        let cause_of = |id: FlowId| {
            events.iter().find_map(|e| match e.kind {
                TraceEventKind::Aborted { cause, .. } if e.flow == id.0 => Some(cause),
                _ => None,
            })
        };
        assert_eq!(cause_of(killed), Some(AbortCause::NodeFailure));
        assert_eq!(cause_of(cancelled), Some(AbortCause::Cancelled));
        assert_eq!(cause_of(refused), Some(AbortCause::NodeFailure));
        // Aborted events carry the undelivered remainder.
        let killed_remaining = events
            .iter()
            .find_map(|e| match e.kind {
                TraceEventKind::Aborted { remaining, .. } if e.flow == killed.0 => Some(remaining),
                _ => None,
            })
            .unwrap();
        // `killed` ran alone on its links at 100 B/s for 1 s.
        assert!((killed_remaining - 900.0).abs() < 1e-9);
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        let run = |traced: bool| {
            let mut sim = Simulator::new(SimConfig::uniform(4, NodeCaps::symmetric(10.0, 10.0)));
            sim.set_trace_enabled(traced);
            for i in 0..4u64 {
                sim.start_flow(FlowSpec::network(
                    i as usize,
                    (i as usize + 1) % 4,
                    30 + i * 11,
                    Traffic::Repair,
                ));
            }
            sim.schedule_in(1.7, 3);
            let mut log = Vec::new();
            while let Some(ev) = sim.next_event() {
                log.push((format!("{ev:?}"), sim.now().as_secs().to_bits()));
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn traced_runs_are_deterministic() {
        let run = || {
            let mut sim = Simulator::new(SimConfig::uniform(4, NodeCaps::symmetric(10.0, 10.0)));
            sim.set_trace_enabled(true);
            for i in 0..3u64 {
                sim.start_flow(FlowSpec::network(
                    i as usize,
                    3,
                    50 + i * 10,
                    Traffic::Repair,
                ));
            }
            while sim.next_event().is_some() {}
            sim.take_trace().unwrap().to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_is_off_by_default_and_droppable() {
        let mut sim = two_node_sim();
        assert!(sim.trace().is_none());
        sim.start_flow(FlowSpec::network(0, 1, 10, Traffic::Repair));
        while sim.next_event().is_some() {}
        assert!(sim.take_trace().is_none());
        // Enabling then disabling drops recorded events.
        sim.set_trace_enabled(true);
        sim.start_flow(FlowSpec::network(0, 1, 10, Traffic::Repair));
        sim.set_trace_enabled(false);
        assert!(sim.trace().is_none());
    }

    #[test]
    fn profile_counts_events_solves_and_timer_churn() {
        let mut sim = two_node_sim();
        let f = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Repair));
        sim.start_flow(FlowSpec::network(1, 0, 100, Traffic::Repair));
        let t = sim.schedule_in(0.1, 1);
        sim.schedule_in(0.2, 2);
        sim.cancel_timer(t);
        sim.cancel_flow(f);
        let mut events = 0;
        while sim.next_event().is_some() {
            events += 1;
        }
        let p = sim.profile();
        assert_eq!(p.events, events);
        assert_eq!(p.flow_completions, 1);
        assert_eq!(p.timer_fires, 1);
        assert_eq!(p.timers_scheduled, 2);
        assert_eq!(p.timers_cancelled, 1);
        assert!(p.solves >= 1, "at least one rate solve happened");
        assert!(p.solver_rounds >= p.solves, "each solve runs >= 1 round");
    }

    #[test]
    fn profile_counts_aborts() {
        let mut sim = two_node_sim();
        sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Repair));
        sim.fail_node(1);
        while sim.next_event().is_some() {}
        let p = sim.profile();
        assert_eq!(p.flow_aborts, 1);
        assert_eq!(p.flow_completions, 0);
    }

    #[test]
    fn reference_engine_produces_the_same_log() {
        let cfg = || SimConfig::uniform(4, NodeCaps::symmetric(10.0, 10.0));
        let (fast, _) = ring_log!(Simulator::new(cfg()), 1.7, 3);
        let (slow, _) = ring_log!(ReferenceSim::new(cfg()), 1.7, 3);
        assert_eq!(fast.len(), slow.len());
        for ((ea, ta), (eb, tb)) in fast.iter().zip(&slow) {
            assert_eq!(ea, eb);
            assert!((ta - tb).abs() < 1e-9, "{ta} vs {tb}");
        }
    }

    #[test]
    fn check_fresh_reports_staleness_without_panicking() {
        let mut sim = two_node_sim();
        assert!(
            sim.check_fresh().is_err(),
            "a new simulator is stale until its seed solve"
        );
        sim.refresh();
        assert!(sim.check_fresh().is_ok());
        let f = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Repair));
        let err = sim.check_fresh().expect_err("admission staled the rates");
        assert_eq!(err, StaleRatesError);
        assert!(err.to_string().contains("rates are stale"));
        sim.refresh();
        assert!(sim.check_fresh().is_ok());
        sim.cancel_flow(f);
        assert!(sim.check_fresh().is_err(), "cancellation staled the rates");
        sim.refresh();
        assert!(sim.check_fresh().is_ok());
    }

    #[test]
    #[should_panic(expected = "rates are stale")]
    fn stale_rate_reads_still_panic() {
        let mut sim = two_node_sim();
        let f = sim.start_flow(FlowSpec::network(0, 1, 100, Traffic::Repair));
        let _ = sim.flow_rate(f);
    }

    #[test]
    fn profile_splits_full_and_incremental_solves() {
        let mut sim = Simulator::new(SimConfig::uniform(6, NodeCaps::symmetric(100.0, 100.0)));
        // Two disjoint contention components: (0 -> 1) and (2 -> 3, 2 -> 4).
        sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Foreground));
        sim.refresh(); // first solve is always full
        sim.start_flow(FlowSpec::network(2, 3, 1000, Traffic::Repair));
        sim.refresh(); // touches only the new component: incremental
        sim.start_flow(FlowSpec::network(2, 4, 1000, Traffic::Repair));
        sim.refresh();
        let p = sim.profile();
        assert_eq!(p.solves, 3);
        assert_eq!(p.full_solves + p.incremental_solves, p.solves);
        assert_eq!(p.full_solves, 1, "only the seed solve covers every group");
        assert!(p.dirty_groups >= 3, "every solve re-rated >= 1 group");
        sim.verify_against_full_solve();
    }

    #[test]
    fn profile_accounts_for_every_stale_refresh() {
        let mut sim = two_node_sim();
        sim.refresh(); // the seed refresh of an empty cluster re-solves nothing
        let p = sim.profile();
        assert_eq!((p.solves, p.full_solves, p.elided_solves), (0, 0, 1));
        let a = sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Repair));
        sim.refresh();
        assert_eq!(sim.profile().full_solves, 1);
        // A slice completes and the next slice of the same pair starts
        // before rates are read: the group is torn down and re-created as
        // it was, so the refresh is elided — and the fresh group still
        // learns its rate.
        let mut refreshes = 2;
        let mut id = a;
        for _ in 0..2 * TABLE_REBUILD_PERIOD {
            sim.cancel_flow(id);
            id = sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Repair));
            sim.refresh();
            refreshes += 1;
            assert_eq!(sim.flow_rate(id), Some(100.0));
        }
        let p = sim.profile();
        assert_eq!(p.elided_solves, refreshes - 1);
        assert_eq!(p.full_solves + p.incremental_solves, p.solves);
        assert_eq!(p.solves + p.elided_solves, refreshes);
        assert_eq!(p.solve_retries, 0);
        // The class-rate-table rebuild runs on the refresh clock, not on
        // the profile's solve counter (which the elisions left at 1), and
        // leaves the table exact.
        assert_eq!(sim.stale_refreshes, refreshes);
        assert_eq!(
            sim.class_rate(0, ResourceKind::Uplink, Traffic::Repair),
            100.0
        );
        sim.verify_against_full_solve();
    }

    #[test]
    fn profile_counts_a_solve_retry_when_slack_turns_binding() {
        let mut sim = two_node_sim();
        // Disk-bound at 50 B/s: node 0's uplink keeps 50 B/s of slack.
        let x = sim.start_flow(FlowSpec::custom(
            1000,
            vec![(0, ResourceKind::DiskRead), (0, ResourceKind::Uplink)],
            Traffic::Repair,
        ));
        sim.refresh();
        assert_eq!(sim.flow_rate(x), Some(50.0));
        // The newcomer alone would take exactly that slack, saturating the
        // uplink while `x` sits outside the closure: one discarded attempt,
        // then the conductive re-solve.
        let y = sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Repair));
        sim.refresh();
        assert_eq!(sim.flow_rate(y), Some(50.0));
        let p = sim.profile();
        assert_eq!((p.solves, p.solve_retries), (2, 1));
        sim.verify_against_full_solve();
    }

    /// 4 nodes, 2 racks (round-robin: 0,2 in rack 0; 1,3 in rack 1).
    fn racked_config(tor: f64, spine: Option<f64>) -> SimConfig {
        let topo = Topology::round_robin(4, 2, tor, tor, spine);
        SimConfig::uniform(4, NodeCaps::symmetric(100.0, 50.0)).with_topology(topo)
    }

    fn racked_sim(tor: f64, spine: Option<f64>) -> Simulator {
        Simulator::new(racked_config(tor, spine))
    }

    #[test]
    fn cross_rack_flow_constrained_by_spine() {
        let mut sim = racked_sim(100.0, Some(30.0));
        assert_eq!(sim.link_count(), 5);
        assert_eq!(sim.link_capacity(4), 30.0);
        let f = sim.start_flow(FlowSpec::network(0, 1, 300, Traffic::Repair));
        sim.refresh();
        assert_eq!(sim.flow_rate(f), Some(30.0), "spine is the bottleneck");
        assert_eq!(sim.link_class_rate(4, Traffic::Repair), 30.0);
        let _ = sim.next_event();
        assert!((sim.now().as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn same_rack_flows_avoid_fabric_links() {
        let mut sim = racked_sim(10.0, Some(1.0));
        // 0 -> 2 stays inside rack 0: tiny fabric caps are irrelevant.
        let f = sim.start_flow(FlowSpec::network(0, 2, 100, Traffic::Repair));
        sim.refresh();
        assert_eq!(sim.flow_rate(f), Some(100.0));
        for l in 0..sim.link_count() {
            assert_eq!(sim.link_class_rate(l, Traffic::Repair), 0.0);
        }
    }

    #[test]
    fn tor_uplink_shared_by_cross_rack_flows() {
        let mut sim = racked_sim(80.0, None);
        // Both flows leave rack 0 through tor_up[0] (80 B/s) from distinct
        // node uplinks (100 B/s each).
        let a = sim.start_flow(FlowSpec::network(0, 1, 400, Traffic::Repair));
        let b = sim.start_flow(FlowSpec::network(2, 3, 400, Traffic::Foreground));
        sim.refresh();
        assert_eq!(sim.flow_rate(a), Some(40.0));
        assert_eq!(sim.flow_rate(b), Some(40.0));
        assert_eq!(sim.link_class_rate(0, Traffic::Repair), 40.0);
        assert_eq!(sim.link_class_rate(0, Traffic::Foreground), 40.0);
        assert_eq!(sim.link_residual_capacity(0, &[Traffic::Foreground]), 40.0);
    }

    #[test]
    fn single_rack_topology_matches_rackless_engine_bitwise() {
        // One rack means no flow ever takes a link cell, so the event log
        // must be bit-identical to the topology-free engine.
        let run = |topo: Option<Topology>| {
            let mut cfg = SimConfig::uniform(4, NodeCaps::symmetric(10.0, 10.0));
            if let Some(t) = topo {
                cfg = cfg.with_topology(t);
            }
            let mut sim = Simulator::new(cfg);
            for i in 0..4u64 {
                sim.start_flow(FlowSpec::network(
                    i as usize,
                    (i as usize + 1) % 4,
                    30 + i * 11,
                    Traffic::Repair,
                ));
            }
            sim.schedule_in(1.7, 3);
            let mut log = Vec::new();
            while let Some(ev) = sim.next_event() {
                log.push((format!("{ev:?}"), sim.now().as_secs().to_bits()));
            }
            log
        };
        let flat = run(Some(Topology::round_robin(4, 1, 40.0, 40.0, Some(40.0))));
        assert_eq!(flat, run(None));
    }

    #[test]
    fn monitor_accounts_cross_rack_link_bytes() {
        let mut sim = racked_sim(100.0, Some(50.0));
        let topo = sim.topology().unwrap().clone();
        sim.start_flow(FlowSpec::network(0, 1, 200, Traffic::Repair));
        while sim.next_event().is_some() {}
        let m = sim.monitor();
        let up0 = topo.tor_up_link(0);
        let down1 = topo.tor_down_link(1);
        let spine = topo.spine_link().unwrap();
        assert!((m.link_total_bytes(up0, Traffic::Repair) - 200.0).abs() < 1e-6);
        assert!((m.link_total_bytes(down1, Traffic::Repair) - 200.0).abs() < 1e-6);
        assert!((m.link_total_bytes(spine, Traffic::Repair) - 200.0).abs() < 1e-6);
        assert_eq!(
            m.link_total_bytes(topo.tor_up_link(1), Traffic::Repair),
            0.0
        );
        // Node-level accounting is unchanged by the fabric.
        assert!((m.total_bytes(0, ResourceKind::Uplink, Traffic::Repair) - 200.0).abs() < 1e-6);
    }

    #[test]
    fn reference_engine_matches_indexed_under_topology() {
        // Same contract as `reference_engine_produces_the_same_log`: the
        // two engines accumulate progress differently (per-group anchors
        // vs per-flow decrements), so times agree to tolerance, not bits.
        let cfg = || racked_config(60.0, Some(45.0));
        let (mut fast, sim) = ring_log!(Simulator::new(cfg()), 1.3, 7);
        let (mut slow, reference) = ring_log!(ReferenceSim::new(cfg()), 1.3, 7);
        // Fabric byte accounting must agree too.
        for l in 0..sim.link_count() {
            let bytes = |m: &Monitor| (format!("link{l}"), m.link_total_bytes(l, Traffic::Repair));
            fast.push(bytes(sim.monitor()));
            slow.push(bytes(reference.monitor()));
        }
        assert_eq!(fast.len(), slow.len());
        for ((ea, va), (eb, vb)) in fast.iter().zip(&slow) {
            assert_eq!(ea, eb);
            assert!((va - vb).abs() < 1e-6, "{ea}: {va} vs {vb}");
        }
    }

    #[test]
    fn fail_node_under_topology_kills_only_its_flows_and_frees_links() {
        let mut sim = racked_sim(100.0, Some(30.0));
        let doomed = sim.start_flow(FlowSpec::network(0, 1, 1000, Traffic::Repair));
        let survivor = sim.start_flow(FlowSpec::network(2, 3, 1000, Traffic::Repair));
        sim.refresh();
        // Both share the 30 B/s spine.
        assert_eq!(sim.flow_rate(doomed), Some(15.0));
        assert_eq!(sim.flow_rate(survivor), Some(15.0));
        sim.fail_node(1);
        let ev = sim.next_event().unwrap();
        assert!(matches!(
            ev,
            Event::FlowCompleted { id, outcome: FlowOutcome::Aborted, .. } if id == doomed
        ));
        sim.refresh();
        // The spine share is released to the survivor.
        assert_eq!(sim.flow_rate(survivor), Some(30.0));
        sim.verify_against_full_solve();
    }

    #[test]
    fn incremental_solver_stays_exact_under_topology_churn() {
        // Adds, cancels, failures, and cap scaling across a spine-bound
        // fabric, cross-checked against a from-scratch solve each step —
        // exercises the soft-resource (link) closure end to end.
        let mut sim = racked_sim(70.0, Some(40.0));
        let mut ids = Vec::new();
        for i in 0..12u64 {
            let (s, d) = ((i % 4) as usize, ((i + 1) % 4) as usize);
            ids.push(sim.start_flow(FlowSpec::network(s, d, 500 + i * 37, Traffic::Repair)));
            sim.verify_against_full_solve();
        }
        sim.cancel_flow(ids[3]);
        sim.verify_against_full_solve();
        sim.scale_node_caps(2, 0.5, 1.0);
        sim.verify_against_full_solve();
        sim.fail_node(3);
        sim.verify_against_full_solve();
        while sim.next_event().is_some() {}
        sim.verify_against_full_solve();
    }

    #[test]
    #[should_panic(expected = "topology describes")]
    fn mismatched_topology_node_count_rejected() {
        let topo = Topology::round_robin(3, 1, 10.0, 10.0, None);
        let _ = Simulator::new(SimConfig::uniform(4, NodeCaps::default()).with_topology(topo));
    }
}
