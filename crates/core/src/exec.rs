//! Slice-pipelined execution of a repair plan against the simulator.
//!
//! A chunk is cut into fixed-size slices (1 MB in the paper) that flow
//! through the plan's in-tree: each source reads its local chunk slice by
//! slice, forwards slice *i* once it has read it **and** received slice *i*
//! from all of its inputs, and the destination writes slices in order as
//! they arrive. One slice is in flight per edge at a time (a TCP stream
//! delivers in order), which is what gives chains (ECPipe) and trees (PPR)
//! their pipelining behaviour.
//!
//! The executor simulates *timing only* — byte-level repair correctness is
//! the `chameleon-codes` crate's job and is verified end-to-end in the
//! integration tests. The real GF(2^8) arithmetic a finished plan implies
//! is run separately by [`PlanExecutor::run_coding`] against the plan *as
//! actually executed* (including any re-tuned edges), so drivers can
//! report per-stage coding nanoseconds alongside the simulated timings.

use chameleon_simnet::{Event, FlowId, FlowSpec, IdMap, Simulator, Traffic};

use crate::coding::{CodingStats, PlanCoder};
use crate::plan::RepairPlan;

/// Result of feeding an event to an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStatus {
    /// The event did not belong to this executor.
    NotMine,
    /// Consumed; the repair continues.
    InProgress,
    /// Consumed; the repair just finished.
    Done,
    /// Consumed; a flow of this attempt was aborted (a participating node
    /// failed). The executor cancelled its remaining flows and is dead —
    /// the driver must re-plan the chunk against the surviving nodes.
    Failed,
}

/// A directed edge carrying slices `[start, end)` from one participant to
/// another or to the destination.
#[derive(Debug, Clone)]
struct Edge {
    /// The sending participant.
    source: usize,
    /// The receiving slot: a participant index, or the participant count
    /// for the destination.
    to_slot: usize,
    /// First slice this edge carries.
    start: usize,
    /// One past the last slice this edge carries.
    end: usize,
    /// Next slice index to be delivered (absolute; `start..=end`).
    delivered: usize,
    /// Bytes carried per full slice (relays forward full slices; direct
    /// sub-chunk sources forward their fraction).
    bytes_factor: f64,
}

impl Edge {
    fn covers(&self, slice: usize) -> bool {
        (self.start..self.end).contains(&slice)
    }
}

/// Per-participant progress.
#[derive(Debug, Clone, Default)]
struct SourceState {
    /// Completed local slice reads.
    read_done: usize,
    reading: Option<FlowId>,
    /// Completed slice sends (absolute; next slice to send).
    sent: usize,
    sending: Option<(FlowId, usize)>,
}

/// Public view of one edge's progress (for straggler detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeProgress {
    /// Sending participant (an index into the plan's participants).
    pub source: usize,
    /// Receiving participant, or `None` for the destination.
    pub to: Option<usize>,
    /// Slices delivered so far on this edge.
    pub delivered: usize,
    /// First slice the edge carries.
    pub start: usize,
    /// One past the last slice the edge carries.
    pub end: usize,
}

/// Executes one repair plan, pipelining disk and network slice transfers.
///
/// Drive it with [`PlanExecutor::start`] and feed every simulator event to
/// [`PlanExecutor::on_event`]; [`ExecStatus::Done`] signals completion.
#[derive(Debug)]
pub struct PlanExecutor {
    plan: RepairPlan,
    slices: usize,
    slice_bytes: u64,
    last_slice_bytes: u64,
    sources: Vec<SourceState>,
    edges: Vec<Edge>,
    /// Edge indices leaving each participant: its plan edge (edge `i` is
    /// participant `i`'s), then the redirected remainder if the edge was
    /// re-tuned.
    out_edges: Vec<Vec<usize>>,
    /// Edge indices entering each slot (participants by index, the
    /// destination last).
    in_edges: Vec<Vec<usize>>,
    /// Destination write progress.
    write_done: usize,
    writing: Option<FlowId>,
    flow_map: IdMap<FlowId, Step>,
    /// Routing key stamped on every flow this executor starts and echoed
    /// back on its completion ([`PlanExecutor::with_owner`]).
    owner: u64,
    paused: bool,
    started_at: Option<f64>,
    finished_at: Option<f64>,
    coding: Option<CodingStats>,
    /// Set when a flow of this attempt aborted (node failure) or the
    /// driver called [`PlanExecutor::abort`]; a failed executor never
    /// starts new flows.
    failed: bool,
    /// Network bytes of completed slice sends — the work thrown away if
    /// the attempt fails.
    sent_bytes: f64,
    /// Flows of this attempt killed by node failures or cancelled on
    /// abort.
    aborted_flows: usize,
    /// Re-examine every source after each event instead of the two slots
    /// the event touched: the oracle of the indexed pump.
    #[cfg(test)]
    full_scan: bool,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Read {
        source: usize,
    },
    Send {
        source: usize,
        edge: usize,
        slice: usize,
    },
    Write,
}

impl PlanExecutor {
    /// Creates an executor for a validated plan.
    ///
    /// # Panics
    ///
    /// Panics if `slice_size` is zero or larger than `chunk_size`.
    pub fn new(plan: RepairPlan, chunk_size: u64, slice_size: u64) -> Self {
        assert!(
            slice_size > 0 && slice_size <= chunk_size,
            "invalid slice size"
        );
        let slices = chunk_size.div_ceil(slice_size) as usize;
        let last_slice_bytes = chunk_size - (slices as u64 - 1) * slice_size;
        let count = plan.participants().len();
        let mut in_edges = vec![Vec::new(); count + 1];
        let mut edges = Vec::with_capacity(count);
        for (i, p) in plan.participants().iter().enumerate() {
            let to_slot = p.parent.unwrap_or(count);
            in_edges[to_slot].push(i);
            // Relays forward full slices whatever fraction they read.
            let relays = plan.inputs(Some(i)).next().is_some();
            edges.push(Edge {
                source: i,
                to_slot,
                start: 0,
                end: slices,
                delivered: 0,
                bytes_factor: if relays { 1.0 } else { p.read_fraction },
            });
        }
        PlanExecutor {
            plan,
            slices,
            slice_bytes: slice_size,
            last_slice_bytes,
            sources: vec![SourceState::default(); count],
            edges,
            out_edges: (0..count).map(|i| vec![i]).collect(),
            in_edges,
            write_done: 0,
            writing: None,
            flow_map: IdMap::default(),
            owner: 0,
            paused: false,
            started_at: None,
            finished_at: None,
            coding: None,
            failed: false,
            sent_bytes: 0.0,
            aborted_flows: 0,
            #[cfg(test)]
            full_scan: false,
        }
    }

    /// Stamps `owner` on every flow the executor starts, so the driver
    /// can route [`Event::FlowCompleted`] to this executor by the echoed
    /// key instead of offering the event to each executor in turn. The
    /// key only routes: [`PlanExecutor::on_event`] still answers
    /// [`ExecStatus::NotMine`] for a flow it did not start.
    pub fn with_owner(mut self, owner: u64) -> Self {
        self.owner = owner;
        self
    }

    /// The plan being executed (reflects any re-tuning applied so far).
    pub fn plan(&self) -> &RepairPlan {
        &self.plan
    }

    /// Kicks off the repair.
    pub fn start(&mut self, sim: &mut Simulator) {
        if self.started_at.is_none() {
            self.started_at = Some(sim.now().as_secs());
        }
        self.pump(sim);
    }

    /// Feeds a simulator event to the executor.
    ///
    /// An aborted flow (a participating node failed mid-transfer) fails
    /// the whole attempt: the executor cancels its remaining flows and
    /// returns [`ExecStatus::Failed`] — the driver re-plans from there.
    pub fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> ExecStatus {
        let Event::FlowCompleted { id, outcome, .. } = event else {
            return ExecStatus::NotMine;
        };
        let Some(step) = self.flow_map.remove(id) else {
            return ExecStatus::NotMine;
        };
        if !outcome.is_delivered() {
            self.aborted_flows += 1;
            self.abort(sim);
            return ExecStatus::Failed;
        }
        match step {
            Step::Read { source } => {
                let s = &mut self.sources[source];
                s.reading = None;
                s.read_done += 1;
            }
            Step::Send {
                source,
                edge,
                slice,
            } => {
                self.sources[source].sending = None;
                self.sources[source].sent = slice + 1;
                self.edges[edge].delivered = slice + 1;
                self.sent_bytes +=
                    (self.slice_len(slice) as f64 * self.edges[edge].bytes_factor).ceil();
            }
            Step::Write => {
                self.writing = None;
                self.write_done += 1;
                if self.write_done == self.slices {
                    self.finished_at = Some(sim.now().as_secs());
                    return ExecStatus::Done;
                }
            }
        }
        self.advance(sim, step);
        ExecStatus::InProgress
    }

    /// Whether the repaired chunk has been fully written.
    pub fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Kills this attempt: cancels every in-flight flow (in flow-id order,
    /// for determinism) and marks the executor failed. Safe to call
    /// repeatedly. Used both internally on an aborted flow and by drivers
    /// whose per-attempt stall watchdog expired.
    pub fn abort(&mut self, sim: &mut Simulator) {
        if self.failed || self.is_done() {
            return;
        }
        self.failed = true;
        let mut ids: Vec<FlowId> = self.flow_map.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            // A sibling the same node failure already killed is gone from
            // the engine (cancel is a no-op) but its abort notification is
            // still queued — it belongs in this attempt's abort count, or
            // `RecoveryStats::aborted_flows` under-reports the trace.
            if sim.cancel_flow(id).is_some() || sim.abort_pending(id) {
                self.aborted_flows += 1;
            }
        }
        self.flow_map.clear();
        for s in &mut self.sources {
            s.reading = None;
            s.sending = None;
        }
        self.writing = None;
    }

    /// Network bytes of completed slice sends so far — the repair traffic
    /// wasted if this attempt is thrown away.
    pub fn sent_bytes(&self) -> f64 {
        self.sent_bytes
    }

    /// Number of this attempt's flows killed by node failures or
    /// cancelled by [`PlanExecutor::abort`].
    pub fn aborted_flows(&self) -> usize {
        self.aborted_flows
    }

    /// Simulated time the repair started, if started.
    pub fn started_at(&self) -> Option<f64> {
        self.started_at
    }

    /// Simulated time the repair finished, if done.
    pub fn finished_at(&self) -> Option<f64> {
        self.finished_at
    }

    /// Runs the real coding stages of the plan *as executed* (any
    /// re-tuned edges included) on `coder`, at most once per executor;
    /// repeated calls return the recorded stats.
    pub fn run_coding(&mut self, coder: &mut PlanCoder) -> CodingStats {
        if let Some(stats) = self.coding {
            return stats;
        }
        let stats = coder.run(&self.plan);
        self.coding = Some(stats);
        stats
    }

    /// Fraction of the chunk already written at the destination.
    pub fn progress(&self) -> f64 {
        self.write_done as f64 / self.slices as f64
    }

    /// Whether transmissions are currently postponed.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Postpones all *new* transmissions (in-flight slices drain). This is
    /// the mechanism behind transmission re-ordering (§III-C): a postponed
    /// chunk stops competing for bandwidth so sibling chunks proceed.
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Resumes postponed transmissions.
    pub fn resume(&mut self, sim: &mut Simulator) {
        if self.paused {
            self.paused = false;
            if self.started_at.is_some() && !self.is_done() {
                self.pump(sim);
            }
        }
    }

    /// Per-edge delivery progress, for straggler detection.
    pub fn edge_progress(&self) -> Vec<EdgeProgress> {
        self.edges
            .iter()
            .filter(|e| e.start < e.end)
            .map(|e| EdgeProgress {
                source: e.source,
                to: (e.to_slot < self.sources.len()).then_some(e.to_slot),
                delivered: e.delivered.saturating_sub(e.start),
                start: e.start,
                end: e.end,
            })
            .collect()
    }

    /// Repair re-tuning (§III-C, Fig. 10(b)): redirect the *remaining*
    /// slices participant `source` still owes its relay straight to the
    /// destination, removing the relay dependency. Returns `false` if there
    /// is no such pending transfer (`source` is not a participant, already
    /// uploads to the destination, or has finished its plan edge).
    pub fn retune_input(&mut self, sim: &mut Simulator, source: usize) -> bool {
        let count = self.sources.len();
        // Redirected edges are appended after the plan edges, so edge
        // `source` is the participant's plan edge.
        if source >= count || self.edges[source].to_slot == count {
            return false;
        }
        let edge = &self.edges[source];
        // Cut over after any slice currently in flight on this edge.
        let in_flight = matches!(self.sources[source].sending, Some((_, s)) if edge.covers(s));
        let cutover = (edge.delivered + usize::from(in_flight)).min(edge.end);
        let (old_end, factor) = (edge.end, edge.bytes_factor);
        if cutover >= old_end {
            return false;
        }
        self.edges[source].end = cutover;
        self.out_edges[source].push(self.edges.len());
        self.in_edges[count].push(self.edges.len());
        self.edges.push(Edge {
            source,
            to_slot: count,
            start: cutover,
            end: old_end,
            delivered: cutover,
            bytes_factor: factor,
        });
        // Keep the plan view in sync for observers.
        self.plan.redirect_to_destination(source);
        self.pump(sim);
        true
    }

    fn slice_len(&self, slice: usize) -> u64 {
        if slice + 1 == self.slices {
            self.last_slice_bytes
        } else {
            self.slice_bytes
        }
    }

    /// Whether `slot` has received `slice` on every input edge that
    /// carries it.
    fn inputs_ready(&self, slot: usize, slice: usize) -> bool {
        self.in_edges[slot]
            .iter()
            .map(|&e| &self.edges[e])
            .filter(|e| e.covers(slice))
            .all(|e| e.delivered > slice)
    }

    /// Whether the executor may not start flows (postponed, or over).
    fn is_stopped(&self) -> bool {
        self.paused || self.is_done() || self.failed
    }

    /// Starts every action that is currently unblocked: the full scan,
    /// for the calls after which any source may be (start, resume,
    /// re-tune).
    fn pump(&mut self, sim: &mut Simulator) {
        if self.is_stopped() {
            return;
        }
        for i in 0..self.sources.len() {
            self.try_read(sim, i);
        }
        for slot in 0..=self.sources.len() {
            self.try_slot(sim, slot);
        }
    }

    /// Starts what the completion of `step` unblocked. That can only be
    /// the source the step belongs to and the slot it fed; they are
    /// examined in the order the full scan visits them (the read, sends by
    /// ascending source, the write), because flow ids break completion
    /// ties and so the order is part of the schedule.
    fn advance(&mut self, sim: &mut Simulator, step: Step) {
        #[cfg(test)]
        if self.full_scan {
            return self.pump(sim);
        }
        if self.is_stopped() {
            return;
        }
        match step {
            Step::Read { source } => {
                self.try_read(sim, source);
                self.try_send(sim, source);
            }
            Step::Send { source, edge, .. } => {
                let fed = self.edges[edge].to_slot;
                self.try_slot(sim, source.min(fed));
                self.try_slot(sim, source.max(fed));
            }
            Step::Write => self.try_write(sim),
        }
    }

    /// Starts the next send of participant `slot`, or the next write for
    /// the destination's slot, if unblocked.
    fn try_slot(&mut self, sim: &mut Simulator, slot: usize) {
        if slot < self.sources.len() {
            self.try_send(sim, slot);
        } else {
            self.try_write(sim);
        }
    }

    /// Disk reads: one outstanding per source, sequential.
    fn try_read(&mut self, sim: &mut Simulator, i: usize) {
        let (s, p) = (&self.sources[i], &self.plan.participants()[i]);
        // Sub-chunk sources read every slice, in proportionally smaller
        // pieces.
        if s.reading.is_some() || s.read_done >= self.slices {
            return;
        }
        let bytes = (self.slice_len(s.read_done) as f64 * p.read_fraction).ceil() as u64;
        let id = sim.start_flow(
            FlowSpec::disk_read(p.node, bytes.max(1), Traffic::Repair).with_owner(self.owner),
        );
        self.flow_map.insert(id, Step::Read { source: i });
        self.sources[i].reading = Some(id);
    }

    /// Network sends: one outstanding per source, in slice order.
    fn try_send(&mut self, sim: &mut Simulator, i: usize) {
        let s = &self.sources[i];
        let slice = s.sent;
        if s.sending.is_some()
            || slice >= self.slices
            || s.read_done <= slice
            || !self.inputs_ready(i, slice)
        {
            return;
        }
        let Some(&eidx) = self.out_edges[i]
            .iter()
            .find(|&&e| self.edges[e].covers(slice))
        else {
            return;
        };
        let edge = &self.edges[eidx];
        let bytes = (self.slice_len(slice) as f64 * edge.bytes_factor).ceil() as u64;
        let participants = self.plan.participants();
        let to = participants
            .get(edge.to_slot)
            .map_or(self.plan.destination(), |p| p.node);
        let id = sim.start_flow(
            FlowSpec::network(participants[i].node, to, bytes.max(1), Traffic::Repair)
                .with_owner(self.owner),
        );
        self.flow_map.insert(
            id,
            Step::Send {
                source: i,
                edge: eidx,
                slice,
            },
        );
        self.sources[i].sending = Some((id, slice));
    }

    /// Destination write: sequential, gated on all inputs.
    fn try_write(&mut self, sim: &mut Simulator) {
        if self.writing.is_some()
            || self.write_done >= self.slices
            || !self.inputs_ready(self.sources.len(), self.write_done)
        {
            return;
        }
        let bytes = self.slice_len(self.write_done);
        let id = sim.start_flow(
            FlowSpec::disk_write(self.plan.destination(), bytes, Traffic::Repair)
                .with_owner(self.owner),
        );
        self.flow_map.insert(id, Step::Write);
        self.writing = Some(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Participant;
    use chameleon_cluster::ChunkId;
    use chameleon_gf::Gf256;
    use chameleon_simnet::faults::splitmix64;
    use chameleon_simnet::{NodeCaps, NodeId, SimConfig};

    const MB: u64 = 1 << 20;

    fn sim(nodes: usize) -> Simulator {
        // 100 MB/s network, very fast disks so the network dominates.
        Simulator::new(SimConfig::uniform(
            nodes,
            NodeCaps {
                uplink: 100.0 * MB as f64,
                downlink: 100.0 * MB as f64,
                disk_read: 10_000.0 * MB as f64,
                disk_write: 10_000.0 * MB as f64,
            },
        ))
    }

    /// Participant on node `node` uploading to participant `parent`.
    fn part(node: NodeId, parent: Option<usize>) -> Participant {
        Participant {
            node,
            chunk_index: node,
            coeff: Gf256::ONE,
            parent,
            read_fraction: 1.0,
        }
    }

    /// Participant `i` on node `i` uploads to participant `parents[i]`, or
    /// to the destination (node `parents.len()`) when that is `None`.
    fn tree(parents: &[Option<usize>]) -> RepairPlan {
        let participants = parents.iter().enumerate().map(|(i, &p)| part(i, p));
        RepairPlan::new(chunk(), parents.len(), participants.collect()).unwrap()
    }

    fn run_to_completion(exec: &mut PlanExecutor, sim: &mut Simulator) -> f64 {
        exec.start(sim);
        while let Some(ev) = sim.next_event() {
            if exec.on_event(sim, &ev) == ExecStatus::Done {
                return sim.now().as_secs();
            }
        }
        panic!("executor never finished");
    }

    fn chunk() -> ChunkId {
        ChunkId {
            stripe: 0,
            index: 0,
        }
    }

    #[test]
    fn star_repair_time_is_bounded_by_destination_downlink() {
        // CR with 4 sources and a 64 MB chunk: destination must download
        // 256 MB at 100 MB/s => ~2.56 s (plus pipeline fill).
        let plan = tree(&[None; 4]);
        let mut s = sim(5);
        let mut exec = PlanExecutor::new(plan, 64 * MB, MB);
        let t = run_to_completion(&mut exec, &mut s);
        assert!(t >= 2.56 - 1e-6, "too fast: {t}");
        assert!(t < 2.8, "too slow: {t}");
    }

    #[test]
    fn chain_repair_pipelines_to_near_constant_time() {
        // ECPipe with 4 sources: every link carries 64 MB; pipelined, the
        // total is ~one chunk time + per-hop fill = ~0.64 s + small.
        let plan = tree(&[Some(1), Some(2), Some(3), None]);
        let mut s = sim(5);
        let mut exec = PlanExecutor::new(plan, 64 * MB, MB);
        let t = run_to_completion(&mut exec, &mut s);
        assert!(t >= 0.64 - 1e-6);
        assert!(t < 0.72, "chain did not pipeline: {t}");
    }

    #[test]
    fn tree_is_between_star_and_chain() {
        // PPR-like tree: 0 -> 1, 2 -> 3, 1 -> 3, 3 -> dst. Node 3 downloads
        // 128 MB => >= 1.28 s.
        let plan = tree(&[Some(1), Some(3), Some(3), None]);
        let mut s = sim(5);
        let mut exec = PlanExecutor::new(plan, 64 * MB, MB);
        let t = run_to_completion(&mut exec, &mut s);
        assert!(t >= 1.28 - 1e-6, "{t}");
        assert!(t < 1.45, "{t}");
    }

    #[test]
    fn progress_and_timestamps_are_monotone() {
        let plan = tree(&[None; 2]);
        let mut s = sim(3);
        let mut exec = PlanExecutor::new(plan, 8 * MB, MB);
        assert_eq!(exec.progress(), 0.0);
        exec.start(&mut s);
        assert_eq!(exec.started_at(), Some(0.0));
        let mut last = 0.0;
        while let Some(ev) = s.next_event() {
            let status = exec.on_event(&mut s, &ev);
            assert!(exec.progress() >= last);
            last = exec.progress();
            if status == ExecStatus::Done {
                break;
            }
        }
        assert_eq!(exec.progress(), 1.0);
        assert!(exec.finished_at().unwrap() > 0.0);
    }

    #[test]
    fn pause_freezes_and_resume_finishes() {
        let plan = tree(&[None; 2]);
        let mut s = sim(3);
        let mut exec = PlanExecutor::new(plan, 8 * MB, MB);
        exec.start(&mut s);
        // Drain a few events, then pause.
        for _ in 0..4 {
            let ev = s.next_event().unwrap();
            exec.on_event(&mut s, &ev);
        }
        exec.pause();
        assert!(exec.is_paused());
        // Drain whatever is in flight; the executor must not start more.
        while let Some(ev) = s.next_event() {
            assert_ne!(exec.on_event(&mut s, &ev), ExecStatus::Done);
        }
        assert!(!exec.is_done());
        exec.resume(&mut s);
        while let Some(ev) = s.next_event() {
            if exec.on_event(&mut s, &ev) == ExecStatus::Done {
                return;
            }
        }
        panic!("did not finish after resume");
    }

    #[test]
    fn retune_redirects_remaining_slices() {
        // Chain 0 -> 1 -> dst; retune the 0 -> 1 edge to the destination.
        let plan = tree(&[Some(1), None]);
        let mut s = sim(3);
        let mut exec = PlanExecutor::new(plan, 8 * MB, MB);
        exec.start(&mut s);
        for _ in 0..6 {
            let ev = s.next_event().unwrap();
            exec.on_event(&mut s, &ev);
        }
        assert!(exec.retune_input(&mut s, 0));
        // Plan view and edge progress show the cut edge and its remainder.
        assert_eq!(exec.plan().participants()[0].parent, None);
        let edges = exec.edge_progress();
        assert_eq!(edges.len(), 3);
        let (cut, redirected) = (edges[0], edges[2]);
        assert_eq!((cut.source, cut.to), (0, Some(1)));
        assert_eq!((redirected.source, redirected.to), (0, None));
        assert_eq!(cut.end, redirected.start);
        assert_eq!(redirected.end, 8);
        assert!(cut.end < 8);
        // A cut edge cannot be cut again.
        assert!(!exec.retune_input(&mut s, 0));
        // Still completes.
        while let Some(ev) = s.next_event() {
            if exec.on_event(&mut s, &ev) == ExecStatus::Done {
                return;
            }
        }
        panic!("did not finish after retune");
    }

    #[test]
    fn retune_missing_edge_returns_false() {
        let plan = tree(&[Some(1), None]);
        let mut s = sim(3);
        let mut exec = PlanExecutor::new(plan, 8 * MB, MB);
        exec.start(&mut s);
        assert!(!exec.retune_input(&mut s, 1), "edges to dst can't retune");
        assert!(!exec.retune_input(&mut s, 2), "past the participants");
        assert!(
            !exec.retune_input(&mut s, usize::MAX),
            "past the participants"
        );
        // Once participant 0 has delivered every slice to its relay, its
        // edge is finished and there is nothing left to cut over.
        while exec.edge_progress()[0].delivered < 8 {
            let ev = s.next_event().unwrap();
            exec.on_event(&mut s, &ev);
        }
        assert!(!exec.retune_input(&mut s, 0), "finished edge");
        assert_eq!(exec.plan().participants()[0].parent, Some(1));
        assert_eq!(exec.edge_progress().len(), 2);
    }

    #[test]
    fn sub_chunk_fraction_transfers_less() {
        // Butterfly-style: two sources send half chunks straight to dst.
        let mut a = part(0, None);
        a.read_fraction = 0.5;
        let mut b = part(1, None);
        b.read_fraction = 0.5;
        let plan = RepairPlan::new(chunk(), 2, vec![a, b]).unwrap();
        let mut s = sim(3);
        let mut exec = PlanExecutor::new(plan, 64 * MB, MB);
        let t = run_to_completion(&mut exec, &mut s);
        // dst downloads 2 * 32 MB at 100 MB/s => ~0.64 s.
        assert!(t < 0.75, "{t}");
        let repaired =
            s.monitor()
                .total_bytes(2, chameleon_simnet::ResourceKind::Downlink, Traffic::Repair);
        assert!((repaired - 64.0 * MB as f64).abs() / (MB as f64) < 1.0);
    }

    #[test]
    fn single_source_single_slice_plan() {
        let plan = tree(&[None]);
        let mut s = sim(2);
        let mut exec = PlanExecutor::new(plan, MB, MB);
        assert_eq!(exec.edge_progress()[0].end, 1, "one slice");
        let t = run_to_completion(&mut exec, &mut s);
        // 1 MB read (fast disk) + 1 MB network at 100 MB/s + write.
        assert!(t > 0.0 && t < 0.05, "{t}");
    }

    #[test]
    fn pause_before_start_is_harmless() {
        let plan = tree(&[None]);
        let mut s = sim(2);
        let mut exec = PlanExecutor::new(plan, MB, MB);
        exec.pause();
        exec.resume(&mut s); // not started yet: must not panic or start flows
        assert_eq!(s.active_flows(), 0);
        run_to_completion(&mut exec, &mut s);
    }

    #[test]
    fn edge_progress_reports_all_edges() {
        let exec = PlanExecutor::new(tree(&[Some(1), None, None]), 4 * MB, MB);
        let edges = exec.edge_progress();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|e| e.delivered == 0 && e.end == 4));
        let ends: Vec<_> = edges.iter().map(|e| (e.source, e.to)).collect();
        assert_eq!(ends, vec![(0, Some(1)), (1, None), (2, None)]);
    }

    #[test]
    fn helper_crash_fails_the_attempt_and_cancels_flows() {
        let plan = tree(&[None; 4]);
        let mut s = sim(5);
        let mut exec = PlanExecutor::new(plan, 8 * MB, MB);
        exec.start(&mut s);
        // Let slices move until at least one send completed, then crash
        // helper 1 mid-transfer.
        while exec.sent_bytes() == 0.0 {
            let ev = s.next_event().unwrap();
            exec.on_event(&mut s, &ev);
        }
        s.fail_node(1);
        let mut failed = false;
        while let Some(ev) = s.next_event() {
            match exec.on_event(&mut s, &ev) {
                ExecStatus::Failed => {
                    failed = true;
                    break;
                }
                ExecStatus::Done => panic!("attempt with a dead helper must not complete"),
                _ => {}
            }
        }
        assert!(failed);
        assert!(exec.failed);
        assert!(exec.aborted_flows() >= 1);
        assert!(exec.sent_bytes() > 0.0, "completed sends are accounted");
        // The executor cancelled everything it had in flight; the sim
        // drains without the attempt ever completing.
        while s.next_event().is_some() {}
        assert_eq!(s.active_flows(), 0);
        assert!(!exec.is_done());
    }

    #[test]
    fn driver_abort_is_idempotent_and_inert() {
        let plan = tree(&[None; 2]);
        let mut s = sim(3);
        let mut exec = PlanExecutor::new(plan, 4 * MB, MB);
        exec.start(&mut s);
        exec.abort(&mut s);
        exec.abort(&mut s);
        assert!(exec.failed);
        assert_eq!(s.active_flows(), 0);
        // A failed executor never starts new work.
        exec.resume(&mut s);
        assert_eq!(s.active_flows(), 0);
    }

    #[test]
    fn odd_chunk_size_last_slice_is_short() {
        let plan = tree(&[None]);
        let mut s = sim(2);
        let mut exec = PlanExecutor::new(plan, 5 * MB + 123, 2 * MB);
        assert_eq!(exec.edge_progress()[0].end, 3, "three slices");
        run_to_completion(&mut exec, &mut s);
        let moved =
            s.monitor()
                .total_bytes(1, chameleon_simnet::ResourceKind::Downlink, Traffic::Repair);
        assert!((moved - (5.0 * MB as f64 + 123.0)).abs() < 1.0);
    }
    /// The script one proptest case plays against an executor: the plan
    /// shape and, at every event, whether to re-tune, pause, resume or
    /// crash a helper — all drawn from one seeded stream, so the indexed
    /// executor and its full-scan oracle are driven identically.
    struct Script {
        state: u64,
    }

    impl Script {
        fn next(&mut self, bound: usize) -> usize {
            ((splitmix64(&mut self.state) >> 33) as usize) % bound
        }
    }

    /// Plays the seeded script and returns the simulator's flow-lifecycle
    /// log (ids, endpoints, bytes, times) with the statuses seen.
    fn play(
        seed: u64,
        k: usize,
        shape: u8,
        slices: u64,
        full_scan: bool,
    ) -> (String, Vec<ExecStatus>) {
        let mut script = Script { state: seed };
        // Participant i sits on node i and the destination on node k;
        // forwarding only to higher indices keeps the graph an in-tree.
        let participants = (0..k)
            .map(|i| {
                let parent = match shape {
                    0 => k,
                    1 => i + 1,
                    _ => i + 1 + script.next(k - i),
                };
                let mut p = part(i, (parent < k).then_some(parent));
                if shape == 0 && script.next(3) == 0 {
                    p.read_fraction = 0.5;
                }
                p
            })
            .collect();
        let plan = RepairPlan::new(chunk(), k, participants).unwrap();
        // Equal capacities make completions tie (flow ids decide), skewed
        // ones spread them out; the script draws which.
        let skew = script.next(2) == 1;
        let mut config = SimConfig::uniform(k + 1, NodeCaps::default());
        for (n, caps) in config.nodes.iter_mut().enumerate() {
            let scale = if skew { 1.0 + (n % 3) as f64 } else { 1.0 };
            caps.uplink = 100.0 * MB as f64 * scale;
            caps.downlink = 150.0 * MB as f64 / scale;
        }
        let mut s = Simulator::new(config);
        s.set_trace_enabled(true);
        // Whole slices, or a short last one.
        let chunk_size = slices * MB + 123 * script.next(2) as u64;
        let mut exec = PlanExecutor::new(plan, chunk_size, MB).with_owner(seed);
        exec.full_scan = full_scan;
        exec.start(&mut s);
        let mut statuses = Vec::new();
        while let Some(ev) = s.next_event() {
            let status = exec.on_event(&mut s, &ev);
            statuses.push(status);
            // The indexed pump left nothing a full scan would start.
            let started = exec.flow_map.len();
            exec.pump(&mut s);
            assert_eq!(exec.flow_map.len(), started, "after {ev:?}");
            match script.next(12) {
                // One past the participants: a re-tune that must refuse.
                0 => {
                    exec.retune_input(&mut s, script.next(k + 1));
                }
                1 => exec.pause(),
                2 | 3 => exec.resume(&mut s),
                4 if script.next(8) == 0 => s.fail_node(script.next(k + 1)),
                _ => {}
            }
            if exec.is_paused() && s.active_flows() == 0 {
                exec.resume(&mut s);
            }
        }
        assert!(exec.is_done() || exec.failed);
        let log = s.take_trace().expect("tracing is on").to_jsonl();
        (log, statuses)
    }

    proptest::proptest! {
        #[test]
        fn indexed_pump_equals_the_full_scan(
            seed in proptest::prelude::any::<u64>(),
            k in 1usize..=8,
            shape in 0u8..3,
            slices in 1u64..=5,
        ) {
            let indexed = play(seed, k, shape, slices, false);
            let oracle = play(seed, k, shape, slices, true);
            proptest::prop_assert_eq!(indexed, oracle);
        }
    }
}
