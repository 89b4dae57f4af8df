//! Repair task dispatch (§III-A): decompose a chunk's repair into `2k`
//! upload/download tasks and place them on nodes according to residual
//! bandwidth, minimum-estimated-time first.

use chameleon_cluster::ChunkId;
use chameleon_simnet::{NodeId, ResourceKind, Simulator, Traffic};

use crate::baseline::PlanShape;
use crate::chameleon::tunable::pair_tasks;
use crate::context::{RepairContext, Resources};
use crate::select::{repair_candidates, SelectError, Selection, SourcePick};

/// Hard floor on the usable residual bandwidth, as a fraction of
/// capacity, so estimates never divide by zero.
const RESIDUAL_FLOOR: f64 = 0.02;

/// Per-phase task counters and residual-bandwidth estimates for every
/// storage node. Task counts are in *chunk equivalents* (sub-chunk tasks
/// count fractionally), which generalizes the paper's integer counters.
///
/// The counters change only through `commit` and `release`, which add and
/// remove the tasks of one [`TaskAssignment`]'s plan; `cost` prices the
/// same tasks.
#[derive(Debug, Clone)]
pub struct PhaseState {
    /// Upload tasks assigned this phase, per node.
    t_up: Vec<f64>,
    /// Download tasks assigned this phase, per node.
    t_down: Vec<f64>,
    /// Residual "uplink-side" bandwidth per node (bytes/s).
    pub b_up: Vec<f64>,
    /// Residual "downlink-side" bandwidth per node (bytes/s).
    pub b_down: Vec<f64>,
    /// Rack of each storage node under the cluster fabric. Empty when the
    /// fabric is flat (or the resource model is storage), in which case
    /// every cross-rack adjustment below is a no-op.
    pub rack_of: Vec<u32>,
    /// Residual cross-rack bandwidth *out of* each rack: the lesser of the
    /// rack's ToR-uplink residual and the spine residual (bytes/s). Empty
    /// when `rack_of` is.
    pub cross_up: Vec<f64>,
    /// Residual cross-rack bandwidth *into* each rack (ToR downlink vs
    /// spine). Empty when `rack_of` is.
    pub cross_down: Vec<f64>,
    /// What the residuals measure: network links, or disk read/write
    /// bandwidth (ChameleonEC-IO).
    pub(crate) resources: Resources,
}

impl PhaseState {
    /// Measures residual bandwidth on every storage node, leaving out the
    /// bandwidth occupied by non-repair traffic (foreground + injected
    /// background), as the paper's coordinator does at each phase start.
    ///
    /// With [`Resources::Storage`] (ChameleonEC-IO), disk read/write
    /// residuals are used instead of the network links.
    pub fn measure(sim: &mut Simulator, ctx: &RepairContext, resources: Resources) -> Self {
        // One solve up front; every probe below is then an O(1) table
        // lookup on the immutable simulator.
        sim.refresh();
        let sim: &Simulator = sim;
        let nodes = ctx.cluster.storage_nodes();
        let (up_kind, down_kind) = match resources {
            Resources::Network => (ResourceKind::Uplink, ResourceKind::Downlink),
            Resources::Storage => (ResourceKind::DiskRead, ResourceKind::DiskWrite),
        };
        let other = [Traffic::Foreground, Traffic::Background];
        let mut b_up = Vec::with_capacity(nodes);
        let mut b_down = Vec::with_capacity(nodes);
        for node in 0..nodes {
            // Even a saturated resource yields a fair share to one more
            // flow (TCP-like sharing), so the usable bandwidth is at
            // least capacity / (competing flows + 1).
            let estimate = |sim: &Simulator, kind| {
                let cap = sim.capacity(node, kind);
                let competitors: usize = other
                    .iter()
                    .map(|&t| sim.class_flow_count(node, kind, t))
                    .sum();
                let fair_share = cap / (competitors + 1) as f64;
                sim.residual_capacity(node, kind, &other)
                    .max(fair_share)
                    .max(cap * RESIDUAL_FLOOR)
            };
            b_up.push(estimate(sim, up_kind));
            b_down.push(estimate(sim, down_kind));
        }
        // Fabric residuals: how much cross-rack bandwidth each rack still
        // has, bounded by the shared spine. Only the network model cares —
        // disk bandwidth never crosses the fabric.
        let (rack_of, cross_up, cross_down) = match (resources, sim.topology()) {
            (Resources::Network, Some(topo)) if topo.rack_count() > 1 => {
                let racks = topo.rack_count();
                let link_residual = |link: usize| {
                    sim.link_residual_capacity(link, &other)
                        .max(topo.link_capacity(link) * RESIDUAL_FLOOR)
                };
                let spine = topo.spine_link().map_or(f64::INFINITY, &link_residual);
                let cross_up: Vec<f64> = (0..racks)
                    .map(|r| link_residual(topo.tor_up_link(r)).min(spine))
                    .collect();
                let cross_down: Vec<f64> = (0..racks)
                    .map(|r| link_residual(topo.tor_down_link(r)).min(spine))
                    .collect();
                let rack_of = (0..nodes).map(|n| topo.rack_of(n) as u32).collect();
                (rack_of, cross_up, cross_down)
            }
            _ => (Vec::new(), Vec::new(), Vec::new()),
        };
        PhaseState {
            rack_of,
            cross_up,
            cross_down,
            resources,
            ..PhaseState::flat(b_up, b_down)
        }
    }

    /// A phase with no outstanding tasks, the given per-node network
    /// residuals, and a flat fabric (no cross-rack clamping) — the common
    /// shape for synthetic phases in tests, benchmarks, and the `plan`
    /// subcommand.
    ///
    /// # Panics
    ///
    /// Panics if the residual vectors differ in length.
    pub fn flat(b_up: Vec<f64>, b_down: Vec<f64>) -> Self {
        assert_eq!(b_up.len(), b_down.len(), "residual vectors must match");
        let n = b_up.len();
        PhaseState {
            t_up: vec![0.0; n],
            t_down: vec![0.0; n],
            b_up,
            b_down,
            rack_of: Vec::new(),
            cross_up: Vec::new(),
            cross_down: Vec::new(),
            resources: Resources::Network,
        }
    }

    /// The rack of `node`, when the fabric has more than one.
    pub fn rack(&self, node: NodeId) -> Option<usize> {
        self.rack_of.get(node).map(|&r| r as usize)
    }

    /// The rack holding the plurality of `nodes` (ties to the lower rack
    /// id) — the dispatcher's guess at where a chunk's repair traffic
    /// originates. `None` on a flat fabric.
    pub fn majority_rack(&self, nodes: &[NodeId]) -> Option<usize> {
        if self.rack_of.is_empty() || nodes.is_empty() {
            return None;
        }
        let mut votes = vec![0usize; self.cross_up.len()];
        for &n in nodes {
            votes[self.rack_of[n] as usize] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(r, &v)| (v, std::cmp::Reverse(r)))
            .map(|(r, _)| r)
    }

    /// Usable upload bandwidth of `node` for traffic headed to `to_rack`:
    /// its uplink residual, clamped by the rack's cross-fabric residual
    /// when the transfer leaves the rack.
    fn effective_up(&self, node: NodeId, to_rack: Option<usize>) -> f64 {
        match (self.rack(node), to_rack) {
            (Some(mine), Some(to)) if mine != to => self.b_up[node].min(self.cross_up[mine]),
            _ => self.b_up[node],
        }
    }

    /// Usable download bandwidth of `node` for traffic arriving from
    /// `from_rack` (clamped by the fabric when it crosses racks).
    fn effective_down(&self, node: NodeId, from_rack: Option<usize>) -> f64 {
        match (self.rack(node), from_rack) {
            (Some(mine), Some(from)) if mine != from => {
                self.b_down[node].min(self.cross_down[mine])
            }
            _ => self.b_down[node],
        }
    }

    /// Estimated time for `node` to finish its upload tasks plus `extra`
    /// more, at `chunk_size` bytes per task, for a transfer headed to
    /// `to_rack` (`None` = rack-agnostic).
    pub fn up_time_to(
        &self,
        node: NodeId,
        extra: f64,
        chunk_size: f64,
        to_rack: Option<usize>,
    ) -> f64 {
        (self.t_up[node] + extra) * chunk_size / self.effective_up(node, to_rack)
    }

    /// Estimated time for `node` to finish its download tasks plus `extra`
    /// more, for a transfer arriving from `from_rack` (`None` =
    /// rack-agnostic).
    pub fn down_time_from(
        &self,
        node: NodeId,
        extra: f64,
        chunk_size: f64,
        from_rack: Option<usize>,
    ) -> f64 {
        (self.t_down[node] + extra) * chunk_size / self.effective_down(node, from_rack)
    }

    /// The `(node, up, down)` tasks of the plan in which source `i` of
    /// `selection` uploads to source `parents[i]` (`None`: the
    /// destination), destination first: every source uploads its
    /// `fraction` and its parent downloads it. A relay's downloads count
    /// on the network only — a relay transfer touches no disk.
    fn tasks(&self, selection: &Selection, parents: &[Option<usize>]) -> Vec<(NodeId, f64, f64)> {
        let mut tasks = vec![(selection.destination, 0.0, 0.0)];
        tasks.extend(selection.sources.iter().map(|s| (s.node, s.fraction, 0.0)));
        for (s, parent) in selection.sources.iter().zip(parents) {
            match parent {
                None => tasks[0].2 += s.fraction,
                Some(p) if self.resources == Resources::Network => tasks[p + 1].2 += s.fraction,
                Some(_) => {}
            }
        }
        tasks
    }

    /// The estimated repair time of the plan `parents` over `selection`
    /// were it committed: the max over its nodes of their upload and
    /// download completion estimates (the paper's `R_i`, rack-agnostic).
    pub(crate) fn cost(
        &self,
        selection: &Selection,
        parents: &[Option<usize>],
        chunk_size: f64,
    ) -> f64 {
        self.tasks(selection, parents)
            .into_iter()
            .map(|(node, up, down)| {
                self.up_time_to(node, up, chunk_size, None)
                    .max(self.down_time_from(node, down, chunk_size, None))
            })
            .reduce(f64::max)
            .unwrap_or(0.0)
    }

    /// Adds (`sign` 1) or removes (`sign` −1) an assignment's tasks. The
    /// counters are clamped at zero, which also handles chunks that
    /// outlive the phase they were dispatched in.
    fn apply(&mut self, assignment: &TaskAssignment, sign: f64) {
        for (node, up, down) in self.tasks(&assignment.selection, &assignment.parents) {
            self.t_up[node] = (self.t_up[node] + sign * up).max(0.0);
            self.t_down[node] = (self.t_down[node] + sign * down).max(0.0);
        }
    }

    /// Adds an admitted chunk's tasks to the counters.
    pub(crate) fn commit(&mut self, assignment: &TaskAssignment) {
        self.apply(assignment, 1.0);
    }

    /// Removes a chunk's tasks from the counters once it no longer runs.
    pub(crate) fn release(&mut self, assignment: &TaskAssignment) {
        self.apply(assignment, -1.0);
    }

    /// [`dispatch_chunk`] as a pure read: the assignment, priced against
    /// the current counters, without committing its tasks.
    ///
    /// Under [`Resources::Storage`] (ChameleonEC-IO, §III-D) the balanced
    /// quantities are the *disk read* tasks at the sources and the *disk
    /// write* task at the destination; relay transfers consume no storage
    /// bandwidth, so the fan-ins are those of a fixed balanced tree.
    ///
    /// # Errors
    ///
    /// Same as [`dispatch_chunk`].
    pub(crate) fn assign(
        &self,
        ctx: &RepairContext,
        chunk: ChunkId,
        forbidden_destinations: &[NodeId],
    ) -> Result<TaskAssignment, SelectError> {
        let chunk_size = ctx.chunk_size() as f64;
        let (requirement, candidates, count) = repair_candidates(ctx, chunk)?;

        // --- Destination: minimum-time-first over off-stripe alive nodes. ---
        // Where the repair traffic will mostly come from: the rack holding
        // the plurality of surviving sources. Destinations outside it pay
        // the cross-fabric clamp, which steers the repair into the sources'
        // rack when the spine is the scarce resource. `None` on a flat
        // fabric.
        let src_rack = self.majority_rack(&candidates.iter().map(|s| s.node).collect::<Vec<_>>());
        let stripe_nodes = ctx.cluster.placement().stripe_nodes(chunk.stripe);
        let destination = ctx
            .cluster
            .alive_storage_nodes()
            .iter()
            .copied()
            .filter(|n| !stripe_nodes.contains(n) && !forbidden_destinations.contains(n))
            .min_by(|&a, &b| {
                self.down_time_from(a, 1.0, chunk_size, src_rack)
                    .total_cmp(&self.down_time_from(b, 1.0, chunk_size, src_rack))
                    .then(a.cmp(&b))
            })
            .ok_or(SelectError::NoDestination)?;

        let relayable = requirement.supports_relaying();
        let (sources, fan_in) = if !relayable {
            // Sub-chunk repairs: direct transfers only (no elastic plan).
            let fan_in = vec![0; candidates.len()];
            (candidates, fan_in)
        } else if self.resources == Resources::Storage {
            self.place_disk_tasks(candidates, count, chunk_size)
        } else {
            self.place_network_tasks(candidates, count, destination, src_rack, chunk_size)
        };
        let nodes: Vec<NodeId> = sources.iter().map(|s| s.node).collect();
        let parents = pair_tasks(fan_in, &nodes);
        let selection = Selection {
            destination,
            sources,
            relayable,
        };
        let estimated_secs = self.cost(&selection, &parents, chunk_size);
        Ok(TaskAssignment {
            chunk,
            selection,
            parents,
            estimated_secs,
        })
    }

    /// ChameleonEC-IO: only reads (sources) and the write (destination)
    /// consume storage bandwidth, so pick the `count` sources with the
    /// most idle disk-read bandwidth. Without network measurements the
    /// transmission topology is fixed: the fan-ins of a balanced
    /// aggregation tree over them.
    fn place_disk_tasks(
        &self,
        candidates: Vec<SourcePick>,
        count: usize,
        chunk_size: f64,
    ) -> (Vec<SourcePick>, Vec<usize>) {
        let read_time = |ci: usize| self.up_time_to(candidates[ci].node, 1.0, chunk_size, None);
        let mut picks: Vec<usize> = (0..candidates.len()).collect();
        picks.sort_by(|&a, &b| read_time(a).total_cmp(&read_time(b)).then(a.cmp(&b)));
        picks.truncate(count);
        picks.sort_unstable();
        let mut fan_in = vec![0; count];
        for parent in PlanShape::Tree.parents(count).into_iter().flatten() {
            fan_in[parent] += 1;
        }
        (picks.into_iter().map(|ci| candidates[ci]).collect(), fan_in)
    }

    /// Places a whole-chunk repair's `count` download and `count` upload
    /// tasks on the network, minimum-estimated-time first: each download
    /// after the destination's first goes to the destination or makes a
    /// source a relay, whichever finishes sooner; then the fastest
    /// remaining sources fill the pure-uploader slots. Returns the sources
    /// and their fan-ins.
    fn place_network_tasks(
        &self,
        candidates: Vec<SourcePick>,
        count: usize,
        destination: NodeId,
        src_rack: Option<usize>,
        chunk_size: f64,
    ) -> (Vec<SourcePick>, Vec<usize>) {
        let dest_rack = self.rack(destination);
        // This chunk's download tasks: the destination always takes the
        // first; `fan_in` counts those routed through each candidate.
        let mut at_destination = 1usize;
        let mut fan_in = vec![0usize; candidates.len()];
        for _ in 1..count {
            // Option A: another download at the destination (arriving from
            // the sources' majority rack).
            let mut best_time =
                self.up_time_to(destination, 0.0, chunk_size, None)
                    .max(self.down_time_from(
                        destination,
                        (at_destination + 1) as f64,
                        chunk_size,
                        src_rack,
                    ));
            let mut best: Option<usize> = None; // None = destination

            // Option B: a download at candidate source i (making it a relay
            // — its merged upload, one task either way, then heads for the
            // destination's rack).
            for (ci, s) in candidates.iter().enumerate() {
                let t =
                    self.up_time_to(s.node, 1.0, chunk_size, dest_rack)
                        .max(self.down_time_from(
                            s.node,
                            (fan_in[ci] + 1) as f64,
                            chunk_size,
                            src_rack,
                        ));
                if t < best_time {
                    best_time = t;
                    best = Some(ci);
                }
            }
            match best {
                None => at_destination += 1,
                Some(ci) => fan_in[ci] += 1,
            }
        }

        // Relay sources are fixed; pick the remaining pure uploaders
        // minimum-time-first among candidates without download tasks.
        let relay_count = fan_in.iter().filter(|&&d| d > 0).count();
        let upload_time =
            |ci: usize| self.up_time_to(candidates[ci].node, 1.0, chunk_size, dest_rack);
        let mut pure: Vec<usize> = (0..candidates.len())
            .filter(|&ci| fan_in[ci] == 0)
            .collect();
        pure.sort_by(|&a, &b| upload_time(a).total_cmp(&upload_time(b)).then(a.cmp(&b)));
        pure.truncate(count - relay_count);

        let (sources, fan_in): (Vec<SourcePick>, Vec<usize>) = candidates
            .into_iter()
            .zip(fan_in)
            .enumerate()
            .filter(|(ci, (_, d))| *d > 0 || pure.contains(ci))
            .map(|(_, tasks)| tasks)
            .unzip();
        debug_assert_eq!(sources.len(), count);
        (sources, fan_in)
    }
}

/// The dispatch result for one chunk: the selection it settled on, the
/// plan its tasks pair into, and the estimated completion time used for
/// phase admission and straggler expectations.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAssignment {
    /// The failed chunk.
    pub chunk: ChunkId,
    /// The chosen destination and sources.
    pub selection: Selection,
    /// The source each source uploads to (`None`: the destination),
    /// index-aligned with `selection.sources`; a source's fan-in is the
    /// number of download tasks dispatched to it.
    pub parents: Vec<Option<usize>>,
    /// Estimated seconds for this chunk's repair under the phase load it
    /// was dispatched against: the max over its plan's nodes of their
    /// upload and download completion estimates.
    pub estimated_secs: f64,
}

/// Dispatches the repair tasks for one failed chunk (§III-A) against the
/// phase counters and commits them: a minimum-time-first destination,
/// then the sources and their fan-ins, paired into a plan by Algorithm 1.
///
/// # Errors
///
/// [`SelectError::Unrepairable`] if the survivors cannot repair the chunk;
/// [`SelectError::NoDestination`] if no eligible destination exists.
pub fn dispatch_chunk(
    ctx: &RepairContext,
    phase: &mut PhaseState,
    chunk: ChunkId,
    forbidden_destinations: &[NodeId],
) -> Result<TaskAssignment, SelectError> {
    let assignment = phase.assign(ctx, chunk, forbidden_destinations)?;
    phase.commit(&assignment);
    Ok(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_cluster::{Cluster, ClusterConfig};
    use chameleon_codes::ReedSolomon;
    use std::sync::Arc;

    fn ctx() -> RepairContext {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()))
    }

    /// Chunk `index` of `stripe`.
    fn chunk(stripe: usize, index: usize) -> ChunkId {
        ChunkId { stripe, index }
    }

    fn flat_phase(ctx: &RepairContext) -> PhaseState {
        let n = ctx.cluster.storage_nodes();
        PhaseState::flat(vec![100.0; n], vec![100.0; n])
    }

    #[test]
    fn dispatch_produces_k_sources_and_valid_counts() {
        let ctx = ctx();
        let mut phase = flat_phase(&ctx);
        let chunk = chunk(0, 1);
        let a = dispatch_chunk(&ctx, &mut phase, chunk, &[]).unwrap();
        assert_eq!(a.selection.sources.len(), 4);
        assert!(a.selection.relayable);
        assert!(a.parents.contains(&None));
        assert!(a.estimated_secs > 0.0);
        // Destination is off-stripe and alive.
        assert!(!ctx
            .cluster
            .placement()
            .stripe_nodes(chunk.stripe)
            .contains(&a.selection.destination));
    }

    #[test]
    fn dispatch_prefers_idle_nodes_for_destination() {
        let ctx = ctx();
        let mut phase = flat_phase(&ctx);
        // Make one off-stripe node clearly the best downlink.
        let stripe_nodes = ctx.cluster.placement().stripe_nodes(0).to_vec();
        let idle = (0..ctx.cluster.storage_nodes())
            .find(|n| !stripe_nodes.contains(n))
            .unwrap();
        for n in 0..ctx.cluster.storage_nodes() {
            phase.b_down[n] = if n == idle { 1000.0 } else { 10.0 };
        }
        let chunk = chunk(0, 0);
        let a = dispatch_chunk(&ctx, &mut phase, chunk, &[]).unwrap();
        assert_eq!(a.selection.destination, idle);
    }

    #[test]
    fn busy_uplinks_are_avoided_as_relays() {
        let ctx = ctx();
        let mut phase = flat_phase(&ctx);
        // All stripe-0 source nodes have clogged uplinks except none —
        // with uniform slow uplinks downloads should pile at the
        // destination (its downlink is the only cheap resource).
        let stripe_nodes = ctx.cluster.placement().stripe_nodes(0).to_vec();
        for &n in &stripe_nodes {
            phase.b_up[n] = 1.0;
        }
        let chunk = chunk(0, 0);
        let a = dispatch_chunk(&ctx, &mut phase, chunk, &[]).unwrap();
        // No source should have been made a relay: relaying needs an
        // extra upload on a clogged uplink.
        assert_eq!(a.parents, [None; 4], "{a:?}");
    }

    #[test]
    fn counters_accumulate_across_chunks() {
        let ctx = ctx();
        let mut phase = flat_phase(&ctx);
        let a1 = dispatch_chunk(&ctx, &mut phase, chunk(0, 0), &[]).unwrap();
        assert!(phase.t_down[a1.selection.destination] >= 1.0);
        // The second chunk sees the first chunk's load; estimates grow.
        let a2 = dispatch_chunk(&ctx, &mut phase, chunk(1, 0), &[]).unwrap();
        assert!(a2.estimated_secs >= a1.estimated_secs);
    }

    #[test]
    fn forbidden_destination_is_respected() {
        let ctx = ctx();
        let chunk = chunk(0, 0);
        let mut phase = flat_phase(&ctx);
        let first = phase
            .assign(&ctx, chunk, &[])
            .unwrap()
            .selection
            .destination;
        let second = dispatch_chunk(&ctx, &mut phase, chunk, &[first]).unwrap();
        assert_ne!(first, second.selection.destination);
    }

    #[test]
    fn cross_rack_clamp_steers_destination_into_source_rack() {
        use chameleon_cluster::TopologySpec;
        let mut cfg = ClusterConfig::small(6);
        cfg.topology = TopologySpec::Racked {
            racks: 2,
            oversub: 8.0,
        };
        let cluster = Cluster::new(cfg).unwrap();
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let mut phase = flat_phase(&ctx);
        // Wire a two-rack fabric with almost no cross-rack bandwidth left:
        // any transfer that crosses racks is ~100x slower.
        let n = ctx.cluster.storage_nodes();
        phase.rack_of = (0..n).map(|i| (i % 2) as u32).collect();
        phase.cross_up = vec![1.0, 1.0];
        phase.cross_down = vec![1.0, 1.0];
        let chunk = chunk(0, 0);
        let a = dispatch_chunk(&ctx, &mut phase, chunk, &[]).unwrap();
        let source_nodes: Vec<NodeId> = a.selection.sources.iter().map(|s| s.node).collect();
        let src_rack = phase.majority_rack(&source_nodes).unwrap();
        assert_eq!(
            phase.rack(a.selection.destination),
            Some(src_rack),
            "destination should land in the sources' rack when the fabric is scarce"
        );
    }

    #[test]
    fn measure_fills_fabric_residuals_on_racked_cluster() {
        use chameleon_cluster::TopologySpec;
        let mut cfg = ClusterConfig::small(6);
        cfg.topology = TopologySpec::oversub();
        let cluster = Cluster::new(cfg).unwrap();
        let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
        let mut sim = ctx.cluster.build_simulator();
        let phase = PhaseState::measure(&mut sim, &ctx, Resources::Network);
        assert_eq!(phase.rack_of.len(), ctx.cluster.storage_nodes());
        assert_eq!(phase.cross_up.len(), 3);
        // Idle cluster: the residual out of rack 0 is the spine (the
        // scarcer of ToR uplink and the oversubscribed spine).
        let topo = sim.topology().unwrap();
        let spine = topo.link_capacity(topo.spine_link().unwrap());
        let tor = topo.link_capacity(topo.tor_up_link(0));
        assert_eq!(phase.cross_up[0], spine.min(tor));
        // The storage model never touches the fabric.
        let disk = PhaseState::measure(&mut sim, &ctx, Resources::Storage);
        assert!(disk.rack_of.is_empty());
    }

    #[test]
    fn majority_rack_ties_break_low_and_flat_is_none() {
        let ctx = ctx();
        let mut phase = flat_phase(&ctx);
        assert_eq!(phase.majority_rack(&[0, 1, 2]), None);
        phase.rack_of = (0..ctx.cluster.storage_nodes())
            .map(|i| (i % 3) as u32)
            .collect();
        phase.cross_up = vec![50.0; 3];
        phase.cross_down = vec![50.0; 3];
        assert_eq!(phase.majority_rack(&[0, 3, 1, 4, 2]), Some(0));
        assert_eq!(phase.majority_rack(&[1, 4, 2, 5]), Some(1));
        assert_eq!(phase.majority_rack(&[2, 1]), Some(1));
    }

    /// One ledger for every code, resource model and fabric: `cost` prices
    /// exactly what `commit` adds, and releases in any order take away
    /// exactly what was added.
    #[test]
    fn commit_release_and_cost_read_one_ledger() {
        use crate::chameleon::establish_plan;
        use chameleon_cluster::TopologySpec;
        use chameleon_codes::{Butterfly, ErasureCode, Lrc};
        let codes: [Arc<dyn ErasureCode>; 3] = [
            Arc::new(ReedSolomon::new(4, 2).unwrap()),
            Arc::new(Lrc::new(6, 2, 2).unwrap()),
            Arc::new(Butterfly::new()),
        ];
        let fabrics = [
            TopologySpec::Flat,
            TopologySpec::Racked {
                racks: 3,
                oversub: 8.0,
            },
        ];
        for code in codes {
            for topology in fabrics {
                for resources in [Resources::Network, Resources::Storage] {
                    let case = format!("{} {topology:?} {resources:?}", code.name());
                    let mut cfg = ClusterConfig::small(code.n());
                    cfg.topology = topology;
                    let ctx = RepairContext::new(Cluster::new(cfg).unwrap(), code.clone());
                    let chunk_size = ctx.chunk_size() as f64;
                    let idle =
                        PhaseState::measure(&mut ctx.cluster.build_simulator(), &ctx, resources);
                    let mut phase = idle.clone();
                    let mut dispatched = Vec::new();
                    for stripe in 0..8 {
                        let a = phase.assign(&ctx, chunk(stripe, 0), &[]).unwrap();
                        let cost = phase.cost(&a.selection, &a.parents, chunk_size);
                        assert_eq!(cost.to_bits(), a.estimated_secs.to_bits(), "{case}");
                        phase.commit(&a);
                        let plan = establish_plan(&ctx, &a).unwrap();
                        let committed = plan
                            .participants()
                            .iter()
                            .map(|p| p.node)
                            .chain([plan.destination()])
                            .map(|n| {
                                phase
                                    .up_time_to(n, 0.0, chunk_size, None)
                                    .max(phase.down_time_from(n, 0.0, chunk_size, None))
                            })
                            .fold(0.0, f64::max);
                        assert_eq!(
                            cost.to_bits(),
                            committed.to_bits(),
                            "{case} stripe {stripe}"
                        );
                        dispatched.push(a);
                    }
                    // Release all but the last, newest first: what remains
                    // is the last chunk's tasks alone, then nothing.
                    let last = dispatched.pop().unwrap();
                    for a in dispatched.iter().rev() {
                        phase.release(a);
                    }
                    let mut alone = idle.clone();
                    alone.commit(&last);
                    assert_eq!(
                        (&phase.t_up, &phase.t_down),
                        (&alone.t_up, &alone.t_down),
                        "{case}"
                    );
                    phase.release(&last);
                    assert!(
                        phase.t_up.iter().chain(&phase.t_down).all(|&t| t == 0.0),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn measure_uses_floor_for_saturated_links() {
        let ctx = ctx();
        let mut sim = ctx.cluster.build_simulator();
        let phase = PhaseState::measure(&mut sim, &ctx, Resources::Network);
        // Idle cluster: residual equals capacity.
        assert_eq!(phase.b_up[0], sim.capacity(0, ResourceKind::Uplink));
        assert!(phase.t_up.iter().all(|&t| t == 0.0));
    }
}
