//! Repair task dispatch (§III-A): decompose a chunk's repair into `2k`
//! upload/download tasks and place them on nodes according to residual
//! bandwidth, minimum-estimated-time first.

use chameleon_cluster::ChunkId;
use chameleon_simnet::{NodeId, ResourceKind, Simulator, Traffic};

use crate::baseline::PlanShape;
use crate::context::{RepairContext, Resources};
use crate::select::{repair_candidates, SelectError, Selection, SourcePick};

/// Hard floor on the usable residual bandwidth, as a fraction of
/// capacity, so estimates never divide by zero.
const RESIDUAL_FLOOR: f64 = 0.02;

/// Per-phase task counters and residual-bandwidth estimates for every
/// storage node. Task counts are in *chunk equivalents* (sub-chunk tasks
/// count fractionally), which generalizes the paper's integer counters.
#[derive(Debug, Clone)]
pub struct PhaseState {
    /// Upload tasks assigned this phase, per node.
    pub t_up: Vec<f64>,
    /// Download tasks assigned this phase, per node.
    pub t_down: Vec<f64>,
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
                let topo = topo.clone();
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
            t_up: vec![0.0; nodes],
            t_down: vec![0.0; nodes],
            b_up,
            b_down,
            rack_of,
            cross_up,
            cross_down,
        }
    }

    /// A phase with no outstanding tasks, the given per-node residuals,
    /// and a flat fabric (no cross-rack clamping) — the common shape for
    /// synthetic phases in tests, benchmarks, and the `plan` subcommand.
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

    /// The estimated repair time of a node: the max of its upload and
    /// download completion estimates (the paper's `R_i`).
    pub fn node_time(&self, node: NodeId, chunk_size: f64) -> f64 {
        self.up_time_to(node, 0.0, chunk_size, None)
            .max(self.down_time_from(node, 0.0, chunk_size, None))
    }
}

/// The dispatch result for one chunk: the selection it settled on, the
/// download tasks routed through each source, and the estimated completion
/// time used for phase admission and straggler expectations.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAssignment {
    /// The failed chunk.
    pub chunk: ChunkId,
    /// The chosen destination and sources.
    pub selection: Selection,
    /// Download tasks assigned to each source, index-aligned with
    /// `selection.sources` (0 for pure uploaders; ≥ 1 makes it a relay).
    pub downloads: Vec<f64>,
    /// Estimated seconds for this chunk's repair under the current phase
    /// load (the max `R_i` over all involved nodes).
    pub estimated_secs: f64,
}

impl TaskAssignment {
    /// Download tasks terminating at the destination: every upload (in
    /// chunk equivalents) that no relay receives.
    pub fn dest_downloads(&self) -> f64 {
        let uploads: f64 = self.selection.sources.iter().map(|s| s.fraction).sum();
        uploads - self.downloads.iter().sum::<f64>()
    }

    /// Releases the task counters that dispatching this chunk under
    /// `resources` added (called on completion): every source's upload, the
    /// destination's downloads, and — on the network only, since a relay
    /// transfer touches no disk — the relays' downloads. Values are clamped
    /// at zero, which also handles chunks that outlive the phase they were
    /// dispatched in.
    pub fn release(&self, phase: &mut PhaseState, resources: Resources) {
        let mut take = |node: NodeId, up: f64, down: f64| {
            phase.t_up[node] = (phase.t_up[node] - up).max(0.0);
            phase.t_down[node] = (phase.t_down[node] - down).max(0.0);
        };
        take(self.selection.destination, 0.0, self.dest_downloads());
        for (s, &downloads) in self.selection.sources.iter().zip(&self.downloads) {
            let relayed = if resources == Resources::Network {
                downloads
            } else {
                0.0
            };
            take(s.node, s.fraction, relayed);
        }
    }
}

/// Dispatches the repair tasks for one failed chunk (§III-A), mutating the
/// phase counters. Use a cloned [`PhaseState`] to probe without
/// committing.
///
/// Equivalent to [`dispatch_chunk_for`] with [`Resources::Network`].
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
    dispatch_chunk_for(
        ctx,
        phase,
        chunk,
        forbidden_destinations,
        Resources::Network,
    )
}

/// [`dispatch_chunk`] with an explicit resource model.
///
/// With [`Resources::Storage`] (ChameleonEC-IO, §III-D) the balanced
/// quantities are the *disk read* tasks at the sources and the *disk
/// write* task at the destination; relay transfers consume no storage
/// bandwidth, so the plan's shape is a fixed balanced tree — exactly the
/// read/write task dispatch the paper describes for storage-bottlenecked
/// clusters.
///
/// # Errors
///
/// Same as [`dispatch_chunk`].
pub fn dispatch_chunk_for(
    ctx: &RepairContext,
    phase: &mut PhaseState,
    chunk: ChunkId,
    forbidden_destinations: &[NodeId],
    resources: Resources,
) -> Result<TaskAssignment, SelectError> {
    let chunk_size = ctx.chunk_size() as f64;
    let (requirement, candidates, count) = repair_candidates(ctx, chunk)?;

    // --- Destination: minimum-time-first over off-stripe alive nodes. ---
    // Where the repair traffic will mostly come from: the rack holding the
    // plurality of surviving sources. Destinations outside it pay the
    // cross-fabric clamp, which steers the repair into the sources' rack
    // when the spine is the scarce resource. `None` on a flat fabric.
    let src_rack = if resources == Resources::Network {
        let nodes: Vec<NodeId> = candidates.iter().map(|s| s.node).collect();
        phase.majority_rack(&nodes)
    } else {
        None
    };
    let stripe_nodes = ctx.cluster.placement().stripe_nodes(chunk.stripe);
    let destination = ctx
        .cluster
        .alive_storage_nodes()
        .iter()
        .copied()
        .filter(|n| !stripe_nodes.contains(n) && !forbidden_destinations.contains(n))
        .min_by(|&a, &b| {
            phase
                .down_time_from(a, 1.0, chunk_size, src_rack)
                .total_cmp(&phase.down_time_from(b, 1.0, chunk_size, src_rack))
                .then(a.cmp(&b))
        })
        .ok_or(SelectError::NoDestination)?;

    let relayable = requirement.supports_relaying();
    let (sources, downloads) = if !relayable {
        // Sub-chunk repairs: direct transfers only (no elastic plan).
        for s in &candidates {
            phase.t_up[s.node] += s.fraction;
            phase.t_down[destination] += s.fraction;
        }
        let downloads = vec![0.0; candidates.len()];
        (candidates, downloads)
    } else if resources == Resources::Storage {
        place_disk_tasks(phase, candidates, count, destination, chunk_size)
    } else {
        place_network_tasks(phase, candidates, count, destination, src_rack, chunk_size)
    };
    let estimated_secs = sources
        .iter()
        .map(|s| phase.node_time(s.node, chunk_size))
        .fold(phase.node_time(destination, chunk_size), f64::max);
    Ok(TaskAssignment {
        chunk,
        selection: Selection {
            destination,
            sources,
            relayable,
        },
        downloads,
        estimated_secs,
    })
}

/// ChameleonEC-IO: only reads (sources) and the write (destination)
/// consume storage bandwidth, so pick the `count` sources with the most
/// idle disk-read bandwidth. Without network measurements the transmission
/// topology is fixed: a balanced aggregation tree over them, whose fan-in
/// shapes the plan without touching the disk counters.
fn place_disk_tasks(
    phase: &mut PhaseState,
    candidates: Vec<SourcePick>,
    count: usize,
    destination: NodeId,
    chunk_size: f64,
) -> (Vec<SourcePick>, Vec<f64>) {
    let read_time = |s: &SourcePick| phase.up_time_to(s.node, 1.0, chunk_size, None);
    let mut picks: Vec<usize> = (0..candidates.len()).collect();
    picks.sort_by(|&a, &b| {
        read_time(&candidates[a])
            .total_cmp(&read_time(&candidates[b]))
            .then(a.cmp(&b))
    });
    picks.truncate(count);
    picks.sort_unstable();
    // One disk write at the destination restores the chunk.
    phase.t_down[destination] += 1.0;
    let mut downloads = vec![0.0; count];
    for parent in PlanShape::Tree.parents(count).into_iter().flatten() {
        downloads[parent] += 1.0;
    }
    let mut sources = Vec::with_capacity(count);
    for ci in picks {
        phase.t_up[candidates[ci].node] += 1.0;
        sources.push(candidates[ci]);
    }
    (sources, downloads)
}

/// Places a whole-chunk repair's `count` download and `count` upload tasks
/// on the network, minimum-estimated-time first: each download after the
/// destination's first goes to the destination or makes a source a relay,
/// whichever finishes sooner; then the fastest remaining sources fill the
/// pure-uploader slots.
fn place_network_tasks(
    phase: &mut PhaseState,
    candidates: Vec<SourcePick>,
    count: usize,
    destination: NodeId,
    src_rack: Option<usize>,
    chunk_size: f64,
) -> (Vec<SourcePick>, Vec<f64>) {
    let dest_rack = phase.rack(destination);
    // The destination always takes the first download task.
    phase.t_down[destination] += 1.0;
    // Download tasks routed through this chunk's plan, per candidate.
    let mut downloads = vec![0.0f64; candidates.len()];
    for _ in 1..count {
        // Option A: another download at the destination (arriving from the
        // sources' majority rack).
        let mut best_time = phase
            .up_time_to(destination, 0.0, chunk_size, None)
            .max(phase.down_time_from(destination, 1.0, chunk_size, src_rack));
        let mut best: Option<usize> = None; // None = destination

        // Option B: a download at candidate source i (making it a relay —
        // its merged upload then heads for the destination's rack).
        for (ci, s) in candidates.iter().enumerate() {
            let up_extra = if downloads[ci] == 0.0 { 1.0 } else { 0.0 };
            let t = phase
                .up_time_to(s.node, up_extra, chunk_size, dest_rack)
                .max(phase.down_time_from(s.node, 1.0, chunk_size, src_rack));
            if t < best_time {
                best_time = t;
                best = Some(ci);
            }
        }

        match best {
            None => phase.t_down[destination] += 1.0,
            Some(ci) => {
                let node = candidates[ci].node;
                if downloads[ci] == 0.0 {
                    // Becoming a relay adds the associated upload task.
                    phase.t_up[node] += 1.0;
                }
                phase.t_down[node] += 1.0;
                downloads[ci] += 1.0;
            }
        }
    }

    // Relay sources are fixed; pick the remaining pure uploaders
    // minimum-time-first among candidates without download tasks.
    let relay_count = downloads.iter().filter(|&&d| d > 0.0).count();
    let upload_time = |ci: usize| phase.up_time_to(candidates[ci].node, 1.0, chunk_size, dest_rack);
    let mut pure: Vec<usize> = (0..candidates.len())
        .filter(|&ci| downloads[ci] == 0.0)
        .collect();
    pure.sort_by(|&a, &b| upload_time(a).total_cmp(&upload_time(b)).then(a.cmp(&b)));
    pure.truncate(count - relay_count);
    for &ci in &pure {
        phase.t_up[candidates[ci].node] += 1.0;
    }

    let (sources, downloads): (Vec<SourcePick>, Vec<f64>) = candidates
        .into_iter()
        .zip(downloads)
        .enumerate()
        .filter(|(ci, (_, d))| *d > 0.0 || pure.contains(ci))
        .map(|(_, tasks)| tasks)
        .unzip();
    debug_assert_eq!(sources.len(), count);
    (sources, downloads)
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

    fn flat_phase(ctx: &RepairContext) -> PhaseState {
        let n = ctx.cluster.storage_nodes();
        PhaseState::flat(vec![100.0; n], vec![100.0; n])
    }

    #[test]
    fn dispatch_produces_k_sources_and_valid_counts() {
        let ctx = ctx();
        let mut phase = flat_phase(&ctx);
        let chunk = ChunkId {
            stripe: 0,
            index: 1,
        };
        let a = dispatch_chunk(&ctx, &mut phase, chunk, &[]).unwrap();
        assert_eq!(a.selection.sources.len(), 4);
        assert!(a.selection.relayable);
        assert!(a.dest_downloads() >= 1.0);
        let total_downloads: f64 = a.downloads.iter().sum::<f64>() + a.dest_downloads();
        assert!((total_downloads - 4.0).abs() < 1e-9);
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
        let chunk = ChunkId {
            stripe: 0,
            index: 0,
        };
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
        let chunk = ChunkId {
            stripe: 0,
            index: 0,
        };
        let a = dispatch_chunk(&ctx, &mut phase, chunk, &[]).unwrap();
        // No source should have been made a relay: relaying needs an
        // extra upload on a clogged uplink.
        assert!(a.downloads.iter().all(|&d| d == 0.0), "{a:?}");
        assert!((a.dest_downloads() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn counters_accumulate_across_chunks() {
        let ctx = ctx();
        let mut phase = flat_phase(&ctx);
        let a1 = dispatch_chunk(
            &ctx,
            &mut phase,
            ChunkId {
                stripe: 0,
                index: 0,
            },
            &[],
        )
        .unwrap();
        let before = phase.t_down[a1.selection.destination];
        assert!(before >= 1.0);
        let a2 = dispatch_chunk(
            &ctx,
            &mut phase,
            ChunkId {
                stripe: 1,
                index: 0,
            },
            &[],
        )
        .unwrap();
        // Second chunk sees the first chunk's load; estimates grow.
        assert!(a2.estimated_secs >= a1.estimated_secs);
    }

    #[test]
    fn forbidden_destination_is_respected() {
        let ctx = ctx();
        let chunk = ChunkId {
            stripe: 0,
            index: 0,
        };
        let mut phase = flat_phase(&ctx);
        let first = dispatch_chunk(&ctx, &mut phase.clone(), chunk, &[]).unwrap();
        let first = first.selection.destination;
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
        let chunk = ChunkId {
            stripe: 0,
            index: 0,
        };
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
