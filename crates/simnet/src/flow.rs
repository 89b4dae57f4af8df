//! Flows and timers.

use crate::node::{NodeId, ResourceKind, Traffic};
use crate::topology::Topology;

/// Unique identifier of a flow within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub(crate) u64);

impl core::fmt::Display for FlowId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// Unique identifier of a timer within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

/// How a flow ended.
///
/// Every admitted flow eventually surfaces exactly one
/// [`Event::FlowCompleted`](crate::Event::FlowCompleted); the outcome says
/// whether it delivered its final byte or was killed by a node failure
/// ([`Simulator::fail_node`](crate::Simulator::fail_node)). Drivers that
/// ignore the distinction silently treat partial transfers as complete, so
/// repair logic must branch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowOutcome {
    /// The flow transferred all of its bytes.
    Delivered,
    /// The flow was killed mid-transfer (a node it traversed failed, or it
    /// was started against an already-failed node).
    Aborted,
}

impl FlowOutcome {
    /// `true` for [`FlowOutcome::Delivered`].
    pub fn is_delivered(self) -> bool {
        matches!(self, FlowOutcome::Delivered)
    }
}

impl core::fmt::Display for TimerId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// Maximum number of node resources a [`FlowSpec`] can name.
pub(crate) const MAX_SPEC_CONSTRAINTS: usize = 4;

/// Maximum number of resource cells a single flow can traverse once the
/// engine has compiled it: up to [`MAX_SPEC_CONSTRAINTS`] node cells plus
/// up to three shared link cells (ToR up, ToR down, spine) appended for
/// cross-rack flows under a [`Topology`](crate::Topology).
pub(crate) const MAX_CONSTRAINTS: usize = 8;

/// The node resources a [`FlowSpec`] names, stored inline (at most
/// [`MAX_SPEC_CONSTRAINTS`]) so building and dropping a spec never touches
/// the heap — the engine admits on the order of a million flows per run.
#[derive(Clone, Copy)]
pub(crate) struct Constraints {
    items: [(NodeId, ResourceKind); MAX_SPEC_CONSTRAINTS],
    len: u8,
}

impl Constraints {
    /// Copies `items` inline.
    ///
    /// # Panics
    ///
    /// Panics if `items` is longer than [`MAX_SPEC_CONSTRAINTS`].
    pub(crate) fn from_slice(items: &[(NodeId, ResourceKind)]) -> Self {
        assert!(
            items.len() <= MAX_SPEC_CONSTRAINTS,
            "at most {MAX_SPEC_CONSTRAINTS} constraints fit a flow spec"
        );
        let mut out = Constraints {
            items: [(0, ResourceKind::Uplink); MAX_SPEC_CONSTRAINTS],
            len: items.len() as u8,
        };
        out.items[..items.len()].copy_from_slice(items);
        out
    }

    pub(crate) fn as_slice(&self) -> &[(NodeId, ResourceKind)] {
        &self.items[..self.len as usize]
    }

    /// Drops repeated (node, kind) pairs, keeping each first occurrence in
    /// order.
    pub(crate) fn dedup(&mut self) {
        let mut kept = 0;
        for i in 0..self.len as usize {
            if !self.items[..kept].contains(&self.items[i]) {
                self.items[kept] = self.items[i];
                kept += 1;
            }
        }
        self.len = kept as u8;
    }
}

impl PartialEq for Constraints {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl core::fmt::Debug for Constraints {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Specification of a byte transfer through one or more node resources.
///
/// Use the constructors for the common shapes:
/// [`FlowSpec::network`] (src uplink → dst downlink),
/// [`FlowSpec::disk_read`], [`FlowSpec::disk_write`], or
/// [`FlowSpec::custom`] for anything else (e.g. a read-and-send stage that
/// holds disk-read and uplink simultaneously).
///
/// # Examples
///
/// ```
/// use chameleon_simnet::{FlowSpec, Traffic};
/// let f = FlowSpec::network(0, 3, 64 << 20, Traffic::Repair);
/// assert_eq!(f.bytes(), (64u64 << 20) as f64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    pub(crate) bytes: f64,
    pub(crate) constraints: Constraints,
    pub(crate) tag: Traffic,
    pub(crate) owner: u64,
}

impl FlowSpec {
    fn new(bytes: u64, constraints: &[(NodeId, ResourceKind)], tag: Traffic) -> Self {
        FlowSpec {
            bytes: bytes as f64,
            constraints: Constraints::from_slice(constraints),
            tag,
            owner: 0,
        }
    }

    /// A network transfer from `src` to `dst`, constrained by the source
    /// uplink and destination downlink.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (local copies don't consume the network) or
    /// if `bytes` is negative.
    pub fn network(src: NodeId, dst: NodeId, bytes: u64, tag: Traffic) -> Self {
        assert_ne!(src, dst, "network flow needs distinct endpoints");
        Self::new(
            bytes,
            &[(src, ResourceKind::Uplink), (dst, ResourceKind::Downlink)],
            tag,
        )
    }

    /// A disk read of `bytes` on `node`.
    pub fn disk_read(node: NodeId, bytes: u64, tag: Traffic) -> Self {
        Self::new(bytes, &[(node, ResourceKind::DiskRead)], tag)
    }

    /// A disk write of `bytes` on `node`.
    pub fn disk_write(node: NodeId, bytes: u64, tag: Traffic) -> Self {
        Self::new(bytes, &[(node, ResourceKind::DiskWrite)], tag)
    }

    /// A flow constrained by an arbitrary set of resources (at most
    /// [`MAX_CONSTRAINTS`](crate::FlowSpec::custom) = 4), given as a `Vec`,
    /// an array or a slice; the pairs are copied inline.
    ///
    /// # Panics
    ///
    /// Panics if `constraints` is empty, longer than 4, or contains
    /// duplicates.
    pub fn custom(
        bytes: u64,
        constraints: impl AsRef<[(NodeId, ResourceKind)]>,
        tag: Traffic,
    ) -> Self {
        let constraints = constraints.as_ref();
        assert!(
            !constraints.is_empty() && constraints.len() <= MAX_SPEC_CONSTRAINTS,
            "1..=4 constraints required"
        );
        for (i, a) in constraints.iter().enumerate() {
            assert!(
                constraints[i + 1..].iter().all(|b| b != a),
                "duplicate constraint {a:?}"
            );
        }
        Self::new(bytes, constraints, tag)
    }

    /// Returns the spec carrying `owner`, a caller-chosen routing key the
    /// engine echoes on the flow's [`Event::FlowCompleted`](crate::Event)
    /// (as timers echo their `key`), so a driver finds the state a
    /// completion belongs to without a lookup. The engine never interprets
    /// it; the default is 0.
    pub fn with_owner(mut self, owner: u64) -> Self {
        self.owner = owner;
        self
    }

    /// Total size of the transfer in bytes.
    pub fn bytes(&self) -> f64 {
        self.bytes
    }

    /// The traffic class of the flow.
    pub fn tag(&self) -> Traffic {
        self.tag
    }

    /// The routing key set by [`FlowSpec::with_owner`] (0 if none).
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// The resources this flow traverses.
    pub fn constraints(&self) -> &[(NodeId, ResourceKind)] {
        self.constraints.as_slice()
    }

    /// The (first, last) constraint nodes — (src, dst) for a network flow,
    /// the same node twice for a single-resource disk flow. Used by the
    /// trace layer to label lifecycle events.
    pub(crate) fn endpoints(&self) -> (NodeId, NodeId) {
        let c = self.constraints();
        let first = c.first().map_or(0, |&(n, _)| n);
        let last = c.last().map_or(first, |&(n, _)| n);
        (first, last)
    }
}

/// A live flow inside the engine.
///
/// Per-flow state is immutable after admission: progress and rate live on
/// the flow's *group*, and `target` pins the flow's completion point on
/// the group's cumulative progress counter (the flow finishes when the
/// counter reaches `target`).
#[derive(Debug, Clone)]
pub(crate) struct Flow {
    pub(crate) spec: FlowSpec,
    /// The flow's resource cells — node cells (`node * 4 + kind`)
    /// followed by any shared link cells of a cross-rack transfer —
    /// packed flat at admission so the per-solve hot loops never chase the
    /// `spec` constraint vector.
    pub(crate) cells: [u32; MAX_CONSTRAINTS],
    pub(crate) ncells: u8,
    /// Index of the flow group (distinct resource set) this flow belongs
    /// to; assigned by the engine at admission.
    pub(crate) group: u32,
    /// Value of the group's cumulative progress counter at which this
    /// flow completes (group `done` at admission + flow bytes; immutable).
    pub(crate) target: f64,
}

impl Flow {
    /// Compiles an admitted spec into resource cells: repeated (node,
    /// kind) pairs are dropped (a duplicate would double-count the flow's
    /// load in the solver and double-record its bytes in the monitor),
    /// the node cells are packed, and under a topology a transfer whose
    /// source uplink and destination downlink sit in different racks also
    /// takes the fabric link cells of its path (numbered from
    /// `link_base`). Same-rack and disk-only flows take no link cells.
    pub(crate) fn compile(
        mut spec: FlowSpec,
        topology: Option<&Topology>,
        link_base: usize,
    ) -> Self {
        spec.constraints.dedup();
        let mut cells = [0u32; MAX_CONSTRAINTS];
        for (c, &(node, kind)) in cells.iter_mut().zip(spec.constraints()) {
            *c = (node * 4 + kind.index()) as u32;
        }
        let mut ncells = spec.constraints().len();
        let end = |kind| spec.constraints().iter().find(|c| c.1 == kind).map(|c| c.0);
        if let (Some(topo), Some(src), Some(dst)) = (
            topology,
            end(ResourceKind::Uplink),
            end(ResourceKind::Downlink),
        ) {
            for l in topo.path_links(src, dst) {
                assert!(ncells < MAX_CONSTRAINTS, "flow cell capacity exceeded");
                cells[ncells] = (link_base + l) as u32;
                ncells += 1;
            }
        }
        Flow {
            spec,
            cells,
            ncells: ncells as u8,
            group: u32::MAX,
            target: 0.0,
        }
    }

    /// The packed resource cells this flow traverses.
    pub(crate) fn cells(&self) -> &[u32] {
        &self.cells[..self.ncells as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_flow_has_two_constraints() {
        let f = FlowSpec::network(1, 2, 100, Traffic::Foreground);
        assert_eq!(f.constraints().len(), 2);
        assert_eq!(f.constraints()[0], (1, ResourceKind::Uplink));
        assert_eq!(f.constraints()[1], (2, ResourceKind::Downlink));
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn self_loop_rejected() {
        let _ = FlowSpec::network(3, 3, 1, Traffic::Repair);
    }

    #[test]
    #[should_panic(expected = "duplicate constraint")]
    fn duplicate_constraints_rejected() {
        let _ = FlowSpec::custom(
            1,
            vec![(0, ResourceKind::Uplink), (0, ResourceKind::Uplink)],
            Traffic::Repair,
        );
    }

    #[test]
    fn disk_flows() {
        let r = FlowSpec::disk_read(5, 10, Traffic::Repair);
        assert_eq!(r.constraints(), &[(5, ResourceKind::DiskRead)]);
        let w = FlowSpec::disk_write(5, 10, Traffic::Repair);
        assert_eq!(w.constraints(), &[(5, ResourceKind::DiskWrite)]);
    }
}
