//! Hierarchical rack/spine fabric topologies.
//!
//! A [`Topology`] groups nodes into racks joined by per-rack ToR (top of
//! rack) up/down links and an optional shared spine whose capacity may be
//! *oversubscribed* relative to the sum of ToR uplinks — the warehouse
//! fabric shape whose aggregation layer carries >85% of repair traffic in
//! the Facebook analysis the paper builds on. The engine compiles the
//! topology into **shared link resources** appended after the per-node
//! cells in the max–min solver's constraint rows: a cross-rack flow is
//! additionally constrained by its source rack's ToR uplink, the spine
//! (when present), and its destination rack's ToR downlink. Same-rack
//! flows take no link cells at all, so a topology whose links never bind
//! (one rack, or non-blocking everywhere) is byte-identical to the
//! rackless engine.
//!
//! Link resource ids, in the engine's capacity vector after the
//! `nodes × 4` node cells:
//!
//! - rack `r` ToR uplink: `2 r`
//! - rack `r` ToR downlink: `2 r + 1`
//! - spine (if any): `2 × racks`

/// The rack/spine fabric joining the simulator's nodes.
///
/// # Examples
///
/// ```
/// use chameleon_simnet::Topology;
/// // 6 nodes round-robined over 3 racks, 100 B/s ToR links, 1:4
/// // oversubscribed 75 B/s spine.
/// let t = Topology::round_robin(6, 3, 100.0, 100.0, Some(75.0));
/// assert_eq!(t.rack_count(), 3);
/// assert_eq!(t.rack_of(4), 1);
/// assert!(t.same_rack(0, 3));
/// assert_eq!(t.link_count(), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Rack of each node.
    rack_of: Vec<u32>,
    racks: usize,
    /// Per-rack ToR uplink capacity (rack → spine), bytes/s.
    tor_up: Vec<f64>,
    /// Per-rack ToR downlink capacity (spine → rack), bytes/s.
    tor_down: Vec<f64>,
    /// Aggregate spine capacity, bytes/s; `None` models a non-blocking
    /// core (cross-rack flows are then constrained by ToR links only).
    spine: Option<f64>,
}

impl Topology {
    /// Builds a topology from an explicit node → rack map and per-rack
    /// ToR capacities.
    ///
    /// # Panics
    ///
    /// Panics if `rack_of` is empty, references a rack out of range, any
    /// capacity is negative or non-finite, or the ToR capacity vectors
    /// disagree with the rack count.
    pub fn new(
        rack_of: Vec<u32>,
        tor_up: Vec<f64>,
        tor_down: Vec<f64>,
        spine: Option<f64>,
    ) -> Self {
        assert!(!rack_of.is_empty(), "topology needs at least one node");
        let racks = tor_up.len();
        assert_eq!(tor_down.len(), racks, "one ToR down capacity per rack");
        assert!(racks > 0, "topology needs at least one rack");
        for &r in &rack_of {
            assert!((r as usize) < racks, "node assigned to rack {r} of {racks}");
        }
        for c in tor_up.iter().chain(&tor_down).chain(spine.iter()) {
            assert!(
                c.is_finite() && *c >= 0.0,
                "link capacities must be finite and non-negative"
            );
        }
        Topology {
            rack_of,
            racks,
            tor_up,
            tor_down,
            spine,
        }
    }

    /// `nodes` nodes assigned round-robin (`node % racks`) over `racks`
    /// racks, with uniform ToR capacities and an optional spine.
    ///
    /// # Panics
    ///
    /// As for [`Topology::new`].
    pub fn round_robin(
        nodes: usize,
        racks: usize,
        tor_up: f64,
        tor_down: f64,
        spine: Option<f64>,
    ) -> Self {
        assert!(racks > 0, "topology needs at least one rack");
        Topology::new(
            (0..nodes).map(|n| (n % racks) as u32).collect(),
            vec![tor_up; racks],
            vec![tor_down; racks],
            spine,
        )
    }

    /// Number of nodes the topology describes.
    pub fn node_count(&self) -> usize {
        self.rack_of.len()
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.racks
    }

    /// The rack a node belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rack_of(&self, node: usize) -> usize {
        self.rack_of[node] as usize
    }

    /// Whether two nodes share a rack.
    pub fn same_rack(&self, a: usize, b: usize) -> bool {
        self.rack_of[a] == self.rack_of[b]
    }

    /// Number of shared link resources the topology compiles to:
    /// two per rack plus the spine when present.
    pub fn link_count(&self) -> usize {
        2 * self.racks + usize::from(self.spine.is_some())
    }

    /// Link index of rack `r`'s ToR uplink.
    pub fn tor_up_link(&self, rack: usize) -> usize {
        debug_assert!(rack < self.racks);
        2 * rack
    }

    /// Link index of rack `r`'s ToR downlink.
    pub fn tor_down_link(&self, rack: usize) -> usize {
        debug_assert!(rack < self.racks);
        2 * rack + 1
    }

    /// Link index of the spine, if the topology has one.
    pub fn spine_link(&self) -> Option<usize> {
        self.spine.map(|_| 2 * self.racks)
    }

    /// Capacity of one link resource, in bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_capacity(&self, link: usize) -> f64 {
        if link < 2 * self.racks {
            if link.is_multiple_of(2) {
                self.tor_up[link / 2]
            } else {
                self.tor_down[link / 2]
            }
        } else {
            assert_eq!(link, 2 * self.racks, "link {link} out of range");
            self.spine.expect("spine link exists")
        }
    }

    /// The link resources a `src → dst` transfer crosses: empty for
    /// same-rack pairs, `[tor_up(src), tor_down(dst)]` plus the spine (in
    /// that order, spine last) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn path_links(&self, src: usize, dst: usize) -> impl Iterator<Item = usize> {
        let (rs, rd) = (self.rack_of(src), self.rack_of(dst));
        let cross = rs != rd;
        let spine = self.spine_link();
        [
            cross.then_some(self.tor_up_link(rs)),
            cross.then_some(self.tor_down_link(rd)),
            if cross { spine } else { None },
        ]
        .into_iter()
        .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_assignment_and_link_ids() {
        let t = Topology::round_robin(10, 3, 200.0, 300.0, Some(150.0));
        assert_eq!(t.node_count(), 10);
        assert_eq!(t.rack_count(), 3);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(5), 2);
        assert!(t.same_rack(1, 4));
        assert!(!t.same_rack(1, 5));
        assert_eq!(t.link_count(), 7);
        assert_eq!(t.tor_up_link(2), 4);
        assert_eq!(t.tor_down_link(2), 5);
        assert_eq!(t.spine_link(), Some(6));
        assert_eq!(t.link_capacity(4), 200.0);
        assert_eq!(t.link_capacity(5), 300.0);
        assert_eq!(t.link_capacity(6), 150.0);
    }

    #[test]
    fn spineless_topology_has_no_spine_link() {
        let t = Topology::round_robin(4, 2, 100.0, 100.0, None);
        assert_eq!(t.link_count(), 4);
        assert_eq!(t.spine_link(), None);
        let links: Vec<usize> = t.path_links(0, 1).collect();
        assert_eq!(links, vec![0, 3], "tor_up[0] then tor_down[1]");
    }

    #[test]
    fn same_rack_paths_are_linkless() {
        let t = Topology::round_robin(6, 3, 100.0, 100.0, Some(50.0));
        assert_eq!(t.path_links(0, 3).count(), 0);
        let links: Vec<usize> = t.path_links(0, 1).collect();
        assert_eq!(links, vec![0, 3, 6], "tor_up, tor_down, spine");
    }

    #[test]
    #[should_panic(expected = "assigned to rack")]
    fn out_of_range_rack_rejected() {
        let _ = Topology::new(vec![0, 3], vec![1.0, 1.0], vec![1.0, 1.0], None);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_capacity_rejected() {
        let _ = Topology::new(vec![0], vec![f64::NAN], vec![1.0], None);
    }
}
