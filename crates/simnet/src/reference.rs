//! The oracles the differential tests hold [`Simulator`] and its solver
//! against.
//!
//! [`allocate_rates`] is the textbook progressive-filling solver over
//! weighted flows, which the incremental solver must equal bit for bit, and
//! [`ReferenceSim`] the engine built on it: per-flow `remaining` and
//! `rate`, a solve over every live flow and a linear completion scan at
//! each event. Neither shares state with [`Simulator`] — only the spec
//! compilation (`Flow::compile`) and the [`Monitor`] — so an error in the incremental
//! solver, the group progress counters or the completion heap shows up as
//! a divergence instead of being reproduced.
//!
//! [`Simulator`]: crate::Simulator

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::engine::{Event, SimConfig, EPS_BYTES};
use crate::flow::{Flow, FlowId, FlowOutcome, FlowSpec, TimerId};
use crate::monitor::Monitor;
use crate::time::SimTime;
use crate::topology::Topology;

/// Computes the max–min fair allocation by textbook progressive filling,
/// O(flows × resources) per round.
///
/// `capacities[r]` is the capacity of resource `r`; flow `f` crosses the
/// resources `flows[f]` and stands for `weights[f]` identical members, each
/// of which gets the returned `rates[f]`. Each round finds the bottleneck —
/// the smallest `remaining / load`, ties to the lowest resource id — and
/// freezes its unfrozen flows in ascending order, each subtracting
/// `share × weight` from every resource it crosses. These are the float
/// operations of [`IncrementalSolver`](crate::IncrementalSolver) in its
/// order, so the differential tests compare the two bit for bit.
///
/// # Panics
///
/// Panics if `flows` and `weights` differ in length, or if a flow lists no
/// resources or has zero weight.
///
/// # Examples
///
/// ```
/// use chameleon_simnet::reference::allocate_rates;
/// // One 10-unit link shared by two flows, one of which also crosses a
/// // 2-unit link: the constrained flow gets 2, the other picks up 8.
/// let rates = allocate_rates(&[10.0, 2.0], &[vec![0], vec![0, 1]], &[1, 1]);
/// assert_eq!(rates, vec![8.0, 2.0]);
/// ```
pub fn allocate_rates(capacities: &[f64], flows: &[Vec<usize>], weights: &[u32]) -> Vec<f64> {
    assert_eq!(flows.len(), weights.len(), "one weight per flow");
    let mut rates = vec![0.0f64; flows.len()];
    let mut rem_cap = capacities.to_vec();
    // Total weight of the unfrozen flows crossing each resource.
    let mut load = vec![0u32; capacities.len()];
    for (f, &w) in flows.iter().zip(weights) {
        assert!(!f.is_empty(), "flow must traverse at least one resource");
        assert!(w > 0, "flow must have positive weight");
        for &r in f {
            load[r] += w;
        }
    }
    let mut frozen = vec![false; flows.len()];
    let mut unfrozen = flows.len();

    while unfrozen > 0 {
        // Find the bottleneck: the resource with the smallest equal share.
        let mut best_share = f64::INFINITY;
        let mut best_res = usize::MAX;
        for (r, &l) in load.iter().enumerate() {
            if l > 0 {
                let share = (rem_cap[r] / l as f64).max(0.0);
                if share < best_share {
                    best_share = share;
                    best_res = r;
                }
            }
        }
        debug_assert_ne!(
            best_res,
            usize::MAX,
            "unfrozen flows but no loaded resource"
        );

        // Freeze every unfrozen flow crossing the bottleneck.
        for (f, flow) in flows.iter().enumerate() {
            if frozen[f] || !flow.contains(&best_res) {
                continue;
            }
            frozen[f] = true;
            unfrozen -= 1;
            rates[f] = best_share;
            let consumed = best_share * weights[f] as f64;
            for &r in flow {
                rem_cap[r] = (rem_cap[r] - consumed).max(0.0);
                load[r] -= weights[f];
            }
        }
    }
    rates
}

/// A live flow with the per-flow progress the product engine keeps per
/// group instead.
#[derive(Debug)]
struct Live {
    flow: Flow,
    remaining: f64,
    rate: f64,
}

/// The full-rescan engine: the subset of [`Simulator`](crate::Simulator)'s
/// API the differential tests drive (flows, cancellation, timers, the
/// monitor), implemented the slow, obvious way.
#[derive(Debug)]
pub struct ReferenceSim {
    now: SimTime,
    caps: Vec<f64>,
    topology: Option<Topology>,
    link_base: usize,
    /// Live flows in id order, so the completion scan breaks ties by the
    /// lowest id, as the product engine's heap does.
    flows: BTreeMap<u64, Live>,
    next_flow_id: u64,
    next_timer_id: u64,
    /// Min-heap of (fire time, timer id, key).
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    monitor: Monitor,
}

impl ReferenceSim {
    /// Creates a reference simulator at time zero.
    pub fn new(config: SimConfig) -> Self {
        let links = config.topology.as_ref().map_or(0, |t| t.link_count());
        ReferenceSim {
            now: SimTime::ZERO,
            caps: config.capacities(),
            link_base: config.nodes.len() * 4,
            monitor: Monitor::new(config.nodes.len(), links, config.monitor_window_secs),
            topology: config.topology,
            flows: BTreeMap::new(),
            next_flow_id: 0,
            next_timer_id: 0,
            timers: BinaryHeap::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The windowed bandwidth monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Starts a flow; it begins transferring immediately.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        let flow = Flow::compile(spec, self.topology.as_ref(), self.link_base);
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        let remaining = flow.spec.bytes;
        self.flows.insert(
            id,
            Live {
                flow,
                remaining,
                rate: 0.0,
            },
        );
        FlowId(id)
    }

    /// Cancels a flow, returning the bytes it had left, or `None` if it has
    /// already completed (or never existed).
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<f64> {
        self.flows.remove(&id.0).map(|f| f.remaining)
    }

    /// Schedules a timer to fire `delay_secs` from now.
    pub fn schedule_in(&mut self, delay_secs: f64, key: u64) -> TimerId {
        let id = self.next_timer_id;
        self.next_timer_id += 1;
        let at = self.now + SimTime::from_secs(delay_secs);
        self.timers.push(Reverse((at, id, key)));
        TimerId(id)
    }

    /// Advances to the next event and returns it, or `None` when no flows
    /// or timers remain.
    ///
    /// # Panics
    ///
    /// Panics if active flows can never finish and no timer is pending.
    pub fn next_event(&mut self) -> Option<Event> {
        if self.flows.is_empty() && self.timers.is_empty() {
            return None;
        }
        let cells: Vec<Vec<usize>> = self
            .flows
            .values()
            .map(|f| f.flow.cells().iter().map(|&c| c as usize).collect())
            .collect();
        let rates = allocate_rates(&self.caps, &cells, &vec![1; cells.len()]);
        for (f, rate) in self.flows.values_mut().zip(rates) {
            f.rate = rate;
        }

        let mut flow_done: Option<(SimTime, u64)> = None;
        for (&id, f) in &self.flows {
            let t = if f.remaining <= EPS_BYTES {
                self.now
            } else if f.rate > 0.0 {
                self.now + SimTime::from_secs(f.remaining / f.rate)
            } else {
                continue; // starved flow; cannot finish at current rates
            };
            if flow_done.is_none_or(|(best, _)| t < best) {
                flow_done = Some((t, id));
            }
        }
        let flow_first = match (flow_done, self.timers.peek()) {
            (Some((tf, _)), Some(&Reverse((tt, ..)))) => tf <= tt,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => panic!("simulation stalled: every live flow has zero rate"),
        };

        if flow_first {
            let (t, id) = flow_done.expect("flow event chosen");
            self.advance_to(t);
            let f = self.flows.remove(&id).expect("flow exists").flow;
            Some(Event::FlowCompleted {
                id: FlowId(id),
                tag: f.spec.tag,
                outcome: FlowOutcome::Delivered,
                owner: f.spec.owner,
            })
        } else {
            let Reverse((t, id, key)) = self.timers.pop().expect("timer event chosen");
            self.advance_to(t);
            Some(Event::Timer {
                id: TimerId(id),
                key,
            })
        }
    }

    /// Moves time forward: every flow moves `rate × dt` bytes, recorded
    /// on each of its cells.
    fn advance_to(&mut self, t: SimTime) {
        let dt = (t - self.now).as_secs();
        if dt > 0.0 {
            let (start, end) = (self.now.as_secs(), t.as_secs());
            for f in self.flows.values_mut().filter(|f| f.rate > 0.0) {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
                for &c in f.flow.cells() {
                    self.monitor
                        .record_cell(start, end, f.rate, c as usize, f.flow.spec.tag);
                }
            }
        }
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::allocate_rates;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    /// Every flow a single member.
    fn unit_rates(caps: &[f64], flows: &[Vec<usize>]) -> Vec<f64> {
        allocate_rates(caps, flows, &vec![1; flows.len()])
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = unit_rates(&[5.0], &[vec![0]]);
        assert_close(rates[0], 5.0);
    }

    #[test]
    fn equal_split_on_one_resource() {
        let rates = unit_rates(&[9.0], &[vec![0], vec![0], vec![0]]);
        for r in rates {
            assert_close(r, 3.0);
        }
    }

    #[test]
    fn bottleneck_releases_capacity_to_others() {
        // Flow 0 crosses only the big link; flow 1 crosses both.
        let rates = unit_rates(&[10.0, 2.0], &[vec![0], vec![0, 1]]);
        assert_close(rates[1], 2.0);
        assert_close(rates[0], 8.0);
    }

    #[test]
    fn parking_lot_topology() {
        // Classic max-min example: three links of capacity 1; flow A crosses
        // all three, flows B, C, D each cross one. Fair share: A = 1/2 on its
        // tightest link; B, C, D = 1/2 each on their links.
        let flows = vec![vec![0, 1, 2], vec![0], vec![1], vec![2]];
        let rates = unit_rates(&[1.0, 1.0, 1.0], &flows);
        for r in &rates {
            assert_close(*r, 0.5);
        }
    }

    #[test]
    fn zero_capacity_resource_starves_flows() {
        let rates = unit_rates(&[0.0, 10.0], &[vec![0], vec![1]]);
        assert_close(rates[0], 0.0);
        assert_close(rates[1], 10.0);
    }

    #[test]
    fn allocation_is_feasible_and_pareto_efficient() {
        // Random-ish configuration: verify (1) no resource over capacity,
        // (2) every flow is bottlenecked somewhere (can't be raised alone).
        let caps = [4.0, 7.0, 3.0, 5.0];
        let flows = vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![1],
            vec![3],
        ];
        let rates = unit_rates(&caps, &flows);
        let mut used = [0.0f64; 4];
        for (f, flow) in flows.iter().enumerate() {
            for &r in flow {
                used[r] += rates[f];
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            assert!(*u <= c + 1e-9, "over capacity: {u} > {c}");
        }
        // Pareto: each flow crosses at least one saturated resource.
        for flow in &flows {
            assert!(
                flow.iter().any(|&r| used[r] >= caps[r] - 1e-9),
                "flow {flow:?} not bottlenecked"
            );
        }
    }

    #[test]
    fn empty_input() {
        assert!(unit_rates(&[1.0], &[]).is_empty());
    }

    #[test]
    fn weighted_groups_match_expanded_flows() {
        // 3 identical flows on link 0 + 2 identical flows on links 0 and 1,
        // expressed as two weighted groups vs five unit flows.
        let caps = [10.0, 3.0];
        let expanded = unit_rates(&caps, &[vec![0], vec![0], vec![0], vec![0, 1], vec![0, 1]]);
        let grouped = allocate_rates(&caps, &[vec![0], vec![0, 1]], &[3, 2]);
        assert_close(grouped[0], expanded[0]);
        assert_close(grouped[1], expanded[3]);
        // Within a group the expanded flows all agree exactly.
        assert_eq!(expanded[0], expanded[1]);
        assert_eq!(expanded[3], expanded[4]);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_group_rejected() {
        allocate_rates(&[1.0], &[vec![0]], &[0]);
    }
}
