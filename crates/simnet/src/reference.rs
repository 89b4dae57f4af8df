//! The full-rescan oracle the differential tests hold [`Simulator`]
//! against.
//!
//! [`allocate_rates`] is the textbook progressive-filling solver, and
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

/// Computes the max–min fair allocation exactly like
/// [`allocate_rates`](crate::allocate_rates), with the pre-index
/// full-rescan algorithm: O(flows × resources) per round.
///
/// # Panics
///
/// Panics if a flow lists no resources.
pub fn allocate_rates(capacities: &[f64], flows: &[Vec<usize>]) -> Vec<f64> {
    let mut rates = vec![0.0f64; flows.len()];
    if flows.is_empty() {
        return rates;
    }
    let mut rem_cap = capacities.to_vec();
    // Number of unfrozen flows crossing each resource.
    let mut load = vec![0usize; capacities.len()];
    for f in flows {
        assert!(!f.is_empty(), "flow must traverse at least one resource");
        for &r in f {
            debug_assert!(r < capacities.len(), "resource index out of range");
            load[r] += 1;
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
            for &r in flow {
                rem_cap[r] = (rem_cap[r] - best_share).max(0.0);
                load[r] -= 1;
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
        let rates = allocate_rates(&self.caps, &cells);
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
