//! Deterministic fault injection: seeded schedules of node crashes,
//! recoveries, transient slowdowns, and disk degradation.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultSpec`]s — either written
//! out explicitly, parsed from a CLI string ([`FaultPlan::parse_list`]), or
//! generated from a seed ([`FaultPlan::seeded_crashes`],
//! [`FaultPlan::seeded_poisson`]). [`FaultPlan::inject`] arms the plan on
//! a simulator: every fault becomes a timer on the engine's timer wheel (a
//! scale window a second one, for its end). The returned [`FaultInjector`]
//! stores only the specs it armed, which spec each timer fires, and the
//! spec indices of the windows open per node and kind; everything else it
//! reads off the spec. It is fed each event from the run loop *before* the
//! repair/foreground drivers. When one of its timers fires it
//! applies the fault atomically ([`Simulator::fail_node`],
//! [`Simulator::recover_node`], [`Simulator::scale_node_caps`]) and
//! reports a [`FaultEvent`] the loop can forward to subscribers (the
//! repair drivers' failure hooks).
//!
//! Everything is virtual-time and seeded, so a fault schedule derived from
//! an experiment's `RunSpec` replays byte-identically at any worker count.
//!
//! # Examples
//!
//! ```
//! use chameleon_simnet::{
//!     Event, FaultPlan, FaultSpec, FlowSpec, NodeCaps, SimConfig, Simulator, Traffic,
//! };
//!
//! let mut sim = Simulator::new(SimConfig::uniform(3, NodeCaps::symmetric(100.0, 50.0)));
//! let plan = FaultPlan::new(vec![FaultSpec::Crash { node: 1, at_secs: 1.0 }]);
//! let mut injector = plan.inject(&mut sim);
//! sim.start_flow(FlowSpec::network(0, 1, 1_000, Traffic::Repair));
//! let mut crashes = 0;
//! while let Some(ev) = sim.next_event() {
//!     if let Some(fault) = injector.on_event(&mut sim, &ev) {
//!         crashes += 1;
//!         assert_eq!(fault.node(), 1);
//!     }
//! }
//! assert_eq!(crashes, 1);
//! assert!(sim.is_node_failed(1));
//! ```

use std::collections::HashMap;

use crate::engine::{Event, Simulator};
use crate::flow::TimerId;
use crate::idmap::IdMap;
use crate::node::NodeId;

/// Dispatch key carried by every fault timer: fault firings are
/// recognizable in event logs, and the injector turns away a timer with
/// any other key before looking its id up (a key match alone claims
/// nothing — the id still decides).
pub const FAULT_TIMER_KEY: u64 = 0xFA17;

/// One scheduled fault.
///
/// Times are absolute simulation seconds; scale factors are relative to
/// the node's *configured* capacities (they do not compound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The node crashes at `at_secs`: every flow it carries is killed
    /// (surfacing as [`FlowOutcome::Aborted`](crate::FlowOutcome) events)
    /// and new flows through it abort on admission until it recovers.
    Crash {
        /// The crashing node.
        node: NodeId,
        /// Crash time, in seconds.
        at_secs: f64,
    },
    /// The node recovers at `at_secs` (flows killed by the crash stay
    /// dead; restarting work is the drivers' job).
    Recover {
        /// The recovering node.
        node: NodeId,
        /// Recovery time, in seconds.
        at_secs: f64,
    },
    /// Transient network slowdown: the node's uplink/downlink capacities
    /// are scaled by `factor` during `[at_secs, at_secs + duration_secs)`,
    /// then restored — the generalization of Exp#11's ad-hoc "hog" flows.
    Slowdown {
        /// The straggling node.
        node: NodeId,
        /// Slowdown onset, in seconds.
        at_secs: f64,
        /// Network capacity multiplier in `(0, ∞)`; `0.25` models a 4×
        /// slowdown.
        factor: f64,
        /// How long the slowdown lasts, in seconds.
        duration_secs: f64,
    },
    /// Disk degradation: the node's disk read/write capacities are scaled
    /// by `factor` for `duration_secs`, then restored.
    DiskDegrade {
        /// The degraded node.
        node: NodeId,
        /// Degradation onset, in seconds.
        at_secs: f64,
        /// Disk capacity multiplier in `(0, ∞)`.
        factor: f64,
        /// How long the degradation lasts, in seconds.
        duration_secs: f64,
    },
}

impl FaultSpec {
    /// The node the fault strikes.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultSpec::Crash { node, .. }
            | FaultSpec::Recover { node, .. }
            | FaultSpec::Slowdown { node, .. }
            | FaultSpec::DiskDegrade { node, .. } => node,
        }
    }

    /// When the fault strikes, in seconds.
    pub fn at_secs(&self) -> f64 {
        match *self {
            FaultSpec::Crash { at_secs, .. }
            | FaultSpec::Recover { at_secs, .. }
            | FaultSpec::Slowdown { at_secs, .. }
            | FaultSpec::DiskDegrade { at_secs, .. } => at_secs,
        }
    }

    /// A scale window's `(factor, duration_secs)`; `None` for crashes and
    /// recoveries.
    pub fn window(&self) -> Option<(f64, f64)> {
        match *self {
            FaultSpec::Slowdown {
                factor,
                duration_secs,
                ..
            }
            | FaultSpec::DiskDegrade {
                factor,
                duration_secs,
                ..
            } => Some((factor, duration_secs)),
            FaultSpec::Crash { .. } | FaultSpec::Recover { .. } => None,
        }
    }

    /// Why the spec cannot be armed, if it cannot: its time is not finite
    /// and non-negative, or it is a window whose factor is not positive
    /// and finite or that does not end at a finite time after it starts.
    fn check(&self) -> Result<(), &'static str> {
        let at = self.at_secs();
        if !at.is_finite() || at < 0.0 {
            return Err("fault time must be finite and non-negative");
        }
        match self.window() {
            Some((factor, _)) if !factor.is_finite() || factor <= 0.0 => {
                Err("scale factor must be positive and finite")
            }
            Some((_, duration)) if duration <= 0.0 || !(at + duration).is_finite() => {
                Err("fault duration must be positive and finite")
            }
            _ => Ok(()),
        }
    }

    /// Parses one fault from its CLI form:
    ///
    /// - `crash:NODE@T` — crash node `NODE` at `T` seconds,
    /// - `recover:NODE@T` — recover it at `T`,
    /// - `slow:NODE@T` `xF+D` — scale network capacity by `F` for `D`
    ///   seconds starting at `T` (e.g. `slow:5@2x0.25+10`),
    /// - `disk:NODE@T` `xF+D` — same for disk capacity.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input, and on any
    /// spec [`FaultPlan::new`] would reject (a bare `f64` parse accepts
    /// `NaN`, `inf` and negative numbers; they fail the same check here).
    pub fn parse(s: &str) -> Result<Self, String> {
        let bad =
            || format!("bad fault spec '{s}' (expected e.g. crash:3@1.5 or slow:5@2x0.25+10)");
        let (kind, rest) = s.split_once(':').ok_or_else(bad)?;
        let (node, timing) = rest.split_once('@').ok_or_else(bad)?;
        let node: NodeId = node.parse().map_err(|_| bad())?;
        let num = |v: &str| v.parse::<f64>().map_err(|_| bad());
        let spec = match kind {
            "crash" => FaultSpec::Crash {
                node,
                at_secs: num(timing)?,
            },
            "recover" => FaultSpec::Recover {
                node,
                at_secs: num(timing)?,
            },
            "slow" | "disk" => {
                let (at, mods) = timing.split_once('x').ok_or_else(bad)?;
                let (factor, duration) = mods.split_once('+').ok_or_else(bad)?;
                let (at_secs, factor, duration_secs) = (num(at)?, num(factor)?, num(duration)?);
                if kind == "slow" {
                    FaultSpec::Slowdown {
                        node,
                        at_secs,
                        factor,
                        duration_secs,
                    }
                } else {
                    FaultSpec::DiskDegrade {
                        node,
                        at_secs,
                        factor,
                        duration_secs,
                    }
                }
            }
            _ => return Err(bad()),
        };
        spec.check()
            .map_err(|e| format!("bad fault spec '{s}': {e}"))?;
        Ok(spec)
    }
}

/// What a fired fault did, reported by [`FaultInjector::on_event`] so the
/// run loop can notify subscribers (e.g. repair drivers re-planning around
/// a crash).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A node crashed.
    Crash {
        /// The crashed node.
        node: NodeId,
    },
    /// A node recovered.
    Recover {
        /// The recovered node.
        node: NodeId,
    },
    /// A network slowdown began.
    SlowdownStart {
        /// The straggling node.
        node: NodeId,
        /// The applied network capacity factor.
        factor: f64,
    },
    /// A network slowdown ended.
    SlowdownEnd {
        /// The recovered node.
        node: NodeId,
    },
    /// Disk degradation began.
    DiskDegradeStart {
        /// The degraded node.
        node: NodeId,
        /// The applied disk capacity factor.
        factor: f64,
    },
    /// Disk degradation ended.
    DiskDegradeEnd {
        /// The recovered node.
        node: NodeId,
    },
}

impl FaultEvent {
    /// The node the fault struck.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultEvent::Crash { node }
            | FaultEvent::Recover { node }
            | FaultEvent::SlowdownStart { node, .. }
            | FaultEvent::SlowdownEnd { node }
            | FaultEvent::DiskDegradeStart { node, .. }
            | FaultEvent::DiskDegradeEnd { node } => node,
        }
    }
}

/// A deterministic schedule of faults, ordered by fire time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

/// The splitmix64 step: advances `state` by the golden gamma and returns
/// the finalized draw. The workspace's one seed-mixing primitive: fault
/// plans, retry jitter, client seeds and synthetic coding bytes all draw
/// from it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a 64-bit draw to `[0, 1)`.
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// Builds a plan from explicit specs, sorted by (time, node) so
    /// injection order — and therefore every downstream event — is
    /// independent of the caller's list order.
    ///
    /// # Panics
    ///
    /// Panics if any spec has a non-finite/negative time, a non-positive
    /// scale factor, or a non-positive duration or non-finite end.
    pub fn new(mut specs: Vec<FaultSpec>) -> Self {
        for s in &specs {
            s.check().unwrap_or_else(|e| panic!("{e}"));
        }
        specs.sort_by(|a, b| {
            a.at_secs()
                .total_cmp(&b.at_secs())
                .then(a.node().cmp(&b.node()))
        });
        FaultPlan { specs }
    }

    /// The empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The scheduled faults, in fire order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Time of the first scheduled crash, if any — the start of the
    /// data-loss window in fault experiments.
    pub fn first_crash_secs(&self) -> Option<f64> {
        self.specs
            .iter()
            .filter_map(|s| match s {
                FaultSpec::Crash { at_secs, .. } => Some(*at_secs),
                _ => None,
            })
            .min_by(f64::total_cmp)
    }

    /// Generates `count` crashes of distinct nodes drawn from
    /// `candidates`, at seeded-uniform times in `[window.0, window.1)`;
    /// each crashed node recovers `recover_after` seconds later when that
    /// is `Some`. Fully determined by `(seed, candidates, count, window,
    /// recover_after)`.
    ///
    /// # Panics
    ///
    /// Panics if `count > candidates.len()` or the window is not an
    /// ordered pair of finite, non-negative times.
    pub fn seeded_crashes(
        seed: u64,
        candidates: &[NodeId],
        count: usize,
        window: (f64, f64),
        recover_after: Option<f64>,
    ) -> Self {
        assert!(
            count <= candidates.len(),
            "cannot draw {count} distinct nodes from {} candidates",
            candidates.len()
        );
        assert!(
            window.0.is_finite() && window.1.is_finite() && 0.0 <= window.0 && window.0 <= window.1,
            "bad fault window {window:?}"
        );
        let mut state = seed ^ 0xFA17_FA17_FA17_FA17;
        // Seeded Fisher–Yates over a copy of the candidates.
        let mut pool: Vec<NodeId> = candidates.to_vec();
        let mut specs = Vec::with_capacity(count * 2);
        for _ in 0..count {
            let i = (splitmix64(&mut state) % pool.len() as u64) as usize;
            let node = pool.swap_remove(i);
            let at_secs = window.0 + unit(splitmix64(&mut state)) * (window.1 - window.0);
            specs.push(FaultSpec::Crash { node, at_secs });
            if let Some(after) = recover_after {
                specs.push(FaultSpec::Recover {
                    node,
                    at_secs: at_secs + after,
                });
            }
        }
        FaultPlan::new(specs)
    }

    /// Generates a continuous crash stream: node lifetimes are i.i.d.
    /// exponential with mean `mttf_secs`, so crashes among the *currently
    /// up* nodes form a Poisson process of rate `up_count / mttf_secs`
    /// (superposition of per-node clocks). Each crash strikes a
    /// seeded-uniform victim among the up nodes; with `recover_after =
    /// Some(r)` the victim rejoins the pool `r` seconds later (repairing
    /// its data is the orchestrator's job — the generator only models
    /// node availability). Without recovery the pool drains and the
    /// stream stops once every candidate is down.
    ///
    /// Generation is event-driven over `[window.0, window.1)`: after every
    /// pool change the next interarrival is redrawn at the new aggregate
    /// rate, which is distribution-preserving because the exponential is
    /// memoryless. Fully determined by the arguments.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty, `mttf_secs` is not positive and
    /// finite, or the window is not an ordered pair of finite,
    /// non-negative times.
    pub fn seeded_poisson(
        seed: u64,
        candidates: &[NodeId],
        mttf_secs: f64,
        window: (f64, f64),
        recover_after: Option<f64>,
    ) -> Self {
        assert!(
            !candidates.is_empty(),
            "poisson stream needs at least one candidate node"
        );
        assert!(
            mttf_secs.is_finite() && mttf_secs > 0.0,
            "mttf must be positive and finite"
        );
        assert!(
            window.0.is_finite() && window.1.is_finite() && 0.0 <= window.0 && window.0 <= window.1,
            "bad fault window {window:?}"
        );
        if let Some(after) = recover_after {
            assert!(
                after.is_finite() && after > 0.0,
                "recover_after must be positive and finite"
            );
        }
        let mut state = seed ^ 0xFA17_FA17_FA17_FA17;
        // Sorted up-pool: candidate order must not leak into the stream.
        let mut up: Vec<NodeId> = candidates.to_vec();
        up.sort_unstable();
        up.dedup();
        // Pending recoveries, ascending by (time, node).
        let mut pending: Vec<(f64, NodeId)> = Vec::new();
        let mut specs = Vec::new();
        let mut t = window.0;
        loop {
            // The next crash, drawn at the up nodes' aggregate rate — never,
            // while every node is down.
            let t_next = if up.is_empty() {
                f64::INFINITY
            } else {
                let rate = up.len() as f64 / mttf_secs;
                let dt = -(1.0 - unit(splitmix64(&mut state))).ln() / rate;
                t + dt
            };
            // A recovery inside the window and before that crash changes
            // the aggregate rate; advance to it and redraw (valid by
            // memorylessness).
            let rejoin = pending
                .first()
                .filter(|&&(rt, _)| rt <= t_next && rt < window.1);
            if let Some(&(rt, node)) = rejoin {
                t = rt;
                pending.remove(0);
                let pos = up.partition_point(|&n| n < node);
                up.insert(pos, node);
                continue;
            }
            if t_next >= window.1 {
                break;
            }
            t = t_next;
            let i = (splitmix64(&mut state) % up.len() as u64) as usize;
            let node = up.remove(i);
            specs.push(FaultSpec::Crash { node, at_secs: t });
            if let Some(after) = recover_after {
                let rt = t + after;
                specs.push(FaultSpec::Recover { node, at_secs: rt });
                let pos = pending.partition_point(|&(pt, pn)| (pt, pn) < (rt, node));
                pending.insert(pos, (rt, node));
            }
        }
        FaultPlan::new(specs)
    }

    /// Parses a comma-separated list of [`FaultSpec::parse`] forms, e.g.
    /// `crash:3@1.5,slow:5@2x0.25+10,recover:3@20`.
    ///
    /// # Errors
    ///
    /// Returns the first malformed entry's error message.
    pub fn parse_list(s: &str) -> Result<Self, String> {
        let specs = s
            .split(',')
            .filter(|p| !p.trim().is_empty())
            .map(|p| FaultSpec::parse(p.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan::new(specs))
    }

    /// Arms the plan on a simulator: every fault becomes a timer on the
    /// engine's wheel (scale faults get a second timer restoring the
    /// capacity). Feed the returned injector every event from the run
    /// loop, before the drivers.
    ///
    /// # Panics
    ///
    /// Panics here, before any timer is armed, if a spec names a node the
    /// simulator does not have — not minutes of simulated time later, when
    /// that fault would fire. Input paths that take specs from a user
    /// (`--faults`) validate against the cluster first and return an error.
    pub fn inject(&self, sim: &mut Simulator) -> FaultInjector {
        for spec in &self.specs {
            assert!(
                spec.node() < sim.node_count(),
                "fault {spec:?} names node {}, but the simulator has nodes 0..{}",
                spec.node(),
                sim.node_count()
            );
        }
        let mut by_timer = IdMap::default();
        for (i, spec) in self.specs.iter().enumerate() {
            by_timer.insert(sim.schedule_in(spec.at_secs(), FAULT_TIMER_KEY), (i, false));
            if let Some((_, duration)) = spec.window() {
                let end = sim.schedule_in(spec.at_secs() + duration, FAULT_TIMER_KEY);
                by_timer.insert(end, (i, true));
            }
        }
        FaultInjector {
            specs: self.specs.clone(),
            by_timer,
            windows: HashMap::new(),
            applied: Vec::new(),
        }
    }
}

/// An armed [`FaultPlan`]: its specs, which timer fires which of them,
/// and the scale windows open on each node. Network and disk faults on
/// one node compose (they throttle different capacity families);
/// overlapping *same-kind* windows do not compound — the most recently
/// started window's factor wins, and when it ends the node falls back to
/// the next still-open window (or the configured capacities once none
/// remain).
#[derive(Debug)]
pub struct FaultInjector {
    specs: Vec<FaultSpec>,
    /// Armed timer → (index of its spec in `specs`, whether it ends the
    /// spec's window). A window's id is its spec's index.
    by_timer: IdMap<TimerId, (usize, bool)>,
    /// Open windows per (node, throttles the disk), in start order as
    /// (window id, factor): the last one's factor is in force, and an
    /// absent entry means 1.0.
    windows: HashMap<(NodeId, bool), Vec<(usize, f64)>>,
    /// Every fault applied so far, in fire order.
    applied: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Handles one simulation event. If it is one of this injector's fault
    /// timers, the fault is applied to the simulator and reported;
    /// otherwise `None` (the event belongs to someone else). Call this
    /// before handing the event to the drivers, and forward the returned
    /// [`FaultEvent`] to any subscriber that re-plans around faults.
    pub fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> Option<FaultEvent> {
        // Every fault timer carries `FAULT_TIMER_KEY`, so foreign timers
        // (one per foreground request) are turned away without a lookup.
        let Event::Timer {
            id,
            key: FAULT_TIMER_KEY,
        } = event
        else {
            return None;
        };
        let (window, ends) = self.by_timer.remove(id)?;
        let spec = self.specs[window];
        let node = spec.node();
        let fault = match spec {
            FaultSpec::Crash { .. } => {
                sim.fail_node(node);
                FaultEvent::Crash { node }
            }
            FaultSpec::Recover { .. } => {
                sim.recover_node(node);
                // A node recovering inside an open scale window must come
                // back at the *scaled* capacities, not the configured ones —
                // re-assert the factors in force rather than trusting
                // whatever the capacities drifted to while the node was down.
                if self.windows.contains_key(&(node, false))
                    || self.windows.contains_key(&(node, true))
                {
                    self.rescale(sim, node);
                }
                FaultEvent::Recover { node }
            }
            FaultSpec::Slowdown { factor, .. } | FaultSpec::DiskDegrade { factor, .. } => {
                let disk = matches!(spec, FaultSpec::DiskDegrade { .. });
                let open = self.windows.entry((node, disk)).or_default();
                if ends {
                    open.retain(|&(w, _)| w != window);
                } else {
                    open.push((window, factor));
                }
                // The factor now in force: the new window's at a start; at an
                // end, an earlier same-kind window's if one is still open —
                // the node is not back to full speed then, and straggler-aware
                // drivers must keep the right picture.
                let in_force = open.last().map(|&(_, f)| f);
                if in_force.is_none() {
                    self.windows.remove(&(node, disk));
                }
                self.rescale(sim, node);
                match (disk, in_force) {
                    (false, Some(factor)) => FaultEvent::SlowdownStart { node, factor },
                    (false, None) => FaultEvent::SlowdownEnd { node },
                    (true, Some(factor)) => FaultEvent::DiskDegradeStart { node, factor },
                    (true, None) => FaultEvent::DiskDegradeEnd { node },
                }
            }
        };
        self.applied.push(fault);
        Some(fault)
    }

    fn rescale(&self, sim: &mut Simulator, node: NodeId) {
        let factor = |disk| {
            let open = self.windows.get(&(node, disk));
            open.and_then(|o| o.last()).map_or(1.0, |&(_, f)| f)
        };
        sim.scale_node_caps(node, factor(false), factor(true));
    }

    /// Faults applied so far, in fire order.
    pub fn applied(&self) -> &[FaultEvent] {
        &self.applied
    }

    /// Number of armed faults that have not fired yet.
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.by_timer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::flow::{FlowOutcome, FlowSpec};
    use crate::node::{NodeCaps, ResourceKind, Traffic};

    fn sim(nodes: usize) -> Simulator {
        Simulator::new(SimConfig::uniform(nodes, NodeCaps::symmetric(100.0, 50.0)))
    }

    /// Drives the sim to completion, returning (fault events, abort count).
    fn drain(sim: &mut Simulator, injector: &mut FaultInjector) -> (Vec<FaultEvent>, usize) {
        let mut aborts = 0;
        while let Some(ev) = sim.next_event() {
            injector.on_event(sim, &ev);
            if matches!(
                ev,
                Event::FlowCompleted {
                    outcome: FlowOutcome::Aborted,
                    ..
                }
            ) {
                aborts += 1;
            }
        }
        (injector.applied().to_vec(), aborts)
    }

    #[test]
    fn crash_kills_flows_and_recover_restores_admission() {
        let mut s = sim(3);
        let plan = FaultPlan::new(vec![
            FaultSpec::Crash {
                node: 1,
                at_secs: 1.0,
            },
            FaultSpec::Recover {
                node: 1,
                at_secs: 2.0,
            },
        ]);
        let mut inj = plan.inject(&mut s);
        s.start_flow(FlowSpec::network(0, 1, 100_000, Traffic::Repair));
        let (faults, aborts) = drain(&mut s, &mut inj);
        assert_eq!(
            faults,
            vec![
                FaultEvent::Crash { node: 1 },
                FaultEvent::Recover { node: 1 }
            ]
        );
        assert_eq!(aborts, 1);
        assert!(!s.is_node_failed(1));
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn slowdown_scales_and_restores_network_capacity() {
        let mut s = sim(2);
        let plan = FaultPlan::new(vec![FaultSpec::Slowdown {
            node: 0,
            at_secs: 1.0,
            factor: 0.25,
            duration_secs: 2.0,
        }]);
        let mut inj = plan.inject(&mut s);
        let f = s.start_flow(FlowSpec::network(0, 1, 1_000, Traffic::Repair));
        // t=1: slowdown starts. Flow moved 100 bytes at 100 B/s.
        let ev = s.next_event().unwrap();
        assert_eq!(
            inj.on_event(&mut s, &ev),
            Some(FaultEvent::SlowdownStart {
                node: 0,
                factor: 0.25
            })
        );
        s.refresh();
        assert_eq!(s.flow_rate(f), Some(25.0));
        // t=3: slowdown ends (flow at 900 - 50 = 850 remaining).
        let ev = s.next_event().unwrap();
        assert_eq!(
            inj.on_event(&mut s, &ev),
            Some(FaultEvent::SlowdownEnd { node: 0 })
        );
        s.refresh();
        assert_eq!(s.flow_rate(f), Some(100.0));
        assert_eq!(s.capacity(0, ResourceKind::DiskRead), 50.0);
        // Completion at t = 3 + 850/100 = 11.5.
        let ev = s.next_event().unwrap();
        assert!(matches!(
            ev,
            Event::FlowCompleted {
                outcome: FlowOutcome::Delivered,
                ..
            }
        ));
        assert!((s.now().as_secs() - 11.5).abs() < 1e-9);
    }

    #[test]
    fn overlapping_net_and_disk_faults_compose() {
        let mut s = sim(2);
        let plan = FaultPlan::new(vec![
            FaultSpec::Slowdown {
                node: 0,
                at_secs: 1.0,
                factor: 0.5,
                duration_secs: 10.0,
            },
            FaultSpec::DiskDegrade {
                node: 0,
                at_secs: 2.0,
                factor: 0.1,
                duration_secs: 1.0,
            },
        ]);
        let mut inj = plan.inject(&mut s);
        // Fire: slowdown start (t=1), degrade start (t=2), degrade end
        // (t=3), slowdown end (t=11).
        for _ in 0..2 {
            let ev = s.next_event().unwrap();
            inj.on_event(&mut s, &ev);
        }
        assert_eq!(s.capacity(0, ResourceKind::Uplink), 50.0);
        assert_eq!(s.capacity(0, ResourceKind::DiskRead), 5.0);
        let ev = s.next_event().unwrap();
        assert_eq!(
            inj.on_event(&mut s, &ev),
            Some(FaultEvent::DiskDegradeEnd { node: 0 })
        );
        // Disk restored; the network slowdown is still in force.
        assert_eq!(s.capacity(0, ResourceKind::DiskRead), 50.0);
        assert_eq!(s.capacity(0, ResourceKind::Uplink), 50.0);
        let ev = s.next_event().unwrap();
        assert_eq!(
            inj.on_event(&mut s, &ev),
            Some(FaultEvent::SlowdownEnd { node: 0 })
        );
        assert_eq!(s.capacity(0, ResourceKind::Uplink), 100.0);
    }

    #[test]
    fn overlapping_same_kind_slowdowns_restore_the_outer_window() {
        let mut s = sim(2);
        // Window A covers [1, 11); window B nests inside it at [3, 5) with
        // a harsher factor. When B ends, the node must fall back to A's
        // factor — not to the configured capacities (the old end-timer
        // reset to 1.0 silently cancelled A six seconds early).
        let plan = FaultPlan::new(vec![
            FaultSpec::Slowdown {
                node: 0,
                at_secs: 1.0,
                factor: 0.5,
                duration_secs: 10.0,
            },
            FaultSpec::Slowdown {
                node: 0,
                at_secs: 3.0,
                factor: 0.25,
                duration_secs: 2.0,
            },
        ]);
        let mut inj = plan.inject(&mut s);
        let fire = |s: &mut Simulator, inj: &mut FaultInjector| {
            let ev = s.next_event().unwrap();
            inj.on_event(s, &ev).unwrap()
        };
        assert_eq!(
            fire(&mut s, &mut inj),
            FaultEvent::SlowdownStart {
                node: 0,
                factor: 0.5
            }
        );
        assert_eq!(s.capacity(0, ResourceKind::Uplink), 50.0);
        assert_eq!(
            fire(&mut s, &mut inj),
            FaultEvent::SlowdownStart {
                node: 0,
                factor: 0.25
            }
        );
        assert_eq!(s.capacity(0, ResourceKind::Uplink), 25.0);
        // t=5: the inner window ends; the outer factor resumes and the
        // reported event carries the factor now in force.
        assert_eq!(
            fire(&mut s, &mut inj),
            FaultEvent::SlowdownStart {
                node: 0,
                factor: 0.5
            }
        );
        assert_eq!(s.capacity(0, ResourceKind::Uplink), 50.0);
        assert_eq!(s.capacity(0, ResourceKind::Downlink), 50.0);
        // t=11: the outer window ends; only now is the node full speed.
        assert_eq!(fire(&mut s, &mut inj), FaultEvent::SlowdownEnd { node: 0 });
        assert_eq!(s.capacity(0, ResourceKind::Uplink), 100.0);
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn recover_inside_scale_window_restores_scaled_caps() {
        let mut s = sim(3);
        // Crash-then-recover nested inside an active slowdown window: the
        // recovered node must come back at the scaled capacities, and only
        // the window's own end restores the configured ones.
        let plan = FaultPlan::new(vec![
            FaultSpec::Slowdown {
                node: 1,
                at_secs: 1.0,
                factor: 0.5,
                duration_secs: 9.0,
            },
            FaultSpec::Crash {
                node: 1,
                at_secs: 2.0,
            },
            FaultSpec::Recover {
                node: 1,
                at_secs: 4.0,
            },
        ]);
        let mut inj = plan.inject(&mut s);
        let fire = |s: &mut Simulator, inj: &mut FaultInjector| {
            let ev = s.next_event().unwrap();
            inj.on_event(s, &ev).unwrap()
        };
        assert_eq!(
            fire(&mut s, &mut inj),
            FaultEvent::SlowdownStart {
                node: 1,
                factor: 0.5
            }
        );
        assert_eq!(fire(&mut s, &mut inj), FaultEvent::Crash { node: 1 });
        assert_eq!(fire(&mut s, &mut inj), FaultEvent::Recover { node: 1 });
        assert!(!s.is_node_failed(1));
        assert_eq!(s.capacity(1, ResourceKind::Uplink), 50.0);
        assert_eq!(s.capacity(1, ResourceKind::Downlink), 50.0);
        // A fresh flow through the recovered node runs at the scaled rate.
        let f = s.start_flow(FlowSpec::network(0, 1, 1_000, Traffic::Repair));
        s.refresh();
        assert_eq!(s.flow_rate(f), Some(50.0));
        // t=10: the slowdown window ends and full speed returns.
        loop {
            let ev = s.next_event().unwrap();
            if let Some(fault) = inj.on_event(&mut s, &ev) {
                assert_eq!(fault, FaultEvent::SlowdownEnd { node: 1 });
                break;
            }
        }
        assert_eq!(s.capacity(1, ResourceKind::Uplink), 100.0);
    }

    #[test]
    fn parse_rejects_nonfinite_and_negative_numbers() {
        for bad in [
            "crash:3@-1",
            "crash:3@NaN",
            "crash:3@inf",
            "recover:2@-0.5",
            "slow:1@-2x0.5+5",
            "slow:1@1xNaN+5",
            "slow:1@1x0.5+inf",
            "disk:1@1x0.5+-3",
            "disk:1@-1x0.5+3",
        ] {
            let err = FaultSpec::parse(bad).unwrap_err();
            assert!(
                err.contains("bad fault spec"),
                "'{bad}' must fail with a clear message, got: {err}"
            );
        }
        // The same strings must not panic (or pass) through the list form.
        assert!(FaultPlan::parse_list("crash:0@1,slow:1@NaNx0.5+5").is_err());
        // Zero times stay legal; zero factors/durations stay rejected.
        assert!(FaultSpec::parse("crash:3@0").is_ok());
        assert!(FaultSpec::parse("slow:1@1x0+5").is_err());
        assert!(FaultSpec::parse("slow:1@1x0.5+0").is_err());
    }

    #[test]
    fn seeded_crashes_are_deterministic_and_distinct() {
        let candidates: Vec<NodeId> = (0..10).collect();
        let a = FaultPlan::seeded_crashes(42, &candidates, 4, (1.0, 9.0), Some(5.0));
        let b = FaultPlan::seeded_crashes(42, &candidates, 4, (1.0, 9.0), Some(5.0));
        assert_eq!(a, b);
        assert_eq!(a.specs().len(), 8); // 4 crashes + 4 recoveries
        let crashed: Vec<NodeId> = a
            .specs()
            .iter()
            .filter(|s| matches!(s, FaultSpec::Crash { .. }))
            .map(|s| s.node())
            .collect();
        let mut uniq = crashed.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "crashed nodes must be distinct: {crashed:?}");
        for s in a.specs() {
            if let FaultSpec::Crash { at_secs, .. } = s {
                assert!((1.0..9.0).contains(at_secs));
            }
        }
        // A different seed produces a different plan.
        let c = FaultPlan::seeded_crashes(43, &candidates, 4, (1.0, 9.0), Some(5.0));
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_stream_is_deterministic_and_respects_the_pool() {
        let candidates: Vec<NodeId> = (0..8).collect();
        let a = FaultPlan::seeded_poisson(0xD00D, &candidates, 50.0, (0.0, 200.0), Some(20.0));
        let b = FaultPlan::seeded_poisson(0xD00D, &candidates, 50.0, (0.0, 200.0), Some(20.0));
        assert_eq!(a, b, "same arguments must generate the same stream");
        let c = FaultPlan::seeded_poisson(0xBEEF, &candidates, 50.0, (0.0, 200.0), Some(20.0));
        assert_ne!(a, c, "a different seed must generate a different stream");
        // Candidate order must not change the stream.
        let mut reversed = candidates.clone();
        reversed.reverse();
        let d = FaultPlan::seeded_poisson(0xD00D, &reversed, 50.0, (0.0, 200.0), Some(20.0));
        assert_eq!(a, d);
        // Every crash strikes an *up* candidate inside the window, and no
        // node crashes again before its scheduled recovery.
        let mut down: Vec<NodeId> = Vec::new();
        let mut crashes = 0;
        for s in a.specs() {
            match *s {
                FaultSpec::Crash { node, at_secs } => {
                    assert!((0.0..200.0).contains(&at_secs));
                    assert!(candidates.contains(&node));
                    assert!(!down.contains(&node), "node {node} crashed while down");
                    down.push(node);
                    crashes += 1;
                }
                FaultSpec::Recover { node, .. } => {
                    down.retain(|&n| n != node);
                }
                _ => panic!("unexpected spec {s:?}"),
            }
        }
        assert!(
            crashes > 4,
            "expected a dense stream, got {crashes} crashes"
        );
    }

    #[test]
    fn poisson_mean_interarrival_matches_the_configured_mttf() {
        // 10 nodes, θ = 100 s, quick recovery: the pool is almost always
        // full, so the aggregate rate is ≈ 10/100 = 0.1 crashes/s and a
        // 10 000 s window should see ~1 000 crashes. The bound is wide
        // enough (±4 σ ≈ ±127 plus the small downtime bias) to be
        // deterministic in practice for any reasonable generator.
        let candidates: Vec<NodeId> = (0..10).collect();
        let plan =
            FaultPlan::seeded_poisson(0x90155, &candidates, 100.0, (0.0, 10_000.0), Some(1.0));
        let crash_times: Vec<f64> = plan
            .specs()
            .iter()
            .filter_map(|s| match *s {
                FaultSpec::Crash { at_secs, .. } => Some(at_secs),
                _ => None,
            })
            .collect();
        let n = crash_times.len();
        assert!((850..=1150).contains(&n), "expected ~1000 crashes, got {n}");
        let mean_gap = 10_000.0 / n as f64;
        assert!(
            (8.5..=11.5).contains(&mean_gap),
            "mean interarrival {mean_gap:.2}s, expected ≈10s"
        );
    }

    #[test]
    fn poisson_without_recovery_drains_the_pool_and_stops() {
        let candidates: Vec<NodeId> = vec![2, 5, 7];
        // Tiny MTTF relative to the window: every node crashes, once.
        let plan = FaultPlan::seeded_poisson(1, &candidates, 0.5, (0.0, 1_000.0), None);
        let crashed: Vec<NodeId> = plan.specs().iter().map(|s| s.node()).collect();
        assert_eq!(plan.specs().len(), 3);
        let mut uniq = crashed.clone();
        uniq.sort_unstable();
        assert_eq!(uniq, candidates, "each candidate crashes exactly once");
    }

    #[test]
    fn poisson_merges_with_handwritten_schedules_in_fire_order() {
        let candidates: Vec<NodeId> = (0..6).collect();
        let stream = FaultPlan::seeded_poisson(9, &candidates, 20.0, (5.0, 60.0), Some(10.0));
        let hand = FaultPlan::parse_list("slow:1@2x0.25+10,crash:4@0.5").unwrap();
        let merged = FaultPlan::new([stream.specs(), hand.specs()].concat());
        assert_eq!(
            merged.specs().len(),
            stream.specs().len() + hand.specs().len()
        );
        // Re-sorted globally: the handwritten t=0.5 crash leads, and times
        // never decrease.
        assert_eq!(
            merged.specs()[0],
            FaultSpec::Crash {
                node: 4,
                at_secs: 0.5
            }
        );
        for pair in merged.specs().windows(2) {
            assert!(pair[0].at_secs() <= pair[1].at_secs());
        }
        assert!(merged
            .specs()
            .iter()
            .any(|s| matches!(s, FaultSpec::Slowdown { node: 1, .. })));
        assert_eq!(merged.first_crash_secs(), Some(0.5));
    }

    #[test]
    fn parse_list_round_trips_all_kinds() {
        let plan =
            FaultPlan::parse_list("crash:3@1.5, slow:5@2x0.25+10,disk:7@1x0.5+5,recover:3@20")
                .unwrap();
        assert_eq!(
            plan.specs(),
            &[
                FaultSpec::DiskDegrade {
                    node: 7,
                    at_secs: 1.0,
                    factor: 0.5,
                    duration_secs: 5.0
                },
                FaultSpec::Crash {
                    node: 3,
                    at_secs: 1.5
                },
                FaultSpec::Slowdown {
                    node: 5,
                    at_secs: 2.0,
                    factor: 0.25,
                    duration_secs: 10.0
                },
                FaultSpec::Recover {
                    node: 3,
                    at_secs: 20.0
                },
            ]
        );
        assert_eq!(plan.first_crash_secs(), Some(1.5));
        assert!(FaultPlan::parse_list("crash:x@1").is_err());
        assert!(FaultPlan::parse_list("melt:1@1").is_err());
        assert!(FaultPlan::parse_list("slow:1@1").is_err());
        assert!(FaultPlan::parse_list("").unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "names node 3, but the simulator has nodes 0..3")]
    fn a_spec_outside_the_simulator_panics_when_armed_not_when_it_fires() {
        let mut sim = sim(3);
        // In range first, and far in the future: arming alone must panic.
        FaultPlan::new(vec![
            FaultSpec::Crash {
                node: 2,
                at_secs: 1.0,
            },
            FaultSpec::Slowdown {
                node: 3,
                at_secs: 3600.0,
                factor: 0.5,
                duration_secs: 1.0,
            },
        ])
        .inject(&mut sim);
    }

    #[test]
    fn a_plan_naming_the_last_node_still_arms() {
        let mut sim = sim(3);
        let mut injector = FaultPlan::new(vec![FaultSpec::Crash {
            node: 2,
            at_secs: 1.0,
        }])
        .inject(&mut sim);
        let (events, _) = drain(&mut sim, &mut injector);
        assert_eq!(events, vec![FaultEvent::Crash { node: 2 }]);
    }

    #[test]
    fn injector_ignores_foreign_events() {
        let mut s = sim(2);
        let plan = FaultPlan::new(vec![FaultSpec::Crash {
            node: 1,
            at_secs: 5.0,
        }]);
        let mut inj = plan.inject(&mut s);
        s.schedule_in(1.0, 7);
        let ev = s.next_event().unwrap(); // the foreign timer
        assert_eq!(inj.on_event(&mut s, &ev), None);
        assert_eq!(inj.pending(), 1);
    }
}
