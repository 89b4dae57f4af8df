//! The run loop: the one place that decides who sees a simulator event.
//!
//! Every measurement is a repair co-running with foreground traffic and,
//! possibly, faults, so the routing order is part of the measurement: the
//! **fault injector** first (a fault timer is consumed and the fault it
//! applied goes to the repair side's `on_fault`), then the **repair side**
//! (a [`RepairDriver`] or an [`Orchestrator`]), then the **foreground**.
//! What nobody claims — a caller's own timer, a background flow, the abort
//! notice of an attempt already torn down — is reported to the observer as
//! [`Routed::Unclaimed`], never swallowed.

use std::ops::ControlFlow;

use chameleon_cluster::ForegroundDriver;
use chameleon_simnet::{Event, FaultEvent, FaultInjector, FaultPlan, Simulator};
use chameleon_traces::Workload;

use crate::{Orchestrator, RepairContext, RepairDriver};

/// What the loop needs of the repair side. Implemented for every
/// [`RepairDriver`] and for [`Orchestrator`]; [`NoRepair`] stands in when
/// only the foreground runs.
pub trait RepairSide {
    /// Handles an event; `true` if it belonged to the repair side.
    fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> bool;
    /// Takes note of a fault the injector just applied.
    fn on_fault(&mut self, sim: &mut Simulator, fault: &FaultEvent);
    /// Whether no repair work is outstanding.
    fn is_done(&self) -> bool;
}

impl<D: RepairDriver + ?Sized> RepairSide for D {
    fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> bool {
        RepairDriver::on_event(self, sim, event)
    }
    fn on_fault(&mut self, sim: &mut Simulator, fault: &FaultEvent) {
        RepairDriver::on_fault(self, sim, fault);
    }
    fn is_done(&self) -> bool {
        RepairDriver::is_done(self)
    }
}

impl RepairSide for Orchestrator {
    #[inline]
    fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> bool {
        Orchestrator::on_event(self, sim, event)
    }
    #[inline]
    fn on_fault(&mut self, sim: &mut Simulator, fault: &FaultEvent) {
        Orchestrator::on_fault(self, sim, fault);
    }
    #[inline]
    fn is_done(&self) -> bool {
        Orchestrator::is_done(self)
    }
}

/// The repair side of a run that repairs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRepair;

impl RepairSide for NoRepair {
    fn on_event(&mut self, _: &mut Simulator, _: &Event) -> bool {
        false
    }
    fn on_fault(&mut self, _: &mut Simulator, _: &FaultEvent) {}
    fn is_done(&self) -> bool {
        true
    }
}

/// Who took an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// A fault timer: the injector applied the fault and the repair side's
    /// `on_fault` saw it; nobody's `on_event` did.
    Fault,
    /// The repair side claimed it.
    Repair,
    /// The foreground claimed it.
    Foreground,
    /// Nobody claimed it.
    Unclaimed,
}

/// The event queue emptied with work outstanding: a simulation bug, typed
/// so every harness reports it alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotQuiesced {
    /// The repair side was not done.
    Repair,
    /// A foreground client still had requests to issue.
    Foreground,
}

impl std::fmt::Display for NotQuiesced {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let who = match self {
            NotQuiesced::Repair => "repair side",
            NotQuiesced::Foreground => "foreground",
        };
        write!(f, "the {who} did not quiesce (simulation bug)")
    }
}

impl std::error::Error for NotQuiesced {}

/// `Break` if `done`: the usual last line of an observer that stops early.
pub fn stop_if(done: bool) -> ControlFlow<()> {
    if done {
        ControlFlow::Break(())
    } else {
        ControlFlow::Continue(())
    }
}

/// One staged simulation: the cluster view, its simulator and whichever of
/// fault injector and foreground the run has. Stage in the order the ids
/// should be drawn — timers and flows are numbered as they are created,
/// and ids break same-instant ties.
#[derive(Debug)]
pub struct Run {
    /// The cluster and code the simulator was built from.
    pub ctx: RepairContext,
    /// The simulator; start the repair side's work on it before draining.
    pub sim: Simulator,
    /// Set by [`Run::inject`].
    pub injector: Option<FaultInjector>,
    /// Set, started, by [`Run::start_foreground`].
    pub foreground: Option<ForegroundDriver>,
}

impl Run {
    /// A run over `ctx`'s cluster with a fresh simulator.
    pub fn new(ctx: RepairContext) -> Self {
        let sim = ctx.cluster.build_simulator();
        Run {
            ctx,
            sim,
            injector: None,
            foreground: None,
        }
    }

    /// Schedules `plan`'s fault timers.
    pub fn inject(&mut self, plan: &FaultPlan) {
        self.injector = Some(plan.inject(&mut self.sim));
    }

    /// Starts one closed-loop foreground client per workload.
    pub fn start_foreground(&mut self, workloads: Vec<Box<dyn Workload>>, requests: usize) {
        let mut fg = ForegroundDriver::new(workloads, requests);
        fg.start(&self.ctx.cluster, &mut self.sim);
        self.foreground = Some(fg);
    }

    /// Routes one event: injector, then `repair`, then the foreground.
    #[inline]
    pub fn route<R: RepairSide + ?Sized>(&mut self, repair: &mut R, event: &Event) -> Routed {
        if let Some(injector) = self.injector.as_mut() {
            if let Some(fault) = injector.on_event(&mut self.sim, event) {
                repair.on_fault(&mut self.sim, &fault);
                return Routed::Fault;
            }
        }
        if repair.on_event(&mut self.sim, event) {
            return Routed::Repair;
        }
        if let Some(fg) = self.foreground.as_mut() {
            if fg.on_event(&self.ctx.cluster, &mut self.sim, event) {
                return Routed::Foreground;
            }
        }
        Routed::Unclaimed
    }

    /// Pops and routes events until the queue is empty or `observer`, which
    /// sees every event after it was routed, breaks. The observer is the
    /// loop's one extension point: it may act on the run (start flows, arm
    /// its own timers and recognise them as [`Routed::Unclaimed`], swap a
    /// workload) and stop early; an early stop is `Ok`.
    #[inline]
    pub fn run<R: RepairSide + ?Sized>(
        &mut self,
        repair: &mut R,
        mut observer: impl FnMut(&mut Run, &mut R, &Event, Routed) -> ControlFlow<()>,
    ) -> Result<(), NotQuiesced> {
        while let Some(event) = self.sim.next_event() {
            let routed = self.route(repair, &event);
            if observer(self, repair, &event, routed).is_break() {
                return Ok(());
            }
        }
        if !repair.is_done() {
            return Err(NotQuiesced::Repair);
        }
        match &self.foreground {
            Some(fg) if !fg.is_done() => Err(NotQuiesced::Foreground),
            _ => Ok(()),
        }
    }

    /// [`Run::run`] to the end, observing nothing.
    #[inline]
    pub fn drain<R: RepairSide + ?Sized>(&mut self, repair: &mut R) -> Result<(), NotQuiesced> {
        self.run(repair, |_, _, _, _| ControlFlow::Continue(()))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use chameleon_cluster::{Cluster, ClusterConfig};
    use chameleon_codes::ReedSolomon;
    use chameleon_simnet::{FlowSpec, Traffic};
    use chameleon_traces::YcsbA;

    use super::*;

    /// Records everything it is shown; claims events and is done on demand.
    #[derive(Default)]
    struct Probe {
        events: Vec<Event>,
        faults: Vec<FaultEvent>,
        claim: bool,
        stuck: bool,
    }

    impl RepairSide for Probe {
        fn on_event(&mut self, _: &mut Simulator, event: &Event) -> bool {
            self.events.push(*event);
            self.claim
        }
        fn on_fault(&mut self, _: &mut Simulator, fault: &FaultEvent) {
            self.faults.push(*fault);
        }
        fn is_done(&self) -> bool {
            !self.stuck
        }
    }

    /// A run over RS(4,2) on 20 nodes with two 5-request YCSB-A clients.
    fn staged() -> Run {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let code = Arc::new(ReedSolomon::new(4, 2).unwrap());
        let mut run = Run::new(RepairContext::new(cluster, code));
        let clients = (0..2).map(|i| Box::new(YcsbA::new(i)) as Box<dyn Workload>);
        run.start_foreground(clients.collect(), 5);
        run
    }

    /// Drains `run` against `side`, recording how each event was routed.
    fn routes(run: &mut Run, side: &mut Probe) -> (Vec<(Event, Routed)>, Result<(), NotQuiesced>) {
        let mut seen = Vec::new();
        let ended = run.run(side, |_, _, ev, routed| {
            seen.push((*ev, routed));
            ControlFlow::Continue(())
        });
        (seen, ended)
    }

    #[test]
    fn a_fault_timer_is_consumed_and_reaches_only_on_fault() {
        let mut run = staged();
        run.inject(&FaultPlan::parse_list("crash:3@0.0001,recover:3@0.0002").unwrap());
        let mut probe = Probe::default();
        let (seen, ended) = routes(&mut run, &mut probe);
        assert_eq!(ended, Ok(()));
        assert_eq!(probe.faults, run.injector.unwrap().applied());
        assert_eq!(probe.faults.len(), 2);
        // The repair side was offered, first, everything but the fault timers.
        let offered = seen.iter().filter(|(_, routed)| *routed != Routed::Fault);
        assert!(offered.map(|(ev, _)| ev).eq(&probe.events));
        assert_eq!(seen.len(), probe.events.len() + 2);
    }

    #[test]
    fn what_the_repair_side_claims_never_reaches_the_foreground() {
        let mut run = staged();
        let mut greedy = Probe {
            claim: true,
            ..Probe::default()
        };
        let (seen, ended) = routes(&mut run, &mut greedy);
        // Both first requests completed; the foreground never heard.
        assert!(seen.len() == 2 && seen.iter().all(|(_, routed)| *routed == Routed::Repair));
        assert_eq!(ended, Err(NotQuiesced::Foreground));
        assert_eq!(run.foreground.unwrap().report(&run.sim).completed, 0);

        let mut stuck = Probe {
            stuck: true,
            ..Probe::default()
        };
        assert_eq!(staged().drain(&mut stuck), Err(NotQuiesced::Repair));
    }

    #[test]
    fn break_stops_without_draining() {
        let mut run = staged();
        let mut seen = 0;
        let ended = run.run(&mut NoRepair, |_, _, _, _| {
            seen += 1;
            stop_if(true)
        });
        assert_eq!((ended, seen), (Ok(()), 1));
        assert!(
            run.sim.next_event().is_some(),
            "the break drained the queue"
        );
    }

    #[test]
    fn unclaimed_events_are_reported_not_swallowed() {
        let mut run = staged();
        let timer = run.sim.schedule_in(1e-3, 0);
        let hog = FlowSpec::network(1, 2, 1 << 20, Traffic::Background);
        let flow = run.sim.start_flow(hog);
        let (seen, ended) = routes(&mut run, &mut Probe::default());
        assert_eq!(ended, Ok(()));
        let unclaimed = seen
            .iter()
            .filter(|(_, routed)| *routed == Routed::Unclaimed);
        let mine = |(ev, _): &(Event, Routed)| match *ev {
            Event::Timer { id, .. } => id == timer,
            Event::FlowCompleted { id, .. } => id == flow,
        };
        assert!(unclaimed.clone().count() == 2 && unclaimed.clone().all(mine));
        // 2 clients x 5 requests, each a flow and all but the last a think timer.
        let claimed = seen
            .iter()
            .filter(|(_, routed)| *routed == Routed::Foreground);
        assert_eq!(claimed.count(), 2 * (5 + 4));
    }
}
