//! Closed-loop foreground clients replaying a workload.

use chameleon_simnet::{Event, FlowId, FlowSpec, ResourceKind, Simulator, TimerId, Traffic};
use chameleon_traces::{Op, Workload};

use crate::config::Cluster;
use crate::stats::LatencySummary;

/// Summary of a finished (or in-progress) foreground run.
#[derive(Debug, Clone, PartialEq)]
pub struct ForegroundReport {
    /// Completed requests.
    pub completed: usize,
    /// Mean request latency in seconds.
    pub mean_latency: f64,
    /// P99 request latency in seconds (the paper's service-quality metric).
    pub p99_latency: f64,
    /// Full percentile summary (p50/p95/p99/max) of the request latencies;
    /// `None` before the first completion. `latency.p99` equals
    /// [`ForegroundReport::p99_latency`], which is kept as a plain field
    /// because it is the paper's headline service-quality metric.
    pub latency: Option<LatencySummary>,
    /// Total bytes moved by foreground requests.
    pub total_bytes: f64,
    /// Requests killed by a node failure (the target crashed mid-request).
    /// Aborted requests contribute no latency sample; the closed loop
    /// simply issues the client's next request.
    pub aborted: usize,
    /// Wall-clock (simulated) time from start until the last client
    /// finished; `None` while still running.
    pub execution_time: Option<f64>,
}

struct Client {
    workload: Box<dyn Workload>,
    remaining: usize,
    /// The request in flight and the time it was issued.
    request: Option<(FlowId, f64)>,
    /// The think-time timer between a completion and the next issue.
    think: Option<TimerId>,
}

/// Drives closed-loop clients: each client keeps exactly one request in
/// flight, issuing the next as soon as the previous completes — the YCSB
/// execution model.
///
/// The driver does not own the simulator; experiments feed it events:
///
/// ```no_run
/// # use chameleon_cluster::{Cluster, ClusterConfig, ForegroundDriver};
/// # use chameleon_traces::YcsbA;
/// # let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
/// # let mut sim = cluster.build_simulator();
/// let workloads: Vec<Box<dyn chameleon_traces::Workload>> =
///     (0..4).map(|i| Box::new(YcsbA::new(i)) as Box<_>).collect();
/// let mut fg = ForegroundDriver::new(workloads, 1000);
/// fg.start(&cluster, &mut sim);
/// while let Some(ev) = sim.next_event() {
///     fg.on_event(&cluster, &mut sim, &ev);
/// }
/// let report = fg.report(&sim);
/// ```
///
/// A client has at most one request or one think-time timer outstanding,
/// so both live on the client. Flows carry the client index as their owner
/// key and timers as their dispatch key; the engine echoes it on the
/// event, and the id stored on the client decides whether the event is
/// this driver's — no lookup table.
pub struct ForegroundDriver {
    clients: Vec<Client>,
    /// Clients with a request in flight.
    requests_in_flight: usize,
    /// Clients waiting on a think-time timer.
    thinking: usize,
    latencies: Vec<f64>,
    total_bytes: f64,
    aborted: usize,
    started_at: Option<f64>,
    finished_at: Option<f64>,
    stopped: bool,
}

impl std::fmt::Debug for ForegroundDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForegroundDriver")
            .field("clients", &self.clients.len())
            .field("completed", &self.latencies.len())
            .field("in_flight", &self.requests_in_flight)
            .finish()
    }
}

impl ForegroundDriver {
    /// Fixed per-request overhead modelling RTT and server processing:
    /// 0.5 ms, in the range of a same-AZ key-value operation. Without it,
    /// tiny-value workloads would complete at unphysical rates.
    pub const REQUEST_OVERHEAD: f64 = 0.5e-3;

    /// Creates a driver with one workload per client, each issuing
    /// `requests_per_client` requests (use `usize::MAX` for an open-ended
    /// run stopped via [`ForegroundDriver::stop`]).
    pub fn new(workloads: Vec<Box<dyn Workload>>, requests_per_client: usize) -> Self {
        let clients = workloads
            .into_iter()
            .map(|workload| Client {
                workload,
                remaining: requests_per_client,
                request: None,
                think: None,
            })
            .collect();
        ForegroundDriver {
            clients,
            requests_in_flight: 0,
            thinking: 0,
            latencies: Vec::new(),
            total_bytes: 0.0,
            aborted: 0,
            started_at: None,
            finished_at: None,
            stopped: false,
        }
    }

    /// Issues every client's first request.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has fewer client machines than this driver
    /// has workloads.
    pub fn start(&mut self, cluster: &Cluster, sim: &mut Simulator) {
        assert!(
            self.clients.len() <= cluster.config().clients,
            "cluster has too few client machines"
        );
        self.started_at = Some(sim.now().as_secs());
        // Every completed request is one sample; an open-ended budget
        // (`usize::MAX`) reserves nothing.
        let budget = self
            .clients
            .iter()
            .try_fold(0, |n: usize, c| n.checked_add(c.remaining));
        if let Some(budget) = budget.filter(|&b| b < usize::MAX) {
            self.latencies.reserve_exact(budget);
        }
        for c in 0..self.clients.len() {
            self.issue_next(cluster, sim, c);
        }
        if self.in_flight_count() == 0 {
            self.finished_at = self.started_at;
        }
    }

    /// Handles a simulator event. Returns `true` if the event belonged to
    /// this driver (a foreground request completion or think-time timer).
    pub fn on_event(&mut self, cluster: &Cluster, sim: &mut Simulator, event: &Event) -> bool {
        match *event {
            Event::FlowCompleted {
                id,
                tag: Traffic::Foreground,
                outcome,
                owner,
            } => {
                let Some((client, state)) = self.client_mut(owner) else {
                    return false;
                };
                let Some((_, started)) = state.request.take_if(|(flow, _)| *flow == id) else {
                    return false;
                };
                self.requests_in_flight -= 1;
                let now = sim.now().as_secs();
                if outcome.is_delivered() {
                    // Recorded latency includes the fixed request overhead.
                    self.latencies.push(now - started + Self::REQUEST_OVERHEAD);
                } else {
                    // The target node crashed mid-request. The request's
                    // budget is spent; the closed loop moves on.
                    self.aborted += 1;
                }
                let more = self.clients[client].remaining > 0 && !self.stopped;
                if more {
                    let t = sim.schedule_in(Self::REQUEST_OVERHEAD, client as u64);
                    self.clients[client].think = Some(t);
                    self.thinking += 1;
                }
                self.check_finished(sim);
                true
            }
            Event::Timer { id, key } => {
                let Some((client, state)) = self.client_mut(key) else {
                    return false;
                };
                if state.think.take_if(|timer| *timer == id).is_none() {
                    return false;
                }
                self.thinking -= 1;
                self.issue_next(cluster, sim, client);
                self.check_finished(sim);
                true
            }
            // Another class's flow can never be a foreground request.
            Event::FlowCompleted { .. } => false,
        }
    }

    /// The client an event's echoed key names, if it names one. The key
    /// alone proves nothing (other drivers choose keys too): the caller
    /// still compares the id stored on the client.
    fn client_mut(&mut self, key: u64) -> Option<(usize, &mut Client)> {
        let client = usize::try_from(key).ok()?;
        Some((client, self.clients.get_mut(client)?))
    }

    fn check_finished(&mut self, sim: &Simulator) {
        if self.requests_in_flight == 0 && self.thinking == 0 && self.finished_at.is_none() {
            self.finished_at = Some(sim.now().as_secs());
        }
    }

    /// Replaces a client's workload (used by the adaptivity experiment,
    /// Exp#4, which transitions traces mid-run).
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn replace_workload(&mut self, client: usize, workload: Box<dyn Workload>) {
        self.clients[client].workload = workload;
    }

    /// Stops issuing new requests; in-flight requests drain normally.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Whether every client has finished its budget.
    pub fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Requests currently in flight.
    pub fn in_flight_count(&self) -> usize {
        self.requests_in_flight
    }

    /// The report, read once at the end of a run (final once
    /// [`ForegroundDriver::is_done`]); it sorts the driver's own latency
    /// samples in place, so it consumes the driver.
    pub fn report(mut self, _sim: &Simulator) -> ForegroundReport {
        let latency = LatencySummary::sort_and_summarize(&mut self.latencies);
        ForegroundReport {
            completed: self.latencies.len(),
            mean_latency: latency.map_or(0.0, |l| l.mean),
            p99_latency: latency.map_or(0.0, |l| l.p99),
            latency,
            total_bytes: self.total_bytes,
            aborted: self.aborted,
            execution_time: match (self.started_at, self.finished_at) {
                (Some(s), Some(f)) => Some(f - s),
                _ => None,
            },
        }
    }

    fn issue_next(&mut self, cluster: &Cluster, sim: &mut Simulator, client: usize) {
        let state = &mut self.clients[client];
        if state.remaining == 0 || self.stopped {
            return;
        }
        state.remaining -= 1;
        let req = state.workload.next_request();
        let bytes = req.value_size.max(1);
        let client_node = cluster.client_node(client);
        let storage_node = cluster.key_to_node(req.key);
        // A request is a pipelined read-and-send (or receive-and-write):
        // it holds the storage node's disk bandwidth and the network path
        // simultaneously, which is how slicing behaves in the real system.
        let spec = match req.op {
            Op::Get => FlowSpec::custom(
                bytes,
                [
                    (storage_node, ResourceKind::DiskRead),
                    (storage_node, ResourceKind::Uplink),
                    (client_node, ResourceKind::Downlink),
                ],
                Traffic::Foreground,
            ),
            Op::Put => FlowSpec::custom(
                bytes,
                [
                    (client_node, ResourceKind::Uplink),
                    (storage_node, ResourceKind::Downlink),
                    (storage_node, ResourceKind::DiskWrite),
                ],
                Traffic::Foreground,
            ),
        };
        self.total_bytes += bytes as f64;
        let id = sim.start_flow(spec.with_owner(client as u64));
        self.clients[client].request = Some((id, sim.now().as_secs()));
        self.requests_in_flight += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Cluster, ClusterConfig};
    use chameleon_traces::YcsbA;

    fn run(clients: usize, requests: usize) -> (ForegroundReport, Simulator) {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let mut sim = cluster.build_simulator();
        let workloads: Vec<Box<dyn Workload>> = (0..clients)
            .map(|i| Box::new(YcsbA::new(i as u64)) as Box<dyn Workload>)
            .collect();
        let mut fg = ForegroundDriver::new(workloads, requests);
        fg.start(&cluster, &mut sim);
        while let Some(ev) = sim.next_event() {
            assert!(fg.on_event(&cluster, &mut sim, &ev));
        }
        assert!(fg.is_done());
        (fg.report(&sim), sim)
    }

    #[test]
    fn completes_every_request() {
        let (report, _) = run(2, 50);
        assert_eq!(report.completed, 100);
        assert!(report.mean_latency > 0.0);
        assert!(report.p99_latency >= report.mean_latency);
        let lat = report.latency.unwrap();
        assert_eq!(lat.count, report.completed);
        assert_eq!(lat.p99, report.p99_latency);
        assert_eq!(lat.mean, report.mean_latency);
        assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99 && lat.p99 <= lat.max);
        assert!(report.execution_time.unwrap() > 0.0);
        assert_eq!(report.total_bytes, 100.0 * 512.0 * 1024.0);
    }

    #[test]
    fn traffic_is_accounted_as_foreground() {
        let (report, sim) = run(1, 20);
        let m = sim.monitor();
        let mut fg_bytes = 0.0;
        for node in 0..sim.node_count() {
            fg_bytes += m.total_bytes(node, ResourceKind::Uplink, Traffic::Foreground);
        }
        assert!((fg_bytes - report.total_bytes).abs() / report.total_bytes < 1e-6);
    }

    #[test]
    fn more_clients_increase_contention() {
        let (one, _) = run(1, 60);
        let (four, _) = run(4, 60);
        // Four Zipfian clients hammer overlapping hot nodes; latency must
        // not improve.
        assert!(four.mean_latency >= one.mean_latency * 0.99);
    }

    #[test]
    fn stop_drains_in_flight() {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let mut sim = cluster.build_simulator();
        let workloads: Vec<Box<dyn Workload>> = vec![Box::new(YcsbA::new(1)) as Box<dyn Workload>];
        let mut fg = ForegroundDriver::new(workloads, usize::MAX);
        fg.start(&cluster, &mut sim);
        for _ in 0..10 {
            let ev = sim.next_event().unwrap();
            fg.on_event(&cluster, &mut sim, &ev);
        }
        fg.stop();
        while let Some(ev) = sim.next_event() {
            fg.on_event(&cluster, &mut sim, &ev);
        }
        assert!(fg.is_done());
        // 10 events = at least 5 completions (completion + think timer per
        // request).
        assert!(fg.report(&sim).completed >= 5);
    }

    #[test]
    fn zero_request_run_finishes_immediately() {
        let (report, _) = run(1, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.execution_time, Some(0.0));
    }

    #[test]
    fn request_overhead_paces_the_closed_loop() {
        let (report, _) = run(1, 100);
        assert_eq!(report.completed, 100);
        // Each latency carries the 0.5 ms overhead once, and one client
        // thinks for it between consecutive requests: 99 times, not 100.
        let overhead = ForegroundDriver::REQUEST_OVERHEAD;
        assert_eq!(overhead, 0.5e-3);
        let busy = report.mean_latency * 100.0 - overhead;
        assert!((report.execution_time.unwrap() - busy).abs() < 1e-9);
    }
}
