//! Repair outcome metrics, per-chunk repair spans, and link-load
//! statistics.

use chameleon_cluster::stats::LatencySummary;
use chameleon_simnet::{Monitor, ResourceKind, Traffic};

use crate::coding::CodingStats;
use crate::recovery::RecoveryStats;

/// One completed chunk repair as an observability span: which chunk, when
/// its (final, successful) attempt started and finished in simulated time,
/// and how many dispatch attempts it took in total (1 = repaired on the
/// first try; failed attempts' wasted work is accounted separately in
/// [`RecoveryStats`]).
///
/// Spans are recorded at the same instant (and from the same executor
/// timestamps) as the matching [`RepairOutcome::per_chunk_secs`] entry, so
/// `span.duration_secs() == per_chunk_secs[i]` holds exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairSpan {
    /// Stripe of the repaired chunk.
    pub stripe: usize,
    /// Chunk index within the stripe.
    pub index: usize,
    /// Simulated second the successful attempt started.
    pub started_secs: f64,
    /// Simulated second the repaired chunk was fully written.
    pub finished_secs: f64,
    /// Dispatch attempts for this chunk, including the successful one.
    pub attempts: u32,
}

impl RepairSpan {
    /// Span length in simulated seconds.
    pub fn duration_secs(&self) -> f64 {
        self.finished_secs - self.started_secs
    }

    /// Renders the span as one JSON line, schema-compatible with the
    /// simulator's flow trace (`chameleon_simnet::trace`) so both can live
    /// in the same `.jsonl` file:
    /// `{"event":"span","stripe":S,"chunk":I,"start":T0,"end":T1,"attempts":N}`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"event\":\"span\",\"stripe\":{},\"chunk\":{},\"start\":{},\"end\":{},\"attempts\":{}}}",
            self.stripe, self.index, self.started_secs, self.finished_secs, self.attempts
        )
    }
}

/// One chunk the driver abandoned: either its retry budget ran out or it
/// was unrepairable at dispatch time. Surfaced in the trace JSONL so
/// quarantined stripes are visible in `trace summarize` output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GivenUpChunk {
    /// Stripe of the abandoned chunk.
    pub stripe: usize,
    /// Chunk index within the stripe.
    pub index: usize,
    /// Dispatch attempts made before giving up (0 = skipped without an
    /// attempt, i.e. unrepairable at selection time).
    pub attempts: u32,
}

impl GivenUpChunk {
    /// Renders the record as one JSON line, schema-compatible with the
    /// flow trace and span lines:
    /// `{"event":"given_up","stripe":S,"chunk":I,"attempts":N}`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"event\":\"given_up\",\"stripe\":{},\"chunk\":{},\"attempts\":{}}}",
            self.stripe, self.index, self.attempts
        )
    }
}

/// Summary of a repair campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// Algorithm name.
    pub algorithm: String,
    /// Chunks that were asked to be repaired.
    pub chunks_total: usize,
    /// Chunks repaired so far.
    pub chunks_repaired: usize,
    /// Bytes of lost data restored (`chunks_repaired * chunk_size`).
    pub repaired_bytes: f64,
    /// Simulated seconds from repair start to the last chunk's completion
    /// (`None` while still running).
    pub duration: Option<f64>,
    /// Per-chunk repair latencies in seconds.
    pub per_chunk_secs: Vec<f64>,
    /// One span per repaired chunk, in completion order; `spans[i]` covers
    /// the same attempt as `per_chunk_secs[i]`.
    pub spans: Vec<RepairSpan>,
    /// Wall-clock cost of the real GF(2^8) coding stages executed for the
    /// repaired chunks (source scale / relay merge / reassemble).
    pub coding: CodingStats,
    /// Recovery activity under injected faults: replans, retries, aborted
    /// flows, wasted repair bytes, and chunks given up. All zero in a
    /// fault-free run.
    pub recovery: RecoveryStats,
    /// Identity of every chunk the driver abandoned (retries exhausted or
    /// unrepairable), in the order it was given up. Empty in a fault-free
    /// run.
    pub given_up_chunks: Vec<GivenUpChunk>,
}

impl RepairOutcome {
    /// Repair throughput in bytes/s: repaired data divided by elapsed
    /// repair time — the paper's headline metric (§V-A).
    ///
    /// Returns 0 until the repair finishes.
    pub fn throughput(&self) -> f64 {
        match self.duration {
            Some(d) if d > 0.0 => self.repaired_bytes / d,
            _ => 0.0,
        }
    }

    /// Mean single-chunk repair latency in seconds.
    pub fn mean_chunk_secs(&self) -> f64 {
        if self.per_chunk_secs.is_empty() {
            0.0
        } else {
            self.per_chunk_secs.iter().sum::<f64>() / self.per_chunk_secs.len() as f64
        }
    }

    /// Percentile summary (p50/p95/p99/max) of the per-chunk repair
    /// latencies; `None` before the first chunk completes.
    pub fn chunk_latency(&self) -> Option<LatencySummary> {
        LatencySummary::from_samples(&self.per_chunk_secs)
    }
}

/// Most-loaded / least-loaded link statistics (Fig. 6): for each direction,
/// the repair and foreground bandwidth of the node whose total usage is
/// highest and lowest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLoadStats {
    /// (repair, foreground) mean rate of the most-loaded uplink, bytes/s.
    pub most_loaded_up: (f64, f64),
    /// (repair, foreground) mean rate of the least-loaded uplink.
    pub least_loaded_up: (f64, f64),
    /// (repair, foreground) mean rate of the most-loaded downlink.
    pub most_loaded_down: (f64, f64),
    /// (repair, foreground) mean rate of the least-loaded downlink.
    pub least_loaded_down: (f64, f64),
}

impl LinkLoadStats {
    /// Computes the statistics over the given nodes of a monitor: storage
    /// nodes only (client machines are excluded, as in the paper), and
    /// alive ones, since a failed node would dominate the least-loaded
    /// statistic with its zero traffic.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn from_monitor_nodes(monitor: &Monitor, nodes: &[usize]) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        let collect = |kind: ResourceKind| -> ((f64, f64), (f64, f64)) {
            let mut most = (f64::MIN, (0.0, 0.0));
            let mut least = (f64::MAX, (0.0, 0.0));
            for &node in nodes {
                let repair = monitor.mean_rate(node, kind, Traffic::Repair);
                let fg = monitor.mean_rate(node, kind, Traffic::Foreground);
                let total = repair + fg;
                if total > most.0 {
                    most = (total, (repair, fg));
                }
                if total < least.0 {
                    least = (total, (repair, fg));
                }
            }
            (most.1, least.1)
        };
        let (most_up, least_up) = collect(ResourceKind::Uplink);
        let (most_down, least_down) = collect(ResourceKind::Downlink);
        LinkLoadStats {
            most_loaded_up: most_up,
            least_loaded_up: least_up,
            most_loaded_down: most_down,
            least_loaded_down: least_down,
        }
    }

    /// How much more total bandwidth the most-loaded uplink supplied than
    /// the least-loaded one, as a ratio (the paper reports 110.5% extra for
    /// ECPipe).
    pub fn uplink_imbalance(&self) -> f64 {
        let most = self.most_loaded_up.0 + self.most_loaded_up.1;
        let least = self.least_loaded_up.0 + self.least_loaded_up.1;
        if least > 0.0 {
            most / least - 1.0
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_bytes_over_duration() {
        let outcome = RepairOutcome {
            algorithm: "CR".into(),
            chunks_total: 2,
            chunks_repaired: 2,
            repaired_bytes: 200.0,
            duration: Some(4.0),
            per_chunk_secs: vec![2.0, 4.0],
            spans: vec![],
            coding: CodingStats::default(),
            recovery: RecoveryStats::default(),
            given_up_chunks: vec![],
        };
        assert_eq!(outcome.throughput(), 50.0);
        assert_eq!(outcome.mean_chunk_secs(), 3.0);
        let lat = outcome.chunk_latency().unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.p50, 2.0);
        assert_eq!(lat.max, 4.0);
    }

    #[test]
    fn unfinished_outcome_has_zero_throughput() {
        let outcome = RepairOutcome {
            algorithm: "CR".into(),
            chunks_total: 2,
            chunks_repaired: 1,
            repaired_bytes: 100.0,
            duration: None,
            per_chunk_secs: vec![2.0],
            spans: vec![],
            coding: CodingStats::default(),
            recovery: RecoveryStats::default(),
            given_up_chunks: vec![],
        };
        assert_eq!(outcome.throughput(), 0.0);
    }

    #[test]
    fn span_duration_and_json_line() {
        let span = RepairSpan {
            stripe: 3,
            index: 1,
            started_secs: 0.5,
            finished_secs: 2.0,
            attempts: 2,
        };
        assert_eq!(span.duration_secs(), 1.5);
        assert_eq!(
            span.to_json_line(),
            "{\"event\":\"span\",\"stripe\":3,\"chunk\":1,\"start\":0.5,\"end\":2,\"attempts\":2}"
        );
    }
}
