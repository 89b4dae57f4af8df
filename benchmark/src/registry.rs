//! Every name the benchmark reports: the five workloads, the end-to-end
//! metrics with their bounds, and the per-layer metrics with the
//! end-to-end metric and workload each is expected to move. Later issues
//! refer to these names; `BENCHMARK.json` is checked against this table by
//! the package's tests.

/// One benchmark workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers it stresses and what it is the control for.
    pub why: &'static str,
}

/// The simulated headline scenario.
pub const REPAIR20: &str = "repair20";
/// The racked variant of [`REPAIR20`].
pub const FABRIC20: &str = "fabric20";
/// The cluster-size stress.
pub const SCALE1000: &str = "scale1000";
/// The orchestrated fault campaign.
pub const CAMPAIGN20: &str = "campaign20";
/// Real bytes through `codes` and `gf`, no simulator.
pub const CODEC: &str = "codec";

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: REPAIR20,
        why: "Paper headline (Exp#1/Exp#8): 20 flat nodes, RS(10,4), node 0 fails under 4 YCSB-A clients; \
              time splits across simnet, core and cluster so a gain in any of them shows.",
    },
    WorkloadDef {
        name: FABRIC20,
        why: "repair20 racked as 3 ToRs behind a 1:8 spine (Exp#18): shared-link max-min and the tuner's \
              fabric clamps are live, so a flat-fabric gain that costs the racked case shows.",
    },
    WorkloadDef {
        name: SCALE1000,
        why: "1000 flat nodes, three failed nodes (Exp#16 shape): isolates costs that grow with cluster \
              size - dispatch/planning, per-event foreground work and Cluster::new.",
    },
    WorkloadDef {
        name: CAMPAIGN20,
        why: "Exp#17-style orchestrated campaign: seeded Poisson crashes, priority queue and negotiated \
              budget, so Orchestrator, FaultInjector, aborts and re-plans do work that is zero elsewhere.",
    },
    WorkloadDef {
        name: CODEC,
        why: "No simulator: RS(10,4) encode, repair and decode of real bytes at a cache-resident (64 KiB) \
              and a cache-exceeding (8 MiB) chunk size; only codes and gf run, the control for simulator work.",
    },
];

const SIM_ALL: &[&str] = &[REPAIR20, FABRIC20, SCALE1000, CAMPAIGN20];
const SIM_REPAIR: &[&str] = &[REPAIR20, FABRIC20, SCALE1000];
const ALL: &[&str] = &[REPAIR20, FABRIC20, SCALE1000, CAMPAIGN20, CODEC];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may move the wrong way before it counts as a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the reference median.
    Share(f64),
    /// An absolute distance, for metrics already in percentage points.
    Points(f64),
}

impl Bound {
    /// Whether `new` is no worse than `old` by more than the bound.
    pub fn holds(self, better: Better, old: f64, new: f64) -> bool {
        let worse_by = match better {
            Better::Lower => new - old,
            Better::Higher => old - new,
        };
        match self {
            Bound::Share(s) => worse_by <= s * old.abs(),
            Bound::Points(p) => worse_by <= p,
        }
    }

    /// `10%` or `0.5 pt`.
    pub fn label(self) -> String {
        match self {
            Bound::Share(s) => format!("{}%", s * 100.0),
            Bound::Points(p) => format!("{p} pt"),
        }
    }
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
    /// Workloads on which the metric exists.
    pub workloads: &'static [&'static str],
    /// What is measured.
    pub what: &'static str,
}

impl EndToEndDef {
    /// Host-side metrics exist on every workload, which is what lets the
    /// driver gate them: it requires each gated metric from every run.
    pub fn on_every_workload(&self) -> bool {
        self.workloads.len() == WORKLOADS.len()
    }
}

/// The thirteen end-to-end metrics. `_sim` metrics are statistics in
/// simulated time and repeat exactly for a seed; the others are host
/// measurements, reported as the median over the timed passes.
///
/// The bounds of the three host metrics every workload has are set by what
/// ten runs with ten seeds spread over on the 2-vCPU box this was written
/// on: whole processes now and then run 15-40% slow there for minutes at a
/// time, which put the quartile distance of `wall_s` on `scale1000` at 16%
/// in two sets out of three (3-5% otherwise), and `campaign20`'s 8 MiB
/// resident set moves 5-8% with the fault stream. A bound inside that
/// spread would reject changes for the weather.
pub const END_TO_END: [EndToEndDef; 13] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Share(0.25),
        workloads: ALL,
        what: "host seconds building one pass's inputs before the timed region: placement, simulator, \
               fault plan, generators, code and data fill",
    },
    EndToEndDef {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Share(0.25),
        workloads: ALL,
        what: "host seconds per pass over all cells of the workload, tracing off",
    },
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound::Share(0.20),
        workloads: ALL,
        what: "VmHWM of the workload process",
    },
    EndToEndDef {
        name: "encode_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: Bound::Share(0.10),
        workloads: &[CODEC],
        what: "data MB encoded per host second, both working sets",
    },
    EndToEndDef {
        name: "rebuild_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: Bound::Share(0.10),
        workloads: &[CODEC],
        what: "rebuilt MB per host second over one-erasure repair and two-erasure decode, both working sets",
    },
    EndToEndDef {
        name: "repair_mbps_sim",
        unit: "MB/s",
        better: Better::Higher,
        bound: Bound::Share(0.005),
        workloads: SIM_REPAIR,
        what: "ChameleonEC repaired MB per simulated second",
    },
    EndToEndDef {
        name: "repair_gain_pct_sim",
        unit: "%",
        better: Better::Higher,
        bound: Bound::Points(0.5),
        workloads: SIM_REPAIR,
        what: "ChameleonEC repair throughput over the mean of the workload's baselines (paper: +43.6% on \
               the repair20 shape)",
    },
    EndToEndDef {
        name: "fg_p99_ms_sim",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Share(0.005),
        workloads: SIM_ALL,
        what: "foreground P99 latency under ChameleonEC repair (mean over the ChameleonEC cells)",
    },
    EndToEndDef {
        name: "interference_pct_sim",
        unit: "%",
        better: Better::Lower,
        bound: Bound::Points(0.5),
        workloads: SIM_REPAIR,
        what: "(T*-T)/T of foreground execution time under ChameleonEC repair against the fg-only cell",
    },
    EndToEndDef {
        name: "chunk_p50_s_sim",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Share(0.005),
        workloads: SIM_ALL,
        what: "median per-chunk repair latency, ChameleonEC cells pooled",
    },
    EndToEndDef {
        name: "chunk_tail_s_sim",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Share(0.005),
        workloads: SIM_ALL,
        what: "per-chunk repair latency at the highest percentile with at least ten samples beyond it",
    },
    EndToEndDef {
        name: "vuln_tail_s_sim",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Share(0.005),
        workloads: &[CAMPAIGN20],
        what: "ledger enqueued-to-repaired time (window of vulnerability), same tail rule, ChameleonEC cells",
    },
    EndToEndDef {
        name: "xrack_repair_gb_sim",
        unit: "GB",
        better: Better::Lower,
        bound: Bound::Share(0.005),
        workloads: &[FABRIC20],
        what: "ChameleonEC Repair-class bytes over the ToR uplinks (Monitor::link_total_bytes)",
    },
];

/// A per-layer metric and the end-to-end number it is expected to move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayerDef {
    /// `layer.metric`; the layer is a crate of the stack.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Workloads whose traced run measures it.
    pub workloads: &'static [&'static str],
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// The workload on which that movement should be largest.
    pub moves_on: &'static str,
}

impl PerLayerDef {
    /// The crate the metric belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields one item")
    }
}

/// The layers, bottom up: the crates of the stack plus the harness.
pub const LAYERS: [&str; 7] = [
    "gf", "codes", "simnet", "traces", "cluster", "core", "bench",
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
    moves: &'static str,
    moves_on: &'static str,
) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better,
        workloads,
        moves,
        moves_on,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics. `_s` is host seconds per traced pass, `_us` /
/// `_ns` the mean per call, counts are exact for a seed.
pub const PER_LAYER: [PerLayerDef; 54] = [
    // gf: direct kernel calls on 1 MiB buffers.
    layer(
        "gf.mul_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "rebuild_mbps",
        CODEC,
    ),
    layer(
        "gf.mul_xor_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "encode_mbps",
        CODEC,
    ),
    layer(
        "gf.xor_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "rebuild_mbps",
        CODEC,
    ),
    layer(
        "gf.table_build_ns",
        "ns",
        Lower,
        &[CODEC],
        "encode_mbps",
        CODEC,
    ),
    layer(
        "gf.matrix_invert_us",
        "us",
        Lower,
        &[CODEC],
        "rebuild_mbps",
        CODEC,
    ),
    // codes: whole-call throughput in data (encode) or rebuilt (repair) MB.
    layer(
        "codes.rs_encode_small_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "encode_mbps",
        CODEC,
    ),
    layer(
        "codes.rs_encode_large_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "encode_mbps",
        CODEC,
    ),
    layer(
        "codes.rs_repair1_small_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "rebuild_mbps",
        CODEC,
    ),
    layer(
        "codes.rs_repair1_large_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "rebuild_mbps",
        CODEC,
    ),
    layer(
        "codes.rs_decode2_large_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "rebuild_mbps",
        CODEC,
    ),
    layer(
        "codes.rs_encode_striped_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "encode_mbps",
        CODEC,
    ),
    layer(
        "codes.lrc_encode_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "encode_mbps",
        CODEC,
    ),
    layer(
        "codes.lrc_repair_local_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "rebuild_mbps",
        CODEC,
    ),
    layer(
        "codes.butterfly_encode_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "encode_mbps",
        CODEC,
    ),
    layer(
        "codes.butterfly_repair_mbps",
        "MB/s",
        Higher,
        &[CODEC],
        "rebuild_mbps",
        CODEC,
    ),
    layer("codes.coeff_us", "us", Lower, &[CODEC], "wall_s", SCALE1000),
    layer(
        "codes.encode_kernel_efficiency",
        "ratio",
        Higher,
        &[CODEC],
        "encode_mbps",
        CODEC,
    ),
    // simnet: timed calls, then EngineProfile counters summed over cells.
    layer("simnet.build_s", "s", Lower, SIM_ALL, "setup_s", SCALE1000),
    layer(
        "simnet.next_event_s",
        "s",
        Lower,
        SIM_ALL,
        "wall_s",
        FABRIC20,
    ),
    layer(
        "simnet.next_event_us",
        "us",
        Lower,
        SIM_ALL,
        "wall_s",
        FABRIC20,
    ),
    layer(
        "simnet.fault_inject_s",
        "s",
        Lower,
        &[CAMPAIGN20],
        "wall_s",
        CAMPAIGN20,
    ),
    layer("simnet.events", "count", Lower, SIM_ALL, "wall_s", FABRIC20),
    layer("simnet.solves", "count", Lower, SIM_ALL, "wall_s", FABRIC20),
    layer(
        "simnet.incremental_share",
        "ratio",
        Higher,
        SIM_ALL,
        "wall_s",
        FABRIC20,
    ),
    layer(
        "simnet.solver_rounds",
        "count",
        Lower,
        SIM_ALL,
        "wall_s",
        FABRIC20,
    ),
    layer(
        "simnet.heap_rebuilds",
        "count",
        Lower,
        SIM_ALL,
        "wall_s",
        REPAIR20,
    ),
    layer(
        "simnet.timer_fires",
        "count",
        Lower,
        SIM_ALL,
        "wall_s",
        REPAIR20,
    ),
    layer(
        "simnet.worst_overshoot",
        "ratio",
        Lower,
        SIM_ALL,
        "repair_mbps_sim",
        REPAIR20,
    ),
    // traces: direct generator calls.
    layer(
        "traces.next_request_ns",
        "ns",
        Lower,
        SIM_ALL,
        "wall_s",
        SCALE1000,
    ),
    // cluster
    layer("cluster.new_s", "s", Lower, SIM_ALL, "setup_s", SCALE1000),
    layer(
        "cluster.lost_chunks_us",
        "us",
        Lower,
        SIM_ALL,
        "setup_s",
        SCALE1000,
    ),
    layer(
        "cluster.fg_start_s",
        "s",
        Lower,
        SIM_ALL,
        "wall_s",
        SCALE1000,
    ),
    layer(
        "cluster.fg_on_event_s",
        "s",
        Lower,
        SIM_ALL,
        "wall_s",
        SCALE1000,
    ),
    layer(
        "cluster.fg_on_event_us",
        "us",
        Lower,
        SIM_ALL,
        "wall_s",
        SCALE1000,
    ),
    layer(
        "cluster.fg_requests",
        "count",
        Higher,
        SIM_ALL,
        "fg_p99_ms_sim",
        REPAIR20,
    ),
    layer(
        "cluster.fg_aborted",
        "count",
        Lower,
        &[CAMPAIGN20],
        "fg_p99_ms_sim",
        CAMPAIGN20,
    ),
    // core: driver calls include the flow admission they trigger inside
    // simnet, which cannot be separated from outside the crates.
    layer("core.start_s", "s", Lower, SIM_ALL, "wall_s", SCALE1000),
    layer("core.on_event_s", "s", Lower, SIM_ALL, "wall_s", SCALE1000),
    layer(
        "core.on_event_us",
        "us",
        Lower,
        SIM_ALL,
        "wall_s",
        SCALE1000,
    ),
    layer(
        "core.on_fault_s",
        "s",
        Lower,
        &[CAMPAIGN20],
        "wall_s",
        CAMPAIGN20,
    ),
    layer("core.coding_s", "s", Lower, SIM_ALL, "wall_s", REPAIR20),
    layer(
        "core.coding_mbps",
        "MB/s",
        Higher,
        SIM_ALL,
        "wall_s",
        REPAIR20,
    ),
    layer(
        "core.plan_us",
        "us",
        Lower,
        &[SCALE1000],
        "wall_s",
        SCALE1000,
    ),
    layer(
        "core.orch_on_event_s",
        "s",
        Lower,
        &[CAMPAIGN20],
        "wall_s",
        CAMPAIGN20,
    ),
    layer(
        "core.orch_on_fault_s",
        "s",
        Lower,
        &[CAMPAIGN20],
        "wall_s",
        CAMPAIGN20,
    ),
    layer(
        "core.ledger_render_s",
        "s",
        Lower,
        &[CAMPAIGN20],
        "wall_s",
        CAMPAIGN20,
    ),
    layer(
        "core.chunks_repaired",
        "count",
        Higher,
        SIM_ALL,
        "repair_mbps_sim",
        REPAIR20,
    ),
    layer(
        "core.replans",
        "count",
        Lower,
        &[CAMPAIGN20],
        "vuln_tail_s_sim",
        CAMPAIGN20,
    ),
    layer(
        "core.retries",
        "count",
        Lower,
        &[CAMPAIGN20],
        "vuln_tail_s_sim",
        CAMPAIGN20,
    ),
    layer(
        "core.aborted_flows",
        "count",
        Lower,
        &[CAMPAIGN20],
        "vuln_tail_s_sim",
        CAMPAIGN20,
    ),
    layer(
        "core.repair_goodput_ratio",
        "ratio",
        Higher,
        SIM_ALL,
        "vuln_tail_s_sim",
        CAMPAIGN20,
    ),
    // bench: the harness around the layers.
    layer("bench.harness_s", "s", Lower, SIM_ALL, "wall_s", REPAIR20),
    layer(
        "bench.summary_capture_s",
        "s",
        Lower,
        SIM_ALL,
        "wall_s",
        SCALE1000,
    ),
    layer(
        "bench.trace_overhead_pct",
        "%",
        Lower,
        ALL,
        "wall_s",
        REPAIR20,
    ),
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Whether the registry places metric `name` on `workload`.
pub fn measured_on(name: &str, workload: &str) -> bool {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.workloads));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.workloads));
    end_to_end
        .chain(per_layer)
        .any(|(n, on)| n == name && on.contains(&workload))
}

/// Where `name` stands in the registry's order: end-to-end metrics first,
/// then the layers bottom up.
pub fn position(name: &str) -> Option<usize> {
    END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .position(|n| n == name)
}

/// Whether `name` is one of the five workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// The metrics `BENCHMARK.json` lists, as `(name, unit, better)`.
///
/// The driver requires every `end_to_end` metric from every workload, so
/// only the metrics that exist everywhere can be gated there; the
/// workload-specific end-to-end metrics ride in front of the layer metrics
/// in `per_layer`, which a traced run reports and the driver records
/// without a bound. Their bounds live in [`END_TO_END`] and are enforced
/// by `--agree`.
pub fn driver_metrics(traced: bool) -> Vec<(&'static str, &'static str, Better)> {
    let scoped = END_TO_END
        .iter()
        .filter(|m| m.on_every_workload() != traced);
    let layers = PER_LAYER.iter().filter(|_| traced);
    scoped
        .map(|m| (m.name, m.unit, m.better))
        .chain(layers.map(|m| (m.name, m.unit, m.better)))
        .collect()
}
