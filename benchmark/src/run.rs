//! One workload, one process: warm-up, timed passes, output checks, and —
//! in a traced run — the traced pass, the probes and the trace file.

use std::time::Instant;

use chameleon_bench::client_seed;
use chameleon_cluster::stats::percentile;
use chameleon_cluster::ForegroundReport;
use chameleon_core::RepairOutcome;
use chameleon_simnet::EngineProfile;

use crate::codec::{self, CodecPass, CodecWorkload};
use crate::host;
use crate::json::Json;
use crate::probes::{self, Readings};
use crate::registry::{self, PER_LAYER};
use crate::sim::{self, CellResult, SimWorkload, Verdict};
use crate::spans::Recorder;
use crate::traced;

/// Default `--seconds`; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u64 = 16;

/// Timed passes a comparable run never goes below, whatever `--seconds`.
pub const MIN_PASSES: usize = 5;

/// Untraced passes a traced run makes for its overhead baseline and the
/// traced-equals-untraced check.
const TRACED_RUN_PASSES: usize = 2;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// One of the five workload names.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds of timed passes to aim for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a timed run (end-to-end).
    pub trace: bool,
    /// Tiny sizes, one pass: a smoke test whose numbers compare with nothing.
    pub quick: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name from the registry.
    pub name: &'static str,
    /// Unit from the registry.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Spread over passes, percentile and sample count, or other context.
    pub note: String,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// The arguments it ran with.
    pub args: RunArgs,
    /// Timed (untraced) passes made after the warm-up.
    pub passes: usize,
    /// End-to-end metrics that exist on this workload.
    pub end_to_end: Vec<Reading>,
    /// Per-layer metrics measured on this workload (traced runs only).
    pub per_layer: Vec<Reading>,
    /// Operation counts and violated checks.
    pub verdict: Verdict,
    /// Where the trace was written, if this was a traced run.
    pub trace_file: Option<String>,
}

impl Report {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.verdict.problems.is_empty() && self.verdict.failed == 0
    }

    /// The line the driver reads: `correct`, `attempted`, `failed` and
    /// every metric `BENCHMARK.json` lists for this kind of run. A metric
    /// this workload does not have reads 0. With `everything`, the line
    /// carries every reading the run took instead (for `--agree`).
    pub fn result_line(&self, everything: bool) -> String {
        let measured = || self.per_layer.iter().chain(&self.end_to_end);
        let pair = |name: &str, unit: &str, value: f64| {
            (
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        };
        let metrics: Vec<(String, Json)> = if everything {
            measured().map(|r| pair(r.name, r.unit, r.value)).collect()
        } else {
            registry::driver_metrics(self.args.trace)
                .into_iter()
                .map(|(name, unit, _)| {
                    let value = measured().find(|r| r.name == name).map_or(0.0, |r| r.value);
                    pair(name, unit, value)
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.verdict.attempted.max(1) as f64)),
            ("failed", Json::Num(self.verdict.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The report for people: every metric by name with its unit.
    pub fn render(&self) -> String {
        let a = &self.args;
        let mut out = format!(
            "# chameleon-benchmark workload={} seed={} trace={} passes={} (+1 warm-up)\n",
            a.workload,
            a.seed,
            u8::from(a.trace),
            self.passes
        );
        if a.quick {
            out.push_str("# QUICK: sizes shrunk, one pass - these numbers compare with nothing\n");
        }
        out.push('#');
        for (k, v) in host::environment() {
            out.push_str(&format!(" {k}={v};"));
        }
        out.push('\n');
        let mut section = |title: &str, readings: &[Reading]| {
            if readings.is_empty() {
                return;
            }
            out.push_str(title);
            out.push('\n');
            for r in readings {
                out.push_str(&format!(
                    "  {:<32} {:>16.6} {:<6} {}\n",
                    r.name, r.value, r.unit, r.note
                ));
            }
        };
        section(
            "end-to-end (host metrics: median over the timed passes; _sim: simulated time, exact for a seed)",
            &self.end_to_end,
        );
        section(
            "per-layer (traced pass; core.* driver calls include the flow admission they trigger inside simnet)",
            &self.per_layer,
        );
        let v = &self.verdict;
        out.push_str(&format!(
            "ops_attempted {} ops_failed {} ops_fault_induced {}\n",
            v.attempted, v.failed, v.fault_induced
        ));
        if let Some(path) = &self.trace_file {
            out.push_str(&format!("trace written to {path}\n"));
        }
        if self.correct() {
            out.push_str("checks: ok\n");
        } else {
            out.push_str("checks: FAILED\n");
            for p in &v.problems {
                out.push_str(&format!("  - {p}\n"));
            }
        }
        out
    }
}

fn reading(name: &'static str, value: f64, note: String) -> Reading {
    let unit = registry::end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("`{name}` is not in the registry"));
    Reading {
        name,
        unit,
        value,
        note,
    }
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).expect("at least one pass was made")
}

/// A host measurement repeated over the timed passes: the median is the
/// value; min, max and n show how steady it was.
fn host_reading(name: &'static str, samples: &[f64]) -> Reading {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    reading(
        name,
        median(samples),
        format!("(min {min:.6}, max {max:.6}, n={})", samples.len()),
    )
}

/// Decides after each timed pass whether to make another: at least
/// `min_passes`, then as many as fit in `seconds`.
struct Budget {
    started: Instant,
    seconds: f64,
    min_passes: usize,
}

impl Budget {
    fn new(args: &RunArgs) -> Budget {
        // Quick and traced runs make a fixed number of passes.
        let (min_passes, seconds) = match (args.quick, args.trace) {
            (true, _) => (1, 0.0),
            (false, true) => (TRACED_RUN_PASSES, 0.0),
            (false, false) => (MIN_PASSES, args.seconds),
        };
        Budget {
            started: Instant::now(),
            seconds,
            min_passes,
        }
    }

    fn wants_more(&self, done: usize) -> bool {
        if done < self.min_passes {
            return true;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        elapsed + elapsed / done as f64 <= self.seconds
    }
}

/// Runs one workload as the arguments say.
///
/// # Panics
///
/// Panics if the workload name is unknown (the CLI checks it first).
pub fn run(args: &RunArgs) -> Report {
    if args.workload == registry::CODEC {
        run_codec(args)
    } else {
        run_sim(args)
    }
}

/// What a traced pass adds to a report.
struct Traced {
    rec: Recorder,
    readings: Readings,
    /// Note printed beside the last reading.
    note: String,
}

/// Puts a report together: adds the peak RSS, keeps the readings the
/// registry places on this workload, orders them like the registry, and
/// writes the trace file of a traced run.
fn assemble(
    args: &RunArgs,
    passes: usize,
    mut end_to_end: Vec<Reading>,
    traced: Option<Traced>,
    mut verdict: Verdict,
) -> Report {
    end_to_end.push(reading("peak_rss_mib", host::peak_rss_mib(), String::new()));
    let mut per_layer = Vec::new();
    let mut trace_file = None;
    let tidy = |readings: &mut Vec<Reading>| {
        readings.retain(|r| registry::measured_on(r.name, &args.workload));
        readings.sort_by_key(|r| registry::position(r.name));
    };
    tidy(&mut end_to_end);
    if let Some(Traced {
        rec,
        readings,
        note,
    }) = traced
    {
        per_layer = readings
            .into_iter()
            .map(|(name, value)| reading(name, value, String::new()))
            .collect();
        tidy(&mut per_layer);
        if let Some(last) = per_layer.last_mut() {
            last.note = note;
        }
        trace_file = write_trace(args, &rec, &per_layer, &mut verdict);
    }
    Report {
        args: args.clone(),
        passes,
        end_to_end,
        per_layer,
        verdict,
        trace_file,
    }
}

fn run_sim(args: &RunArgs) -> Report {
    let wl = SimWorkload::build(&args.workload, args.seed, args.quick);
    let mut verdict = Verdict::default();

    // Warm-up: allocator, page cache and lazy statics, not measured.
    let (reference, _) = sim::run_pass(&wl);
    let reference_verdict = sim::check_pass(&wl, &reference);

    let budget = Budget::new(args);
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    while budget.wants_more(walls.len()) {
        let t0 = Instant::now();
        std::hint::black_box(wl.build_inputs(args.seed, args.quick));
        setups.push(t0.elapsed().as_secs_f64());
        let (results, wall) = sim::run_pass(&wl);
        walls.push(wall);
        if same_facts(&results, &reference) {
            verdict.absorb(reference_verdict.clone());
        } else {
            verdict.absorb(sim::check_pass(&wl, &results));
            verdict.problems.push(format!(
                "pass {} of one seed differs from the warm-up pass",
                walls.len()
            ));
        }
    }

    let mut end_to_end = vec![
        host_reading("setup_s", &setups),
        host_reading("wall_s", &walls),
    ];
    end_to_end.extend(
        sim::sim_metrics(&wl, &reference)
            .into_iter()
            .map(|(name, value, note)| reading(name, value, note)),
    );

    let traced = args.trace.then(|| {
        let mut rec = Recorder::default();
        let t0 = Instant::now();
        let traced = traced::run_pass(&wl, &mut rec);
        let traced_wall = t0.elapsed().as_secs_f64();

        let plan_seed = client_seed(args.seed, 104);
        let mut results = Vec::new();
        for (cell, traced_cell) in wl.cells.iter().zip(traced) {
            results.push(traced_cell.map(|t| {
                let wrong = traced::verify_plans(&*wl.code, plan_seed, &t.plans);
                verdict.attempted += t.plans.len() as u64;
                verdict.failed += wrong.len() as u64;
                verdict
                    .problems
                    .extend(wrong.into_iter().map(|w| format!("{}: {w}", cell.label)));
                t.result
            }));
        }
        if !same_facts(&results, &reference) {
            verdict
                .problems
                .push("the traced loop does not reproduce the untraced cells' facts".into());
        }
        let (mut readings, coverage) = sim_layers(&rec, &results, median(&walls), traced_wall);
        if coverage < 0.9 {
            verdict.problems.push(format!(
                "per-layer sums cover only {:.1}% of the traced loops",
                coverage * 100.0
            ));
        }
        readings.extend(probes::traces(client_seed(args.seed, 102), args.quick));
        if registry::measured_on("core.plan_us", &args.workload) {
            readings.extend(probes::planning(args.seed, args.quick));
        }
        Traced {
            rec,
            readings,
            note: format!(
                "(layer sums cover {:.1}% of the traced loops)",
                coverage * 100.0
            ),
        }
    });
    assemble(args, walls.len(), end_to_end, traced, verdict)
}

fn same_facts(a: &[Result<CellResult, String>], b: &[Result<CellResult, String>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Ok(x), Ok(y)) => x.facts == y.facts,
            _ => false,
        })
}

/// Every per-layer reading a traced pass of simulated cells supports (the
/// registry decides which the workload reports), and the share of the
/// traced loops' wall the per-event boundaries account for.
fn sim_layers(
    rec: &Recorder,
    results: &[Result<CellResult, String>],
    untraced_wall: f64,
    traced_wall: f64,
) -> (Readings, f64) {
    let per_call_us = |secs: f64, calls: u64| secs / calls.max(1) as f64 * 1e6;
    let cells: Vec<&CellResult> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let sum = |f: &dyn Fn(&CellResult) -> f64| cells.iter().map(|c| f(c)).sum::<f64>();
    let outcome =
        |f: &dyn Fn(&RepairOutcome) -> f64| sum(&|c| c.facts.outcome.as_ref().map_or(0.0, f));
    let fg = |f: &dyn Fn(&ForegroundReport) -> usize| {
        sum(&|c| c.facts.fg.as_ref().map_or(0.0, |r| f(r) as f64))
    };
    let profile = |f: &dyn Fn(&EngineProfile) -> u64| sum(&|c| f(&c.facts.profile) as f64);

    let next_event = rec.total("simnet.next_event");
    let inject = rec.total("simnet.fault_inject");
    let fg_on_event = rec.total("cluster.fg_on_event");
    let on_event = rec.total("core.on_event");
    let on_fault = rec.total("core.on_fault");
    let start_in_event = rec.total("core.start_in_event");
    let start_in_fault = rec.total("core.start_in_fault");
    let orch_event = rec.total("core.orch_on_event");
    let orch_fault = rec.total("core.orch_on_fault");
    let start_s = rec.span_secs("core.start") + start_in_event.secs() + start_in_fault.secs();
    // The orchestrator's own share of its calls: what is left after the
    // driver calls made inside them.
    let orch_event_self = (orch_event.secs() - on_event.secs() - start_in_event.secs()).max(0.0);
    let orch_fault_self = (orch_fault.secs() - on_fault.secs() - start_in_fault.secs()).max(0.0);

    let coding_s = sum(&|c| c.coding.total_nanos() as f64) / 1e9;
    let coding_bytes = sum(&|c| c.coding.bytes_coded as f64);
    let repaired = outcome(&|o| o.repaired_bytes);
    let wasted = outcome(&|o| o.recovery.wasted_repair_bytes);
    let solves = profile(&|p| p.solves);

    let build_s = rec.span_secs("simnet.build");
    let cluster_new_s = rec.span_secs("cluster.new");
    let lost_chunks_s = rec.span_secs("cluster.lost_chunks");
    let fg_start_s = rec.span_secs("cluster.fg_start");
    let ledger_s = rec.span_secs("core.ledger_render");
    let inject_s = inject.secs() + rec.span_secs("simnet.fault_inject.arm");

    // Disjoint layer time of the traced pass; what the pass spends beyond
    // it is the harness (driver construction, contexts, result capture,
    // drops). Both terms carry the clock reads, so tracing overhead, which
    // is reported on its own, does not leak into the difference.
    let layer_sum = build_s
        + next_event.secs()
        + inject_s
        + cluster_new_s
        + lost_chunks_s
        + fg_start_s
        + fg_on_event.secs()
        + start_s
        + on_event.secs()
        + on_fault.secs()
        + orch_event_self
        + orch_fault_self
        + ledger_s
        + rec.span_secs("traces.build");
    // The outermost calls of the loops: under an orchestrator the driver
    // calls sit inside its calls.
    let outer_core = if orch_event.count > 0 {
        orch_event.secs() + orch_fault.secs()
    } else {
        on_event.secs()
    };
    let coverage = (next_event.secs() + inject.secs() + fg_on_event.secs() + outer_core)
        / rec.span_secs("loop");

    let readings = vec![
        ("simnet.build_s", build_s),
        ("simnet.next_event_s", next_event.secs()),
        (
            "simnet.next_event_us",
            per_call_us(next_event.secs(), next_event.count),
        ),
        ("simnet.fault_inject_s", inject_s),
        ("simnet.events", profile(&|p| p.events)),
        ("simnet.solves", solves),
        (
            "simnet.incremental_share",
            profile(&|p| p.incremental_solves) / solves.max(1.0),
        ),
        ("simnet.solver_rounds", profile(&|p| p.solver_rounds)),
        ("simnet.heap_rebuilds", profile(&|p| p.heap_rebuilds)),
        ("simnet.timer_fires", profile(&|p| p.timer_fires)),
        (
            "simnet.worst_overshoot",
            cells.iter().map(|c| c.facts.overshoot).fold(0.0, f64::max),
        ),
        ("cluster.new_s", cluster_new_s),
        (
            "cluster.lost_chunks_us",
            per_call_us(lost_chunks_s, rec.span_count("cluster.lost_chunks") as u64),
        ),
        ("cluster.fg_start_s", fg_start_s),
        ("cluster.fg_on_event_s", fg_on_event.secs()),
        (
            "cluster.fg_on_event_us",
            per_call_us(fg_on_event.secs(), fg_on_event.count),
        ),
        ("cluster.fg_requests", fg(&|r| r.completed)),
        ("cluster.fg_aborted", fg(&|r| r.aborted)),
        ("core.start_s", start_s),
        ("core.on_event_s", on_event.secs()),
        (
            "core.on_event_us",
            per_call_us(on_event.secs(), on_event.count),
        ),
        ("core.on_fault_s", on_fault.secs()),
        ("core.coding_s", coding_s),
        ("core.coding_mbps", coding_bytes / 1e6 / coding_s.max(1e-12)),
        ("core.orch_on_event_s", orch_event_self),
        ("core.orch_on_fault_s", orch_fault_self),
        ("core.ledger_render_s", ledger_s),
        (
            "core.chunks_repaired",
            outcome(&|o| o.chunks_repaired as f64),
        ),
        ("core.replans", outcome(&|o| o.recovery.replans as f64)),
        ("core.retries", outcome(&|o| o.recovery.retries as f64)),
        (
            "core.aborted_flows",
            outcome(&|o| o.recovery.aborted_flows as f64),
        ),
        (
            "core.repair_goodput_ratio",
            repaired / (repaired + wasted).max(1.0),
        ),
        ("bench.harness_s", traced_wall - layer_sum),
        (
            "bench.summary_capture_s",
            rec.span_secs("bench.summary_capture"),
        ),
        (
            "bench.trace_overhead_pct",
            (traced_wall - untraced_wall) / untraced_wall * 100.0,
        ),
    ];
    (readings, coverage)
}

fn run_codec(args: &RunArgs) -> Report {
    let mut wl = CodecWorkload::build(args.seed, args.quick);
    let mut verdict = Verdict::default();
    std::hint::black_box(codec::run_pass(&wl, None));

    let budget = Budget::new(args);
    let mut setups = Vec::new();
    let mut passes: Vec<CodecPass> = Vec::new();
    while budget.wants_more(passes.len()) {
        // Rebuilt in place, so two copies of the working sets never
        // coexist and the peak RSS is that of one.
        drop(wl);
        let t0 = Instant::now();
        wl = CodecWorkload::build(args.seed, args.quick);
        setups.push(t0.elapsed().as_secs_f64());
        let pass = codec::run_pass(&wl, None);
        verdict.absorb(pass.verdict.clone());
        passes.push(pass);
    }
    let samples = |f: &dyn Fn(&CodecPass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let walls = samples(&CodecPass::wall_secs);
    let end_to_end = vec![
        host_reading("setup_s", &setups),
        host_reading("wall_s", &walls),
        host_reading("encode_mbps", &samples(&|p| p.encode_mbps(&wl))),
        host_reading("rebuild_mbps", &samples(&|p| p.rebuild_mbps(&wl))),
    ];

    let traced = args.trace.then(|| {
        let mut rec = Recorder::default();
        let traced = codec::run_pass(&wl, Some(&mut rec));
        verdict.absorb(traced.verdict.clone());
        let [small, large] = &wl.sets;
        let [ts, tl] = traced.times;
        let mbps = |chunks: usize, set: &codec::WorkingSet, secs: f64| {
            (set.reps * chunks * set.chunk_bytes) as f64 / 1e6 / secs
        };
        let mut readings = vec![
            (
                "codes.rs_encode_small_mbps",
                mbps(10, small, ts.encode.secs()),
            ),
            (
                "codes.rs_encode_large_mbps",
                mbps(10, large, tl.encode.secs()),
            ),
            (
                "codes.rs_repair1_small_mbps",
                mbps(1, small, ts.repair.secs()),
            ),
            (
                "codes.rs_repair1_large_mbps",
                mbps(1, large, tl.repair.secs()),
            ),
            (
                "codes.rs_decode2_large_mbps",
                mbps(2, large, tl.decode.secs()),
            ),
        ];
        readings.extend(probes::gf(args.seed, args.quick));
        readings.extend(probes::codes(args.seed, args.quick));
        let value = |name: &str| {
            readings
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v)
        };
        // Share of the kernel's speed that survives allocation and copying:
        // m parity rows each stream the data once through mul_xor.
        let efficiency = value("codes.rs_encode_large_mbps") * 4.0 / value("gf.mul_xor_mbps");
        let untraced = median(&walls);
        readings.extend([
            ("codes.encode_kernel_efficiency", efficiency),
            (
                "bench.trace_overhead_pct",
                (traced.wall_secs() - untraced) / untraced * 100.0,
            ),
        ]);
        Traced {
            rec,
            readings,
            note: String::new(),
        }
    });
    assemble(args, passes.len(), end_to_end, traced, verdict)
}

/// Writes spans, aggregates and the per-layer readings to
/// `out/trace_<workload>.json` in the package directory.
fn write_trace(
    args: &RunArgs,
    rec: &Recorder,
    per_layer: &[Reading],
    verdict: &mut Verdict,
) -> Option<String> {
    let (spans, aggregates) = rec.to_json();
    let doc = Json::obj([
        ("workload", Json::str(&*args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("comparable", Json::Bool(!args.quick)),
        ("environment", host::environment_json()),
        (
            "per_layer",
            Json::obj(per_layer.iter().map(|r| {
                (
                    r.name,
                    Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(r.unit))]),
                )
            })),
        ),
        ("spans", spans),
        ("aggregates", aggregates),
    ]);
    let dir = format!("{}/out", host::PACKAGE_DIR);
    let path = format!("{dir}/trace_{}.json", args.workload);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.render())) {
        Ok(()) => Some(path),
        Err(e) => {
            verdict
                .problems
                .push(format!("trace file {path} not written: {e}"));
            None
        }
    }
}
