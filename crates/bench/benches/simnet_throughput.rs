//! Simulator-throughput benchmark: sustained events/sec of `Simulator`
//! (incremental dirty-set max–min solver, group-level completion
//! tracking, completion heap) at 1k/10k/100k concurrent flows — on the
//! paper's 20-node cluster and on a 1000-node cluster the same workload
//! generator scales up to. The full-rescan oracle in `simnet::reference`
//! is not raced.
//!
//! Every ChameleonEC experiment replays a trace through `simnet`, so
//! events/sec is the wall-clock ceiling of the whole evaluation. The
//! results seed the perf trajectory: `results/BENCH_simnet.json` is
//! uploaded as a CI artifact, and the `bench-gate` CI job compares the
//! 20-node 10k-flow indexed point against the committed
//! `results/BENCH_simnet.baseline.json`, failing on a >20% regression.
//!
//! Modes:
//! - default: full sweep, including the 1000-node / 100k-flow points.
//! - `CHAMELEON_BENCH_SMOKE=1`: the 20-node levels only, with smaller
//!   event floors and time budgets — the CI gate configuration.
//!
//! Both modes end with the oversubscribed-spine gate point: the
//! 1000-node cluster racked as 25 ToRs behind a 1:4 spine, ~90%
//! rack-local traffic. `bench_gate` holds it to an absolute floor (see
//! `gate::SPINE_MIN_EVENTS_PER_SEC`).

use std::time::Instant;

use chameleon_bench::table::{write_result, Table};
use chameleon_simnet::{FlowSpec, NodeCaps, SimConfig, Simulator, Topology, Traffic};

/// Deterministic LCG: every run replays the identical workload.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn random_spec(rng: &mut Rng, nodes: usize) -> FlowSpec {
    let src = (rng.next() as usize) % nodes;
    let dst = (src + 1 + (rng.next() as usize) % (nodes - 1)) % nodes;
    // 1–64 MiB transfers, a plausible chunk/sub-chunk mix.
    let bytes = (1 + rng.next() % 64) << 20;
    let tag = match rng.next() % 10 {
        0..=5 => Traffic::Foreground,
        6..=8 => Traffic::Repair,
        _ => Traffic::Background,
    };
    FlowSpec::network(src, dst, bytes, tag)
}

/// Events the closed loop pops before it may stop on its time budget.
const MIN_EVENTS: u64 = 512;

/// Runs a closed-loop workload at a fixed concurrency: every completion
/// admits a replacement flow drawn from `spec`, so the solver always sees
/// `flows` active flows. Returns sustained events/sec.
fn closed_loop(
    mut sim: Simulator,
    flows: usize,
    budget_secs: f64,
    mut spec: impl FnMut() -> FlowSpec,
) -> f64 {
    // Batched admission: the initial burst costs one rate solve.
    sim.start_flows((0..flows).map(|_| spec()));

    let start = Instant::now();
    let mut events = 0u64;
    loop {
        sim.next_event().expect("closed loop never drains");
        sim.start_flow(spec());
        events += 1;
        if events.is_multiple_of(32)
            && events >= MIN_EVENTS
            && start.elapsed().as_secs_f64() > budget_secs
        {
            break;
        }
    }
    events as f64 / start.elapsed().as_secs_f64()
}

/// The flat sweep point: uniform random traffic over `nodes` nodes.
fn measure(nodes: usize, flows: usize, budget_secs: f64) -> f64 {
    let sim = Simulator::new(SimConfig::uniform(nodes, NodeCaps::default()));
    let mut rng = Rng(0x5EED ^ flows as u64 ^ ((nodes as u64) << 32));
    closed_loop(sim, flows, budget_secs, || random_spec(&mut rng, nodes))
}

/// A flow for the spine sweep: ~90% rack-local (round-robin rack
/// assignment puts a rack's nodes in one residue class mod `racks`), 10%
/// uniform — the cross-rack share rides the oversubscribed spine.
fn spine_spec(rng: &mut Rng, nodes: usize, racks: usize) -> FlowSpec {
    let src = (rng.next() as usize) % nodes;
    let per_rack = nodes / racks;
    let dst = if rng.next() % 10 < 9 {
        (src + racks * (1 + (rng.next() as usize) % (per_rack - 1))) % nodes
    } else {
        (src + 1 + (rng.next() as usize) % (nodes - 1)) % nodes
    };
    let bytes = (1 + rng.next() % 64) << 20;
    let tag = match rng.next() % 10 {
        0..=5 => Traffic::Foreground,
        6..=8 => Traffic::Repair,
        _ => Traffic::Background,
    };
    FlowSpec::network(src, dst, bytes, tag)
}

/// The spine gate point: the 1000-node cluster of the scalability sweep,
/// but racked — 25 ToRs behind a 1:4 oversubscribed spine (the gate holds
/// an absolute floor).
///
/// The point the measurement makes: shared link cells join the solver's
/// constraint rows for every cross-rack flow, yet the incremental closure
/// must not conduct through an unsaturated spine, nor through node cells
/// that have slack — if it did, every completion would dirty its racks or
/// the whole cluster and events/sec would collapse far below the gate
/// floor.
fn measure_spine(nodes: usize, flows: usize, budget_secs: f64) -> f64 {
    let racks = 25;
    let caps = NodeCaps::default();
    let tor = (nodes / racks) as f64 * caps.uplink;
    let mut cfg = SimConfig::uniform(nodes, caps);
    cfg.topology = Some(Topology::round_robin(
        nodes,
        racks,
        tor,
        tor,
        Some(racks as f64 * tor / 4.0),
    ));
    let mut rng = Rng(0x5EED ^ flows as u64 ^ ((nodes as u64) << 32));
    closed_loop(Simulator::new(cfg), flows, budget_secs, || {
        spine_spec(&mut rng, nodes, racks)
    })
}

fn main() {
    let smoke = std::env::var("CHAMELEON_BENCH_SMOKE").as_deref() == Ok("1");
    // (nodes, concurrent flows)
    let mut points = vec![(20, 1_000), (20, 10_000), (20, 100_000)];
    if !smoke {
        points.push((1_000, 100_000));
    }
    let budget = if smoke { 0.4 } else { 1.0 };

    println!(
        "simnet throughput: sustained events/sec, closed loop{}",
        if smoke { " (smoke mode)" } else { "" }
    );
    let mut table = Table::new(
        "BENCH_simnet",
        "simulator throughput (indexed engine)",
        &[
            ("nodes", "nodes"),
            ("concurrent flows", "flows"),
            ("indexed ev/s", "indexed_events_per_sec"),
        ],
    );
    let mut json_levels = Vec::new();
    for &(nodes, flows) in &points {
        let indexed = measure(nodes, flows, budget);
        table.push(vec![
            format!("{nodes}"),
            format!("{flows}"),
            format!("{indexed:.0}"),
        ]);
        json_levels.push(format!(
            "    {{\"nodes\": {nodes}, \"flows\": {flows}, \
             \"indexed_events_per_sec\": {indexed:.1}}}"
        ));
    }
    // The oversubscribed-spine gate point runs in smoke mode too: the CI
    // bench gate holds an absolute floor on it (the proof that only
    // saturated resources conduct the dirty closure — a conducting spine
    // would collapse this number).
    let spine = measure_spine(1_000, 1_500, budget);
    table.push(vec![
        "1000 (25 racks, 1:4 spine)".to_string(),
        "1500".to_string(),
        format!("{spine:.0}"),
    ]);
    json_levels.push(format!(
        "    {{\"topology\": \"spine\", \"nodes\": 1000, \"flows\": 1500, \
         \"indexed_events_per_sec\": {spine:.1}}}"
    ));

    print!("{table}");
    let json = format!(
        "{{\n  \"bench\": \"simnet_throughput\",\n  \"levels\": [\n{}\n  ]\n}}\n",
        json_levels.join(",\n")
    );
    write_result("BENCH_simnet.json", &json);
    println!(
        "gate: the 20-node 10k-flow indexed point must stay within 20% of \
         results/BENCH_simnet.baseline.json (run `bench_gate` to check)."
    );
}
