//! Simulator-throughput benchmark: sustained events/sec at 1k/10k/100k
//! concurrent flows, for the indexed engine (incremental dirty-set max–min
//! solver, group-level completion tracking, completion heap) against the
//! original full-rescan reference engine — on the paper's 20-node cluster
//! and on a 1000-node cluster the same workload generator scales up to.
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
//! rack-local traffic, indexed engine only. `bench_gate` holds it to an
//! absolute floor (see `gate::SPINE_MIN_EVENTS_PER_SEC`).

use std::time::Instant;

use chameleon_bench::table::{print_table, write_json};
use chameleon_simnet::{FlowSpec, NodeCaps, SimConfig, Simulator, Topology, Traffic};

/// Deterministic LCG so both engines replay the identical workload.
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

/// Runs a closed-loop workload at a fixed concurrency: every completion
/// admits a replacement flow, so the solver always sees `flows` active
/// flows. Returns sustained events/sec.
fn measure(nodes: usize, flows: usize, reference: bool, budget_secs: f64, min_events: u64) -> f64 {
    let mut sim = Simulator::new(SimConfig::uniform(nodes, NodeCaps::default()));
    sim.use_reference_engine(reference);
    let mut rng = Rng(0x5EED ^ flows as u64 ^ ((nodes as u64) << 32));
    // Batched admission: the initial burst costs one rate solve.
    sim.start_flows((0..flows).map(|_| random_spec(&mut rng, nodes)));

    let start = Instant::now();
    let mut events = 0u64;
    loop {
        sim.next_event().expect("closed loop never drains");
        sim.start_flow(random_spec(&mut rng, nodes));
        events += 1;
        if events.is_multiple_of(32)
            && events >= min_events
            && start.elapsed().as_secs_f64() > budget_secs
        {
            break;
        }
    }
    events as f64 / start.elapsed().as_secs_f64()
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
/// but racked — 25 ToRs behind a 1:4 oversubscribed spine. Indexed engine
/// only (the gate holds an absolute floor; there is no reference race).
///
/// The point the measurement makes: shared link cells join the solver's
/// constraint rows for every cross-rack flow, yet the incremental closure
/// must not conduct through an unsaturated spine, nor through node cells
/// that have slack — if it did, every completion would dirty its racks or
/// the whole cluster and events/sec would collapse far below the gate
/// floor.
fn measure_spine(nodes: usize, flows: usize, budget_secs: f64, min_events: u64) -> f64 {
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
    let mut sim = Simulator::new(cfg);
    let mut rng = Rng(0x5EED ^ flows as u64 ^ ((nodes as u64) << 32));
    sim.start_flows((0..flows).map(|_| spine_spec(&mut rng, nodes, racks)));

    let start = Instant::now();
    let mut events = 0u64;
    loop {
        sim.next_event().expect("closed loop never drains");
        sim.start_flow(spine_spec(&mut rng, nodes, racks));
        events += 1;
        if events.is_multiple_of(32)
            && events >= min_events
            && start.elapsed().as_secs_f64() > budget_secs
        {
            break;
        }
    }
    events as f64 / start.elapsed().as_secs_f64()
}

/// One sweep point: cluster size, concurrency, and the per-engine event
/// floors (the reference engine is O(rounds x flows) per event; smaller
/// floors keep the slow levels affordable).
struct Point {
    nodes: usize,
    flows: usize,
    indexed_floor: u64,
    reference_floor: u64,
}

fn main() {
    let smoke = std::env::var("CHAMELEON_BENCH_SMOKE").as_deref() == Ok("1");
    let mut points = vec![
        Point {
            nodes: 20,
            flows: 1_000,
            indexed_floor: 512,
            reference_floor: 32,
        },
        Point {
            nodes: 20,
            flows: 10_000,
            indexed_floor: 512,
            reference_floor: 32,
        },
        Point {
            nodes: 20,
            flows: 100_000,
            indexed_floor: 512,
            reference_floor: 32,
        },
    ];
    if !smoke {
        points.push(Point {
            nodes: 1_000,
            flows: 100_000,
            indexed_floor: 512,
            reference_floor: 32,
        });
    }
    let budget = if smoke { 0.4 } else { 1.0 };

    println!(
        "simnet throughput: sustained events/sec, closed loop{}",
        if smoke { " (smoke mode)" } else { "" }
    );
    let mut rows = Vec::new();
    let mut json_levels = Vec::new();
    for p in &points {
        let indexed = measure(p.nodes, p.flows, false, budget, p.indexed_floor);
        let reference = measure(p.nodes, p.flows, true, budget, p.reference_floor);
        let speedup = indexed / reference;
        rows.push(vec![
            format!("{}", p.nodes),
            format!("{}", p.flows),
            format!("{indexed:.0}"),
            format!("{reference:.0}"),
            format!("{speedup:.1}x"),
        ]);
        json_levels.push(format!(
            "    {{\"nodes\": {}, \"flows\": {}, \"indexed_events_per_sec\": {indexed:.1}, \
             \"reference_events_per_sec\": {reference:.1}, \"speedup\": {speedup:.2}}}",
            p.nodes, p.flows
        ));
    }
    // The oversubscribed-spine gate point runs in smoke mode too: the CI
    // bench gate holds an absolute floor on it (the proof that only
    // saturated resources conduct the dirty closure — a conducting spine
    // would collapse this number).
    let spine = measure_spine(1_000, 1_500, budget, 512);
    rows.push(vec![
        "1000 (25 racks, 1:4 spine)".to_string(),
        "1500".to_string(),
        format!("{spine:.0}"),
        "-".to_string(),
        "-".to_string(),
    ]);
    json_levels.push(format!(
        "    {{\"topology\": \"spine\", \"nodes\": 1000, \"flows\": 1500, \
         \"indexed_events_per_sec\": {spine:.1}}}"
    ));

    print_table(
        "simulator throughput (indexed vs reference engine)",
        &[
            "nodes",
            "concurrent flows",
            "indexed ev/s",
            "reference ev/s",
            "speedup",
        ],
        &rows,
    );
    let json = format!(
        "{{\n  \"bench\": \"simnet_throughput\",\n  \"levels\": [\n{}\n  ]\n}}\n",
        json_levels.join(",\n")
    );
    write_json("BENCH_simnet", &json);
    println!(
        "gate: the 20-node 10k-flow indexed point must stay within 20% of \
         results/BENCH_simnet.baseline.json (run `bench_gate` to check)."
    );
}
