//! Property-based tests for the simulator: fairness invariants, byte
//! conservation, determinism under random flow workloads, and the
//! differential suite proving the engine (incremental solver, class
//! tables, completion heap) matches `simnet::reference` — rate for rate
//! bitwise, and event for event.

use chameleon_simnet::reference::{allocate_rates, ReferenceSim};
use chameleon_simnet::{
    faults::splitmix64, Event, FlowId, FlowOutcome, FlowSpec, Monitor, NodeCaps, ResourceKind,
    SimConfig, Simulator, Topology, Traffic,
};
use proptest::prelude::*;

/// The spine behind the 60 B/s ToR links of the racked differential tests
/// (two busy 40 B/s uplinks fill one): narrower (so the solver drops every
/// ToR link), equal, wider, or absent (so every ToR link can bind and is
/// solved).
const SPINES: [Option<f64>; 4] = [Some(45.0), Some(60.0), Some(120.0), None];

/// The largest share by which any link of `topo` carried more than its
/// capacity in any window of `m` (≤ 0 when every link kept within it).
fn worst_link_overshoot(m: &Monitor, topo: &Topology) -> f64 {
    let mut worst = f64::NEG_INFINITY;
    for w in 0..m.window_count() {
        for link in 0..topo.link_count() {
            let bytes: f64 = Traffic::ALL
                .iter()
                .map(|&tag| m.link_usage(w, link, tag).bytes)
                .sum();
            worst = worst.max(bytes / (topo.link_capacity(link) * m.window_secs()) - 1.0);
        }
    }
    worst
}

/// Random flow sets over a small resource graph.
fn flows_strategy(resources: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..resources, 1..=3)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
        1..20,
    )
}

proptest! {
    #[test]
    fn maxmin_never_exceeds_capacity_and_is_pareto(
        caps in proptest::collection::vec(0.5f64..100.0, 4..8),
        flows in flows_strategy(4),
    ) {
        let flows: Vec<Vec<usize>> = flows
            .into_iter()
            .map(|f| f.into_iter().filter(|&r| r < caps.len()).collect::<Vec<_>>())
            .filter(|f: &Vec<usize>| !f.is_empty())
            .collect();
        prop_assume!(!flows.is_empty());
        let rates = allocate_rates(&caps, &flows, &vec![1; flows.len()]);
        // Feasibility.
        let mut used = vec![0.0; caps.len()];
        for (f, flow) in flows.iter().enumerate() {
            prop_assert!(rates[f] >= 0.0);
            for &r in flow {
                used[r] += rates[f];
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            prop_assert!(*u <= c + 1e-6, "{u} > {c}");
        }
        // Pareto efficiency: every flow crosses a saturated resource.
        for flow in &flows {
            prop_assert!(
                flow.iter().any(|&r| used[r] >= caps[r] - 1e-6),
                "flow {flow:?} could be raised"
            );
        }
    }

    #[test]
    fn maxmin_is_fair_on_shared_bottleneck(
        n in 2usize..10,
        cap in 1.0f64..100.0,
    ) {
        // n identical flows over one resource: all get cap / n.
        let rates = allocate_rates(&[cap], &vec![vec![0]; n], &vec![1; n]);
        for r in rates {
            prop_assert!((r - cap / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn simulation_conserves_bytes(
        seed in any::<u64>(),
        flow_count in 1usize..12,
    ) {
        let caps = NodeCaps::symmetric(100.0, 50.0);
        let mut sim = Simulator::new(SimConfig::uniform(4, caps));
        let mut state = seed;
        let mut next = move || splitmix64(&mut state) >> 33;
        let mut expected = [0.0f64; 4];
        for _ in 0..flow_count {
            let src = (next() % 4) as usize;
            let mut dst = (next() % 4) as usize;
            if dst == src {
                dst = (dst + 1) % 4;
            }
            let bytes = 1 + next() % 500;
            expected[src] += bytes as f64;
            sim.start_flow(FlowSpec::network(src, dst, bytes, Traffic::Repair));
        }
        let mut completions = 0;
        while let Some(ev) = sim.next_event() {
            if matches!(ev, Event::FlowCompleted { .. }) {
                completions += 1;
            }
        }
        prop_assert_eq!(completions, flow_count);
        for node in 0..4 {
            let moved = sim
                .monitor()
                .total_bytes(node, ResourceKind::Uplink, Traffic::Repair);
            prop_assert!(
                (moved - expected[node]).abs() < 1e-3,
                "node {node}: {moved} vs {}",
                expected[node]
            );
        }
        // Monitor never over-reports capacity.
        let caps_vec = vec![caps; 4];
        prop_assert!(sim.monitor().worst_overshoot(&caps_vec) < 1e-6);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn monitor_conserves_bytes_under_random_windows_and_schedules(
        seed in any::<u64>(),
        flow_count in 1usize..12,
        window_decis in 1u32..150,
    ) {
        // The invariant both Monitor window bugfixes protect: whatever the
        // window length (including non-representable ones like 0.1) and
        // however flows are staggered in time, the bytes the monitor
        // attributes across windows equal the bytes the engine delivered.
        let caps = NodeCaps::symmetric(100.0, 50.0);
        let mut cfg = SimConfig::uniform(4, caps);
        cfg.monitor_window_secs = window_decis as f64 * 0.1;
        let mut sim = Simulator::new(cfg);
        let mut state = seed;
        let mut next = move || splitmix64(&mut state) >> 33;
        let mut up = [0.0f64; 4];
        let mut down = [0.0f64; 4];
        let mut pending: Vec<(u64, usize, usize, u64)> = Vec::new();
        for i in 0..flow_count {
            let src = (next() % 4) as usize;
            let dst = (src + 1 + (next() % 3) as usize) % 4;
            let bytes = 1 + next() % 5000;
            let delay = next() % 50; // tenths of a second
            up[src] += bytes as f64;
            down[dst] += bytes as f64;
            if delay == 0 {
                sim.start_flow(FlowSpec::network(src, dst, bytes, Traffic::Repair));
            } else {
                sim.schedule_in(delay as f64 * 0.1, i as u64);
                pending.push((i as u64, src, dst, bytes));
            }
        }
        while let Some(ev) = sim.next_event() {
            if let Event::Timer { key, .. } = ev {
                if let Some(pos) = pending.iter().position(|&(k, ..)| k == key) {
                    let (_, src, dst, bytes) = pending.remove(pos);
                    sim.start_flow(FlowSpec::network(src, dst, bytes, Traffic::Repair));
                }
            }
        }
        for node in 0..4 {
            let sent = sim
                .monitor()
                .total_bytes(node, ResourceKind::Uplink, Traffic::Repair);
            prop_assert!(
                (sent - up[node]).abs() < 1e-3,
                "uplink {node}: monitor {sent} vs delivered {}",
                up[node]
            );
            let recv = sim
                .monitor()
                .total_bytes(node, ResourceKind::Downlink, Traffic::Repair);
            prop_assert!(
                (recv - down[node]).abs() < 1e-3,
                "downlink {node}: monitor {recv} vs delivered {}",
                down[node]
            );
        }
        // No window over-reports capacity either.
        let caps_vec = vec![caps; 4];
        prop_assert!(sim.monitor().worst_overshoot(&caps_vec) < 1e-6);
    }

    #[test]
    fn engine_matches_reference_on_dynamic_workloads(
        seed in any::<u64>(),
        op_count in 4usize..24,
        racks in 1usize..4,
        spine in 0usize..SPINES.len(),
    ) {
        // A scripted dynamic workload: flows admitted at time zero and via
        // timers as the run unfolds, plus occasional cancellations —
        // exercising the completion heap, the incremental class tables,
        // and lazy remaining-materialization against the reference engine.
        // With `racks > 1` the nodes sit behind round-robin ToRs and one
        // of `SPINES`, so link cells join the solve (all of them, or only
        // the spine's) and the monitor's link totals are compared too.
        let topology = (racks > 1)
            .then(|| Topology::round_robin(5, racks, 60.0, 60.0, SPINES[spine]));
        let cfg = || {
            let mut cfg = SimConfig::uniform(5, NodeCaps::symmetric(40.0, 25.0));
            cfg.topology = topology.clone();
            cfg
        };
        let ops: Vec<(u64, u64, u64, u64, u64)> = {
            let mut state = seed;
            let mut next = move || splitmix64(&mut state) >> 33;
            (0..op_count)
                .map(|_| (next(), next(), next(), next(), next()))
                .collect()
        };
        // One body for both engines: `$sim` is a `Simulator` or a
        // `ReferenceSim`, which share these method names.
        macro_rules! run { ($sim:expr) => {{
            let mut sim = $sim;
            let tags = [Traffic::Foreground, Traffic::Repair, Traffic::Background];
            let mut started = Vec::new();
            let mut pending: Vec<(u64, u64, u64, u64)> = Vec::new();
            for (i, &(delay, src, bytes, tag, cancel)) in ops.iter().enumerate() {
                let delay = delay % 8; // 0..8 tenths of a second
                if delay == 0 {
                    let src = (src % 5) as usize;
                    let dst = (src + 1 + (bytes % 4) as usize) % 5;
                    let tag = tags[(tag % 3) as usize];
                    let spec = FlowSpec::network(src, dst, 1 + bytes % 200, tag);
                    started.push((sim.start_flow(spec), tag));
                } else {
                    sim.schedule_in(delay as f64 * 0.1, i as u64);
                    pending.push((src, bytes, tag, cancel));
                }
            }
            let mut log = Vec::new();
            let mut pending_at = 0usize;
            while let Some(ev) = sim.next_event() {
                log.push((format!("{ev:?}"), sim.now().as_secs()));
                if let Event::Timer { .. } = ev {
                    if pending_at < pending.len() {
                        let (src, bytes, tag, cancel) = pending[pending_at];
                        pending_at += 1;
                        if cancel % 4 == 0 && !started.is_empty() {
                            // Cancel an earlier flow (possibly already done).
                            let (victim, tag) = started[(cancel as usize / 4) % started.len()];
                            let mut left = sim.cancel_flow(victim);
                            if left.is_some_and(|v| v <= 1e-6) {
                                // At most the engines' `EPS_BYTES` "finished"
                                // threshold left: the victim's completion ties
                                // with this timer, and the engines may order
                                // the tie either way. Log the completion, then
                                // a cancel after it.
                                let done = Event::FlowCompleted {
                                    id: victim,
                                    tag,
                                    outcome: FlowOutcome::Delivered,
                                    owner: 0,
                                };
                                log.push((format!("{done:?}"), sim.now().as_secs()));
                                left = None;
                            }
                            // Round: lazy vs stepwise materialization may
                            // differ in the last ulp of `remaining`.
                            let left = left.map(|v| (v * 1e6).round() / 1e6);
                            log.push((format!("cancel {victim} -> {left:?}"), sim.now().as_secs()));
                        } else {
                            let src = (src % 5) as usize;
                            let dst = (src + 1 + (bytes % 4) as usize) % 5;
                            let tag = tags[(tag % 3) as usize];
                            let spec = FlowSpec::network(src, dst, 1 + bytes % 200, tag);
                            started.push((sim.start_flow(spec), tag));
                        }
                    }
                }
            }
            // Snapshot the monitor per cell for cross-engine comparison.
            let m = sim.monitor();
            if let Some(topo) = &topology {
                let worst = worst_link_overshoot(m, topo);
                prop_assert!(worst <= 1e-6, "a link carried {} over its capacity", worst);
            }
            let mut totals = Vec::new();
            for tag in Traffic::ALL {
                for node in 0..5 {
                    for kind in ResourceKind::ALL {
                        totals.push(m.total_bytes(node, kind, tag));
                    }
                }
                for link in 0..m.link_count() {
                    totals.push(m.link_total_bytes(link, tag));
                }
            }
            (log, totals)
        }}}
        // Events at the same instant are a genuine tie: the reference
        // engine recomputes completion times stepwise at every event while
        // the heap keeps the prediction from the last rate change, so
        // exact ties can resolve in either order at the last ulp.
        // Canonicalize ties (sort within 1e-9 groups) before comparing.
        let canonicalize = |log: &[(String, f64)]| {
            let mut out = log.to_vec();
            let mut i = 0;
            while i < out.len() {
                let mut j = i + 1;
                while j < out.len() && (out[j].1 - out[i].1).abs() < 1e-9 {
                    j += 1;
                }
                out[i..j].sort_by(|a, b| a.0.cmp(&b.0));
                i = j;
            }
            out
        };
        let (fast_log, fast_totals) = run!(Simulator::new(cfg()));
        let (slow_log, slow_totals) = run!(ReferenceSim::new(cfg()));
        prop_assert_eq!(fast_log.len(), slow_log.len(), "event counts diverge");
        let fast_log = canonicalize(&fast_log);
        let slow_log = canonicalize(&slow_log);
        for ((ea, ta), (eb, tb)) in fast_log.iter().zip(&slow_log) {
            prop_assert_eq!(ea, eb, "event order diverges");
            prop_assert!((ta - tb).abs() < 1e-9, "event times diverge: {} vs {}", ta, tb);
        }
        for (a, b) in fast_totals.iter().zip(&slow_totals) {
            prop_assert!((a - b).abs() < 1e-3, "monitor bytes diverge: {} vs {}", a, b);
        }
    }

    #[test]
    fn incremental_solve_is_bit_identical_to_full_solve(
        seed in any::<u64>(),
        op_count in 4usize..32,
        racks in 1usize..4,
        spine in 0usize..SPINES.len(),
    ) {
        // The tentpole invariant of the incremental solver: after ANY
        // prefix of a randomized admit / complete / restart / cancel /
        // fault / rescale schedule, diffing the mutations and re-solving
        // only the closure of the genuine ones leaves every group rate —
        // as the engine's groups hold it — bit-identical to a from-scratch
        // full solve over the entire live flow set.
        // `verify_against_full_solve` refreshes and asserts bitwise
        // equality (it panics on the first divergence). With `racks > 1`
        // the cluster sits behind ToR links and one of `SPINES`: a narrow
        // one merges cross-rack flows into one component the solver sees
        // without ToR links, a wide or absent one lets the ToR links bind.
        // The oracle always solves every link.
        let caps = NodeCaps::symmetric(40.0, 25.0);
        let mut cfg = SimConfig::uniform(6, caps);
        cfg.topology = (racks > 1)
            .then(|| Topology::round_robin(6, racks, 60.0, 60.0, SPINES[spine]));
        let mut sim = Simulator::new(cfg.clone());
        let mut state = seed;
        let mut next = move || splitmix64(&mut state) >> 33;
        let tags = [Traffic::Foreground, Traffic::Repair, Traffic::Background];
        // Live flows by id, with the spec to restart them from.
        let mut started: Vec<(FlowId, FlowSpec)> = Vec::new();
        let mut failed = [false; 6];
        for i in 0..op_count {
            match next() % 10 {
                // Mostly admissions: singles and read-and-send customs.
                0..=4 => {
                    let src = (next() % 6) as usize;
                    let dst = (src + 1 + (next() % 5) as usize) % 6;
                    let tag = tags[(next() % 3) as usize];
                    let bytes = 1 + next() % 400;
                    let spec = if next() % 4 == 0 {
                        FlowSpec::custom(
                            bytes,
                            vec![
                                (src, ResourceKind::DiskRead),
                                (src, ResourceKind::Uplink),
                                (dst, ResourceKind::Downlink),
                            ],
                            tag,
                        )
                    } else {
                        FlowSpec::network(src, dst, bytes, tag)
                    };
                    started.push((sim.start_flow(spec.clone()), spec));
                }
                5 => {
                    if !started.is_empty() {
                        let victim = started[(next() as usize) % started.len()].0;
                        let _ = sim.cancel_flow(victim);
                    }
                }
                6 => {
                    let node = (next() % 6) as usize;
                    // Keep at least half the cluster alive.
                    if !failed[node] && failed.iter().filter(|&&f| f).count() < 3 {
                        failed[node] = true;
                        sim.fail_node(node);
                    }
                }
                7 => {
                    let node = (next() % 6) as usize;
                    let net = 0.25 + (next() % 150) as f64 / 100.0;
                    let disk = 0.25 + (next() % 150) as f64 / 100.0;
                    sim.scale_node_caps(node, net, disk);
                }
                8 => {
                    // Re-rate a node whose uplink has slack: a trim that
                    // keeps the slack, or a cut below what its flows get.
                    sim.refresh();
                    let slack = (0..6).find(|&n| {
                        sim.residual_capacity(n, ResourceKind::Uplink, &Traffic::ALL) > 1.0
                    });
                    if let Some(node) = slack {
                        let net = if next() % 2 == 0 { 0.98 } else { 0.3 };
                        sim.scale_node_caps(node, net, 1.0);
                    }
                }
                _ => {
                    // A slice ends and the next slice of the same pair
                    // starts before rates are read again: the group is torn
                    // down and re-created, usually as it was.
                    if !started.is_empty() {
                        let k = (next() as usize) % started.len();
                        let (victim, spec) = started[k].clone();
                        if sim.cancel_flow(victim).is_some() {
                            started[k].0 = sim.start_flow(spec);
                        }
                    }
                }
            }
            // Verify after the mutation itself...
            sim.verify_against_full_solve();
            // ...and after draining a couple of events (completions and
            // aborts reach the solver through a different path), each
            // completion restarting its pair.
            if i % 3 == 0 {
                for _ in 0..2 {
                    match sim.next_event() {
                        None => break,
                        Some(Event::FlowCompleted { id, outcome, .. }) => {
                            let k = started.iter().position(|(f, _)| *f == id);
                            if let (Some(k), FlowOutcome::Delivered) = (k, outcome) {
                                if next() % 2 == 0 {
                                    started[k].0 = sim.start_flow(started[k].1.clone());
                                }
                            }
                        }
                        Some(Event::Timer { .. }) => {}
                    }
                    sim.verify_against_full_solve();
                }
            }
        }
        let mut budget = 200;
        while sim.next_event().is_some() && budget > 0 {
            sim.verify_against_full_solve();
            budget -= 1;
        }
        if let Some(topo) = &cfg.topology {
            let worst = worst_link_overshoot(sim.monitor(), topo);
            prop_assert!(worst <= 1e-6, "a link carried {} over its capacity", worst);
        }
    }

    /// The differential oracle for the fabric compilation: a flat,
    /// non-oversubscribed topology (one rack, no spine) routes every
    /// flow rack-locally, so even though its ToR link cells exist in the
    /// solver's resource space (and flip the engine into soft-resource
    /// bookkeeping), the event log must be *bitwise* identical to the
    /// rackless engine's — same events, same order, same f64 timestamps.
    #[test]
    fn single_rack_topology_matches_rackless_engine_bitwise(
        seed in any::<u64>(),
        flow_count in 1usize..24,
    ) {
        let nodes = 6;
        let specs: Vec<FlowSpec> = {
            let mut state = seed;
            let mut next = move || splitmix64(&mut state) >> 33;
            (0..flow_count)
                .map(|_| {
                    let src = (next() as usize) % nodes;
                    let dst = (src + 1 + (next() as usize) % (nodes - 1)) % nodes;
                    let tag = if next() % 2 == 0 { Traffic::Repair } else { Traffic::Foreground };
                    FlowSpec::network(src, dst, 1 + next() % 500, tag)
                })
                .collect()
        };
        let caps = NodeCaps::symmetric(20.0, 10.0);
        let run = |topology: Option<Topology>| {
            let mut cfg = SimConfig::uniform(nodes, caps);
            cfg.topology = topology;
            let mut sim = Simulator::new(cfg);
            for spec in &specs {
                sim.start_flow(spec.clone());
            }
            let mut log = Vec::new();
            while let Some(ev) = sim.next_event() {
                log.push((format!("{ev:?}"), sim.now().as_secs().to_bits()));
            }
            log
        };
        // Edge-non-blocking ToR: every node's full uplink fits through.
        let flat = Topology::round_robin(nodes, 1, nodes as f64 * caps.uplink,
                                         nodes as f64 * caps.uplink, None);
        prop_assert_eq!(run(None), run(Some(flat)));
    }

    #[test]
    fn simulation_time_is_monotone_and_deterministic(
        seed in any::<u64>(),
    ) {
        let run = |seed: u64| {
            let mut sim = Simulator::new(SimConfig::uniform(3, NodeCaps::symmetric(10.0, 10.0)));
            let mut state = seed;
            let mut next = move || splitmix64(&mut state) >> 33;
            for _ in 0..6 {
                let src = (next() % 3) as usize;
                let dst = (src + 1 + (next() % 2) as usize) % 3;
                sim.start_flow(FlowSpec::network(src, dst, 1 + next() % 100, Traffic::Repair));
                sim.schedule_in((next() % 10) as f64 * 0.1, next());
            }
            let mut trace = Vec::new();
            let mut last = 0.0;
            while let Some(ev) = sim.next_event() {
                let now = sim.now().as_secs();
                assert!(now >= last, "time went backwards");
                last = now;
                trace.push((format!("{ev:?}"), now.to_bits()));
            }
            trace
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
