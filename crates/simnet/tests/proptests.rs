//! Property-based tests for the simulator: fairness invariants, byte
//! conservation, determinism under random flow workloads, and the
//! differential suite proving the indexed engine (inverted-index solver,
//! incremental class tables, completion heap) matches the reference
//! engine event for event.

use chameleon_simnet::reference::{self, ReferenceSim};
use chameleon_simnet::{
    allocate_rates, maxmin, Event, FlowId, FlowOutcome, FlowSpec, IncrementalSolver, MaxMinSolver,
    NodeCaps, ResourceKind, SimConfig, Simulator, Topology, Traffic,
};
use proptest::prelude::*;

/// One step of a random solver schedule: what to do to `slot` if it is
/// free (register `cells` × `weight`) or live (`kind` picks remove /
/// re-weight / remove-and-re-register / a capacity edit on `res`), and
/// whether to solve afterwards.
#[derive(Debug, Clone)]
struct SolverOp {
    kind: u8,
    slot: u32,
    cells: Vec<u32>,
    weight: u32,
    res: usize,
    cap: f64,
    solve: bool,
}

const SOLVER_RESOURCES: usize = 8;

fn solver_op_strategy() -> impl Strategy<Value = SolverOp> {
    (
        (
            0u8..5,
            0u32..12,
            proptest::collection::btree_set(0..SOLVER_RESOURCES as u32, 1..=3),
            1u32..5,
        ),
        // Mostly ordinary capacities, now and then a dead resource; solve
        // after three steps in five.
        (0..SOLVER_RESOURCES, 0u8..10, 0.5f64..100.0, 0u8..5),
    )
        .prop_map(
            |((kind, slot, cells, weight), (res, dead, cap, solve))| SolverOp {
                kind,
                slot,
                cells: cells.into_iter().collect(),
                weight,
                res,
                cap: if dead == 0 { 0.0 } else { cap },
                solve: solve < 3,
            },
        )
}

/// The max–min invariants, checked on an allocation directly (no second
/// implementation involved): (i) no resource is over capacity; (ii) every
/// group crosses a saturated resource on which no resident has a higher
/// rate — its bottleneck. Returns each resource's total allocation.
fn check_maxmin_invariants(
    caps: &[f64],
    groups: &[(&[u32], u32, f64)],
) -> Result<Vec<f64>, TestCaseError> {
    let mut alloc = vec![0.0f64; caps.len()];
    let mut top = vec![0.0f64; caps.len()];
    for &(cells, weight, rate) in groups {
        prop_assert!(rate >= 0.0 && rate.is_finite(), "rate {rate}");
        for &c in cells {
            alloc[c as usize] += rate * weight as f64;
            top[c as usize] = top[c as usize].max(rate);
        }
    }
    for (r, (&a, &cap)) in alloc.iter().zip(caps).enumerate() {
        prop_assert!(
            a <= cap * (1.0 + 1e-9),
            "resource {r} over capacity: {a} > {cap}"
        );
    }
    for &(cells, _, rate) in groups {
        let bottlenecked = cells.iter().any(|&c| {
            let c = c as usize;
            alloc[c] >= caps[c] * (1.0 - 1e-9) && rate >= top[c] * (1.0 - 1e-9)
        });
        prop_assert!(
            bottlenecked,
            "group on {cells:?} at {rate} has no bottleneck"
        );
    }
    Ok(alloc)
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
        let rates = allocate_rates(&caps, &flows);
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
        let flows = vec![vec![0usize]; n];
        let rates = allocate_rates(&[cap], &flows);
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
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
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
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
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
    fn solvers_keep_maxmin_invariants_under_random_schedules(
        init_caps in proptest::collection::vec(0.5f64..100.0, SOLVER_RESOURCES),
        ops in proptest::collection::vec(solver_op_strategy(), 1..48),
    ) {
        // Invariants, not a comparison: a bug shared by the incremental and
        // the batch solver cannot hide here. After every solve of a random
        // insert / re-weight / remove / re-register / `set_capacity`
        // schedule both solvers' allocations must be feasible and give every
        // group a bottleneck, and every saturation flag of the incremental
        // solver must equal the flag recomputed from the registry.
        let mut caps = init_caps;
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        let mut batch = MaxMinSolver::new();
        let mut live: Vec<Option<(Vec<u32>, u32)>> = vec![None; 12];
        let mut changed = Vec::new();
        for op in &ops {
            let s = op.slot as usize;
            match (live[s].clone(), op.kind) {
                (None, _) => {
                    inc.insert_group(op.slot, &op.cells, op.weight);
                    live[s] = Some((op.cells.clone(), op.weight));
                }
                (Some(_), 0) => {
                    inc.set_weight(op.slot, 0);
                    live[s] = None;
                }
                (Some((cells, _)), 1) => {
                    inc.set_weight(op.slot, op.weight);
                    live[s] = Some((cells, op.weight));
                }
                (Some((cells, weight)), 2) => {
                    // Torn down and re-registered as it was.
                    inc.set_weight(op.slot, 0);
                    inc.insert_group(op.slot, &cells, weight);
                }
                (Some(_), _) => {
                    caps[op.res] = op.cap;
                    inc.set_capacity(op.res, op.cap);
                }
            }
            if !op.solve {
                continue;
            }
            changed.clear();
            inc.solve(&mut changed);
            let slots: Vec<usize> = (0..live.len()).filter(|&s| live[s].is_some()).collect();
            let shape = |s: usize| live[s].as_ref().expect("live slot");
            let incremental: Vec<(&[u32], u32, f64)> = slots
                .iter()
                .map(|&s| (shape(s).0.as_slice(), shape(s).1, inc.rate(s as u32)))
                .collect();
            let alloc = check_maxmin_invariants(&caps, &incremental)?;
            for (r, (&a, &cap)) in alloc.iter().zip(&caps).enumerate() {
                prop_assert_eq!(
                    inc.is_saturated(r),
                    a >= cap * (1.0 - maxmin::SATURATION_MARGIN),
                    "saturation flag of resource {} (allocated {} of {})", r, a, cap
                );
            }

            let mut offsets = vec![0u32];
            let mut targets = Vec::new();
            let mut weights = Vec::new();
            for &s in &slots {
                targets.extend_from_slice(&shape(s).0);
                offsets.push(targets.len() as u32);
                weights.push(shape(s).1);
            }
            let mut rates = vec![0.0; slots.len()];
            batch.solve_weighted_into(&caps, &offsets, &targets, &weights, &mut rates);
            let batched: Vec<(&[u32], u32, f64)> = slots
                .iter()
                .zip(&rates)
                .map(|(&s, &rate)| (shape(s).0.as_slice(), shape(s).1, rate))
                .collect();
            check_maxmin_invariants(&caps, &batched)?;
        }
    }

    #[test]
    fn indexed_solver_matches_reference(
        caps in proptest::collection::vec(0.0f64..100.0, 4..10),
        flows in flows_strategy(8),
    ) {
        let flows: Vec<Vec<usize>> = flows
            .into_iter()
            .map(|f| f.into_iter().filter(|&r| r < caps.len()).collect::<Vec<_>>())
            .filter(|f: &Vec<usize>| !f.is_empty())
            .collect();
        prop_assume!(!flows.is_empty());
        let fast = allocate_rates(&caps, &flows);
        let slow = reference::allocate_rates(&caps, &flows);
        // The indexed solver performs the same float ops in the same
        // order, so the results are bit-identical, not merely close.
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn engine_matches_reference_on_dynamic_workloads(
        seed in any::<u64>(),
        op_count in 4usize..24,
        racks in 1usize..4,
    ) {
        // A scripted dynamic workload: flows admitted at time zero and via
        // timers as the run unfolds, plus occasional cancellations —
        // exercising the completion heap, the incremental class tables,
        // and lazy remaining-materialization against the reference engine.
        // With `racks > 1` the nodes sit behind round-robin ToRs and a
        // spine narrow enough to saturate, so link cells join the solve and
        // the monitor's link totals are compared too.
        let cfg = || {
            let mut cfg = SimConfig::uniform(5, NodeCaps::symmetric(40.0, 25.0));
            if racks > 1 {
                cfg.topology = Some(Topology::round_robin(5, racks, 90.0, 90.0, Some(60.0)));
            }
            cfg
        };
        let ops: Vec<(u64, u64, u64, u64, u64)> = {
            let mut state = seed | 1;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
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
                    let spec = FlowSpec::network(src, dst, 1 + bytes % 200, tags[(tag % 3) as usize]);
                    started.push(sim.start_flow(spec));
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
                            let victim = started[(cancel as usize / 4) % started.len()];
                            // Round: lazy vs stepwise materialization may
                            // differ in the last ulp of `remaining`.
                            let left = sim.cancel_flow(victim).map(|v| (v * 1e6).round() / 1e6);
                            log.push((format!("cancel {victim} -> {left:?}"), sim.now().as_secs()));
                        } else {
                            let src = (src % 5) as usize;
                            let dst = (src + 1 + (bytes % 4) as usize) % 5;
                            let spec = FlowSpec::network(
                                src,
                                dst,
                                1 + bytes % 200,
                                tags[(tag % 3) as usize],
                            );
                            started.push(sim.start_flow(spec));
                        }
                    }
                }
            }
            // Snapshot the monitor per cell for cross-engine comparison.
            let m = sim.monitor();
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
    ) {
        // The tentpole invariant of the incremental solver: after ANY
        // prefix of a randomized admit / complete / restart / cancel /
        // fault / rescale schedule, diffing the mutations and re-solving
        // only the closure of the genuine ones leaves every group rate —
        // as the engine's groups hold it — bit-identical to a from-scratch
        // full solve over the entire live flow set.
        // `verify_against_full_solve` refreshes and asserts bitwise
        // equality (it panics on the first divergence). With `racks > 1`
        // the cluster sits behind ToR links and a spine narrow enough to
        // saturate, so cross-rack flows form one genuinely merged
        // component.
        let caps = NodeCaps::symmetric(40.0, 25.0);
        let mut cfg = SimConfig::uniform(6, caps);
        if racks > 1 {
            cfg.topology = Some(Topology::round_robin(6, racks, 90.0, 90.0, Some(60.0)));
        }
        let mut sim = Simulator::new(cfg);
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
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
    }

    #[test]
    fn batched_start_flows_matches_sequential(
        seed in any::<u64>(),
        flow_count in 1usize..16,
    ) {
        let specs: Vec<FlowSpec> = {
            let mut state = seed | 1;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            (0..flow_count)
                .map(|_| {
                    let src = (next() % 4) as usize;
                    let dst = (src + 1 + (next() % 3) as usize) % 4;
                    FlowSpec::network(src, dst, 1 + next() % 300, Traffic::Repair)
                })
                .collect()
        };
        let drain = |sim: &mut Simulator| {
            let mut log = Vec::new();
            while let Some(ev) = sim.next_event() {
                log.push((format!("{ev:?}"), sim.now().as_secs().to_bits()));
            }
            log
        };
        let cfg = || SimConfig::uniform(4, NodeCaps::symmetric(20.0, 10.0));
        let mut batched = Simulator::new(cfg());
        batched.start_flows(specs.iter().cloned());
        let mut sequential = Simulator::new(cfg());
        for s in &specs {
            sequential.start_flow(s.clone());
        }
        prop_assert_eq!(drain(&mut batched), drain(&mut sequential));
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
            let mut state = seed | 1;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
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
            sim.start_flows(specs.iter().cloned());
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
            let mut state = seed | 1;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
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
