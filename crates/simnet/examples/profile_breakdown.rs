//! Ad-hoc breakdown of the engine's per-event cost at 10k flows.
//! Run with: cargo run --release -p chameleon-simnet --example profile_breakdown

use std::time::Instant;

use chameleon_simnet::{FlowSpec, IncrementalSolver, NodeCaps, SimConfig, Simulator, Traffic};

const NODES: usize = 20;
const FLOWS: usize = 10_000;

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

fn random_spec(rng: &mut Rng) -> FlowSpec {
    let src = (rng.next() as usize) % NODES;
    let dst = (src + 1 + (rng.next() as usize) % (NODES - 1)) % NODES;
    let bytes = (1 + rng.next() % 64) << 20;
    FlowSpec::network(src, dst, bytes, Traffic::Foreground)
}

fn main() {
    let mut rng = Rng(7);

    // --- solver alone: one member leaves a group, one joins another ---
    // 10k flows over 20 saturated nodes are ~380 groups in one contention
    // component, so every solve here is a genuinely full one.
    let caps = vec![125_000_000.0f64; NODES * 4];
    let mut solver = IncrementalSolver::new();
    solver.set_capacities(&caps);
    let mut weights = vec![0u32; NODES * NODES];
    let join = |solver: &mut IncrementalSolver, weights: &mut [u32], src: usize, dst: usize| {
        let slot = src * NODES + dst;
        weights[slot] += 1;
        if weights[slot] == 1 {
            let cells = [(src * 4) as u32, (dst * 4 + 1) as u32];
            solver.insert_group(slot as u32, &cells, 1);
        } else {
            solver.set_weight(slot as u32, weights[slot]);
        }
    };
    let mut pairs = Vec::new();
    for _ in 0..FLOWS {
        let src = (rng.next() as usize) % NODES;
        let dst = (src + 1 + (rng.next() as usize) % (NODES - 1)) % NODES;
        join(&mut solver, &mut weights, src, dst);
        pairs.push((src, dst));
    }
    let mut changed = Vec::new();
    solver.solve(&mut changed); // warm
    let iters = 200;
    let t = Instant::now();
    for pair in pairs.iter_mut().take(iters) {
        let slot = pair.0 * NODES + pair.1;
        weights[slot] -= 1;
        solver.set_weight(slot as u32, weights[slot]);
        let src = (rng.next() as usize) % NODES;
        let dst = (src + 1 + (rng.next() as usize) % (NODES - 1)) % NODES;
        join(&mut solver, &mut weights, src, dst);
        *pair = (src, dst);
        changed.clear();
        solver.solve(&mut changed);
    }
    println!(
        "solve:           {:>8.1} us",
        t.elapsed().as_secs_f64() * 1e6 / iters as f64
    );

    // --- refresh cycle (cancel one + admit one + refresh) ---
    let mut sim = Simulator::new(SimConfig::uniform(NODES, NodeCaps::default()));
    let ids = sim.start_flows((0..FLOWS).map(|_| random_spec(&mut rng)));
    sim.refresh();
    let t = Instant::now();
    for &id in ids.iter().take(iters) {
        sim.cancel_flow(id);
        sim.start_flow(random_spec(&mut rng));
        sim.refresh();
    }
    println!(
        "refresh cycle:   {:>8.1} us",
        t.elapsed().as_secs_f64() * 1e6 / iters as f64
    );

    // --- full event loop ---
    let mut sim = Simulator::new(SimConfig::uniform(NODES, NodeCaps::default()));
    sim.start_flows((0..FLOWS).map(|_| random_spec(&mut rng)));
    let t = Instant::now();
    for _ in 0..iters {
        sim.next_event().unwrap();
        sim.start_flow(random_spec(&mut rng));
    }
    println!(
        "full event loop: {:>8.1} us",
        t.elapsed().as_secs_f64() * 1e6 / iters as f64
    );
}
