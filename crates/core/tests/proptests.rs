//! Property-based tests for the repair core: Algorithm 1 invariants over
//! random bandwidth profiles, and executor completeness over random plan
//! shapes.

use std::sync::Arc;

use proptest::prelude::*;

use chameleon_cluster::{ChunkId, Cluster, ClusterConfig};
use chameleon_codes::ReedSolomon;
use chameleon_core::baseline::PlanShape;
use chameleon_core::chameleon::{dispatch_chunk, establish_plan, PhaseState};
use chameleon_core::{ExecStatus, Participant, PlanExecutor, RepairContext, RepairPlan};
use chameleon_gf::Gf256;
use chameleon_simnet::faults::splitmix64;
use chameleon_simnet::{NodeCaps, SimConfig, Simulator};

fn ctx(k: usize, m: usize) -> RepairContext {
    let cluster = Cluster::new(ClusterConfig::small(k + m)).expect("cluster");
    RepairContext::new(cluster, Arc::new(ReedSolomon::new(k, m).expect("code")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dispatch_and_algorithm1_always_yield_valid_plans(
        k in 2usize..10,
        m in 1usize..4,
        stripe in 0usize..20,
        index in 0usize..4,
        b_up in proptest::collection::vec(1.0f64..1000.0, 20),
        b_down in proptest::collection::vec(1.0f64..1000.0, 20),
    ) {
        let ctx = ctx(k, m);
        let stripe = stripe % ctx.cluster.placement().stripes();
        let index = index % ctx.code.n();
        let chunk = ChunkId { stripe, index };
        let mut phase = PhaseState::flat(b_up, b_down);
        let a = dispatch_chunk(&ctx, &mut phase, chunk, &[]).expect("dispatch");
        let sources = &a.selection.sources;
        // Task-count invariants (§III-A): k sources, and the destination
        // holds at least one download.
        prop_assert_eq!(sources.len(), k);
        prop_assert_eq!(a.parents.len(), k);
        let roots = a.parents.iter().filter(|p| p.is_none()).count();
        prop_assert!(roots >= 1);

        let plan = establish_plan(&ctx, &a).expect("plan");
        prop_assert!(plan.validate().is_ok());
        // Fan-in at each node equals its dispatched download count.
        for (i, (s, p)) in sources.iter().zip(plan.participants()).enumerate() {
            prop_assert_eq!(p.node, s.node);
            prop_assert_eq!(p.parent, a.parents[i]);
            let fan_in = a.parents.iter().filter(|&&p| p == Some(i)).count();
            prop_assert_eq!(plan.inputs(Some(i)).count(), fan_in);
        }
        prop_assert_eq!(plan.inputs(None).count(), roots);
        // Every plan over the same helper set — Algorithm 1's and the three
        // static shapes — reconstructs the failed chunk's generator row,
        // verified byte-wise on a tiny stripe.
        let data: Vec<Vec<u8>> = (0..k).map(|i| vec![(i * 37 + 11) as u8; 8]).collect();
        let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
        let stripe_bytes = ctx.code.encode(&refs).expect("encode");
        let mut plans = vec![plan];
        for shape in [PlanShape::Star, PlanShape::Tree, PlanShape::Chain] {
            plans.push(shape.build(&ctx, chunk, &a.selection).expect("static shape"));
        }
        for plan in &plans {
            prop_assert_eq!(plan.participants().len(), k);
            let mut out = vec![0u8; 8];
            for p in plan.participants() {
                chameleon_gf::mul_add_slice(p.coeff, &stripe_bytes[p.chunk_index], &mut out);
            }
            prop_assert_eq!(&out, &stripe_bytes[chunk.index]);
        }
    }

    #[test]
    fn executor_completes_random_in_trees(
        sources in 1usize..8,
        topology_seed in any::<u64>(),
        chunk_kb in 1u64..64,
        slice_kb in 1u64..16,
    ) {
        let slice = (slice_kb * 1024).min(chunk_kb * 1024);
        // Build a random in-tree: participant i (on node i) sends to a
        // random participant in (i+1..sources) or the destination.
        let dst = sources;
        let mut state = topology_seed;
        let mut next = move || splitmix64(&mut state) >> 33;
        let participants: Vec<Participant> = (0..sources)
            .map(|i| {
                let later = sources - i - 1;
                let parent = if later == 0 || next() % 2 == 0 {
                    None
                } else {
                    Some(i + 1 + (next() as usize % later))
                };
                Participant {
                    node: i,
                    chunk_index: i,
                    coeff: Gf256::ONE,
                    parent,
                    read_fraction: 1.0,
                }
            })
            .collect();
        let plan = RepairPlan::new(
            ChunkId { stripe: 0, index: 0 },
            dst,
            participants,
        )
        .expect("valid in-tree");
        let mut sim = Simulator::new(SimConfig::uniform(
            sources + 1,
            NodeCaps::symmetric(1e6, 1e6),
        ));
        let mut exec = PlanExecutor::new(plan, chunk_kb * 1024, slice);
        exec.start(&mut sim);
        let mut done = false;
        let mut events = 0;
        while let Some(ev) = sim.next_event() {
            events += 1;
            prop_assert!(events < 1_000_000, "runaway simulation");
            if exec.on_event(&mut sim, &ev) == ExecStatus::Done {
                done = true;
                break;
            }
        }
        prop_assert!(done, "executor never finished");
        // The destination wrote exactly one chunk.
        let written = sim.monitor().total_bytes(
            dst,
            chameleon_simnet::ResourceKind::DiskWrite,
            chameleon_simnet::Traffic::Repair,
        );
        prop_assert!((written - (chunk_kb * 1024) as f64).abs() < 1.0);
    }

    #[test]
    fn retune_preserves_completion(
        sources in 2usize..6,
        retune_after in 0usize..12,
    ) {
        // Chain plan; retune the first edge mid-flight at a random point.
        let dst = sources;
        let participants: Vec<Participant> = (0..sources)
            .map(|i| Participant {
                node: i,
                chunk_index: i,
                coeff: Gf256::ONE,
                parent: (i + 1 < sources).then_some(i + 1),
                read_fraction: 1.0,
            })
            .collect();
        let plan = RepairPlan::new(ChunkId { stripe: 0, index: 0 }, dst, participants)
            .expect("chain");
        let mut sim = Simulator::new(SimConfig::uniform(
            sources + 1,
            NodeCaps::symmetric(1e6, 1e6),
        ));
        let mut exec = PlanExecutor::new(plan, 16 * 1024, 1024);
        exec.start(&mut sim);
        let mut fired = false;
        let mut steps = 0;
        let mut done = false;
        while let Some(ev) = sim.next_event() {
            steps += 1;
            prop_assert!(steps < 1_000_000);
            if steps == retune_after + 1 && !fired {
                fired = true;
                let _ = exec.retune_input(&mut sim, 0);
            }
            if exec.on_event(&mut sim, &ev) == ExecStatus::Done {
                done = true;
                break;
            }
        }
        prop_assert!(done, "retuned executor never finished");
        prop_assert_eq!(exec.progress(), 1.0);
    }
}
