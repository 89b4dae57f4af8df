//! Multi-round failure/repair: after a full-node repair the metadata is
//! updated (chunks relocated to their destinations), the dead node is
//! replaced, and a *second* node failure is repaired against the updated
//! layout — the steady-state life of a production cluster.

mod common;

use std::sync::Arc;

use chameleonec::cluster::Cluster;
use chameleonec::codes::{ErasureCode, ReedSolomon};
use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleonec::core::run::Run;
use chameleonec::core::{RepairContext, RepairDriver};

use common::tiny_config;

fn repair_round(cluster: &mut Cluster, code: &Arc<dyn ErasureCode>, victim: usize) -> usize {
    cluster.fail_node(victim).unwrap();
    let lost = cluster.lost_chunks(&[victim]);
    let count = lost.len();
    let mut run = Run::new(RepairContext::new(cluster.clone(), code.clone()));
    let mut driver = ChameleonDriver::new(run.ctx.clone(), ChameleonConfig::default());
    driver.start(&mut run.sim, lost);
    run.drain(&mut driver).expect("repair finishes");
    // Feed the repaired locations back into the metadata.
    for plan in driver.completed_plans() {
        cluster
            .apply_repair(plan.chunk(), plan.destination())
            .unwrap();
    }
    // The node comes back empty (replacement hardware).
    cluster.heal_node(victim);
    count
}

#[test]
fn two_sequential_failures_keep_the_layout_valid() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let mut cluster = Cluster::new(tiny_config(6, 18)).unwrap();

    let first = repair_round(&mut cluster, &code, 0);
    assert!(first > 0);
    assert!(
        cluster.placement().is_valid(),
        "layout broken after round 1"
    );
    // Node 0 is empty now: all its chunks moved elsewhere.
    assert!(cluster.placement().chunks_on(0).is_empty());

    // A different node fails; the repair must work against the *updated*
    // placement (including chunks that moved in round 1).
    let second = repair_round(&mut cluster, &code, 3);
    assert!(second > 0);
    assert!(
        cluster.placement().is_valid(),
        "layout broken after round 2"
    );
    assert!(cluster.placement().chunks_on(3).is_empty());

    // Every stripe still spans n distinct alive nodes.
    for stripe in 0..cluster.placement().stripes() {
        let nodes = cluster.placement().stripe_nodes(stripe);
        let mut uniq: Vec<_> = nodes.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), nodes.len(), "stripe {stripe} collapsed");
        assert!(nodes.iter().all(|&n| cluster.is_alive(n)));
    }
}

#[test]
fn apply_repair_rejects_dead_destination() {
    let mut cluster = Cluster::new(tiny_config(6, 6)).unwrap();
    cluster.fail_node(5).unwrap();
    let chunk = chameleonec::cluster::ChunkId {
        stripe: 0,
        index: 0,
    };
    assert!(cluster.apply_repair(chunk, 5).is_err());
}
