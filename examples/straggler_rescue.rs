//! Straggler rescue (the §III-C mechanisms, Exp#11 scenario): mid-repair,
//! one participating node suddenly loses most of its bandwidth to a
//! background reader. Shows ChameleonEC detecting the straggler and
//! re-tuning / re-ordering around it, versus the dispatch-only ETRP
//! configuration that just waits it out.
//!
//! Run with: `cargo run --release --example straggler_rescue`

use std::sync::Arc;

use chameleonec::cluster::{Cluster, ClusterConfig};
use chameleonec::codes::ReedSolomon;
use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleonec::core::run::{stop_if, Run};
use chameleonec::core::{RepairContext, RepairDriver};
use chameleonec::simnet::{Event, FlowSpec, NodeCaps, Traffic};

fn run(enable_sar: bool) -> (String, f64, usize, usize) {
    let mut cfg = ClusterConfig::small(6);
    cfg.node_caps = NodeCaps::symmetric(125e6, 50e6);
    cfg.chunk_size = 8 << 20;
    cfg.slice_size = 1 << 20;
    cfg.stripes = 60;
    let mut cluster = Cluster::new(cfg).expect("cluster");
    cluster.fail_node(0).expect("fail");
    let lost = cluster.lost_chunks(&[0]);
    let hog_victim = 1usize; // a surviving node that will straggle

    let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).expect("code")));
    let mut run = Run::new(ctx.clone());
    let config = ChameleonConfig {
        check_interval_secs: 0.1,
        straggler_min_delay_secs: 0.2,
        straggler_progress_ratio: 0.9,
        enable_sar,
        ..ChameleonConfig::default()
    };
    let mut driver = ChameleonDriver::new(ctx, config);
    driver.start(&mut run.sim, lost);

    // After 0.3 s, eight background readers hammer the straggler's links
    // (the paper mimics this with a Redis client reading 1 MB objects).
    // Their timer is nobody's: the run loop reports it as unclaimed.
    let hog_at = run.sim.schedule_in(0.3, 0);
    run.run(&mut driver, |run, driver, ev, _| {
        if matches!(*ev, Event::Timer { id, .. } if id == hog_at) {
            for peer in [2usize, 3, 4, 5] {
                run.sim.start_flow(FlowSpec::network(
                    hog_victim,
                    peer,
                    256 << 20,
                    Traffic::Background,
                ));
                run.sim.start_flow(FlowSpec::network(
                    peer,
                    hog_victim,
                    256 << 20,
                    Traffic::Background,
                ));
            }
        }
        stop_if(driver.is_done())
    })
    .expect("repair finishes");
    let outcome = driver.outcome(&run.sim);
    let stats = driver.stats();
    (
        driver.name(),
        outcome.duration.unwrap_or(f64::NAN),
        stats.retunes,
        stats.reorders,
    )
}

fn main() {
    println!("node 1 straggles 0.3 s into a full-node repair (RS(4,2), 1 Gb/s)");
    println!(
        "{:<14} {:>12} {:>10} {:>10}",
        "scheduler", "repair (s)", "re-tunes", "re-orders"
    );
    for sar in [false, true] {
        let (name, secs, retunes, reorders) = run(sar);
        println!("{name:<14} {secs:>12.2} {retunes:>10} {reorders:>10}");
    }
    println!("\nChameleonEC (ETRP+SAR) bypasses the straggler by redirecting its");
    println!("pending downloads to the destination and postponing entangled chunks.");
}
