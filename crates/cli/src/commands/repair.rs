//! The `repair` subcommand: a full experiment run from the command line.

use chameleon_bench::AlgoKind;
use chameleon_cluster::{
    Cluster, ClusterConfig, ForegroundDriver, PlacementStrategy, TopologySpec,
};
use chameleon_core::{RepairContext, RepairDriver};
use chameleon_simnet::NodeCaps;
use chameleon_traces::{Workload, YcsbA};

use crate::args::{parse_code, parse_faults, Flags};

/// Runs the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.ensure_known(&[
        "code",
        "algo",
        "failures",
        "chunks",
        "clients",
        "requests",
        "gbps",
        "disk-mbps",
        "chunk-mb",
        "seed",
        "faults",
        "trace",
        "topology",
    ])?;
    let code = parse_code(&flags.str_or("code", "rs:10,4"))?;
    let algo = flags.str_or("algo", "chameleon");
    let failures: usize = flags.num_or("failures", 1)?;
    let chunks: usize = flags.num_or("chunks", 20)?;
    let clients: usize = flags.num_or("clients", 0)?;
    let requests: usize = flags.num_or("requests", 4000)?;
    let gbps = flags.positive_or("gbps", 10.0)?;
    let disk_mbps = flags.positive_or("disk-mbps", 500.0)?;
    let chunk_mb: u64 = flags.num_or("chunk-mb", 64)?;
    let seed: u64 = flags.num_or("seed", 7)?;
    let trace_path = flags.str_or("trace", "");
    let topology = TopologySpec::parse(&flags.str_or("topology", "flat"))?;

    if failures == 0 || failures > code.fault_tolerance() {
        return Err(format!(
            "--failures must be 1..={} for {}",
            code.fault_tolerance(),
            code.name()
        ));
    }

    let storage_nodes = 20.max(code.n() + 1);
    let cfg = ClusterConfig {
        storage_nodes,
        clients: clients.max(1),
        node_caps: NodeCaps::symmetric(gbps * 1e9 / 8.0, disk_mbps * 1e6),
        chunk_size: chunk_mb << 20,
        slice_size: (1u64 << 20).min(chunk_mb << 20),
        stripe_width: code.n(),
        stripes: (chunks * storage_nodes).div_ceil(code.n()),
        placement: PlacementStrategy::Random(seed),
        monitor_window_secs: 15.0,
        topology,
    };
    let faults = parse_faults(&flags, cfg.total_nodes())?;
    let mut cluster = Cluster::new(cfg).map_err(|e| e.to_string())?;
    let victims: Vec<usize> = (0..failures).collect();
    for &v in &victims {
        cluster.fail_node(v).map_err(|e| e.to_string())?;
    }
    let lost = cluster.lost_chunks(&victims);
    println!(
        "cluster: {storage_nodes} nodes, {} Gb/s links, {} MB/s disks, code {}, \
         {} chunks lost",
        gbps,
        disk_mbps,
        code.name(),
        lost.len()
    );

    let ctx = RepairContext::new(cluster, code);
    let mut sim = ctx.cluster.build_simulator();
    sim.set_trace_enabled(!trace_path.is_empty());
    let mut injector = faults.as_ref().map(|plan| plan.inject(&mut sim));

    let mut fg = if clients > 0 {
        let workloads: Vec<Box<dyn Workload>> = (0..clients)
            .map(|i| Box::new(YcsbA::new(seed + i as u64)) as Box<dyn Workload>)
            .collect();
        let mut d = ForegroundDriver::new(workloads, requests);
        d.start(&ctx.cluster, &mut sim);
        Some(d)
    } else {
        None
    };

    let mut driver = make_driver(&algo, ctx.clone(), seed)?;
    driver.start(&mut sim, lost);
    while let Some(ev) = sim.next_event() {
        if let Some(inj) = injector.as_mut() {
            if let Some(fault) = inj.on_event(&mut sim, &ev) {
                driver.on_fault(&mut sim, &fault);
                continue;
            }
        }
        if driver.on_event(&mut sim, &ev) {
            continue;
        }
        if let Some(fgd) = fg.as_mut() {
            fgd.on_event(&ctx.cluster, &mut sim, &ev);
        }
    }

    let outcome = driver.outcome(&sim);
    println!("\nrepair: {}", outcome.algorithm);
    println!("  chunks repaired : {}", outcome.chunks_repaired);
    if outcome.chunks_repaired < outcome.chunks_total {
        let given_up = &outcome.given_up_chunks;
        let unrepairable = given_up.iter().filter(|g| g.attempts == 0).count();
        println!(
            "  given up        : {} (unrepairable {unrepairable}, retries exhausted {})",
            given_up.len(),
            given_up.len() - unrepairable
        );
    }
    println!(
        "  duration        : {:.2} s",
        outcome.duration.unwrap_or(f64::NAN)
    );
    println!("  throughput      : {:.1} MB/s", outcome.throughput() / 1e6);
    println!("  mean chunk time : {:.3} s", outcome.mean_chunk_secs());
    if let Some(lat) = outcome.chunk_latency() {
        println!(
            "  chunk p50/p95/p99 : {:.3} / {:.3} / {:.3} s (max {:.3})",
            lat.p50, lat.p95, lat.p99, lat.max
        );
    }
    if outcome.coding.chunks_coded > 0 {
        let c = &outcome.coding;
        println!(
            "  coding          : {} chunks, {:.1} MiB in {:.2} ms \
             (scale {:.2} / merge {:.2} / reassemble {:.2})",
            c.chunks_coded,
            c.bytes_coded as f64 / (1 << 20) as f64,
            c.total_nanos() as f64 / 1e6,
            c.source_scale_nanos as f64 / 1e6,
            c.relay_merge_nanos as f64 / 1e6,
            c.reassemble_nanos as f64 / 1e6,
        );
        println!("  gf kernel       : {}", c.kernel);
    }
    if let Some(inj) = &injector {
        let rec = &outcome.recovery;
        println!("\nfaults ({} applied):", inj.applied().len());
        println!("  re-plans        : {}", rec.replans);
        println!("  retries         : {}", rec.retries);
        println!("  aborted flows   : {}", rec.aborted_flows);
        println!(
            "  wasted traffic  : {:.1} MB",
            rec.wasted_repair_bytes / 1e6
        );
        println!("  given up        : {}", rec.given_up);
    }
    if let Some(fgd) = fg {
        let report = fgd.report(&sim);
        println!("\nforeground ({clients} YCSB-A clients):");
        println!("  requests        : {}", report.completed);
        println!("  mean latency    : {:.2} ms", report.mean_latency * 1e3);
        if let Some(lat) = report.latency {
            println!("  P50 latency     : {:.2} ms", lat.p50 * 1e3);
            println!("  P95 latency     : {:.2} ms", lat.p95 * 1e3);
        }
        println!("  P99 latency     : {:.2} ms", report.p99_latency * 1e3);
    }

    if let Some(topo) = sim.topology() {
        if topo.rack_count() > 1 {
            let topo = topo.clone();
            let cross = |tag| {
                (0..topo.rack_count())
                    .map(|r| sim.monitor().link_total_bytes(topo.tor_up_link(r), tag))
                    .sum::<f64>()
            };
            println!(
                "\nfabric ({} racks{}):",
                topo.rack_count(),
                if topo.spine_link().is_some() {
                    ", oversubscribed spine"
                } else {
                    ", non-blocking core"
                }
            );
            println!(
                "  cross-rack repair bytes     : {:.1} MB",
                cross(chameleon_simnet::Traffic::Repair) / 1e6
            );
            println!(
                "  cross-rack foreground bytes : {:.1} MB",
                cross(chameleon_simnet::Traffic::Foreground) / 1e6
            );
        }
    }

    let profile = sim.profile();
    println!(
        "\nengine: {} events, {} solves ({} full, {} incremental, {} dirty groups, \
         {} rounds, {} retries) + {} elided, {} heap rebuilds, {} timers ({} cancelled)",
        profile.events,
        profile.solves,
        profile.full_solves,
        profile.incremental_solves,
        profile.dirty_groups,
        profile.solver_rounds,
        profile.solve_retries,
        profile.elided_solves,
        profile.heap_rebuilds,
        profile.timers_scheduled,
        profile.timers_cancelled,
    );

    if !trace_path.is_empty() {
        let sink = sim
            .take_trace()
            .ok_or("tracing was enabled but the engine produced no trace")?;
        let flow_events = sink.len();
        let mut jsonl = sink.to_jsonl();
        for span in &outcome.spans {
            jsonl.push_str(&span.to_json_line());
            jsonl.push('\n');
        }
        for given_up in &outcome.given_up_chunks {
            jsonl.push_str(&given_up.to_json_line());
            jsonl.push('\n');
        }
        jsonl.push_str(&profile.to_json_line());
        jsonl.push('\n');
        std::fs::write(&trace_path, &jsonl)
            .map_err(|e| format!("cannot write --trace file `{trace_path}`: {e}"))?;
        println!(
            "trace: {} flow events + {} spans + {} given up + profile -> {trace_path}",
            flow_events,
            outcome.spans.len(),
            outcome.given_up_chunks.len()
        );
    }
    Ok(())
}

/// Builds a repair driver by algorithm name (shared with `orchestrate`).
pub(crate) fn make_driver(
    algo: &str,
    ctx: RepairContext,
    seed: u64,
) -> Result<Box<dyn RepairDriver>, String> {
    let kind = AlgoKind::from_name(algo).ok_or_else(|| format!("unknown algorithm `{algo}`"))?;
    Ok(kind.driver(ctx, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(args: &[&str]) -> Result<(), String> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bad_fault_specs_are_rejected_before_the_run_starts() {
        for faults in [
            "crash:1@-1",
            "crash:1@NaN",
            "recover:1@inf",
            "slow:2@1x-0.5+5",
            "disk:2@1x0.5+NaN",
            "wat:1@1",
        ] {
            let err = run_with(&["--faults", faults]).unwrap_err();
            assert!(
                err.contains("bad fault spec"),
                "--faults {faults} must fail cleanly, got: {err}"
            );
        }
    }

    /// 20 storage nodes and one client node: ids 0..=20. The simulator
    /// panics on a fault for any other node when its timer fires.
    #[test]
    fn faults_outside_the_cluster_are_errors_not_panics() {
        for faults in [
            "crash:99@0.1",
            "slow:99@0.1x0.5+1",
            "recover:21@1,crash:99@2",
        ] {
            let err = run_with(&["--code", "rs:4,2", "--chunks", "2", "--faults", faults])
                .expect_err(faults);
            assert!(
                err.contains("node") && err.contains("the cluster has 21 nodes"),
                "--faults {faults}: {err}"
            );
        }
        let on_the_client = "--code rs:4,2 --chunks 2 --chunk-mb 1 --faults crash:20@0.1";
        run_with(&on_the_client.split(' ').collect::<Vec<_>>()).expect("node 20 exists");
    }

    #[test]
    fn non_positive_bandwidths_are_errors_not_panics() {
        for (flag, bad) in [("--gbps", "0"), ("--gbps", "-1"), ("--disk-mbps", "nan")] {
            let err = run_with(&[flag, bad]).unwrap_err();
            assert!(err.contains("must be positive"), "{flag} {bad}: {err}");
        }
    }

    #[test]
    fn unknown_algorithm_is_rejected() {
        let err = run_with(&["--algo", "bogus"]).unwrap_err();
        assert!(err.contains("unknown algorithm `bogus`"), "{err}");
    }

    /// RS(16,4) runs on 21 nodes, so a stripe has one off-stripe node; with
    /// two victims that node is either down or wanted by two chunks, and
    /// some chunks have nowhere to go. ChameleonEC used to re-queue them
    /// for ever; every algorithm must end the run.
    #[test]
    fn a_cluster_without_spare_nodes_terminates_for_every_algorithm() {
        for (name, _) in AlgoKind::NAMED {
            let args = format!("--code rs:16,4 --failures 2 --chunks 2 --chunk-mb 1 --algo {name}");
            run_with(&args.split(' ').collect::<Vec<_>>())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn bad_topology_flag_is_rejected() {
        assert!(run_with(&["--topology", "racked:0,4"]).is_err());
        assert!(run_with(&["--topology", "mesh"]).is_err());
    }
}
