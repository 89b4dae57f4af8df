//! The `repair` subcommand: a full experiment run from the command line.

use std::sync::Arc;

use chameleon_bench::runner::{stage, FgSpec, RunOutput};
use chameleon_bench::AlgoKind;
use chameleon_cluster::{ClusterConfig, PlacementStrategy, TopologySpec};
use chameleon_codes::ErasureCode;
use chameleon_core::run::{RepairSide, Run};
use chameleon_simnet::NodeCaps;

use crate::args::{parse_code, parse_faults, Flags};

/// The flags `repair` and `orchestrate` share: code, algorithm, cluster
/// and foreground.
pub(crate) const SHARED_FLAGS: [&str; 10] = [
    "code",
    "algo",
    "chunks",
    "clients",
    "requests",
    "gbps",
    "disk-mbps",
    "chunk-mb",
    "seed",
    "topology",
];

/// What [`SHARED_FLAGS`] describe.
pub(crate) struct Setup {
    pub code: Arc<dyn ErasureCode>,
    pub algo: AlgoKind,
    pub seed: u64,
    pub cfg: ClusterConfig,
    /// `--clients` YCSB-A clients (None for 0).
    pub fg: Option<FgSpec>,
    /// `--gbps` and `--disk-mbps` as given, for the banner.
    pub gbps: f64,
    pub disk_mbps: f64,
}

/// Reads [`SHARED_FLAGS`]; `default_code` is the command's `--code` default.
pub(crate) fn setup(flags: &Flags, default_code: &str) -> Result<Setup, String> {
    let code = parse_code(&flags.str_or("code", default_code))?;
    let algo = flags.str_or("algo", "chameleon");
    let algo = AlgoKind::from_name(&algo).ok_or_else(|| format!("unknown algorithm `{algo}`"))?;
    let chunks: usize = flags.num_or("chunks", 20)?;
    let clients: usize = flags.num_or("clients", 0)?;
    let requests: usize = flags.num_or("requests", 4000)?;
    let gbps = flags.positive_or("gbps", 10.0)?;
    let disk_mbps = flags.positive_or("disk-mbps", 500.0)?;
    let chunk_mb: u64 = flags.num_or("chunk-mb", 64)?;
    let seed: u64 = flags.num_or("seed", 7)?;
    let topology = TopologySpec::parse(&flags.str_or("topology", "flat"))?;

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
    let fg = (clients > 0).then(|| FgSpec {
        seed,
        ..FgSpec::ycsb(clients, requests)
    });
    Ok(Setup {
        code,
        algo,
        seed,
        cfg,
        fg,
        gbps,
        disk_mbps,
    })
}

/// Drains a staged run. One that stops with work outstanding is an error,
/// not a report.
pub(crate) fn drain(run: &mut Run, side: &mut (impl RepairSide + ?Sized)) -> Result<(), String> {
    run.drain(side).map_err(|e| e.to_string())
}

/// Runs the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.ensure_known(&[&SHARED_FLAGS[..], &["failures", "faults", "trace"]].concat())?;
    let s = setup(&flags, "rs:10,4")?;
    let failures: usize = flags.num_or("failures", 1)?;
    let trace_path = flags.str_or("trace", "");

    if failures == 0 || failures > s.code.fault_tolerance() {
        return Err(format!(
            "--failures must be 1..={} for {}",
            s.code.fault_tolerance(),
            s.code.name()
        ));
    }

    let faults = parse_faults(&flags, s.cfg.total_nodes())?;
    let clients = s.fg.as_ref().map_or(0, |fg| fg.clients);
    let victims: Vec<usize> = (0..failures).collect();
    let traced = !trace_path.is_empty();
    let (mut run, lost) = stage(
        s.code.clone(),
        s.cfg,
        &victims,
        s.fg,
        faults.as_ref(),
        traced,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "cluster: {} nodes, {} Gb/s links, {} MB/s disks, code {}, {} chunks lost",
        run.ctx.cluster.storage_nodes(),
        s.gbps,
        s.disk_mbps,
        s.code.name(),
        lost.len()
    );

    let mut driver = s.algo.driver(run.ctx.clone(), s.seed);
    driver.start(&mut run.sim, lost);
    drain(&mut run, &mut *driver)?;
    let sim = &run.sim;

    let outcome = driver.outcome(sim);
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
    if let Some(inj) = &run.injector {
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
    if let Some(fgd) = &run.foreground {
        let report = fgd.report(sim);
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

    if traced {
        let out = RunOutput::collect(outcome, run);
        let jsonl = out
            .trace_jsonl()
            .ok_or("tracing was enabled but the engine produced no trace")?;
        std::fs::write(&trace_path, &jsonl)
            .map_err(|e| format!("cannot write --trace file `{trace_path}`: {e}"))?;
        println!(
            "trace: {} flow events + {} spans + {} given up + profile -> {trace_path}",
            out.sim.trace().map_or(0, |sink| sink.len()),
            out.outcome.spans.len(),
            out.outcome.given_up_chunks.len()
        );
    }
    Ok(())
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

    /// A repair side that never finishes must end in the typed error both
    /// commands return, not in a normal-looking report.
    #[test]
    fn a_run_that_does_not_quiesce_is_an_error_for_both_commands() {
        let s = setup(&Flags::default(), "rs:4,2").unwrap();
        let (mut run, lost) = stage(s.code, s.cfg, &[0], s.fg, None, false).unwrap();
        let mut driver = s.algo.driver(run.ctx.clone(), s.seed);
        // Its flows live in a simulator nobody drains.
        driver.start(&mut run.ctx.cluster.build_simulator(), lost);
        let err = drain(&mut run, &mut *driver).unwrap_err();
        assert!(err.contains("repair side did not quiesce"), "{err}");
        // A campaign that never dispatches (no crash, or nothing stored)
        // has quiesced; both used to be reported as this error.
        for args in [&["--duration", "1", "--seed", "1"][..], &["--chunks", "0"]] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            crate::commands::orchestrate::run(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        }
    }

    #[test]
    fn bad_topology_flag_is_rejected() {
        assert!(run_with(&["--topology", "racked:0,4"]).is_err());
        assert!(run_with(&["--topology", "mesh"]).is_err());
    }
}
