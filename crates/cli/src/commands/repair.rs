//! The `repair` subcommand: a full experiment run from the command line.

use std::sync::Arc;

use chameleon_bench::flags::{Command, Flag, Flags};
use chameleon_bench::runner::{stage, FgSpec, RunOutput};
use chameleon_bench::AlgoKind;
use chameleon_cluster::{ClusterConfig, PlacementStrategy, TopologySpec};
use chameleon_codes::ErasureCode;
use chameleon_core::run::{RepairSide, Run};
use chameleon_simnet::{EngineProfile, NodeCaps};

use crate::args::{check_sizes, cluster_error, parse_code, parse_faults, storage_nodes};

/// `repair`'s flags.
pub const COMMAND: Command = Command {
    name: "repair",
    about: "Simulate a full-node repair, optionally under foreground load",
    flags: &[
        CODE,
        ALGO,
        CHUNKS,
        CLIENTS,
        REQUESTS,
        GBPS,
        DISK_MBPS,
        CHUNK_MB,
        SEED,
        TOPOLOGY,
        ("failures", "1", "number of failed nodes"),
        FAULTS,
        ("trace", "", "write flow, span and profile JSONL here"),
    ],
};

// The flags `setup` reads, which `orchestrate` shares; `sweep` and `plan`
// share some of them.
pub(crate) const CODE: Flag = ("code", "rs:10,4", "rs:K,M | lrc:K,L,M | butterfly");
pub(crate) const ALGO: Flag = ("algo", "chameleon", "repair algorithm (see ALGORITHMS)");
pub(crate) const CHUNKS: Flag = (
    "chunks",
    "20",
    "mean chunks per storage node; a failed node loses what placement put there",
);
pub(crate) const CLIENTS: Flag = ("clients", "0", "foreground YCSB-A clients");
pub(crate) const REQUESTS: Flag = ("requests", "4000", "requests per client");
pub(crate) const GBPS: Flag = ("gbps", "10", "link bandwidth in Gb/s");
pub(crate) const DISK_MBPS: Flag = ("disk-mbps", "500", "disk bandwidth in MB/s");
pub(crate) const CHUNK_MB: Flag = ("chunk-mb", "64", "chunk size in MiB");
pub(crate) const SEED: Flag = ("seed", "7", "RNG seed");
pub(crate) const TOPOLOGY: Flag = (
    "topology",
    "flat",
    "flat | paper | oversub | racked:R,RATIO",
);
pub(crate) const FAULTS: Flag = (
    "faults",
    "",
    "comma list of crash:N@T, recover:N@T, slow:N@TxF+D, disk:N@TxF+D; \
     N: storage nodes, then clients",
);

/// What the shared flags describe.
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

/// Reads the flags `repair` and `orchestrate` share.
pub(crate) fn setup(flags: &Flags) -> Result<Setup, String> {
    let code = parse_code(flags.str("code"))?;
    let algo = flags.str("algo");
    let algo = AlgoKind::from_name(algo).ok_or_else(|| format!("unknown algorithm `{algo}`"))?;
    let chunks: usize = flags.num("chunks")?;
    let clients: usize = flags.num("clients")?;
    let requests: usize = flags.num("requests")?;
    let gbps = flags.positive("gbps")?;
    let disk_mbps = flags.positive("disk-mbps")?;
    let chunk_mb: u64 = flags.num("chunk-mb")?;
    let max_mb = u64::MAX >> 20;
    if !(1..=max_mb).contains(&chunk_mb) {
        return Err(format!(
            "--chunk-mb must be 1..={max_mb} MiB, got {chunk_mb}"
        ));
    }
    let seed: u64 = flags.num("seed")?;
    let topology = TopologySpec::parse(flags.str("topology"))?;

    let storage_nodes = storage_nodes(code.n());
    check_sizes(chunks, storage_nodes, clients, requests)?;
    let cfg = ClusterConfig {
        storage_nodes,
        clients: clients.max(1),
        node_caps: NodeCaps::symmetric(gbps * 1e9 / 8.0, disk_mbps * 1e6),
        chunk_size: chunk_mb << 20,
        slice_size: 1 << 20,
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

/// The closing `engine:` line; `trace` prints the same counters.
pub(crate) fn engine_line(profile: &EngineProfile) -> String {
    format!("engine: {profile}")
}

/// Runs the subcommand.
pub fn run(flags: &Flags) -> Result<(), String> {
    let s = setup(flags)?;
    let failures: usize = flags.num("failures")?;
    let trace_path = flags.str("trace");

    if failures == 0 || failures > s.code.fault_tolerance() {
        return Err(format!(
            "--failures must be 1..={} for {}",
            s.code.fault_tolerance(),
            s.code.name()
        ));
    }

    let faults = parse_faults(flags, s.cfg.total_nodes())?;
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
    .map_err(cluster_error)?;
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
    if let Some(fgd) = run.foreground.take() {
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
            let cross = |tag| topo.cross_rack_bytes(sim.monitor(), tag);
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

    println!("\n{}", engine_line(&sim.profile()));

    if traced {
        let out = RunOutput::collect(outcome, run);
        let jsonl = out
            .trace_jsonl()
            .ok_or("tracing was enabled but the engine produced no trace")?;
        std::fs::write(trace_path, &jsonl)
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
        crate::commands::run(
            "repair",
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
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
        // 2^44 + 1 MiB used to wrap to 1 MiB chunks and repair.
        for bad in ["0", "17592186044416", "17592186044417"] {
            let err = run_with(&["--chunk-mb", bad, "--chunks", "2"]).unwrap_err();
            assert!(
                err.starts_with("--chunk-mb must be"),
                "--chunk-mb {bad}: {err}"
            );
        }
    }

    /// Sizes are checked before the layout or the foreground is built:
    /// `--chunks 4611686018427387909` used to wrap and run as `--chunks 5`.
    #[test]
    fn oversized_flags_fail_for_both_commands() {
        for command in ["repair", "orchestrate"] {
            for (args, flag) in [
                ("--chunks 4611686018427387909", "--chunks"),
                ("--chunks 4611686018427387", "--chunks"),
                ("--clients 1000000000", "--clients"),
                ("--clients 4 --requests 4611686018427387904", "--requests"),
            ] {
                let argv: Vec<String> = args.split(' ').map(String::from).collect();
                let err = crate::commands::run(command, &argv).unwrap_err();
                assert!(err.contains(flag), "{command} {args}: {err}");
            }
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
        let s = setup(&Flags::parse(&[], &crate::commands::orchestrate::COMMAND).unwrap()).unwrap();
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
            crate::commands::run("orchestrate", &args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        }
    }

    #[test]
    fn bad_topology_flag_is_rejected() {
        assert!(run_with(&["--topology", "racked:0,4"]).is_err());
        assert!(run_with(&["--topology", "mesh"]).is_err());
        // 20 storage nodes and one client: a 22nd rack would be empty.
        let err = run_with(&["--topology", "racked:22,8", "--chunks", "2"]).unwrap_err();
        assert_eq!(
            err,
            "--topology: 22 racks but only 21 nodes (storage and clients)"
        );
        let args = ["--topology", "racked:22,8", "--chunks", "2"].map(String::from);
        let err = crate::commands::run("orchestrate", &args).unwrap_err();
        assert!(err.starts_with("--topology: 22 racks"), "{err}");
    }
}
