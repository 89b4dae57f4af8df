//! The `repair` subcommand: a full experiment run from the command line.

use chameleon_bench::flags::{Command, Flag, Flags};
use chameleon_bench::{AlgoKind, FgSpec, RunSpec, Scale};
use chameleon_cluster::{Cluster, PlacementStrategy, TopologySpec};
use chameleon_simnet::Traffic;

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

/// Reads the flags `repair` and `orchestrate` share: one run of `--algo`
/// on victim 0, and the cluster that validates its configuration.
pub(crate) fn setup(flags: &Flags) -> Result<(RunSpec, Cluster), String> {
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
    let scale = Scale {
        chunks_per_node: chunks,
        requests_per_client: requests,
        clients: clients.max(1),
        chunk_size: chunk_mb << 20,
        slice_size: 1 << 20,
    };
    let mut cfg =
        scale.cluster_config_sized(code.n(), storage_nodes, gbps * 1e9 / 8.0, disk_mbps * 1e6);
    cfg.placement = PlacementStrategy::Random(seed);
    cfg.topology = topology;
    let cluster = Cluster::new(cfg.clone()).map_err(cluster_error)?;
    let fg = (clients > 0).then(|| FgSpec {
        seed,
        ..FgSpec::ycsb(clients, requests)
    });
    let spec = RunSpec::new(algo.label(), code, cfg, algo, fg).with_seed(seed);
    Ok((spec, cluster))
}

/// The banner's first line, with `--gbps` and `--disk-mbps` as given.
pub(crate) fn cluster_line(flags: &Flags, spec: &RunSpec) -> Result<String, String> {
    Ok(format!(
        "cluster: {} nodes, {} Gb/s links, {} MB/s disks, code {}",
        spec.cfg.storage_nodes,
        flags.positive("gbps")?,
        flags.positive("disk-mbps")?,
        spec.code.name()
    ))
}

/// Runs the subcommand.
pub fn run(flags: &Flags) -> Result<String, String> {
    let (spec, cluster) = setup(flags)?;
    let failures: usize = flags.num("failures")?;
    let trace_path = flags.str("trace");
    let tolerance = spec.code.fault_tolerance();
    if failures == 0 || failures > tolerance {
        return Err(format!(
            "--failures must be 1..={tolerance} for {}",
            spec.code.name()
        ));
    }
    let mut spec = spec.with_victims((0..failures).collect());
    if let Some(plan) = parse_faults(flags, spec.cfg.total_nodes())? {
        spec = spec.with_faults(plan);
    }
    if !trace_path.is_empty() {
        spec = spec.with_trace();
    }
    let lost = cluster.lost_chunks(&spec.victims).len();
    let out = spec.execute();

    let mut text = format!("{}, {lost} chunks lost\n", cluster_line(flags, &spec)?);
    let o = &out.outcome;
    text += &format!(
        "\nrepair: {}\n  chunks repaired : {}\n",
        o.algorithm, o.chunks_repaired
    );
    if o.chunks_repaired < o.chunks_total {
        let given_up = &o.given_up_chunks;
        let unrepairable = given_up.iter().filter(|g| g.attempts == 0).count();
        text += &format!(
            "  given up        : {} (unrepairable {unrepairable}, retries exhausted {})\n",
            given_up.len(),
            given_up.len() - unrepairable
        );
    }
    text += &format!(
        "  duration        : {:.2} s\n  throughput      : {:.1} MB/s\n  \
         mean chunk time : {:.3} s\n",
        o.duration.unwrap_or(f64::NAN),
        out.repair_mbps(),
        o.mean_chunk_secs()
    );
    if let Some(lat) = o.chunk_latency() {
        text += &format!(
            "  chunk p50/p95/p99 : {:.3} / {:.3} / {:.3} s (max {:.3})\n",
            lat.p50, lat.p95, lat.p99, lat.max
        );
    }
    let c = &o.coding;
    if c.chunks_coded > 0 {
        text += &format!(
            "  coding          : {} chunks, {:.1} MiB in {:.2} ms \
             (scale {:.2} / merge {:.2} / reassemble {:.2})\n  gf kernel       : {}\n",
            c.chunks_coded,
            c.bytes_coded as f64 / (1 << 20) as f64,
            c.total_nanos() as f64 / 1e6,
            c.source_scale_nanos as f64 / 1e6,
            c.relay_merge_nanos as f64 / 1e6,
            c.reassemble_nanos as f64 / 1e6,
            c.kernel
        );
    }
    if let Some(plan) = &spec.faults {
        // Every timer fires before the run ends: one per crash or recovery, a
        // start and an end per scale window.
        let applied: usize = plan
            .specs()
            .iter()
            .map(|f| f.window().map_or(1, |_| 2))
            .sum();
        let rec = &o.recovery;
        text += &format!(
            "\nfaults ({applied} applied):\n  re-plans        : {}\n  retries         : {}\n  \
             aborted flows   : {}\n  wasted traffic  : {:.1} MB\n  given up        : {}\n",
            rec.replans,
            rec.retries,
            rec.aborted_flows,
            rec.wasted_repair_bytes / 1e6,
            rec.given_up
        );
    }
    if let (Some(report), Some(fg)) = (&out.fg_report, &spec.fg) {
        text += &format!(
            "\nforeground ({} YCSB-A clients):\n  requests        : {}\n  \
             mean latency    : {:.2} ms\n",
            fg.clients,
            report.completed,
            report.mean_latency * 1e3
        );
        if let Some(lat) = report.latency {
            text += &format!(
                "  P50 latency     : {:.2} ms\n  P95 latency     : {:.2} ms\n",
                lat.p50 * 1e3,
                lat.p95 * 1e3
            );
        }
        text += &format!("  P99 latency     : {:.2} ms\n", out.p99_ms());
    }
    let cfg = &spec.cfg;
    let fabric = cfg.topology.compile(cfg.total_nodes(), cfg.node_caps);
    if let Some(topo) = fabric.filter(|t| t.rack_count() > 1) {
        let cross = |tag| topo.cross_rack_bytes(out.sim.monitor(), tag) / 1e6;
        let core = match topo.spine_link() {
            Some(_) => "oversubscribed spine",
            None => "non-blocking core",
        };
        text += &format!(
            "\nfabric ({} racks, {core}):\n  cross-rack repair bytes     : {:.1} MB\n  \
             cross-rack foreground bytes : {:.1} MB\n",
            topo.rack_count(),
            cross(Traffic::Repair),
            cross(Traffic::Foreground)
        );
    }
    text += &format!("\nengine: {}\n", out.sim.profile());

    if let Some(jsonl) = out.trace_jsonl() {
        std::fs::write(trace_path, &jsonl)
            .map_err(|e| format!("cannot write --trace file `{trace_path}`: {e}"))?;
        text += &format!(
            "trace: {} flow events + {} spans + {} given up + profile -> {trace_path}\n",
            out.sim.trace().map_or(0, |sink| sink.len()),
            o.spans.len(),
            o.given_up_chunks.len()
        );
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(args: &[&str]) -> Result<String, String> {
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
