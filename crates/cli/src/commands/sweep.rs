//! The `sweep` subcommand: a parallel algorithm x seed grid from the
//! command line, executed on the `chameleon-bench` worker pool.
//!
//! Every (algorithm, seed) cell runs one full-node repair under YCSB
//! foreground load; the table reports per-cell repair throughput and P99,
//! plus a per-algorithm mean across seeds. Results are independent of
//! `--jobs` (the grid's determinism contract).

use chameleon_bench::flags::{Command, Flags};
use chameleon_bench::grid::{self, RunSpec};
use chameleon_bench::runner::FgSpec;
use chameleon_bench::table::Table;
use chameleon_bench::{AlgoKind, Scale};

use super::repair::{CHUNKS, CLIENTS, CODE, FAULTS, REQUESTS, TOPOLOGY};
use crate::args::{
    check_cells, check_sizes, cluster_error, parse_code, parse_faults, storage_nodes,
};

/// `sweep`'s flags.
pub const COMMAND: Command = Command {
    name: "sweep",
    about: "Run an algorithm x seed grid in parallel worker threads",
    flags: &[
        CODE,
        ("algos", "cr,ppr,ecpipe,chameleon", "comma list of --algo"),
        ("seeds", "3", "seeds per algorithm"),
        ("clients", "4", CLIENTS.2),
        REQUESTS,
        CHUNKS,
        grid::JOBS,
        FAULTS,
        ("trace", "", "write all cells' JSONL traces here, in order"),
        TOPOLOGY,
    ],
};

/// Runs the subcommand.
pub fn run(flags: &Flags) -> Result<(), String> {
    print!("{}", sweep(flags)?);
    Ok(())
}

/// Runs the grid, printing its header and trace lines, and returns the
/// table.
fn sweep(flags: &Flags) -> Result<Table, String> {
    let code = parse_code(flags.str("code"))?;
    let algos = flags
        .list("algos")
        .map(|name| {
            AlgoKind::from_name(name)
                .ok_or_else(|| format!("unknown algorithm `{name}` in --algos"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let seeds: usize = flags.num("seeds")?;
    let clients: usize = flags.num("clients")?;
    let requests: usize = flags.num("requests")?;
    let chunks: usize = flags.num("chunks")?;
    let jobs = grid::resolve_jobs(flags.num("jobs")?);
    if algos.is_empty() || seeds == 0 {
        return Err("--algos and --seeds must name at least one algorithm and seed".into());
    }
    check_cells(algos.len(), seeds)?;
    check_sizes(chunks, storage_nodes(code.n()), clients, requests)?;
    let trace_path = flags.str("trace");

    let topology = chameleon_cluster::TopologySpec::parse(flags.str("topology"))?;

    let mut scale = Scale::small();
    scale.chunks_per_node = chunks;
    scale.clients = clients;
    scale.requests_per_client = requests;
    let mut cfg = scale.cluster_config_with_nodes(code.n(), storage_nodes(code.n()));
    cfg.topology = topology;
    // The grid's workers treat a bad cluster as a bug; reject it here.
    chameleon_cluster::Cluster::new(cfg.clone()).map_err(cluster_error)?;
    let faults = parse_faults(flags, cfg.total_nodes())?;

    let mut cells = Vec::new();
    let mut specs = Vec::new();
    for &algo in &algos {
        for seed in 0..seeds as u64 {
            cells.push((algo, seed));
            let mut spec = RunSpec::new(
                format!("{}/seed{}", algo.label(), seed),
                code.clone(),
                cfg.clone(),
                algo,
                Some(FgSpec {
                    kinds: vec![chameleon_traces::TraceKind::YcsbA],
                    clients,
                    requests_per_client: requests,
                    seed: 0xFACE + seed,
                }),
            )
            .with_seed(7 + seed);
            if let Some(plan) = &faults {
                spec = spec.with_faults(plan.clone());
            }
            if !trace_path.is_empty() {
                spec = spec.with_trace();
            }
            specs.push(spec);
        }
    }
    println!(
        "sweep: {} algorithms x {seeds} seeds = {} runs, code {}, {jobs} worker(s)",
        algos.len(),
        specs.len(),
        code.name()
    );
    let outs = grid::run_grid(&specs, jobs, RunSpec::execute);

    // Traces are buffered inside each worker and rendered here, in spec
    // order, so the file is byte-identical at any `--jobs` count.
    if !trace_path.is_empty() {
        let jsonl: String = outs
            .iter()
            .filter_map(|out| out.trace_jsonl())
            .collect::<Vec<_>>()
            .concat();
        std::fs::write(trace_path, &jsonl)
            .map_err(|e| format!("cannot write --trace file `{trace_path}`: {e}"))?;
        println!(
            "trace: {} runs, {} lines -> {trace_path}",
            outs.len(),
            jsonl.lines().count()
        );
    }

    let mut table = Table::new(
        "sweep",
        "repair throughput across seeds (YCSB foreground)",
        &[
            ("algorithm", "algorithm"),
            ("mean repair MB/s", "mean_repair_mbps"),
            ("spread MB/s", "spread_mbps"),
            ("mean P99 (ms)", "mean_p99_ms"),
            ("replans", "replans"),
        ],
    );
    for (group, group_outs) in cells.chunks(seeds).zip(outs.chunks(seeds)) {
        let algo = group[0].0;
        let mbps: Vec<f64> = group_outs.iter().map(|o| o.repair_mbps()).collect();
        let p99: Vec<f64> = group_outs.iter().map(|o| o.p99_ms()).collect();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let spread = mbps.iter().cloned().fold(f64::MIN, f64::max)
            - mbps.iter().cloned().fold(f64::MAX, f64::min);
        let replans: usize = group_outs.iter().map(|o| o.outcome.recovery.replans).sum();
        table.push(vec![
            algo.label(),
            format!("{:.1}", mean(&mbps)),
            format!("{spread:.1}"),
            format!("{:.2}", mean(&p99)),
            replans.to_string(),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &str) -> Flags {
        let argv: Vec<String> = args.split(' ').map(String::from).collect();
        Flags::parse(&argv, &COMMAND).unwrap()
    }

    /// The grid runs cells on worker threads; a fault the simulator cannot
    /// apply used to panic there, after the sweep had started.
    #[test]
    fn a_fault_outside_the_cluster_is_rejected_before_any_cell_runs() {
        let err = run(&flags(
            "--seeds 1 --chunks 1 --requests 10 --faults crash:99@0.1",
        ))
        .unwrap_err();
        assert!(
            err.contains("node 99") && err.contains("the cluster has"),
            "{err}"
        );
    }

    /// Every spec is built before the first cell runs: `--seeds
    /// 100000000000` used to grow until the host ran out of memory.
    #[test]
    fn oversized_sweeps_fail_before_any_spec_is_built() {
        for (args, flag) in [
            ("--seeds 100000000000 --algos cr", "--seeds"),
            ("--chunks 4611686018427387909", "--chunks"),
            ("--requests 4611686018427387904", "--requests"),
        ] {
            let err = run(&flags(args)).unwrap_err();
            assert!(err.contains(flag), "{args}: {err}");
        }
    }

    #[test]
    fn more_racks_than_nodes_are_rejected_before_any_cell_runs() {
        // 20 storage nodes and 4 clients.
        let err = run(&flags("--seeds 1 --topology racked:25,8")).unwrap_err();
        assert!(
            err.starts_with("--topology: 25 racks") && err.contains("24 nodes"),
            "{err}"
        );
    }

    /// A code as wide as the paper's 20 nodes used to leave no stripe an
    /// off-stripe destination: every cell repaired nothing and printed
    /// 0.0 MB/s. The sweep sizes its cluster the way `repair` does.
    #[test]
    fn a_code_as_wide_as_the_cluster_still_repairs() {
        let args = "--code rs:16,4 --seeds 1 --chunks 2 --requests 20 --algos cr,chameleon";
        let table = sweep(&flags(args)).unwrap();
        assert_eq!(table.rows().len(), 2);
        for row in table.rows() {
            let mbps: f64 = row[1].parse().unwrap();
            assert!(mbps > 0.0, "{row:?}");
        }
    }
}
