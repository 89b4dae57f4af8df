//! The `sweep` subcommand: a parallel algorithm x seed grid from the
//! command line, executed on the `chameleon-bench` worker pool.
//!
//! Every (algorithm, seed) cell runs one full-node repair under YCSB
//! foreground load; the table reports per-cell repair throughput and P99,
//! plus a per-algorithm mean across seeds. Results are independent of
//! `--jobs` (the grid's determinism contract).

use chameleon_bench::grid::{self, RunSpec};
use chameleon_bench::runner::FgSpec;
use chameleon_bench::table::Table;
use chameleon_bench::{AlgoKind, Scale};

use crate::args::{parse_code, parse_faults, Flags};

/// Runs the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.ensure_known(&[
        "code", "algos", "seeds", "clients", "requests", "chunks", "jobs", "faults", "trace",
        "topology",
    ])?;
    let code = parse_code(&flags.str_or("code", "rs:10,4"))?;
    let algos = parse_algos(&flags.str_or("algos", "cr,ppr,ecpipe,chameleon"))?;
    let seeds: usize = flags.num_or("seeds", 3)?;
    let clients: usize = flags.num_or("clients", 4)?;
    let requests: usize = flags.num_or("requests", 4000)?;
    let chunks: usize = flags.num_or("chunks", 20)?;
    let jobs: usize = match flags.num_or("jobs", 0)? {
        0 => grid::jobs_from_env(),
        n => n,
    };
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let trace_path = flags.str_or("trace", "");

    let topology = chameleon_cluster::TopologySpec::parse(&flags.str_or("topology", "flat"))?;

    let mut scale = Scale::small();
    scale.chunks_per_node = chunks;
    scale.clients = clients;
    scale.requests_per_client = requests;
    let mut cfg = scale.cluster_config(code.n());
    cfg.topology = topology;
    let faults = parse_faults(&flags, cfg.total_nodes())?;

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
    let outs = grid::run_specs(&specs, jobs);

    // Traces are buffered inside each worker and rendered here, in spec
    // order, so the file is byte-identical at any `--jobs` count.
    if !trace_path.is_empty() {
        let jsonl: String = outs
            .iter()
            .filter_map(|out| out.trace_jsonl())
            .collect::<Vec<_>>()
            .concat();
        std::fs::write(&trace_path, &jsonl)
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
    print!("{table}");
    Ok(())
}

fn parse_algos(spec: &str) -> Result<Vec<AlgoKind>, String> {
    spec.split(',')
        .map(|s| {
            let name = s.trim();
            AlgoKind::from_name(name)
                .ok_or_else(|| format!("unknown algorithm `{name}` in --algos"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grid runs cells on worker threads; a fault the simulator cannot
    /// apply used to panic there, after the sweep had started.
    #[test]
    fn a_fault_outside_the_cluster_is_rejected_before_any_cell_runs() {
        let args = "--seeds 1 --chunks 1 --requests 10 --faults crash:99@0.1";
        let argv: Vec<String> = args.split(' ').map(String::from).collect();
        let err = run(&argv).unwrap_err();
        assert!(
            err.contains("node 99") && err.contains("the cluster has"),
            "{err}"
        );
    }
}
