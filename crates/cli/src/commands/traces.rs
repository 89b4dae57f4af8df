//! The `traces` subcommand: sample a synthetic workload and summarize it.

use chameleon_bench::flags::{Command, Flags};
use chameleon_cluster::stats::percentile;
use chameleon_traces::{Op, TraceKind};

/// `traces`' flags.
pub const COMMAND: Command = Command {
    name: "traces",
    about: "Sample a synthetic workload and print its statistics",
    flags: &[
        ("kind", "ycsb", "ycsb | ibm | memcached | etc"),
        ("count", "100000", "requests to sample"),
        ("seed", "1", "RNG seed"),
    ],
};

/// Runs the subcommand.
pub fn run(flags: &Flags) -> Result<String, String> {
    let kind = match flags.str("kind") {
        "ycsb" => TraceKind::YcsbA,
        "ibm" => TraceKind::IbmObjectStore,
        "memcached" => TraceKind::TwitterMemcached,
        "etc" => TraceKind::FacebookEtc,
        other => return Err(format!("unknown trace kind `{other}`")),
    };
    let count: usize = flags.num("count")?;
    let seed: u64 = flags.num("seed")?;
    if count == 0 {
        return Err("--count must be positive".to_string());
    }

    let mut w = kind.build(seed);
    let mut gets = 0usize;
    let mut total_bytes = 0u64;
    let mut sizes = Vec::with_capacity(count);
    let mut key_hits = std::collections::HashMap::new();
    for _ in 0..count {
        let r = w.next_request();
        if r.op == Op::Get {
            gets += 1;
        }
        total_bytes += r.value_size;
        sizes.push(r.value_size as f64);
        *key_hits.entry(r.key).or_insert(0usize) += 1;
    }
    let pctile = |p| percentile(&sizes, p).expect("--count is positive");
    let hottest = key_hits.values().max().copied().unwrap_or(0);

    Ok(format!(
        "trace {} ({count} requests, seed {seed}):\n  \
         op mix          : {:.1}% GET / {:.1}% PUT\n  \
         value sizes     : p50 {} B, p90 {} B, p99 {} B, max {} B\n  \
         mean value size : {:.0} B\n  \
         total volume    : {:.2} GB\n  \
         key skew        : hottest key gets {:.2}% of requests ({} distinct keys)\n",
        kind.name(),
        100.0 * gets as f64 / count as f64,
        100.0 * (count - gets) as f64 / count as f64,
        pctile(0.50),
        pctile(0.90),
        pctile(0.99),
        pctile(1.0),
        total_bytes as f64 / count as f64,
        total_bytes as f64 / 1e9,
        100.0 * hottest as f64 / count as f64,
        key_hits.len()
    ))
}
