//! The domain parsers and cluster helpers the subcommands share.

use std::sync::Arc;

use chameleon_bench::flags::Flags;
use chameleon_cluster::ClusterError;
use chameleon_codes::{Butterfly, ErasureCode, Lrc, ReedSolomon};
use chameleon_simnet::FaultPlan;

/// Parses a code spec: `rs:K,M`, `lrc:K,L,M`, or `butterfly`.
pub fn parse_code(spec: &str) -> Result<Arc<dyn ErasureCode>, String> {
    if spec == "butterfly" {
        return Ok(Arc::new(Butterfly::new()));
    }
    let (family, params) = spec.split_once(':').ok_or_else(|| {
        format!("invalid code spec `{spec}` (try rs:10,4 / lrc:10,2,2 / butterfly)")
    })?;
    let nums: Vec<usize> = params
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("invalid code parameter `{p}`"))
        })
        .collect::<Result<_, String>>()?;
    match (family, nums.as_slice()) {
        ("rs", [k, m]) => ReedSolomon::new(*k, *m)
            .map(|c| Arc::new(c) as Arc<dyn ErasureCode>)
            .map_err(|e| e.to_string()),
        ("lrc", [k, l, m]) => Lrc::new(*k, *l, *m)
            .map(|c| Arc::new(c) as Arc<dyn ErasureCode>)
            .map_err(|e| e.to_string()),
        _ => Err(format!("invalid code spec `{spec}`")),
    }
}

/// Storage nodes of every command's cluster for a code of width `n`: the
/// paper's 20, or one more than the stripe, so that every stripe has an
/// off-stripe node to rebuild onto.
pub fn storage_nodes(n: usize) -> usize {
    20.max(n + 1)
}

/// A cluster construction error as every command reports it: too many
/// racks is a bad `--topology`.
pub fn cluster_error(e: ClusterError) -> String {
    match e {
        ClusterError::RacksExceedNodes { .. } => format!("--topology: {e}"),
        e => e.to_string(),
    }
}

/// Parses `--faults` for a cluster of `total_nodes` simulator nodes (storage
/// and clients). A spec naming a node outside the cluster is rejected here:
/// the simulator would only notice when the fault's timer fires, and panic.
pub fn parse_faults(flags: &Flags, total_nodes: usize) -> Result<Option<FaultPlan>, String> {
    let spec = flags.str("faults");
    if spec.is_empty() {
        return Ok(None);
    }
    let plan = FaultPlan::parse_list(spec)?;
    match plan.specs().iter().find(|s| s.node() >= total_nodes) {
        Some(bad) => Err(format!(
            "--faults names node {}, but the cluster has {total_nodes} nodes (0..={})",
            bad.node(),
            total_nodes - 1
        )),
        None => Ok(Some(plan)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_code_specs() {
        assert_eq!(parse_code("rs:10,4").unwrap().n(), 14);
        assert_eq!(parse_code("lrc:4,2,2").unwrap().n(), 8);
        assert_eq!(parse_code("butterfly").unwrap().n(), 4);
        assert!(parse_code("rs:0,4").is_err());
        assert!(parse_code("nonsense").is_err());
    }
}
