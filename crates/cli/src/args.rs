//! The domain parsers and cluster helpers the subcommands share.

use std::fmt;
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

/// The most chunks a command lays out (`--chunks` × storage nodes): the
/// placement holds an id per stored chunk before the run starts.
pub const MAX_STORED_CHUNKS: usize = 1 << 20;
/// The most client machines a command simulates (`--clients`).
pub const MAX_CLIENTS: usize = 10_000;
/// The most foreground requests (`--clients` × `--requests`): the driver
/// reserves a latency sample for each before the first is issued.
pub const MAX_REQUESTS: usize = 1 << 24;
/// The most cells `sweep` runs (algorithms × `--seeds`): it builds every
/// spec before the first cell runs and keeps every output for its table.
pub const MAX_CELLS: usize = 1 << 10;

/// A size flag whose product would wrap or pass its bound. Each is raised
/// before anything is sized by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeError {
    /// `--chunks` on this many storage nodes is past [`MAX_STORED_CHUNKS`].
    Chunks { chunks: usize, nodes: usize },
    /// `--clients` is past [`MAX_CLIENTS`].
    Clients(usize),
    /// `--clients` × `--requests` is past [`MAX_REQUESTS`].
    Requests { clients: usize, requests: usize },
    /// This many algorithms × `--seeds` is past [`MAX_CELLS`].
    Cells { algos: usize, seeds: usize },
}

impl fmt::Display for SizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SizeError::Chunks { chunks, nodes } => write!(
                f,
                "--chunks {chunks} on {nodes} storage nodes is past the \
                 {MAX_STORED_CHUNKS} chunks a layout holds"
            ),
            SizeError::Clients(clients) => {
                write!(f, "--clients {clients} is past {MAX_CLIENTS} clients")
            }
            SizeError::Requests { clients, requests } => write!(
                f,
                "--clients {clients} × --requests {requests} is past {MAX_REQUESTS} requests"
            ),
            SizeError::Cells { algos, seeds } => write!(
                f,
                "{algos} --algos × --seeds {seeds} is past the {MAX_CELLS} cells a sweep runs"
            ),
        }
    }
}

impl From<SizeError> for String {
    fn from(e: SizeError) -> String {
        e.to_string()
    }
}

/// `a × b` if it is at most `bound`.
fn product_within(a: usize, b: usize, bound: usize) -> bool {
    a.checked_mul(b).is_some_and(|p| p <= bound)
}

/// Checks the sizes a run is built from: `chunks` per storage node on
/// `nodes` nodes, and `clients` issuing `requests` each.
pub fn check_sizes(
    chunks: usize,
    nodes: usize,
    clients: usize,
    requests: usize,
) -> Result<(), SizeError> {
    if !product_within(chunks, nodes, MAX_STORED_CHUNKS) {
        return Err(SizeError::Chunks { chunks, nodes });
    }
    if clients > MAX_CLIENTS {
        return Err(SizeError::Clients(clients));
    }
    if !product_within(clients, requests, MAX_REQUESTS) {
        return Err(SizeError::Requests { clients, requests });
    }
    Ok(())
}

/// Checks the cells of a sweep of `algos` algorithms × `seeds` seeds.
pub fn check_cells(algos: usize, seeds: usize) -> Result<(), SizeError> {
    if product_within(algos, seeds, MAX_CELLS) {
        Ok(())
    } else {
        Err(SizeError::Cells { algos, seeds })
    }
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

    #[test]
    fn sizes_past_their_bounds_are_typed_errors() {
        // 4611686018427387909 × 20 wraps to 100, the product of --chunks 5.
        let wraps = 4_611_686_018_427_387_909;
        assert_eq!(
            check_sizes(wraps, 20, 0, 0),
            Err(SizeError::Chunks {
                chunks: wraps,
                nodes: 20
            })
        );
        let at_bound = MAX_STORED_CHUNKS / 20;
        assert_eq!(check_sizes(at_bound, 20, 4, 4000), Ok(()));
        assert!(check_sizes(at_bound + 1, 20, 4, 4000).is_err());
        assert_eq!(
            check_sizes(20, 20, MAX_CLIENTS + 1, 0),
            Err(SizeError::Clients(MAX_CLIENTS + 1))
        );
        for (clients, requests) in [
            (4, usize::MAX),
            (4, MAX_REQUESTS / 4 + 1),
            (1, MAX_REQUESTS + 1),
        ] {
            assert_eq!(
                check_sizes(20, 20, clients, requests),
                Err(SizeError::Requests { clients, requests })
            );
        }
        assert_eq!(check_sizes(20, 20, 4, MAX_REQUESTS / 4), Ok(()));
        assert_eq!(
            check_cells(1, 100_000_000_000),
            Err(SizeError::Cells {
                algos: 1,
                seeds: 100_000_000_000
            })
        );
        assert_eq!(
            check_cells(9, usize::MAX),
            Err(SizeError::Cells {
                algos: 9,
                seeds: usize::MAX
            })
        );
        assert_eq!(check_cells(4, MAX_CELLS / 4), Ok(()));
    }
}
