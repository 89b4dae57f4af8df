//! RepairBoost (Lin et al., USENIX ATC 2021) as a boosting layer for the
//! static baselines.
//!
//! RepairBoost does two things in the original system: (1) balance the
//! repair *traffic* that concurrent chunk repairs impose on each node, and
//! (2) schedule transmissions to saturate unoccupied bandwidth. This
//! reproduction captures (1) — the dominant effect at the flow level — by
//! steering every chunk's sources and destination to the least-loaded
//! candidates ([`SourceSelector::balanced`](crate::SourceSelector::balanced)),
//! while the underlying algorithm keeps its fixed plan shape. The paper's
//! observation (Exp#6) that a fixed shape re-introduces imbalance even
//! under RepairBoost is exactly what this models.

use chameleon_cluster::ChunkId;
use chameleon_simnet::NodeId;

use crate::context::RepairContext;

/// Measures how evenly a set of per-node loads is spread: the ratio of the
/// maximum to the mean (1.0 = perfectly balanced). Used by the Exp#6
/// harness to show RB balancing vs. ChameleonEC.
pub fn imbalance_ratio(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    let max = loads.iter().cloned().fold(f64::MIN, f64::max);
    max / mean
}

/// Counts how many chunk repairs touch each storage node, given the
/// selections a driver made — a cheap static proxy for repair traffic
/// balance used in tests.
pub fn node_touch_counts(
    ctx: &RepairContext,
    assignments: &[(ChunkId, NodeId, Vec<NodeId>)],
) -> Vec<usize> {
    let mut counts = vec![0usize; ctx.cluster.storage_nodes()];
    for (_, dest, sources) in assignments {
        counts[*dest] += 1;
        for s in sources {
            counts[*s] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_uniform_loads_is_one() {
        assert_eq!(imbalance_ratio(&[2.0, 2.0, 2.0]), 1.0);
    }

    #[test]
    fn imbalance_grows_with_skew() {
        let skewed = imbalance_ratio(&[9.0, 1.0, 2.0]);
        let flat = imbalance_ratio(&[4.0, 4.0, 4.0]);
        assert!(skewed > flat);
    }

    #[test]
    fn empty_or_zero_loads_are_neutral() {
        assert_eq!(imbalance_ratio(&[]), 1.0);
        assert_eq!(imbalance_ratio(&[0.0, 0.0]), 1.0);
    }
}
