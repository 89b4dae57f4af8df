//! Shared scheduling context.

use std::sync::Arc;

use chameleon_cluster::Cluster;
use chameleon_codes::ErasureCode;

use crate::recovery::RecoveryPolicy;

/// Which node resource pair a scheduler balances against: the network links
/// (the paper's default) or the storage bandwidth (ChameleonEC-IO, §III-D
/// and Exp#12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resources {
    /// Balance against uplink/downlink residual bandwidth.
    Network,
    /// Balance against disk read/write residual bandwidth.
    Storage,
}

/// Everything a repair scheduler needs to know about the system: the
/// cluster state (placement + failures) and the erasure code in use.
///
/// Cheap to clone (the code is shared).
#[derive(Clone)]
pub struct RepairContext {
    /// Cluster layout and failure state.
    pub cluster: Cluster,
    /// The erasure code protecting the stripes.
    pub code: Arc<dyn ErasureCode>,
    /// The retry/backoff policy every driver built on this context uses —
    /// one shared policy, so an orchestrator and its inner driver agree on
    /// when a chunk is given up.
    pub recovery: RecoveryPolicy,
}

impl std::fmt::Debug for RepairContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairContext")
            .field("code", &self.code.name())
            .field("storage_nodes", &self.cluster.storage_nodes())
            .finish()
    }
}

impl RepairContext {
    /// Creates a context.
    ///
    /// # Panics
    ///
    /// Panics if the code's stripe width does not match the cluster
    /// configuration.
    pub fn new(cluster: Cluster, code: Arc<dyn ErasureCode>) -> Self {
        assert_eq!(
            cluster.config().stripe_width,
            code.n(),
            "cluster stripe width must equal the code's n"
        );
        RepairContext {
            cluster,
            code,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Chunk size in bytes.
    pub fn chunk_size(&self) -> u64 {
        self.cluster.config().chunk_size
    }

    /// Slice size in bytes.
    pub fn slice_size(&self) -> u64 {
        self.cluster.config().slice_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_cluster::ClusterConfig;
    use chameleon_codes::ReedSolomon;

    #[test]
    fn context_checks_stripe_width() {
        let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
        let code = Arc::new(ReedSolomon::new(4, 2).unwrap());
        let ctx = RepairContext::new(cluster, code);
        assert_eq!(ctx.chunk_size(), 4 << 20);
        assert!(format!("{ctx:?}").contains("RS(4,2)"));
    }

    #[test]
    #[should_panic(expected = "stripe width")]
    fn mismatched_width_panics() {
        let cluster = Cluster::new(ClusterConfig::small(8)).unwrap();
        let code = Arc::new(ReedSolomon::new(4, 2).unwrap());
        let _ = RepairContext::new(cluster, code);
    }
}
