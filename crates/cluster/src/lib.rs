//! Erasure-coded storage cluster model.
//!
//! Glue between the [`chameleon_simnet`] substrate and the repair
//! algorithms: where chunks live, what a node failure loses, how foreground
//! clients load the cluster, and the paper's analytical reliability model.
//!
//! - [`Placement`]: stripes laid out over nodes, one chunk per node per
//!   stripe (the paper's §II-A placement rule).
//! - [`Cluster`]: a placement plus node/failure state; builds the
//!   [`Simulator`](chameleon_simnet::Simulator) for experiments (storage
//!   nodes first, then client nodes).
//! - [`ForegroundDriver`]: closed-loop clients replaying a
//!   [`Workload`](chameleon_traces::Workload), recording per-request
//!   latency (for P99) and total execution time (for the interference
//!   degree of Exp#2).
//! - [`reliability`]: the data-loss probability model of §II-B (Fig. 2).
//! - [`stats`]: percentile helpers.
//!
//! # Examples
//!
//! ```
//! use chameleon_cluster::{Cluster, ClusterConfig};
//!
//! let cfg = ClusterConfig::small(14);
//! let cluster = Cluster::new(cfg)?;
//! assert_eq!(cluster.storage_nodes(), 20);
//! let lost = cluster.lost_chunks(&[3]);
//! assert!(!lost.is_empty());
//! # Ok::<(), chameleon_cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod foreground;
mod placement;
pub mod reliability;
pub mod stats;

pub use config::{Cluster, ClusterConfig, ClusterError, TopologySpec};
pub use foreground::{ForegroundDriver, ForegroundReport};
pub use placement::{ChunkId, Placement, PlacementStrategy};

// Send-bound audit for the parallel experiment grid in `chameleon-bench`:
// clusters are shared read-only across worker threads (inside `RunSpec`s)
// and foreground drivers run on them (`Workload: Send` keeps the boxed
// workloads movable).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Cluster>();
    assert_send_sync::<ClusterConfig>();
    assert_send::<ForegroundDriver>();
};
