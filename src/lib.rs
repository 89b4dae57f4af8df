//! ChameleonEC: low-interference repair for erasure-coded storage.
//!
//! A from-scratch Rust reproduction of *"ChameleonEC: Exploiting Tunability
//! of Erasure Coding for Low-Interference Repair"* (HPCA 2025), including
//! every substrate the paper depends on:
//!
//! - [`gf`] — GF(2^8) arithmetic and matrix algebra
//! - [`codes`] — Reed–Solomon, LRC, and Butterfly erasure codes
//! - [`simnet`] — flow-level discrete-event cluster simulator (the EC2
//!   testbed substitute)
//! - [`traces`] — synthetic foreground workloads (YCSB-A, IBM COS, Twitter
//!   Memcached, Facebook ETC)
//! - [`cluster`] — stripes, placement, failures, foreground clients
//! - [`core`] — repair algorithms: CR, PPR, ECPipe, RepairBoost, and
//!   ChameleonEC itself
//!
//! # Quick start
//!
//! ```
//! use chameleonec::cluster::{Cluster, ClusterConfig};
//! use chameleonec::codes::ReedSolomon;
//! use chameleonec::core::chameleon::{ChameleonConfig, ChameleonDriver};
//! use chameleonec::core::run::Run;
//! use chameleonec::core::{RepairContext, RepairDriver};
//! use std::sync::Arc;
//!
//! // A 20-node cluster protected by RS(4,2); node 0 dies.
//! let mut cluster = Cluster::new(ClusterConfig::small(6))?;
//! cluster.fail_node(0)?;
//! let lost = cluster.lost_chunks(&[0]);
//!
//! // `core::run` routes every simulator event: fault injector, then the
//! // repair side, then the foreground (neither of the other two here).
//! let mut run = Run::new(RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2)?)));
//! let mut driver = ChameleonDriver::new(run.ctx.clone(), ChameleonConfig::default());
//! driver.start(&mut run.sim, lost);
//! run.drain(&mut driver)?;
//! println!("repair throughput: {:.1} MB/s",
//!          driver.outcome(&run.sim).throughput() / 1e6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use chameleon_cluster as cluster;
pub use chameleon_codes as codes;
pub use chameleon_core as core;
pub use chameleon_gf as gf;
pub use chameleon_simnet as simnet;
pub use chameleon_traces as traces;
