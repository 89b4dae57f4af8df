//! The repository benchmark.
//!
//! Five named workloads drive the stack through the public functions of
//! the product crates only. A timed run reports the end-to-end metrics of
//! one workload; a traced run re-executes it through the benchmark's own
//! copy of the event loops, with a span or an aggregate around every call
//! into a layer, and reports the per-layer metrics. Every run checks its
//! outputs. See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod codec;
pub mod host;
pub mod json;
pub mod probes;
pub mod registry;
pub mod run;
pub mod sim;
pub mod spans;
pub mod traced;
