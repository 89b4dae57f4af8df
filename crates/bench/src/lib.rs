//! Experiment harness library: the per-figure and per-table experiments
//! the `suite` binary runs, and the scaffolding they share.
//!
//! Every harness reproduces one artifact from the paper's evaluation
//! (§II-D and §V). They all run at a configurable [`Scale`]:
//!
//! - `CHAMELEON_SCALE=small` (default): the same 20-node topology with
//!   fewer chunks and requests, so the full suite finishes in minutes.
//! - `CHAMELEON_SCALE=paper`: the paper's parameters (200 × 64 MB chunks
//!   per failed node, 100 k requests per client) — slower, for final
//!   numbers.
//!
//! Results are printed as tables and also written as CSV under
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod experiments;
pub mod flags;
pub mod gate;
pub mod grid;
pub mod runner;
pub mod scale;
pub mod table;

pub use algo::AlgoKind;
pub use grid::{run_grid, DriverSpec, RunMode, RunSpec};
pub use runner::{
    client_seed, run_orchestrated, FgSpec, OrchestratedRunOutput, RunOutput, SimSummary,
};
pub use scale::Scale;
