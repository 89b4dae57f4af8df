//! ChameleonEC: low-interference repair by exploiting the tunability of
//! erasure coding (§III of the paper).
//!
//! The scheduler works in fixed-length *repair phases*:
//!
//! 1. At each phase start it measures the residual bandwidth of every
//!    node (capacity minus foreground usage) and dispatches each admitted
//!    chunk's `2k` upload/download tasks minimum-estimated-time-first
//!    ([`dispatch`]).
//! 2. It pairs the tasks into a *tunable repair plan* — an in-tree whose
//!    shape follows the task distribution rather than a fixed topology
//!    ([`tunable`], Algorithm 1).
//! 3. While repairs run it periodically compares progress against the
//!    dispatch-time expectations; delayed chunks are first *re-tuned*
//!    (a lagging relay download is redirected to the destination) and
//!    otherwise *re-ordered* (postponed so sibling chunks stop contending)
//!    — see [`ChameleonDriver`].
//!
//! [`ChameleonConfig::io`] switches the residual-bandwidth estimates from
//! the network links to disk bandwidth, yielding ChameleonEC-IO for
//! storage-bottlenecked clusters (§III-D, Exp#12).

pub mod dispatch;
pub mod tunable;

mod driver;

pub use dispatch::{dispatch_chunk, PhaseState, TaskAssignment};
pub use driver::{ChameleonConfig, ChameleonDriver, ChameleonStats, MultiNodePolicy};
pub use tunable::establish_plan;
