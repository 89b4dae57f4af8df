//! Synthetic foreground workload generators.
//!
//! The paper replays four real-world traces as foreground traffic while a
//! repair runs (§V-A, Exp#1). The raw traces are not redistributable, so
//! this crate generates seeded synthetic streams matching each trace's
//! *published access characteristics* — which is all the repair experiments
//! depend on (operation mix, value-size distribution, and key skew):
//!
//! | Workload | Mix | Value sizes | Keys |
//! |---|---|---|---|
//! | [`YcsbA`] | 50% read / 50% update | 512 KB fixed | Zipfian (α = 0.99) |
//! | [`IbmObjectStore`] | read-heavy | 16 B – 2.4 GB, heavy-tailed | Zipfian |
//! | [`TwitterMemcached`] | 63% GET / 37% SET | ≈ 20 KB log-normal | Zipfian |
//! | [`FacebookEtc`] | 30:1 GET/UPDATE | Pareto (small, heavy tail) | GEV-spaced |
//!
//! All generators implement [`Workload`] and are deterministic given a
//! seed.
//!
//! # Examples
//!
//! ```
//! use chameleon_traces::{Op, Workload, YcsbA};
//!
//! let mut w = YcsbA::new(42);
//! let r = w.next_request();
//! assert_eq!(r.value_size, 512 * 1024);
//! assert!(matches!(r.op, Op::Get | Op::Put));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod workloads;

pub use dist::{GeneralizedExtremeValue, LogNormal, Pareto, Zipfian};
pub use workloads::{
    FacebookEtc, IbmObjectStore, Op, Request, TraceKind, TwitterMemcached, Workload, YcsbA,
};
