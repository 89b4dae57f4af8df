//! Flow-level discrete-event simulator for cluster networks and storage.
//!
//! This crate is the testbed substitute for the paper's 20-node Amazon EC2
//! cluster. It models:
//!
//! - **Nodes** with four capacity-limited resources each: network uplink,
//!   network downlink, disk read, and disk write bandwidth
//!   ([`NodeCaps`], [`ResourceKind`]).
//! - **Flows** ([`FlowSpec`]) — byte transfers that traverse one or more
//!   resources (a network transfer consumes the source's uplink and the
//!   destination's downlink; a disk read consumes the node's disk-read
//!   bandwidth). Concurrent flows share resources by **max–min fairness**
//!   (progressive filling), the standard abstraction for TCP-like
//!   bandwidth sharing.
//! - **Traffic classes** ([`Traffic`]) so repair, foreground, and injected
//!   background traffic can be accounted separately — this powers both the
//!   paper's measurements (Figs. 5–6) and ChameleonEC's residual-bandwidth
//!   estimation.
//! - **Hierarchical fabrics** ([`Topology`]): racks of nodes joined by
//!   per-rack ToR up/down links and an optionally oversubscribed spine,
//!   compiled into shared link resources that additionally constrain
//!   cross-rack flows (same-rack flows never touch them).
//! - A **windowed bandwidth monitor** ([`Monitor`]) recording per-node,
//!   per-direction, per-class usage in fixed windows (15 s in §II-D).
//! - **Deterministic fault injection** ([`faults`]): seeded schedules of
//!   node crashes/recoveries, transient slowdowns, and disk degradation,
//!   driven off the engine's timer wheel. Killed flows surface as
//!   [`FlowOutcome::Aborted`] completions instead of silently vanishing.
//! - **Observability** ([`trace`]): an opt-in, zero-cost-when-off
//!   [`TraceSink`] of structured flow-lifecycle events
//!   (admitted/rate-changed/completed/aborted, with class, endpoints,
//!   bytes, and cause) plus always-on [`EngineProfile`] self-profiling
//!   counters (events, solver invocations and rounds, heap rebuilds,
//!   timer churn).
//!
//! The simulator uses a *pull* event loop: drivers call
//! [`Simulator::next_event`] and react to [`Event`]s, starting new flows and
//! timers as the experiment unfolds. Everything is single-threaded and
//! deterministic.
//!
//! # Examples
//!
//! ```
//! use chameleon_simnet::{Event, FlowSpec, NodeCaps, SimConfig, Simulator, Traffic};
//!
//! // Two nodes with 10 Gb/s links and 500 MB/s disks.
//! let caps = NodeCaps::symmetric(1.25e9, 500e6);
//! let mut sim = Simulator::new(SimConfig::uniform(2, caps));
//! let flow = sim.start_flow(FlowSpec::network(0, 1, 1_250_000_000, Traffic::Foreground));
//! match sim.next_event() {
//!     Some(Event::FlowCompleted { id, .. }) => assert_eq!(id, flow),
//!     other => panic!("unexpected {other:?}"),
//! }
//! // The 1.25 GB transfer at 1.25 GB/s takes one second.
//! assert!((sim.now().as_secs() - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod faults;
mod flow;
mod idmap;
pub mod maxmin;
mod monitor;
mod node;
#[doc(hidden)]
pub mod reference;
mod time;
pub mod topology;
pub mod trace;

pub use engine::{Event, SimConfig, Simulator, StaleRatesError};
pub use faults::{FaultEvent, FaultInjector, FaultPlan, FaultSpec};
pub use flow::{FlowId, FlowOutcome, FlowSpec, TimerId};
pub use idmap::{IdHasher, IdMap};
pub use maxmin::{allocate_rates, IncrementalSolver, MaxMinSolver, SolveOutcome};
pub use monitor::{Monitor, UsageSample};
pub use node::{NodeCaps, NodeId, ResourceKind, Traffic};
pub use time::SimTime;
pub use topology::Topology;
pub use trace::{AbortCause, EngineProfile, TraceEvent, TraceEventKind, TraceSink};
