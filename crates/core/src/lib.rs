//! Repair algorithms for erasure-coded storage: the ChameleonEC scheduler
//! and the baselines it is evaluated against.
//!
//! The crate models a *repair plan* ([`RepairPlan`]) as an in-tree of
//! chunk transfers rooted at a destination node: every source uploads
//! exactly once, relay sources combine what they receive with their local
//! chunk (partial decoding, §II-C of the paper), and the destination
//! reassembles the failed chunk. Plans are executed against the
//! [`chameleon_simnet`] simulator at slice granularity by
//! [`PlanExecutor`], which pipelines disk reads, network hops, and disk
//! writes exactly like the sliced transfer paths in the paper's prototype.
//!
//! Algorithms:
//!
//! - [`cr`]: conventional repair — all sources send straight to the
//!   destination (Fig. 3(a)).
//! - [`ppr`]: partial-parallel repair — binary-tree aggregation
//!   (Fig. 3(b), Mitra et al. EuroSys 2016).
//! - [`ecpipe`]: chained repair pipelining (Li et al. ATC 2017).
//! - RepairBoost (Lin et al. ATC 2021): its traffic balancing — steer every
//!   chunk's sources and destination to the least-loaded candidates — is
//!   [`SourceSelector::balanced`] under a fixed plan shape,
//!   `baseline::StaticRepairDriver::boosted`. Its transmission scheduling
//!   is subsumed by the fluid fair sharing of `simnet` (EXPERIMENTS.md, D3).
//! - [`chameleon`]: **ChameleonEC** — bandwidth-aware task dispatch
//!   (§III-A), tunable plan establishment (§III-B, Algorithm 1), and
//!   straggler-aware re-scheduling (§III-C), plus the storage-bottleneck
//!   variant ChameleonEC-IO (§III-D).
//!
//! Full-node repair campaigns are run by [`RepairDriver`]s. There is one
//! campaign loop — work queue, in-flight roster, retry/backoff and stall
//! timers, failed-attempt booking, relocation, spans, outcome — and the
//! algorithms are two *planners* consulted only where they differ:
//! [`baseline::StaticRepairDriver`] (a fixed [`baseline::PlanShape`] over a
//! [`SourceSelector`]) and [`chameleon::ChameleonDriver`] (phase dispatch,
//! tunable plans, straggler re-scheduling) are that loop over each of them.
//! A campaign produces a [`RepairOutcome`] (repair throughput, per-chunk
//! latencies, recovery counters, and the wall-clock cost of the real
//! GF(2^8) coding stages measured by [`coding::PlanCoder`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod campaign;
pub mod chameleon;
pub mod coding;
mod context;
pub mod cr;
pub mod ecpipe;
mod error;
mod exec;
mod metrics;
pub mod orchestrator;
mod plan;
pub mod ppr;
pub mod recovery;
mod roster;
pub mod run;
mod select;

pub use coding::{CodingStats, PlanCoder};
pub use context::{RepairContext, Resources};
pub use error::RepairError;
pub use exec::{ExecStatus, PlanExecutor};
pub use metrics::{GivenUpChunk, LinkLoadStats, RepairOutcome, RepairSpan};
pub use orchestrator::{
    BudgetPolicy, BudgetStarvedEvent, DataLossEvent, LedgerEntry, LedgerState, Orchestrator,
    OrchestratorConfig, OrchestratorReport, QueuePolicy,
};
pub use plan::{Participant, PlanError, RepairPlan};
pub use recovery::{RecoveryPolicy, RecoveryStats};
pub use select::{SelectError, Selection, SourcePick, SourceSelector};

use chameleon_cluster::ChunkId;
use chameleon_simnet::{Event, FaultEvent, Simulator};

/// A driver that repairs a set of lost chunks to completion.
///
/// Drivers are fed simulator events by [`run::Run`], after the fault
/// injector and before the foreground driver, so repair and foreground
/// traffic contend naturally.
///
/// Drivers are `Send` so whole experiment runs (driver + simulator) can be
/// farmed out to worker threads by the parallel experiment grid in
/// `chameleon-bench`.
pub trait RepairDriver: Send {
    /// Algorithm name for reports, e.g. `ChameleonEC`.
    fn name(&self) -> String;

    /// Begins repairing `chunks`.
    fn start(&mut self, sim: &mut Simulator, chunks: Vec<ChunkId>);

    /// Handles a simulator event; returns `true` if it belonged to this
    /// driver.
    fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> bool;

    /// Notifies the driver of an injected fault the run loop applied
    /// (crash, recovery, slowdown). Crash-aware drivers update their
    /// failure view, enqueue chunks the crashed node held, and let their
    /// in-flight attempts fail over; the default ignores faults (abort
    /// notifications still reach [`RepairDriver::on_event`], so even a
    /// fault-oblivious driver sees its flows die rather than hang).
    fn on_fault(&mut self, sim: &mut Simulator, fault: &FaultEvent) {
        let _ = (sim, fault);
    }

    /// Whether every chunk has been repaired.
    fn is_done(&self) -> bool;

    /// The outcome so far (final once [`RepairDriver::is_done`]).
    fn outcome(&self, sim: &Simulator) -> RepairOutcome;

    /// Completed repair spans so far, in completion order. An orchestrator
    /// harvests these incrementally: `spans()[i]` describes the same
    /// repair as `completed_plans()[i]`.
    fn spans(&self) -> &[RepairSpan];

    /// Every recoverable failure recorded so far, in occurrence order.
    fn errors(&self) -> &[RepairError];

    /// The plan of every completed chunk repair, index-aligned with
    /// [`RepairDriver::spans`].
    fn completed_plans(&self) -> &[RepairPlan];

    /// When `true`, crash faults only update the driver's failure view —
    /// the crashed node's chunks are *not* self-enqueued, because an
    /// external orchestrator owns admission and will call
    /// [`RepairDriver::start`] with the work it admits.
    fn set_external_admission(&mut self, external: bool);
}

// Send-bound audit: the parallel experiment grid moves contexts across
// worker threads and builds drivers on them; keep these bounds locked in
// at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<RepairContext>();
    assert_send::<baseline::StaticRepairDriver>();
    assert_send::<chameleon::ChameleonDriver>();
    assert_send::<Box<dyn RepairDriver>>();
};
