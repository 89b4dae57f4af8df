//! The typed error of the repair hot path.
//!
//! Injected faults must surface as *recorded failures* the drivers can
//! react to (re-plan, retry, or give a chunk up), never as process aborts.
//! [`RepairError`] is the single error type those paths propagate.

use chameleon_cluster::ChunkId;

/// Why a repair step failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairError {
    /// A helper or the destination was lost mid-attempt.
    HelperLost {
        /// The chunk whose attempt died.
        chunk: ChunkId,
    },
    /// A chunk was skipped without an attempt: source selection or plan
    /// construction failed terminally (too many erasures, or nowhere to
    /// put the result). Orchestration needs every admitted chunk to
    /// surface in exactly one terminal record (span, retries-exhausted, or
    /// this).
    Unrepairable {
        /// The chunk that could not be dispatched.
        chunk: ChunkId,
    },
    /// A chunk exhausted its retry budget and was given up.
    RetriesExhausted {
        /// The abandoned chunk.
        chunk: ChunkId,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// An executor was asked for state it does not have (e.g. the finish
    /// time of an attempt that never finished) — a recoverable internal
    /// inconsistency.
    ExecutorState(&'static str),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::HelperLost { chunk } => write!(
                f,
                "repair of stripe {} chunk {} lost a participant mid-attempt",
                chunk.stripe, chunk.index
            ),
            RepairError::Unrepairable { chunk } => write!(
                f,
                "stripe {} chunk {} is unrepairable (skipped without an attempt)",
                chunk.stripe, chunk.index
            ),
            RepairError::RetriesExhausted { chunk, attempts } => write!(
                f,
                "gave up on stripe {} chunk {} after {attempts} attempts",
                chunk.stripe, chunk.index
            ),
            RepairError::ExecutorState(what) => write!(f, "executor state missing: {what}"),
        }
    }
}

impl std::error::Error for RepairError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let chunk = ChunkId {
            stripe: 3,
            index: 1,
        };
        let e = RepairError::HelperLost { chunk };
        assert!(e.to_string().contains("stripe 3"));
        assert!(e.to_string().contains("lost a participant"));
        let e = RepairError::RetriesExhausted { chunk, attempts: 4 };
        assert!(e.to_string().contains("4 attempts"));
    }
}
