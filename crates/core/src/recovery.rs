//! The retry/backoff policy and the recovery counters of the campaign
//! loop.
//!
//! When an attempt dies (a helper or the destination crashed, or the
//! per-attempt stall watchdog expired), the loop — once, for every
//! algorithm —
//!
//! 1. aborts the attempt's remaining flows and books the wasted work
//!    ([`RecoveryStats::book_failed_attempt`]),
//! 2. waits out a capped exponential backoff in virtual time
//!    ([`RecoveryPolicy::backoff_secs`]), with seeded jitter so concurrent
//!    retries de-synchronize, then
//! 3. asks the planner for a fresh plan against the *surviving* nodes —
//!    when the failed node held stripe data this naturally escalates to a
//!    cascaded two-erasure repair (the planner simply sees one more
//!    erasure) — and re-dispatches, up to
//!    [`RecoveryPolicy::max_attempts`] per chunk.
//!
//! The whole state machine runs on simulator timers — no wall clock, no
//! global RNG — so runs with faults stay byte-deterministic.

use chameleon_cluster::ChunkId;
use chameleon_simnet::faults::{splitmix64, unit};

/// Backoff before retry `n` is `BACKOFF_BASE_SECS * 2^(n-1)`, capped at
/// `BACKOFF_CAP_SECS`.
const BACKOFF_BASE_SECS: f64 = 0.5;
const BACKOFF_CAP_SECS: f64 = 8.0;
/// Seeded jitter added to each backoff, uniform in `[0, JITTER_SECS)`.
const JITTER_SECS: f64 = 0.25;
/// Seed of the jitter stream (mixed per chunk and attempt).
const JITTER_SEED: u64 = 0x5EED_FA17;
/// An attempt making no progress for this long is aborted and re-planned —
/// how the loop observes helper loss even without an abort notification
/// (e.g. a helper slowed to a crawl).
pub(crate) const STALL_TIMEOUT_SECS: f64 = 30.0;

/// Retry policy of a repair campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum attempts per chunk (the first dispatch counts as one);
    /// further failures abandon the chunk as a recorded
    /// [`RepairError::RetriesExhausted`](crate::RepairError).
    pub max_attempts: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_attempts: 4 }
    }
}

impl RecoveryPolicy {
    /// Virtual-time backoff before retry attempt `attempt` (1-based count
    /// of *failures* so far) of `chunk`: capped exponential plus seeded
    /// jitter. Deterministic in `(chunk, attempt)`.
    pub fn backoff_secs(&self, chunk: ChunkId, attempt: u32) -> f64 {
        let expo = BACKOFF_BASE_SECS * f64::from(1u32 << (attempt - 1).min(20));
        let capped = expo.min(BACKOFF_CAP_SECS);
        let mut key = JITTER_SEED
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((chunk.stripe as u64) << 20)
            .wrapping_add((chunk.index as u64) << 8)
            .wrapping_add(u64::from(attempt));
        capped + unit(splitmix64(&mut key)) * JITTER_SECS
    }
}

/// Counters of a driver's recovery activity, reported on
/// [`RepairOutcome`](crate::RepairOutcome).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryStats {
    /// Attempts that died and were re-planned from fresh source selection.
    pub replans: usize,
    /// Re-dispatches that actually went back out (≤ `replans`; a replan
    /// whose chunk became unrepairable never re-dispatches).
    pub retries: usize,
    /// Repair flows killed by node failures or cancelled when their
    /// attempt was aborted.
    pub aborted_flows: usize,
    /// Repair bytes transferred by attempts that were thrown away.
    pub wasted_repair_bytes: f64,
    /// Chunks abandoned after exhausting the retry budget.
    pub given_up: usize,
}

impl RecoveryStats {
    /// Books one failed attempt: its aborted flows and wasted bytes, plus
    /// the replan it triggers.
    pub fn book_failed_attempt(&mut self, aborted_flows: usize, wasted_bytes: f64) {
        self.replans += 1;
        self.aborted_flows += aborted_flows;
        self.wasted_repair_bytes += wasted_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(stripe: usize, index: usize) -> ChunkId {
        ChunkId { stripe, index }
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let p = RecoveryPolicy::default();
        let c = chunk(0, 0);
        let b1 = p.backoff_secs(c, 1);
        let b2 = p.backoff_secs(c, 2);
        let b3 = p.backoff_secs(c, 3);
        assert!((BACKOFF_BASE_SECS..BACKOFF_BASE_SECS + JITTER_SECS).contains(&b1));
        assert!((2.0 * BACKOFF_BASE_SECS..2.0 * BACKOFF_BASE_SECS + JITTER_SECS).contains(&b2));
        assert!(b3 >= 4.0 * BACKOFF_BASE_SECS);
        // Deep attempts hit the cap (plus jitter at most).
        let b9 = p.backoff_secs(c, 9);
        assert!((BACKOFF_CAP_SECS..BACKOFF_CAP_SECS + JITTER_SECS).contains(&b9));
    }

    #[test]
    fn backoff_is_deterministic_and_jitter_desynchronizes_chunks() {
        let p = RecoveryPolicy::default();
        assert_eq!(
            p.backoff_secs(chunk(1, 2), 1).to_bits(),
            p.backoff_secs(chunk(1, 2), 1).to_bits()
        );
        // Different chunks get different jitter.
        assert_ne!(
            p.backoff_secs(chunk(1, 2), 1).to_bits(),
            p.backoff_secs(chunk(1, 3), 1).to_bits()
        );
    }

    /// The default policy's backoffs, bit for bit: base 0.5 s doubling to
    /// the 8 s cap, plus the jitter drawn from the default seed.
    #[test]
    fn default_backoff_is_pinned_bit_for_bit() {
        const PINNED: [(usize, usize, u32, u64); 8] = [
            (0, 0, 1, 0x3fe3_566a_2118_164a),
            (0, 0, 2, 0x3ff0_d7c0_ae71_e12e),
            (0, 0, 3, 0x4000_f0ec_c31b_57d5),
            (0, 0, 4, 0x4010_a05f_735e_ca6c),
            (0, 0, 5, 0x4020_3256_5d9c_be5e),
            (3, 7, 1, 0x3fe4_5983_dc78_8b9b),
            (3, 7, 5, 0x4020_672e_dc12_78ee),
            (12, 2, 9, 0x4020_139a_9686_8879),
        ];
        let p = RecoveryPolicy::default();
        for (stripe, index, attempt, bits) in PINNED {
            let got = p.backoff_secs(chunk(stripe, index), attempt);
            assert_eq!(
                got.to_bits(),
                bits,
                "backoff of ({stripe}, {index}) attempt {attempt}: {got} != {}",
                f64::from_bits(bits)
            );
        }
    }

    #[test]
    fn failed_attempts_book_replans_flows_and_bytes() {
        let mut a = RecoveryStats::default();
        a.book_failed_attempt(3, 1024.0);
        a.book_failed_attempt(1, 76.0);
        assert_eq!(a.replans, 2);
        assert_eq!(a.retries, 0);
        assert_eq!(a.aborted_flows, 4);
        assert!((a.wasted_repair_bytes - 1100.0).abs() < 1e-9);
        assert_eq!(a.given_up, 0);
    }
}
