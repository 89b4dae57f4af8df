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

/// Retry/backoff policy of a repair campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum attempts per chunk (the first dispatch counts as one);
    /// further failures abandon the chunk as a recorded
    /// [`RepairError::RetriesExhausted`](crate::RepairError).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base * 2^(n-1)`, capped below.
    pub backoff_base_secs: f64,
    /// Upper bound on the exponential backoff.
    pub backoff_cap_secs: f64,
    /// Seeded jitter added to each backoff, uniform in `[0, jitter_secs)`.
    pub jitter_secs: f64,
    /// An attempt making no progress for this long is aborted and
    /// re-planned — how the loop observes helper loss even without an abort
    /// notification (e.g. a helper slowed to a crawl).
    pub stall_timeout_secs: f64,
    /// Seed for the jitter stream (mixed per chunk and attempt).
    pub seed: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 4,
            backoff_base_secs: 0.5,
            backoff_cap_secs: 8.0,
            jitter_secs: 0.25,
            stall_timeout_secs: 30.0,
            seed: 0x5EED_FA17,
        }
    }
}

/// The splitmix64 mix (same constants as the bench runner's seed
/// derivation), collapsing a key to one well-mixed draw.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RecoveryPolicy {
    /// A policy with the given jitter seed and the default shape.
    pub fn seeded(seed: u64) -> Self {
        RecoveryPolicy {
            seed,
            ..RecoveryPolicy::default()
        }
    }

    /// Virtual-time backoff before retry attempt `attempt` (1-based count
    /// of *failures* so far) of `chunk`: capped exponential plus seeded
    /// jitter. Deterministic in `(seed, chunk, attempt)`.
    pub fn backoff_secs(&self, chunk: ChunkId, attempt: u32) -> f64 {
        let expo = self.backoff_base_secs * f64::from(1u32 << (attempt - 1).min(20));
        let capped = expo.min(self.backoff_cap_secs);
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((chunk.stripe as u64) << 20)
            .wrapping_add((chunk.index as u64) << 8)
            .wrapping_add(u64::from(attempt));
        let unit = (mix(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        capped + unit * self.jitter_secs
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

    /// Merges another stats block (e.g. across driver phases).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.replans += other.replans;
        self.retries += other.retries;
        self.aborted_flows += other.aborted_flows;
        self.wasted_repair_bytes += other.wasted_repair_bytes;
        self.given_up += other.given_up;
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
        let p = RecoveryPolicy::seeded(7);
        let c = chunk(0, 0);
        let b1 = p.backoff_secs(c, 1);
        let b2 = p.backoff_secs(c, 2);
        let b3 = p.backoff_secs(c, 3);
        assert!((p.backoff_base_secs..p.backoff_base_secs + p.jitter_secs).contains(&b1));
        assert!(b2 >= 2.0 * p.backoff_base_secs && b2 < 2.0 * p.backoff_base_secs + p.jitter_secs);
        assert!(b3 >= 4.0 * p.backoff_base_secs);
        // Deep attempts hit the cap (plus jitter at most).
        let b9 = p.backoff_secs(c, 9);
        assert!(b9 >= p.backoff_cap_secs && b9 < p.backoff_cap_secs + p.jitter_secs);
    }

    #[test]
    fn backoff_is_deterministic_and_jitter_desynchronizes_chunks() {
        let p = RecoveryPolicy::seeded(42);
        assert_eq!(
            p.backoff_secs(chunk(1, 2), 1).to_bits(),
            p.backoff_secs(chunk(1, 2), 1).to_bits()
        );
        // Different chunks (and different seeds) get different jitter.
        assert_ne!(
            p.backoff_secs(chunk(1, 2), 1).to_bits(),
            p.backoff_secs(chunk(1, 3), 1).to_bits()
        );
        let q = RecoveryPolicy::seeded(43);
        assert_ne!(
            p.backoff_secs(chunk(1, 2), 1).to_bits(),
            q.backoff_secs(chunk(1, 2), 1).to_bits()
        );
    }

    #[test]
    fn stats_bookkeeping_merges() {
        let mut a = RecoveryStats::default();
        a.book_failed_attempt(3, 1024.0);
        a.retries += 1;
        let mut b = RecoveryStats::default();
        b.book_failed_attempt(1, 76.0);
        b.given_up = 1;
        a.merge(&b);
        assert_eq!(a.replans, 2);
        assert_eq!(a.retries, 1);
        assert_eq!(a.aborted_flows, 4);
        assert!((a.wasted_repair_bytes - 1100.0).abs() < 1e-9);
        assert_eq!(a.given_up, 1);
    }
}
