//! Real GF(2^8) coding stages for repaired chunks.
//!
//! The [`PlanExecutor`](crate::PlanExecutor) simulates repair *timing*;
//! this module performs the *arithmetic* a finished plan implies, using
//! the bulk kernels from `chameleon-gf`, and reports how many wall-clock
//! nanoseconds each stage of Equation (1) cost:
//!
//! 1. **Source scale** — every source multiplies its local chunk by its
//!    decoding coefficient (`mul_slice_with`, one cached table per
//!    coefficient).
//! 2. **Relay merge** — every relay XORs the partial sums it received
//!    into its own scaled chunk (`xor_slice`).
//! 3. **Reassemble** — the destination XORs the root partial sums into
//!    the repaired chunk.
//!
//! A chunk is walked in [`BLOCK_BYTES`] blocks, the step the erasure codes
//! encode in, and all three stages run on a block before the next one is
//! touched, over buffers the coder owns: a finished chunk costs its kernel
//! calls, not an allocation, a page fault or a thread spawn. The stage
//! timers wrap kernel calls only; the schedule (which relay folds which
//! input, in what order) is worked out once per chunk, outside them.
//!
//! Sub-chunk plans (Butterfly-style `read_fraction < 1`) mix byte
//! positions inside a chunk, so their arithmetic is not a positional
//! linear combination; the coder accounts them in the reassemble stage at
//! their transferred fraction instead of pretending to scale whole
//! chunks.

use std::cmp::Reverse;
use std::time::Instant;

use chameleon_gf::{mul_slice_with, xor_slice, MulTableCache, BLOCK_BYTES};
use chameleon_simnet::faults::splitmix64;

use crate::plan::RepairPlan;

/// Default per-chunk sample cap for [`PlanCoder::new`]: the stages run on
/// a deterministic prefix of at most this many bytes, so campaigns over
/// thousands of multi-megabyte chunks still collect coding metrics
/// cheaply. [`CodingStats::bytes_coded`] always reports the volume that
/// was actually processed.
pub const DEFAULT_SAMPLE_BYTES: u64 = 256 * 1024;

/// Distance between the windows two consecutive sources read out of the
/// shared synthetic buffer: one cache line, so no two sources scale the
/// same bytes.
const SOURCE_STAGGER: usize = 64;

/// Wall-clock nanoseconds (and work volume) of the coding stages run for
/// repaired chunks. Additive: per-chunk stats merge into a per-campaign
/// total carried on [`RepairOutcome`](crate::RepairOutcome).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodingStats {
    /// Nanoseconds multiplying source chunks by their coefficients.
    pub source_scale_nanos: u64,
    /// Nanoseconds XOR-merging partial sums at relay nodes.
    pub relay_merge_nanos: u64,
    /// Nanoseconds reassembling the chunk at the destination.
    pub reassemble_nanos: u64,
    /// Bytes processed across all stages.
    pub bytes_coded: u64,
    /// Chunks whose coding stages were executed.
    pub chunks_coded: usize,
    /// Name of the GF kernel the stages dispatched to
    /// (`chameleon_gf::active_kernel()`), so reported nanoseconds are
    /// attributable to a code path. Empty until a chunk is coded.
    pub kernel: &'static str,
}

impl CodingStats {
    /// Total nanoseconds across all three stages.
    pub fn total_nanos(&self) -> u64 {
        self.source_scale_nanos + self.relay_merge_nanos + self.reassemble_nanos
    }

    /// Accumulates another chunk's stats into this campaign total.
    pub fn merge(&mut self, other: &CodingStats) {
        if self.kernel.is_empty() {
            // The kernel is selected once per process, so any non-empty
            // name merged in is the campaign-wide one.
            self.kernel = other.kernel;
        }
        self.source_scale_nanos += other.source_scale_nanos;
        self.relay_merge_nanos += other.relay_merge_nanos;
        self.reassemble_nanos += other.reassemble_nanos;
        self.bytes_coded += other.bytes_coded;
        self.chunks_coded += other.chunks_coded;
    }
}

/// Runs the GF arithmetic of repair plans on deterministic synthetic
/// chunks, timing each stage. One coder serves many plans: the product
/// tables of recurring coefficients and every buffer are kept across
/// runs, so a run allocates only when it meets a coefficient it has not
/// seen or a plan wider than any before it.
///
/// The buffers are sized by the block, never by the chunk: every block of
/// a chunk reuses them, and the sources of a plan read staggered windows
/// of one synthetic buffer instead of a chunk each. A 10-source plan's
/// blocks, the synthetic buffer's and the output's take about 48 KiB, an
/// L1d's worth.
#[derive(Debug)]
pub struct PlanCoder {
    chunk_bytes: usize,
    /// Bytes per block: [`BLOCK_BYTES`], or the whole chunk if smaller.
    block: usize,
    tables: MulTableCache,
    /// Synthetic chunk contents, never written by a stage. Source `i`
    /// reads the block-long window at `i * SOURCE_STAGGER`.
    pristine: Vec<u8>,
    /// One block per participant: its scaled chunk, then (on a relay) the
    /// partial sum folded into it.
    work: Vec<u8>,
    /// The destination's block.
    out: Vec<u8>,
    schedule: Schedule,
}

/// The folds and roots of one plan, as participant indices. Rebuilt for
/// every chunk into the same vectors.
#[derive(Debug, Default)]
struct Schedule {
    /// `(hops from the relay to the destination, relay, input)`, sorted:
    /// relays farther from the destination fold first, so a relay has
    /// received all of its inputs before it is folded into its own target.
    folds: Vec<(Reverse<usize>, usize, usize)>,
    /// Participants that send to the destination.
    roots: Vec<usize>,
}

impl Schedule {
    fn rebuild(&mut self, plan: &RepairPlan) {
        self.folds.clear();
        self.roots.clear();
        for (input, p) in plan.participants().iter().enumerate() {
            match p.parent {
                Some(relay) => self.folds.push((Reverse(plan.depth(relay)), relay, input)),
                None => self.roots.push(input),
            }
        }
        self.folds.sort_unstable();
    }
}

impl PlanCoder {
    /// Creates a coder for chunks of the given size, sampling at most
    /// [`DEFAULT_SAMPLE_BYTES`] per chunk.
    pub fn new(chunk_bytes: u64) -> Self {
        let chunk_bytes = chunk_bytes.min(DEFAULT_SAMPLE_BYTES) as usize;
        PlanCoder {
            chunk_bytes,
            block: BLOCK_BYTES.min(chunk_bytes),
            tables: MulTableCache::new(),
            pristine: Vec::new(),
            work: Vec::new(),
            out: Vec::new(),
            schedule: Schedule::default(),
        }
    }

    /// Executes the coding stages of `plan` and returns their cost.
    pub fn run(&mut self, plan: &RepairPlan) -> CodingStats {
        self.run_blocks(plan, |_| {})
    }

    /// [`PlanCoder::run`], handing every reassembled block to `each_block`
    /// before the next one overwrites it.
    fn run_blocks(&mut self, plan: &RepairPlan, mut each_block: impl FnMut(&[u8])) -> CodingStats {
        let len = self.chunk_bytes;
        let block = self.block;
        let participants = plan.participants();
        let mut stats = CodingStats {
            chunks_coded: 1,
            kernel: chameleon_gf::active_kernel(),
            ..CodingStats::default()
        };
        let relayable = participants
            .iter()
            .all(|p| (p.read_fraction - 1.0).abs() < 1e-12);
        if !relayable {
            // Sub-chunk repair: the destination gathers fractional reads
            // and reassembles; there is no whole-chunk scale/merge.
            self.reserve(0);
            let total: f64 = participants.iter().map(|p| p.read_fraction).sum();
            let gathered = (total * len as f64) as usize;
            self.out.fill(0);
            let mut left = gathered;
            while left > 0 {
                let n = left.min(block);
                let t = Instant::now();
                xor_slice(&self.pristine[..n], &mut self.out[..n]);
                stats.reassemble_nanos += nanos_since(t);
                left -= n;
            }
            stats.bytes_coded = gathered as u64;
            return stats;
        }

        self.reserve(participants.len());
        self.tables.prime(participants.iter().map(|p| p.coeff));
        self.schedule.rebuild(plan);
        let Schedule { folds, roots } = &self.schedule;

        let mut off = 0;
        while off < len {
            let n = block.min(len - off);

            // Stage 1: every source scales its chunk by its coefficient.
            let t = Instant::now();
            for (i, p) in participants.iter().enumerate() {
                let table = self.tables.cached(p.coeff).expect("primed");
                let scaled = &mut self.work[i * block..][..n];
                mul_slice_with(table, source_window(&self.pristine, i, n), scaled);
            }
            stats.source_scale_nanos += nanos_since(t);

            // Stage 2: relays fold their inputs into their scaled chunk.
            // Star plans have no relays and record zero merge time.
            if !folds.is_empty() {
                let t = Instant::now();
                for &(_, relay, input) in folds {
                    let (partial, sum) = two_blocks(&mut self.work, block, input, relay);
                    xor_slice(&partial[..n], &mut sum[..n]);
                }
                stats.relay_merge_nanos += nanos_since(t);
            }

            // Stage 3: the destination XORs the root partial sums.
            self.out[..n].fill(0);
            let t = Instant::now();
            for &root in roots {
                xor_slice(&self.work[root * block..][..n], &mut self.out[..n]);
            }
            stats.reassemble_nanos += nanos_since(t);

            each_block(&self.out[..n]);
            off += n;
        }
        let passes = participants.len() + folds.len() + roots.len();
        stats.bytes_coded = (passes * len) as u64;
        stats
    }

    /// Grows the buffers to serve a plan of `sources` whole-chunk sources.
    /// Refilling a longer synthetic buffer rewrites the same stream from
    /// its start, so the windows sources read never depend on which plans
    /// the coder served before.
    fn reserve(&mut self, sources: usize) {
        let windows = self.block + sources.saturating_sub(1) * SOURCE_STAGGER;
        if self.pristine.len() < windows {
            self.pristine.resize(windows, 0);
            fill_deterministic(&mut self.pristine, 0x5EED);
        }
        if self.work.len() < sources * self.block {
            self.work.resize(sources * self.block, 0);
        }
        self.out.resize(self.block, 0);
    }
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The first `n` bytes source `i` reads for a block.
fn source_window(pristine: &[u8], i: usize, n: usize) -> &[u8] {
    &pristine[i * SOURCE_STAGGER..][..n]
}

/// Blocks `src` (shared) and `dst` (mutable) of the work area.
fn two_blocks(work: &mut [u8], block: usize, src: usize, dst: usize) -> (&[u8], &mut [u8]) {
    // Disjoint indices: a plan node never forwards to itself.
    assert_ne!(src, dst, "source and destination blocks must differ");
    if src < dst {
        let (lo, hi) = work.split_at_mut(dst * block);
        (&lo[src * block..][..block], &mut hi[..block])
    } else {
        let (lo, hi) = work.split_at_mut(src * block);
        (&hi[..block], &mut lo[dst * block..][..block])
    }
}

/// Deterministic pseudo-random bytes (SplitMix64 stream, little-endian
/// words: the same on every host).
fn fill_deterministic(out: &mut [u8], mut seed: u64) {
    for word in out.chunks_mut(8) {
        let z = splitmix64(&mut seed);
        word.copy_from_slice(&z.to_le_bytes()[..word.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Participant;
    use chameleon_cluster::ChunkId;
    use chameleon_gf::{mul_add_slice, Gf256};
    use chameleon_simnet::NodeId;

    /// Participant on node `node` uploading to participant `parent`.
    fn part(node: NodeId, parent: Option<usize>, coeff: u8) -> Participant {
        Participant {
            node,
            chunk_index: node,
            coeff: Gf256::new(coeff),
            parent,
            read_fraction: 1.0,
        }
    }

    fn chunk() -> ChunkId {
        ChunkId {
            stripe: 0,
            index: 0,
        }
    }

    /// Participant `i` on node `i`, with coefficient `coeff(i)`, uploads to
    /// participant `parents[i]` (the destination when `None`).
    fn plan(parents: &[Option<usize>], coeff: impl Fn(usize) -> usize) -> RepairPlan {
        let participants = parents
            .iter()
            .enumerate()
            .map(|(i, &p)| part(i, p, coeff(i) as u8));
        RepairPlan::new(chunk(), parents.len(), participants.collect()).unwrap()
    }

    #[test]
    fn star_plan_codes_all_stages_but_merge() {
        let plan = plan(&[None; 4], |i| i + 2);
        let mut coder = PlanCoder::new(64 * 1024);
        let stats = coder.run(&plan);
        assert_eq!(stats.chunks_coded, 1);
        assert_eq!(stats.relay_merge_nanos, 0);
        assert!(stats.source_scale_nanos > 0);
        assert!(stats.reassemble_nanos > 0);
        // 4 scaled + 4 reassembled chunks of 64 KiB.
        assert_eq!(stats.bytes_coded, 8 * 64 * 1024);
    }

    #[test]
    fn chain_plan_accounts_relay_merges() {
        let plan = plan(&[Some(1), Some(2), Some(3), None], |i| 2 * i + 3);
        let mut coder = PlanCoder::new(32 * 1024);
        let stats = coder.run(&plan);
        // Three relays each merge one input; one root reaches the
        // destination: 4 scaled + 3 merged + 1 reassembled.
        assert_eq!(stats.bytes_coded, 8 * 32 * 1024);
        assert!(stats.relay_merge_nanos > 0);
    }

    #[test]
    fn sub_chunk_plan_uses_fractional_reassembly() {
        let mut a = part(0, None, 1);
        a.read_fraction = 0.5;
        let mut b = part(1, None, 1);
        b.read_fraction = 0.5;
        let plan = RepairPlan::new(chunk(), 2, vec![a, b]).unwrap();
        let mut coder = PlanCoder::new(64 * 1024);
        let stats = coder.run(&plan);
        assert_eq!(stats.source_scale_nanos, 0);
        assert_eq!(stats.bytes_coded, 64 * 1024);
    }

    /// Runs `plan` on `coder` and checks every reassembled block against
    /// the naive combination of the windows its sources read.
    fn assert_blocks_are_the_naive_combination(coder: &mut PlanCoder, plan: &RepairPlan) {
        let mut blocks: Vec<Vec<u8>> = Vec::new();
        let stats = coder.run_blocks(plan, |b| blocks.push(b.to_vec()));
        let fresh = PlanCoder::new(coder.chunk_bytes as u64).run(plan);
        assert_eq!(stats.bytes_coded, fresh.bytes_coded);
        assert_eq!(stats.chunks_coded, fresh.chunks_coded);
        assert_eq!(
            blocks.iter().map(Vec::len).sum::<usize>(),
            coder.chunk_bytes
        );
        for (b, block) in blocks.iter().enumerate() {
            let mut expect = vec![0u8; block.len()];
            for (i, p) in plan.participants().iter().enumerate() {
                let window = source_window(&coder.pristine, i, block.len());
                mul_add_slice(p.coeff, window, &mut expect);
            }
            assert_eq!(block, &expect, "block {b}");
        }
    }

    #[test]
    fn a_reused_coder_carries_nothing_from_the_previous_chunk() {
        // A 10-source tree whose relay folds fill the work blocks, then a
        // 4-source star over the same blocks; three full blocks and a
        // ragged tail each.
        let parents = [1, 3, 3, 7, 5, 7, 7, 10, 9, 10].map(|p| (p < 10).then_some(p));
        let tree = plan(&parents, |i| 3 * i + 2);
        let star = plan(&[None; 4], |i| i + 7);
        let mut coder = PlanCoder::new(3 * BLOCK_BYTES as u64 + 100);
        assert_blocks_are_the_naive_combination(&mut coder, &tree);
        assert_blocks_are_the_naive_combination(&mut coder, &star);
        assert_blocks_are_the_naive_combination(&mut coder, &tree);
    }

    #[test]
    fn synthetic_bytes_do_not_depend_on_the_host() {
        let mut bytes = [0u8; 11];
        fill_deterministic(&mut bytes, 0);
        // SplitMix64(0)'s first two outputs, least significant byte first.
        let words = [0xE220_A839_7B1D_CDAFu64, 0x6E78_9E6A_A1B9_65F4];
        assert_eq!(bytes[..8], words[0].to_le_bytes());
        assert_eq!(bytes[8..], words[1].to_le_bytes()[..3]);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut total = CodingStats::default();
        let one = CodingStats {
            source_scale_nanos: 5,
            relay_merge_nanos: 7,
            reassemble_nanos: 11,
            bytes_coded: 13,
            chunks_coded: 1,
            kernel: "avx2",
        };
        total.merge(&one);
        total.merge(&one);
        assert_eq!(total.total_nanos(), 46);
        assert_eq!(total.bytes_coded, 26);
        assert_eq!(total.chunks_coded, 2);
        assert_eq!(total.kernel, "avx2");
    }

    #[test]
    fn run_records_active_kernel() {
        let plan = plan(&[None; 2], |i| 2 * i + 3);
        let mut coder = PlanCoder::new(4 * 1024);
        let stats = coder.run(&plan);
        assert_eq!(stats.kernel, chameleon_gf::active_kernel());
        assert!(!stats.kernel.is_empty());
    }
}
