//! The `codec` workload: real bytes through `codes` into `gf`, no
//! simulator. RS(10,4) `encode` is the write path; one-erasure `repair`
//! and two-erasure `decode` are the read path. Two working sets move the
//! same number of bytes per pass: 64 KiB chunks, where a stripe stays in
//! the private caches, and 8 MiB chunks, where it cannot. Every output
//! buffer is compared in full with an independently computed expectation.

use std::time::Instant;

use chameleon_bench::client_seed;
use chameleon_codes::{ErasureCode, ReedSolomon};
use chameleon_gf::mul_add_slice;

use crate::sim::Verdict;
use crate::spans::{Agg, Recorder};

const K: usize = 10;
const M: usize = 4;

/// `len` bytes from a splitmix64 stream seeded with `seed`.
pub fn fill(len: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut i = 0u64;
    while out.len() < len {
        out.extend_from_slice(&client_seed(seed, i).to_le_bytes());
        i += 1;
    }
    out.truncate(len);
    out
}

/// One working set: a stripe of real data and what every call on it must
/// return.
pub struct WorkingSet {
    /// `small` or `large`; part of the span and metric names.
    pub label: &'static str,
    /// Bytes per chunk.
    pub chunk_bytes: usize,
    /// Times the stripe is encoded, repaired and decoded per pass.
    pub reps: usize,
    /// The `k` data chunks.
    data: Vec<Vec<u8>>,
    /// The full stripe, parity computed through `repair_coefficients` and
    /// `gf::mul_add_slice` rather than through `encode`.
    expected: Vec<Vec<u8>>,
    /// The chunk the one-erasure repair rebuilds.
    erased_one: usize,
    /// The two data chunks the two-erasure decode rebuilds.
    erased_two: [usize; 2],
}

/// The workload's inputs.
pub struct CodecWorkload {
    /// The code under test.
    pub code: ReedSolomon,
    /// The cache-resident and the cache-exceeding working set.
    pub sets: [WorkingSet; 2],
}

impl CodecWorkload {
    /// Builds the code, fills both working sets from `seed` and computes
    /// the expected stripes. This is the workload's set-up.
    pub fn build(seed: u64, quick: bool) -> CodecWorkload {
        let code = ReedSolomon::new(K, M).expect("RS(10,4) is valid");
        let (small, large, large_reps) = if quick {
            (16 << 10, 256 << 10, 1)
        } else {
            (64 << 10, 8 << 20, 12)
        };
        let fill_seed = client_seed(seed, 104);
        let set = |label, chunk_bytes: usize, reps, salt: u64| {
            let data: Vec<Vec<u8>> = (0..K as u64)
                .map(|i| fill(chunk_bytes, client_seed(fill_seed, salt + i)))
                .collect();
            let sources: Vec<usize> = (0..K).collect();
            let mut expected = data.clone();
            for parity in K..K + M {
                let coeffs = code
                    .repair_coefficients(parity, &sources)
                    .expect("parity is a combination of the data chunks");
                let mut chunk = vec![0u8; chunk_bytes];
                for (c, d) in coeffs.iter().zip(&data) {
                    mul_add_slice(*c, d, &mut chunk);
                }
                expected.push(chunk);
            }
            let pick = client_seed(fill_seed, salt + 99);
            let first = (pick >> 8) as usize % K;
            WorkingSet {
                label,
                chunk_bytes,
                reps,
                data,
                expected,
                erased_one: pick as usize % (K + M),
                erased_two: [first, (first + 1 + (pick >> 16) as usize % (K - 1)) % K],
            }
        };
        let sets = [
            set("small", small, large_reps * (large / small), 0),
            set("large", large, large_reps, 1000),
        ];
        CodecWorkload { code, sets }
    }
}

/// Host time inside each call of one working set during one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetTimes {
    /// `encode` calls.
    pub encode: Agg,
    /// `repair` calls (one erasure).
    pub repair: Agg,
    /// `decode` calls (two per iteration, one per erased chunk).
    pub decode: Agg,
}

/// One pass over both working sets.
#[derive(Debug, Clone, Default)]
pub struct CodecPass {
    /// Per working set, in [`CodecWorkload::sets`] order.
    pub times: [SetTimes; 2],
    /// Calls made and calls whose output was wrong.
    pub verdict: Verdict,
}

impl CodecPass {
    /// Host seconds inside the timed calls: the pass's `wall_s`.
    pub fn wall_secs(&self) -> f64 {
        self.times
            .iter()
            .map(|t| t.encode.secs() + t.repair.secs() + t.decode.secs())
            .sum()
    }

    /// Data MB encoded per host second over both working sets.
    pub fn encode_mbps(&self, wl: &CodecWorkload) -> f64 {
        let bytes: usize = wl.sets.iter().map(|s| s.reps * K * s.chunk_bytes).sum();
        let secs: f64 = self.times.iter().map(|t| t.encode.secs()).sum();
        bytes as f64 / 1e6 / secs
    }

    /// Rebuilt MB per host second over repair and decode, both sets.
    pub fn rebuild_mbps(&self, wl: &CodecWorkload) -> f64 {
        let bytes: usize = wl.sets.iter().map(|s| s.reps * 3 * s.chunk_bytes).sum();
        let secs: f64 = self
            .times
            .iter()
            .map(|t| t.repair.secs() + t.decode.secs())
            .sum();
        bytes as f64 / 1e6 / secs
    }
}

/// Runs one pass. Only the calls into `codes` are inside the timers; the
/// full-buffer comparisons run between them. With a recorder, each call on
/// the large set becomes a span and the small set's calls are aggregated.
pub fn run_pass(wl: &CodecWorkload, mut rec: Option<&mut Recorder>) -> CodecPass {
    let mut pass = CodecPass::default();
    let pass_span = rec.as_deref_mut().map(|r| r.open("pass"));
    for (set, times) in wl.sets.iter().zip(pass.times.iter_mut()) {
        let set_span = rec
            .as_deref_mut()
            .map(|r| r.open(format!("set:{}", set.label)));
        let spans = set.label == "large";
        let data: Vec<&[u8]> = set.data.iter().map(Vec::as_slice).collect();
        let survivors = |erased: &[usize]| -> Vec<(usize, &[u8])> {
            (0..K + M)
                .filter(|i| !erased.contains(i))
                .take(K)
                .map(|i| (i, set.expected[i].as_slice()))
                .collect()
        };
        let one = survivors(&[set.erased_one]);
        let two = survivors(&set.erased_two);
        let mut check = |what: &str, ok: bool| {
            pass.verdict.attempted += 1;
            if !ok {
                pass.verdict.failed += 1;
                pass.verdict.problems.push(format!(
                    "{} {what}: output differs from the expected bytes",
                    set.label
                ));
            }
        };
        for _ in 0..set.reps {
            let mut timed = |name: &str, agg: &mut Agg, call: &mut dyn FnMut()| {
                let span = rec.as_deref_mut().filter(|_| spans).map(|r| r.open(name));
                let t0 = Instant::now();
                call();
                agg.add(t0, Instant::now());
                if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
                    r.close(id);
                }
            };
            let mut stripe = Ok(Vec::new());
            timed("codes.encode", &mut times.encode, &mut || {
                stripe = wl.code.encode(&data);
            });
            check("encode", stripe.is_ok_and(|s| s == set.expected));

            let mut rebuilt = Ok(Vec::new());
            timed("codes.repair", &mut times.repair, &mut || {
                rebuilt = wl.code.repair(set.erased_one, &one);
            });
            check(
                "repair",
                rebuilt.is_ok_and(|c| c == set.expected[set.erased_one]),
            );

            for wanted in set.erased_two {
                let mut decoded = Ok(Vec::new());
                timed("codes.decode", &mut times.decode, &mut || {
                    decoded = wl.code.decode(&two, wanted);
                });
                check("decode", decoded.is_ok_and(|c| c == set.expected[wanted]));
            }
        }
        if let Some(r) = rec.as_deref_mut() {
            if !spans {
                r.aggregate("codes.encode", times.encode);
                r.aggregate("codes.repair", times.repair);
                r.aggregate("codes.decode", times.decode);
            }
            r.close(set_span.expect("opened with the recorder"));
        }
    }
    if let Some(r) = rec {
        r.close(pass_span.expect("opened with the recorder"));
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_a_function_of_the_seed() {
        assert_eq!(fill(100, 7), fill(100, 7));
        assert_ne!(fill(100, 7), fill(100, 8));
        assert_eq!(fill(13, 7), fill(100, 7)[..13]);
    }

    #[test]
    fn quick_pass_is_byte_exact_and_moves_equal_bytes_per_set() {
        let wl = CodecWorkload::build(3, true);
        let [small, large] = &wl.sets;
        assert_eq!(
            small.reps * small.chunk_bytes,
            large.reps * large.chunk_bytes
        );
        assert_ne!(small.erased_two[0], small.erased_two[1]);
        let pass = run_pass(&wl, None);
        assert_eq!(pass.verdict.failed, 0, "{:?}", pass.verdict.problems);
        assert_eq!(
            pass.verdict.attempted as usize,
            4 * (small.reps + large.reps)
        );
        assert!(pass.encode_mbps(&wl) > 0.0 && pass.rebuild_mbps(&wl) > 0.0);
    }

    #[test]
    fn a_corrupted_expectation_is_counted_failed() {
        let mut wl = CodecWorkload::build(3, true);
        wl.sets[0].expected[K][5] ^= 1;
        let pass = run_pass(&wl, None);
        assert!(pass.verdict.failed > 0);
    }
}
