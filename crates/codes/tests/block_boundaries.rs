//! Oracle test across the codec's block boundaries.
//!
//! `LinearCode::encode` walks a chunk in 4 KiB blocks; `decode` / `repair`
//! hand the whole chunk to `gf::combine_into`, which the `gfni` rung covers
//! in 128- and 64-byte steps and every other rung in 4 KiB blocks of 32-,
//! 16- or 8-byte steps. The chunk lengths here sit on, one short of, and
//! just past each of those edges (and the 64 KiB one `encode` used to
//! have), plus a chunk of several blocks with a ragged tail, so a block or
//! vector step that is skipped, doubled or mis-offset shows up as a wrong
//! byte. Parity is checked against the byte-at-a-time `gf::scalar` oracle,
//! never against the code under test. One more length, just past a 2 MiB
//! huge page and a block, has its own test: it is the smallest whose
//! outputs `gf::pages::prepare_output` advises, and it is kept out of
//! `LENGTHS` so that every erasure pair is not run on it in a debug build.

use chameleon_codes::{Butterfly, ErasureCode, Lrc, ReedSolomon, RepairRequirement};
use chameleon_gf::{scalar, Gf256};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LENGTHS: [usize; 17] = [
    0,
    1,
    63,
    64,
    65,
    127,
    128,
    129,
    191,
    4095,
    4096,
    4097,
    4096 + 64,
    65_535,
    65_536,
    65_541,
    3 * 65_536 + 5,
];

/// Deterministic pseudo-random data chunks.
fn make_data(k: usize, len: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(len as u64);
    (0..k)
        .map(|_| (0..len).map(|_| rng.gen()).collect())
        .collect()
}

fn encode(code: &dyn ErasureCode, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
    let stripe = code.encode(&refs).expect("encode");
    assert_eq!(&stripe[..code.k()], data, "{}: systematic", code.name());
    stripe
}

/// Every parity chunk equals its generator row applied to the data, the row
/// taken from `repair_coefficients` and applied by the scalar oracle.
fn assert_parity_matches_oracle(code: &dyn ErasureCode, stripe: &[Vec<u8>]) {
    let data_idx: Vec<usize> = (0..code.k()).collect();
    for p in code.k()..code.n() {
        let coeffs = code.repair_coefficients(p, &data_idx).expect("parity row");
        let mut expect = vec![0u8; stripe[p].len()];
        for (c, src) in coeffs.iter().zip(stripe) {
            scalar::mul_slice_xor(*c, src, &mut expect);
        }
        assert!(
            stripe[p] == expect,
            "{} len={}: parity {p} differs from the oracle",
            code.name(),
            expect.len()
        );
    }
}

/// The chunks `repair_requirement` asks for, `count` of them for `AnyOf`.
fn repair_sources(code: &dyn ErasureCode, failed: usize, alive: &[usize]) -> Vec<usize> {
    match code.repair_requirement(failed, alive).expect("repairable") {
        RepairRequirement::AnyOf { candidates, count } => {
            candidates.into_iter().take(count).collect()
        }
        RepairRequirement::Exact { sources } => sources,
        RepairRequirement::SubChunk { reads } => reads.into_iter().map(|r| r.chunk).collect(),
    }
}

/// Every single and double erasure comes back byte-exact from `decode` (all
/// survivors offered) and from `repair` (the sources the code asks for).
fn assert_erasures_recover(code: &dyn ErasureCode, stripe: &[Vec<u8>]) {
    let n = code.n();
    let len = stripe[0].len();
    for a in 0..n {
        for b in a..n {
            // b == a is the single erasure of a.
            let lost_set = if a == b { vec![a] } else { vec![a, b] };
            let alive: Vec<usize> = (0..n).filter(|i| !lost_set.contains(i)).collect();
            let avail: Vec<(usize, &[u8])> =
                alive.iter().map(|&i| (i, stripe[i].as_slice())).collect();
            for lost in lost_set {
                let what = format!("{} len={len} lost=({a},{b}) chunk {lost}", code.name());
                let decoded = code.decode(&avail, lost).expect("decode");
                assert!(decoded == stripe[lost], "{what}: decode");
                let inputs: Vec<(usize, &[u8])> = repair_sources(code, lost, &alive)
                    .into_iter()
                    .map(|i| (i, stripe[i].as_slice()))
                    .collect();
                let repaired = code.repair(lost, &inputs).expect("repair");
                assert!(repaired == stripe[lost], "{what}: repair");
            }
        }
    }
}

fn assert_linear_code_is_exact(code: &dyn ErasureCode) {
    for len in LENGTHS {
        let stripe = encode(code, &make_data(code.k(), len));
        assert_parity_matches_oracle(code, &stripe);
        assert_erasures_recover(code, &stripe);
    }
}

#[test]
fn rs_4_2_is_exact_across_block_boundaries() {
    assert_linear_code_is_exact(&ReedSolomon::new(4, 2).unwrap());
}

#[test]
fn rs_10_4_is_exact_across_block_boundaries() {
    assert_linear_code_is_exact(&ReedSolomon::new(10, 4).unwrap());
}

#[test]
fn lrc_4_2_2_is_exact_across_block_boundaries() {
    assert_linear_code_is_exact(&Lrc::new(4, 2, 2).unwrap());
}

#[test]
fn butterfly_is_exact_across_block_boundaries() {
    // Sub-packetization 2: only even chunk lengths exist.
    let bf = Butterfly::new();
    for len in LENGTHS.into_iter().filter(|len| len % 2 == 0) {
        let stripe = encode(&bf, &make_data(bf.k(), len));
        assert_erasures_recover(&bf, &stripe);
    }
}

/// 2 MiB + 4 097 bytes: past the first huge page of an output and past a
/// 4 KiB block, with a ragged tail.
const HUGE_PAGE_CROSSING: usize = (2 << 20) + 4097;

/// One single-erasure `repair` of chunk 0 from the sources the code asks
/// for, and one double-erasure `decode` of chunk 0 with the last chunk lost
/// too.
fn assert_one_repair_and_one_decode(code: &dyn ErasureCode, stripe: &[Vec<u8>]) {
    let n = code.n();
    let alive: Vec<usize> = (1..n).collect();
    let inputs: Vec<(usize, &[u8])> = repair_sources(code, 0, &alive)
        .into_iter()
        .map(|i| (i, stripe[i].as_slice()))
        .collect();
    let repaired = code.repair(0, &inputs).expect("repair");
    assert!(repaired == stripe[0], "{}: repair", code.name());
    let avail: Vec<(usize, &[u8])> = (1..n - 1).map(|i| (i, stripe[i].as_slice())).collect();
    let decoded = code.decode(&avail, 0).expect("decode");
    assert!(decoded == stripe[0], "{}: decode", code.name());
}

#[test]
fn chunks_crossing_a_huge_page_are_exact() {
    let linear: [Box<dyn ErasureCode>; 2] = [
        Box::new(ReedSolomon::new(10, 4).unwrap()),
        Box::new(Lrc::new(4, 2, 2).unwrap()),
    ];
    for code in &linear {
        let stripe = encode(code.as_ref(), &make_data(code.k(), HUGE_PAGE_CROSSING));
        assert_parity_matches_oracle(code.as_ref(), &stripe);
        assert_one_repair_and_one_decode(code.as_ref(), &stripe);
    }

    // Sub-packetization 2 needs an even length: one byte more, so each half
    // is odd.
    let bf = Butterfly::new();
    let stripe = encode(&bf, &make_data(bf.k(), HUGE_PAGE_CROSSING + 1));
    let half = stripe[0].len() / 2;
    let sub = |chunk: usize, h: usize| &stripe[chunk][h * half..(h + 1) * half];
    // Butterfly(4,2)'s parity halves as XORs of the data halves (a, b):
    // H = (a0^b0, a1^b1), Bf = (a1^b0, a0^a1^b1).
    // A half is `(chunk, which half)`.
    type Half = (usize, usize);
    let parity: [(Half, &[Half]); 4] = [
        ((2, 0), &[(0, 0), (1, 0)]),
        ((2, 1), &[(0, 1), (1, 1)]),
        ((3, 0), &[(0, 1), (1, 0)]),
        ((3, 1), &[(0, 0), (0, 1), (1, 1)]),
    ];
    for ((chunk, h), sources) in parity {
        let mut expect = vec![0u8; half];
        for &(c, sh) in sources {
            scalar::mul_slice_xor(Gf256::ONE, sub(c, sh), &mut expect);
        }
        assert!(
            sub(chunk, h) == expect,
            "Butterfly: parity {chunk} half {h}"
        );
    }
    assert_one_repair_and_one_decode(&bf, &stripe);
}
