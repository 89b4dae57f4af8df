//! Property-based tests: decode∘encode identity under arbitrary erasure
//! patterns, for every code family.

use chameleon_codes::{Butterfly, CodeError, ErasureCode, Lrc, ReedSolomon, RepairRequirement};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-random data chunks from a seed.
fn make_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| (0..len).map(|_| rng.gen()).collect())
        .collect()
}

fn erase(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order.truncate(count);
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rs_decodes_after_up_to_m_erasures(
        k in 2usize..10,
        m in 1usize..5,
        erased_count in 1usize..5,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let erased_count = erased_count.min(m);
        let rs = ReedSolomon::new(k, m).unwrap();
        let data = make_data(k, len, seed);
        let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
        let stripe = rs.encode(&refs).unwrap();
        let lost = erase(rs.n(), erased_count, seed ^ 0xABCD);
        let avail: Vec<(usize, &[u8])> = (0..rs.n())
            .filter(|i| !lost.contains(i))
            .map(|i| (i, stripe[i].as_slice()))
            .collect();
        for &x in &lost {
            prop_assert_eq!(rs.decode(&avail, x).unwrap(), stripe[x].clone());
        }
    }

    #[test]
    fn rs_repair_coefficients_match_decode(
        k in 2usize..8,
        m in 1usize..4,
        len in 1usize..32,
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let data = make_data(k, len, seed);
        let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
        let stripe = rs.encode(&refs).unwrap();
        let failed = (seed as usize) % rs.n();
        // Pick k pseudo-random sources.
        let candidates: Vec<usize> = (0..rs.n()).filter(|&i| i != failed).collect();
        let picked = erase(candidates.len(), k, seed ^ 0x1234);
        let sources: Vec<usize> = picked.iter().map(|&p| candidates[p]).collect();
        let coeffs = rs.repair_coefficients(failed, &sources).unwrap();
        let mut out = vec![0u8; len];
        for (s, c) in sources.iter().zip(&coeffs) {
            chameleon_gf::mul_add_slice(*c, &stripe[*s], &mut out);
        }
        prop_assert_eq!(out, stripe[failed].clone());
    }

    #[test]
    fn lrc_single_failure_repair_stays_local(
        l in 1usize..4,
        group in 2usize..5,
        m in 1usize..4,
        len in 1usize..32,
        seed in any::<u64>(),
    ) {
        let k = l * group;
        let lrc = Lrc::new(k, l, m).unwrap();
        let data = make_data(k, len, seed);
        let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
        let stripe = lrc.encode(&refs).unwrap();
        let failed = (seed as usize) % k;
        let alive: Vec<usize> = (0..lrc.n()).filter(|&i| i != failed).collect();
        let req = lrc.repair_requirement(failed, &alive).unwrap();
        let RepairRequirement::Exact { sources } = req else {
            return Err(TestCaseError::fail("expected Exact"));
        };
        // Local repair: exactly group members.
        prop_assert_eq!(sources.len(), group);
        let inputs: Vec<(usize, &[u8])> =
            sources.iter().map(|&s| (s, stripe[s].as_slice())).collect();
        prop_assert_eq!(lrc.repair(failed, &inputs).unwrap(), stripe[failed].clone());
    }

    #[test]
    fn butterfly_roundtrip_any_two_erasures(
        len in 1usize..32,
        seed in any::<u64>(),
    ) {
        let bf = Butterfly::new();
        let data = make_data(2, len * 2, seed);
        let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
        let stripe = bf.encode(&refs).unwrap();
        let lost = erase(4, 2, seed ^ 0x77);
        let avail: Vec<(usize, &[u8])> = (0..4)
            .filter(|i| !lost.contains(i))
            .map(|i| (i, stripe[i].as_slice()))
            .collect();
        for &x in &lost {
            prop_assert_eq!(bf.decode(&avail, x).unwrap(), stripe[x].clone());
        }
    }

    #[test]
    fn requirement_traffic_never_exceeds_k(
        k in 2usize..10,
        m in 1usize..4,
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let failed = (seed as usize) % rs.n();
        let alive: Vec<usize> = (0..rs.n()).filter(|&i| i != failed).collect();
        let req = rs.repair_requirement(failed, &alive).unwrap();
        prop_assert!(req.traffic_chunks() <= k as f64 + 1e-9);
    }
}

#[test]
fn decode_with_empty_available_set_fails() {
    let rs = ReedSolomon::new(3, 2).unwrap();
    assert_eq!(rs.decode(&[], 0), Err(CodeError::NotEnoughChunks));
}
