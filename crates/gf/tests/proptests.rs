//! Property-based tests for GF(2^8) field axioms, matrix algebra (the one
//! Gauss–Jordan elimination against the solve it replaced), and the
//! equivalence of every rung of the kernel ladder with the byte-at-a-time
//! scalar reference.

use chameleon_gf::{
    active_kernel, available_kernels, combine_into, mul_add_slice, mul_slice_with,
    mul_slice_xor_with, scalar, xor_slice, Gf256, Matrix, MulTable,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn elem() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256::new)
}

fn nonzero_elem() -> impl Strategy<Value = Gf256> {
    (1u8..=255).prop_map(Gf256::new)
}

proptest! {
    #[test]
    fn add_commutative(a in elem(), b in elem()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associative(a in elem(), b in elem(), c in elem()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn add_identity_and_self_inverse(a in elem()) {
        prop_assert_eq!(a + Gf256::ZERO, a);
        prop_assert_eq!(a + a, Gf256::ZERO);
        prop_assert_eq!(a - a, Gf256::ZERO);
        prop_assert_eq!(-a, a);
    }

    #[test]
    fn mul_commutative(a in elem(), b in elem()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn mul_associative(a in elem(), b in elem(), c in elem()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn mul_identity(a in elem()) {
        prop_assert_eq!(a * Gf256::ONE, a);
    }

    #[test]
    fn distributive(a in elem(), b in elem(), c in elem()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn division_inverts_multiplication(a in elem(), b in nonzero_elem()) {
        prop_assert_eq!((a * b) / b, a);
    }

    #[test]
    fn pow_adds_exponents(a in nonzero_elem(), e1 in 0u32..500, e2 in 0u32..500) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn mul_add_slice_accumulates(
        c in elem(),
        data in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut acc = data.clone();
        let before = acc.clone();
        mul_add_slice(c, &data, &mut acc);
        for ((a, b), s) in acc.iter().zip(&before).map(|(a, b)| (*a, *b)).zip(&data) {
            prop_assert_eq!(Gf256::new(a), Gf256::new(b) + c * Gf256::new(*s));
        }
    }

    #[test]
    fn word_xor_matches_scalar(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        init in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let len = data.len().min(init.len());
        let mut fast = init[..len].to_vec();
        let mut slow = fast.clone();
        xor_slice(&data[..len], &mut fast);
        scalar::xor_slice(&data[..len], &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn cauchy_row_selections_invert(
        n in 2usize..8,
        extra in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Pick n rows of an (n+extra) x n Cauchy matrix pseudo-randomly; the
        // selection must always be invertible (MDS property).
        let m = Matrix::cauchy(n + extra, n);
        let mut rows: Vec<usize> = (0..n + extra).collect();
        rows.shuffle(&mut StdRng::seed_from_u64(seed));
        let sel = m.select_rows(&rows[..n]);
        let inv = sel.invert().unwrap();
        prop_assert_eq!(sel.mul(&inv).unwrap(), Matrix::identity(n));
        prop_assert_eq!(inv.mul(&sel).unwrap(), Matrix::identity(n));
    }
}

/// The Gauss–Jordan solve `codes` carried before [`Matrix::combination`]
/// replaced it, kept as its oracle: `Σ_v x_v · rows[v] = target` on one
/// flat augmented matrix, pivots taken down each column in order, free
/// coefficients zero.
fn reference_combination(rows: &[Vec<Gf256>], target: &[Gf256]) -> Option<Vec<Gf256>> {
    let (vars, len) = (rows.len(), target.len());
    let width = vars + 1;
    let mut aug = vec![Gf256::ZERO; len * width];
    for (r, row) in aug.chunks_exact_mut(width).enumerate() {
        for (v, cell) in row[..vars].iter_mut().enumerate() {
            *cell = rows[v][r];
        }
        row[vars] = target[r];
    }
    let mut pivot_row = 0;
    for col in 0..vars {
        if pivot_row == len {
            break;
        }
        let Some(pr) = (pivot_row..len).find(|&r| !aug[r * width + col].is_zero()) else {
            continue;
        };
        if pr != pivot_row {
            let (upper, lower) = aug.split_at_mut(pr * width);
            upper[pivot_row * width..][..width].swap_with_slice(&mut lower[..width]);
        }
        let inv = aug[pivot_row * width + col].inv().expect("pivot nonzero");
        for v in &mut aug[pivot_row * width..][..width] {
            *v *= inv;
        }
        for r in 0..len {
            let factor = aug[r * width + col];
            if r != pivot_row && !factor.is_zero() {
                for c in 0..width {
                    let sub = aug[pivot_row * width + c] * factor;
                    aug[r * width + c] += sub;
                }
            }
        }
        pivot_row += 1;
    }
    if (pivot_row..len).any(|r| !aug[r * width + vars].is_zero()) {
        return None;
    }
    let mut solution = vec![Gf256::ZERO; vars];
    for row in aug.chunks_exact(width).take(pivot_row) {
        let col = row.iter().position(|c| !c.is_zero()).expect("pivot is one");
        solution[col] = row[vars];
    }
    Some(solution)
}

/// `vars` rows of length `len` spanning at most `rank` dimensions (a rank
/// below `vars` or `len` makes the system rank-deficient), and a target:
/// a combination of the rows, or with `outside` a free draw, usually
/// outside their span. A third of all draws are zero, so a pivot search
/// has to look down its column.
fn random_system(
    len: usize,
    vars: usize,
    rank: usize,
    outside: bool,
    seed: u64,
) -> (Vec<Vec<Gf256>>, Vec<Gf256>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sparse = move || {
        Gf256::new(if rng.gen_bool(1.0 / 3.0) {
            0
        } else {
            rng.gen()
        })
    };
    let mut combine = |of: &[Vec<Gf256>]| {
        of.iter().fold(vec![Gf256::ZERO; len], |mut sum, row| {
            let c = sparse();
            sum.iter_mut().zip(row).for_each(|(s, &x)| *s += c * x);
            sum
        })
    };
    let units: Vec<Vec<Gf256>> = (0..len).map(|i| unit(len, i)).collect();
    let basis: Vec<Vec<Gf256>> = (0..rank).map(|_| combine(&units)).collect();
    let rows: Vec<Vec<Gf256>> = (0..vars).map(|_| combine(&basis)).collect();
    let target = combine(if outside { &units } else { &rows });
    (rows, target)
}

fn unit(len: usize, i: usize) -> Vec<Gf256> {
    (0..len).map(|j| Gf256::new((i == j) as u8)).collect()
}

proptest! {
    // Systems up to 8 x 11: square half the time (so `invert` runs),
    // otherwise wider than tall or taller than wide; full rank and
    // rank-deficient; consistent and (with `outside`) mostly not.
    #[test]
    fn the_one_elimination_matches_the_reference_solve(
        len in 1usize..9,
        other in 0usize..12,
        square in any::<bool>(),
        rank in 0usize..9,
        outside in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let vars = if square { len } else { other };
        let (rows, target) = random_system(len, vars, rank, outside, seed);
        let solution = Matrix::combination(rows.iter().map(Vec::as_slice), &target);
        prop_assert_eq!(&solution, &reference_combination(&rows, &target));
        if vars == 0 {
            return Ok(());
        }
        // Rank: the rows that are not combinations of the rows before them.
        let m = Matrix::from_rows(vars, len, rows.concat());
        let independent = (0..vars)
            .filter(|&v| reference_combination(&rows[..v], &rows[v]).is_none())
            .count();
        prop_assert_eq!(m.rank(), independent);
        // Inverse: row i is the combination of the rows that gives unit i.
        if vars == len {
            let inverse: Option<Vec<Vec<Gf256>>> =
                (0..len).map(|i| reference_combination(&rows, &unit(len, i))).collect();
            match (m.invert(), inverse) {
                (Ok(inv), Some(expect)) => {
                    prop_assert_eq!(inv, Matrix::from_rows(len, len, expect.concat()))
                }
                (Err(e), None) => prop_assert_eq!(e, chameleon_gf::MatrixError::Singular),
                (got, expect) => prop_assert!(false, "invert {:?}, reference {:?}", got, expect),
            }
        }
    }
}

/// `kernel` against the scalar oracle on `src`, for both operations;
/// `acc` seeds the accumulator of the XOR form.
fn assert_matches_scalar(
    kernel: &chameleon_gf::Kernel,
    table: &MulTable,
    src: &[u8],
    acc: &[u8],
    what: &str,
) {
    let c = table.coeff();
    let (mut fast, mut slow) = (vec![0u8; src.len()], vec![0u8; src.len()]);
    kernel.mul_slice(table, src, &mut fast);
    scalar::mul_slice(c, src, &mut slow);
    assert_eq!(fast, slow, "{} mul c={c} {what}", kernel.name());
    let (mut facc, mut sacc) = (acc.to_vec(), acc.to_vec());
    kernel.mul_slice_xor(table, src, &mut facc);
    scalar::mul_slice_xor(c, src, &mut sacc);
    assert_eq!(facc, sacc, "{} mul_xor c={c} {what}", kernel.name());
}

// Differential suite: every rung of the ladder the host has — the SIMD
// kernels and the portable row loop alike — must be byte-identical to the
// scalar reference on arbitrary buffers. Lengths run to 4 KiB so
// multi-lane bodies plus odd tails are exercised, each buffer is
// re-sliced at every offset 0..=16 so no alignment assumption survives
// (the kernels use unaligned loads only), and a short prefix of each
// slice keeps lengths under 200 — around the 8-, 16- and 32-byte steps —
// as densely sampled as the long ones. Fewer cases than the default
// because each case sweeps all kernels × 17 offsets × 2 lengths.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simd_kernels_match_scalar_at_all_offsets(
        c in elem(),
        data in proptest::collection::vec(any::<u8>(), 0..=4096),
        short in 0usize..200,
        init in any::<u8>(),
    ) {
        let table = MulTable::new(c);
        let acc: Vec<u8> = data.iter().map(|&b| b.wrapping_mul(31).wrapping_add(init)).collect();
        for kernel in available_kernels() {
            for off in 0..=16usize.min(data.len()) {
                let (src, acc) = (&data[off..], &acc[off..]);
                assert_matches_scalar(kernel, &table, src, acc, &format!("off={off}"));
                let short = short.min(src.len());
                assert_matches_scalar(
                    kernel,
                    &table,
                    &src[..short],
                    &acc[..short],
                    &format!("off={off} len={short}"),
                );
            }
        }
    }

    // The public dispatcher (whichever rung it picked for this process)
    // agrees with scalar on the same arbitrary buffers.
    #[test]
    fn dispatched_kernels_match_scalar(
        c in elem(),
        data in proptest::collection::vec(any::<u8>(), 0..=4096),
    ) {
        let table = MulTable::new(c);
        let mut fast = vec![0u8; data.len()];
        let mut slow = vec![0u8; data.len()];
        mul_slice_with(&table, &data, &mut fast);
        scalar::mul_slice(c, &data, &mut slow);
        prop_assert_eq!(&fast, &slow, "dispatch mul");
        let mut facc = data.clone();
        let mut sacc = data.clone();
        mul_slice_xor_with(&table, &data, &mut facc);
        scalar::mul_slice_xor(c, &data, &mut sacc);
        prop_assert_eq!(facc, sacc);
    }
}

/// Exhaustive (not sampled): every one of the 256 field constants through
/// every rung, on a buffer that takes the widest rung through two 128-byte
/// steps and one 64-byte step and leaves every rung a tail.
#[test]
fn every_constant_matches_scalar_on_unaligned_buffer() {
    let len = 2 * 128 + 64 + 5;
    let data: Vec<u8> = (0..len).map(|i| (i * 89 + 41) as u8).collect();
    let init: Vec<u8> = (0..len).map(|i| (i * 23 + 7) as u8).collect();
    for c in 0..=255u8 {
        let table = MulTable::new(Gf256::new(c));
        for kernel in available_kernels() {
            assert_matches_scalar(kernel, &table, &data, &init, "");
        }
    }
}

/// All three operations on every rung, and `combine_into` on the dispatched
/// one, against term-by-term accumulation through the scalar oracle — onto
/// zeros, or with `keep` onto what the destination held. They are one loop:
/// `combine` is the sum, `mul_slice` its one-term case and `mul_slice_xor`
/// the one-term case that keeps `dst`. Every length 0..=4096 plus three past
/// 4 KiB and 64 KiB, each with one term and with a term count (0..=17) taken,
/// like the source offset (0..=16), from the length, so all 18 x 17 pairings
/// come round a dozen times. Sources are windows into one pool, three starts
/// apart, so most sums use a source more than once; coefficients include 0
/// and 1; the destination sits at its own offset in a buffer of garbage that
/// a sum without `keep` overwrites without reading.
#[test]
fn combine_matches_scalar_accumulation_on_every_rung() {
    const COEFFS: [u8; 9] = [0x53, 0, 1, 2, 0x1D, 0x8E, 0xFF, 1, 0xB7];
    let tables: Vec<MulTable> = COEFFS
        .iter()
        .map(|&c| MulTable::new(Gf256::new(c)))
        .collect();
    let pool: Vec<u8> = (0..65_541 + 64)
        .map(|i: usize| (i * 131 + i / 251 + 17) as u8)
        .collect();
    let lens = (0..=4096usize).chain([4097, 65_535, 65_541]);
    for (len, count) in lens.flat_map(|len| [(len, len % 18), (len, 1)]) {
        let off = len % 17;
        let terms: Vec<(&MulTable, &[u8])> = (0..count)
            .map(|t| {
                (
                    &tables[(t + len) % COEFFS.len()],
                    &pool[off + 13 * (t % 3)..][..len],
                )
            })
            .collect();
        let dst_off = (off * 5 + 3) % 17;
        let garbage = |i: usize| (i * 59 + 0xA5) as u8;
        for keep in [false, true] {
            let mut expect: Vec<u8> = (dst_off..dst_off + len)
                .map(|i| if keep { garbage(i) } else { 0 })
                .collect();
            for (table, src) in &terms {
                scalar::mul_slice_xor(table.coeff(), src, &mut expect);
            }
            let check = |what: &str, sum: &dyn Fn(&mut [u8])| {
                let mut backing: Vec<u8> = (0..dst_off + len).map(garbage).collect();
                sum(&mut backing[dst_off..]);
                assert!(
                    backing[dst_off..] == expect[..],
                    "{what}: len={len} terms={count} keep={keep} src offset={off} dst offset={dst_off}"
                );
                let before = backing[..dst_off].iter().enumerate();
                assert!(
                    before.into_iter().all(|(i, &b)| b == garbage(i)),
                    "{what}: wrote before dst"
                );
            };
            for kernel in available_kernels() {
                let name = kernel.name();
                if keep {
                    check(name, &|dst| {
                        for (table, src) in &terms {
                            kernel.mul_slice_xor(table, src, dst);
                        }
                    });
                } else {
                    check(name, &|dst| kernel.combine(&terms, dst));
                    if let [(table, src)] = terms[..] {
                        check(name, &|dst| kernel.mul_slice(table, src, dst));
                    }
                }
            }
            if !keep {
                check("combine_into", &|dst| combine_into(&terms, dst));
            }
        }
    }
}

#[test]
#[should_panic(expected = "length mismatch")]
fn combine_rejects_a_source_of_another_length() {
    let table = MulTable::new(Gf256::new(3));
    let (long, short) = ([0u8; 128], [0u8; 127]);
    let mut dst = [0u8; 128];
    combine_into(&[(&table, &long), (&table, &short)], &mut dst);
}

/// A leg that sets `CHAMELEON_GF_KERNEL` must run the kernel it names: a
/// typo or an instruction set the host lacks makes the dispatcher fall back
/// to auto-detection, which would otherwise pass as the wrong kernel.
#[test]
fn forced_kernel_is_honoured() {
    let forced = std::env::var("CHAMELEON_GF_KERNEL").unwrap_or_default();
    match forced.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => assert_eq!(active_kernel(), available_kernels()[0].name()),
        name => assert_eq!(active_kernel(), name, "the dispatcher fell back"),
    }
}
