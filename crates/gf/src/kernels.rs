//! GF(2^8) slice kernels: `dst = c·src`, `dst ^= c·src`, `dst = Σ cᵢ·srcᵢ`
//! and `dst ^= src`.
//!
//! Each constant `c` has a [`MulTable`] in the SPLIT_TABLE(8, 4) layout
//! popularised by GF-Complete: two 16-entry nibble tables (`c * low_nibble`
//! and `c * high_nibble`), the 256-entry product row derived from them, and
//! the same map once more as an 8×8 bit matrix for `GF2P8AFFINEQB`. All
//! 256 tables are built at compile time into one static, and
//! [`MulTable::of`] hands them out: no coder builds or caches a table.
//!
//! [`mul_slice_with`], [`mul_slice_xor_with`] and [`combine_into`] are the
//! only bulk multiply entry points: the zero / one fast paths, then one
//! indirect call into the kernel [`crate::simd::active`] selected for the
//! process — a GFNI or byte-shuffle SIMD rung where the CPU has one,
//! otherwise the portable product-row rung — which checks the lengths and
//! runs the one loop of [`crate::simd`]. [`combine_into`] is Equation (1)
//! whole: on every rung the sum is kept in registers and `dst` is written
//! once; the two multiplies are its one-term cases. [`xor_slice`] is a plain
//! `u64`-wide XOR pass.
//!
//! The [`scalar`] module keeps the byte-at-a-time log/exp loops as the
//! oracle every rung is tested against.

use crate::field::Gf256;
use crate::tables::mul;

/// Bytes of a chunk a coder works on before it moves to the next block:
/// the erasure codes' `encode` and the repair plan coder both walk chunks
/// in this step. Ten 4 KiB source blocks plus an output block or two fit a
/// 48 KiB L1d, so every source is still in L1 when the last term reads it.
/// Swept inside the repository benchmark's `codec` workload at 4, 16 and
/// 64 KiB: no resolvable difference (the readings are in DESIGN.md at
/// commit 35faa35), so the smallest footprint stays.
pub const BLOCK_BYTES: usize = 4096;

/// Per-constant multiplication tables in SPLIT_TABLE(8, 4) layout.
///
/// For a constant `c`, `lo[x & 0xF] = c * (x & 0xF)` and
/// `hi[x >> 4] = c * (x & 0xF0)`; since multiplication distributes over
/// XOR, `c * x = lo[x & 0xF] ^ hi[x >> 4]`. The shuffle kernels look up the
/// nibble tables; the full 256-entry `row` is materialised from them so
/// the portable rung and every rung's tail do one lookup per byte; and the
/// GFNI rung reads "multiply by `c`" as the GF(2)-linear map it is, the
/// 8×8 bit matrix of [`MulTable::affine_matrix`].
///
/// # Examples
///
/// ```
/// use chameleon_gf::{Gf256, MulTable};
///
/// let t = MulTable::of(Gf256::new(0x53));
/// assert_eq!(Gf256::new(t.mul(0xCA)), Gf256::new(0x53) * Gf256::new(0xCA));
/// ```
#[derive(Debug, Clone)]
pub struct MulTable {
    coeff: Gf256,
    lo: [u8; 16],
    hi: [u8; 16],
    row: [u8; 256],
    affine: u64,
}

/// Every constant's table, `TABLES[c]` for `c`: 256 × 304 B of read-only
/// data, computed by the compiler.
static TABLES: [MulTable; 256] = {
    const EMPTY: MulTable = MulTable::new(Gf256::ZERO);
    let mut tables = [EMPTY; 256];
    let mut c = 1;
    while c < 256 {
        tables[c] = MulTable::new(Gf256::new(c as u8));
        c += 1;
    }
    tables
};

impl MulTable {
    /// The table for `coeff`, from the compile-time set: the way coders
    /// get one.
    #[inline]
    pub fn of(coeff: Gf256) -> &'static MulTable {
        &TABLES[coeff.value() as usize]
    }

    /// Builds the nibble tables, product row and bit matrix for `coeff`.
    /// [`MulTable::of`] returns the same table without building it; this
    /// form exists to compute those tables and to time a build.
    pub const fn new(coeff: Gf256) -> Self {
        let c = coeff.value();
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        let mut i = 0;
        while i < 16 {
            lo[i] = mul(c, i as u8);
            hi[i] = mul(c, (i as u8) << 4);
            i += 1;
        }
        let mut row = [0u8; 256];
        let mut x = 0;
        while x < 256 {
            row[x] = lo[x & 0xF] ^ hi[x >> 4];
            x += 1;
        }
        // Column j of the matrix is c * 2^j, already in the nibble tables;
        // byte j of `m` holds it, so bit i of byte j is matrix[i][j].
        let columns = [lo[1], lo[2], lo[4], lo[8], hi[1], hi[2], hi[4], hi[8]];
        let mut m = u64::from_le_bytes(columns);
        // 8x8 bit transpose (Hacker's Delight 7-3): swap the off-diagonal
        // 1x1, 2x2 and 4x4 blocks, leaving byte i = row i.
        let rounds = [
            (7, 0x00AA_00AA_00AA_00AA),
            (14, 0x0000_CCCC_0000_CCCC),
            (28, 0x0000_0000_F0F0_F0F0u64),
        ];
        let mut r = 0;
        while r < rounds.len() {
            let (shift, mask) = rounds[r];
            let t = (m ^ (m >> shift)) & mask;
            m ^= t ^ (t << shift);
            r += 1;
        }
        MulTable {
            coeff,
            lo,
            hi,
            row,
            affine: m.swap_bytes(),
        }
    }

    /// The constant these tables multiply by.
    #[inline]
    pub fn coeff(&self) -> Gf256 {
        self.coeff
    }

    /// Multiplies a single byte: `coeff * x`.
    #[inline]
    pub fn mul(&self, x: u8) -> u8 {
        self.row[x as usize]
    }

    /// The two 16-entry nibble tables `(lo, hi)` with
    /// `coeff * x == lo[x & 0xF] ^ hi[x >> 4]`.
    #[inline]
    pub fn nibble_tables(&self) -> (&[u8; 16], &[u8; 16]) {
        (&self.lo, &self.hi)
    }

    /// "Multiply by `coeff`" as an 8×8 matrix over GF(2), in the operand
    /// layout of `GF2P8AFFINEQB`: byte `7 - i` of the word is row `i`, and
    /// bit `j` of row `i` is bit `i` of `coeff * 2^j`, so bit `i` of
    /// `coeff * x` is the parity of `row_i & x`. (`GF2P8MULB` is no use
    /// here: it reduces by the AES polynomial 0x11B, this field by 0x11D;
    /// the affine form carries the polynomial in the matrix.)
    #[inline]
    pub fn affine_matrix(&self) -> u64 {
        self.affine
    }
}

/// XOR-accumulates `src` into `dst` (`dst[i] ^= src[i]`) eight bytes at a
/// time on `u64` words.
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
///
/// # Examples
///
/// ```
/// use chameleon_gf::xor_slice;
/// let mut a = vec![0xFFu8; 13];
/// xor_slice(&vec![0xFFu8; 13], &mut a);
/// assert_eq!(a, vec![0u8; 13]);
/// ```
pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "slice length mismatch");
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let x = u64::from_ne_bytes(dw.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(sw.try_into().expect("8-byte chunk"));
        dw.copy_from_slice(&x.to_ne_bytes());
    }
    for (db, &sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

/// Multiplies every byte of `src` by the table's constant, writing into
/// `dst`: `dst[i] = c * src[i]`, through the process-wide kernel
/// ([`crate::simd::active`]).
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn mul_slice_with(table: &MulTable, src: &[u8], dst: &mut [u8]) {
    // Each arm checks the lengths once: `copy_from_slice` and the kernel
    // wrapper do it themselves.
    match table.coeff.value() {
        0 => {
            assert_eq!(src.len(), dst.len(), "slice length mismatch");
            dst.fill(0);
        }
        1 => dst.copy_from_slice(src),
        _ => crate::simd::active().mul_slice(table, src, dst),
    }
}

/// Multiplies every byte of `src` by the table's constant and
/// XOR-accumulates into `dst`: `dst[i] ^= c * src[i]` — Equation (1) of
/// the paper — through the process-wide kernel ([`crate::simd::active`]).
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn mul_slice_xor_with(table: &MulTable, src: &[u8], dst: &mut [u8]) {
    // As above: `xor_slice` and the kernel wrapper check for themselves.
    match table.coeff.value() {
        0 => assert_eq!(src.len(), dst.len(), "slice length mismatch"),
        1 => xor_slice(src, dst),
        _ => crate::simd::active().mul_slice_xor(table, src, dst),
    }
}

/// Equation (1) of the paper in one call: `dst[i] = Σ_t c_t * src_t[i]`
/// over the `(table, source)` terms, through the process-wide kernel
/// ([`crate::simd::active`]). `dst` is overwritten, never read — whatever
/// it held is gone — and an empty sum fills it with zeros.
///
/// # Panics
///
/// Panics if any source's length differs from `dst`'s.
///
/// # Examples
///
/// ```
/// use chameleon_gf::{combine_into, Gf256, MulTable};
///
/// let (two, three) = (MulTable::of(Gf256::new(2)), MulTable::of(Gf256::new(3)));
/// let src = [1u8, 2, 4];
/// let mut dst = [0xEEu8; 3];
/// combine_into(&[(two, &src), (three, &src)], &mut dst);
/// assert_eq!(dst, src); // 2x + 3x = x
/// ```
pub fn combine_into(terms: &[(&MulTable, &[u8])], dst: &mut [u8]) {
    crate::simd::active().combine(terms, dst);
}

/// Multiplies every byte of `src` by `coeff` and XOR-accumulates into `dst`:
/// `dst[i] ^= coeff * src[i]` — one term of Equation (1) in the paper.
///
/// [`mul_slice_xor_with`] through the table [`MulTable::of`] `coeff`.
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
///
/// # Examples
///
/// ```
/// use chameleon_gf::{mul_add_slice, Gf256};
/// let src = [0xAAu8; 4];
/// let mut acc = [0u8; 4];
/// mul_add_slice(Gf256::ONE, &src, &mut acc);
/// mul_add_slice(Gf256::ONE, &src, &mut acc);
/// assert_eq!(acc, [0u8; 4]); // x + x = 0
/// ```
pub fn mul_add_slice(coeff: Gf256, src: &[u8], dst: &mut [u8]) {
    mul_slice_xor_with(MulTable::of(coeff), src, dst);
}

/// Byte-at-a-time log/exp reference kernels.
///
/// The ground truth every rung of the kernel ladder is property-tested
/// against.
pub mod scalar {
    use crate::field::Gf256;
    use crate::tables::{EXP, LOG};

    /// Reference `dst[i] = coeff * src[i]`, one byte per step.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_slice(coeff: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slice length mismatch");
        if coeff.is_zero() {
            dst.fill(0);
            return;
        }
        if coeff == Gf256::ONE {
            dst.copy_from_slice(src);
            return;
        }
        let log_c = LOG[coeff.value() as usize] as usize;
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = if s == 0 {
                0
            } else {
                EXP[log_c + LOG[s as usize] as usize]
            };
        }
    }

    /// Reference `dst[i] ^= coeff * src[i]`, one byte per step.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_slice_xor(coeff: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slice length mismatch");
        if coeff.is_zero() {
            return;
        }
        if coeff == Gf256::ONE {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d ^= s;
            }
            return;
        }
        let log_c = LOG[coeff.value() as usize] as usize;
        for (d, &s) in dst.iter_mut().zip(src) {
            if s != 0 {
                *d ^= EXP[log_c + LOG[s as usize] as usize];
            }
        }
    }

    /// Reference `dst[i] ^= src[i]`, one byte per step.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slice length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `GF2P8AFFINEQB` in software: bit `i` of the result is the parity of
    /// the matrix's row `i` (byte `7 - i` of the word) ANDed with `x`.
    fn apply_affine(matrix: u64, x: u8) -> u8 {
        (0..8).fold(0, |out, i| {
            let row = (matrix >> (8 * (7 - i))) as u8;
            out | (((row & x).count_ones() as u8 & 1) << i)
        })
    }

    /// Every compile-time table equals a run-time build field for field,
    /// and multiplies all 256 bytes right three ways: product row, nibble
    /// tables and bit matrix (checked here, in software, so the matrix is
    /// verified on hosts whose CPU cannot run the kernel that reads it).
    #[test]
    fn every_static_table_is_its_runtime_build_and_multiplies() {
        assert_eq!(std::mem::size_of::<MulTable>(), 304);
        for c in 0..=255u8 {
            let t = MulTable::of(Gf256::new(c));
            let built = MulTable::new(Gf256::new(std::hint::black_box(c)));
            let fields = |t: &MulTable| (t.coeff, t.lo, t.hi, t.row, t.affine);
            assert_eq!(fields(&built), fields(t), "c={c}");
            for x in 0..=255u8 {
                let product = (Gf256::new(c) * Gf256::new(x)).value();
                let nibbles = t.lo[(x & 0xF) as usize] ^ t.hi[(x >> 4) as usize];
                let ways = [t.mul(x), nibbles, apply_affine(t.affine_matrix(), x)];
                assert_eq!(ways, [product; 3], "c={c} x={x}");
            }
        }
        assert_eq!(
            MulTable::of(Gf256::ONE).affine_matrix(),
            0x0102_0408_1020_4080,
            "the identity in GF2P8AFFINEQB's row order"
        );
    }

    #[test]
    fn xor_slice_matches_scalar_at_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let init: Vec<u8> = (0..len).map(|i| (i * 101 + 5) as u8).collect();
            let mut fast = init.clone();
            let mut slow = init.clone();
            xor_slice(&src, &mut fast);
            scalar::xor_slice(&src, &mut slow);
            assert_eq!(fast, slow, "len={len}");
        }
    }

    #[test]
    fn mul_kernels_match_scalar_at_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 65, 1000] {
            let src: Vec<u8> = (0..len).map(|i| (i * 29 + 3) as u8).collect();
            let init: Vec<u8> = (0..len).map(|i| (i * 59 + 7) as u8).collect();
            for c in [0u8, 1, 2, 0x1D, 0x53, 0xFF] {
                let c = Gf256::new(c);
                let t = MulTable::of(c);
                let (mut f1, mut s1) = (vec![0u8; len], vec![0u8; len]);
                mul_slice_with(t, &src, &mut f1);
                scalar::mul_slice(c, &src, &mut s1);
                assert_eq!(f1, s1, "mul len={len} c={c}");
                let (mut f2, mut s2) = (init.clone(), init.clone());
                mul_slice_xor_with(t, &src, &mut f2);
                scalar::mul_slice_xor(c, &src, &mut s2);
                assert_eq!(f2, s2, "mul_xor len={len} c={c}");
            }
        }
    }

    #[test]
    fn mul_add_slice_matches_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        let mut acc: Vec<u8> = src.iter().rev().copied().collect();
        let expect: Vec<u8> = acc
            .iter()
            .zip(&src)
            .map(|(&a, &s)| (Gf256::new(a) + Gf256::new(0x1D) * Gf256::new(s)).value())
            .collect();
        mul_add_slice(Gf256::new(0x1D), &src, &mut acc);
        assert_eq!(acc, expect);
    }

    #[test]
    fn mul_add_slice_handles_zero_and_one_fast_paths() {
        let src = [9u8, 8, 7];
        let mut dst = [1u8, 1, 1];
        mul_add_slice(Gf256::ZERO, &src, &mut dst);
        assert_eq!(dst, [1u8; 3]);
        mul_add_slice(Gf256::ONE, &src, &mut dst);
        assert_eq!(dst, [8u8, 9, 6]);
    }
}
