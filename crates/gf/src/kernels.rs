//! GF(2^8) slice kernels: `dst = c·src`, `dst ^= c·src`, `dst = Σ cᵢ·srcᵢ`
//! and `dst ^= src`.
//!
//! Each constant `c` gets a [`MulTable`] in the SPLIT_TABLE(8, 4) layout
//! popularised by GF-Complete: two 16-entry nibble tables (`c * low_nibble`
//! and `c * high_nibble`), the 256-entry product row derived from them, and
//! the same map once more as an 8×8 bit matrix for `GF2P8AFFINEQB`.
//! [`MulTableCache`] memoises the tables so a matrix–chunk product that
//! reuses a coefficient never rebuilds one.
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

/// Bytes of a chunk a coder works on before it moves to the next block:
/// the erasure codes' `encode` and the repair plan coder both walk chunks
/// in this step. Ten 4 KiB source blocks plus an output block or two fit a
/// 48 KiB L1d, so every source is still in L1 when the last term reads it.
/// Swept inside the repository benchmark's `codec` workload at 4, 16 and
/// 64 KiB: no resolvable difference (DESIGN.md §3.2 has the readings), so
/// the smallest footprint stays.
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
/// let t = MulTable::new(Gf256::new(0x53));
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

impl MulTable {
    /// Builds the nibble tables and full product row for `coeff`.
    pub fn new(coeff: Gf256) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for i in 0..16u8 {
            lo[i as usize] = (coeff * Gf256::new(i)).value();
            hi[i as usize] = (coeff * Gf256::new(i << 4)).value();
        }
        let mut row = [0u8; 256];
        for (x, r) in row.iter_mut().enumerate() {
            *r = lo[x & 0xF] ^ hi[x >> 4];
        }
        // Column j of the matrix is c * 2^j, already in the nibble tables;
        // byte j of `m` holds it, so bit i of byte j is matrix[i][j].
        let columns = [lo[1], lo[2], lo[4], lo[8], hi[1], hi[2], hi[4], hi[8]];
        let mut m = u64::from_le_bytes(columns);
        // 8x8 bit transpose (Hacker's Delight 7-3): swap the off-diagonal
        // 1x1, 2x2 and 4x4 blocks, leaving byte i = row i.
        for (shift, mask) in [
            (7, 0x00AA_00AA_00AA_00AA),
            (14, 0x0000_CCCC_0000_CCCC),
            (28, 0x0000_0000_F0F0_F0F0u64),
        ] {
            let t = (m ^ (m >> shift)) & mask;
            m ^= t ^ (t << shift);
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

/// Lazily memoised [`MulTable`]s, one slot per field constant.
///
/// Decode paths (Gauss–Jordan back-substitution, matrix–chunk products)
/// apply the same handful of coefficients to every stripe; caching the
/// tables makes the table-build cost one-time per coefficient.
///
/// # Examples
///
/// ```
/// use chameleon_gf::{Gf256, MulTableCache};
///
/// let mut cache = MulTableCache::new();
/// let c = Gf256::new(0x1D);
/// cache.get(c); // builds
/// assert!(cache.cached(c).is_some()); // shared reference, no rebuild
/// ```
#[derive(Debug, Default)]
pub struct MulTableCache {
    tables: Vec<Option<Box<MulTable>>>,
}

impl MulTableCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        let mut tables = Vec::new();
        tables.resize_with(256, || None);
        MulTableCache { tables }
    }

    /// Returns the table for `coeff`, building it on first use.
    pub fn get(&mut self, coeff: Gf256) -> &MulTable {
        let slot = &mut self.tables[coeff.value() as usize];
        slot.get_or_insert_with(|| Box::new(MulTable::new(coeff)))
    }

    /// Builds tables for every coefficient up front, so later shared
    /// (read-only) access via [`MulTableCache::cached`] always hits.
    pub fn prime(&mut self, coeffs: impl IntoIterator<Item = Gf256>) {
        for c in coeffs {
            self.get(c);
        }
    }

    /// Returns the table for `coeff` if it was already built.
    #[inline]
    pub fn cached(&self, coeff: Gf256) -> Option<&MulTable> {
        self.tables[coeff.value() as usize].as_deref()
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
/// let (two, three) = (MulTable::new(Gf256::new(2)), MulTable::new(Gf256::new(3)));
/// let src = [1u8, 2, 4];
/// let mut dst = [0xEEu8; 3];
/// combine_into(&[(&two, &src), (&three, &src)], &mut dst);
/// assert_eq!(dst, src); // 2x + 3x = x
/// ```
pub fn combine_into(terms: &[(&MulTable, &[u8])], dst: &mut [u8]) {
    crate::simd::active().combine(terms, dst);
}

/// Multiplies every byte of `src` by `coeff` and XOR-accumulates into `dst`:
/// `dst[i] ^= coeff * src[i]` — one term of Equation (1) in the paper.
///
/// Builds the [`MulTable`] for `coeff` and calls [`mul_slice_xor_with`];
/// for repeated use of one constant, build the table once (or use a
/// [`MulTableCache`]) and call that directly.
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
    mul_slice_xor_with(&MulTable::new(coeff), src, dst);
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

    #[test]
    fn table_matches_field_mul_for_all_pairs() {
        for c in 0..=255u8 {
            let t = MulTable::new(Gf256::new(c));
            for x in 0..=255u8 {
                assert_eq!(
                    Gf256::new(t.mul(x)),
                    Gf256::new(c) * Gf256::new(x),
                    "c={c} x={x}"
                );
            }
        }
    }

    /// `GF2P8AFFINEQB` in software: bit `i` of the result is the parity of
    /// the matrix's row `i` (byte `7 - i` of the word) ANDed with `x`.
    fn apply_affine(matrix: u64, x: u8) -> u8 {
        (0..8).fold(0, |out, i| {
            let row = (matrix >> (8 * (7 - i))) as u8;
            out | (((row & x).count_ones() as u8 & 1) << i)
        })
    }

    #[test]
    fn affine_matrix_multiplies_for_all_pairs() {
        // Checked here, in software, so the matrix is verified on hosts
        // whose CPU cannot run the kernel that reads it.
        for c in 0..=255u8 {
            let matrix = MulTable::new(Gf256::new(c)).affine_matrix();
            for x in 0..=255u8 {
                assert_eq!(
                    Gf256::new(apply_affine(matrix, x)),
                    Gf256::new(c) * Gf256::new(x),
                    "c={c} x={x}"
                );
            }
        }
        assert_eq!(
            MulTable::new(Gf256::ONE).affine_matrix(),
            0x0102_0408_1020_4080,
            "the identity in GF2P8AFFINEQB's row order"
        );
    }

    #[test]
    fn nibble_tables_compose_to_row() {
        let t = MulTable::new(Gf256::new(0xB7));
        let (lo, hi) = t.nibble_tables();
        for x in 0..=255u8 {
            assert_eq!(t.mul(x), lo[(x & 0xF) as usize] ^ hi[(x >> 4) as usize]);
        }
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
                let t = MulTable::new(c);
                let (mut f1, mut s1) = (vec![0u8; len], vec![0u8; len]);
                mul_slice_with(&t, &src, &mut f1);
                scalar::mul_slice(c, &src, &mut s1);
                assert_eq!(f1, s1, "mul len={len} c={c}");
                let (mut f2, mut s2) = (init.clone(), init.clone());
                mul_slice_xor_with(&t, &src, &mut f2);
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

    #[test]
    fn cache_builds_once_and_shares() {
        let mut cache = MulTableCache::new();
        let c = Gf256::new(0x35);
        assert!(cache.cached(c).is_none());
        assert_eq!(cache.get(c).coeff(), c);
        assert!(cache.cached(c).is_some());
        cache.prime([Gf256::ZERO, Gf256::ONE, c]);
        assert!(cache.cached(Gf256::ZERO).is_some());
        assert!(cache.cached(Gf256::ONE).is_some());
    }
}
