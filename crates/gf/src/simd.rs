//! The GF(2^8) multiply-kernel ladder: one loop, one lane type per rung,
//! one dispatch point.
//!
//! A [`MulTable`] describes "multiply by `c`" three ways. Two 16-entry
//! nibble tables fit exactly into one SIMD register each, so a byte-shuffle
//! instruction (`PSHUFB` on x86, `TBL` on AArch64) performs sixteen (or
//! thirty-two) table lookups per instruction — the 4-bit lookup of
//! GF-Complete, ISA-L and the `reed_solomon_erasure` crate:
//!
//! ```text
//! product = shuffle(lo_table, src & 0x0F) ^ shuffle(hi_table, src >> 4)
//! ```
//!
//! Because the map is linear over GF(2), it is also an 8×8 bit matrix
//! ([`MulTable::affine_matrix`]) that `VGF2P8AFFINEQB` applies to 64 bytes
//! in one instruction. (`VGF2P8MULB`, the obvious candidate, is hard-wired
//! to the AES polynomial 0x11B; this field is 0x11D. The affine form does
//! not care which polynomial built the matrix.) And it is a 256-entry
//! product row ([`MulTable::mul`]) any CPU can index.
//!
//! Every rung runs the same loop, `accumulate`: `dst = Σ cᵢ·srcᵢ`
//! ([`Kernel::combine`]) or `dst ^= Σ cᵢ·srcᵢ`, summed in registers — each
//! source vector loaded once, `dst` stored once and, unless it seeds the
//! sum, never read. [`Kernel::mul_slice`] and [`Kernel::mul_slice_xor`] are
//! its one-term cases. A rung is a `Lanes` type — a register, a table made
//! ready for it and six operations — and an entry function that enables its
//! instruction set around the loop. [`available_kernels`] is the ladder,
//! best rung first; the SIMD rungs are compiled only for their architecture
//! and listed only when runtime feature detection finds the instruction
//! set:
//!
//! - **gfni** — 64 bytes per register via `_mm512_gf2p8affine_epi64_epi8`
//!   (needs `avx512f`, `avx512bw` and `gfni`)
//! - **avx2** — 32 bytes per register via `_mm256_shuffle_epi8`
//! - **ssse3** — 16 bytes per register via `_mm_shuffle_epi8`
//! - **neon** — 16 bytes per register via `vqtbl1q_u8`
//! - **scalar** — a `u64` as eight byte lanes, one product-row lookup each;
//!   no instruction-set requirement, always present and always last
//!
//! [`active`] picks one rung per process: the first, unless the
//! `CHAMELEON_GF_KERNEL` environment variable (`auto` or a rung's name)
//! names another (an unknown name, or a rung the host lacks, falls back to
//! the first with a warning on stderr). [`crate::mul_slice_with`],
//! [`crate::mul_slice_xor_with`] and [`crate::combine_into`] call through
//! [`active`] and nothing else chooses a kernel, so the whole workspace
//! switches code paths together.
//!
//! # Safety
//!
//! This module is the only place in the workspace that uses `unsafe`
//! (the crate root is `#![deny(unsafe_code)]`), and `accumulate` (with its
//! `step`) is the only code in it that does pointer arithmetic. The
//! argument:
//!
//! - Every intrinsic is gated at the call site: a rung's entry function
//!   carries `#[target_feature(...)]` and is reachable only through a
//!   [`Kernel`] value constructed after the matching
//!   `is_x86_feature_detected!`/`is_aarch64_feature_detected!` check
//!   passed (all three of `avx512f`, `avx512bw` and `gfni` for the `gfni`
//!   rung), so an illegal instruction can never be executed. The `Lanes`
//!   methods are called from `accumulate` alone, inlined into that entry.
//!   The `scalar` rung's lane type uses no intrinsic.
//! - No alignment is assumed: all loads/stores use the unaligned
//!   variants (`_mm_loadu_si128`/`_mm256_loadu_si256`/`_mm512_loadu_si512`/
//!   `vld1q_u8` — the AArch64 `vld1q_u8` has no alignment requirement — and
//!   `read_unaligned`/`write_unaligned` for the `u64`), so arbitrary
//!   sub-slices are fine.
//! - All pointer arithmetic stays inside the sources and `dst`: the one
//!   assertion in `Kernel::run` — `terms[i].1.len() == dst.len()` for every
//!   term, whichever of the three operations was asked for — is the bound
//!   every offset in `accumulate` relies on. The vector steps cover
//!   `at + n * BYTES <= dst.len()` bytes of each slice and the remainder is
//!   a safe, bounds-checked byte loop over the 256-entry product row.
//! - Sources and `dst` never alias (`&[u8]` vs `&mut [u8]` guarantees it).
//!
//! The `scalar` rung is the same `accumulate` over another lane type, so the
//! offsets, tails and accumulators of a rung this host cannot execute (or,
//! for `neon`, compile) are the ones the differential tests drive here.

#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::kernels::MulTable;

/// One rung of the ladder: a name plus `dst = c*src`, `dst ^= c*src` and
/// `dst = sum_i c_i*src_i` slice routines driven by [`MulTable`]s.
///
/// Values of this type only exist for kernels the host CPU can run
/// (see [`available_kernels`]), which is what makes the safe
/// [`Kernel::mul_slice`]/[`Kernel::mul_slice_xor`]/[`Kernel::combine`]
/// wrappers sound.
#[derive(Clone, Copy)]
pub struct Kernel {
    name: &'static str,
    entry: Entry,
}

/// A rung's entry: `dst = sum_i c_i*src_i`, or `dst ^= sum_i c_i*src_i`
/// when the flag (`keep`) is set.
///
/// # Safety
///
/// The CPU must have the rung's instruction set, and every source must be
/// exactly as long as `dst`.
type Entry = unsafe fn(&[(&MulTable, &[u8])], &mut [u8], bool);

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("name", &self.name).finish()
    }
}

impl Kernel {
    /// The kernel's name (`"gfni"`, `"avx2"`, `"ssse3"`, `"neon"` or
    /// `"scalar"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `dst[i] = c * src[i]` for the table's constant, any length and
    /// alignment.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_slice(&self, table: &MulTable, src: &[u8], dst: &mut [u8]) {
        self.run(&[(table, src)], dst, false);
    }

    /// `dst[i] ^= c * src[i]` for the table's constant, any length and
    /// alignment.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_slice_xor(&self, table: &MulTable, src: &[u8], dst: &mut [u8]) {
        self.run(&[(table, src)], dst, true);
    }

    /// `dst[i] = sum_t c_t * src_t[i]` over the `(table, source)` terms,
    /// any length and alignment. `dst` is overwritten without being read;
    /// no terms at all leave it zero.
    ///
    /// # Panics
    ///
    /// Panics if any source's length differs from `dst`'s.
    pub fn combine(&self, terms: &[(&MulTable, &[u8])], dst: &mut [u8]) {
        self.run(terms, dst, false);
    }

    /// The one way into the rung's entry, and the one length check.
    fn run(&self, terms: &[(&MulTable, &[u8])], dst: &mut [u8], keep: bool) {
        for (_, src) in terms {
            assert_eq!(src.len(), dst.len(), "slice length mismatch");
        }
        // SAFETY: this Kernel was constructed only after runtime feature
        // detection confirmed the instruction set is available (the
        // `scalar` rung needs none), and every source was just checked to
        // be exactly as long as `dst`.
        unsafe { (self.entry)(terms, dst, keep) }
    }
}

/// The ladder: every kernel the host can run, best first, the portable
/// rung last. Detection runs once; the result is independent of the
/// `CHAMELEON_GF_KERNEL` override so differential tests and benches can
/// always drive every rung.
pub fn available_kernels() -> &'static [Kernel] {
    static KERNELS: OnceLock<Vec<Kernel>> = OnceLock::new();
    KERNELS.get_or_init(|| {
        let mut ladder = detect();
        ladder.push(Kernel {
            name: "scalar",
            entry: entry::<Row>,
        });
        ladder
    })
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
fn detect() -> Vec<Kernel> {
    let mut kernels = Vec::new();
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("gfni")
    {
        kernels.push(Kernel {
            name: "gfni",
            entry: x86::gfni,
        });
    }
    if is_x86_feature_detected!("avx2") {
        kernels.push(Kernel {
            name: "avx2",
            entry: x86::avx2,
        });
    }
    if is_x86_feature_detected!("ssse3") {
        kernels.push(Kernel {
            name: "ssse3",
            entry: x86::ssse3,
        });
    }
    kernels
}

#[cfg(target_arch = "aarch64")]
fn detect() -> Vec<Kernel> {
    let mut kernels = Vec::new();
    if std::arch::is_aarch64_feature_detected!("neon") {
        kernels.push(Kernel {
            name: "neon",
            entry: arm::neon,
        });
    }
    kernels
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "x86", target_arch = "aarch64")))]
fn detect() -> Vec<Kernel> {
    Vec::new()
}

/// The rung a `CHAMELEON_GF_KERNEL` value asks for: the first for an empty
/// value or `auto`, otherwise the one of that name — `None` when the ladder
/// has no such rung (an unknown name, or an instruction set this CPU lacks).
fn select<'a>(ladder: &'a [Kernel], value: &str) -> Option<&'a Kernel> {
    match value.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => ladder.first(),
        name => ladder.iter().find(|k| k.name == name),
    }
}

/// The kernel the bulk entry points dispatch to, selected once per
/// process: the best rung the host has, unless `CHAMELEON_GF_KERNEL`
/// names another available one.
pub fn active() -> &'static Kernel {
    static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let ladder = available_kernels();
        let value = std::env::var("CHAMELEON_GF_KERNEL").unwrap_or_default();
        select(ladder, &value).unwrap_or_else(|| {
            eprintln!(
                "chameleon-gf: CHAMELEON_GF_KERNEL={value} names no kernel this CPU has \
                 (expected {}); falling back to auto-detection",
                accepted_values(ladder)
            );
            &ladder[0]
        })
    })
}

/// Every value [`select`] resolves on this ladder, `|`-separated.
fn accepted_values(ladder: &[Kernel]) -> String {
    let names: Vec<&str> = ladder.iter().map(Kernel::name).collect();
    format!("auto|{}", names.join("|"))
}

/// Name of the kernel the bulk GF entry points are dispatching to:
/// `"gfni"`, `"avx2"`, `"ssse3"`, `"neon"`, or `"scalar"` (the portable row
/// loop).
/// Observability surfaces (CLI profile output, experiment CSVs) record
/// this so measured numbers are attributable to a code path.
pub fn active_kernel() -> &'static str {
    active().name
}

/// What a rung brings to [`accumulate`]: a register of `BYTES` byte lanes
/// (`V`), a [`MulTable`] in the form its multiply reads (`C`), and the six
/// operations the loop is written in.
///
/// # Safety
///
/// Every method may execute the rung's instructions, so all of them are
/// called only from [`accumulate`] inlined into the rung's entry; `load`
/// reads and `store` writes `BYTES` bytes at a pointer of any alignment,
/// which the caller keeps inside a live slice.
trait Lanes {
    const BYTES: usize;
    type V: Copy;
    type C<'t>: Copy;
    unsafe fn constant(table: &MulTable) -> Self::C<'_>;
    unsafe fn load(from: *const u8) -> Self::V;
    unsafe fn store(to: *mut u8, v: Self::V);
    unsafe fn zero() -> Self::V;
    unsafe fn xor(a: Self::V, b: Self::V) -> Self::V;
    /// `c * v` in every byte lane.
    unsafe fn mul(c: Self::C<'_>, v: Self::V) -> Self::V;
}

/// Equation (1) on any rung: `dst = sum_t c_t*src_t`, or with `KEEP`
/// `dst ^= sum_t c_t*src_t`. Four registers of every source are loaded once
/// per step, multiplied and XORed into four accumulators (then one register
/// at a time, then single bytes through the product row), and `dst` is
/// stored once — and loaded only under `KEEP`, to seed the accumulators.
///
/// # Safety
///
/// The CPU must have `L`'s instruction set and every source must be exactly
/// as long as `dst` ([`Kernel::run`] asserts it).
#[inline(always)]
unsafe fn accumulate<L: Lanes, const KEEP: bool>(terms: &[(&MulTable, &[u8])], dst: &mut [u8]) {
    let len = dst.len();
    let mut at = 0;
    while at + 4 * L::BYTES <= len {
        step::<L, KEEP, 4>(terms, dst.as_mut_ptr(), at);
        at += 4 * L::BYTES;
    }
    while at + L::BYTES <= len {
        step::<L, KEEP, 1>(terms, dst.as_mut_ptr(), at);
        at += L::BYTES;
    }
    for (i, d) in dst.iter_mut().enumerate().skip(at) {
        let seed = if KEEP { *d } else { 0 };
        *d = terms
            .iter()
            .fold(seed, |sum, (table, src)| sum ^ table.mul(src[i]));
    }
}

/// One step of [`accumulate`]: bytes `at..at + L::BYTES * N` of the sum,
/// one accumulator per register. Every source, and `dst`, must reach
/// `at + L::BYTES * N`.
#[inline(always)]
unsafe fn step<L: Lanes, const KEEP: bool, const N: usize>(
    terms: &[(&MulTable, &[u8])],
    dst: *mut u8,
    at: usize,
) {
    let mut acc = [L::zero(); N];
    if KEEP {
        for (lane, sum) in acc.iter_mut().enumerate() {
            *sum = L::load(dst.add(at + L::BYTES * lane));
        }
    }
    for &(table, src) in terms {
        let c = L::constant(table);
        let sp = src.as_ptr().add(at);
        for (lane, sum) in acc.iter_mut().enumerate() {
            *sum = L::xor(*sum, L::mul(c, L::load(sp.add(L::BYTES * lane))));
        }
    }
    for (lane, sum) in acc.iter().enumerate() {
        L::store(dst.add(at + L::BYTES * lane), *sum);
    }
}

/// What every entry is: [`accumulate`] with `keep` lifted into the type
/// (and [`accumulate`]'s safety contract).
#[inline(always)]
unsafe fn entry<L: Lanes>(terms: &[(&MulTable, &[u8])], dst: &mut [u8], keep: bool) {
    if keep {
        accumulate::<L, true>(terms, dst)
    } else {
        accumulate::<L, false>(terms, dst)
    }
}

/// The `scalar` rung: a `u64` as eight byte lanes, each multiplied by one
/// lookup in the 256-entry product row.
struct Row;

impl Lanes for Row {
    const BYTES: usize = 8;
    type V = u64;
    type C<'t> = &'t MulTable;
    #[inline(always)]
    unsafe fn constant(table: &MulTable) -> &MulTable {
        table
    }
    #[inline(always)]
    unsafe fn load(from: *const u8) -> u64 {
        from.cast::<u64>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn store(to: *mut u8, v: u64) {
        to.cast::<u64>().write_unaligned(v)
    }
    #[inline(always)]
    unsafe fn zero() -> u64 {
        0
    }
    #[inline(always)]
    unsafe fn xor(a: u64, b: u64) -> u64 {
        a ^ b
    }
    #[inline(always)]
    unsafe fn mul(c: &MulTable, v: u64) -> u64 {
        u64::from_ne_bytes(v.to_ne_bytes().map(|b| c.mul(b)))
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod x86 {
    //! The GFNI affine rung and the AVX2 / SSSE3 nibble-shuffle rungs.
    //!
    //! SAFETY (whole module): the three entries are reachable only via
    //! [`super::Kernel`] values built after the matching
    //! `is_x86_feature_detected!` checks, and the lane methods only from
    //! [`super::accumulate`] inlined into them. All loads/stores are the
    //! unaligned (`loadu`/`storeu`) variants, at offsets `accumulate` keeps
    //! inside slices [`super::Kernel::run`] asserted equally long.

    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::{entry, Lanes};
    use crate::kernels::MulTable;

    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    pub(super) unsafe fn gfni(terms: &[(&MulTable, &[u8])], dst: &mut [u8], keep: bool) {
        entry::<Gfni>(terms, dst, keep)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2(terms: &[(&MulTable, &[u8])], dst: &mut [u8], keep: bool) {
        entry::<Avx2>(terms, dst, keep)
    }

    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn ssse3(terms: &[(&MulTable, &[u8])], dst: &mut [u8], keep: bool) {
        entry::<Ssse3>(terms, dst, keep)
    }

    /// 64 GF multiplies per register: one `VGF2P8AFFINEQB` by the table's
    /// bit matrix, broadcast into all eight qwords as the instruction wants
    /// it.
    struct Gfni;

    impl Lanes for Gfni {
        const BYTES: usize = 64;
        type V = __m512i;
        type C<'t> = __m512i;
        #[inline(always)]
        unsafe fn constant(table: &MulTable) -> __m512i {
            _mm512_set1_epi64(table.affine_matrix() as i64)
        }
        #[inline(always)]
        unsafe fn load(from: *const u8) -> __m512i {
            _mm512_loadu_si512(from.cast())
        }
        #[inline(always)]
        unsafe fn store(to: *mut u8, v: __m512i) {
            _mm512_storeu_si512(to.cast(), v)
        }
        #[inline(always)]
        unsafe fn zero() -> __m512i {
            _mm512_setzero_si512()
        }
        #[inline(always)]
        unsafe fn xor(a: __m512i, b: __m512i) -> __m512i {
            _mm512_xor_si512(a, b)
        }
        #[inline(always)]
        unsafe fn mul(matrix: __m512i, v: __m512i) -> __m512i {
            _mm512_gf2p8affine_epi64_epi8::<0>(v, matrix)
        }
    }

    /// 32 GF multiplies per register: the nibble tables are broadcast into
    /// both 128-bit lanes (`VPSHUFB` shuffles within lanes, which is
    /// exactly what a 16-entry table lookup wants).
    struct Avx2;

    impl Lanes for Avx2 {
        const BYTES: usize = 32;
        type V = __m256i;
        type C<'t> = (__m256i, __m256i);
        #[inline(always)]
        unsafe fn constant(table: &MulTable) -> (__m256i, __m256i) {
            let (lo, hi) = table.nibble_tables();
            (
                _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast())),
                _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast())),
            )
        }
        #[inline(always)]
        unsafe fn load(from: *const u8) -> __m256i {
            _mm256_loadu_si256(from.cast())
        }
        #[inline(always)]
        unsafe fn store(to: *mut u8, v: __m256i) {
            _mm256_storeu_si256(to.cast(), v)
        }
        #[inline(always)]
        unsafe fn zero() -> __m256i {
            _mm256_setzero_si256()
        }
        #[inline(always)]
        unsafe fn xor(a: __m256i, b: __m256i) -> __m256i {
            _mm256_xor_si256(a, b)
        }
        #[inline(always)]
        unsafe fn mul((lo, hi): (__m256i, __m256i), v: __m256i) -> __m256i {
            let mask = _mm256_set1_epi8(0x0F);
            let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
            let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
            _mm256_xor_si256(l, h)
        }
    }

    /// 16 GF multiplies per register: two `PSHUFB` nibble lookups + XOR.
    struct Ssse3;

    impl Lanes for Ssse3 {
        const BYTES: usize = 16;
        type V = __m128i;
        type C<'t> = (__m128i, __m128i);
        #[inline(always)]
        unsafe fn constant(table: &MulTable) -> (__m128i, __m128i) {
            let (lo, hi) = table.nibble_tables();
            (Self::load(lo.as_ptr()), Self::load(hi.as_ptr()))
        }
        #[inline(always)]
        unsafe fn load(from: *const u8) -> __m128i {
            _mm_loadu_si128(from.cast())
        }
        #[inline(always)]
        unsafe fn store(to: *mut u8, v: __m128i) {
            _mm_storeu_si128(to.cast(), v)
        }
        #[inline(always)]
        unsafe fn zero() -> __m128i {
            _mm_setzero_si128()
        }
        #[inline(always)]
        unsafe fn xor(a: __m128i, b: __m128i) -> __m128i {
            _mm_xor_si128(a, b)
        }
        #[inline(always)]
        unsafe fn mul((lo, hi): (__m128i, __m128i), v: __m128i) -> __m128i {
            let mask = _mm_set1_epi8(0x0F);
            let l = _mm_shuffle_epi8(lo, _mm_and_si128(v, mask));
            let h = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), mask));
            _mm_xor_si128(l, h)
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    //! The NEON `TBL` rung.
    //!
    //! SAFETY (whole module): reachable only through [`super::Kernel`]
    //! values built after `is_aarch64_feature_detected!("neon")` passed
    //! (NEON is mandatory on AArch64, but the check keeps the argument
    //! local). `vld1q_u8`/`vst1q_u8` have no alignment requirements, and
    //! [`super::accumulate`] keeps every offset inside slices
    //! [`super::Kernel::run`] asserted equally long.

    use std::arch::aarch64::*;

    use super::{entry, Lanes};
    use crate::kernels::MulTable;

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn neon(terms: &[(&MulTable, &[u8])], dst: &mut [u8], keep: bool) {
        entry::<Neon>(terms, dst, keep)
    }

    /// 16 GF multiplies per register: two `vqtbl1q_u8` nibble lookups +
    /// XOR — `Ssse3` line for line, except that the high nibble comes from
    /// a plain per-byte shift (`vshrq_n_u8`), no mask needed.
    struct Neon;

    impl Lanes for Neon {
        const BYTES: usize = 16;
        type V = uint8x16_t;
        type C<'t> = (uint8x16_t, uint8x16_t);
        #[inline(always)]
        unsafe fn constant(table: &MulTable) -> (uint8x16_t, uint8x16_t) {
            let (lo, hi) = table.nibble_tables();
            (Self::load(lo.as_ptr()), Self::load(hi.as_ptr()))
        }
        #[inline(always)]
        unsafe fn load(from: *const u8) -> uint8x16_t {
            vld1q_u8(from)
        }
        #[inline(always)]
        unsafe fn store(to: *mut u8, v: uint8x16_t) {
            vst1q_u8(to, v)
        }
        #[inline(always)]
        unsafe fn zero() -> uint8x16_t {
            vdupq_n_u8(0)
        }
        #[inline(always)]
        unsafe fn xor(a: uint8x16_t, b: uint8x16_t) -> uint8x16_t {
            veorq_u8(a, b)
        }
        #[inline(always)]
        unsafe fn mul((lo, hi): (uint8x16_t, uint8x16_t), v: uint8x16_t) -> uint8x16_t {
            let mask = vdupq_n_u8(0x0F);
            let l = vqtbl1q_u8(lo, vandq_u8(v, mask));
            let h = vqtbl1q_u8(hi, vshrq_n_u8(v, 4));
            veorq_u8(l, h)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Gf256;
    use crate::kernels::scalar;

    #[test]
    fn select_reads_names_off_the_ladder() {
        let ladder = available_kernels();
        for auto in ["", "auto", " AUTO "] {
            assert_eq!(select(ladder, auto).map(Kernel::name), Some(ladder[0].name));
        }
        for kernel in ladder {
            let shouted = format!(" {} ", kernel.name.to_ascii_uppercase());
            assert_eq!(
                select(ladder, &shouted).map(Kernel::name),
                Some(kernel.name)
            );
        }
        for gone in ["split", "wide", "sse9"] {
            assert!(select(ladder, gone).is_none(), "{gone}");
        }
        // A rung the host lacks is as absent as a typo.
        let scalar_only = &ladder[ladder.len() - 1..];
        assert!(select(scalar_only, "avx2").is_none());
        // The fall-back warning offers exactly what `select` resolves here.
        assert_eq!(accepted_values(scalar_only), "auto|scalar");
        let offered = accepted_values(ladder);
        assert_eq!(offered.split('|').count(), 1 + ladder.len());
        for value in offered.split('|') {
            assert!(select(ladder, value).is_some(), "{value}");
        }
    }

    #[test]
    fn the_ladder_ends_in_the_scalar_rung_and_active_is_on_it() {
        let ladder = available_kernels();
        assert_eq!(ladder.last().map(Kernel::name), Some("scalar"));
        assert_eq!(ladder.iter().filter(|k| k.name() == "scalar").count(), 1);
        assert!(ladder.iter().any(|k| k.name() == active_kernel()));
    }

    #[test]
    fn every_available_kernel_matches_scalar_on_edge_lengths() {
        // Lengths straddle the 8-byte unroll and the 16-, 32- and 64-byte
        // lanes, including 0 and lengths that leave 1..=63-byte tails.
        let lens = [
            0usize, 1, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65, 127, 128, 129, 255, 1021,
        ];
        for kernel in available_kernels() {
            for c in [0u8, 1, 2, 0x1D, 0x53, 0x8E, 0xFF] {
                let c = Gf256::new(c);
                let table = MulTable::new(c);
                for &len in &lens {
                    let src: Vec<u8> = (0..len).map(|i| (i * 41 + 3) as u8).collect();
                    let init: Vec<u8> = (0..len).map(|i| (i * 97 + 13) as u8).collect();
                    let (mut fast, mut slow) = (vec![0u8; len], vec![0u8; len]);
                    kernel.mul_slice(&table, &src, &mut fast);
                    scalar::mul_slice(c, &src, &mut slow);
                    assert_eq!(fast, slow, "{} mul len={len} c={c}", kernel.name());
                    let (mut facc, mut sacc) = (init.clone(), init.clone());
                    kernel.mul_slice_xor(&table, &src, &mut facc);
                    scalar::mul_slice_xor(c, &src, &mut sacc);
                    assert_eq!(facc, sacc, "{} mul_xor len={len} c={c}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn misaligned_subslices_match_scalar() {
        // Carve sub-slices at every offset 0..16 out of a shared buffer so
        // the vector loops see genuinely misaligned pointers.
        let backing: Vec<u8> = (0..512).map(|i| (i * 29 + 7) as u8).collect();
        for kernel in available_kernels() {
            let table = MulTable::new(Gf256::new(0xB7));
            for off in 0..16usize {
                let src = &backing[off..off + 121];
                let (mut fast, mut slow) = (vec![0u8; 121], vec![0u8; 121]);
                kernel.mul_slice(&table, src, &mut fast);
                scalar::mul_slice(Gf256::new(0xB7), src, &mut slow);
                assert_eq!(fast, slow, "{} offset={off}", kernel.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let table = MulTable::new(Gf256::new(3));
        let src = [0u8; 8];
        let mut dst = [0u8; 9];
        available_kernels()[0].mul_slice(&table, &src, &mut dst);
    }
}
