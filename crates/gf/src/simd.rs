//! The GF(2^8) multiply-kernel ladder and its one dispatch point.
//!
//! A [`MulTable`] describes "multiply by `c`" twice. Two 16-entry nibble
//! tables fit exactly into one SIMD register each, so a byte-shuffle
//! instruction (`PSHUFB` on x86, `TBL` on AArch64) performs sixteen (or
//! thirty-two) table lookups per instruction — the 4-bit lookup of
//! GF-Complete, ISA-L and the `reed_solomon_erasure` crate:
//!
//! ```text
//! product = shuffle(lo_table, src & 0x0F) ^ shuffle(hi_table, src >> 4)
//! ```
//!
//! And because the map is linear over GF(2), it is also an 8×8 bit matrix
//! ([`MulTable::affine_matrix`]) that `VGF2P8AFFINEQB` applies to 64 bytes
//! in one instruction. (`VGF2P8MULB`, the obvious candidate, is hard-wired
//! to the AES polynomial 0x11B; this field is 0x11D. The affine form does
//! not care which polynomial built the matrix.)
//!
//! [`available_kernels`] is the ladder, best rung first; the SIMD rungs are
//! compiled only for their architecture and listed only when runtime
//! feature detection finds the instruction set:
//!
//! - **gfni** — 64 bytes per step via `_mm512_gf2p8affine_epi64_epi8`
//!   (needs `avx512f`, `avx512bw` and `gfni`)
//! - **avx2** — 32 bytes per step via `_mm256_shuffle_epi8`
//! - **ssse3** — 16 bytes per step via `_mm_shuffle_epi8`
//! - **neon** — 16 bytes per step via `vqtbl1q_u8`
//! - **scalar** — the portable 256-entry-row loop of [`crate::kernels`],
//!   always present and always last
//!
//! A rung is three routines: `dst = c·src`, `dst ^= c·src` and
//! `dst = Σ cᵢ·srcᵢ` ([`Kernel::combine`]). The `gfni` rung sums in
//! registers — each source vector loaded once, `dst` stored once and never
//! read; the others share `kernels::combine_blocked`, which runs
//! the rung's own two multiplies over one 4 KiB block of `dst` at a time.
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
//! (the crate root is `#![deny(unsafe_code)]`). The argument, kernel by
//! kernel:
//!
//! - Every intrinsic is gated at the call site: the `unsafe fn`s carrying
//!   `#[target_feature(...)]` are reachable only through [`Kernel`]
//!   values constructed after the matching
//!   `is_x86_feature_detected!`/`is_aarch64_feature_detected!` check
//!   passed (all three of `avx512f`, `avx512bw` and `gfni` for the `gfni`
//!   rung), so an illegal instruction can never be executed. The portable
//!   rung's functions, and the shared blocked `combine`, are safe code with
//!   no precondition at all.
//! - No alignment is assumed: all loads/stores use the unaligned
//!   variants (`_mm_loadu_si128`/`_mm256_loadu_si256`/`_mm512_loadu_si512`/
//!   `vld1q_u8` — the AArch64 `vld1q_u8` has no alignment requirement), so
//!   arbitrary sub-slices are fine.
//! - All pointer arithmetic stays inside `src`/`dst`: the safe wrappers
//!   assert equal lengths — [`Kernel::combine`] asserts
//!   `terms[i].1.len() == dst.len()` for every term — the vector loops
//!   cover `len - len % LANE` bytes and the remainder is handled by a safe
//!   scalar tail loop over the 256-entry product row.
//! - `src` and `dst` never alias (`&[u8]` vs `&mut [u8]` guarantees it).

#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::kernels::{combine_blocked, mul_row, mul_xor_row, MulTable};

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
    mul: MulFn,
    mul_xor: MulFn,
    combine: CombineFn,
}

/// `dst = c*src` or `dst ^= c*src`; `src` and `dst` of one length.
type MulFn = unsafe fn(&MulTable, &[u8], &mut [u8]);

/// `dst = sum_i c_i*src_i`; every source as long as `dst`. Takes the rung
/// itself so [`combine_blocked`] can run on its `mul` and `mul_xor`; a
/// native combine ignores it.
type CombineFn = unsafe fn(&Kernel, &[(&MulTable, &[u8])], &mut [u8]);

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
        assert_eq!(src.len(), dst.len(), "slice length mismatch");
        // SAFETY: this Kernel was constructed only after runtime feature
        // detection confirmed the instruction set is available (the
        // portable rung needs none), and the lengths are equal.
        unsafe { (self.mul)(table, src, dst) }
    }

    /// `dst[i] ^= c * src[i]` for the table's constant, any length and
    /// alignment.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_slice_xor(&self, table: &MulTable, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slice length mismatch");
        // SAFETY: as above — construction implies the feature is present.
        unsafe { (self.mul_xor)(table, src, dst) }
    }

    /// `dst[i] = sum_t c_t * src_t[i]` over the `(table, source)` terms,
    /// any length and alignment. `dst` is overwritten without being read;
    /// no terms at all leave it zero.
    ///
    /// # Panics
    ///
    /// Panics if any source's length differs from `dst`'s.
    pub fn combine(&self, terms: &[(&MulTable, &[u8])], dst: &mut [u8]) {
        for (_, src) in terms {
            assert_eq!(src.len(), dst.len(), "slice length mismatch");
        }
        // SAFETY: construction implies the feature is present, and every
        // source is exactly as long as `dst`.
        unsafe { (self.combine)(self, terms, dst) }
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
            mul: mul_row,
            mul_xor: mul_xor_row,
            combine: combine_blocked,
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
            mul: x86::mul_slice_gfni_entry,
            mul_xor: x86::mul_slice_xor_gfni_entry,
            combine: x86::combine_gfni_entry,
        });
    }
    if is_x86_feature_detected!("avx2") {
        kernels.push(Kernel {
            name: "avx2",
            mul: x86::mul_slice_avx2_entry,
            mul_xor: x86::mul_slice_xor_avx2_entry,
            combine: combine_blocked,
        });
    }
    if is_x86_feature_detected!("ssse3") {
        kernels.push(Kernel {
            name: "ssse3",
            mul: x86::mul_slice_ssse3_entry,
            mul_xor: x86::mul_slice_xor_ssse3_entry,
            combine: combine_blocked,
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
            mul: arm::mul_slice_neon_entry,
            mul_xor: arm::mul_slice_xor_neon_entry,
            combine: combine_blocked,
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

/// Scalar tail after the vector loop: one product-row lookup per byte.
#[inline(always)]
fn row_tail(table: &MulTable, src: &[u8], dst: &mut [u8], done: usize) {
    for (d, &s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d = table.mul(s);
    }
}

/// XOR-accumulating scalar tail.
#[inline(always)]
fn row_tail_xor(table: &MulTable, src: &[u8], dst: &mut [u8], done: usize) {
    for (d, &s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d ^= table.mul(s);
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod x86 {
    //! SSSE3 / AVX2 nibble-shuffle kernels and the GFNI affine kernels.
    //!
    //! SAFETY (whole module): every `#[target_feature]` function here is
    //! called only through the `*_entry` trampolines (or, for the two GFNI
    //! helpers, from a function enabling the same features), which in turn
    //! are reachable only via [`super::Kernel`] values built after the
    //! matching `is_x86_feature_detected!` checks. All loads/stores are
    //! the unaligned (`loadu`/`storeu`) variants, and all offsets stay
    //! within the slice bounds established by the exact-length loops —
    //! for `combine_gfni`, bounds on `dst` that hold for every source
    //! because [`super::Kernel::combine`] asserted the lengths equal.

    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::{row_tail, row_tail_xor, Kernel};
    use crate::kernels::MulTable;

    /// Plain-`unsafe fn` trampoline so the kernel can live in a fn
    /// pointer (a `#[target_feature]` fn cannot be coerced directly).
    pub(super) unsafe fn mul_slice_ssse3_entry(t: &MulTable, src: &[u8], dst: &mut [u8]) {
        unsafe { mul_slice_ssse3(t, src, dst) }
    }

    pub(super) unsafe fn mul_slice_xor_ssse3_entry(t: &MulTable, src: &[u8], dst: &mut [u8]) {
        unsafe { mul_slice_xor_ssse3(t, src, dst) }
    }

    pub(super) unsafe fn mul_slice_avx2_entry(t: &MulTable, src: &[u8], dst: &mut [u8]) {
        unsafe { mul_slice_avx2(t, src, dst) }
    }

    pub(super) unsafe fn mul_slice_xor_avx2_entry(t: &MulTable, src: &[u8], dst: &mut [u8]) {
        unsafe { mul_slice_xor_avx2(t, src, dst) }
    }

    pub(super) unsafe fn mul_slice_gfni_entry(t: &MulTable, src: &[u8], dst: &mut [u8]) {
        unsafe { mul_slice_gfni(t, src, dst) }
    }

    pub(super) unsafe fn mul_slice_xor_gfni_entry(t: &MulTable, src: &[u8], dst: &mut [u8]) {
        unsafe { mul_slice_xor_gfni(t, src, dst) }
    }

    pub(super) unsafe fn combine_gfni_entry(
        _: &Kernel,
        terms: &[(&MulTable, &[u8])],
        dst: &mut [u8],
    ) {
        unsafe { combine_gfni(terms, dst) }
    }

    /// The table's bit matrix in all eight qwords, as `VGF2P8AFFINEQB`
    /// wants it.
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    unsafe fn affine_matrix(table: &MulTable) -> __m512i {
        _mm512_set1_epi64(table.affine_matrix() as i64)
    }

    /// 64 GF multiplies per step: one `VGF2P8AFFINEQB`.
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    unsafe fn mul_slice_gfni(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        let matrix = affine_matrix(table);
        let blocks = src.len() / 64;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for i in 0..blocks {
            let s = _mm512_loadu_si512(sp.add(i * 64).cast());
            let prod = _mm512_gf2p8affine_epi64_epi8::<0>(s, matrix);
            _mm512_storeu_si512(dp.add(i * 64).cast(), prod);
        }
        row_tail(table, src, dst, blocks * 64);
    }

    /// `dst ^= c*src`, 64 bytes per step.
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    unsafe fn mul_slice_xor_gfni(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        let matrix = affine_matrix(table);
        let blocks = src.len() / 64;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for i in 0..blocks {
            let s = _mm512_loadu_si512(sp.add(i * 64).cast());
            let prod = _mm512_gf2p8affine_epi64_epi8::<0>(s, matrix);
            let d = _mm512_loadu_si512(dp.add(i * 64).cast());
            _mm512_storeu_si512(dp.add(i * 64).cast(), _mm512_xor_si512(d, prod));
        }
        row_tail_xor(table, src, dst, blocks * 64);
    }

    /// `dst = sum_t c_t*src_t` with the sum held in registers: 256 bytes of
    /// every source are loaded once per step, multiplied and XORed into four
    /// accumulators, and `dst` is stored once, never loaded. The caller
    /// guarantees every source is as long as `dst`.
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    unsafe fn combine_gfni(terms: &[(&MulTable, &[u8])], dst: &mut [u8]) {
        let len = dst.len();
        let mut at = 0;
        while at + 256 <= len {
            combine_step_gfni::<4>(terms, dst.as_mut_ptr(), at);
            at += 256;
        }
        while at + 64 <= len {
            combine_step_gfni::<1>(terms, dst.as_mut_ptr(), at);
            at += 64;
        }
        for (i, d) in dst.iter_mut().enumerate().skip(at) {
            *d = terms
                .iter()
                .fold(0, |sum, (table, src)| sum ^ table.mul(src[i]));
        }
    }

    /// One step of [`combine_gfni`]: bytes `at..at + 64 * LANES` of the sum,
    /// one accumulator register per 64-byte lane. Every source, and `dst`,
    /// must reach `at + 64 * LANES`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    unsafe fn combine_step_gfni<const LANES: usize>(
        terms: &[(&MulTable, &[u8])],
        dst: *mut u8,
        at: usize,
    ) {
        let mut acc = [_mm512_setzero_si512(); LANES];
        for &(table, src) in terms {
            let matrix = affine_matrix(table);
            let sp = src.as_ptr().add(at);
            for (lane, sum) in acc.iter_mut().enumerate() {
                let s = _mm512_loadu_si512(sp.add(64 * lane).cast());
                *sum = _mm512_xor_si512(*sum, _mm512_gf2p8affine_epi64_epi8::<0>(s, matrix));
            }
        }
        for (lane, sum) in acc.iter().enumerate() {
            _mm512_storeu_si512(dst.add(at + 64 * lane).cast(), *sum);
        }
    }

    /// 16 GF multiplies per step: two `PSHUFB` nibble lookups + XOR.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_slice_ssse3(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = table.nibble_tables();
        let lo_v = _mm_loadu_si128(lo.as_ptr().cast());
        let hi_v = _mm_loadu_si128(hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let blocks = src.len() / 16;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for i in 0..blocks {
            let s = _mm_loadu_si128(sp.add(i * 16).cast());
            let l = _mm_shuffle_epi8(lo_v, _mm_and_si128(s, mask));
            let h = _mm_shuffle_epi8(hi_v, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
            _mm_storeu_si128(dp.add(i * 16).cast(), _mm_xor_si128(l, h));
        }
        row_tail(table, src, dst, blocks * 16);
    }

    /// `dst ^= c*src`, 16 bytes per step.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_slice_xor_ssse3(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = table.nibble_tables();
        let lo_v = _mm_loadu_si128(lo.as_ptr().cast());
        let hi_v = _mm_loadu_si128(hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let blocks = src.len() / 16;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for i in 0..blocks {
            let s = _mm_loadu_si128(sp.add(i * 16).cast());
            let l = _mm_shuffle_epi8(lo_v, _mm_and_si128(s, mask));
            let h = _mm_shuffle_epi8(hi_v, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
            let d = _mm_loadu_si128(dp.add(i * 16).cast());
            let prod = _mm_xor_si128(l, h);
            _mm_storeu_si128(dp.add(i * 16).cast(), _mm_xor_si128(d, prod));
        }
        row_tail_xor(table, src, dst, blocks * 16);
    }

    /// 32 GF multiplies per step: the nibble tables are broadcast into
    /// both 128-bit lanes (`VPSHUFB` shuffles within lanes, which is
    /// exactly what a 16-entry table lookup wants).
    #[target_feature(enable = "avx2")]
    unsafe fn mul_slice_avx2(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = table.nibble_tables();
        let lo_v = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let hi_v = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let blocks = src.len() / 32;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for i in 0..blocks {
            let s = _mm256_loadu_si256(sp.add(i * 32).cast());
            let l = _mm256_shuffle_epi8(lo_v, _mm256_and_si256(s, mask));
            let h = _mm256_shuffle_epi8(hi_v, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
            _mm256_storeu_si256(dp.add(i * 32).cast(), _mm256_xor_si256(l, h));
        }
        row_tail(table, src, dst, blocks * 32);
    }

    /// `dst ^= c*src`, 32 bytes per step.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_slice_xor_avx2(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = table.nibble_tables();
        let lo_v = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let hi_v = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let blocks = src.len() / 32;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for i in 0..blocks {
            let s = _mm256_loadu_si256(sp.add(i * 32).cast());
            let l = _mm256_shuffle_epi8(lo_v, _mm256_and_si256(s, mask));
            let h = _mm256_shuffle_epi8(hi_v, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
            let d = _mm256_loadu_si256(dp.add(i * 32).cast());
            let prod = _mm256_xor_si256(l, h);
            _mm256_storeu_si256(dp.add(i * 32).cast(), _mm256_xor_si256(d, prod));
        }
        row_tail_xor(table, src, dst, blocks * 32);
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    //! NEON `TBL` kernels.
    //!
    //! SAFETY (whole module): reachable only through [`super::Kernel`]
    //! values built after `is_aarch64_feature_detected!("neon")` passed
    //! (NEON is mandatory on AArch64, but the check keeps the argument
    //! local). `vld1q_u8`/`vst1q_u8` have no alignment requirements and
    //! all offsets stay inside the slices.

    use std::arch::aarch64::*;

    use super::{row_tail, row_tail_xor};
    use crate::kernels::MulTable;

    pub(super) unsafe fn mul_slice_neon_entry(t: &MulTable, src: &[u8], dst: &mut [u8]) {
        unsafe { mul_slice_neon(t, src, dst) }
    }

    pub(super) unsafe fn mul_slice_xor_neon_entry(t: &MulTable, src: &[u8], dst: &mut [u8]) {
        unsafe { mul_slice_xor_neon(t, src, dst) }
    }

    /// 16 GF multiplies per step: two `vqtbl1q_u8` nibble lookups + XOR.
    /// The high nibble comes from a plain per-byte shift (`vshrq_n_u8`),
    /// no mask needed.
    #[target_feature(enable = "neon")]
    unsafe fn mul_slice_neon(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = table.nibble_tables();
        let lo_v = vld1q_u8(lo.as_ptr());
        let hi_v = vld1q_u8(hi.as_ptr());
        let mask = vdupq_n_u8(0x0F);
        let blocks = src.len() / 16;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for i in 0..blocks {
            let s = vld1q_u8(sp.add(i * 16));
            let l = vqtbl1q_u8(lo_v, vandq_u8(s, mask));
            let h = vqtbl1q_u8(hi_v, vshrq_n_u8(s, 4));
            vst1q_u8(dp.add(i * 16), veorq_u8(l, h));
        }
        row_tail(table, src, dst, blocks * 16);
    }

    /// `dst ^= c*src`, 16 bytes per step.
    #[target_feature(enable = "neon")]
    unsafe fn mul_slice_xor_neon(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = table.nibble_tables();
        let lo_v = vld1q_u8(lo.as_ptr());
        let hi_v = vld1q_u8(hi.as_ptr());
        let mask = vdupq_n_u8(0x0F);
        let blocks = src.len() / 16;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for i in 0..blocks {
            let s = vld1q_u8(sp.add(i * 16));
            let l = vqtbl1q_u8(lo_v, vandq_u8(s, mask));
            let h = vqtbl1q_u8(hi_v, vshrq_n_u8(s, 4));
            let d = vld1q_u8(dp.add(i * 16));
            vst1q_u8(dp.add(i * 16), veorq_u8(d, veorq_u8(l, h)));
        }
        row_tail_xor(table, src, dst, blocks * 16);
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
