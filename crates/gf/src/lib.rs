//! Galois field arithmetic and matrix algebra for erasure coding.
//!
//! This crate provides the finite-field substrate that every erasure code in
//! the ChameleonEC workspace is built on:
//!
//! - [`Gf256`]: the field GF(2^8) with the primitive polynomial
//!   `x^8 + x^4 + x^3 + x^2 + 1` (0x11D), implemented with compile-time
//!   log/exp tables.
//! - [`kernels`]: the bulk slice operations every encoded, decoded or
//!   repaired byte goes through — [`mul_slice_with`] (`dst = c·src`),
//!   [`mul_slice_xor_with`] (`dst ^= c·src`, one term of Equation (1) of the
//!   paper), [`combine_into`] (`dst = Σ cᵢ·srcᵢ`, Equation (1) whole, `dst`
//!   written once) and [`xor_slice`], driven by a per-constant [`MulTable`].
//!   All 256 tables are one compile-time static, and [`MulTable::of`] is
//!   how a coder gets one. The byte-at-a-time log/exp loops in [`scalar`]
//!   are the oracle the tests compare everything else against. Coders walk
//!   a chunk in [`BLOCK_BYTES`] steps.
//! - [`Matrix`]: dense row-major matrices over GF(2^8) with a Cauchy
//!   constructor and one Gauss–Jordan elimination behind inversion, rank
//!   and [`Matrix::combination`] (a chunk as a combination of others), the
//!   building blocks of Reed–Solomon, LRC and Butterfly decoding.
//! - [`simd`]: the kernel ladder those three dispatch into — one
//!   `dst (^)= Σ cᵢ·srcᵢ` loop over a lane type per rung: a GFNI / AVX-512
//!   affine register, AVX2, SSSE3 or NEON byte-shuffle registers where the
//!   CPU has them, a `u64` of table lookups everywhere — one rung selected
//!   per process by runtime feature detection, with a `CHAMELEON_GF_KERNEL`
//!   override; [`active_kernel`] names the rung in use.
//! - [`pages`]: [`pages::prepare_output`], the page advice a coder gives a
//!   fresh output of 2 MiB or more before writing it — huge pages and one
//!   prefault call instead of a fault per 4 KiB page, on Linux.
//!
//! # Examples
//!
//! ```
//! use chameleon_gf::{Gf256, Matrix};
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! assert_eq!((a * b) / b, a);
//!
//! let m = Matrix::cauchy(3, 5);
//! assert_eq!(m.rows(), 3);
//! ```

// `unsafe` is denied crate-wide, with two module-level `allow`s: `simd`,
// because `std::arch` intrinsics require it (one unsafe call and one
// pointer-walking loop), and `pages`, whose one unsafe block calls
// `madvise(2)` on a vector's own allocation. Each module carries its
// safety argument (see DESIGN.md §3.1, `gf`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod field;
pub mod kernels;
mod matrix;
pub mod pages;
pub mod simd;
mod tables;

pub use field::Gf256;
pub use kernels::{
    combine_into, mul_add_slice, mul_slice_with, mul_slice_xor_with, scalar, xor_slice, MulTable,
    BLOCK_BYTES,
};
pub use matrix::{Matrix, MatrixError};
pub use simd::{active_kernel, available_kernels, Kernel};
