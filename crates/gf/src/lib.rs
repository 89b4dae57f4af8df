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
//!   written once) and [`xor_slice`], driven by a per-constant [`MulTable`]
//!   ([`MulTableCache`] memoises them; [`mul_add_slice`] builds one on the
//!   spot). The byte-at-a-time log/exp loops in [`scalar`] are the oracle
//!   the tests compare everything else against.
//! - [`Matrix`]: dense row-major matrices over GF(2^8) with Vandermonde and
//!   Cauchy constructors and Gauss–Jordan inversion, the building blocks of
//!   Reed–Solomon and LRC codes.
//! - [`simd`]: the kernel ladder those three dispatch into — one
//!   `dst (^)= Σ cᵢ·srcᵢ` loop over a lane type per rung: a GFNI / AVX-512
//!   affine register, AVX2, SSSE3 or NEON byte-shuffle registers where the
//!   CPU has them, a `u64` of table lookups everywhere — one rung selected
//!   per process by runtime feature detection, with a `CHAMELEON_GF_KERNEL`
//!   override; [`active_kernel`] names the rung in use.
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

// `unsafe` is denied crate-wide; the `simd` module is the single opt-out
// (module-level `allow`) because `std::arch` intrinsics require it. Its one
// unsafe block and one pointer-walking loop carry the safety argument (see
// DESIGN.md §3.1).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod field;
pub mod kernels;
mod matrix;
pub mod simd;
mod tables;

pub use field::Gf256;
pub use kernels::{
    combine_into, mul_add_slice, mul_slice_with, mul_slice_xor_with, scalar, xor_slice, MulTable,
    MulTableCache,
};
pub use matrix::{Matrix, MatrixError};
pub use simd::{active_kernel, available_kernels, Kernel};
