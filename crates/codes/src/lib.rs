//! Erasure code constructions evaluated in the ChameleonEC paper.
//!
//! Three code families are provided behind the common [`ErasureCode`] trait:
//!
//! - [`ReedSolomon`]: systematic RS(k, m) built from a Cauchy generator
//!   matrix (general + MDS, the production default; see §II-A of the paper).
//! - [`Lrc`]: Azure-style Locally Repairable Codes LRC(k, l, m) — `l` local
//!   XOR parities plus `m` global Cauchy parities; repairing a data chunk
//!   touches only its `k/l`-sized local group (§II-C).
//! - [`Butterfly`]: the Butterfly(4, 2) XOR regenerating code with
//!   sub-packetization 2 — single-chunk repair downloads half-chunks
//!   (Exp#9 of the paper).
//!
//! The trait exposes everything repair schedulers need: how many sources a
//! repair requires and from where ([`ErasureCode::repair_requirement`]),
//! the decoding coefficients for a chosen source set
//! ([`ErasureCode::repair_coefficients`]), and byte-level
//! [`ErasureCode::encode`] / [`ErasureCode::decode`] /
//! [`ErasureCode::repair`] for end-to-end correctness checks.
//!
//! RS and LRC share one generator-matrix engine. A code lists its parity
//! rows' terms once, when it is constructed, each with its compile-time
//! `gf::MulTable`; `encode` then walks a chunk in 4 KiB blocks, appending
//! each source block to its systematic copy and — while the `k` blocks are
//! hot — combining them into each parity's next block, so every output
//! byte is written once. `decode` / `repair` solve with
//! `gf::Matrix::combination`, as Butterfly does, and hand the whole output
//! to one `gf::combine_into`; Butterfly builds each output half with one
//! `combine_into` as well. Every returned chunk goes through
//! `gf::pages::prepare_output` before its first byte is written, so one of
//! 2 MiB or more is born on huge pages and faulted in by one call.
//! Apart from the buffers they return, the
//! calls allocate a fixed handful of small vectors whatever the chunk
//! length (`tests/coder_alloc.rs` pins the counts).
//!
//! # Examples
//!
//! ```
//! use chameleon_codes::{ErasureCode, ReedSolomon};
//!
//! let rs = ReedSolomon::new(4, 2)?;
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
//! let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
//! let stripe = rs.encode(&refs)?;
//! assert_eq!(stripe.len(), 6);
//!
//! // Lose chunk 1 and repair it from chunks {0, 2, 3, 4}.
//! let inputs: Vec<(usize, &[u8])> =
//!     [0, 2, 3, 4].iter().map(|&i| (i, stripe[i].as_slice())).collect();
//! let repaired = rs.repair(1, &inputs)?;
//! assert_eq!(repaired, stripe[1]);
//! # Ok::<(), chameleon_codes::CodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod butterfly;
mod error;
mod linear;
mod lrc;
mod rs;
mod spec;

pub use butterfly::Butterfly;
pub use error::CodeError;
pub use lrc::Lrc;
pub use rs::ReedSolomon;
pub use spec::{RepairRequirement, SourceRead};

use chameleon_gf::Gf256;

/// A systematic erasure code over `n` chunks, `k` of them data.
///
/// Chunk indices `0..k` are data; `k..n` are parity. All codes in this crate
/// are linear over GF(2^8), which is what makes ChameleonEC's *tunable*
/// repair plans possible (partial decoding at relay nodes, §II-C).
pub trait ErasureCode: Send + Sync {
    /// Total number of chunks in a stripe.
    fn n(&self) -> usize;

    /// Number of data chunks in a stripe.
    fn k(&self) -> usize;

    /// Human-readable name, e.g. `RS(10,4)`.
    fn name(&self) -> String;

    /// Maximum number of arbitrary chunk failures the code always tolerates.
    fn fault_tolerance(&self) -> usize;

    /// Encodes `k` equally sized data chunks into a full stripe of `n`
    /// chunks (data first, parity after).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongChunkCount`] or
    /// [`CodeError::ChunkSizeMismatch`] for malformed input.
    fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodeError>;

    /// Vestigial: [`Self::encode`] under its former striped name. There is
    /// one encode path and `stripe_bytes` is ignored; the method survives
    /// only because the repository benchmark (`benchmark/src/probes.rs`,
    /// frozen while product code changes) still calls it. Remove it together
    /// with that probe and the per-layer row it feeds.
    #[doc(hidden)]
    fn encode_striped(
        &self,
        data: &[&[u8]],
        stripe_bytes: usize,
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        let _ = stripe_bytes;
        self.encode(data)
    }

    /// Reconstructs chunk `wanted` from any sufficient set of available
    /// chunks.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NotEnoughChunks`] if the available set cannot
    /// determine the wanted chunk.
    fn decode(&self, available: &[(usize, &[u8])], wanted: usize) -> Result<Vec<u8>, CodeError>;

    /// Describes what a *single-chunk* repair of `failed` needs, given the
    /// currently alive chunk indices. Schedulers use this to pick sources.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NotEnoughChunks`] if `alive` cannot repair
    /// `failed`, and [`CodeError::BadIndex`] for out-of-range indices.
    fn repair_requirement(
        &self,
        failed: usize,
        alive: &[usize],
    ) -> Result<RepairRequirement, CodeError>;

    /// Returns decoding coefficients `alpha_i` such that
    /// `failed = sum_i alpha_i * chunk(sources[i])` (Equation (1) of the
    /// paper), for a source set satisfying [`Self::repair_requirement`].
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NotEnoughChunks`] if the chosen sources cannot
    /// express the failed chunk, or [`CodeError::SubChunkRepair`] for codes
    /// whose repair is not a whole-chunk linear combination (Butterfly).
    fn repair_coefficients(
        &self,
        failed: usize,
        sources: &[usize],
    ) -> Result<Vec<Gf256>, CodeError>;

    /// Byte-level repair of `failed` from the given source chunks
    /// (a convenience wrapper over [`Self::decode`], overridable so codes
    /// with sub-chunk repair can use their cheaper repair path).
    ///
    /// # Errors
    ///
    /// Same as [`Self::decode`].
    fn repair(&self, failed: usize, inputs: &[(usize, &[u8])]) -> Result<Vec<u8>, CodeError> {
        self.decode(inputs, failed)
    }
}

/// A zeroed `len`-byte output chunk, its pages advised by
/// [`chameleon_gf::pages::prepare_output`] before anything writes it.
fn zeroed_output(len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    chameleon_gf::pages::prepare_output(&mut out);
    out
}
