//! Shared engine for systematic linear codes described by a generator matrix.

use chameleon_gf::{combine_into, pages, Gf256, Matrix, MulTable, BLOCK_BYTES};

use crate::CodeError;

/// A systematic linear code: `n x k` generator matrix whose first `k` rows
/// are the identity. Chunk `i` of a stripe equals `G[i] * data`.
#[derive(Debug, Clone)]
pub(crate) struct LinearCode {
    generator: Matrix,
    k: usize,
    /// Per parity row `k..n`, its non-zero `(source, multiply-by-G[row][source])`
    /// terms: an LRC local parity keeps only its group.
    parity_terms: Vec<Vec<(usize, &'static MulTable)>>,
}

impl LinearCode {
    /// Builds a linear code from its generator matrix.
    ///
    /// # Panics
    ///
    /// Panics (debug assert) if the top `k` rows are not the identity —
    /// all constructions in this crate are systematic.
    pub(crate) fn new(generator: Matrix) -> Self {
        let k = generator.cols();
        debug_assert!(generator.rows() >= k);
        debug_assert_eq!(
            generator.select_rows(&(0..k).collect::<Vec<_>>()),
            Matrix::identity(k),
            "generator must be systematic"
        );
        let parity_terms = (k..generator.rows())
            .map(|i| {
                let row = generator.row(i).iter().enumerate();
                // Sized up front, as `decode_into`'s terms are.
                let mut terms = Vec::with_capacity(k);
                terms.extend(
                    row.filter(|(_, c)| !c.is_zero())
                        .map(|(j, &c)| (j, MulTable::of(c))),
                );
                terms
            })
            .collect();
        LinearCode {
            generator,
            k,
            parity_terms,
        }
    }

    pub(crate) fn n(&self) -> usize {
        self.generator.rows()
    }

    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Row `i` of the generator: the linear combination of data chunks that
    /// produces chunk `i`.
    pub(crate) fn row(&self, i: usize) -> &[Gf256] {
        self.generator.row(i)
    }

    /// Encodes data chunks into the full stripe (data chunks are copied),
    /// each output's pages advised before it is filled.
    pub(crate) fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodeError> {
        if data.len() != self.k {
            return Err(CodeError::WrongChunkCount);
        }
        let len = data.first().map_or(0, |c| c.len());
        if data.iter().any(|c| c.len() != len) {
            return Err(CodeError::ChunkSizeMismatch);
        }
        let mut stripe: Vec<Vec<u8>> = (0..self.n())
            .map(|_| {
                let mut chunk = Vec::with_capacity(len);
                pages::prepare_output(&mut chunk);
                chunk
            })
            .collect();
        self.encode_into(data, &mut stripe);
        Ok(stripe)
    }

    /// Appends the stripe of `data` (`k` chunks of one length) to the `n`
    /// vectors of `stripe`, one [`BLOCK_BYTES`] step at a time: each source
    /// block is appended to its systematic copy — the read that brings it
    /// into cache — and each parity row then combines the `k` hot blocks
    /// into its next block. Every output byte is written to memory once;
    /// nothing is zero-filled and accumulated into.
    fn encode_into(&self, data: &[&[u8]], stripe: &mut [Vec<u8>]) {
        let len = data.first().map_or(0, |c| c.len());
        let (systematic, parity) = stripe.split_at_mut(self.k);
        let mut terms: Vec<(&MulTable, &[u8])> = Vec::with_capacity(self.k);
        // A parity block is summed here, in L1, and appended whole: safe
        // code cannot write into a vector's spare capacity in place.
        let mut block = [0u8; BLOCK_BYTES];
        for start in (0..len).step_by(BLOCK_BYTES) {
            let span = start..len.min(start + BLOCK_BYTES);
            for (copy, src) in systematic.iter_mut().zip(data) {
                copy.extend_from_slice(&src[span.clone()]);
            }
            let block = &mut block[..span.len()];
            for (row, out) in self.parity_terms.iter().zip(parity.iter_mut()) {
                terms.clear();
                terms.extend(
                    row.iter()
                        .map(|&(j, table)| (table, &data[j][span.clone()])),
                );
                combine_into(&terms, block);
                out.extend_from_slice(block);
            }
        }
    }

    /// One coefficient per available chunk (`index_of(0..count)` are their
    /// stripe indices), zeros included, whose combination is chunk `wanted`.
    fn combination(
        &self,
        count: usize,
        index_of: impl Fn(usize) -> usize,
        wanted: usize,
    ) -> Result<Vec<Gf256>, CodeError> {
        if wanted >= self.n() || (0..count).any(|v| index_of(v) >= self.n()) {
            return Err(CodeError::BadIndex);
        }
        // Fast path: the chunk is itself available.
        if let Some(pos) = (0..count).position(|v| index_of(v) == wanted) {
            let mut unit = vec![Gf256::ZERO; count];
            unit[pos] = Gf256::ONE;
            return Ok(unit);
        }
        Matrix::combination((0..count).map(|v| self.row(index_of(v))), self.row(wanted))
            .ok_or(CodeError::NotEnoughChunks)
    }

    /// Expresses chunk `wanted` as a linear combination of the available
    /// chunks; returns `(indices into available, coefficients)`.
    pub(crate) fn decode_combination(
        &self,
        available: &[usize],
        wanted: usize,
    ) -> Result<Vec<(usize, Gf256)>, CodeError> {
        let coeffs = self.combination(available.len(), |v| available[v], wanted)?;
        Ok(coeffs
            .into_iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .collect())
    }

    /// Byte-level decode of chunk `wanted` from available `(index, bytes)`.
    pub(crate) fn decode(
        &self,
        available: &[(usize, &[u8])],
        wanted: usize,
    ) -> Result<Vec<u8>, CodeError> {
        let len = available.first().map(|(_, c)| c.len()).unwrap_or(0);
        if available.iter().any(|(_, c)| c.len() != len) {
            return Err(CodeError::ChunkSizeMismatch);
        }
        let mut out = crate::zeroed_output(len);
        self.decode_into(available, wanted, &mut out)?;
        Ok(out)
    }

    /// Overwrites `out` with chunk `wanted`: one solve, then one
    /// [`combine_into`] over the whole output with a term per non-zero
    /// coefficient. Every available chunk must be as long as `out`.
    fn decode_into(
        &self,
        available: &[(usize, &[u8])],
        wanted: usize,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        let coeffs = self.combination(available.len(), |v| available[v].0, wanted)?;
        // Sized up front: a filtered iterator would grow the vector in
        // steps, and the allocation count is pinned by `tests/coder_alloc.rs`.
        let mut terms: Vec<(&MulTable, &[u8])> = Vec::with_capacity(coeffs.len());
        terms.extend(
            coeffs
                .iter()
                .zip(available)
                .filter(|(c, _)| !c.is_zero())
                .map(|(&c, &(_, bytes))| (MulTable::of(c), bytes)),
        );
        combine_into(&terms, out);
        Ok(())
    }

    /// Coefficients expressing `failed` over exactly the given sources.
    pub(crate) fn repair_coefficients(
        &self,
        failed: usize,
        sources: &[usize],
    ) -> Result<Vec<Gf256>, CodeError> {
        if sources.contains(&failed) {
            return Err(CodeError::BadIndex);
        }
        self.combination(sources.len(), |v| sources[v], failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_code() -> LinearCode {
        // Systematic [I; Cauchy] generator for k = 3, m = 2.
        let k = 3;
        let gen = Matrix::identity(k)
            .stack(&Matrix::cauchy(2, k))
            .expect("same column count");
        LinearCode::new(gen)
    }

    #[test]
    fn encode_is_systematic() {
        let code = toy_code();
        let data = [&[1u8, 2][..], &[3, 4][..], &[5, 6][..]];
        let stripe = code.encode(&data).unwrap();
        assert_eq!(stripe.len(), 5);
        assert_eq!(&stripe[0], &[1, 2]);
        assert_eq!(&stripe[2], &[5, 6]);
    }

    #[test]
    fn decode_from_any_three() {
        let code = toy_code();
        let data = [&[1u8, 2][..], &[3, 4][..], &[5, 6][..]];
        let stripe = code.encode(&data).unwrap();
        for lost in 0..5usize {
            let avail: Vec<(usize, &[u8])> = (0..5)
                .filter(|&i| i != lost)
                .take(3)
                .map(|i| (i, stripe[i].as_slice()))
                .collect();
            let got = code.decode(&avail, lost).unwrap();
            assert_eq!(got, stripe[lost], "lost chunk {lost}");
        }
    }

    #[test]
    fn decode_insufficient_is_error() {
        let code = toy_code();
        let data = [&[1u8][..], &[3][..], &[5][..]];
        let stripe = code.encode(&data).unwrap();
        let avail: Vec<(usize, &[u8])> = vec![(0, stripe[0].as_slice()), (1, stripe[1].as_slice())];
        assert_eq!(code.decode(&avail, 2), Err(CodeError::NotEnoughChunks));
    }

    #[test]
    fn repair_coefficients_reconstruct_row() {
        let code = toy_code();
        let sources = [0usize, 1, 3];
        let coeffs = code.repair_coefficients(2, &sources).unwrap();
        let mut combo = vec![Gf256::ZERO; 3];
        for (s, c) in sources.iter().zip(&coeffs) {
            for (j, v) in code.row(*s).iter().enumerate() {
                combo[j] += *c * *v;
            }
        }
        assert_eq!(combo.as_slice(), code.row(2));
    }

    #[test]
    fn repair_coefficients_reject_failed_in_sources() {
        let code = toy_code();
        assert_eq!(
            code.repair_coefficients(2, &[0, 2, 3]),
            Err(CodeError::BadIndex)
        );
    }

    #[test]
    fn encode_handles_empty_chunks() {
        let code = toy_code();
        let data = [&[][..], &[][..], &[][..]];
        let stripe = code.encode(&data).unwrap();
        assert_eq!(stripe.len(), 5);
        assert!(stripe.iter().all(Vec::is_empty));
    }
}
