//! Shared engine for systematic linear codes described by a generator matrix.

use chameleon_gf::{mul_slice_with, mul_slice_xor_with, Gf256, Matrix, MulTable, MulTableCache};

use crate::CodeError;

/// Bytes of each chunk one step of [`LinearCode::encode`] covers: one
/// source block plus the `m` parity blocks it feeds stay L2-resident for
/// any practical `m`.
const ENCODE_BLOCK_BYTES: usize = 64 * 1024;

/// A systematic linear code: `n x k` generator matrix whose first `k` rows
/// are the identity. Chunk `i` of a stripe equals `G[i] * data`.
#[derive(Debug, Clone)]
pub(crate) struct LinearCode {
    generator: Matrix,
    k: usize,
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
        LinearCode { generator, k }
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

    /// Encodes data chunks into the full stripe (data chunks are copied).
    ///
    /// Parity is produced by a fused coefficient-outer pass: the chunk is
    /// walked in [`ENCODE_BLOCK_BYTES`] blocks, and within each block every
    /// source is read **once** and immediately applied to all `m` parity
    /// rows, so no source is streamed from memory once per parity.
    pub(crate) fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodeError> {
        if data.len() != self.k {
            return Err(CodeError::WrongChunkCount);
        }
        let len = data.first().map_or(0, |c| c.len());
        if data.iter().any(|c| c.len() != len) {
            return Err(CodeError::ChunkSizeMismatch);
        }
        let mut stripe: Vec<Vec<u8>> = data.iter().map(|c| c.to_vec()).collect();

        // One table per distinct generator coefficient.
        let mut cache = MulTableCache::new();
        cache.prime(
            (self.k..self.n()).flat_map(|i| (0..self.k).map(move |j| self.generator[(i, j)])),
        );
        // tables[pi][j] multiplies source j into parity row pi.
        let tables: Vec<Vec<&MulTable>> = (self.k..self.n())
            .map(|i| {
                (0..self.k)
                    .map(|j| {
                        cache
                            .cached(self.generator[(i, j)])
                            .expect("cache was primed")
                    })
                    .collect()
            })
            .collect();

        let mut parity: Vec<Vec<u8>> = tables.iter().map(|_| vec![0u8; len]).collect();
        for start in (0..len).step_by(ENCODE_BLOCK_BYTES) {
            let span = start..len.min(start + ENCODE_BLOCK_BYTES);
            for (j, src) in data.iter().enumerate() {
                for (row_tables, out) in tables.iter().zip(parity.iter_mut()) {
                    mul_slice_xor_with(row_tables[j], &src[span.clone()], &mut out[span.clone()]);
                }
            }
        }
        stripe.extend(parity);
        Ok(stripe)
    }

    /// Expresses chunk `wanted` as a linear combination of the available
    /// chunks; returns `(indices into available, coefficients)`.
    pub(crate) fn decode_combination(
        &self,
        available: &[usize],
        wanted: usize,
    ) -> Result<Vec<(usize, Gf256)>, CodeError> {
        if wanted >= self.n() || available.iter().any(|&i| i >= self.n()) {
            return Err(CodeError::BadIndex);
        }
        // Fast path: the chunk is itself available.
        if let Some(pos) = available.iter().position(|&i| i == wanted) {
            return Ok(vec![(pos, Gf256::ONE)]);
        }
        let columns: Vec<&[Gf256]> = available.iter().map(|&i| self.row(i)).collect();
        let coeffs =
            solve_combination(&columns, self.row(wanted)).ok_or(CodeError::NotEnoughChunks)?;
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
        let indices: Vec<usize> = available.iter().map(|(i, _)| *i).collect();
        let combo = self.decode_combination(&indices, wanted)?;
        let mut cache = MulTableCache::new();
        cache.prime(combo.iter().map(|&(_, c)| c));
        let terms: Vec<(&MulTable, &[u8])> = combo
            .iter()
            .map(|&(pos, c)| (cache.cached(c).expect("cache was primed"), available[pos].1))
            .collect();
        let mut out = vec![0u8; len];
        combine_blocked(&terms, &mut out);
        Ok(out)
    }

    /// Coefficients expressing `failed` over exactly the given sources.
    pub(crate) fn repair_coefficients(
        &self,
        failed: usize,
        sources: &[usize],
    ) -> Result<Vec<Gf256>, CodeError> {
        if failed >= self.n() || sources.iter().any(|&i| i >= self.n()) {
            return Err(CodeError::BadIndex);
        }
        if sources.contains(&failed) {
            return Err(CodeError::BadIndex);
        }
        let columns: Vec<&[Gf256]> = sources.iter().map(|&i| self.row(i)).collect();
        solve_combination(&columns, self.row(failed)).ok_or(CodeError::NotEnoughChunks)
    }
}

/// Output bytes [`combine_blocked`] finishes at a time. One page: the block
/// being accumulated stays in L1 while every term streams through it.
/// Measured inside the repository benchmark's `codec` workload (8 MiB
/// RS(10,4) chunks), 4–32 KiB blocks rebuilt a chunk 7–25 % faster than
/// whole-buffer passes whatever the host was doing, while 64 KiB blocks
/// were as fast on a quiet host and 20–35 % *slower* than whole-buffer
/// passes when a neighbour was competing for the core's L2.
const COMBINE_BLOCK_BYTES: usize = 4096;

/// Writes `sum_i c_i * src_i` into `out`, one block at a time: the first
/// term writes the block and the others accumulate into it while it is
/// cache-resident, so the output is neither zero-filled first nor streamed
/// from memory once per term.
fn combine_blocked(terms: &[(&MulTable, &[u8])], out: &mut [u8]) {
    let Some((&(first, first_src), rest)) = terms.split_first() else {
        return; // an empty sum: the zeroed output is the answer
    };
    for (i, block) in out.chunks_mut(COMBINE_BLOCK_BYTES).enumerate() {
        let start = i * COMBINE_BLOCK_BYTES;
        let span = start..start + block.len();
        mul_slice_with(first, &first_src[span.clone()], block);
        for &(table, src) in rest {
            mul_slice_xor_with(table, &src[span.clone()], block);
        }
    }
}

/// Solves `sum_i x_i * columns[i] = target` over GF(2^8); returns any
/// solution (free variables set to zero), or `None` if the target is not in
/// the span.
#[allow(clippy::needless_range_loop)] // Gauss-Jordan is clearest with indices
pub(crate) fn solve_combination(columns: &[&[Gf256]], target: &[Gf256]) -> Option<Vec<Gf256>> {
    let rows = target.len();
    let vars = columns.len();
    debug_assert!(columns.iter().all(|c| c.len() == rows));
    // Augmented matrix [A | target] where A[r][v] = columns[v][r].
    let mut aug: Vec<Vec<Gf256>> = (0..rows)
        .map(|r| {
            let mut row: Vec<Gf256> = columns.iter().map(|c| c[r]).collect();
            row.push(target[r]);
            row
        })
        .collect();

    let mut pivot_of_col: Vec<Option<usize>> = vec![None; vars];
    let mut pivot_row = 0;
    for col in 0..vars {
        if pivot_row == rows {
            break;
        }
        let Some(pr) = (pivot_row..rows).find(|&r| !aug[r][col].is_zero()) else {
            continue;
        };
        aug.swap(pivot_row, pr);
        let inv = aug[pivot_row][col].inv().expect("pivot nonzero");
        for v in aug[pivot_row].iter_mut() {
            *v *= inv;
        }
        for r in 0..rows {
            if r != pivot_row && !aug[r][col].is_zero() {
                let factor = aug[r][col];
                for c in 0..=vars {
                    let sub = aug[pivot_row][c] * factor;
                    aug[r][c] += sub;
                }
            }
        }
        pivot_of_col[col] = Some(pivot_row);
        pivot_row += 1;
    }

    // Inconsistent system: a zero row with nonzero RHS.
    for r in pivot_row..rows {
        if !aug[r][vars].is_zero() {
            return None;
        }
    }

    let mut solution = vec![Gf256::ZERO; vars];
    for (col, pivot) in pivot_of_col.iter().enumerate() {
        if let Some(pr) = pivot {
            solution[col] = aug[*pr][vars];
        }
    }
    Some(solution)
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

    #[test]
    fn solve_combination_detects_inconsistency() {
        let a = [Gf256::ONE, Gf256::ZERO];
        let cols: Vec<&[Gf256]> = vec![&a];
        let target = [Gf256::ZERO, Gf256::ONE];
        assert!(solve_combination(&cols, &target).is_none());
    }
}
