//! Systematic Reed–Solomon codes RS(k, m) over a Cauchy generator matrix.

use chameleon_gf::{Gf256, Matrix};

use crate::linear::LinearCode;
use crate::{CodeError, ErasureCode, RepairRequirement};

/// RS(k, m): `k` data chunks, `m` parity chunks, MDS (tolerates any `m`
/// failures). The parity rows come from a Cauchy matrix, so every `k x k`
/// submatrix of the generator is invertible.
///
/// # Examples
///
/// ```
/// use chameleon_codes::{ErasureCode, ReedSolomon};
///
/// let rs = ReedSolomon::new(10, 4)?;
/// assert_eq!(rs.n(), 14);
/// assert_eq!(rs.fault_tolerance(), 4);
/// assert_eq!(rs.name(), "RS(10,4)");
/// # Ok::<(), chameleon_codes::CodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    inner: LinearCode,
    m: usize,
}

impl ReedSolomon {
    /// Creates RS(k, m).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadParameters`] unless `k >= 1`, `m >= 1`, and
    /// `k + m <= 255` (the largest stripe GF(2^8) Cauchy construction
    /// supports).
    pub fn new(k: usize, m: usize) -> Result<Self, CodeError> {
        if k == 0 || m == 0 || k + m > 255 {
            return Err(CodeError::BadParameters);
        }
        let generator = Matrix::identity(k)
            .stack(&Matrix::cauchy(m, k))
            .expect("same column count");
        Ok(ReedSolomon {
            inner: LinearCode::new(generator),
            m,
        })
    }

    /// The number of parity chunks `m`.
    pub fn m(&self) -> usize {
        self.m
    }
}

impl ErasureCode for ReedSolomon {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn name(&self) -> String {
        format!("RS({},{})", self.k(), self.m)
    }

    fn fault_tolerance(&self) -> usize {
        self.m
    }

    fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodeError> {
        self.inner.encode(data)
    }

    fn decode(&self, available: &[(usize, &[u8])], wanted: usize) -> Result<Vec<u8>, CodeError> {
        self.inner.decode(available, wanted)
    }

    fn repair_requirement(
        &self,
        failed: usize,
        alive: &[usize],
    ) -> Result<RepairRequirement, CodeError> {
        if failed >= self.n() {
            return Err(CodeError::BadIndex);
        }
        let candidates: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&i| i != failed && i < self.n())
            .collect();
        if candidates.len() < self.k() {
            return Err(CodeError::NotEnoughChunks);
        }
        Ok(RepairRequirement::AnyOf {
            candidates,
            count: self.k(),
        })
    }

    fn repair_coefficients(
        &self,
        failed: usize,
        sources: &[usize],
    ) -> Result<Vec<Gf256>, CodeError> {
        self.inner.repair_coefficients(failed, sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe_of(rs: &ReedSolomon, len: usize) -> Vec<Vec<u8>> {
        let data: Vec<Vec<u8>> = (0..rs.k())
            .map(|i| (0..len).map(|j| (i * 31 + j * 7 + 1) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
        rs.encode(&refs).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(
            ReedSolomon::new(0, 2).unwrap_err(),
            CodeError::BadParameters
        );
        assert_eq!(
            ReedSolomon::new(4, 0).unwrap_err(),
            CodeError::BadParameters
        );
        assert_eq!(
            ReedSolomon::new(200, 60).unwrap_err(),
            CodeError::BadParameters
        );
    }

    #[test]
    fn repairs_every_single_failure() {
        let rs = ReedSolomon::new(6, 3).unwrap();
        let stripe = stripe_of(&rs, 32);
        for failed in 0..rs.n() {
            let alive: Vec<usize> = (0..rs.n()).filter(|&i| i != failed).collect();
            let req = rs.repair_requirement(failed, &alive).unwrap();
            let RepairRequirement::AnyOf { candidates, count } = req else {
                panic!("RS repair should be AnyOf");
            };
            assert_eq!(count, 6);
            let sources: Vec<usize> = candidates.into_iter().take(6).collect();
            let coeffs = rs.repair_coefficients(failed, &sources).unwrap();
            // Recompute the chunk byte-by-byte from the coefficients.
            let mut out = vec![0u8; 32];
            for (s, c) in sources.iter().zip(&coeffs) {
                chameleon_gf::mul_add_slice(*c, &stripe[*s], &mut out);
            }
            assert_eq!(out, stripe[failed], "failed chunk {failed}");
        }
    }

    #[test]
    fn tolerates_m_failures_but_not_more() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let stripe = stripe_of(&rs, 8);
        // Lose 2 chunks: decodable.
        let avail: Vec<(usize, &[u8])> = [2, 3, 4, 5]
            .iter()
            .map(|&i| (i, stripe[i].as_slice()))
            .collect();
        assert_eq!(rs.decode(&avail, 0).unwrap(), stripe[0]);
        // Lose 3 chunks: not decodable.
        let avail: Vec<(usize, &[u8])> = [3, 4, 5]
            .iter()
            .map(|&i| (i, stripe[i].as_slice()))
            .collect();
        assert_eq!(rs.decode(&avail, 0), Err(CodeError::NotEnoughChunks));
    }

    #[test]
    fn requirement_rejects_insufficient_alive() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        assert_eq!(
            rs.repair_requirement(0, &[1, 2, 3]),
            Err(CodeError::NotEnoughChunks)
        );
    }

    #[test]
    fn repair_traffic_is_k_chunks() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        let alive: Vec<usize> = (1..14).collect();
        let req = rs.repair_requirement(0, &alive).unwrap();
        assert_eq!(req.traffic_chunks(), 10.0);
        assert!(req.supports_relaying());
    }
}
