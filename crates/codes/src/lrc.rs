//! Azure-style Locally Repairable Codes LRC(k, l, m).

use chameleon_gf::{Gf256, Matrix};

use crate::linear::LinearCode;
use crate::{CodeError, ErasureCode, RepairRequirement};

/// LRC(k, l, m): the `k` data chunks are split into `l` local groups of
/// `k/l` chunks; each group gets one XOR local parity, and `m` global
/// Cauchy parities protect the whole stripe (`n = k + l + m`).
///
/// Repairing a data chunk only touches the `k/l - 1` other chunks of its
/// group plus the local parity — `k/l` reads instead of `k` (§II-C of the
/// paper, Figure 1(b)).
///
/// Chunk layout: `0..k` data, `k..k+l` local parities (group `g`'s parity is
/// at index `k + g`), `k+l..n` global parities.
///
/// # Examples
///
/// ```
/// use chameleon_codes::{ErasureCode, Lrc, RepairRequirement};
///
/// let lrc = Lrc::new(4, 2, 2)?;
/// assert_eq!(lrc.n(), 8);
/// // Repairing data chunk 0 needs only chunk 1 and local parity 4.
/// let alive: Vec<usize> = (1..8).collect();
/// let req = lrc.repair_requirement(0, &alive)?;
/// assert_eq!(req, RepairRequirement::Exact { sources: vec![1, 4] });
/// # Ok::<(), chameleon_codes::CodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lrc {
    inner: LinearCode,
    k: usize,
    l: usize,
    m: usize,
}

impl Lrc {
    /// Creates LRC(k, l, m).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadParameters`] unless `k`, `l`, `m >= 1`,
    /// `l` divides `k`, and `k + m <= 255`.
    pub fn new(k: usize, l: usize, m: usize) -> Result<Self, CodeError> {
        if k == 0 || l == 0 || m == 0 || !k.is_multiple_of(l) || k + m > 255 {
            return Err(CodeError::BadParameters);
        }
        let group = k / l;
        // Local parity rows: XOR over each group.
        let mut local = Matrix::zero(l, k);
        for g in 0..l {
            for j in 0..group {
                local[(g, g * group + j)] = Gf256::ONE;
            }
        }
        let generator = Matrix::identity(k)
            .stack(&local)
            .expect("same column count")
            .stack(&Matrix::cauchy(m, k))
            .expect("same column count");
        Ok(Lrc {
            inner: LinearCode::new(generator),
            k,
            l,
            m,
        })
    }

    /// Number of local groups `l`.
    pub fn l(&self) -> usize {
        self.l
    }

    /// Number of global parities `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Size of each local group (`k / l` data chunks).
    pub fn group_size(&self) -> usize {
        self.k / self.l
    }

    /// The local group a data chunk or local parity belongs to, if any.
    pub fn group_of(&self, index: usize) -> Option<usize> {
        if index < self.k {
            Some(index / self.group_size())
        } else if index < self.k + self.l {
            Some(index - self.k)
        } else {
            None
        }
    }

    /// The members of group `g` that participate in a local repair:
    /// the group's data chunks plus its local parity.
    fn group_members(&self, g: usize) -> Vec<usize> {
        let gs = self.group_size();
        let mut members: Vec<usize> = (g * gs..(g + 1) * gs).collect();
        members.push(self.k + g);
        members
    }

    /// A minimal exact source set for repairing `failed` from `alive`,
    /// derived from a general decode combination (used when the preferred
    /// local repair is impossible).
    fn fallback_sources(&self, failed: usize, alive: &[usize]) -> Result<Vec<usize>, CodeError> {
        let candidates: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&i| i != failed && i < self.n())
            .collect();
        let combo = self.inner.decode_combination(&candidates, failed)?;
        Ok(combo.into_iter().map(|(pos, _)| candidates[pos]).collect())
    }
}

impl ErasureCode for Lrc {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn k(&self) -> usize {
        self.k
    }

    fn name(&self) -> String {
        format!("LRC({},{},{})", self.k, self.l, self.m)
    }

    fn fault_tolerance(&self) -> usize {
        // Any m failures are always recoverable (the global parities are
        // MDS over the data); most (m+1)-failure patterns also are, as in
        // Azure LRC, but not all — so we advertise the guaranteed bound.
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
        // Preferred: local repair within the failed chunk's group.
        if let Some(g) = self.group_of(failed) {
            let sources: Vec<usize> = self
                .group_members(g)
                .into_iter()
                .filter(|&i| i != failed)
                .collect();
            if sources.iter().all(|s| alive.contains(s)) {
                return Ok(RepairRequirement::Exact { sources });
            }
        } else {
            // Global parity: needs the k data chunks (or equivalents).
            let data_alive = (0..self.k).all(|i| alive.contains(&i));
            if data_alive {
                return Ok(RepairRequirement::Exact {
                    sources: (0..self.k).collect(),
                });
            }
        }
        let sources = self.fallback_sources(failed, alive)?;
        Ok(RepairRequirement::Exact { sources })
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

    fn stripe_of(code: &Lrc, len: usize) -> Vec<Vec<u8>> {
        let data: Vec<Vec<u8>> = (0..code.k())
            .map(|i| (0..len).map(|j| (i * 17 + j * 3 + 5) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
        code.encode(&refs).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(Lrc::new(5, 2, 2).unwrap_err(), CodeError::BadParameters);
        assert_eq!(Lrc::new(0, 1, 2).unwrap_err(), CodeError::BadParameters);
        assert_eq!(Lrc::new(4, 2, 0).unwrap_err(), CodeError::BadParameters);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn local_parity_is_group_xor() {
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let stripe = stripe_of(&lrc, 16);
        for b in 0..16 {
            assert_eq!(stripe[4][b], stripe[0][b] ^ stripe[1][b]);
            assert_eq!(stripe[5][b], stripe[2][b] ^ stripe[3][b]);
        }
    }

    #[test]
    fn data_repair_uses_local_group_only() {
        let lrc = Lrc::new(8, 2, 2).unwrap();
        let alive: Vec<usize> = (1..lrc.n()).collect();
        let req = lrc.repair_requirement(0, &alive).unwrap();
        let RepairRequirement::Exact { sources } = req else {
            panic!("expected exact");
        };
        // Group 0 = data 0..4 + local parity 8; sources exclude the failed 0.
        assert_eq!(sources, vec![1, 2, 3, 8]);
        assert_eq!(sources.len(), lrc.group_size());
    }

    #[test]
    fn local_repair_coefficients_are_all_one() {
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let coeffs = lrc.repair_coefficients(0, &[1, 4]).unwrap();
        assert!(coeffs.iter().all(|&c| c == Gf256::ONE));
    }

    #[test]
    fn local_repair_reconstructs_bytes() {
        let lrc = Lrc::new(6, 3, 2).unwrap();
        let stripe = stripe_of(&lrc, 24);
        for failed in 0..lrc.k() {
            let alive: Vec<usize> = (0..lrc.n()).filter(|&i| i != failed).collect();
            let req = lrc.repair_requirement(failed, &alive).unwrap();
            let RepairRequirement::Exact { sources } = req else {
                panic!()
            };
            let inputs: Vec<(usize, &[u8])> =
                sources.iter().map(|&s| (s, stripe[s].as_slice())).collect();
            assert_eq!(lrc.repair(failed, &inputs).unwrap(), stripe[failed]);
        }
    }

    #[test]
    fn global_parity_repair_uses_k_sources() {
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let alive: Vec<usize> = (0..lrc.n()).filter(|&i| i != 6).collect();
        let req = lrc.repair_requirement(6, &alive).unwrap();
        let RepairRequirement::Exact { sources } = req else {
            panic!()
        };
        assert_eq!(sources, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fallback_when_local_group_damaged() {
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let stripe = stripe_of(&lrc, 8);
        // Chunks 0 and 1 both failed: group 0 cannot self-repair chunk 0.
        let alive: Vec<usize> = (2..lrc.n()).collect();
        let req = lrc.repair_requirement(0, &alive).unwrap();
        let RepairRequirement::Exact { sources } = req else {
            panic!()
        };
        assert!(sources.iter().all(|s| alive.contains(s)));
        let inputs: Vec<(usize, &[u8])> =
            sources.iter().map(|&s| (s, stripe[s].as_slice())).collect();
        assert_eq!(lrc.repair(0, &inputs).unwrap(), stripe[0]);
    }

    #[test]
    fn tolerates_any_m_failures() {
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let stripe = stripe_of(&lrc, 8);
        let n = lrc.n();
        for a in 0..n {
            for b in a + 1..n {
                let avail: Vec<(usize, &[u8])> = (0..n)
                    .filter(|&i| i != a && i != b)
                    .map(|i| (i, stripe[i].as_slice()))
                    .collect();
                assert_eq!(lrc.decode(&avail, a).unwrap(), stripe[a], "lost {a},{b}");
                assert_eq!(lrc.decode(&avail, b).unwrap(), stripe[b], "lost {a},{b}");
            }
        }
    }

    #[test]
    fn recovers_most_m_plus_one_failures() {
        // Like Azure LRC, (m+1)-failure patterns are mostly recoverable:
        // count them for LRC(4,2,2). The information-theoretic bound says a
        // pattern is unrecoverable iff some erased set exceeds what its
        // touching groups + globals can cover.
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let stripe = stripe_of(&lrc, 8);
        let n = lrc.n();
        let mut recoverable = 0;
        let mut total = 0;
        for a in 0..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    total += 1;
                    let lost = [a, b, c];
                    let avail: Vec<(usize, &[u8])> = (0..n)
                        .filter(|i| !lost.contains(i))
                        .map(|i| (i, stripe[i].as_slice()))
                        .collect();
                    if lost
                        .iter()
                        .all(|&x| lrc.decode(&avail, x).map(|v| v == stripe[x]) == Ok(true))
                    {
                        recoverable += 1;
                    }
                }
            }
        }
        // All patterns should recover at least 3/4 of the time; for this
        // construction the vast majority do.
        assert!(
            recoverable * 4 >= total * 3,
            "only {recoverable}/{total} recoverable"
        );
    }

    #[test]
    fn chunk_classes_and_groups() {
        let lrc = Lrc::new(6, 2, 2).unwrap();
        assert_eq!(lrc.group_of(2), Some(0));
        assert_eq!(lrc.group_of(3), Some(1));
        assert_eq!(lrc.group_of(7), Some(1));
        assert_eq!(lrc.group_of(8), None);
        assert_eq!(lrc.name(), "LRC(6,2,2)");
    }
}
