//! The Butterfly(4, 2) XOR regenerating code (Pamies-Juarez et al.,
//! FAST 2016), with sub-packetization 2.

use chameleon_gf::{combine_into, pages, Gf256, Matrix, MulTable};

use crate::{CodeError, ErasureCode, RepairRequirement, SourceRead};

/// Number of sub-chunks per chunk (the code's sub-packetization).
const ALPHA: usize = 2;
/// Number of data chunks.
const K: usize = 2;
/// Total chunks per stripe.
const N: usize = 4;

/// Sub-chunk generator rows over the 4 data sub-chunks `(a0, a1, b0, b1)`.
/// Chunk `i` owns sub-chunks `2i` and `2i + 1`. All arithmetic is XOR.
///
/// - chunk 0 = `(a0, a1)`, chunk 1 = `(b0, b1)` (data)
/// - chunk 2 = horizontal parity `H = (a0^b0, a1^b1)`
/// - chunk 3 = butterfly parity `Bf = (a1^b0, a0^a1^b1)`
const SUB_ROWS: [[u8; 4]; 8] = [
    [1, 0, 0, 0], // a0
    [0, 1, 0, 0], // a1
    [0, 0, 1, 0], // b0
    [0, 0, 0, 1], // b1
    [1, 0, 1, 0], // H0
    [0, 1, 0, 1], // H1
    [0, 1, 1, 0], // Bf0
    [1, 1, 0, 1], // Bf1
];

/// For each failed chunk: the sub-chunks to read, and how each half of the
/// failed chunk is rebuilt as an XOR subset of those reads.
struct RepairRule {
    /// Global sub-chunk indices to download.
    reads: &'static [usize],
    /// For each of the failed chunk's halves: which positions in `reads`
    /// XOR together to rebuild it.
    rebuild: [&'static [usize]; ALPHA],
}

const REPAIR_RULES: [RepairRule; N] = [
    // Repair chunk 0 (a): read b0, H0, Bf0 → a0 = b0^H0, a1 = b0^Bf0.
    RepairRule {
        reads: &[2, 4, 6],
        rebuild: [&[0, 1], &[0, 2]],
    },
    // Repair chunk 1 (b): read a1, H1, Bf0 → b0 = a1^Bf0, b1 = a1^H1.
    RepairRule {
        reads: &[1, 5, 6],
        rebuild: [&[0, 2], &[0, 1]],
    },
    // Repair chunk 2 (H): read a0, b0, Bf1 → H0 = a0^b0, H1 = a0^Bf1.
    RepairRule {
        reads: &[0, 2, 7],
        rebuild: [&[0, 1], &[0, 2]],
    },
    // Repair chunk 3 (Bf): read a0, a1, b0, H1 → Bf0 = a1^b0, Bf1 = a0^H1.
    RepairRule {
        reads: &[0, 1, 2, 5],
        rebuild: [&[1, 2], &[0, 3]],
    },
];

/// Butterfly(4, 2): an MSR-style regenerating code storing 2 data chunks in
/// a stripe of 4 with sub-packetization 2.
///
/// Repairing a data chunk or the horizontal parity downloads only three
/// half-chunks (1.5 chunks instead of k = 2); the butterfly parity falls
/// back to four half-chunks. Because the repair moves *specific sub-chunks*
/// rather than whole-chunk linear combinations, relay nodes cannot combine
/// them — the paper notes this caps ChameleonEC's benefit at ~4.9%
/// (Exp#9).
///
/// # Examples
///
/// ```
/// use chameleon_codes::{Butterfly, ErasureCode};
///
/// let bf = Butterfly::new();
/// let a = vec![1u8, 2, 3, 4];
/// let b = vec![5u8, 6, 7, 8];
/// let stripe = bf.encode(&[&a, &b])?;
/// assert_eq!(stripe.len(), 4);
/// // Any two chunks reconstruct everything (MDS).
/// let avail = [(2usize, stripe[2].as_slice()), (3, stripe[3].as_slice())];
/// assert_eq!(bf.decode(&avail, 0)?, a);
/// # Ok::<(), chameleon_codes::CodeError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Butterfly {
    _private: (),
}

impl Butterfly {
    /// Creates a Butterfly(4, 2) code.
    pub fn new() -> Self {
        Butterfly { _private: () }
    }

    /// Splits a chunk into its `ALPHA` halves.
    fn halves(chunk: &[u8]) -> Result<[&[u8]; ALPHA], CodeError> {
        if !chunk.len().is_multiple_of(ALPHA) {
            return Err(CodeError::ChunkSizeMismatch);
        }
        let half = chunk.len() / ALPHA;
        Ok([&chunk[..half], &chunk[half..]])
    }

    /// Sub-chunk generator row for global sub-chunk index `s`.
    fn sub_row(s: usize) -> Vec<Gf256> {
        SUB_ROWS[s].iter().map(|&b| Gf256::new(b)).collect()
    }
}

impl ErasureCode for Butterfly {
    fn n(&self) -> usize {
        N
    }

    fn k(&self) -> usize {
        K
    }

    fn name(&self) -> String {
        "Butterfly(4,2)".to_string()
    }

    fn fault_tolerance(&self) -> usize {
        N - K
    }

    fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodeError> {
        if data.len() != K {
            return Err(CodeError::WrongChunkCount);
        }
        if data[0].len() != data[1].len() {
            return Err(CodeError::ChunkSizeMismatch);
        }
        let a = Self::halves(data[0])?;
        let b = Self::halves(data[1])?;
        let subs: [&[u8]; 4] = [a[0], a[1], b[0], b[1]];
        let half = a[0].len();

        let mut stripe = Vec::with_capacity(N);
        stripe.extend(data.iter().map(|chunk| {
            let mut copy = Vec::with_capacity(chunk.len());
            pages::prepare_output(&mut copy);
            copy.extend_from_slice(chunk);
            copy
        }));
        // Each parity half is the XOR of the data halves its row selects,
        // written once by one `combine_into`.
        let one = MulTable::of(Gf256::ONE);
        let mut terms: Vec<(&MulTable, &[u8])> = Vec::with_capacity(subs.len());
        for chunk_idx in K..N {
            let mut chunk = crate::zeroed_output(half * ALPHA);
            for h in 0..ALPHA {
                let row = &SUB_ROWS[chunk_idx * ALPHA + h];
                terms.clear();
                terms.extend(
                    row.iter()
                        .zip(subs)
                        .filter(|(&bit, _)| bit != 0)
                        .map(|(_, src)| (one, src)),
                );
                combine_into(&terms, &mut chunk[h * half..(h + 1) * half]);
            }
            stripe.push(chunk);
        }
        Ok(stripe)
    }

    fn decode(&self, available: &[(usize, &[u8])], wanted: usize) -> Result<Vec<u8>, CodeError> {
        if wanted >= N || available.iter().any(|(i, _)| *i >= N) {
            return Err(CodeError::BadIndex);
        }
        let len = available.first().map(|(_, c)| c.len()).unwrap_or(0);
        if !len.is_multiple_of(ALPHA) || available.iter().any(|(_, c)| c.len() != len) {
            return Err(CodeError::ChunkSizeMismatch);
        }
        let half = len / ALPHA;

        // Collect the available sub-rows and sub-chunk bytes.
        let mut rows: Vec<Vec<Gf256>> = Vec::with_capacity(available.len() * ALPHA);
        let mut bytes: Vec<&[u8]> = Vec::with_capacity(available.len() * ALPHA);
        for (idx, chunk) in available {
            let hs = Self::halves(chunk)?;
            for (h, piece) in hs.iter().enumerate() {
                rows.push(Self::sub_row(idx * ALPHA + h));
                bytes.push(piece);
            }
        }
        // Both halves' coefficients (0 or 1 over this XOR code) before the
        // output exists, so a failed solve allocates no chunk.
        let coeffs = (0..ALPHA)
            .map(|h| {
                let target = Self::sub_row(wanted * ALPHA + h);
                Matrix::combination(rows.iter().map(Vec::as_slice), &target)
                    .ok_or(CodeError::NotEnoughChunks)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut out = crate::zeroed_output(len);
        let mut terms: Vec<(&MulTable, &[u8])> = Vec::with_capacity(bytes.len());
        for (h, coeffs) in coeffs.iter().enumerate() {
            terms.clear();
            terms.extend(
                coeffs
                    .iter()
                    .zip(&bytes)
                    .filter(|(c, _)| !c.is_zero())
                    .map(|(&c, &src)| (MulTable::of(c), src)),
            );
            combine_into(&terms, &mut out[h * half..(h + 1) * half]);
        }
        Ok(out)
    }

    fn repair_requirement(
        &self,
        failed: usize,
        alive: &[usize],
    ) -> Result<RepairRequirement, CodeError> {
        if failed >= N {
            return Err(CodeError::BadIndex);
        }
        let rule = &REPAIR_RULES[failed];
        let rule_sources: Vec<usize> = {
            let mut v: Vec<usize> = rule.reads.iter().map(|&s| s / ALPHA).collect();
            v.dedup();
            v
        };
        if rule_sources.iter().all(|s| alive.contains(s)) {
            // Aggregate per-source fractions (a source may supply both halves).
            let reads = rule_sources
                .iter()
                .map(|&src| SourceRead {
                    chunk: src,
                    fraction: rule.reads.iter().filter(|&&s| s / ALPHA == src).count() as f64
                        / ALPHA as f64,
                })
                .collect();
            return Ok(RepairRequirement::SubChunk { reads });
        }
        // Fallback: any two alive chunks fully determine the stripe (MDS).
        let sources: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&i| i != failed && i < N)
            .take(K)
            .collect();
        if sources.len() < K {
            return Err(CodeError::NotEnoughChunks);
        }
        Ok(RepairRequirement::SubChunk {
            reads: sources
                .into_iter()
                .map(|chunk| SourceRead {
                    chunk,
                    fraction: 1.0,
                })
                .collect(),
        })
    }

    fn repair_coefficients(
        &self,
        _failed: usize,
        _sources: &[usize],
    ) -> Result<Vec<Gf256>, CodeError> {
        Err(CodeError::SubChunkRepair)
    }

    fn repair(&self, failed: usize, inputs: &[(usize, &[u8])]) -> Result<Vec<u8>, CodeError> {
        if failed >= N {
            return Err(CodeError::BadIndex);
        }
        let rule = &REPAIR_RULES[failed];
        let have: Vec<usize> = inputs.iter().map(|(i, _)| *i).collect();
        let rule_sources: Vec<usize> = {
            let mut v: Vec<usize> = rule.reads.iter().map(|&s| s / ALPHA).collect();
            v.dedup();
            v
        };
        if !rule_sources.iter().all(|s| have.contains(s)) {
            return self.decode(inputs, failed);
        }
        let len = inputs.first().map(|(_, c)| c.len()).unwrap_or(0);
        if !len.is_multiple_of(ALPHA) || inputs.iter().any(|(_, c)| c.len() != len) {
            return Err(CodeError::ChunkSizeMismatch);
        }
        let half = len / ALPHA;
        // Materialize the downloaded sub-chunks in rule order.
        let read_bytes: Vec<&[u8]> = rule
            .reads
            .iter()
            .map(|&s| {
                let chunk = inputs
                    .iter()
                    .find(|(i, _)| *i == s / ALPHA)
                    .expect("checked above")
                    .1;
                let h = s % ALPHA;
                &chunk[h * half..(h + 1) * half]
            })
            .collect();
        let one = MulTable::of(Gf256::ONE);
        let mut out = crate::zeroed_output(len);
        let mut terms: Vec<(&MulTable, &[u8])> = Vec::with_capacity(read_bytes.len());
        for (h, rebuild) in rule.rebuild.iter().enumerate() {
            terms.clear();
            terms.extend(rebuild.iter().map(|&pos| (one, read_bytes[pos])));
            combine_into(&terms, &mut out[h * half..(h + 1) * half]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe() -> Vec<Vec<u8>> {
        let bf = Butterfly::new();
        let a: Vec<u8> = (0..32).map(|i| (i * 7 + 1) as u8).collect();
        let b: Vec<u8> = (0..32).map(|i| (i * 13 + 3) as u8).collect();
        bf.encode(&[&a, &b]).unwrap()
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn mds_any_two_chunks_decode_everything() {
        let bf = Butterfly::new();
        let s = stripe();
        for x in 0..N {
            for y in x + 1..N {
                let avail = [(x, s[x].as_slice()), (y, s[y].as_slice())];
                for wanted in 0..N {
                    assert_eq!(
                        bf.decode(&avail, wanted).unwrap(),
                        s[wanted],
                        "from {x},{y} want {wanted}"
                    );
                }
            }
        }
    }

    #[test]
    fn repair_rules_are_correct_for_every_chunk() {
        let bf = Butterfly::new();
        let s = stripe();
        for failed in 0..N {
            let inputs: Vec<(usize, &[u8])> = (0..N)
                .filter(|&i| i != failed)
                .map(|i| (i, s[i].as_slice()))
                .collect();
            assert_eq!(
                bf.repair(failed, &inputs).unwrap(),
                s[failed],
                "chunk {failed}"
            );
        }
    }

    #[test]
    fn repair_traffic_is_sub_chunk_optimal() {
        let bf = Butterfly::new();
        let alive: Vec<usize> = (0..N).collect();
        // Data chunks and H: 1.5 chunks of traffic.
        for failed in 0..3 {
            let others: Vec<usize> = alive.iter().copied().filter(|&i| i != failed).collect();
            let req = bf.repair_requirement(failed, &others).unwrap();
            assert!(
                (req.traffic_chunks() - 1.5).abs() < 1e-12,
                "chunk {failed}: {}",
                req.traffic_chunks()
            );
            assert!(!req.supports_relaying());
        }
        // Butterfly parity: 2.0 chunks.
        let others: Vec<usize> = (0..3).collect();
        let req = bf.repair_requirement(3, &others).unwrap();
        assert!((req.traffic_chunks() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn repair_falls_back_to_decode_when_rule_sources_dead() {
        let bf = Butterfly::new();
        let s = stripe();
        // Repair chunk 0 with chunk 2 also dead (rule needs H).
        let inputs = [(1usize, s[1].as_slice()), (3, s[3].as_slice())];
        assert_eq!(bf.repair(0, &inputs).unwrap(), s[0]);
        let req = bf.repair_requirement(0, &[1, 3]).unwrap();
        let RepairRequirement::SubChunk { reads } = req else {
            panic!()
        };
        assert!(reads.iter().all(|r| (r.fraction - 1.0).abs() < 1e-12));
    }

    #[test]
    fn whole_chunk_coefficients_are_unavailable() {
        let bf = Butterfly::new();
        assert_eq!(
            bf.repair_coefficients(0, &[1, 2]),
            Err(CodeError::SubChunkRepair)
        );
    }

    #[test]
    fn odd_chunk_size_rejected() {
        let bf = Butterfly::new();
        let a = [1u8, 2, 3];
        let b = [4u8, 5, 6];
        assert_eq!(
            bf.encode(&[&a, &b]).unwrap_err(),
            CodeError::ChunkSizeMismatch
        );
    }

    #[test]
    fn one_chunk_is_not_enough() {
        let bf = Butterfly::new();
        let s = stripe();
        let avail = [(2usize, s[2].as_slice())];
        assert_eq!(bf.decode(&avail, 0), Err(CodeError::NotEnoughChunks));
    }

    #[test]
    fn classes_and_metadata() {
        let bf = Butterfly::new();
        assert_eq!(bf.name(), "Butterfly(4,2)");
        assert_eq!(bf.k(), 2);
        assert_eq!(bf.n(), 4);
        assert_eq!(bf.fault_tolerance(), 2);
    }
}
