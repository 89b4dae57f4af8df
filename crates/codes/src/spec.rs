//! Repair requirements: what a scheduler must fetch to repair a chunk.

/// The role a chunk plays within a stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkClass {
    /// An original data chunk.
    Data,
    /// A local parity chunk (LRC only), protecting one local group.
    LocalParity,
    /// A global parity chunk, protecting the whole stripe.
    GlobalParity,
}

/// One source read in a sub-chunk repair: read `fraction` of the chunk at
/// stripe index `chunk`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceRead {
    /// Stripe index of the surviving chunk to read from.
    pub chunk: usize,
    /// Fraction of the chunk that must be read and transferred (0, 1].
    pub fraction: f64,
}

/// What a single-chunk repair needs, as reported by
/// [`ErasureCode::repair_requirement`](crate::ErasureCode::repair_requirement).
///
/// Schedulers use this to decide *which* surviving chunks to involve; they
/// then ask [`repair_coefficients`](crate::ErasureCode::repair_coefficients)
/// for the decoding coefficients of the chosen set.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairRequirement {
    /// Pick any `count` chunks out of `candidates`; each contributes one
    /// full chunk, and relay nodes may linearly combine partial results
    /// (RS codes, and LRC global-parity repair).
    AnyOf {
        /// Alive chunks eligible as sources.
        candidates: Vec<usize>,
        /// How many of them must be retrieved.
        count: usize,
    },
    /// Exactly these chunks are needed, one full chunk each; relays may
    /// combine (LRC local repair: the rest of the local group).
    Exact {
        /// The required source chunks.
        sources: Vec<usize>,
    },
    /// Sub-chunk reads that must be transferred verbatim to the repair
    /// destination (regenerating codes such as Butterfly; the paper notes
    /// ChameleonEC cannot build elastic plans over these, Exp#9).
    SubChunk {
        /// Per-source fractional reads.
        reads: Vec<SourceRead>,
    },
}

impl RepairRequirement {
    /// Total repair traffic in units of one chunk size.
    ///
    /// # Examples
    ///
    /// ```
    /// use chameleon_codes::RepairRequirement;
    /// let r = RepairRequirement::AnyOf { candidates: vec![0, 1, 2, 3], count: 2 };
    /// assert_eq!(r.traffic_chunks(), 2.0);
    /// ```
    pub fn traffic_chunks(&self) -> f64 {
        match self {
            RepairRequirement::AnyOf { count, .. } => *count as f64,
            RepairRequirement::Exact { sources } => sources.len() as f64,
            RepairRequirement::SubChunk { reads } => reads.iter().map(|r| r.fraction).sum(),
        }
    }

    /// Whether relay nodes may linearly combine partial results (enables
    /// ChameleonEC's tunable plans / PPR trees / ECPipe chains).
    pub fn supports_relaying(&self) -> bool {
        !matches!(self, RepairRequirement::SubChunk { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_chunks_by_variant() {
        let any = RepairRequirement::AnyOf {
            candidates: vec![1, 2, 3, 4, 5],
            count: 3,
        };
        assert_eq!(any.traffic_chunks(), 3.0);
        assert!(any.supports_relaying());

        let exact = RepairRequirement::Exact {
            sources: vec![4, 9],
        };
        assert_eq!(exact.traffic_chunks(), 2.0);
        assert!(exact.supports_relaying());

        let sub = RepairRequirement::SubChunk {
            reads: vec![
                SourceRead {
                    chunk: 1,
                    fraction: 0.5,
                },
                SourceRead {
                    chunk: 2,
                    fraction: 0.5,
                },
                SourceRead {
                    chunk: 3,
                    fraction: 0.5,
                },
            ],
        };
        assert!((sub.traffic_chunks() - 1.5).abs() < 1e-12);
        assert!(!sub.supports_relaying());
    }
}
