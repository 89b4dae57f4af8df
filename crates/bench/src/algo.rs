//! The algorithm zoo the experiments compare.

use chameleon_core::baseline::{PlanShape, StaticRepairDriver};
use chameleon_core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleon_core::{RepairContext, RepairDriver};

/// Every repair scheduler the evaluation exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgoKind {
    /// Conventional repair.
    Cr,
    /// Partial-parallel repair.
    Ppr,
    /// ECPipe chained pipelining.
    EcPipe,
    /// RepairBoost-boosted CR.
    RbCr,
    /// RepairBoost-boosted PPR.
    RbPpr,
    /// RepairBoost-boosted ECPipe.
    RbEcPipe,
    /// ChameleonEC (full: ETRP + SAR).
    Chameleon,
    /// ChameleonEC with a custom T_phase (Exp#3).
    ChameleonTPhase(f64),
    /// Dispatch + tunable plans only, no straggler handling (Exp#11).
    Etrp,
    /// The storage-bottleneck variant (Exp#12).
    ChameleonIo,
}

impl AlgoKind {
    /// The four algorithms of the headline comparison (Fig. 12).
    pub const HEADLINE: [AlgoKind; 4] = [
        AlgoKind::Cr,
        AlgoKind::Ppr,
        AlgoKind::EcPipe,
        AlgoKind::Chameleon,
    ];

    /// The three §II-D baselines.
    pub const BASELINES: [AlgoKind; 3] = [AlgoKind::Cr, AlgoKind::Ppr, AlgoKind::EcPipe];

    /// The nine algorithms that have a command-line name, with that name.
    pub const NAMED: [(&'static str, AlgoKind); 9] = [
        ("cr", AlgoKind::Cr),
        ("ppr", AlgoKind::Ppr),
        ("ecpipe", AlgoKind::EcPipe),
        ("rb-cr", AlgoKind::RbCr),
        ("rb-ppr", AlgoKind::RbPpr),
        ("rb-ecpipe", AlgoKind::RbEcPipe),
        ("chameleon", AlgoKind::Chameleon),
        ("chameleon-io", AlgoKind::ChameleonIo),
        ("etrp", AlgoKind::Etrp),
    ];

    /// `false` for ChameleonEC and its variants (custom `T_phase`, ETRP
    /// only, the IO variant); `true` for everything it is compared against.
    pub fn is_baseline(self) -> bool {
        !matches!(
            self,
            AlgoKind::Chameleon
                | AlgoKind::ChameleonTPhase(_)
                | AlgoKind::Etrp
                | AlgoKind::ChameleonIo
        )
    }

    /// The algorithm a command-line name (`--algo`, `--algos`) stands for.
    pub fn from_name(name: &str) -> Option<AlgoKind> {
        Self::NAMED
            .iter()
            .find_map(|&(n, kind)| (n == name).then_some(kind))
    }

    /// Builds the driver for a context.
    pub fn driver(self, ctx: RepairContext, seed: u64) -> Box<dyn RepairDriver> {
        match self {
            AlgoKind::Cr => Box::new(StaticRepairDriver::new(ctx, PlanShape::Star, seed)),
            AlgoKind::Ppr => Box::new(StaticRepairDriver::new(ctx, PlanShape::Tree, seed)),
            AlgoKind::EcPipe => Box::new(StaticRepairDriver::new(ctx, PlanShape::Chain, seed)),
            AlgoKind::RbCr => Box::new(StaticRepairDriver::boosted(ctx, PlanShape::Star, seed)),
            AlgoKind::RbPpr => Box::new(StaticRepairDriver::boosted(ctx, PlanShape::Tree, seed)),
            AlgoKind::RbEcPipe => {
                Box::new(StaticRepairDriver::boosted(ctx, PlanShape::Chain, seed))
            }
            AlgoKind::Chameleon => Box::new(ChameleonDriver::new(ctx, ChameleonConfig::default())),
            AlgoKind::ChameleonTPhase(t) => Box::new(ChameleonDriver::new(
                ctx,
                ChameleonConfig {
                    t_phase_secs: t,
                    ..ChameleonConfig::default()
                },
            )),
            AlgoKind::Etrp => Box::new(ChameleonDriver::new(ctx, ChameleonConfig::etrp_only())),
            AlgoKind::ChameleonIo => Box::new(ChameleonDriver::new(ctx, ChameleonConfig::io())),
        }
    }

    /// Display label.
    pub fn label(self) -> String {
        match self {
            AlgoKind::Cr => "CR".into(),
            AlgoKind::Ppr => "PPR".into(),
            AlgoKind::EcPipe => "ECPipe".into(),
            AlgoKind::RbCr => "RB+CR".into(),
            AlgoKind::RbPpr => "RB+PPR".into(),
            AlgoKind::RbEcPipe => "RB+ECPipe".into(),
            AlgoKind::Chameleon => "ChameleonEC".into(),
            AlgoKind::ChameleonTPhase(t) => format!("ChameleonEC(T={t}s)"),
            AlgoKind::Etrp => "ETRP".into(),
            AlgoKind::ChameleonIo => "ChameleonEC-IO".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_cluster::{Cluster, ClusterConfig};
    use chameleon_codes::ReedSolomon;
    use std::sync::Arc;

    #[test]
    fn every_named_kind_builds_a_driver_with_its_label() {
        for (name, kind) in AlgoKind::NAMED {
            assert_eq!(AlgoKind::from_name(name), Some(kind));
            let cluster = Cluster::new(ClusterConfig::small(6)).unwrap();
            let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
            assert_eq!(kind.driver(ctx, 1).name(), kind.label(), "{name}");
        }
        assert_eq!(AlgoKind::from_name("bogus"), None);
        assert_eq!(AlgoKind::from_name("CR"), None);
    }
}
